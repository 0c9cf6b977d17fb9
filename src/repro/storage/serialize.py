"""Binary serialization of R*-trees (a paged on-disk format).

A stored tree is a header plus one fixed-size page per node, mirroring
the disk layout the paper's cost model assumes (one node per page):

* header: magic, version, page size, node capacity, tree height, object
  count, root page index, page count;
* leaf page: level byte, entry count, then 20-byte point entries
  (u32 oid + 2 x f64) — the paper's entry size;
* inner page: level byte, entry count, then 36-byte child entries
  (u32 child page + 4 x f64 MBR).

The page size is chosen as the smallest multiple of 512 bytes that fits
``capacity`` entries of the larger kind, so any capacity round-trips.
"""

from __future__ import annotations

import struct
from typing import Dict, List

from repro.index.entry import LeafEntry
from repro.index.node import Node
from repro.index.rstar import RStarTree
from repro.storage.disk import DiskSimulator

MAGIC = b"RPRT"
VERSION = 1

_HEADER = struct.Struct("<4sHHIIIII")   # magic, version, reserved,
                                        # page_size, capacity, height,
                                        # size, root_page (+page count via len)
_PAGE_HEADER = struct.Struct("<BH")     # level, entry count
_LEAF_ENTRY = struct.Struct("<Idd")     # oid, x, y
_INNER_ENTRY = struct.Struct("<Idddd")  # child page, mbr


def page_size_for(capacity: int) -> int:
    """Smallest 512-byte multiple fitting ``capacity`` inner entries."""
    needed = _PAGE_HEADER.size + capacity * _INNER_ENTRY.size
    return ((needed + 511) // 512) * 512


def tree_to_bytes(tree: RStarTree) -> bytes:
    """Serialize ``tree`` to its paged binary image (no file involved).

    This is the byte string :func:`save_tree` writes.
    """
    page_size = page_size_for(tree.capacity)
    # Assign dense page indices in a deterministic DFS order.
    order: List[Node] = list(tree.nodes())
    index: Dict[int, int] = {id(node): i for i, node in enumerate(order)}
    parts = [_HEADER.pack(MAGIC, VERSION, 0, page_size, tree.capacity,
                          tree.height, len(tree), index[id(tree.root)]),
             struct.pack("<I", len(order))]
    parts.extend(_encode_page(node, index, page_size) for node in order)
    return b"".join(parts)


def save_tree(tree: RStarTree, path: str) -> int:
    """Write ``tree`` to ``path``; returns the number of bytes written."""
    data = tree_to_bytes(tree)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def tree_from_bytes(data: bytes, disk: DiskSimulator | None = None,
                    source: str = "<bytes>") -> RStarTree:
    """Rebuild a tree from its :func:`tree_to_bytes` image.

    Entry order is preserved page-for-page, so a rebuilt tree traverses
    (and therefore answers and charges) exactly like the original.
    """
    if len(data) < _HEADER.size:
        raise ValueError(f"{source}: truncated header")
    magic, version, _, page_size, capacity, height, size, root_page = (
        _HEADER.unpack_from(data, 0))
    if magic != MAGIC:
        raise ValueError(f"{source}: not a serialized R*-tree")
    if version != VERSION:
        raise ValueError(f"{source}: unsupported version {version}")
    offset = _HEADER.size
    (num_pages,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) < offset + num_pages * page_size:
        raise ValueError(f"{source}: truncated page data")
    pages = [data[offset + i * page_size: offset + (i + 1) * page_size]
             for i in range(num_pages)]
    return _assemble(pages, capacity, height, size, root_page, disk, source)


def load_tree(path: str, disk: DiskSimulator | None = None) -> RStarTree:
    """Read a tree written by :func:`save_tree`.

    The loaded tree is fully functional (queries, inserts, deletes) and
    charged to ``disk`` like any other.
    """
    with open(path, "rb") as fh:
        return tree_from_bytes(fh.read(), disk=disk, source=path)


def _assemble(pages: List[bytes], capacity: int, height: int, size: int,
              root_page: int, disk: DiskSimulator | None,
              source: str) -> RStarTree:
    tree = RStarTree(capacity=capacity, disk=disk)
    tree.pages.free(tree.root.page_id)  # discard the placeholder root

    nodes: List[Node] = []
    children: List[List[int]] = []
    for raw_page in pages:
        node, child_pages = _decode_page(raw_page, tree)
        nodes.append(node)
        children.append(child_pages)
    for node, child_pages in zip(nodes, children):
        if not node.is_leaf:
            node.entries = [nodes[c] for c in child_pages]
    # MBRs must be tightened leaf-first: inner MBRs depend on children.
    for node in sorted(nodes, key=lambda n: n.level):
        node.recompute_mbr()
    if not 0 <= root_page < len(nodes):
        raise ValueError(f"{source}: root page {root_page} out of range")
    tree.root = nodes[root_page]
    tree._size = size
    if tree.height != height:
        raise ValueError(f"{source}: height mismatch "
                         f"({tree.height} != stored {height})")
    return tree


def _encode_page(node: Node, index: Dict[int, int], page_size: int) -> bytes:
    parts = [_PAGE_HEADER.pack(node.level, len(node.entries))]
    if node.is_leaf:
        for e in node.entries:
            parts.append(_LEAF_ENTRY.pack(e.oid, e.x, e.y))
    else:
        for child in node.entries:
            parts.append(_INNER_ENTRY.pack(index[id(child)],
                                           child.mbr.xmin, child.mbr.ymin,
                                           child.mbr.xmax, child.mbr.ymax))
    payload = b"".join(parts)
    if len(payload) > page_size:
        raise ValueError("node does not fit in a page — corrupt capacity?")
    return payload + b"\0" * (page_size - len(payload))


def _decode_page(raw: bytes, tree: RStarTree):
    level, count = _PAGE_HEADER.unpack_from(raw, 0)
    node = Node(level=level, page_id=tree.pages.allocate())
    offset = _PAGE_HEADER.size
    child_pages: List[int] = []
    if level == 0:
        for _ in range(count):
            oid, x, y = _LEAF_ENTRY.unpack_from(raw, offset)
            node.entries.append(LeafEntry(oid, x, y))
            offset += _LEAF_ENTRY.size
    else:
        for _ in range(count):
            child, *_mbr = _INNER_ENTRY.unpack_from(raw, offset)
            child_pages.append(child)
            offset += _INNER_ENTRY.size
    return node, child_pages
