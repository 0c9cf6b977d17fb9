"""Execution strategy selection: one typed knob for kernel + pool width.

:class:`ExecutionConfig` is the single place callers pick *how* queries
execute — which geometry kernel evaluates the candidate sets
(``scalar``, ``numpy``, or ``auto``) and how wide the shard fan-out
thread pool is.  It is accepted by
:class:`repro.core.server.LocationServer`,
:class:`repro.service.shard.ShardedServer`,
:func:`repro.service.service.build_service`, and the CLI
(``--kernel``), and is the only way to choose a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "KERNELS",
    "ExecutionConfig",
    "resolve_kernel_name",
]

#: Geometry kernels: ``scalar`` is the paper's one-object-at-a-time
#: R*-tree path, ``numpy`` the columnar batch kernel, and ``auto`` an
#: alias of ``numpy``.
KERNELS = ("auto", "scalar", "numpy")


def resolve_kernel_name(name: str) -> str:
    """Resolve a kernel request to a concrete kernel name (``auto``
    becomes ``numpy``)."""
    if name not in KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {KERNELS}")
    return "numpy" if name == "auto" else name


@dataclass(frozen=True)
class ExecutionConfig:
    """How queries execute: geometry kernel and shard pool width.

    * ``kernel`` — the geometry kernel; see :data:`KERNELS` (the numpy
      kernel lives in :mod:`repro.kernel.backends`).  The columnar
      kernel answers kNN/TPNN from an in-memory struct-of-arrays
      snapshot with **zero simulated node accesses**, so the paper's
      I/O accounting (and node-access budgets) only meter the
      ``scalar`` kernel — the default.
    * ``workers`` — width of the thread pool a sharded server scatters
      shard jobs over; ``None`` sizes it to ``min(num_shards,
      cpu_count)``.
    """

    kernel: str = "scalar"
    workers: Optional[int] = None

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {KERNELS}")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive (or None)")

    def resolved_kernel(self) -> str:
        """The concrete kernel name this configuration runs with."""
        return resolve_kernel_name(self.kernel)
