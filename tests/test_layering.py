"""Dependencies point one way: nothing below the service tier imports it,
and the telemetry package imports nothing else of ``repro``.

``repro.service`` builds on ``repro.core`` (and on geometry, index,
kernel, obs, storage …); the reverse edge would make the core
unimportable on its own and hide per-kind logic in the service tier.
This test walks the syntax tree of every module outside
``repro/service/`` — except the two composition roots, ``repro/cli.py``
and ``repro/__init__.py`` — and fails on any ``import`` or ``from``
naming ``repro.service``, at module level or inside a function.
Docstrings and comments that mention the service tier do not count.

``repro.obs`` sits at the bottom: the storage layer, the core and the
service tier all import it, so every module under ``repro/obs/`` may
import only ``repro.obs`` itself (relative imports resolved).
"""

from __future__ import annotations

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent
#: Modules allowed to assemble the whole stack.
COMPOSITION_ROOTS = {"cli.py", "__init__.py"}


def _imports_service(tree: ast.AST) -> list:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n == "repro.service" or n.startswith("repro.service.")
               for n in names):
            lines.append(node.lineno)
    return lines


def _modules():
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT)
        if rel.parts[0] == "service" or str(rel) in COMPOSITION_ROOTS:
            continue
        yield rel, path


def test_nothing_outside_the_service_tier_imports_it():
    offenders = {}
    for rel, path in _modules():
        lines = _imports_service(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[str(rel)] = lines
    assert offenders == {}, (
        f"modules importing repro.service (file: lines): {offenders}")


def test_the_walk_sees_function_level_imports():
    tree = ast.parse(
        '"""Mentions repro.service in prose only."""\n'
        "def hook():\n"
        "    from repro.service.staleness import Mutation\n"
        "    import repro.service.cache as cache\n")
    assert _imports_service(tree) == [3, 4]


def test_the_walk_covers_the_core():
    walked = {str(rel) for rel, _path in _modules()}
    assert {"core/semantics.py", "core/conformance.py",
            "core/api.py"} <= walked
    assert not any(rel.startswith("service/") for rel in walked)


def _repro_imports_outside_obs(tree: ast.AST, package: str) -> list:
    """Lines importing a ``repro`` module outside ``repro.obs``;
    relative imports resolve against ``package``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[:len(base) - node.level + 1]
            else:
                base = []
            names = [".".join(base + ([node.module] if node.module else []))]
        else:
            continue
        if any((n == "repro" or n.startswith("repro."))
               and not (n == "repro.obs" or n.startswith("repro.obs."))
               for n in names):
            lines.append(node.lineno)
    return lines


def test_obs_imports_no_other_repro_package():
    offenders = {}
    for path in sorted((ROOT / "obs").rglob("*.py")):
        lines = _repro_imports_outside_obs(
            ast.parse(path.read_text(), str(path)), "repro.obs")
        if lines:
            offenders[str(path.relative_to(ROOT))] = lines
    assert offenders == {}, (
        f"repro.obs modules importing other repro packages: {offenders}")


def test_the_obs_walk_sees_function_level_and_relative_imports():
    tree = ast.parse(
        "from repro.obs.context import span\n"
        "from . import events\n"
        "def hook():\n"
        "    from repro.service.metrics import series_key\n"
        "    from .. import core\n"
        "    import repro\n")
    assert _repro_imports_outside_obs(tree, "repro.obs") == [4, 5, 6]
