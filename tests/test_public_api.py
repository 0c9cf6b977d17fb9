"""Smoke tests for the top-level public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.service import checkapi

README = Path(__file__).resolve().parents[1] / "README.md"


def test_version():
    assert repro.__version__ == "10.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_import_leaves_the_http_endpoint_unloaded():
    """``ObservabilityServer`` and the http.server stack behind it load
    on first use, not with the package."""
    code = ("import sys, repro; "
            "assert 'http.server' not in sys.modules; "
            "from repro import ObservabilityServer; "
            "assert 'http.server' in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


def test_api_docs_in_sync():
    """The CI drift check: repro.__all__ matches docs/API.md."""
    assert checkapi.check() == []


def test_checkapi_detects_drift(tmp_path):
    doc = tmp_path / "API.md"
    doc.write_text(
        f"{checkapi.BEGIN}\n"
        + "\n".join(f"`{n}`" for n in repro.__all__ if n != "__version__")
        + "\n`not_actually_exported`\n"
        + checkapi.END)
    problems = checkapi.check(doc)
    assert any("not_actually_exported" in p for p in problems)
    doc.write_text(f"{checkapi.BEGIN}\n`build_service`\n{checkapi.END}")
    assert any("LocationServer" in p for p in checkapi.check(doc))


def test_checkapi_requires_markers(tmp_path):
    doc = tmp_path / "API.md"
    doc.write_text("no markers here")
    with pytest.raises(SystemExit):
        checkapi.check(doc)


def test_build_service_front_door():
    service = repro.build_service(
        repro.uniform_points(500, seed=3), shards=2,
        cache=repro.CacheConfig(capacity=16))
    response = service.answer(repro.KNNRequest((0.5, 0.5), k=2))
    assert len(response.result) == 2
    again = service.answer(repro.KNNRequest((0.5, 0.5), k=2))
    assert {e.oid for e in again.result} == {
        e.oid for e in response.result}
    assert service.cache.hits == 1


def test_build_service_accepts_execution_config():
    service = repro.build_service(
        repro.uniform_points(400, seed=5),
        execution=repro.ExecutionConfig(kernel="auto"))
    response = service.answer(repro.KNNRequest((0.5, 0.5), k=3))
    assert len(response.result) == 3


def test_per_type_query_methods_are_removed():
    server = repro.LocationServer.from_points(
        repro.uniform_points(300, seed=4))
    for name in ("knn_query", "window_query", "range_query",
                 "knn_query_delta", "window_query_delta"):
        assert not hasattr(server, name)
    response = server.answer(repro.KNNRequest((0.5, 0.5), k=1))
    assert len(response.result) == 1


def test_removed_service_kwargs_raise():
    """The pre-1.3 spellings are gone in v2.0, not silently ignored."""
    points = repro.uniform_points(300, seed=6)
    for kwarg in ("cache_capacity", "cache_grid", "max_workers"):
        with pytest.raises(TypeError):
            repro.build_service(points, shards=2, **{kwarg: 1})
    with pytest.raises(TypeError):
        repro.ShardedServer.from_points(points, grid=2, max_workers=1)
    with pytest.raises(TypeError):
        repro.ShardedServer([], repro.Rect(0, 0, 1, 1), 2, max_workers=1)


def test_execution_config_validation():
    with pytest.raises(TypeError):
        repro.ExecutionConfig(backend="thread")
    with pytest.raises(ValueError):
        repro.ExecutionConfig(kernel="fortran")
    with pytest.raises(ValueError):
        repro.ExecutionConfig(workers=0)


def test_readme_quickstart_runs():
    """README's first python block runs as written."""
    block = re.search(r"```python\n(.*?)```", README.read_text(),
                      re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    namespace["service"].close()
    assert namespace["client"].stats.cache_answers >= 1


def test_module_docstring_example():
    server = repro.LocationServer.from_points(
        repro.uniform_points(2_000, seed=1))
    client = repro.MobileClient(server)
    nearest = client.knn((0.5, 0.5), k=1)
    assert nearest == client.knn((0.5 + 1e-9, 0.5 + 1e-9), k=1)
    assert client.stats.cache_answers == 1


def test_end_to_end_window():
    server = repro.LocationServer.from_points(
        repro.uniform_points(2_000, seed=2))
    client = repro.MobileClient(server)
    result = client.window((0.5, 0.5), 0.1, 0.1)
    again = client.window((0.5 + 1e-9, 0.5), 0.1, 0.1)
    assert [e.oid for e in result] == [e.oid for e in again]
    assert client.stats.server_queries == 1
