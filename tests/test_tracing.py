"""The benchmark's tracer wraps named module attributes of pplogic; a
renamed or removed entry point would break every traced run, so this test
installs and uninstalls the tracer.  It only reads ``benchmark/``."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists(tracing):
    names = {
        f"{module}.{entry[0] if isinstance(entry, tuple) else entry}"
        for module, entries in tracing.ENTRY_POINTS.items()
        for entry in entries
    }
    assert {"ppl.parse", "prop.dnf", "rcof.classify"} <= names
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracer._patches) == len(names)
        for module, attr, _, wrapper in tracer._patches:
            assert getattr(module, attr) is wrapper
    finally:
        tracer.uninstall()
    for module, attr, fn, _ in tracer._patches:
        assert getattr(module, attr) is fn
