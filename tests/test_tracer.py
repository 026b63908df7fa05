"""The benchmark tracer still finds every favard function it rebinds.

bench/tracer.py wraps favard's public functions from outside the package
by name; a rename or deletion inside favard would break the traced
benchmark pass without failing any other test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import favard.cli  # noqa: F401  loads every favard module the tracer rebinds
from favard.poly import Polynomial

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("favard_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "favard" or name.startswith("favard.")
    }


def test_tracer_names_resolve_and_uninstall_restores_them():
    tracer = _load_tracer()
    for module, attr, _ in tracer.SPANS + tracer.COUNTERS:
        assert callable(getattr(importlib.import_module(f"favard.{module}"), attr, None)), (
            f"favard.{module}.{attr}"
        )
    before, mul = _bindings(), Polynomial.__mul__
    probe = tracer.Tracer()
    probe.install()
    try:
        assert favard.linalg.rank is not before["favard.linalg"]["rank"]
        assert Polynomial.__mul__ is not mul
    finally:
        probe.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        moved = [attr for attr, value in attrs.items() if after[name][attr] is not value]
        assert not moved, f"{name}: {moved}"
    assert Polynomial.__mul__ is mul
