"""The public surface that callers outside the package look names up in."""

import importlib
import importlib.util
from pathlib import Path

import dampedwave as dw

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    """Every function the benchmark's traced run wraps still exists."""
    for span, modname, attr in _load_tracing().TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span}: {modname}.{attr} is gone"
        assert callable(owner), f"{span}: {modname}.{attr} is not callable"


def test_exports_exist():
    assert len(set(dw.__all__)) == len(dw.__all__)
    missing = [name for name in dw.__all__ if not hasattr(dw, name)]
    assert not missing
