"""The package names that perfbench's tracer reaches by name must exist, so a
refactor that removes one fails here and not only on a traced bench pass."""

import importlib
import importlib.util
from pathlib import Path

from mixedmilnor import degeneracy
from mixedmilnor.poly import MixedPoly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = load_tracing()
    for meth in tracing.POLY_METHODS:
        assert meth in MixedPoly.__dict__, meth
    for short in tracing.LAYERS:
        importlib.import_module(f"mixedmilnor.{short}")
    assert callable(degeneracy.minimize)
