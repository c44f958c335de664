"""The benchmark tracer's targets must name live functions of the package.

`bench/tracer.py` wraps each `TARGETS` entry by name and skips, with only a
note, any entry it cannot resolve; a deletion in `src/` would then drop that
layer's metric silently. This test loads the tracer by file path and fails
on such an entry instead.
"""

import importlib
import types
from pathlib import Path

import pytest

import antipaths

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = Path(antipaths.__file__).resolve().parent


def load_tracer():
    # compiled in memory, so no bytecode cache is written beside the bench
    path = ROOT / "bench" / "tracer.py"
    module = types.ModuleType("bench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("module_name, attr", sorted({(m, a) for _, m, a in TARGETS}))
def test_tracer_target_is_a_package_function(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        assert obj is not None, f"{module_name}.{attr} does not resolve"
    assert isinstance(obj, types.FunctionType), f"{module_name}.{attr} is not a plain function"
    assert obj.__module__ == module_name
    assert Path(obj.__code__.co_filename).resolve().parent == PACKAGE_DIR
