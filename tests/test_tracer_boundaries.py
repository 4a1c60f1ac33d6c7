"""Every callable the benchmark tracer wraps still exists where it looks.

``perfbench/tracer.py`` patches each name in ``BOUNDARIES``: ``mod.func``
as an attribute of ``monoconv.mod``, ``mod.Class.method`` as an entry of
the class's own ``__dict__``.  A refactor that moves or renames one of
them would otherwise show up only as a failed benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("dotted", _boundaries())
def test_tracer_boundary_resolves(dotted):
    module_name, *attrs = dotted.split(".")
    module = importlib.import_module(f"monoconv.{module_name}")
    if len(attrs) == 1:
        target = getattr(module, attrs[0])
    else:
        target = vars(getattr(module, attrs[0]))[attrs[1]]
    assert inspect.isfunction(target)
