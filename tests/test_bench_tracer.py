"""The traced benchmark wraps library functions by name; each must exist.

``bench/tracer.py`` patches every ``LAYERS`` entry into ``kemod`` from
outside, so a renamed or deleted function breaks ``bench/run.py --trace 1``
with an ``AttributeError`` that no library test would otherwise see.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_layer_resolves_in_kemod(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look the module up
    spec.loader.exec_module(tracer)
    missing = []
    for fn in tracer.LAYERS:
        modname, _, attr = fn.partition(".")
        mod = importlib.import_module(f"kemod.{modname}")
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(mod, clsname, None)
            ok = cls is not None and meth in vars(cls)
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append(fn)
    assert missing == []

