"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper in every
``kemod`` namespace that binds it, so calls through ``linalg.kernel_fp`` and
through ``from .linalg import kernel_fp`` are both counted.  Each call is a
span whose parent is the innermost open span (the benchmark opens a root
span ``op`` per operation).  Spans are aggregated as they close: per
function its calls, self time (duration minus the time of its child spans)
and total time (outermost calls only, so recursion is not counted twice),
and per parent -> child edge its calls and time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

GRID = "cjt.ops_per_s on basis-aligned inputs; bundle.setup_s"
SNF = "cjt.ops_per_s and cjt.op_p50_s on basis-changed inputs"
PENCIL = "bundle.ops_per_s; suite.ops_per_s"
FP = "bundle.ops_per_s (large matrices); suite.op_p50_s (tiny matrices)"
GEN = "extfield.ops_per_s"
GF = "cjt on non-CJT inputs; extfield.ops_per_s"
SUITE = "suite.ops_per_s"

# function -> (counters reported, end-to-end metrics a change to it should move)
LAYERS = {
    "modules.generic_power_ranks": (("calls", "self_s", "sweeps"), GRID),
    "modules.rank_at_point": (("calls", "self_s"), GRID),
    "modules.constant_jordan_type": (("total_s",), GRID),
    "snf.smith_normal_form": (("calls", "self_s", "max_dim"), SNF),
    "dpoly.mul": (("calls", "self_s"), SNF),
    "pencil.graded_kernel_basis": (("calls", "self_s", "kernels_per_gen"), PENCIL),
    "pencil.shifted_left_kernel": (("calls", "self_s"), PENCIL),
    "pencil.solve_in_basis": (("calls", "self_s"), PENCIL),
    "linalg.rref_fp": (("calls", "self_s", "max_cells"), FP),
    "linalg.kernel_fp": (("calls", "self_s"), FP),
    "linalg.matmul_fp": (("calls", "self_s"), FP),
    "linalg.rref_gen": (("calls", "self_s"), GEN),
    "linalg.kernel_gen": (("self_s",), GEN),
    "sheaf.splitting_type": (("total_s", "rank0_s"), GEN),
    "sheaf.theta_matrix": (("calls", "self_s"), GEN),
    "gf.some_irreducible_factor": (("calls", "self_s"), GF),
    "gf.splitting_extension": (("self_s",), GF),
    "subspace.Subspace.span": (("calls", "self_s"), SUITE),
    "subspace.Subspace.intersect": (("self_s",), SUITE),
    "genker.generic_kernel_power": (("total_s",), SUITE),
    "genker.generic_image_power": (("total_s",), SUITE),
    "decomp.decompose": (("total_s",), SUITE),
    "decomp.iso_probe": (("total_s",), SUITE),
    "suite.verify_theorems": (("total_s",), SUITE),
    "io.load_module": (("self_s",), SUITE),
    "cli.main": (("total_s",), SUITE),
}

UNITS = {"calls": "count", "sweeps": "count", "self_s": "s", "total_s": "s", "rank0_s": "s",
         "kernels_per_gen": "ratio", "max_cells": "cells", "max_dim": "rows"}

# counters that add up over rounds; the others are ratios or maxima
PER_ROUND = {"calls", "sweeps", "self_s", "total_s", "rank0_s"}


def metric_specs() -> list[dict]:
    """Every per-layer metric: name, unit, and the end-to-end metrics it should move."""
    return [{"name": f"{fn}.{c}", "unit": UNITS[c], "moves": moves}
            for fn, (counters, moves) in LAYERS.items() for c in counters]


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    depth: int = 0
    sweeps: int = 0
    gens: int = 0
    rank0_s: float = 0.0
    max_cells: int = 0
    max_dim: int = 0


# -- derived counters: (before(args) -> token, after(stat, token, result, seconds))


def _grid_before(args, kwargs):
    m, jmax = args[0], args[1] if len(args) > 1 else kwargs["jmax"]
    return ("generic_ranks", jmax) not in m._cache  # True when the grid is evaluated


def _grid_after(st, sweep, result, dur):
    st.sweeps += sweep


def _gens_after(st, _, result, dur):
    st.gens += len(result)


def _rank0_after(st, _, result, dur):
    if result.rank == 0 and st.depth == 0:
        st.rank0_s += dur


def _cells_before(args, kwargs):
    shape = np.shape(args[0])
    return shape[0] * shape[1] if len(shape) == 2 else 0


def _cells_after(st, cells, result, dur):
    st.max_cells = max(st.max_cells, cells)


def _snf_before(args, kwargs):
    entries = args[0]
    return max(len(entries), len(entries[0]) if entries else 0)


def _snf_after(st, dim, result, dur):
    st.max_dim = max(st.max_dim, dim)


HOOKS = {
    "modules.generic_power_ranks": (_grid_before, _grid_after),
    "pencil.graded_kernel_basis": (None, _gens_after),
    "sheaf.splitting_type": (None, _rank0_after),
    "linalg.rref_fp": (_cells_before, _cells_after),
    "snf.smith_normal_form": (_snf_before, _snf_after),
}


class Tracer:
    def __init__(self):
        self.stats = {fn: Stat() for fn in LAYERS}
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, seconds]
        self.stack: list[list] = []  # open spans: [name, seconds of closed children]
        self._undo: list[tuple] = []

    # -- installing -----------------------------------------------------------

    def install(self):
        for fn in LAYERS:
            modname, _, attr = fn.partition(".")
            mod = importlib.import_module(f"kemod.{modname}")
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(mod, clsname)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(fn, raw.__func__))
                else:
                    wrapped = self._wrap(fn, raw)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(fn, orig)
            for name, ns in list(sys.modules.items()):
                if name != "kemod" and not name.startswith("kemod."):
                    continue
                for key in [k for k, v in vars(ns).items() if v is orig]:
                    setattr(ns, key, wrapped)
                    self._undo.append((ns, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        before, after = HOOKS.get(name, (None, None))
        stack, edges = self.stack, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            st.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dur - frame[1]
                if st.depth == 0:
                    st.total_s += dur
                if stack:
                    stack[-1][1] += dur
                edge = edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += dur
            if after:
                after(st, token, result, dur)
            return result

        return wrapper

    def run(self, fn, arg):
        """Call fn(arg) inside a root span ``op``."""
        self.stack.append(["op", 0.0])
        try:
            return fn(arg)
        finally:
            self.stack.pop()

    # -- reading --------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric; counters that add up are per round."""
        out = {}
        for fn, (counters, _) in LAYERS.items():
            st = self.stats[fn]
            for c in counters:
                if c == "kernels_per_gen":
                    kernels = self.edges.get((fn, "linalg.kernel_fp"), [0])[0]
                    value = kernels / st.gens if st.gens else 0.0
                else:
                    value = getattr(st, c)
                out[f"{fn}.{c}"] = value / rounds if c in PER_ROUND else value
        return out

    def edge_table(self, rounds: int) -> list[dict]:
        rows = [{"parent": p, "child": c, "calls": n / rounds, "seconds": s / rounds}
                for (p, c), (n, s) in self.edges.items()]
        return sorted(rows, key=lambda r: -r["seconds"])
