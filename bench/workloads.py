"""The four benchmark workloads: seeded inputs, timed operations, checks.

``WORKLOADS[name](seed, workdir)`` generates a workload's inputs and does
its preparation; it returns the list of operations that make up one round.  An
operation has three parts: ``fresh`` (untimed) makes the argument, ``call``
(timed) runs the library on it, and ``check`` compares the result with what
the input's construction implies.  Every ``fresh`` hands ``call`` a module
object whose per-module cache does not hold that operation's result.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import kemod
from kemod import cli, generate, modules, sheaf
from kemod.gf import FieldCtx

import inputs as I
from inputs import Field, Spec

CJT_KINDS = ("cjt", "probably_cjt")


@dataclass
class Op:
    label: str
    fresh: Callable[[], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any], bool]
    known_fault: bool = False


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"kemod-bench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# handing generated modules to the program


class Program:
    """The library's view of one generated module: only its matrices."""

    def __init__(self, spec: Spec):
        f = spec.field
        self.ctx = FieldCtx(f.p) if f.k == 1 else FieldCtx(f.p, f.k, f.ctx.modulus)
        if f.k == 1:
            self.mats = [x.copy() for x in spec.mats]
        else:
            self.mats = [[[list(e.coeffs) for e in row] for row in x] for x in spec.mats]
        self.r = spec.r
        self.prepared: dict = {}

    def module(self) -> modules.KEModule:
        m = modules.KEModule(self.ctx, self.r, self.mats)
        # carry over what preparation computed (the CJT decision), nothing else
        m._cache.update(self.prepared)
        return m

    def prepare(self):
        m = self.module()
        modules.constant_jordan_type(m)
        self.prepared = dict(m._cache)


# ---------------------------------------------------------------------------
# checks against the construction


def _poly_rem(g: list[int], h: list[int], p: int) -> list[int]:
    g = list(g)
    inv = pow(h[-1], -1, p)
    while len(g) >= len(h):
        c = g[-1] * inv % p
        shift = len(g) - len(h)
        for i, hc in enumerate(h):
            g[shift + i] = (g[shift + i] - c * hc) % p
        g.pop()
    return g


def witness_ok(spec: Spec, w: dict | None) -> bool:
    """The witness is a jump point of the construction: the point at infinity
    when that is one, else a root whose minimal polynomial divides the
    affine jump polynomial."""
    p = spec.field.p
    g, at_inf = I.affine_jump(spec.jump)
    if not w or w.get("j") != 1 or not w["rank_there"] < w["generic_rank"]:
        return False
    if "minimal_polynomial" not in w:
        return w.get("point") == "(0, 1)" and at_inf
    h = []
    for c in w["minimal_polynomial"]:
        if isinstance(c, list):  # an F_{p^k} coefficient; this jump is defined over F_p
            if any(c[1:]):
                return False
            c = c[0]
        h.append(int(c) % p)
    return len(h) >= 2 and h[-1] == 1 and any(g) and not any(_poly_rem(g, h, p))


def cjt_ok(spec: Spec, dec) -> bool:
    if spec.mults is None:
        return dec.kind == "not_cjt" and witness_ok(spec, dec.witness)
    kinds = ("cjt",) if spec.r == 2 else CJT_KINDS  # r >= 3 is Monte Carlo today
    return dec.kind in kinds and dec.jordan_type is not None and dec.jordan_type.mults == spec.mults


def jordan_text(mults) -> str:
    """Jordan type in the library's notation, e.g. [3]^4[2]^2."""
    parts = []
    for j in range(len(mults), 0, -1):
        a = mults[j - 1]
        parts.append("" if a == 0 else f"[{j}]" if a == 1 else f"[{j}]^{a}")
    return "".join(parts)


def cjt_op(spec: Spec) -> Op:
    prog = Program(spec)
    return Op(f"{spec.field} {spec.label}", prog.module, lambda m: modules.constant_jordan_type(m),
              lambda d: cjt_ok(spec, d))


# ---------------------------------------------------------------------------
# cjt: constant Jordan type decisions


def fault_module() -> Spec:
    """X_1 = [[0, 0], [1, 0]], X_2 = X_3 = 0 over F_2: the rank of X_alpha
    drops at (0, 1, 0), so the module is not of constant Jordan type."""
    f = Field(2)
    z = np.zeros((2, 2), dtype=np.int64)
    return Spec("fault(r=3)", f, (f.embed([[0, 0], [1, 0]]), z, z))


def cjt_ops(seed: int, workdir: Path) -> list[Op]:
    """Fixed shapes; the seed draws the bases, coordinates and jump points.

    The five cheap operations, the five Smith-form ones and the five grid
    ones each make a third of a round, so the median operation is a
    basis-changed one."""
    rng = _rng("cjt", seed)
    f2, f3, f5 = Field(2), Field(3), Field(5)
    W, D, S = I.w_module, I.dual, I.direct_sum
    specs = [
        # basis-aligned (up to a reordering of the basis): the generic-rank grid dominates
        I.permute(S(W(f2, 8, 2), D(W(f2, 8, 2))), rng),
        I.permute(S(W(f3, 7, 3), W(f3, 6, 2)), rng),
        I.permute(S(W(f3, 8, 3), D(W(f3, 3, 2))), rng),
        I.permute(S(W(f5, 4, 4), W(f5, 4, 3)), rng),
        # r = 3
        I.basis_change(I.free_module(f2, 3), rng),
        # basis- and coordinate-changed: the Smith form dominates
        I.disguise(S(W(f2, 6, 2), D(W(f2, 5, 2))), rng),
        I.disguise(S(W(f3, 5, 3), W(f3, 3, 2)), rng),
        I.disguise(S(W(f3, 4, 3), D(W(f3, 4, 2))), rng),
        I.disguise(S(W(f5, 3, 3), D(W(f5, 4, 2))), rng),
        I.disguise(S(W(f5, 4, 3), W(f5, 2, 2)), rng),
        # not CJT: witnesses through gf
        I.non_cjt(f5, "rational", W(f5, 5, 3), rng),
        I.non_cjt(f3, "infinity", W(f3, 6, 2), rng),
        I.non_cjt(f3, "deg2", W(f3, 4, 3), rng),
        I.non_cjt(f2, "deg3", W(f2, 6, 2), rng),
    ]
    ops = [cjt_op(s) for s in specs]
    fault = Program(fault_module())
    ops.append(Op("F_2 fault(r=3)", fault.module, lambda m: modules.constant_jordan_type(m),
                  lambda d: d.kind not in CJT_KINDS, known_fault=True))
    return ops


# ---------------------------------------------------------------------------
# bundle: all splitting types of CJT modules (pencil engine)


def bundle_op(spec: Spec) -> Op:
    prog = Program(spec)
    prog.prepare()
    p = spec.field.p

    def call(m):
        return [sheaf.splitting_type(m, i) for i in range(1, p + 1)]

    def check(sts):
        return all(st.twists == spec.twists[i] for i, st in enumerate(sts, 1))

    return Op(f"{spec.field} {spec.label}", prog.module, call, check)


def bundle_ops(seed: int, workdir: Path) -> list[Op]:
    rng = _rng("bundle", seed)
    f2, f3, f5 = Field(2), Field(3), Field(5)
    shapes = [
        I.w_module(f2, 18, 2),
        I.dual(I.w_module(f3, 11, 3)),
        I.direct_sum(I.w_module(f3, 7, 3), I.dual(I.w_module(f3, 6, 2))),
        I.direct_sum(I.w_module(f5, 5, 4), I.dual(I.w_module(f5, 5, 2))),
        I.direct_sum(I.w_module(f2, 8, 2), I.dual(I.w_module(f2, 9, 2))),
    ]
    # the seed reorders the bases and changes the coordinates of the sums; a
    # coordinate change of the large W-modules would change their cost by half
    out = [I.permute(s, rng) for s in shapes]
    out[2:] = [I.coordinate_change(s, I.random_coordinates(s.field.p, rng)) for s in out[2:]]
    return [bundle_op(s) for s in out]


# ---------------------------------------------------------------------------
# suite: verify-theorems and the scans through the CLI, in process


def _cli_op(label: str, argv: list[str], out: Path, check: Callable[[dict], bool]) -> Op:
    def call(_):
        rc = cli.main(argv + ["--out", str(out)])
        return rc, json.loads(out.read_text())

    return Op(label, lambda: None, call, lambda res: res[0] == 0 and check(res[1]))


def _verify_op(label: str, path: Path, seed: int, workdir: Path, check) -> Op:
    argv = ["verify-theorems", str(path), "--seed", str(seed)]
    return _cli_op(label, argv, workdir / f"{path.stem}.report.json", lambda rep: rep["ok"] and check(rep))


def _w_report_ok(spec: Spec):
    def check(rep):
        splittings = {int(i): tuple(ts) for i, ts in rep.get("splittings", {}).items()}
        return (rep["cjt"] == "cjt" and rep["jordan_type"] == jordan_text(spec.mults)
                and splittings == spec.twists)

    return check


def suite_ops(seed: int, workdir: Path) -> list[Op]:
    """Five cheap operations (the non-CJT module, four small family members)
    and five dearer ones (the scans, two W-modules, sixteen) around
    mainexample, so that the median operation is a fixed input."""
    rng = _rng("suite", seed)
    f2, f3, f5 = Field(2), Field(3), Field(5)
    fixtures = Path(kemod.__file__).parent / "fixtures"
    # verify-theorems --seed draws a coordinate change whose cost varies; the
    # fixtures keep seed 0, so that the median operation costs the same always
    ops = [
        _verify_op("mainexample", fixtures / "mainexample.json", 0, workdir,
                   lambda rep: rep["splittings"]["1"] == [-1, -1]),
        _verify_op("sixteen", fixtures / "sixteen.json", 0, workdir,
                   lambda rep: rep["jordan_type"] == "[3]^4[2]^2"),
    ]
    generated = [I.permute(I.w_module(f2, 6, 2), rng), I.permute(I.dual(I.w_module(f5, 3, 2)), rng)]
    for n, spec in enumerate(generated):
        ops.append(_verify_op(f"{spec.field} {spec.label}", _save(workdir / f"w{n}.json", spec.doc()),
                              seed, workdir, _w_report_ok(spec)))
    for n, mem in enumerate(_family(rng)):
        doc = Spec(mem.name, Field(mem.module.ctx.p), tuple(mem.module.mats)).doc()
        ops.append(_verify_op(mem.name, _save(workdir / f"family{n}.json", doc), seed, workdir,
                              lambda rep: rep["cjt"] == "cjt"))
    bad = I.non_cjt(f3, "deg2", I.w_module(f3, 3, 2), rng)
    ops.append(_verify_op(f"{bad.field} {bad.label}", _save(workdir / "noncjt.json", bad.doc()), seed,
                          workdir, lambda rep: rep["cjt"] == "not_cjt"))
    # the scans draw their own modules; a fixed scan seed keeps their cost fixed
    count, scan_seed = 7, "0"
    ops.append(_cli_op("conjecture-scan", ["conjecture-scan", "--count", str(count), "--seed", scan_seed],
                       workdir / "conjecture.json",
                       lambda rep: rep["scanned"] == count and not rep["anomalies"]))
    ops.append(_cli_op("question-scan", ["question-scan", "--count", str(count), "--seed", scan_seed],
                       workdir / "question.json",
                       lambda rep: rep["scanned"] == count and not any("error" in a for a in rep["attention"])))
    return ops


def _save(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


# mixed_family members taken per prime, with their dimension ranges
FAMILY = ((2, 3, 6), (2, 3, 6), (3, 3, 5), (5, 2, 3))


def _family(rng: random.Random) -> list:
    """Small mixed_family members: one per entry of FAMILY, from the first
    family seed (drawn from rng) that has them all."""
    while True:
        members = generate.mixed_family(24, rng.randrange(1 << 30), max_dim=6)
        out = []
        for p, lo, hi in FAMILY:
            out.append(next((m for m in members if m.module.ctx.p == p and lo <= m.module.dim <= hi
                             and m not in out), None))
        if None not in out:
            return out


# ---------------------------------------------------------------------------
# extfield: the generic scalar lane over F_4, F_8, F_9


def split_op(spec: Spec, i: int) -> Op:
    prog = Program(spec)
    prog.prepare()
    return Op(f"{spec.field} {spec.label} F_{i}", prog.module, lambda m: sheaf.splitting_type(m, i),
              lambda st: st.twists == spec.twists[i])


def extfield_ops(seed: int, workdir: Path) -> list[Op]:
    """Three cheap jump-point decisions, three basis-aligned decisions in the
    middle, and four dearer operations, so the median is a fixed input."""
    rng = _rng("extfield", seed)
    f4, f8, f9 = Field(2, 2), Field(2, 3), Field(3, 2)
    W = I.w_module
    specs = [
        # basis-aligned; on this lane even a reordering of the basis can
        # change the cost by half, so these inputs are the same for every seed
        W(f4, 6, 2),
        W(f8, 6, 2),
        W(f9, 4, 3),
        I.disguise(W(f4, 4, 2), rng),
        I.disguise(W(f9, 3, 2), rng),
        # jump points of degree 3 (resp. 2) over F_4 and F_9 (resp. F_8): QuotExt
        I.non_cjt(f4, "deg3", W(f4, 1, 1), rng),
        I.non_cjt(f8, "deg2", W(f8, 2, 2), rng),
        I.non_cjt(f9, "deg3", W(f9, 1, 1), rng),
    ]
    ops = [cjt_op(s) for s in specs]
    small = W(f4, 2, 2)
    return ops + [split_op(small, i) for i in (1, 2)]


WORKLOADS = {"cjt": cjt_ops, "bundle": bundle_ops, "suite": suite_ops, "extfield": extfield_ops}
