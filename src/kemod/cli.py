"""Command-line interface.

Every command reads module files (JSON), runs one library operation, and
emits a structured JSON report on stdout (or --out).  Exit codes: 0 on
success, 1 on a mathematical refusal (e.g. a bundle request for a module
without constant Jordan type), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .decomp import decompose, iso_probe
from .errors import ConsistencyError, InputError, KemodError, MathRefusal
from .gf import FieldCtx
from .genker import (
    generic_image_power,
    generic_kernel_filtration,
    generic_kernel_power,
    layer_module,
)
from .io import digest, load_module, module_to_dict, save_module
from .modules import (
    PointSpec,
    constant_jordan_type,
    direct_sum,
    dual,
    jordan_type,
    restrict,
    syzygy,
    w_module,
)
from .sheaf import filtration_chern_check, line_restriction_splitting, splitting_type
from .suite import conjecture_scan, question_scan, verify_theorems


def _emit(report: dict, args) -> None:
    report.setdefault("tool_version", __version__)
    text = json.dumps(report, indent=1, sort_keys=True, default=_coerce)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _coerce(obj):
    import numpy as np

    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "twists"):
        return list(obj.twists)
    return repr(obj)


def _parse_point(text: str, ctx: FieldCtx):
    try:
        coords = [int(x) for x in text.split(",")]
    except ValueError as e:
        raise InputError(f"bad point {text!r}") from e
    return PointSpec.closed(ctx, coords)


def _parse_matrix(text: str):
    try:
        return [[int(x) for x in row.split(",")] for row in text.split(";")]
    except ValueError as e:
        raise InputError(f"bad matrix {text!r}") from e


def cmd_validate(args):
    m = load_module(args.file)
    rep = m.validate()
    _emit({"command": "validate", "input": digest(module_to_dict(m)), "ok": rep.ok,
           "violations": rep.violations, "p": m.ctx.p, "r": m.r, "dim": m.dim}, args)
    return 0 if rep.ok else 1


def cmd_jtype(args):
    m = load_module(args.file)
    pt = PointSpec.generic() if args.generic or not args.point else _parse_point(args.point, m.ctx)
    jt = jordan_type(m, pt)
    _emit({"command": "jtype", "input": digest(module_to_dict(m)),
           "point": "generic" if pt.is_generic else args.point,
           "jordan_type": repr(jt), "multiplicities": list(jt.mults)}, args)
    return 0


def cmd_cjt(args):
    m = load_module(args.file)
    dec = constant_jordan_type(m)
    rep = {"command": "cjt", "input": digest(module_to_dict(m)), "verdict": dec.kind}
    if dec.jordan_type is not None:
        rep["jordan_type"] = repr(dec.jordan_type)
        rep["multiplicities"] = list(dec.jordan_type.mults)
    if dec.witness:
        rep["witness"] = dec.witness
    _emit(rep, args)
    return 0


def cmd_bundle(args):
    m = load_module(args.file)
    st = splitting_type(m, args.i)
    _emit({"command": "bundle", "input": digest(module_to_dict(m)), "i": args.i,
           "splitting": st.human(), "twists": list(st.twists), "engine": "pencil"}, args)
    return 0


def cmd_restrict(args):
    m = load_module(args.file)
    amat = _parse_matrix(args.matrix)
    out = restrict(m, amat)
    save_module(out, args.out_file, metadata={"name": "restricted", "matrix": args.matrix})
    _emit({"command": "restrict", "input": digest(module_to_dict(m)),
           "matrix": args.matrix, "output": str(args.out_file), "new_rank": out.r}, args)
    return 0


def cmd_line_splitting(args):
    m = load_module(args.file)
    amat = _parse_matrix(args.line)
    st = line_restriction_splitting(m, amat, args.i)
    _emit({"command": "line-splitting", "input": digest(module_to_dict(m)), "i": args.i,
           "line": args.line, "splitting": st.human(), "twists": list(st.twists)}, args)
    return 0


def cmd_genker(args):
    m = load_module(args.file)
    rep = generic_kernel_power(m, args.power)
    _emit({"command": "genker", "input": digest(module_to_dict(m)), "power": args.power,
           "dim": rep.dim, "method": rep.method, "certified": rep.certified,
           "basis": m.ctx.serialize(rep.subspace.basis)}, args)
    return 0


def cmd_genimg(args):
    m = load_module(args.file)
    sub = generic_image_power(m, args.power)
    _emit({"command": "genimg", "input": digest(module_to_dict(m)), "power": args.power,
           "dim": sub.dim, "method": "duality+direct-check" if m.r == 2 else "duality",
           "basis": m.ctx.serialize(sub.basis)}, args)
    return 0


def cmd_filtration(args):
    m = load_module(args.file)
    layers = generic_kernel_filtration(m)
    _emit({"command": "filtration", "input": digest(module_to_dict(m)),
           "layers": [{"index": l.index, "dim": l.subspace.dim} for l in layers]}, args)
    return 0


def cmd_layer(args):
    m = load_module(args.file)
    out = layer_module(m, args.top, args.bottom)
    save_module(out, args.out_file, metadata={"name": f"layer[{args.top},{args.bottom})"})
    _emit({"command": "layer", "input": digest(module_to_dict(m)), "top": args.top,
           "bottom": args.bottom, "dim": out.dim, "output": str(args.out_file)}, args)
    return 0


def cmd_dual(args):
    m = load_module(args.file)
    save_module(dual(m), args.out_file, metadata={"name": "dual"})
    _emit({"command": "dual", "input": digest(module_to_dict(m)), "output": str(args.out_file)}, args)
    return 0


def cmd_wmodule(args):
    mod = w_module(args.p, args.n, args.d)
    save_module(mod, args.out_file, metadata={"name": f"W({args.n},{args.d}) over F_{args.p}"})
    _emit({"command": "wmodule", "p": args.p, "n": args.n, "d": args.d,
           "dim": mod.dim, "output": str(args.out_file)}, args)
    return 0


def cmd_syzygy(args):
    mod = syzygy(args.p, args.r, args.n)
    save_module(mod, args.out_file, metadata={"name": f"syzygy^{args.n}(k), r={args.r}, p={args.p}"})
    _emit({"command": "syzygy", "p": args.p, "r": args.r, "n": args.n,
           "dim": mod.dim, "output": str(args.out_file)}, args)
    return 0


def cmd_dsum(args):
    a = load_module(args.a)
    b = load_module(args.b)
    mod = direct_sum(a, b)
    save_module(mod, args.out_file, metadata={"name": "direct sum"})
    _emit({"command": "dsum", "dim": mod.dim, "output": str(args.out_file)}, args)
    return 0


def cmd_chern(args):
    m = load_module(args.file)
    p = m.ctx.p
    splittings = {i: splitting_type(m, i) for i in range(1, p + 1)}
    chk = filtration_chern_check(m, splittings)
    _emit({"command": "chern", "input": digest(module_to_dict(m)),
           "splittings": {str(i): st.human() for i, st in splittings.items()},
           "identity": chk}, args)
    return 0


def cmd_decompose(args):
    m = load_module(args.file)
    dec = decompose(m, seed=args.seed, rounds=args.rounds)
    _emit({"command": "decompose", "input": digest(module_to_dict(m)), "seed": args.seed,
           "rounds": args.rounds, "summand_dims": [s.dim for s in dec.summands],
           "verified": dec.verify(), "flags": dec.flags}, args)
    return 0


def cmd_isoprobe(args):
    a = load_module(args.a)
    b = load_module(args.b)
    verdict = iso_probe(a, b, seed=args.seed, rounds=args.rounds)
    _emit({"command": "isoprobe", "verdict": verdict.kind, "seed": args.seed,
           "witness": verdict.witness}, args)
    return 0


def cmd_verify_theorems(args):
    m = load_module(args.file)
    rep = verify_theorems(m, seed=args.seed)
    rep["command"] = "verify-theorems"
    rep["input"] = digest(module_to_dict(m))
    _emit(rep, args)
    return 0 if rep["ok"] else 1


def cmd_conjecture_scan(args):
    rep = conjecture_scan(args.count, args.seed, family=args.family)
    rep["command"] = "conjecture-scan"
    rep["seed"] = args.seed
    _emit(rep, args)
    return 0


def cmd_question_scan(args):
    rep = question_scan(args.count, args.seed)
    rep["command"] = "question-scan"
    rep["seed"] = args.seed
    _emit(rep, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kemod",
        description="Exact computations with modules over truncated polynomial rings "
        "and their bundles on the projective line.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", help="write the report to this path instead of stdout")
        return sp

    sp = add("validate", cmd_validate, help="check commutativity and p-th powers")
    sp.add_argument("file")

    sp = add("jtype", cmd_jtype, help="Jordan type at a point or the generic point")
    sp.add_argument("file")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--point", help="comma-separated coordinates")
    g.add_argument("--generic", action="store_true")

    sp = add("cjt", cmd_cjt, help="constant Jordan type decision")
    sp.add_argument("file")

    sp = add("bundle", cmd_bundle, help="splitting type of the i-th bundle (r = 2)")
    sp.add_argument("file")
    sp.add_argument("--i", type=int, required=True)

    sp = add("restrict", cmd_restrict, help="restrict along a shifted subgroup")
    sp.add_argument("file")
    sp.add_argument("--matrix", required=True, help='rows separated by ";", entries by ","')
    sp.add_argument("-o", dest="out_file", required=True)

    sp = add("line-splitting", cmd_line_splitting, help="splitting on a line through a rank-2 restriction")
    sp.add_argument("file")
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--line", required=True, help="r x 2 matrix")

    sp = add("genker", cmd_genker, help="n-th power generic kernel")
    sp.add_argument("file")
    sp.add_argument("--power", type=int, default=1)

    sp = add("genimg", cmd_genimg, help="n-th power generic image")
    sp.add_argument("file")
    sp.add_argument("--power", type=int, required=True)

    sp = add("filtration", cmd_filtration, help="generic kernel filtration layer dimensions")
    sp.add_argument("file")

    sp = add("layer", cmd_layer, help="extract a filtration subquotient as a module")
    sp.add_argument("file")
    sp.add_argument("--top", type=int, required=True, help="top layer index j (J^j K), e.g. -1")
    sp.add_argument("--bottom", type=int, required=True, help="bottom layer index, e.g. 2")
    sp.add_argument("-o", dest="out_file", required=True)

    sp = add("dual", cmd_dual, help="k-linear dual module")
    sp.add_argument("file")
    sp.add_argument("-o", dest="out_file", required=True)

    sp = add("wmodule", cmd_wmodule, help="build a W-module")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("-o", dest="out_file", required=True)

    sp = add("syzygy", cmd_syzygy, help="iterated syzygy of the trivial module")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("-o", dest="out_file", required=True)

    sp = add("dsum", cmd_dsum, help="direct sum of two module files")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("-o", dest="out_file", required=True)

    sp = add("chern", cmd_chern, help="all splittings plus the first Chern identity")
    sp.add_argument("file")

    sp = add("decompose", cmd_decompose, help="split into (probable) indecomposables")
    sp.add_argument("file")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rounds", type=int, default=50)

    sp = add("isoprobe", cmd_isoprobe, help="randomized isomorphism probe")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rounds", type=int, default=64)

    sp = add("verify-theorems", cmd_verify_theorems, help="full invariant suite on one module")
    sp.add_argument("file")
    sp.add_argument("--seed", type=int, default=0)

    sp = add("conjecture-scan", cmd_conjecture_scan, help="zero-sheaf evidence scan")
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--family", choices=["wmix", "syzygy", "all"], default="all")

    sp = add("question-scan", cmd_question_scan, help="subquotient-isomorphism evidence scan")
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process (about 4.5 ms a build): a
    parser keeps no state from one ``parse_args`` to the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (MathRefusal, ConsistencyError) as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    except KemodError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
