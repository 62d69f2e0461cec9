"""Curated generators of constant-Jordan-type modules (r = 2).

Arbitrary random matrices essentially never have constant Jordan type, so
the family is built by closure operations on known-good seeds: W-modules,
their duals, direct sums, invertible coordinate changes, quotients of
W-modules (equal images passes to quotients), syzygies of the trivial
module, and generic-kernel subquotients of earlier members.  Every emitted
module is re-verified by the exact constant-Jordan-type decision; nothing
is assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import KemodError
from .gf import FieldCtx
from .genker import filtration_layer, generic_image_power, generic_kernel_power
from .modules import (
    KEModule,
    constant_jordan_type,
    direct_sum,
    dual,
    quotient_module,
    radical,
    random_invertible,
    restrict,
    sub_as_module,
    submodule_spin,
    syzygy,
    w_module,
)

@dataclass
class FamilyMember:
    name: str
    module: KEModule


def _random_w(ctx: FieldCtx, rng: random.Random, max_dim: int) -> KEModule:
    p = ctx.p
    for _ in range(64):
        n = rng.randint(2, 7)
        d = rng.randint(1, min(n, p))
        if max(2, d * (2 * n - d + 1) // 2) <= max_dim:
            return w_module(ctx, n, d)
    return w_module(ctx, 2, min(2, p))


def _random_w_quotient(ctx: FieldCtx, rng: random.Random, max_dim: int) -> KEModule:
    w = _random_w(ctx, rng, max_dim)
    rad = radical(w)
    if rad.dim == 0:
        return w
    rows = rad.basis
    pick = [rows[rng.randrange(len(rows))]]
    if len(rows) > 1 and rng.random() < 0.5:
        pick.append(rows[rng.randrange(len(rows))])
    sub = submodule_spin(w, [ctx.mul(rng.randrange(1, ctx.p), v) for v in pick])
    if sub.dim >= w.dim:
        return w
    return quotient_module(w, sub)


def cjt_family(p: int, count: int, seed: int, max_dim: int = 24) -> list[FamilyMember]:
    """Deterministic list of `count` verified-CJT modules over F_p, r = 2."""
    ctx = FieldCtx(p)
    rng = random.Random(f"family:{p}:{count}:{seed}")
    out: list[FamilyMember] = []
    kinds = ["w", "dual_w", "sum", "coord", "quot", "dual_quot", "syzygy", "genker_sub", "layer"]
    ki = 0
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 60 * count:
            raise KemodError("family generation stalled")
        kind = kinds[ki % len(kinds)]
        ki += 1
        try:
            mod, name = _build(kind, ctx, rng, max_dim, out)
        except KemodError:
            continue
        if mod is None or mod.dim == 0 or mod.dim > max_dim:
            continue
        dec = constant_jordan_type(mod)
        if not dec.is_cjt:
            # closure property failed to apply (e.g. a non-CJT layer); skip
            continue
        out.append(FamilyMember(f"{name}#{len(out)}", mod))
    return out


def _build(kind: str, ctx: FieldCtx, rng: random.Random, max_dim: int, sofar):
    p = ctx.p
    if kind == "w":
        w = _random_w(ctx, rng, max_dim)
        return w, f"W(p={p})"
    if kind == "dual_w":
        return dual(_random_w(ctx, rng, max_dim)), f"W#(p={p})"
    if kind == "sum":
        a = _random_w(ctx, rng, max_dim // 2)
        b = _random_w(ctx, rng, max_dim - a.dim)
        if rng.random() < 0.4:
            b = dual(b)
        return direct_sum(a, b), f"sum(p={p})"
    if kind == "coord":
        a = _random_w(ctx, rng, max_dim // 2)
        b = _random_w(ctx, rng, max_dim - a.dim)
        s = direct_sum(a, b)
        amat = random_invertible(ctx, 2, rng)
        return restrict(s, amat), f"coord(p={p})"
    if kind == "quot":
        return _random_w_quotient(ctx, rng, max_dim), f"Wquot(p={p})"
    if kind == "dual_quot":
        return dual(_random_w_quotient(ctx, rng, max_dim)), f"Wquot#(p={p})"
    if kind == "syzygy":
        n = 1 if p == 5 else rng.randint(1, 2)
        sz = syzygy(ctx, 2, n)
        if sz.dim > max_dim:
            return None, ""
        return sz, f"syzygy{n}(p={p})"
    if kind == "genker_sub":
        base = sofar[rng.randrange(len(sofar))].module if sofar else _random_w(ctx, rng, max_dim)
        n = min(2, p)
        ksub = sub_as_module(base, generic_kernel_power(base, n).subspace)[0]
        inner = generic_image_power(ksub, n)
        return quotient_module(ksub, inner), f"K{n}/I{n}K{n}(p={p})"
    if kind == "layer":
        base = sofar[rng.randrange(len(sofar))].module if sofar else _random_w(ctx, rng, max_dim)
        j = rng.randint(1, max(1, p - 1))
        top = filtration_layer(base, -j)
        bottom = filtration_layer(base, j + 1)
        from .modules import subquotient

        return subquotient(base, top, bottom), f"layer(p={p})"
    raise KemodError(f"unknown kind {kind}")


def mixed_family(count: int, seed: int, primes=(2, 3, 5), max_dim: int = 24) -> list[FamilyMember]:
    """Round-robin over primes; deterministic in (count, seed)."""
    per = {}
    base, extra = divmod(count, len(primes))
    for i, p in enumerate(primes):
        per[p] = base + (1 if i < extra else 0)
    out = []
    for p in primes:
        cap = max_dim if p < 5 else min(max_dim, 18)
        out.extend(cjt_family(p, per[p], seed, max_dim=cap))
    return out
