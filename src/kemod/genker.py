"""Generic kernels, generic images, and the generic kernel filtration.

The n-th power generic kernel C = K^n(M) is the smallest F_q-subspace
whose span over F_q(t_2..t_r) holds the kernel of
A = (X_1 + t_2 X_2 + ... + t_r X_r)^n.  For r = 2 it is the coefficient
span of the minimal graded kernel basis of the pencil.  For r != 2 it is
the sum of the kernels of A at the points of maximal rank rho of one
principal lattice of degree n * rho (``_lattice_kernel``), exact because
  * Cramer's rule on a nonzero rho-minor gives polynomial kernel vectors
    of total degree <= n * rho whose coefficients span C; their values on
    a lattice where no such polynomial can vanish span C over F_{q^e};
  * those vectors vanish wherever the rank is below rho, and
  * at a point of rank rho the Cramer vectors of a minor that is nonzero
    there span the kernel, and lie in C.
Generic images go through duality, with an independent direct
intersection cross-check in rank two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dpoly, linalg, pencil
from .errors import ConsistencyError, InputError, MathRefusal
from .gf import some_irreducible_factor
from .modules import (
    KEModule,
    _chunks,
    _lattice,
    _point_powers,
    _snf_of_power,
    _stack_ranks,
    constant_jrank_decide,
    dual,
    generic_power_ranks,
    image_under_all,
    is_invariant,
    mats_over,
    preimage_under_all,
    radical,
    root_operator,
    subquotient,
)
from .subspace import Subspace


@dataclass
class GenericKernelReport:
    power: int
    subspace: Subspace
    method: str
    certified: bool

    @property
    def dim(self) -> int:
        return self.subspace.dim


@dataclass
class FiltrationLayer:
    index: int          # j in J^j K(M); negative j means the preimage layers
    subspace: Subspace


def generic_kernel_power(m: KEModule, n: int) -> GenericKernelReport:
    """The n-th power generic kernel, exact for every rank r."""
    m.require_valid()
    if not 1 <= n <= m.ctx.p:
        raise InputError(f"power must be in 1..{m.ctx.p}")
    key = ("genker", n)
    if key in m._cache:
        return m._cache[key]
    if m.r == 2:
        sub = Subspace.span(m.ctx, m.dim, pencil.coefficient_rows(m.kernel_generators(n)))
        rep = GenericKernelReport(n, sub, "generic-point-coefficients", True)
    else:
        rep = GenericKernelReport(n, _lattice_kernel(m, n), "lattice-point-kernels", True)
    if not is_invariant(m, rep.subspace):
        raise ConsistencyError("generic kernel is not X-invariant")
    m._cache[key] = rep
    return rep


def _lattice_kernel(m: KEModule, n: int) -> Subspace:
    """Sum of Ker(X_alpha^n) over the points of ``_lattice(m, n * rho)`` where
    the rank is the generic rank rho, brought back from F_{q^e} to F_q.

    Each point's kernel is one ``kernel_fp``; the running sum is kept as a
    Subspace over F_{q^e}, whose RREF, for a subspace defined over F_q, has
    its entries in F_q.  A point of rank above rho, no point of rank rho, or an
    entry outside F_q is an error.
    """
    F = m.ctx
    rho = generic_power_ranks(m, n)[n - 1]
    fld, points = _lattice(m, n * rho)
    mats = mats_over(m, fld)
    sub, top = Subspace.zero(fld, m.dim), 0
    for chunk in _chunks(points, m.dim):
        (pw,) = _point_powers(fld, mats, chunk, [n])
        ranks = _stack_ranks(fld, pw)
        top = max(top, int(ranks.max()))
        if top > rho:
            raise ConsistencyError(f"a lattice point has rank {top} above the generic rank {rho}")
        kernels = [linalg.kernel_fp(a, fld) for a in pw[ranks == rho]]
        sub = Subspace.span(fld, m.dim, np.vstack([sub.basis, *kernels]))
    if top < rho:
        raise ConsistencyError(f"no lattice point reaches the generic rank {rho}")
    # the codes of F_q inside fld, sorted, and the F_q code of each
    emb = fld.embed(np.arange(F.q), F)
    order = emb.argsort()
    at = emb[order].searchsorted(sub.basis).clip(max=F.q - 1)
    if not np.array_equal(emb[order][at], sub.basis):
        raise ConsistencyError("the generic kernel's echelon basis is not defined over the base field")
    # the code map sends 0 to 0 and 1 to 1, so the RREF and its pivots survive
    return Subspace(F, m.dim, order[at], sub.pivots)


def generic_kernel(m: KEModule) -> GenericKernelReport:
    return generic_kernel_power(m, 1)


def generic_image_power(m: KEModule, n: int) -> Subspace:
    """The n-th power generic image: perp of the dual's generic kernel.

    In rank two the direct computation (generic intersection cut down at
    the point at infinity and at every root of a Smith-form invariant
    factor) runs as well, and disagreement is an error.
    """
    m.require_valid()
    if not 1 <= n <= m.ctx.p:
        raise InputError(f"power must be in 1..{m.ctx.p}")
    key = ("genimg", n)
    if key in m._cache:
        return m._cache[key]
    md = dual(m)
    primary = generic_kernel_power(md, n).subspace.perp()
    if m.r == 2:
        direct = _direct_image_r2(m, n, primary)
        if direct != primary:
            raise ConsistencyError(
                f"generic image disagreement at n={n}: duality dim {primary.dim}, direct dim {direct.dim}"
            )
    m._cache[key] = primary
    return primary


def _direct_image_r2(m: KEModule, n: int, generic_part: Subspace) -> Subspace:
    """generic intersection cut down at (0,1) and at all SNF jump points."""
    ctx = m.ctx
    out = generic_part
    # the point at infinity, over the base field
    out = out.intersect(_image_at_infinity(m, n))
    # jump points on the chart: roots of non-unit invariant factors
    snf = _snf_of_power(m, n)
    nonunits = [f for f in snf.invariant_factors if len(f) > 1]
    if not nonunits:
        return out
    ops = ctx.ops
    seen: set[tuple] = set()
    f = nonunits[-1]
    while len(f) > 1:
        g = some_irreducible_factor(ctx, f, seed=23)
        if tuple(g) in seen:
            break
        seen.add(tuple(g))
        out = _cut_by_root_image(m, n, out, g)
        f, rem = dpoly.divmod_(ops, f, g)
        if rem:
            raise ConsistencyError("irreducible factor does not divide")
        while len(f) > 1:
            q2, rem2 = dpoly.divmod_(ops, f, g)
            if rem2:
                break
            f = q2
    return out


def _image_at_infinity(m: KEModule, n: int) -> Subspace:
    return Subspace.span(m.ctx, m.dim, m.power(1, n).T)


def _cut_by_root_image(m: KEModule, n: int, w: Subspace, g: list) -> Subspace:
    """F_q-rational part of w cut by Im(X_alpha^n) at the point (1, theta),
    theta a root of the irreducible g over F_q."""
    ctx = m.ctx
    if w.dim == 0:
        return w
    # x over F_q is in the image iff u . (x, 0, ..., 0) = 0 for every left
    # kernel row u of the power in the coordinates of ``root_operator``
    ap = linalg.matpow_fp(root_operator(m, g), n, ctx)
    perp_rows = linalg.kernel_fp(ap.T, ctx)[:, :: len(g) - 1]
    lam = linalg.kernel_fp(linalg.matmul_fp(perp_rows, w.basis.T, ctx), ctx)
    return Subspace.span(ctx, m.dim, linalg.matmul_fp(lam, w.basis, ctx))


# ---------------------------------------------------------------------------
# J-power operators and the filtration
# ---------------------------------------------------------------------------


def j_power(m: KEModule, sub: Subspace, j: int) -> Subspace:
    """Span of all length-j generator words applied to an invariant subspace."""
    if j < 0:
        raise InputError("j_power needs j >= 0")
    if not is_invariant(m, sub):
        raise InputError("subspace is not X-invariant")
    cur = sub
    for _ in range(j):
        cur = image_under_all(m, cur)
    return cur


def j_inverse(m: KEModule, sub: Subspace, j: int) -> Subspace:
    """{v : every length-j generator word sends v into the subspace}."""
    if j < 0:
        raise InputError("j_inverse needs j >= 0")
    if not is_invariant(m, sub):
        raise InputError("subspace is not X-invariant")
    cur = sub
    for _ in range(j):
        cur = preimage_under_all(m, cur)
    return cur


def filtration_layer(m: KEModule, j: int) -> Subspace:
    """J^j K(M) for j >= 0, or the preimage layer J^{-|j|} K(M) for j < 0."""
    key = ("gk_layer", j)
    if key in m._cache:
        return m._cache[key]
    k = generic_kernel(m).subspace
    sub = j_power(m, k, j) if j >= 0 else j_inverse(m, k, -j)
    m._cache[key] = sub
    return sub


def generic_kernel_filtration(m: KEModule) -> list[FiltrationLayer]:
    """Layers J^p K <= ... <= K <= J^{-1} K <= ... <= J^{-p+1} K = M (r = 2)."""
    m.require_valid()
    if m.r != 2:
        raise InputError("the generic kernel filtration is materialized for r = 2 only")
    p = m.ctx.p
    layers = [FiltrationLayer(j, filtration_layer(m, j)) for j in range(p, -p, -1)]
    if layers[0].subspace.dim != 0:
        raise ConsistencyError("J^p K(M) is nonzero")
    if layers[-1].subspace.dim != m.dim:
        raise ConsistencyError("J^{-p+1} K(M) is not all of M")
    for a, b in zip(layers, layers[1:]):
        if not b.subspace.contains(a.subspace):
            raise ConsistencyError("filtration layers are not nested")
    return layers


def layer_module(m: KEModule, top_index: int, bottom_index: int) -> KEModule:
    """The subquotient J^top K(M) / J^bottom K(M); needs top_index <= bottom_index."""
    if top_index > bottom_index:
        raise InputError("top layer index must be <= bottom layer index")
    top = filtration_layer(m, top_index)
    bottom = filtration_layer(m, bottom_index)
    return subquotient(m, top, bottom)


# ---------------------------------------------------------------------------
# equal images decisions and the inclusion chains
# ---------------------------------------------------------------------------


@dataclass
class EqualImagesDecision:
    verdict: bool | None          # None = "probably equal": r >= 3, no rank drop found
    n: int
    detail: dict

    def __bool__(self):
        if self.verdict is None:
            raise MathRefusal("probabilistic verdict; inspect .detail")
        return self.verdict


def equal_images_decide(m: KEModule) -> EqualImagesDecision:
    """Equal images <=> constant 1-rank and generic rank = dim Rad(M)."""
    return equal_n_images_decide(m, 1)


def equal_n_images_decide(m: KEModule, n: int) -> EqualImagesDecision:
    m.require_valid()
    dec = constant_jrank_decide(m, n)
    if dec.kind == "not_constant":
        return EqualImagesDecision(False, n, {"reason": "rank not constant", "witness": dec.witness})
    if n == 1:
        target = radical(m).dim
        tagname = "dim_radical"
    else:
        target = generic_image_power(m, n).dim
        tagname = "dim_generic_image"
    equal = dec.rank == target
    detail = {"generic_rank": dec.rank, tagname: target}
    if dec.kind == "probably_constant":
        return EqualImagesDecision(None if equal else False, n, detail)
    return EqualImagesDecision(equal, n, detail)


def inclusion_chain_check(m: KEModule) -> dict:
    """Verify K^n(M) <= J^{-n+1} K(M) and J^n K(M) <= I^n(M) for 1 <= n <= p,
    plus monotonicity and the endpoint identities (constant-rank r=2 modules)."""
    m.require_valid()
    if m.r != 2:
        raise InputError("inclusion chains are materialized for r = 2 only")
    p = m.ctx.p
    dec = constant_jrank_decide(m, 1)
    if not dec.constant:
        return {"skipped": True, "reason": "module does not have constant rank"}
    report = {"skipped": False, "checks": [], "ok": True}

    def record(name, ok, extra=None):
        entry = {"check": name, "ok": bool(ok)}
        if extra:
            entry.update(extra)
        report["checks"].append(entry)
        if not ok:
            report["ok"] = False

    kers = [generic_kernel_power(m, n).subspace for n in range(1, p + 1)]
    imgs = []
    for n in range(1, p + 1):
        try:
            imgs.append(generic_image_power(m, n))
        except ConsistencyError as e:
            record(f"I^{n} defined consistently", False, {"error": str(e)})
            return report
    record("K^1 = K", kers[0] == filtration_layer(m, 0))
    record("K^p = M", kers[p - 1].dim == m.dim)
    record("I^p = 0", imgs[p - 1].dim == 0)
    record("J K = I^1", filtration_layer(m, 1) == imgs[0])
    for n in range(1, p):
        record(f"K^{n} <= K^{n+1}", kers[n].contains(kers[n - 1]))
        record(f"I^{n+1} <= I^{n}", imgs[n - 1].contains(imgs[n]))
    for n in range(1, p + 1):
        upper = filtration_layer(m, -(n - 1))
        record(
            f"K^{n} <= J^-{n-1} K",
            upper.contains(kers[n - 1]),
            {"dim_Kn": kers[n - 1].dim, "dim_layer": upper.dim},
        )
        lower = filtration_layer(m, n)
        record(
            f"J^{n} K <= I^{n}",
            imgs[n - 1].contains(lower),
            {"dim_In": imgs[n - 1].dim, "dim_layer": lower.dim},
        )
    return report
