"""Modules over k[X_1..X_r]/(X_i^p) as commuting nilpotent matrices.

The central object is KEModule: r commuting d x d matrices over F_q with
vanishing p-th powers, stored as int64 arrays of element codes (see
``gf.FieldCtx``).  Module elements are column vectors; subspaces are
row-echelon bases.  Everything downstream (Jordan types, generic kernels,
sheaf slices) is phrased in terms of this class.

Exact generic ranks — the rank of X_alpha^j at the generic point of the
projective parameter space — are computed by maximizing numeric ranks over
a grid larger than the degree of any maximal minor, taken in an extension
field F_{q^m} when the base field is too small.  That keeps the hot paths
in numpy while staying exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from . import linalg, pencil
from .errors import ConsistencyError, InputError, MathRefusal
from .gf import FieldCtx, extension, some_irreducible_factor
from .poly import Poly
from .snf import smith_normal_form
from .subspace import Subspace

MAX_FREE_DIM = 4096


# ---------------------------------------------------------------------------
# small value types
# ---------------------------------------------------------------------------


class JordanType:
    """Multiplicities a_1..a_p: block length j occurs a_j times."""

    __slots__ = ("p", "mults")

    def __init__(self, p: int, mults):
        mults = tuple(int(a) for a in mults)
        if len(mults) != p or any(a < 0 for a in mults):
            raise InputError("need p nonnegative multiplicities")
        self.p = p
        self.mults = mults

    @classmethod
    def from_ranks(cls, p: int, dim: int, ranks: list[int]) -> "JordanType":
        """a_j = r_{j-1} - 2 r_j + r_{j+1}, with r_0 = dim and r_j = 0 for j >= p."""
        r = [dim] + list(ranks) + [0, 0]
        mults = [r[j - 1] - 2 * r[j] + r[j + 1] for j in range(1, p + 1)]
        jt = cls(p, mults)
        if jt.dim() != dim:
            raise InputError("rank sequence is not a Jordan rank profile")
        return jt

    def dim(self) -> int:
        return sum((j + 1) * a for j, a in enumerate(self.mults))

    def blocks(self) -> list[int]:
        out = []
        for j in range(self.p, 0, -1):
            out.extend([j] * self.mults[j - 1])
        return out

    def mult(self, j: int) -> int:
        return self.mults[j - 1]

    def __eq__(self, other):
        return isinstance(other, JordanType) and (self.p, self.mults) == (other.p, other.mults)

    def __hash__(self):
        return hash((self.p, self.mults))

    def __repr__(self):
        if self.dim() == 0:
            return "[]"
        parts = []
        for j in range(self.p, 0, -1):
            a = self.mults[j - 1]
            if a == 1:
                parts.append(f"[{j}]")
            elif a > 1:
                parts.append(f"[{j}]^{a}")
        return "".join(parts)


class PointSpec:
    """A closed point of the parameter space, or the generic point (1, t_2..t_r)."""

    __slots__ = ("coords", "ctx")

    def __init__(self, coords, ctx):
        self.coords = coords  # None for generic
        self.ctx = ctx

    @classmethod
    def generic(cls) -> "PointSpec":
        return cls(None, None)

    @classmethod
    def closed(cls, ctx, coords) -> "PointSpec":
        coords = tuple(ctx.scalar(c) if isinstance(c, int) else c for c in coords)
        if not any(bool(c) for c in coords):
            raise InputError("point must be nonzero")
        return cls(coords, ctx)

    @property
    def is_generic(self) -> bool:
        return self.coords is None

    def __repr__(self):
        return "generic" if self.is_generic else f"({', '.join(map(repr, self.coords))})"


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# KEModule
# ---------------------------------------------------------------------------


class KEModule:
    """r commuting d x d nilpotent generator matrices over F_q.

    ``mats`` may be int64 arrays of element codes, or nested lists of
    FieldScalars, coefficient lists, or ints (read as elements of F_p);
    they are stored as a tuple of (d, d) int64 code arrays.
    """

    __slots__ = ("ctx", "r", "dim", "mats", "labels", "_cache")

    def __init__(self, ctx: FieldCtx, r: int, mats, labels=None):
        if r < 1:
            raise InputError("rank r must be >= 1")
        self.ctx = ctx
        self.r = r
        mats = tuple(ctx.array(m) for m in mats)
        dims = {m.shape for m in mats}
        if len(mats) != r or len(dims) != 1 or mats[0].ndim != 2 or mats[0].shape[0] != mats[0].shape[1]:
            raise InputError("need r square matrices of equal size")
        self.dim = int(mats[0].shape[0])
        self.mats = mats
        self.labels = tuple(labels) if labels else None
        self._cache = {}

    # -- bookkeeping ----------------------------------------------------------

    def mat(self, i: int):
        return self.mats[i]

    def validate(self) -> ValidationReport:
        """Check commutativity and vanishing p-th powers."""
        key = "validation"
        if key in self._cache:
            return self._cache[key]
        violations = []
        F = self.ctx
        for i in range(self.r):
            for j in range(i + 1, self.r):
                a = linalg.matmul_fp(self.mats[i], self.mats[j], F)
                b = linalg.matmul_fp(self.mats[j], self.mats[i], F)
                if not np.array_equal(a, b):
                    violations.append({"kind": "commutativity", "pair": (i + 1, j + 1)})
        for i in range(self.r):
            if linalg.matpow_fp(self.mats[i], F.p, F).any():
                violations.append({"kind": "pth_power", "index": i + 1})
        report = ValidationReport(not violations, violations)
        self._cache[key] = report
        return report

    def require_valid(self):
        rep = self.validate()
        if not rep.ok:
            raise MathRefusal(f"invalid module: {rep.violations[0]}")

    def pencil(self) -> pencil.Pm:
        """X_1 + t X_2 (r = 2)."""
        if self.r != 2:
            raise InputError("pencil form needs r = 2")
        key = "pencil"
        if key not in self._cache:
            self._cache[key] = pencil.pm_from_pair(self.mats[0], self.mats[1])
        return self._cache[key]

    def power_pencil(self, j: int) -> pencil.Pm:
        key = ("power_pencil", j)
        if key not in self._cache:
            self._cache[key] = pencil.pm_pow(self.pencil(), j, self.ctx)
        return self._cache[key]

    def __repr__(self):
        return f"KEModule(p={self.ctx.p}, k={self.ctx.k}, r={self.r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# X_alpha and ranks
# ---------------------------------------------------------------------------


def x_alpha(m: KEModule, pt: PointSpec):
    """The operator sum(lambda_i X_i) at a closed point (a code array over the
    point's field), or the symbolic X_1 + t_2 X_2 + ... at the generic point
    (Poly entries, chart lambda_1 = 1)."""
    m.require_valid()
    if pt.is_generic:
        nv = max(m.r - 1, 1)
        rows = []
        for a in range(m.dim):
            row = []
            for b in range(m.dim):
                terms = {}
                for i in range(m.r):
                    c = m.ctx.decode(m.mats[i][a, b])
                    if not c:
                        continue
                    e = [0] * nv
                    if i > 0:
                        e[i - 1] = 1
                    e = tuple(e)
                    s = terms.get(e, m.ctx.zero) + c
                    if s:
                        terms[e] = s
                    else:
                        terms.pop(e, None)
                row.append(Poly(m.ctx, nv, terms))
            rows.append(row)
        return rows
    coords = pt.coords
    if len(coords) != m.r:
        raise InputError("point has wrong number of coordinates")
    fld = coords[0].ctx
    return _combine(fld, mats_over(m, fld), [fld.encode(c) for c in coords])


def mats_over(m: KEModule, fld: FieldCtx) -> tuple:
    """The generators as code arrays over a field containing m's field."""
    return tuple(fld.embed(x, m.ctx) for x in m.mats)


def _combine(fld: FieldCtx, mats, coords) -> np.ndarray:
    """sum_i coords[i] * mats[i] over fld."""
    out = np.zeros(mats[0].shape, dtype=np.int64)
    for c, x in zip(coords, mats):
        if c:
            out = fld.add(out, fld.mul(c, x))
    return out


def rank_at_point(m: KEModule, coords, power: int = 1) -> int:
    """Rank of X_alpha^power at a closed point (exact, any field)."""
    fld = coords[0].ctx
    a = x_alpha(m, PointSpec(coords, fld))
    return linalg.rank_fp(linalg.matpow_fp(a, power, fld), fld)


def generic_power_ranks(m: KEModule, jmax: int) -> list[int]:
    """Exact ranks over F_q(t_2..t_r) of X_alpha^j for j = 1..jmax (generic point).

    The rank equals the maximum of the numeric ranks over any grid whose
    side exceeds the total degree of a maximal minor (<= j * dim), taken in
    an extension field when the base is too small.
    """
    m.require_valid()
    key = ("generic_ranks", jmax)
    if key in m._cache:
        return m._cache[key]
    F, d = m.ctx, m.dim
    jmax = min(jmax, F.p)
    if d == 0 or m.r == 1:
        ranks = [
            linalg.rank_fp(linalg.matpow_fp(m.mats[0], j, F), F) if d else 0
            for j in range(1, jmax + 1)
        ]
        m._cache[key] = ranks
        return ranks
    bound = jmax * d + 1
    nvars = m.r - 1
    if nvars >= 2 and bound**nvars > 300_000:
        raise InputError("generic-rank grid too large for this rank and dimension")
    mdeg = 1
    while F.q**mdeg < bound:
        mdeg += 1
    fld = extension(F, mdeg)
    mats = mats_over(m, fld)
    ranks = [0] * jmax
    # the codes 0..bound-1 are distinct elements of fld
    for tup in itertools.product(range(bound), repeat=nvars):
        a = _combine(fld, mats, (1,) + tup)
        pw = a
        for j in range(1, jmax + 1):
            if j > 1:
                pw = linalg.matmul_fp(pw, a, fld)
            ranks[j - 1] = max(ranks[j - 1], linalg.rank_fp(pw, fld))
    m._cache[key] = ranks
    return ranks


def jordan_type(m: KEModule, pt: PointSpec | None = None) -> JordanType:
    """Jordan type of X_alpha on M at a closed or generic point."""
    m.require_valid()
    p = m.ctx.p
    if m.dim == 0:
        return JordanType(p, (0,) * p)
    if pt is None:
        pt = PointSpec.generic()
    if pt.is_generic:
        ranks = generic_power_ranks(m, p)
    else:
        ranks = [rank_at_point(m, pt.coords, j) for j in range(1, p + 1)]
    return JordanType.from_ranks(p, m.dim, ranks)


# ---------------------------------------------------------------------------
# constant rank / constant Jordan type decisions
# ---------------------------------------------------------------------------


@dataclass
class JRankDecision:
    kind: str                      # "constant" | "not_constant" | "probably_constant"
    j: int
    rank: int
    witness: dict | None = None
    confidence: float | None = None

    @property
    def constant(self) -> bool:
        return self.kind == "constant"


@dataclass
class CJTDecision:
    kind: str                      # "cjt" | "not_cjt" | "probably_cjt"
    jordan_type: JordanType | None
    witness: dict | None = None
    confidence: float | None = None

    @property
    def is_cjt(self) -> bool:
        return self.kind == "cjt"


def _snf_of_power(m: KEModule, j: int):
    """Invariant factors of (X_1 + t X_2)^j over F_q[t] (r = 2)."""
    key = ("snf", j)
    if key in m._cache:
        return m._cache[key]
    pj = m.power_pencil(j)
    entries = [[list(map(int, pj[a, b, :])) for b in range(m.dim)] for a in range(m.dim)]
    res = smith_normal_form(entries, m.ctx)
    m._cache[key] = res
    return res


def constant_jrank_decide(
    m: KEModule, j: int, samples: int = 64, ext_degree: int | None = None, seed: int = 0
) -> JRankDecision:
    """Decide whether rank(X_alpha^j) is independent of the point.

    Exact for r <= 2 (Smith form over F_q[t] on the affine chart plus the
    point at infinity); Monte Carlo with an exact generic rank for r >= 3.
    """
    m.require_valid()
    p = m.ctx.p
    if not 1 <= j <= p:
        raise InputError(f"power j must be in 1..{p}")
    key = ("jrank", j)
    if key in m._cache:
        return m._cache[key]
    if j == p:
        dec = JRankDecision("constant", j, 0)
        m._cache[key] = dec
        return dec
    rho = generic_power_ranks(m, j)[j - 1]
    if m.r == 1:
        dec = JRankDecision("constant", j, rho)
        m._cache[key] = dec
        return dec
    if m.r == 2:
        snf = _snf_of_power(m, j)
        if snf.rank != rho:
            raise ConsistencyError("SNF rank disagrees with generic rank")
        nonunit = next((f for f in snf.invariant_factors if len(f) > 1), None)
        if nonunit is not None:
            dec = _witness_from_factor(m, j, rho, nonunit)
        else:
            # affine chart constant; check the point at infinity (0, 1)
            inf_rank = rank_at_point(m, (m.ctx.zero, m.ctx.one), j)
            if inf_rank != rho:
                dec = JRankDecision(
                    "not_constant",
                    j,
                    rho,
                    witness={
                        "point": "(0, 1)",
                        "rank_there": inf_rank,
                        "generic_rank": rho,
                    },
                )
            else:
                dec = JRankDecision("constant", j, rho)
        m._cache[key] = dec
        return dec
    # r >= 3: Monte Carlo over a large extension
    if ext_degree is None:
        ext_degree = 1
        while (m.ctx.q**ext_degree) <= 2**20:
            ext_degree += 1
    ext = extension(m.ctx, ext_degree)
    rng = random.Random(seed)
    for _ in range(samples):
        coords = _random_projective_point(ext, m.r, rng)
        rk = rank_at_point(m, coords, j)
        if rk != rho:
            dec = JRankDecision(
                "not_constant",
                j,
                rho,
                witness={"point": repr(coords), "rank_there": rk, "generic_rank": rho},
            )
            m._cache[key] = dec
            return dec
    per = min(1.0, (j * m.dim) / ext.q)
    dec = JRankDecision("probably_constant", j, rho, confidence=1.0 - per**samples if samples else 0.0)
    m._cache[key] = dec
    return dec


def _random_projective_point(fld: FieldCtx, r: int, rng: random.Random):
    while True:
        coords = tuple(fld.random_scalar(rng) for _ in range(r))
        if any(bool(c) for c in coords):
            return coords


def root_operator(m: KEModule, g: list) -> np.ndarray:
    """X_1 + theta X_2 (r = 2) at a root theta of the monic irreducible g over
    F_q (code list), as an F_q-linear map of F_q(theta)^dim = F_q^(dim * deg g):
    coordinate a * deg g + i is the theta^i coefficient of entry a.  Its
    powers have deg g times the ranks over F_q(theta), and no field of size
    q^(deg g) is ever built."""
    ctx, deg = m.ctx, len(g) - 1
    comp = np.zeros((deg, deg), dtype=np.int64)  # multiplication by theta
    comp[np.arange(1, deg), np.arange(deg - 1)] = 1
    comp[:, deg - 1] = ctx.neg(np.array(g[:deg], dtype=np.int64))

    def kron(x, c):
        return ctx.mul(x[:, None, :, None], c[None, :, None, :]).reshape(m.dim * deg, m.dim * deg)

    return ctx.add(kron(m.mats[0], np.eye(deg, dtype=np.int64)), kron(m.mats[1], comp))


def _witness_from_factor(m: KEModule, j: int, rho: int, factor) -> JRankDecision:
    """Name a jump point by the minimal polynomial of a root of a non-unit
    invariant factor, and re-verify the rank drop at that root."""
    ctx = m.ctx
    g = some_irreducible_factor(ctx, list(factor), seed=11)
    rk = linalg.rank_fp(linalg.matpow_fp(root_operator(m, g), j, ctx), ctx) // (len(g) - 1)
    if rk >= rho:
        raise ConsistencyError("claimed jump point has full rank")
    minpoly = [ctx.serialize(c) for c in g]
    return JRankDecision(
        "not_constant",
        j,
        rho,
        witness={
            "minimal_polynomial": minpoly,
            "point": "(1, theta) with theta a root of the minimal polynomial",
            "rank_there": rk,
            "generic_rank": rho,
        },
    )


def constant_jordan_type(m: KEModule, samples: int = 64, ext_degree: int | None = None, seed: int = 0) -> CJTDecision:
    """Decide constant Jordan type (exact for r <= 2)."""
    m.require_valid()
    key = ("cjt", samples if m.r >= 3 else None)
    if key in m._cache:
        return m._cache[key]
    p = m.ctx.p
    probable = False
    for j in range(1, p):
        dec = constant_jrank_decide(m, j, samples=samples, ext_degree=ext_degree, seed=seed + j)
        if dec.kind == "not_constant":
            out = CJTDecision("not_cjt", None, witness={"j": j, **(dec.witness or {})})
            m._cache[key] = out
            return out
        if dec.kind == "probably_constant":
            probable = True
    jt = jordan_type(m, PointSpec.generic())
    out = CJTDecision("probably_cjt" if probable else "cjt", jt)
    m._cache[key] = out
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def trivial_module(ctx: FieldCtx, r: int, d: int = 1) -> KEModule:
    return KEModule(ctx, r, [np.zeros((d, d), dtype=np.int64) for _ in range(r)])


def w_module(p_or_ctx, n: int, d: int) -> KEModule:
    """The module W_{n,d}: layers ell = 0..d-1 with basis u_{ell,j}, j = 1..n-ell;
    X_1 u_{ell,j} = u_{ell+1,j-1}, X_2 u_{ell,j} = u_{ell+1,j} (zero off the grid)."""
    ctx = p_or_ctx if isinstance(p_or_ctx, FieldCtx) else FieldCtx(p_or_ctx)
    if not (1 <= d <= n and d <= ctx.p):
        raise InputError("w_module needs 1 <= d <= n and d <= p")
    offsets = [0]
    for ell in range(d):
        offsets.append(offsets[-1] + (n - ell))
    dim = offsets[-1]

    def idx(ell, jj):
        return offsets[ell] + (jj - 1)

    x1 = np.zeros((dim, dim), dtype=np.int64)
    x2 = np.zeros((dim, dim), dtype=np.int64)
    labels = []
    for ell in range(d):
        for jj in range(1, n - ell + 1):
            labels.append(f"u{ell}_{jj}")
            if ell < d - 1:
                if jj > 1:
                    x1[idx(ell + 1, jj - 1), idx(ell, jj)] = 1
                if jj <= n - ell - 1:
                    x2[idx(ell + 1, jj), idx(ell, jj)] = 1
    return KEModule(ctx, 2, [x1, x2], labels=labels)


def direct_sum(a: KEModule, b: KEModule) -> KEModule:
    if a.r != b.r or not a.ctx.same_field(b.ctx):
        raise InputError("direct sum needs matching p, r, field")
    mats = []
    for i in range(a.r):
        m = np.zeros((a.dim + b.dim, a.dim + b.dim), dtype=np.int64)
        m[: a.dim, : a.dim] = a.mats[i]
        m[a.dim :, a.dim :] = b.mats[i]
        mats.append(m)
    return KEModule(a.ctx, a.r, mats)


def dual(m: KEModule) -> KEModule:
    """k-linear dual: X_i acts by plain transpose."""
    m.require_valid()
    return KEModule(m.ctx, m.r, [x.T.copy() for x in m.mats])


def restrict(m: KEModule, a_matrix) -> KEModule:
    """Restriction along the shifted subgroup T_j = sum_i a_ij X_i.

    a_matrix: r x s over the base field, full column rank s.
    """
    m.require_valid()
    A = m.ctx.array(a_matrix)
    if A.ndim != 2 or A.shape[0] != m.r:
        raise InputError("restriction matrix must be r x s")
    s = A.shape[1]
    if linalg.rank_fp(A, m.ctx) != s:
        raise InputError("restriction matrix must have full column rank")
    mats = [_combine(m.ctx, m.mats, A[:, jcol]) for jcol in range(s)]
    return KEModule(m.ctx, s, mats, labels=m.labels)


# ---------------------------------------------------------------------------
# subspaces attached to a module
# ---------------------------------------------------------------------------


def apply_generator(m: KEModule, i: int, sub: Subspace) -> Subspace:
    """Image of a subspace under X_i."""
    if sub.dim == 0:
        return Subspace.zero(m.ctx, m.dim)
    return Subspace.span(m.ctx, m.dim, linalg.matmul_fp(sub.basis, m.mats[i].T, m.ctx))


def radical(m: KEModule) -> Subspace:
    """Rad(M) = sum of the images of the X_i."""
    m.require_valid()
    full = Subspace.full(m.ctx, m.dim)
    out = Subspace.zero(m.ctx, m.dim)
    for i in range(m.r):
        out = out.sum(apply_generator(m, i, full))
    return out


def socle(m: KEModule) -> Subspace:
    """Soc(M) = intersection of the kernels of the X_i."""
    m.require_valid()
    return Subspace.span(m.ctx, m.dim, linalg.kernel_fp(np.vstack(m.mats), m.ctx))


def radical_series(m: KEModule) -> list[Subspace]:
    """[M, Rad M, Rad^2 M, ..., 0], strictly decreasing."""
    m.require_valid()
    out = [Subspace.full(m.ctx, m.dim)]
    while out[-1].dim > 0:
        cur = out[-1]
        nxt = Subspace.zero(m.ctx, m.dim)
        for i in range(m.r):
            nxt = nxt.sum(apply_generator(m, i, cur))
        out.append(nxt)
    return out


def socle_series(m: KEModule) -> list[Subspace]:
    """[0, Soc M, Soc^2 M, ..., M], strictly increasing."""
    m.require_valid()
    out = [Subspace.zero(m.ctx, m.dim)]
    while out[-1].dim < m.dim:
        out.append(preimage_under_all(m, out[-1]))
    return out


def preimage_under_all(m: KEModule, sub: Subspace) -> Subspace:
    """{v : X_i v in sub for all i}."""
    perp = sub.perp()
    if perp.dim == 0:
        return Subspace.full(m.ctx, m.dim)
    stacked = np.vstack([linalg.matmul_fp(perp.basis, x, m.ctx) for x in m.mats])
    return Subspace.span(m.ctx, m.dim, linalg.kernel_fp(stacked, m.ctx))


def loewy_length(m: KEModule) -> int:
    return len(radical_series(m)) - 1


def is_invariant(m: KEModule, sub: Subspace) -> bool:
    return all(sub.contains(apply_generator(m, i, sub)) for i in range(m.r))


def submodule_spin(m: KEModule, rows) -> Subspace:
    """Smallest X-invariant subspace containing the given row vectors."""
    m.require_valid()
    cur = Subspace.span(m.ctx, m.dim, rows)
    while True:
        nxt = cur
        for i in range(m.r):
            nxt = nxt.sum(apply_generator(m, i, cur))
        if nxt.dim == cur.dim:
            return cur
        cur = nxt


def subquotient(m: KEModule, top: Subspace, bottom: Subspace) -> KEModule:
    """The module top/bottom with the induced action.

    Both subspaces must be X-invariant with bottom <= top; the basis is the
    deterministic echelon complement of bottom inside top.
    """
    mod, _ = subquotient_with_lift(m, top, bottom)
    return mod


def subquotient_with_lift(m: KEModule, top: Subspace, bottom: Subspace):
    """As subquotient, also returning the lift rows (complement basis in M)."""
    m.require_valid()
    if not top.contains(bottom):
        raise InputError("bottom is not contained in top")
    if not is_invariant(m, top) or not is_invariant(m, bottom):
        raise InputError("subquotient needs X-invariant subspaces")
    comp = bottom.complement_in(top)
    pivots = list(Subspace.span(m.ctx, m.dim, comp).pivots)
    mats = [
        bottom.reduce(linalg.matmul_fp(comp, x.T, m.ctx))[:, pivots].T for x in m.mats
    ]
    return KEModule(m.ctx, m.r, mats), comp


def sub_as_module(m: KEModule, sub: Subspace):
    return subquotient_with_lift(m, sub, Subspace.zero(m.ctx, m.dim))


def quotient_module(m: KEModule, sub: Subspace) -> KEModule:
    return subquotient(m, Subspace.full(m.ctx, m.dim), sub)


# ---------------------------------------------------------------------------
# free modules, presentations, syzygies
# ---------------------------------------------------------------------------


def free_module(ctx: FieldCtx, r: int, g: int = 1) -> KEModule:
    """kE^g with monomial basis X^e tensor generator (generator-major)."""
    p = ctx.p
    dim = g * p**r
    if dim > MAX_FREE_DIM:
        raise InputError(f"free module dimension {dim} exceeds the guard {MAX_FREE_DIM}")
    exps = list(itertools.product(range(p), repeat=r))
    eidx = {e: i for i, e in enumerate(exps)}
    n = len(exps)
    mats = []
    for i in range(r):
        x = np.zeros((dim, dim), dtype=np.int64)
        for gi in range(g):
            for e, src in eidx.items():
                if e[i] + 1 < p:
                    tgt = eidx[tuple(v + 1 if s == i else v for s, v in enumerate(e))]
                    x[gi * n + tgt, gi * n + src] = 1
        mats.append(x)
    mod = KEModule(ctx, r, mats)
    mod._cache["free_exponents"] = (exps, eidx, n)
    return mod


def element_vector(free: KEModule, terms) -> list:
    """Vector of the free module from (generator index, exponent tuple, coeff) terms."""
    exps, eidx, n = free._cache["free_exponents"]
    ctx = free.ctx
    v = np.zeros(free.dim, dtype=np.int64)
    for gi, e, c in terms:
        i = gi * n + eidx[tuple(e)]
        v[i] = ctx.ops.add(int(v[i]), ctx.encode(c))
    return v


def from_presentation(ctx: FieldCtx, r: int, generators: int, relations) -> KEModule:
    """Quotient of kE^generators by the submodule spun from relation elements.

    Relations are lists of (generator index, exponent tuple, coefficient).
    """
    free = free_module(ctx, r, generators)
    rel_rows = [element_vector(free, rel) for rel in relations]
    relsub = submodule_spin(free, rel_rows) if rel_rows else Subspace.zero(ctx, free.dim)
    return quotient_module(free, relsub)


def syzygy(ctx_or_p, r: int, n: int) -> KEModule:
    """n-th syzygy of the trivial module: iterated kernels of minimal free covers."""
    ctx = ctx_or_p if isinstance(ctx_or_p, FieldCtx) else FieldCtx(ctx_or_p)
    if n < 0:
        raise InputError("syzygy index must be >= 0")
    mod = trivial_module(ctx, r, 1)
    for _ in range(n):
        mod = _syzygy_step(ctx, r, mod)
    return mod


def _syzygy_step(ctx: FieldCtx, r: int, m: KEModule) -> KEModule:
    rad = radical(m)
    lifts = rad.complement_in(Subspace.full(ctx, m.dim))
    h = len(lifts)
    free = free_module(ctx, r, h)
    exps, eidx, nmono = free._cache["free_exponents"]
    # cover map: X^e (x) gen_b -> X^e * lift_b, as a dim(M) x dim(free) matrix
    cover = np.zeros((m.dim, free.dim), dtype=np.int64)
    for b in range(h):
        for e, src in eidx.items():
            w = lifts[b][:, None]
            for i in range(r):
                for _ in range(e[i]):
                    w = linalg.matmul_fp(m.mats[i], w, ctx)
            cover[:, b * nmono + src] = w[:, 0]
    ker_rows = linalg.kernel_fp(cover, ctx)
    ksub = Subspace.span(ctx, free.dim, ker_rows)
    return sub_as_module(free, ksub)[0]


def random_invertible(ctx: FieldCtx, n: int, rng: random.Random):
    """Random invertible n x n matrix with entries in the prime field F_p."""
    while True:
        a = np.array([[rng.randrange(ctx.p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if linalg.rank_fp(a, ctx) == n:
            return a
