"""Modules over k[X_1..X_r]/(X_i^p) as commuting nilpotent matrices.

The central object is KEModule: r commuting d x d matrices over F_q with
vanishing p-th powers, stored as int64 arrays of element codes (see
``gf.FieldCtx``).  Module elements are column vectors; subspaces are
row-echelon bases.  Everything downstream (Jordan types, generic kernels,
sheaf slices) is phrased in terms of this class.  A module caches its
results, and the modules derived from one (duals, restrictions,
subquotients) keep one cache per distinct set of matrices
(``KEModule._derive``).

Exact generic ranks — the rank of X_alpha^j at the generic point of the
projective parameter space — come for r = 2 from the Smith form of
(X_1 + t X_2)^j over F_q[t], the same one that decides constant Jordan
type; the pencil powers and X_2^j at infinity come off one table of
generator powers (``KEModule.powers``).  For r >= 3 they are the maximum of
numeric ranks over a principal lattice of points (``_lattice``) on which no maximal minor can vanish,
taken in an extension field F_{q^m} when the base field is too small; the
r >= 3 generic kernels are the sums of the point kernels on such a lattice
(``genker``).  The lattice's points, and the rational points that the r >= 3
constancy decision tests (``constant_jrank_decide``), are ranked as stacks
of matrices by one fraction-free elimination of all of them (``_point_ranks``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import linalg, pencil
from .errors import ConsistencyError, InputError, MathRefusal
from .gf import FieldCtx, extension, some_irreducible_factor
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

    ``_cache`` holds what has been computed on the module (validation,
    powers, Smith forms, generic ranks, kernel bases, decisions, generic
    kernels, splitting types), each under a key that with the field, r and
    the matrices fixes the value.  A module made from another by ``dual``, ``restrict`` or a
    subquotient (``_derive``) joins its source's *family*: a dict, shared
    by the root and everything derived from it, from the content
    (r, dim, matrices) to one cache.  So derived modules whose matrices
    are equal (a double dual, M as its own full submodule, two equal
    layers) read and fill one cache.  A module built by the constructor is
    a new root and starts empty, even when its matrices equal another's.
    Cached values are shared: callers must not change them in place.
    """

    __slots__ = ("ctx", "r", "dim", "mats", "labels", "_cache", "_family")

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
        self._family = None

    def _derive(self, r: int, mats, labels=None) -> "KEModule":
        """A module over the same field made from this one: it joins this
        module's family and takes the family's cache for its content."""
        mod = KEModule(self.ctx, r, mats, labels)
        if self._family is None:
            self._family = {self._content(): self._cache}
        mod._cache = self._family.setdefault(mod._content(), mod._cache)
        mod._family = self._family
        return mod

    def _content(self) -> tuple:
        return (self.r, self.dim) + tuple(x.tobytes() for x in self.mats)

    # -- bookkeeping ----------------------------------------------------------

    def powers(self) -> np.ndarray:
        """The table X_i^e at [e, i - 1], e = 0..min(p, d), one stacked product
        of all generators per power; read-only.  X^d = 0 iff X is nilpotent."""
        key = "powers"
        if key not in self._cache:
            x = np.array(self.mats).reshape(self.r, self.dim, self.dim)
            table = [np.broadcast_to(np.eye(self.dim, dtype=np.int64), x.shape), x]
            while len(table) <= min(self.ctx.p, self.dim):
                table.append(self.ctx.matmul(table[-1], x))
            self._cache[key] = table = np.array(table)
            table.flags.writeable = False
        return self._cache[key]

    def power(self, i: int, e: int) -> np.ndarray:
        """X_{i+1}^e off the table, e <= p.  Where d < p the table stops at
        X^d, which has the rank and image of every higher power (Fitting)
        and is zero iff X^p is."""
        x = self.powers()
        return x[min(e, len(x) - 1), i]

    def validate(self) -> ValidationReport:
        """Check commutativity and, on the table of powers, X_i^p = 0."""
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
            if self.power(i, F.p).any():
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
        """(X_1 + t X_2)^j = sum_i C(j, i) X_1^(j-i) X_2^i t^i (r = 2), off the
        table of generator powers (``powers``), the cross products in one
        stacked product.  The expansion needs X_1 and X_2 to commute, so an
        invalid module is refused.  Zero from j = min(p, d) on."""
        if j < 0:
            raise InputError(f"power j must be >= 0, got {j}")
        key = ("power_pencil", j)
        if key not in self._cache:
            self.pencil()  # refuses r != 2, for the vanishing powers too
            self.require_valid()
            F, x = self.ctx, self.powers()
            if j >= min(F.p, self.dim):
                self._cache[key] = np.zeros((self.dim, self.dim, 1), dtype=np.int64)
            else:
                cross = F.matmul(x[j - 1 : 0 : -1, 0], x[1:j, 1]) if j > 1 else []
                terms = [F.mul(math.comb(j, i) % F.p, a) for i, a in enumerate([x[j, 0], *cross, x[j, 1]][: j + 1])]
                self._cache[key] = pencil.pm_trim(np.stack(terms, axis=2))
        return self._cache[key]

    def kernel_generators(self, ell: int) -> list[pencil.GradedGen]:
        """Minimal graded kernel basis of (X_1 + t X_2)^ell (r = 2), empty for
        ell <= 0: the one basis behind splitting types and generic kernels.
        From ell = p on the power is zero and the basis is the unit vectors
        in degree 0, as the sweep would find them."""
        key = ("kernel_generators", ell)
        if key not in self._cache:
            gens = []
            if ell >= self.ctx.p:
                self.pencil()  # refuses r != 2
                gens = [pencil.GradedGen(e[:, None].copy(), 0) for e in np.eye(self.dim, dtype=np.int64)]
            elif ell > 0:
                rho = generic_power_ranks(self, ell)[-1]
                gens = pencil.graded_kernel_basis(self.power_pencil(ell), self.ctx, self.dim - rho)
            self._cache[key] = gens
        return self._cache[key]

    def __repr__(self):
        return f"KEModule(p={self.ctx.p}, k={self.ctx.k}, r={self.r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# X_alpha and ranks
# ---------------------------------------------------------------------------


def x_alpha(m: KEModule, pt: PointSpec):
    """The operator sum(lambda_i X_i) at a closed point, a code array over the
    point's field.  The generic point has no such matrix: its data are the
    generic ranks (``generic_power_ranks``) and kernels (``genker``)."""
    m.require_valid()
    if pt.is_generic:
        raise InputError("X_alpha needs a closed point; the generic point has no matrix")
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
    """Exact ranks over F_q(t_2..t_r) of X_alpha^j for j = 1..min(jmax, p)
    (generic point).

    For r = 2 the rank of (X_1 + t X_2)^j is that of its Smith form over
    F_q[t]; for r >= 3 it comes from the widest ``_grid_ranks`` lattice sweep
    so far (up to j = p - 1).  From j = p on the rank is 0.
    """
    m.require_valid()
    key = ("generic_ranks", jmax)
    if key in m._cache:
        return m._cache[key]
    F, d = m.ctx, m.dim
    top = min(jmax, F.p)
    js = range(1, top + 1)
    if d == 0 or m.r == 1:
        ranks = [linalg.rank_fp(m.power(0, j), F) if d else 0 for j in js]
    elif m.r == 2:
        ranks = [_snf_of_power(m, j).rank if j < F.p else 0 for j in js]
    else:
        _grid_bound(m, top)
        swept = m._cache.get("grid_ranks", [])
        if len(swept) < min(top, F.p - 1):
            swept = m._cache["grid_ranks"] = _grid_ranks(m, min(top, F.p - 1))
        ranks = [swept[j - 1] if j < F.p else 0 for j in js]
    m._cache[key] = ranks
    return ranks


def _grid_fits(m: KEModule, jmax: int) -> bool:
    """Whether the rank sweep for j <= jmax is within the cap: the grid of
    side jmax * dim + 1 that holds its lattice has at most 300,000 points."""
    return m.r < 3 or (jmax * m.dim + 1) ** (m.r - 1) <= 300_000


def _grid_bound(m: KEModule, jmax: int) -> int:
    """Side of the grid that holds the rank lattice for j <= jmax, or
    InputError when it is over the cap (``_grid_fits``)."""
    if not _grid_fits(m, jmax):
        raise InputError("generic-rank grid too large for this rank and dimension")
    return jmax * m.dim + 1


def _grid_ranks(m: KEModule, jmax: int) -> list[int]:
    """Generic ranks of X_alpha^j, j = 1..min(jmax, p), for any r >= 2.

    A nonzero maximal minor of X_alpha^j has total degree <= j * dim in
    t_2..t_r, so it vanishes at no point of ``_lattice(m, jmax * dim)``, and
    the rank is the maximum of the numeric ranks there.  The points are
    evaluated in chunks of stacked matrices (``_point_ranks``), every power
    of a chunk from one stack.  For r = 2 it is the tests' independent check
    of the Smith-form ranks.
    """
    jmax = min(jmax, m.ctx.p)
    _grid_bound(m, jmax)
    fld, points = _lattice(m, jmax * m.dim)
    mats = mats_over(m, fld)
    ranks = np.zeros(jmax, dtype=np.int64)
    for chunk in _chunks(points, m.dim):
        ranks = np.maximum(ranks, _point_ranks(fld, mats, chunk, range(1, jmax + 1)).max(axis=0))
    return ranks.tolist()


def _lattice(m: KEModule, degree: int):
    """(fld, points): the principal lattice of the given degree on the chart
    lambda_1 = 1, the points (1, c_a2, ..., c_ar) with a_i >= 0 and
    sum a_i <= degree, where c_a is the code a of fld, the smallest
    F_{q^e} with more than ``degree`` elements (the base field for r = 1,
    whose lattice is the one point (1,)).

    No nonzero polynomial in t_2..t_r of total degree <= degree vanishes on
    it (Chung and Yao, SIAM J. Numer. Anal. 14, 1977): in the Newton basis
    prod_i prod_{b < e_i} (t_i - c_b), |e| <= degree, the values at the
    points ordered by sum a_i form a triangular system with a nonzero
    diagonal.  There are binomial(degree + r - 1, r - 1) points, about
    1/(r - 1)! of the grid of side degree + 1.
    """
    F, nvars = m.ctx, m.r - 1
    e = 1
    while nvars and F.q**e <= degree:
        e += 1
    return extension(F, e), ((1,) + a for a in _simplex(nvars, degree))


def _simplex(nvars: int, degree: int):
    """The tuples of nvars nonnegative ints with sum <= degree, in lex order."""
    if nvars == 0:
        yield ()
        return
    for a in range(degree + 1):
        for rest in _simplex(nvars - 1, degree - a):
            yield (a,) + rest


# Cells of one stack of point matrices: a sweep over many points evaluates
# them in chunks of at most this many matrix entries.
STACK_CELLS = 1 << 14


def _chunks(points, d: int):
    """The points in lists of at most max(1, STACK_CELLS // d^2)."""
    it, size = iter(points), max(1, STACK_CELLS // max(1, d * d))
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def _point_powers(fld: FieldCtx, mats, points, powers):
    """X_alpha^j at every point, a stack (len(points), d, d) for each j of the
    ascending powers in turn.

    ``points`` are coordinate tuples of codes over fld, ``mats`` the
    generators over fld.  X_alpha of all points is one stack, built with
    one broadcast product per generator; its powers are stacked products.
    """
    pts = np.array(points, dtype=np.int64).reshape(-1, len(mats))
    a = np.zeros((len(pts),) + mats[0].shape, dtype=np.int64)
    for i, x in enumerate(mats):
        a = fld.add(a, fld.mul(pts[:, i, None, None], x))
    pw, e = a, 1
    for j in powers:
        while e < j:
            pw, e = fld.matmul(pw, a), e + 1
        yield pw


def _point_ranks(fld: FieldCtx, mats, points, powers) -> np.ndarray:
    """Ranks of X_alpha^j at every point, for each j of the ascending powers:
    an array (len(points), len(powers)), each power of the stack
    (``_point_powers``) reduced in one pass by ``_stack_ranks``."""
    out = np.zeros((len(points), len(powers)), dtype=np.int64)
    for col, pw in enumerate(_point_powers(fld, mats, points, powers)):
        out[:, col] = _stack_ranks(fld, pw)
    return out


def _stack_ranks(fld: FieldCtx, stack: np.ndarray) -> np.ndarray:
    """Rank of every slice of a stack (B, n, c) of matrices over fld.

    One fraction-free elimination runs over all slices at once, a column at
    a time: each slice whose column has a nonzero entry in a row not yet used
    picks the first such row as its pivot, and every row becomes
    lead * row - coef * pivot_row on the columns to the right.  No inverse
    is taken.  Rows already used are rewritten too, which is harmless: they
    are never read again.
    """
    S = np.array(stack, dtype=np.int64)
    B, n, c = S.shape
    rank = np.zeros(B, dtype=np.int64)
    free = np.ones((B, n), dtype=bool)
    for col in range(c):
        cand = (S[:, :, col] != 0) & free
        hit = np.flatnonzero(cand.any(axis=1))
        if not hit.size:
            continue
        piv = cand[hit].argmax(axis=1)
        free[hit, piv] = False
        rank[hit] += 1
        if col + 1 < c:
            rest = S[hit, :, col + 1 :]
            lead = S[hit, piv, col][:, None, None]
            coef = S[hit, :, col][:, :, None]
            prow = S[hit, piv, col + 1 :][:, None, :]
            S[hit, :, col + 1 :] = fld.sub(fld.mul(lead, rest), fld.mul(coef, prow))
    return rank


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

    @property
    def constant(self) -> bool:
        return self.kind == "constant"


@dataclass
class CJTDecision:
    kind: str                      # "cjt" | "not_cjt" | "probably_cjt"
    jordan_type: JordanType | None
    witness: dict | None = None

    @property
    def is_cjt(self) -> bool:
        return self.kind == "cjt"


def _snf_of_power(m: KEModule, j: int):
    """Invariant factors of (X_1 + t X_2)^j over F_q[t] (r = 2)."""
    key = ("snf", j)
    if key in m._cache:
        return m._cache[key]
    res = smith_normal_form(list(m.power_pencil(j)), m.ctx)
    m._cache[key] = res
    return res


# The r >= 3 constancy decision tests the points of P^{r-1}(F_q) when there
# are at most this many of them.
RATIONAL_POINTS = 64


def constant_jrank_decide(m: KEModule, j: int) -> JRankDecision:
    """Decide whether rank(X_alpha^j) is independent of the point.

    Exact for r <= 2: the Smith form over F_q[t] gives the generic rank and
    the jump points on the affine chart, and the point at infinity is
    checked apart.  Exact for the zero module, of rank 0 everywhere.  For
    r >= 3 the generic rank is exact (``_grid_ranks``) and the decision
    tests every point of P^{r-1}(F_q) when there are at most
    ``RATIONAL_POINTS`` of them.  The points are ranked as stacks, a chunk
    of at most ``STACK_CELLS`` matrix entries at a time (``_point_ranks``);
    the first point whose rank differs from the generic one is the witness,
    and the sweep ends with its chunk.  With no witness the verdict is
    ``probably_constant``, and no bound on its error is claimed.
    """
    m.require_valid()
    p = m.ctx.p
    if not 1 <= j <= p:
        raise InputError(f"power j must be in 1..{p}")
    key = ("jrank", j)
    if key not in m._cache:
        m._cache[key] = _jrank_decision(m, j)
    return m._cache[key]


def _jrank_decision(m: KEModule, j: int) -> JRankDecision:
    if j == m.ctx.p:
        return JRankDecision("constant", j, 0)
    rho = generic_power_ranks(m, j)[j - 1]
    if m.r == 1 or m.dim == 0:
        return JRankDecision("constant", j, rho)
    if m.r == 2:
        nonunit = next((f for f in _snf_of_power(m, j).invariant_factors if len(f) > 1), None)
        if nonunit is not None:
            return _witness_from_factor(m, j, rho, nonunit)
        # affine chart constant; check the point at infinity (0, 1)
        inf_rank = linalg.rank_fp(m.power(1, j), m.ctx)
        if inf_rank != rho:
            witness = {"point": "(0, 1)", "rank_there": inf_rank, "generic_rank": rho}
            return JRankDecision("not_constant", j, rho, witness=witness)
        return JRankDecision("constant", j, rho)
    # r >= 3: the rational points when there are few, in order, a chunk at a
    # time; the first point off rank rho is the witness
    F = m.ctx
    if (F.q**m.r - 1) // (F.q - 1) <= RATIONAL_POINTS:
        rational = (
            (0,) * lead + (1,) + rest
            for lead in range(m.r)
            for rest in itertools.product(range(F.q), repeat=m.r - 1 - lead)
        )
        for chunk in _chunks(rational, m.dim):
            ranks = _point_ranks(F, m.mats, chunk, [j])[:, 0]
            off = np.flatnonzero(ranks != rho)
            if off.size:
                i = off[0]
                point = tuple(map(F.decode, chunk[i]))
                witness = {"point": repr(point), "rank_there": int(ranks[i]), "generic_rank": rho}
                return JRankDecision("not_constant", j, rho, witness=witness)
    return JRankDecision("probably_constant", j, rho)


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


def constant_jordan_type(m: KEModule) -> CJTDecision:
    """Decide constant Jordan type (exact for r <= 2 and for the zero module)."""
    m.require_valid()
    key = "cjt"
    if key in m._cache:
        return m._cache[key]
    p = m.ctx.p
    probable = False
    for j in range(1, p):
        # for r >= 3, j = 1 is decided first, on its own lattice with about
        # 1/(p - 1)^(r - 1) of the points of the lattice for all j < p, which
        # is swept once, and only for a module that passes j = 1
        if j == 2 and m.r >= 3 and _grid_fits(m, p - 1):
            generic_power_ranks(m, p - 1)
        dec = constant_jrank_decide(m, j)
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
    return m._derive(m.r, [x.T.copy() for x in m.mats])


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
    return m._derive(s, mats, labels=m.labels)


# ---------------------------------------------------------------------------
# subspaces attached to a module
# ---------------------------------------------------------------------------


def image_under_all(m: KEModule, sub: Subspace) -> Subspace:
    """X_1 sub + ... + X_r sub, all r images spanned in one echelon form."""
    if sub.dim == 0:
        return sub
    images = linalg.matmul_fp(sub.basis, np.hstack([x.T for x in m.mats]), m.ctx)
    return Subspace.span(m.ctx, m.dim, images.reshape(-1, m.dim))


def radical(m: KEModule) -> Subspace:
    """Rad(M) = sum of the images of the X_i."""
    m.require_valid()
    return image_under_all(m, Subspace.full(m.ctx, m.dim))


def socle(m: KEModule) -> Subspace:
    """Soc(M) = intersection of the kernels of the X_i."""
    m.require_valid()
    return Subspace.kernel(m.ctx, np.vstack(m.mats))


def radical_series(m: KEModule) -> list[Subspace]:
    """[M, Rad M, Rad^2 M, ..., 0], strictly decreasing."""
    m.require_valid()
    out = [Subspace.full(m.ctx, m.dim)]
    while out[-1].dim > 0:
        out.append(image_under_all(m, out[-1]))
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
    return Subspace.kernel(m.ctx, stacked)


def loewy_length(m: KEModule) -> int:
    return len(radical_series(m)) - 1


def is_invariant(m: KEModule, sub: Subspace) -> bool:
    return not any(sub.reduce(linalg.matmul_fp(sub.basis, x.T, m.ctx)).any() for x in m.mats)


def submodule_spin(m: KEModule, rows) -> Subspace:
    """Smallest X-invariant subspace containing the given row vectors."""
    m.require_valid()
    cur = Subspace.span(m.ctx, m.dim, rows)
    while True:
        nxt = cur.sum(image_under_all(m, cur))
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
    mats = [
        bottom.reduce(linalg.matmul_fp(comp.basis, x.T, m.ctx))[:, list(comp.pivots)].T for x in m.mats
    ]
    return m._derive(m.r, mats), comp.basis


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
    lifts = rad.complement_in(Subspace.full(ctx, m.dim)).basis
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
    return sub_as_module(free, Subspace.kernel(ctx, cover))[0]


def random_invertible(ctx: FieldCtx, n: int, rng: random.Random):
    """Random invertible n x n matrix with entries in the prime field F_p."""
    while True:
        a = np.array([[rng.randrange(ctx.p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if linalg.rank_fp(a, ctx) == n:
            return a
