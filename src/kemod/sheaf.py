"""Degreewise sheaf computations: theta matrices, kernel/image slices, the
Grothendieck splitting type on the projective line, and Chow-ring utilities.

Splitting types (r = 2, every F_q) come from one engine: it presents the
graded module by minimal polynomial kernel bases of (X_1 + t X_2)^l and reads
h0 of the dual bundle off a shift-graded minimal left kernel, giving the
twists in closed form.  The bases are ``KEModule.kernel_generators``, shared
with the generic kernels and sized by Smith-form ranks (the rank lattice serves
r >= 3 only).  The classical saturation recipe on the graded slices of
``SliceCache`` (h0 through a divisibility window) is kept in the test suite
as the independent oracle this engine is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg, pencil
from .errors import ConsistencyError, InputError, MathRefusal
from .modules import KEModule, constant_jordan_type, restrict
from .subspace import Subspace

# ---------------------------------------------------------------------------
# monomial bookkeeping and theta
# ---------------------------------------------------------------------------


def monomials(r: int, n: int) -> list[tuple[int, ...]]:
    """Degree-n monomials in Y_1..Y_r, graded lexicographic, Y_1 largest."""
    if r == 1:
        return [(n,)]
    out = []
    for e1 in range(n, -1, -1):
        for rest in monomials(r - 1, n - e1):
            out.append((e1,) + rest)
    return out


def theta_matrix(m: KEModule, n: int):
    """Matrix of theta: M (x) S_n -> M (x) S_{n+1}, v (x) f -> sum X_i v (x) Y_i f.

    Module-major layout: basis index = (module index) * #monomials + monomial
    index, monomials in graded lex order with Y_1 > ... > Y_r.
    """
    m.require_valid()
    if n < 0:
        raise InputError("degree must be >= 0")
    src = monomials(m.r, n)
    tgt = monomials(m.r, n + 1)
    tidx = {e: i for i, e in enumerate(tgt)}
    ns, nt = len(src), len(tgt)
    d = m.dim
    out = np.zeros((d * nt, d * ns), dtype=np.int64)
    for i in range(m.r):
        for si, e in enumerate(src):
            te = tidx[tuple(v + 1 if s == i else v for s, v in enumerate(e))]
            out[te::nt, si::ns] = m.ctx.add(out[te::nt, si::ns], m.mats[i])
    return out


class SliceCache:
    """Kernel and image slices of the theta complex, one module and power i."""

    def __init__(self, m: KEModule, i: int):
        self.m = m
        self.i = i
        self._theta: dict[int, object] = {}
        self._kernel: dict[int, Subspace] = {}
        self._image: dict[tuple[int, int], Subspace] = {}

    def nmono(self, n: int) -> int:
        return math.comb(n + self.m.r - 1, self.m.r - 1)

    def ambient(self, n: int) -> int:
        return self.m.dim * self.nmono(n)

    def theta(self, n: int):
        if n not in self._theta:
            self._theta[n] = theta_matrix(self.m, n)
        return self._theta[n]

    def kernel(self, n: int) -> Subspace:
        if n not in self._kernel:
            self._kernel[n] = Subspace.kernel(self.m.ctx, self.theta(n))
        return self._kernel[n]

    def image(self, j: int, n: int) -> Subspace:
        """Image of theta^j landing in degree n (full space for j = 0)."""
        key = (j, n)
        if key in self._image:
            return self._image[key]
        if j == 0:
            sub = Subspace.full(self.m.ctx, self.ambient(n))
        elif n < j:
            sub = Subspace.zero(self.m.ctx, self.ambient(n))
        else:
            prev = self.image(j - 1, n - 1)
            sub = self._apply_theta(prev, n - 1)
        self._image[key] = sub
        return sub

    def _apply_theta(self, sub: Subspace, n: int) -> Subspace:
        amb = self.ambient(n + 1)
        if sub.dim == 0:
            return Subspace.zero(self.m.ctx, amb)
        rows = linalg.matmul_fp(sub.basis, self.theta(n).T, self.m.ctx)
        return Subspace.span(self.m.ctx, amb, rows)

    def upper(self, n: int) -> Subspace:
        """(Ker theta cap Im theta^{i-1}) in degree n."""
        return self.kernel(n).intersect(self.image(self.i - 1, n))

    def lower(self, n: int) -> Subspace:
        """(Ker theta cap Im theta^i) in degree n."""
        return self.kernel(n).intersect(self.image(self.i, n))

    def slice_dim(self, n: int) -> int:
        return self.upper(n).dim - self.lower(n).dim


def fi_slice_dims(m: KEModule, i: int, n_max: int) -> list[int]:
    """Dimensions of the degree-n slices of the i-th subquotient sheaf,
    n = 0..n_max.  Runs for any r and any module (no local-freeness needed)."""
    m.require_valid()
    if not 1 <= i <= m.ctx.p:
        raise InputError(f"i must be in 1..{m.ctx.p}")
    cache = SliceCache(m, i)
    return [cache.slice_dim(n) for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# splitting types
# ---------------------------------------------------------------------------


class SplittingType:
    """Multiset of twists {a_1 >= a_2 >= ...} of a direct sum of line bundles."""

    __slots__ = ("twists",)

    def __init__(self, twists):
        self.twists = tuple(sorted((int(a) for a in twists), reverse=True))

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def degree(self) -> int:
        return sum(self.twists)

    def twist(self, n: int) -> "SplittingType":
        return SplittingType(a + n for a in self.twists)

    def dual(self) -> "SplittingType":
        return SplittingType(-a for a in self.twists)

    def __add__(self, other: "SplittingType") -> "SplittingType":
        return SplittingType(self.twists + other.twists)

    def __eq__(self, other):
        return isinstance(other, SplittingType) and self.twists == other.twists

    def __hash__(self):
        return hash(self.twists)

    def human(self) -> str:
        if not self.twists:
            return "0"
        return " ⊕ ".join(f"O({a})" if a else "O" for a in self.twists)

    def __repr__(self):
        return f"SplittingType({list(self.twists)})"


def splitting_type(m: KEModule, i: int) -> SplittingType:
    """Grothendieck splitting type of the i-th subquotient bundle (r = 2 only).

    Refuses modules without constant Jordan type (the sheaf is not locally
    free).  A bundle of rank a_i = 0 is the zero bundle without further
    work.
    """
    m.require_valid()
    if m.r != 2:
        raise InputError("splitting types live on the projective line (r = 2)")
    if not 1 <= i <= m.ctx.p:
        raise InputError(f"i must be in 1..{m.ctx.p}")
    dec = constant_jordan_type(m)
    if not dec.is_cjt:
        raise MathRefusal(
            f"module does not have constant Jordan type; witness: {dec.witness}"
        )
    a_i = dec.jordan_type.mult(i)
    if a_i == 0:
        return SplittingType(())
    key = ("splitting", i)
    if key not in m._cache:
        m._cache[key] = _pencil_splitting(m, i, a_i)
    return m._cache[key]


def _pencil_splitting(m: KEModule, i: int, a_i: int) -> SplittingType:
    basis = m.kernel_generators(i)
    lower, upper = m.kernel_generators(i - 1), m.kernel_generators(i + 1)
    # the targets as the columns of one polynomial matrix: the lower kernel
    # generators, then the images under the pencil of those of power i + 1
    tdeg = max([w.deg for w in lower] + [w.deg + 1 for w in upper], default=0)
    low = pencil.pm_columns(lower, m.dim)
    AW = pencil.pm_mul(m.pencil(), pencil.pm_columns(upper, m.dim), m.ctx)
    targets = np.zeros((m.dim, len(lower) + len(upper), tdeg + 1), dtype=np.int64)
    targets[:, : len(lower), : low.shape[2]] = low
    targets[:, len(lower) :, : AW.shape[2]] = AW
    C, solvable = pencil.solve_in_basis(basis, targets, tdeg, m.ctx)
    if not solvable.all():
        what = "lower kernel generator" if np.argmin(solvable) < len(lower) else "pencil image"
        raise ConsistencyError(f"{what} outside the kernel basis")
    eps = pencil.shifted_left_kernel(C, [g.deg for g in basis], m.ctx, a_i)
    return SplittingType(e - (i - 1) for e in eps)


def line_restriction_splitting(m: KEModule, a_matrix, i: int) -> SplittingType:
    """Splitting of the pullback to the line cut out by a rank-2 restriction."""
    restricted = restrict(m, a_matrix)
    if restricted.r != 2:
        raise InputError("line restriction needs a rank-2 (r x 2) matrix")
    return splitting_type(restricted, i)


# ---------------------------------------------------------------------------
# Chow ring of P^{r-1}: Z[h]/h^r
# ---------------------------------------------------------------------------


class ChowClass:
    """Integer coefficients of 1, h, ..., h^{r-1}."""

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != r:
            raise InputError("need r coefficients")
        self.r = r
        self.coeffs = coeffs

    @classmethod
    def one(cls, r: int) -> "ChowClass":
        return cls(r, (1,) + (0,) * (r - 1))

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        if self.r != other.r:
            raise InputError("Chow ring mismatch")
        out = [0] * self.r
        for a, ca in enumerate(self.coeffs):
            if ca:
                for b, cb in enumerate(other.coeffs):
                    if cb and a + b < self.r:
                        out[a + b] += ca * cb
        return ChowClass(self.r, out)

    def __eq__(self, other):
        return isinstance(other, ChowClass) and (self.r, self.coeffs) == (other.r, other.coeffs)

    def __hash__(self):
        return hash((self.r, self.coeffs))

    def __repr__(self):
        return f"ChowClass({list(self.coeffs)})"


def _binom_general(a: int, j: int) -> int:
    """Binomial coefficient with arbitrary integer top, exact."""
    num = 1
    for s in range(j):
        num *= a - s
    return num // math.factorial(j)


def chern_of_splitting(st: SplittingType, r: int) -> ChowClass:
    """Whitney product of (1 + a h) over the twists."""
    out = ChowClass.one(r)
    for a in st.twists:
        out = out * ChowClass(r, (1, a) + (0,) * (r - 2)) if r >= 2 else out
    return out


def chern_of_twist(c: ChowClass, rank: int, n: int) -> ChowClass:
    """Chern class of F(n) from the class of F: the i-th coefficient is
    sum_j n^j * C(rank - i + j, j) * c_{i-j}."""
    out = [0] * c.r
    out[0] = c.coeffs[0]
    for i in range(1, c.r):
        acc = 0
        for j in range(i + 1):
            acc += (n**j) * _binom_general(rank - i + j, j) * c.coeffs[i - j]
        out[i] = acc
    return ChowClass(c.r, out)


def whitney_product(classes) -> ChowClass:
    classes = list(classes)
    if not classes:
        raise InputError("empty Whitney product")
    out = ChowClass.one(classes[0].r)
    for c in classes:
        out = out * c
    return out


def filtration_chern_check(m: KEModule, splittings: dict[int, SplittingType] | None = None) -> dict:
    """The degree-0 first-Chern identity of the slice filtration:
    sum_i [ i * deg(F_i) + rank(F_i) * i(i-1)/2 ] = 0, exact integers."""
    m.require_valid()
    if m.r != 2:
        raise InputError("the Chern identity check is for r = 2")
    p = m.ctx.p
    if splittings is None:
        splittings = {i: splitting_type(m, i) for i in range(1, p + 1)}
    total = 0
    per = {}
    for i in range(1, p + 1):
        st = splittings[i]
        term = i * st.degree + st.rank * (i * (i - 1) // 2)
        per[i] = {"degree": st.degree, "rank": st.rank, "term": term}
        total += term
    return {"ok": total == 0, "total": total, "terms": per}
