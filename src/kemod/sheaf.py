"""Degreewise sheaf computations: theta matrices, kernel/image slices, the
Grothendieck splitting type on the projective line, and Chow-ring utilities.

Two independent routes compute splitting types for r = 2:

* the window engine materializes graded slices (Ker theta cap Im theta^j in
  each degree), computes twisted global sections h0 through a divisibility
  window of width D, reads the twists off first differences, and certifies
  the answer by reconstruction plus stability under doubling D;
* the pencil engine presents the same graded module by minimal polynomial
  kernel bases of (X_1 + t X_2)^l and reads h0 of the dual bundle off a
  shift-graded minimal left kernel, giving the twists in closed form.

Both run over every F_q.  The window engine follows the classical
saturation recipe and stays as an independent cross-check; the pencil
engine is the default.  They are compared against each other in the test
suite.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg, pencil
from .errors import ConsistencyError, InputError, MathRefusal
from .modules import (
    KEModule,
    constant_jordan_type,
    generic_power_ranks,
    restrict,
)
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
            rows = linalg.kernel_fp(self.theta(n), self.m.ctx)
            self._kernel[n] = Subspace.span(self.m.ctx, self.ambient(n), rows)
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


def splitting_type(
    m: KEModule, i: int, engine: str = "auto", window: int | None = None
) -> SplittingType:
    """Grothendieck splitting type of the i-th subquotient bundle (r = 2 only).

    Refuses modules without constant Jordan type (the sheaf is not locally
    free).  A bundle of rank a_i = 0 is the zero bundle without further
    work.  engine="auto" uses the closed-form pencil method over every F_q;
    engine="window" or an explicit window width forces the windowed
    saturation algorithm.
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
    if window is not None and engine == "auto":
        engine = "window"
    if engine == "auto":
        engine = "pencil"
    if engine not in ("pencil", "window"):
        raise InputError(f"unknown engine {engine!r}")
    if a_i == 0:
        return SplittingType(())
    key = ("splitting", i, engine, window)
    if key in m._cache:
        return m._cache[key]
    if engine == "pencil":
        st = _pencil_splitting(m, i, a_i)
    else:
        st = _window_splitting(m, i, a_i, window)
    m._cache[key] = st
    return st


# -- pencil engine -----------------------------------------------------------


def _kernel_generators(m: KEModule, ell: int) -> list[pencil.GradedGen]:
    """Minimal graded kernel basis of (X_1 + t X_2)^ell (r = 2)."""
    key = ("graded_kernel", ell)
    if key in m._cache:
        return m._cache[key]
    p, d = m.ctx.p, m.dim
    if ell <= 0:
        gens: list[pencil.GradedGen] = []
    else:
        rho = 0 if ell >= p else generic_power_ranks(m, ell)[ell - 1]
        gens = pencil.graded_kernel_basis(m.power_pencil(ell), m.ctx, d - rho)
    m._cache[key] = gens
    return gens


def _pencil_splitting(m: KEModule, i: int, a_i: int) -> SplittingType:
    F, d = m.ctx, m.dim
    basis = _kernel_generators(m, i)
    shifts = [g.deg for g in basis]
    cols = []
    for w in _kernel_generators(m, i - 1):
        coords = pencil.solve_in_basis(basis, w.coeffs, w.deg, d, F)
        if coords is None:
            raise ConsistencyError("lower kernel generator outside the kernel basis")
        cols.append((coords, w.deg))
    A = m.pencil()
    for w in _kernel_generators(m, i + 1):
        tgt = pencil.pm_mul(A, w.coeffs[:, None, :], F)[:, 0, :]
        coords = pencil.solve_in_basis(basis, tgt, w.deg + 1, d, F)
        if coords is None:
            raise ConsistencyError("pencil image outside the kernel basis")
        cols.append((coords, w.deg + 1))
    nrows = len(basis)
    ncols = len(cols)
    maxdeg = 0
    for coords, cdeg in cols:
        for arr in coords:
            if arr.size:
                maxdeg = max(maxdeg, arr.size - 1)
    C = np.zeros((nrows, ncols, maxdeg + 1), dtype=np.int64)
    for cj, (coords, cdeg) in enumerate(cols):
        for rj, arr in enumerate(coords):
            if arr.size:
                C[rj, cj, : arr.size] = arr
    eps = pencil.shifted_left_kernel(C, shifts, F, a_i)
    return SplittingType(e - (i - 1) for e in eps)


# -- window engine -----------------------------------------------------------


def _window_splitting(m: KEModule, i: int, a_i: int, window: int | None) -> SplittingType:
    d0 = window if window is not None else m.dim + m.ctx.p
    if d0 < 1:
        raise InputError("window must be positive")
    cap = 8 * d0
    dwidth = d0
    last_err = None
    while dwidth <= cap:
        try:
            t1 = _window_twists(m, i, a_i, dwidth)
            t2 = _window_twists(m, i, a_i, 2 * dwidth)
            if t1 == t2:
                return SplittingType(t1)
            last_err = f"window {dwidth} and {2*dwidth} disagree: {t1} vs {t2}"
        except ConsistencyError as e:
            last_err = str(e)
        dwidth *= 2
    raise ConsistencyError(f"window engine failed to stabilize: {last_err}")


def _window_twists(m: KEModule, i: int, a_i: int, dwidth: int) -> list[int]:
    cache = SliceCache(m, i)
    h0: dict[int, int] = {}
    n = -dwidth
    stable_run = 0
    last = None
    n_cap = dwidth + m.dim + 1
    while n <= n_cap:
        h0[n] = _h0_window(m, cache, n, dwidth)
        if last is not None:
            diff = h0[n] - h0[last]
            if diff == a_i:
                stable_run += 1
                if stable_run >= 2 and h0[n] > 0:
                    break
            else:
                stable_run = 0
        last = n
        n += 1
    else:
        if a_i > 0:
            raise ConsistencyError("h0 differences never stabilized at the bundle rank")
    ns = sorted(h0)
    twists: list[int] = []
    prev_count = 0
    for idx in range(1, len(ns)):
        nn = ns[idx]
        count = h0[nn] - h0[ns[idx - 1]]
        if count < prev_count:
            raise ConsistencyError("h0 differences decreased; saturation window too small")
        twists.extend([-nn] * (count - prev_count))
        prev_count = count
    if len(twists) != a_i:
        raise ConsistencyError(
            f"recovered {len(twists)} twists for a rank-{a_i} bundle"
        )
    for nn in ns[1:]:
        predicted = sum(max(0, a + nn + 1) for a in twists)
        if h0[nn] != predicted:
            raise ConsistencyError(f"h0({nn}) = {h0[nn]} differs from reconstruction {predicted}")
    # slice dims must grow exactly linearly over the top of the window
    top = ns[-1] + 2 * dwidth
    probe = range(max(0, top - max(3, min(m.dim, 6))), top + 1)
    dims = [cache.slice_dim(x) for x in probe]
    second = [dims[k + 2] - 2 * dims[k + 1] + dims[k] for k in range(len(dims) - 2)]
    if any(second):
        raise ConsistencyError("slice dimensions are not yet linear at the top of the window")
    return sorted(twists, reverse=True)


def _embed_rows(rows: np.ndarray, src_deg: int, tgt_deg: int, shift: int, d: int) -> np.ndarray:
    """Y_1- or Y_2-power embedding on module-major slice coordinates (r = 2).

    A vector in degree src_deg maps to degree tgt_deg; monomial index e2
    goes to e2 + shift (shift = 0 for Y_1^D, D for Y_2^D).
    """
    ns, nt = src_deg + 1, tgt_deg + 1
    out = np.zeros((rows.shape[0], d * nt), dtype=np.int64)
    for a in range(d):
        out[:, a * nt + shift : a * nt + shift + ns] = rows[:, a * ns : (a + 1) * ns]
    return out


def _h0_window(m: KEModule, cache: SliceCache, n: int, dwidth: int) -> int:
    """dim { s in G_{n+D} : Y_2^D s in Y_1^D G_{n+D} inside G_{n+2D} },
    taken modulo the classes whose chart-1 localization vanishes.

    The raw divisibility count includes low-degree torsion classes (their
    image under Y_1^D already dies in G_{n+2D}); those represent the zero
    section, so they are quotiented out: h0 = dim S - dim(S cap T) with
    T = {s : Y_1^D s = 0 in G_{n+2D}}.
    """
    s = n + dwidth
    t = n + 2 * dwidth
    v1 = cache.upper(s)
    if v1.dim == 0:
        return 0
    u = cache.lower(t)
    F, nv = m.ctx, v1.dim
    y1m = _embed_rows(v1.basis, s, t, 0, m.dim)
    y2m = _embed_rows(v1.basis, s, t, dwidth, m.dim)
    # S: c with  c*Y2 = c'*Y1 + d*U   (columns: c | c' | d)
    kern1 = linalg.kernel_fp(np.vstack([y2m, F.neg(y1m), F.neg(u.basis)]).T, F)
    s_coords = Subspace.span(F, nv, kern1[:, :nv])
    if s_coords.dim == 0:
        return 0
    # T on S: c*Y1 = d*U
    sy1 = linalg.matmul_fp(s_coords.basis, y1m, F)
    kern2 = linalg.kernel_fp(np.vstack([sy1, F.neg(u.basis)]).T, F)
    return s_coords.dim - Subspace.span(F, s_coords.dim, kern2[:, : s_coords.dim]).dim


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
