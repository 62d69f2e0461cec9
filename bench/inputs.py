"""Seeded benchmark inputs, each carrying the answers its construction implies.

Every module is built here from its definition (W-modules, duals, direct
sums, square-zero jump modules, free modules), not by the library.  Each
construction step also updates what must be true of the result:

* ``mults``: the Jordan type a_1..a_p, for modules of constant Jordan type;
* ``twists``: i -> twists of the bundle F_i, for r = 2;
* ``jump``: the homogeneous jump form G(s1, s2) of a non-CJT module, whose
  zeros on P^1 are exactly the points where rank X_alpha drops.

Prime-field matrices are int64 arrays; F_{p^k} matrices are object arrays of
field scalars.  The program receives only the matrices (see ``Spec.doc``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from kemod.gf import FieldCtx


class Field:
    """F_p (int64 arrays) or F_{p^k} (object arrays of FieldScalar)."""

    def __init__(self, p: int, k: int = 1):
        self.p, self.k = p, k
        self.ctx = FieldCtx(p, k) if k > 1 else None

    def __repr__(self):
        return f"F_{self.p}" if self.k == 1 else f"F_{self.p}^{self.k}"

    def const(self, c):
        """An integer read in this field (F_p inside F_{p^k})."""
        return int(c) % self.p if self.k == 1 else self.ctx.scalar(int(c))

    def embed(self, a) -> np.ndarray:
        """An integer matrix read in this field."""
        a = np.asarray(a, dtype=np.int64) % self.p
        if self.k == 1:
            return a
        out = np.empty(a.shape, dtype=object)
        for idx, v in np.ndenumerate(a):
            out[idx] = self.const(v)
        return out

    def zeros(self, n: int, m: int | None = None) -> np.ndarray:
        return self.embed(np.zeros((n, n if m is None else m), dtype=np.int64))

    def reduce(self, a):
        return a % self.p if self.k == 1 else a

    def mul(self, a, b):
        return self.reduce(a @ b)

    def scalar(self, rng: random.Random):
        return rng.randrange(self.p) if self.k == 1 else self.ctx.random_scalar(rng)

    def random(self, rng: random.Random, n: int, m: int) -> np.ndarray:
        out = self.zeros(n, m)
        for i in range(n):
            for j in range(m):
                out[i, j] = self.scalar(rng)
        return out

    def inverse(self, a):
        """Gauss-Jordan inverse, or None when a is singular."""
        n = a.shape[0]
        aug = np.concatenate([a.copy(), self.embed(np.eye(n, dtype=np.int64))], axis=1)
        for c in range(n):
            piv = next((r for r in range(c, n) if self._nonzero(aug[r, c])), None)
            if piv is None:
                return None
            aug[[c, piv]] = aug[[piv, c]]
            aug[c] = self.reduce(aug[c] * self._inv(aug[c, c]))
            for r in range(n):
                if r != c and self._nonzero(aug[r, c]):
                    aug[r] = self.reduce(aug[r] - aug[r, c] * aug[c])
        return aug[:, n:]

    def random_invertible(self, rng: random.Random, n: int):
        while True:
            a = self.random(rng, n, n)
            inv = self.inverse(a)
            if inv is not None:
                return a, inv

    def _nonzero(self, c) -> bool:
        return bool(c % self.p) if self.k == 1 else bool(c)

    def _inv(self, c):
        return pow(int(c), -1, self.p) if self.k == 1 else c.inverse()

    def entries(self, a) -> list:
        """Flat row-major entries in module-file form."""
        if self.k == 1:
            return [int(v) for v in a.reshape(-1)]
        return [list(e.coeffs) for e in a.reshape(-1)]


@dataclass(frozen=True)
class Spec:
    """A generated module and what its construction implies."""

    label: str
    field: Field
    mats: tuple
    mults: tuple | None = None  # Jordan type a_1..a_p, None when not CJT
    twists: dict | None = None  # i -> twists of F_i, descending (r = 2)
    jump: tuple | None = None  # homogeneous jump form: coefficient of s1^i s2^(K-i)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    @property
    def r(self) -> int:
        return len(self.mats)

    def doc(self) -> dict:
        """The module in the library's JSON file format: matrices only."""
        f = self.field
        doc = {"format": "kemod-module", "version": 1, "p": f.p, "field_degree": f.k,
               "r": self.r, "dim": self.dim, "generators": [f.entries(x) for x in self.mats]}
        if f.k > 1:
            doc["modulus"] = list(f.ctx.modulus)
        return doc


def _desc(ts) -> tuple:
    return tuple(sorted(ts, reverse=True))


def w_module(f: Field, n: int, d: int) -> Spec:
    """W_{n,d}: basis u_{l,j} (l < d, j <= n - l); X_1 u_{l,j} = u_{l+1,j-1},
    X_2 u_{l,j} = u_{l+1,j}.  Jordan type [d]^(n-d+1) plus one block of each
    size below d; F_i = O(i-n) for i < d, O^(n-d+1) for i = d, 0 above."""
    p = f.p
    assert 1 <= d <= min(n, p)
    offs = [0]
    for ell in range(d):
        offs.append(offs[-1] + n - ell)
    dim = offs[-1]
    x1 = np.zeros((dim, dim), dtype=np.int64)
    x2 = np.zeros((dim, dim), dtype=np.int64)
    for ell in range(d - 1):
        for j in range(1, n - ell + 1):
            src = offs[ell] + j - 1
            if j > 1:
                x1[offs[ell + 1] + j - 2, src] = 1
            if j <= n - ell - 1:
                x2[offs[ell + 1] + j - 1, src] = 1
    mults = [1 if j < d else 0 for j in range(1, p + 1)]
    mults[d - 1] = n - d + 1
    twists = {i: (i - n,) if i < d else (0,) * (n - d + 1) if i == d else () for i in range(1, p + 1)}
    return Spec(f"W{n},{d}", f, (f.embed(x1), f.embed(x2)), tuple(mults), twists)


def dual(s: Spec) -> Spec:
    """Transpose action: same Jordan type, F_i twists a -> -a - i + 1."""
    twists = None
    if s.twists is not None:
        twists = {i: _desc(-a - i + 1 for a in ts) for i, ts in s.twists.items()}
    return replace(s, label=s.label + "*", mats=tuple(x.T.copy() for x in s.mats), twists=twists)


def direct_sum(a: Spec, b: Spec) -> Spec:
    """Block diagonal: Jordan types and twists add; jump forms multiply."""
    f, n = a.field, a.dim + b.dim
    mats = []
    for xa, xb in zip(a.mats, b.mats):
        x = f.zeros(n)
        x[: a.dim, : a.dim] = xa
        x[a.dim :, a.dim :] = xb
        mats.append(x)
    mults = twists = jump = None
    if a.mults is not None and b.mults is not None:
        mults = tuple(u + v for u, v in zip(a.mults, b.mults))
    if a.twists is not None and b.twists is not None:
        twists = {i: _desc(a.twists[i] + b.twists[i]) for i in a.twists}
    if a.jump is not None or b.jump is not None:
        jump = _hmul(a.jump or (1,), b.jump or (1,), f.p)
    return Spec(f"{a.label}+{b.label}", f, tuple(mats), mults, twists, jump)


def basis_change(s: Spec, rng: random.Random) -> Spec:
    """X_i -> P X_i P^-1 for a random invertible P: every answer is unchanged."""
    f = s.field
    pm, pinv = f.random_invertible(rng, s.dim)
    mats = tuple(f.mul(f.mul(pm, x), pinv) for x in s.mats)
    return replace(s, label=f"P({s.label})", mats=mats)


def permute(s: Spec, rng: random.Random) -> Spec:
    """A random reordering of the basis, which keeps the matrices sparse."""
    order = list(range(s.dim))
    rng.shuffle(order)
    return replace(s, mats=tuple(x[np.ix_(order, order)] for x in s.mats))


def coordinate_change(s: Spec, a) -> Spec:
    """Y_j = sum_i a[i][j] X_i for an invertible r x r matrix a over F_p.

    A point u in the new coordinates is the point a u in the old ones, so
    the jump form becomes G(a u)."""
    f, r = s.field, s.r
    a = np.asarray(a, dtype=np.int64) % f.p
    mats = []
    for j in range(r):
        y = f.zeros(s.dim)
        for i in range(r):
            if a[i, j]:
                y = f.reduce(y + s.mats[i] * f.const(a[i, j]))
        mats.append(y)
    jump = None if s.jump is None else _hsubst(s.jump, a, f.p)
    return replace(s, label=f"A({s.label})", mats=tuple(mats), jump=jump)


def jump_module(f: Field, poly: list[int]) -> Spec:
    """Square-zero module of dim 2K for a monic poly of degree K over F_p:
    X_1 = [[0, 0], [I, 0]], X_2 = [[0, 0], [C, 0]] with C the companion of
    poly.  rank X_alpha = rank(l1 I + l2 C) drops exactly on the zeros of
    G(l1, l2) = det(l1 I + l2 C) = sum_i poly_i (-1)^(K+i) l1^i l2^(K-i)."""
    p, kdeg = f.p, len(poly) - 1
    comp = np.zeros((kdeg, kdeg), dtype=np.int64)
    for i in range(1, kdeg):
        comp[i, i - 1] = 1
    comp[:, kdeg - 1] = [-c % p for c in poly[:kdeg]]
    x1 = np.zeros((2 * kdeg, 2 * kdeg), dtype=np.int64)
    x2 = x1.copy()
    x1[kdeg:, :kdeg] = np.eye(kdeg, dtype=np.int64)
    x2[kdeg:, :kdeg] = comp
    jump = tuple(c * (-1) ** (kdeg + i) % p for i, c in enumerate(poly))
    return Spec(f"J{kdeg}", f, (f.embed(x1), f.embed(x2)), jump=jump)


def free_module(f: Field, r: int) -> Spec:
    """kE itself: monomial basis X^e, X_i raises e_i.  Free modules have
    constant Jordan type [p]^(p^(r-1))."""
    p = f.p
    exps = [tuple((n // p**i) % p for i in range(r)) for n in range(p**r)]
    idx = {e: n for n, e in enumerate(exps)}
    mats = []
    for i in range(r):
        x = np.zeros((p**r, p**r), dtype=np.int64)
        for e, src in idx.items():
            if e[i] + 1 < p:
                x[idx[e[:i] + (e[i] + 1,) + e[i + 1 :]], src] = 1
        mats.append(f.embed(x))
    mults = (0,) * (p - 1) + (p ** (r - 1),)
    return Spec(f"kE(r={r})", f, tuple(mats), mults)


# -- homogeneous binary forms over F_p: coefficient i belongs to s1^i s2^(K-i)


def _hmul(a, b, p) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % p
    return tuple(out)


def _hsubst(g, a, p) -> tuple:
    """G(a u) for a 2 x 2 matrix a: s1 = a00 u1 + a01 u2, s2 = a10 u1 + a11 u2."""
    kdeg = len(g) - 1
    s1 = (int(a[0, 1]), int(a[0, 0]))  # coefficients of u2, u1
    s2 = (int(a[1, 1]), int(a[1, 0]))
    out = [0] * (kdeg + 1)
    for i, c in enumerate(g):
        term = (c % p,)
        for _ in range(i):
            term = _hmul(term, s1, p)
        for _ in range(kdeg - i):
            term = _hmul(term, s2, p)
        out = [(x + y) % p for x, y in zip(out, term)]
    return tuple(out)


def affine_jump(g) -> tuple[list[int], bool]:
    """The jump polynomial in t on the chart (1, t), ascending, and whether
    the point at infinity (0, 1) is a jump point."""
    kdeg = len(g) - 1
    return [g[kdeg - e] for e in range(kdeg + 1)], g[0] == 0


def random_irreducible(p: int, kdeg: int, rng: random.Random) -> list[int]:
    """A random monic irreducible of degree 1..3 over F_p (no root in F_p)."""
    assert 1 <= kdeg <= 3
    while True:
        poly = [rng.randrange(p) for _ in range(kdeg)] + [1]
        if kdeg == 1 or all(sum(c * x**i for i, c in enumerate(poly)) % p for x in range(p)):
            return poly


def random_coordinates(p: int, rng: random.Random, r: int = 2) -> np.ndarray:
    while True:
        a = np.array([[rng.randrange(p) for _ in range(r)] for _ in range(r)], dtype=np.int64)
        if Field(p).inverse(a) is not None:
            return a


def disguise(s: Spec, rng: random.Random) -> Spec:
    """A random change of basis followed by a random coordinate change."""
    return coordinate_change(basis_change(s, rng), random_coordinates(s.field.p, rng, s.r))


def non_cjt(f: Field, kind: str, bulk: Spec, rng: random.Random) -> Spec:
    """A jump module plus a CJT bulk, disguised, with one jump of the given kind:
    'rational', 'infinity' (a rational jump moved to (0, 1)), 'deg2', 'deg3'."""
    kdeg = {"rational": 1, "infinity": 1, "deg2": 2, "deg3": 3}[kind]
    s = direct_sum(jump_module(f, random_irreducible(f.p, kdeg, rng)), bulk)
    s = basis_change(s, rng)
    p = f.p
    while True:
        a = random_coordinates(p, rng)
        if kind == "infinity":
            # send (0, 1) to the old jump point (-g0, g1) of G = g0 s2 + g1 s1
            g = s.jump
            lam = rng.randrange(1, p)
            a[0, 1], a[1, 1] = (-g[0] * lam) % p, (g[1] * lam) % p
            if Field(p).inverse(a) is None:
                continue
        out = coordinate_change(s, a)
        _, at_inf = affine_jump(out.jump)
        if at_inf == (kind == "infinity"):
            return replace(out, label=f"{kind}:{out.label}")
