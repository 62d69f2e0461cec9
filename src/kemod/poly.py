"""Sparse multivariate polynomials and rational functions over F_q.

These are the exact carriers for generic-point computations: the matrix
X_1 + t_2*X_2 + ... lives over Poly, kernels over RationalFunction.
Univariate fractions are kept fully reduced (monic gcd divided out);
multivariate fractions are reduced by monomial content plus trial exact
division, with equality checked by cross-multiplication so canonicality
is never load-bearing.
"""

from __future__ import annotations

from . import dpoly
from .errors import InputError
from .gf import FieldCtx, FieldScalar


class Poly:
    """Polynomial in nvars variables; terms maps exponent tuples to nonzero scalars."""

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: FieldCtx, nvars: int, terms: dict):
        self.ctx = ctx
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, ctx: FieldCtx, nvars: int, value) -> "Poly":
        s = ctx.scalar(value)
        return cls(ctx, nvars, {(0,) * nvars: s} if s else {})

    @classmethod
    def zero(cls, ctx: FieldCtx, nvars: int) -> "Poly":
        return cls(ctx, nvars, {})

    @classmethod
    def variable(cls, ctx: FieldCtx, nvars: int, index: int) -> "Poly":
        e = [0] * nvars
        e[index] = 1
        return cls(ctx, nvars, {tuple(e): ctx.one})

    @classmethod
    def from_univariate(cls, ctx: FieldCtx, coeffs: list) -> "Poly":
        return cls(ctx, 1, {(i,): ctx.scalar(c) for i, c in enumerate(coeffs)})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> FieldScalar:
        return self.terms.get((0,) * self.nvars, self.ctx.zero)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def univariate_coeffs(self) -> list:
        if self.nvars != 1:
            raise InputError("not univariate")
        d = self.degree_in(0)
        out = [self.ctx.zero] * (d + 1)
        for (e,), c in self.terms.items():
            out[e] = c
        return out

    def lead_term(self):
        """Lexicographically largest (exponent, coeff), first variable biggest."""
        e = max(self.terms)
        return e, self.terms[e]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars or not self.ctx.same_field(other.ctx):
            raise InputError("polynomial domain mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, self.ctx.zero) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return Poly(self.ctx, self.nvars, t)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FieldScalar) or isinstance(other, int):
            s = self.ctx.scalar(other)
            return Poly(self.ctx, self.nvars, {e: c * s for e, c in self.terms.items()})
        self._check(other)
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = t.get(e, self.ctx.zero) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        return Poly(self.ctx, self.nvars, t)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        return dpoly.power(self, n, Poly.__mul__, Poly.const(self.ctx, self.nvars, 1))

    def eval(self, point: list) -> FieldScalar:
        """Evaluate at scalars from the base field (or a compatible one)."""
        if len(point) != self.nvars:
            raise InputError("wrong number of coordinates")
        acc = None
        for e, c in self.terms.items():
            term = c
            for x, exp in zip(point, e):
                for _ in range(exp):
                    term = term * x
            acc = term if acc is None else acc + term
        if acc is None:
            if point and not isinstance(point[0], (FieldScalar, int)):
                return point[0] - point[0]
            return self.ctx.zero
        return acc

    def exact_div(self, other: "Poly"):
        """self / other if the division is exact, else None."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = self
        q: dict = {}
        le, lc = other.lead_term()
        lcinv = lc.inverse()
        while rem.terms:
            re, rc = rem.lead_term()
            qe = tuple(a - b for a, b in zip(re, le))
            if any(x < 0 for x in qe):
                return None
            qc = rc * lcinv
            q[qe] = qc
            rem = rem - Poly(self.ctx, self.nvars, {qe: qc}) * other
        return Poly(self.ctx, self.nvars, q)

    def monomial_content(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.nvars
        mins = [min(e[i] for e in self.terms) for i in range(self.nvars)]
        return tuple(mins)

    def shift_down(self, mono: tuple[int, ...]) -> "Poly":
        return Poly(
            self.ctx,
            self.nvars,
            {tuple(a - b for a, b in zip(e, mono)): c for e, c in self.terms.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.ctx.same_field(other.ctx)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ["t"] if self.nvars == 1 else [f"t{i+1}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{n}^{x}" if x > 1 else n for n, x in zip(names, e) if x
            )
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(parts)


class RationalFunction:
    """num/den with den nonzero; univariate fractions kept reduced and den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = self._reduce(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _reduce(num: Poly, den: Poly):
        ctx, nv = num.ctx, num.nvars
        if num.is_zero():
            return num, Poly.const(ctx, nv, 1)
        if nv == 1:
            # on codes; the FieldScalars rebuilt by decode, since
            # from_univariate reads ints as elements of F_p
            ops = ctx.ops
            nc, dc = ([c.v for c in f.univariate_coeffs()] for f in (num, den))
            g = dpoly.gcd(ops, nc, dc)
            if len(g) > 1:
                nc, dc = dpoly.divmod_(ops, nc, g)[0], dpoly.divmod_(ops, dc, g)[0]
            inv = ops.inv(dc[-1])
            nc, dc = ([ctx.decode(c) for c in dpoly.scale(ops, f, inv)] for f in (nc, dc))
            return Poly.from_univariate(ctx, nc), Poly.from_univariate(ctx, dc)
        # Multivariate: monomial content, then trial exact division.
        mono = tuple(min(a, b) for a, b in zip(num.monomial_content(), den.monomial_content()))
        if any(mono):
            num = num.shift_down(mono)
            den = den.shift_down(mono)
        q = num.exact_div(den)
        if q is not None:
            return q, Poly.const(ctx, nv, 1)
        lead = den.lead_term()[1]
        if lead != ctx.one:
            inv = lead.inverse()
            num = num * inv
            den = den * inv
        return num, den

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFunction":
        return cls(p, Poly.const(p.ctx, p.nvars, 1))

    @classmethod
    def const(cls, ctx: FieldCtx, nvars: int, value) -> "RationalFunction":
        return cls.from_poly(Poly.const(ctx, nvars, value))

    @property
    def ctx(self):
        return self.num.ctx

    @property
    def nvars(self):
        return self.num.nvars

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("rational functions are not hashable")

    def __repr__(self):
        if self.den.is_constant() and self.den.constant_value() == self.ctx.one:
            return repr(self.num)
        return f"({self.num})/({self.den})"


def specialize(rf: RationalFunction, point: list) -> FieldScalar:
    """Evaluate a rational function at a point; poles are errors.

    Args:
        rf: the function.
        point: coordinates (ints or FieldScalars of the base field).

    Raises:
        MathRefusal: if the (reduced) denominator vanishes at the point.
    """
    from .errors import MathRefusal

    pt = [rf.ctx.scalar(x) if isinstance(x, int) else x for x in point]
    d = rf.den.eval(pt)
    if not d:
        raise MathRefusal("pole at specialization point")
    return rf.num.eval(pt) * d.inverse()


def coefficient_vectors(vec: list[Poly]) -> list[list[FieldScalar]]:
    """Monomial-coefficient vectors of a polynomial vector.

    For v(t) = sum_mono c_mono * t^mono with c_mono in F_q^d, returns the
    list of the c_mono (each a length-d scalar vector), which spans every
    specialization of v.
    """
    if not vec:
        return []
    ctx = vec[0].ctx
    monos = sorted({e for p in vec for e in p.terms})
    out = []
    for e in monos:
        out.append([p.terms.get(e, ctx.zero) for p in vec])
    return out
