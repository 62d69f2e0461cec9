"""Dense univariate polynomial arithmetic over a pluggable coefficient field.

Polynomials are plain lists of coefficients, ascending degree, with no
trailing zeros (the zero polynomial is the empty list).  Coefficients are
whatever the supplied ``ops`` adapter manipulates: element codes of any F_q
(``FieldCtx.ops``), or ``FieldScalar`` values.  Keeping the representation
this primitive makes the Smith-normal-form and factor-extraction code the
same for every base field.
"""

from __future__ import annotations


class IntModOps:
    """Coefficient ops for F_p with plain int values."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a == 0


class ScalarOps:
    """Coefficient ops for values carrying their own field arithmetic."""

    __slots__ = ("zero", "one")

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return a.inverse()

    def is_zero(self, a):
        return not a


def trim(ops, f):
    while f and ops.is_zero(f[-1]):
        f.pop()
    return f


def add(ops, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else ops.zero
        b = g[i] if i < len(g) else ops.zero
        out.append(ops.add(a, b))
    return trim(ops, out)


def sub(ops, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else ops.zero
        b = g[i] if i < len(g) else ops.zero
        out.append(ops.sub(a, b))
    return trim(ops, out)


def neg(ops, f):
    return [ops.neg(a) for a in f]


def scale(ops, f, c):
    if ops.is_zero(c):
        return []
    return trim(ops, [ops.mul(a, c) for a in f])


def mul(ops, f, g):
    if not f or not g:
        return []
    out = [ops.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if ops.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = ops.add(out[i + j], ops.mul(a, b))
    return trim(ops, out)


def divmod_(ops, f, g):
    """Euclidean division f = q*g + r with deg r < deg g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    q = [ops.zero] * max(len(f) - len(g) + 1, 0)
    ginv = ops.inv(g[-1])
    dg = len(g) - 1
    while len(r) >= len(g):
        c = ops.mul(r[-1], ginv)
        s = len(r) - 1 - dg
        q[s] = c
        for i in range(len(g)):
            r[s + i] = ops.sub(r[s + i], ops.mul(c, g[i]))
        trim(ops, r)
        if not r:
            break
    return trim(ops, q), r


def rem(ops, f, g):
    return divmod_(ops, f, g)[1]


def monic(ops, f):
    if not f:
        return []
    return scale(ops, f, ops.inv(f[-1]))


def gcd(ops, f, g):
    """Monic gcd."""
    a, b = list(f), list(g)
    while b:
        a, b = b, rem(ops, a, b)
    return monic(ops, a)


def deriv(ops, f):
    out = []
    for i in range(1, len(f)):
        c = f[i]
        acc = ops.zero
        for _ in range(i):
            acc = ops.add(acc, c)
        out.append(acc)
    return trim(ops, out)


def eval_at(ops, f, x):
    acc = ops.zero
    for c in reversed(f):
        acc = ops.add(ops.mul(acc, x), c)
    return acc


def powmod(ops, f, e, m):
    """f**e mod m by square-and-multiply."""
    result = [ops.one]
    base = rem(ops, f, m)
    while e > 0:
        if e & 1:
            result = rem(ops, mul(ops, result, base), m)
        base = rem(ops, mul(ops, base, base), m)
        e >>= 1
    return result


def shift(ops, f, e):
    """Multiply by t**e."""
    if not f:
        return []
    return [ops.zero] * e + list(f)
