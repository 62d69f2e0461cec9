"""Prime-power finite fields F_q, q = p^k, in exact coefficient form.

A ``FieldCtx`` fixes p, the extension degree k and a monic irreducible
modulus over F_p.  An element is encoded as an integer in [0, q) whose
base-p digits are its coefficients in the power basis of the modulus, so
a matrix over any F_q is an int64 array of codes and ``FieldCtx`` alone
holds the arithmetic on such arrays; ``FieldCtx.ops`` gives dpoly the same
arithmetic on single codes, and ``FieldScalar`` wraps one code for the
generic elimination lane of ``linalg`` (its powers and p-th roots are
``dpoly.power`` on that code).  The module also provides the univariate
routines on code lists: the square-free part, Ben-Or's irreducibility test
(``is_irreducible``), and one irreducible factor by distinct- and
equal-degree splitting, both reading t^(q^e) mod f off one Frobenius
chain.  They name jump points of polynomial matrices by their minimal
polynomials, and the seeded search ``irreducible_of_degree`` names every
default modulus and the extension fields F_{q^m} that the generic-rank
lattice and the r >= 3 generic kernels evaluate in.

Elementwise products: residues mod p for k = 1, log/antilog tables up to
``TABLE_Q``; past the tables a p = 2 code is a bit string, multiplied by
shift-and-XOR with the reduction by the modulus interleaved, so codes stay
below 2^k and shifted ones below 2^62 for every k <= 61; odd p multiplies
base-p digit planes, folded by the modulus's structure constants.  Over
F_{2^21} a product of 4096 codes takes 0.5 ms on the XOR route against
24 ms on digit planes (best of 5, 2-CPU machine).  ``FieldCtx.ops``
multiplies one pair of codes the same ways, with the XOR route on Python
ints, so the scalar products of the pencil sweep over a large F_{2^k} make
no numpy call.

Thread policy: float64 products (``_matmul_mod``) are made in pieces below
OpenBLAS's single-thread cutoff, so no thread setting is needed; only one
too wide for two of its rows to fit under the cutoff gets BLAS's threads.
"""

from __future__ import annotations

import functools
import operator
import random

import numpy as np

from . import dpoly
from .dpoly import IntModOps
from .errors import InputError, MathRefusal

# Exact range of the int64/float64 kernels: products of two residues (and
# sums of a few thousand of them) must stay below 2^53, codes below 2^63.
MAX_P = 2**20
MAX_Q = 2**62
# Fields up to this size multiply through log/antilog tables, which run the
# benchmark's cjt and extfield workloads two to three times as fast as
# base-p digits do.  Building them takes under 10 ms and 2.5 MiB up to q = 2187, but 73 ms
# and 8 MiB at q = 4096 and 0.4 s and 200 MiB at q = 65536 (2-CPU machine).
TABLE_Q = 2**11

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    # Deterministic Miller-Rabin for word-sized n.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible_fp(p: int, f: list[int]) -> bool:
    """``is_irreducible`` for a monic polynomial over F_p."""
    return is_irreducible(prime_field(p), f)


def find_irreducible_fp(p: int, k: int) -> list[int]:
    """The monic irreducible of degree k over F_p that ``irreducible_of_degree``
    draws for k > 1, and t for k = 1."""
    return [0, 1] if k == 1 else irreducible_of_degree(prime_field(p), k)


# OpenBLAS makes a dgemm on the calling thread when M * N * K <= 65536 *
# GEMM_MULTITHREAD_THRESHOLD (4 by default); past that it wakes worker
# threads, which made an exact 160^3 product take 14 ms against 1.1 ms in
# pieces (2-CPU machine).
ONE_THREAD_MNK = 65536 * 4


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p for residue arrays (or stacks of them, slice by
    slice), via float64 BLAS when safe, in pieces of whole rows with at most
    ONE_THREAD_MNK multiply-adds each.  A product of which two rows already
    pass that is made in one call: pieces of it would be slivers that BLAS
    makes many times slower, and its worker threads pay for themselves
    there."""
    n, inner = a.shape[-2:]
    m = b.shape[-1]
    if (p - 1) * (p - 1) * inner >= 2**53:
        return (a @ b) % p
    a, b = a.astype(np.float64), b.astype(np.float64)
    step = ONE_THREAD_MNK // max(1, inner * m)
    if a.ndim > 2 or step >= n or step < 2:
        # a stack is one call too: numpy makes one BLAS product per slice
        out = (a @ b).astype(np.int64)
    else:
        out = np.empty((n, m), dtype=np.int64)
        for i in range(0, n, step):
            out[i : i + step] = a[i : i + step] @ b
    # every entry is an integer below 2^53: the cast is exact, and % is far faster on int64
    return np.remainder(out, p, out=out)


class FieldCtx:
    """The field F_{p^k} = F_p[x]/(modulus).

    The element c_0 + c_1 x + ... + c_{k-1} x^{k-1} has the code
    c_0 + c_1 p + ... + c_{k-1} p^{k-1} in [0, q); F_p is the codes 0..p-1
    of every F_{p^k}.  The array methods (add, sub, neg, mul, sub_mul, inv,
    matmul) act on int64 arrays of codes and are the only code that depends
    on k: residues mod p for k = 1; for k > 1 log/antilog tables up to
    q = TABLE_Q, past them shift-and-XOR products of the codes themselves
    for p = 2 (sums are XOR at every q = 2^k) and base-p digits with the
    modulus's structure constants for odd p.  ``matmul`` also takes two
    stacks of matrices, (..., n, l) and (..., l, m), and multiplies them
    slice by slice.  A field made by ``splitting_extension`` or
    ``extension`` keeps the field it extends as ``base``, with the
    embedding it was built with, so matrices over the base and points of
    the extension always meet through the same map.
    """

    __slots__ = ("p", "k", "q", "modulus", "base", "ops", "_pw", "_fold_mat",
                 "_mod_bits", "_from_base", "_log", "_exp", "_log_l", "_exp_l", "_digit_tab")

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if k < 1:
            raise InputError(f"extension degree must be >= 1, got {k}")
        if p >= MAX_P or p**k >= MAX_Q:
            raise InputError(
                f"F_{p}^{k} is outside the exact range of the int64 kernels (p < 2^20, p^k < 2^62)"
            )
        if modulus is None:
            modulus = tuple(find_irreducible_fp(p, k))
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise InputError("modulus must be monic of degree k")
            if k > 1 and not is_irreducible_fp(p, list(modulus)):
                raise InputError("modulus is not irreducible over F_p")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.base = None
        self._pw = p ** np.arange(k, dtype=np.int64)
        # row i*k + j: the digits of x^(i+j) mod the modulus
        ops = IntModOps(p)
        red = []
        for e in range(2 * k - 1):
            r = dpoly.rem(ops, [0] * e + [1], list(modulus))
            red.append(r + [0] * (k - len(r)))
        self._fold_mat = np.array([red[i + j] for i in range(k) for j in range(k)], dtype=np.int64)
        # p = 2: the modulus as a bit string, x^k included
        self._mod_bits = sum(c << i for i, c in enumerate(modulus)) if p == 2 else 0
        self._log = None
        self._digit_tab = None
        self.ops = IntModOps(p) if k == 1 else _ExtOps(self)

    # -- scalars ---------------------------------------------------------------

    @property
    def zero(self) -> "FieldScalar":
        return FieldScalar(self, 0)

    @property
    def one(self) -> "FieldScalar":
        return FieldScalar(self, 1)

    def encode(self, value) -> int:
        """Code of a FieldScalar (of this field or a subfield it embeds), a
        coefficient list, or an int read as an element of F_p."""
        if isinstance(value, FieldScalar):
            if value.ctx is self or value.ctx.same_field(self):
                return value.v
            return int(self.embed(value.v, value.ctx))
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, (int, np.integer)) or hasattr(value, "__index__"):
            return int(value) % self.p
        if not isinstance(value, (list, tuple)) or not value:
            raise InputError(f"not a field element: {value!r}")
        try:
            coeffs = [operator.index(c) % self.p for c in value]
        except TypeError:
            raise InputError(f"coefficients must be integers: {value!r}") from None
        if len(coeffs) > self.k:
            raise InputError("coefficient vector longer than the extension degree")
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def decode(self, code) -> "FieldScalar":
        return FieldScalar(self, int(code))

    def scalar(self, value) -> "FieldScalar":
        """Coerce an int, coefficient list, or FieldScalar into this field."""
        return FieldScalar(self, self.encode(value))

    def gen(self) -> "FieldScalar":
        """The residue of x, a generator of the field over F_p (k > 1)."""
        return FieldScalar(self, self.p if self.k > 1 else 1)

    def random_code(self, rng: random.Random) -> int:
        return sum(rng.randrange(self.p) * self.p**i for i in range(self.k))

    def random_scalar(self, rng: random.Random) -> "FieldScalar":
        return FieldScalar(self, self.random_code(rng))

    def elements(self):
        """Iterate all q elements (small fields only)."""
        return (FieldScalar(self, v) for v in range(self.q))

    def coeffs(self, code) -> tuple[int, ...]:
        """Power-basis coefficients of one code."""
        out = []
        for _ in range(self.k):
            code, c = divmod(code, self.p)
            out.append(c)
        return tuple(out)

    def serialize(self, a):
        """File and report form of codes: ints over F_p, coefficient lists otherwise."""
        if self.k == 1:
            return np.asarray(a).tolist()
        return self._digits(a).tolist()

    def format(self, code) -> str:
        if self.k == 1:
            return str(code)
        return "+".join(
            f"{c}x^{i}" if i else str(c) for i, c in enumerate(self.coeffs(code)) if c
        ) or "0"

    # -- arrays of codes ---------------------------------------------------------

    def array(self, a, ndim: int = 2) -> np.ndarray:
        """Codes of a nested sequence of field elements, as an int64 array.

        An int array (or a list of them) is taken as codes already; other
        entries may be FieldScalars, coefficient lists, or ints, which are
        read as elements of F_p.  Nested lists that numpy reads as one int or
        bool array with one axis more than ``ndim``, of length L with
        1 <= L <= k, are coefficient lists and are read in one pass as
        ``(arr % p) @ p**arange(L)``; every other input is read entry by
        entry, with the same refusals.
        """
        if isinstance(a, (list, tuple)) and a and isinstance(a[0], np.ndarray):
            try:
                a = np.asarray(a)
            except ValueError:
                raise InputError("ragged nesting: arrays of different shapes") from None
        if isinstance(a, np.ndarray) and a.dtype != object:
            a = a.astype(np.int64, copy=False)
            if self.k == 1:
                return a % self.p
            if a.size and (a.min() < 0 or a.max() >= self.q):
                raise InputError(f"element codes must lie in [0, {self.q})")
            return a
        if isinstance(a, np.ndarray):
            a = a.tolist()
        try:
            # no dtype: numpy would read "1" and 1.5 as integers
            arr = np.asarray(a)
        except ValueError:  # ragged
            arr = None
        if arr is not None and arr.dtype.kind in "ib":
            if arr.ndim == ndim:
                return arr.astype(np.int64) % self.p
            if arr.ndim == ndim + 1 and arr.shape[-1]:
                if arr.shape[-1] > self.k:
                    raise InputError("coefficient vector longer than the extension degree")
                return (arr.astype(np.int64) % self.p) @ self._pw[: arr.shape[-1]]
        if ndim == 0:
            return np.int64(self.encode(a))
        if not isinstance(a, (list, tuple)):
            raise InputError(f"expected a sequence of rows, got {a!r}")
        rows = [self.array(x, ndim - 1) for x in a]
        if not rows:
            return np.zeros((0,) * ndim, dtype=np.int64)
        if len({x.shape for x in rows}) > 1:
            raise InputError("ragged nesting: entries of different lengths")
        return np.array(rows, dtype=np.int64)

    def canon(self, a) -> np.ndarray:
        """An int array of internal codes (reduced mod p over F_p)."""
        a = np.asarray(a, dtype=np.int64)
        return a % self.p if self.k == 1 else a

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._undigits((self._digits(a) + self._digits(b)) % self.p)

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._undigits((self._digits(a) - self._digits(b)) % self.p)

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return np.asarray(a, dtype=np.int64)
        return self._undigits((-self._digits(a)) % self.p)

    def mul(self, a, b):
        """Elementwise product (with numpy broadcasting)."""
        if self.k == 1:
            return (a * b) % self.p
        if self._tables():
            return self._exp[self._log[a] + self._log[b]]
        if self.p == 2:
            return self._mul_xor(a, b)
        return self._mul_digits(a, b)

    def sub_mul(self, x, a, b):
        """x - a * b elementwise."""
        if self.k == 1:
            return (x - a * b) % self.p
        return self.sub(x, self.mul(a, b))

    def inv(self, a) -> int:
        """Inverse of one nonzero code."""
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, -1, self.p)
        if self._tables():
            return self._exp_l[self.q - 1 - self._log_l[a]]
        # extended Euclid in F_p[x] against the modulus
        ops = IntModOps(self.p)
        r0, r1 = list(self.modulus), dpoly.trim(ops, list(self.coeffs(a)))
        s0, s1 = [], [1]
        while r1:
            quo, rem = dpoly.divmod_(ops, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, dpoly.sub(ops, s0, dpoly.mul(ops, quo, s1))
        s0 = dpoly.scale(ops, s0, ops.inv(r0[-1]))
        return sum(c * self.p**i for i, c in enumerate(s0))

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product, or slice by slice the products of two stacks
        (..., n, l) and (..., l, m): one BLAS product over F_p for k = 1; for
        k > 1 one product of the stacked digit planes, folded by the modulus."""
        if self.k == 1:
            return _matmul_mod(a, b, self.p)
        k, (n, inner), m = self.k, a.shape[-2:], b.shape[-1]
        lead = a.shape[:-2]
        # (n, inner, k) -> (k, n, inner) and (k, n, m, k) -> (n, m, k, k) by
        # swapaxes pairs: np.moveaxis costs more per call than the small products
        da = self._digits(a).swapaxes(-1, -2).swapaxes(-2, -3).reshape(lead + (k * n, inner))
        db = self._digits(b).reshape(lead + (inner, m * k))
        planes = _matmul_mod(da, db, self.p).reshape(lead + (k, n, m, k))
        return self._fold(planes.swapaxes(-4, -3).swapaxes(-3, -2))

    def embed(self, a, src: "FieldCtx"):
        """Codes over the subfield src, mapped into this field."""
        if src.same_field(self) or (src.k == 1 and src.p == self.p):
            return a
        if self.base is None or not self.base.same_field(src):
            raise InputError("cannot embed scalars into an unrelated field")
        return self._undigits((src._digits(a) @ self._from_base) % self.p)

    def _digits(self, a) -> np.ndarray:
        """The base-p digits of codes, on a new last axis of length k.  Odd
        p with 1 < k and q <= TABLE_Q reads them off a (q, k) table, one
        gather instead of k divisions."""
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return (a[..., None] >> np.arange(self.k)) & 1
        if self.k > 1 and self.q <= TABLE_Q:
            if self._digit_tab is None:
                self._digit_tab = (np.arange(self.q)[:, None] // self._pw) % self.p
            return self._digit_tab.take(a, axis=0)
        return (a[..., None] // self._pw) % self.p

    def _undigits(self, d: np.ndarray):
        return d @ self._pw

    def _fold(self, outer: np.ndarray):
        """Codes of sum_ij outer[..., i, j] x^(i+j), outer holding residues."""
        flat = _matmul_mod(outer.reshape(-1, self.k * self.k), self._fold_mat, self.p)
        return self._undigits(flat.reshape(outer.shape[:-2] + (self.k,)))

    def _mul_digits(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return self._fold((da[..., :, None] * db[..., None, :]) % self.p)

    def _mul_xor(self, a, b):
        """a * b over F_{2^k}, codes read as bit strings: for each bit of b from
        the top, the product so far is multiplied by x, reduced by the modulus
        at once, and a is added where the bit is set.  Every value stays below
        2^(k+1) <= 2^62."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if a.size < b.size:
            a, b = b, a  # b's bits are read once per step: take the smaller
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        if not b.size:
            return out
        k, mod = self.k, self._mod_bits
        t = np.empty_like(out)
        for i in range(int(b.max()).bit_length() - 1, -1, -1):
            out <<= 1
            np.right_shift(out, k, out=t)
            np.negative(t, out=t)
            t &= mod
            out ^= t
            np.bitwise_and(-((b >> i) & 1), a, out=t)
            out ^= t
        return out

    def _tables(self) -> bool:
        """Build the log/antilog tables on first use; False when q is too big."""
        if self._log is not None:
            return self._log is not False
        if self.q > TABLE_Q:
            self._log = False
            return False
        n = self.q - 1
        g = self._primitive_root()
        pows, gp = np.ones(1, dtype=np.int64), g
        while pows.size < n:
            pows = np.concatenate([pows, self._mul_digits(pows, gp)])
            gp = int(self._mul_digits(gp, gp))
        pows = pows[:n]
        log = np.empty(self.q, dtype=np.int64)
        log[pows] = np.arange(n)
        log[0] = 2 * n  # any sum with the log of 0 lands in the zero tail
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        exp[: 2 * n] = np.concatenate([pows, pows])
        self._log, self._exp = log, exp
        self._log_l, self._exp_l = log.tolist(), exp.tolist()
        return True

    def _primitive_root(self) -> int:
        n = self.q - 1

        def mul(a, b):
            return int(self._mul_digits(a, b))

        ell = _prime_divisors(n)
        return next(g for g in range(2, self.q) if all(dpoly.power(g, n // l, mul, 1) != 1 for l in ell))

    # -- identity ------------------------------------------------------------------

    def same_field(self, other: "FieldCtx") -> bool:
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.same_field(other)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


class _ExtOps:
    """dpoly coefficient ops on codes of F_{p^k}, k > 1 (IntModOps serves k = 1)."""

    __slots__ = ("ctx", "p")
    zero = 0
    one = 1

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.p = ctx.p

    def _digitwise(self, a, b, sign):
        p, out, unit = self.p, 0, 1
        while a or b:
            out += (a % p + sign * (b % p)) % p * unit
            a //= p
            b //= p
            unit *= p
        return out

    def add(self, a, b):
        return a ^ b if self.p == 2 else self._digitwise(a, b, 1)

    def sub(self, a, b):
        return a ^ b if self.p == 2 else self._digitwise(a, b, -1)

    def neg(self, a):
        return a if self.p == 2 else self._digitwise(0, a, -1)

    def mul(self, a, b):
        if not a or not b:
            return 0
        ctx = self.ctx
        if ctx._tables():
            return ctx._exp_l[ctx._log_l[a] + ctx._log_l[b]]
        if self.p == 2:
            # FieldCtx._mul_xor on one pair of Python ints, with no numpy call
            k, mod, out = ctx.k, ctx._mod_bits, 0
            for i in range(b.bit_length() - 1, -1, -1):
                out <<= 1
                if out >> k:
                    out ^= mod
                if b >> i & 1:
                    out ^= a
            return out
        return int(ctx._mul_digits(a, b))

    def inv(self, a):
        return self.ctx.inv(a)

    def is_zero(self, a):
        return a == 0


class FieldScalar:
    """One element of F_{p^k}: its field and its code (see FieldCtx)."""

    __slots__ = ("ctx", "v")

    def __init__(self, ctx: FieldCtx, v: int):
        self.ctx = ctx
        self.v = v

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.ctx.coeffs(self.v)

    def _code(self, other):
        """Code of the other operand in this field, or None if unsupported."""
        if isinstance(other, int):
            return self.ctx.encode(other)
        if not isinstance(other, FieldScalar):
            return None
        if other.ctx is not self.ctx and not self.ctx.same_field(other.ctx):
            raise InputError("mixed-field arithmetic")
        return other.v

    def __add__(self, other):
        o = self._code(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.ctx, self.ctx.ops.add(self.v, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._code(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.ctx, self.ctx.ops.sub(self.v, o))

    def __rsub__(self, other):
        return self.ctx.scalar(other) - self

    def __neg__(self):
        return FieldScalar(self.ctx, self.ctx.ops.neg(self.v))

    def __mul__(self, other):
        o = self._code(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.ctx, self.ctx.ops.mul(self.v, o))

    __rmul__ = __mul__

    def inverse(self) -> "FieldScalar":
        return FieldScalar(self.ctx, self.ctx.inv(self.v))

    def __truediv__(self, other):
        o = self._code(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.ctx, self.ctx.ops.mul(self.v, self.ctx.inv(o)))

    def __rtruediv__(self, other):
        return self.ctx.scalar(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldScalar(self.ctx, dpoly.power(self.v, e, self.ctx.ops.mul, 1))

    def pth_root(self) -> "FieldScalar":
        """Inverse Frobenius: the unique y with y^p = self."""
        return FieldScalar(self.ctx, _pth_root(self.ctx, self.v))

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == self.ctx.encode(other)
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return self.ctx.same_field(other.ctx) and self.v == other.v

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.k, self.v))

    def serialize(self):
        """File form: a bare int for prime fields, a coefficient list otherwise."""
        return self.ctx.serialize(self.v)

    def __repr__(self):
        return self.ctx.format(self.v)


# ---------------------------------------------------------------------------
# Factor extraction over F_q: enough factorization to name one root of a
# univariate polynomial by its minimal polynomial.  Square-free and
# distinct-degree splits are deterministic; the equal-degree split is the
# usual randomized one with a seeded generator.
# ---------------------------------------------------------------------------


def _pth_root(ctx: FieldCtx, a: int) -> int:
    """Inverse Frobenius: the code of the unique y with y^p = a, y = a^(q/p)."""
    return dpoly.power(a, ctx.p ** (ctx.k - 1), ctx.ops.mul, 1)


def squarefree_part(ctx: FieldCtx, f: list) -> list:
    """Monic square-free part of f over F_q (a code list, ascending)."""
    ops = ctx.ops
    f = dpoly.monic(ops, list(f))
    if len(f) <= 1:
        return f
    d = dpoly.deriv(ops, f)
    if not d:
        # f = g(t^p); take p-th roots of the surviving coefficients.
        return squarefree_part(ctx, [_pth_root(ctx, f[i]) for i in range(0, len(f), ctx.p)])
    g = dpoly.gcd(ops, f, d)
    sf = dpoly.divmod_(ops, f, g)[0]
    # Roots hidden in the gcd (repeated across p-th powers) still matter.
    if len(g) - 1 > 0:
        rest = squarefree_part(ctx, g)
        prod = dpoly.mul(ops, sf, rest)
        return dpoly.divmod_(ops, prod, dpoly.gcd(ops, sf, rest))[0]
    return sf


def _frobenius_chain(ctx: FieldCtx, f: list):
    """t^(q^e) mod f for e = 1, 2, ..., each the q-th power of the one before."""
    r = [0, 1]
    while True:
        r = dpoly.powmod(ctx.ops, r, ctx.q, f)
        yield r


def is_irreducible(ctx: FieldCtx, f: list) -> bool:
    """Ben-Or's test (FOCS 1981): f of degree n >= 1 over F_q (a code list)
    is irreducible iff t^(q^e) - t is prime to f for every e <= n/2, all
    read off one Frobenius chain.  A reducible f has an irreducible factor of
    some degree d <= n/2, which divides t^(q^d) - t; most reducible f have
    one of small degree, so they are rejected after a few steps of the
    chain."""
    ops, n = ctx.ops, len(f) - 1
    if n < 1:
        return False
    t = dpoly.rem(ops, [0, 1], f)
    for _, r in zip(range(n // 2), _frobenius_chain(ctx, f)):
        if len(dpoly.gcd(ops, dpoly.sub(ops, r, t), f)) > 1:
            return False
    return True


def _equal_degree_split(ctx: FieldCtx, f: list, e: int, rng: random.Random) -> list:
    """One irreducible factor of f, given f is a product of degree-e irreducibles."""
    ops = ctx.ops
    while len(f) - 1 > e:
        a = dpoly.trim(ops, [ctx.random_code(rng) for _ in range(len(f) - 1)])
        if len(a) < 1:
            continue
        if ctx.p == 2:
            # Trace map over F_{2^(k*e)}.
            tr = list(a)
            b = list(a)
            for _ in range(ctx.k * e - 1):
                b = dpoly.rem(ops, dpoly.mul(ops, b, b), f)
                tr = dpoly.add(ops, tr, b)
            g = dpoly.gcd(ops, tr, f)
        else:
            b = dpoly.powmod(ops, a, (ctx.q**e - 1) // 2, f)
            g = dpoly.gcd(ops, dpoly.sub(ops, b, [1]), f)
        dg = len(g) - 1
        if 0 < dg < len(f) - 1:
            f = g if dg <= (len(f) - 1) // 2 else dpoly.divmod_(ops, f, g)[0]
    return f


def some_irreducible_factor(ctx: FieldCtx, f: list, seed: int = 0) -> list:
    """A monic irreducible factor of f over F_q, preferring small degree.

    Args:
        ctx: base field.
        f: coefficient codes, ascending; nonconstant.
        seed: seed for the equal-degree split.

    Returns:
        Code list of a monic irreducible factor.
    """
    ops = ctx.ops
    f = squarefree_part(ctx, f)
    if len(f) - 1 < 1:
        raise MathRefusal("no irreducible factor of a constant polynomial")
    rng = random.Random(seed)
    # distinct-degree split: the first e with a factor of degree e in f
    for e, r in enumerate(_frobenius_chain(ctx, f), 1):
        g = dpoly.gcd(ops, dpoly.sub(ops, r, [0, 1]), f)
        if len(g) - 1 > 0:
            return g if len(g) - 1 == e else _equal_degree_split(ctx, g, e, rng)


def splitting_extension(ctx: FieldCtx, g: list):
    """A field containing a root of the monic irreducible g over ctx (a code
    list), and the code of that root.

    For deg g = m > 1 the field is ctx[t]/(g) = F_{q^m}, written as
    FieldCtx(p, k*m) in the powers of a primitive element (t itself when
    that generates, so over a prime base the modulus is g).  It keeps ctx as
    its ``base`` with the embedding of ctx that ``embed`` uses.
    """
    ops = ctx.ops
    deg = len(g) - 1
    if deg == 1:
        return ctx, ops.neg(ops.mul(g[0], ops.inv(g[1])))
    from .linalg import inv_fp, rank_fp

    p, k = ctx.p, ctx.k
    n = k * deg
    g = dpoly.monic(ops, list(g))

    def vec(f):
        """ctx[t]/(g) -> F_p^n, the coefficient of x^i t^j at j*k + i."""
        out = np.zeros(n, dtype=np.int64)
        d = ctx._digits(np.array(f, dtype=np.int64)).reshape(-1)
        out[: d.size] = d
        return out

    for z in _primitive_candidates(ctx, deg):
        powers = [[1]]
        for _ in range(n):
            powers.append(dpoly.rem(ops, dpoly.mul(ops, powers[-1], z), g))
        to_base = np.array([vec(f) for f in powers[:n]])
        if rank_fp(to_base, p) < n:
            continue
        from_base = inv_fp(to_base, p)
        top = (vec(powers[n]) @ from_base) % p  # z^n in the basis 1, z, ..., z^(n-1)
        ext = FieldCtx(p, n, tuple(int(c) for c in (-top) % p) + (1,))
        ext.base, ext._from_base = ctx, from_base[:k]
        return ext, int(ext._undigits(from_base[k]))
    raise MathRefusal("no primitive element found")  # unreachable: candidates never end


def _primitive_candidates(ctx: FieldCtx, deg: int):
    """t, then t + s for s in F_q, then seeded random elements of ctx[t]/(g)."""
    yield [0, 1]
    for s in range(1, ctx.q):
        yield [s, 1]
    rng = random.Random(0)
    while True:
        yield [ctx.random_code(rng) for _ in range(deg)]


def irreducible_of_degree(ctx: FieldCtx, deg: int) -> list:
    """A monic irreducible of degree deg >= 1 over F_q (a code list): the
    first candidate drawn from ``random.Random(f"irr:{p}:{deg}:0")`` that
    passes ``is_irreducible``.  The default modulus of F_{p^k} is this
    search over F_p."""
    if deg < 1:
        raise InputError(f"an irreducible polynomial needs degree >= 1, got {deg}")
    rng = random.Random(f"irr:{ctx.p}:{deg}:0")
    while True:
        f = [ctx.random_code(rng) for _ in range(deg)] + [1]
        if is_irreducible(ctx, f):
            return f


@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> FieldCtx:
    return FieldCtx(p)


@functools.lru_cache(maxsize=None)
def extension(ctx: FieldCtx, m: int) -> FieldCtx:
    """F_{q^m} built over ctx (ctx itself for m = 1)."""
    if m == 1:
        return ctx
    return splitting_extension(ctx, irreducible_of_degree(ctx, m))[0]
