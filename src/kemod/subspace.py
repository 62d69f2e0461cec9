"""Canonical subspaces of F_q^n.

A Subspace is an echelonized (reduced row echelon) basis with strictly
increasing pivots, stored as an int64 array of element codes; two
subspaces are equal iff their echelon forms are identical, which turns
every lattice identity downstream into a plain equality test.

Every echelon form of a subspace is built here, each with one elimination
(``span``, ``kernel``); a basis already in RREF, with its pivots, is
wrapped as it is.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InputError
from .gf import FieldCtx


class Subspace:
    __slots__ = ("ctx", "ambient", "basis", "pivots")

    def __init__(self, ctx: FieldCtx, ambient: int, basis: np.ndarray, pivots: tuple[int, ...]):
        self.ctx = ctx
        self.ambient = ambient
        self.basis = basis          # (dim, ambient) int64 array of codes
        self.pivots = pivots

    # -- constructors --------------------------------------------------------

    @classmethod
    def span(cls, ctx: FieldCtx, ambient: int, rows) -> "Subspace":
        """Echelonize arbitrary spanning rows (any form ``FieldCtx.array`` reads)."""
        arr = _as_rows(ctx.array(rows), ambient)
        if arr.shape[0] == 0:
            return cls.zero(ctx, ambient)
        R, piv = linalg.rref_fp(arr, ctx)
        return cls(ctx, ambient, R[: len(piv)].copy(), tuple(piv))

    @classmethod
    def kernel(cls, ctx: FieldCtx, a: np.ndarray) -> "Subspace":
        """The right kernel {x : a @ x = 0} of a dense matrix, as an RREF from
        one elimination: a ``kernel_fp`` row of a[:, ::-1] ends with a 1 at its
        own free column, where every other row is 0; read backwards in rows and
        columns, the rows start with those 1s at increasing columns."""
        basis = np.ascontiguousarray(linalg.kernel_fp(a[:, ::-1], ctx)[::-1, ::-1])
        pivots = tuple((basis != 0).argmax(axis=1).tolist()) if basis.size else ()
        return cls(ctx, a.shape[1], basis, pivots)

    @classmethod
    def zero(cls, ctx: FieldCtx, ambient: int) -> "Subspace":
        return cls(ctx, ambient, np.zeros((0, ambient), dtype=np.int64), ())

    @classmethod
    def full(cls, ctx: FieldCtx, ambient: int) -> "Subspace":
        return cls(ctx, ambient, np.eye(ambient, dtype=np.int64), tuple(range(ambient)))

    # -- basic queries --------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient or not self.ctx.same_field(other.ctx):
            raise InputError("subspace ambient mismatch")

    def reduce(self, vecs) -> np.ndarray:
        """Residuals of row vectors after reduction modulo this subspace."""
        v = _as_rows(self.ctx.array(vecs), self.ambient)
        if self.dim == 0 or v.size == 0:
            return self.ctx.canon(v)
        return self.ctx.sub(v, self.ctx.matmul(v[:, list(self.pivots)], self.basis))

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return other.dim == 0 or not self.reduce(other.basis).any()

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient or self.pivots != other.pivots:
            return False
        return bool(np.array_equal(self.basis, other.basis))

    def __hash__(self):
        return hash((self.ambient, self.pivots, self.basis.tobytes()))

    # -- lattice operations ----------------------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.span(self.ctx, self.ambient, np.vstack([self.basis, other.basis]))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ctx, self.ambient)
        stacked = np.vstack([self.basis, other.basis])
        left = linalg.kernel_fp(stacked.T, self.ctx)
        vecs = linalg.matmul_fp(left[:, : self.dim], self.basis, self.ctx)
        return Subspace.span(self.ctx, self.ambient, vecs)

    def perp(self) -> "Subspace":
        """Annihilator under the standard dot pairing."""
        return Subspace.kernel(self.ctx, self.basis)

    def complement_in(self, bigger: "Subspace") -> "Subspace":
        """Rows of `bigger` reduced mod self, echelonized: a deterministic
        complement of self <= bigger chosen by echelon pivots."""
        self._check(bigger)
        if self.dim == 0:
            return bigger
        return Subspace.span(self.ctx, self.ambient, self.reduce(bigger.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _as_rows(arr: np.ndarray, ambient: int) -> np.ndarray:
    """arr as rows of length ambient.  In ambient 0 reshape(-1, 0) cannot
    infer the count, so every axis but the last counts rows."""
    return arr.reshape(-1, ambient) if ambient else arr.reshape(int(np.prod(arr.shape[:-1])), 0)
