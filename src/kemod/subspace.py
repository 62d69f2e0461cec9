"""Canonical subspaces of F_q^n.

A Subspace is an echelonized (reduced row echelon) basis with strictly
increasing pivots, stored as an int64 array of element codes; two
subspaces are equal iff their echelon forms are identical, which turns
every lattice identity downstream into a plain equality test.
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
        ech, piv = linalg.row_space_fp(arr, ctx)
        return cls(ctx, ambient, ech, tuple(piv))

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
        return linalg.reduce_rows_fp(v, self.basis, list(self.pivots), self.ctx)

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
        if self.dim == 0:
            return Subspace.full(self.ctx, self.ambient)
        return Subspace.span(self.ctx, self.ambient, linalg.kernel_fp(self.basis, self.ctx))

    def complement_in(self, bigger: "Subspace") -> np.ndarray:
        """Rows of `bigger` reduced mod self: a deterministic complement basis.

        Requires self <= bigger; the result's span is a complement of self
        inside bigger, chosen by echelon pivots.
        """
        self._check(bigger)
        return Subspace.span(self.ctx, self.ambient, self.reduce(bigger.basis)).basis

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _as_rows(arr: np.ndarray, ambient: int) -> np.ndarray:
    """arr as rows of length ambient.  In ambient 0 reshape(-1, 0) cannot
    infer the count, so every axis but the last counts rows."""
    return arr.reshape(-1, ambient) if ambient else arr.reshape(int(np.prod(arr.shape[:-1])), 0)


def row_space(ctx: FieldCtx, mat) -> Subspace:
    """Row space of a matrix as a canonical subspace."""
    arr = ctx.array(mat)
    return Subspace.span(ctx, arr.shape[1], arr)


def column_space(ctx: FieldCtx, mat) -> Subspace:
    """Image of a matrix acting on column vectors."""
    arr = ctx.array(mat)
    return Subspace.span(ctx, arr.shape[0], arr.T)


def kernel_space(ctx: FieldCtx, mat) -> Subspace:
    """Right kernel {x : mat x = 0} as a canonical subspace."""
    arr = ctx.array(mat)
    return Subspace.span(ctx, arr.shape[1], linalg.kernel_fp(arr, ctx))
