"""Endomorphism algebras, Fitting decomposition, and isomorphism probing.

Splitting off summands is Las Vegas: a random endomorphism e either splits
the module exactly (M = Ker e^d + Im e^d, verified), or it doesn't; after
`rounds` consecutive failures a block is declared indecomposable with that
confidence only.  Certificates are always verified by reassembly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConsistencyError, InputError
from .modules import (
    KEModule,
    generic_power_ranks,
    radical_series,
    socle_series,
    sub_as_module,
)
from .subspace import Subspace


@dataclass
class HomSpace:
    source: KEModule
    target: KEModule
    basis: list  # matrices target.dim x source.dim

    @property
    def dim(self) -> int:
        return len(self.basis)


def hom_space(a: KEModule, b: KEModule) -> HomSpace:
    """All f: a -> b with f X_i = X_i f (matrices over the base field)."""
    a.require_valid()
    b.require_valid()
    if a.r != b.r or not a.ctx.same_field(b.ctx):
        raise InputError("hom space needs matching p, r, field")
    F, da, db = a.ctx, a.dim, b.dim
    blocks = []
    idb = np.eye(db, dtype=np.int64)
    ida = np.eye(da, dtype=np.int64)
    for i in range(a.r):
        # row-major vec: vec(f Xa) = (I (x) Xa^T) vec f, vec(Xb f) = (Xb (x) I) vec f;
        # a Kronecker factor of 0s and 1s multiplies codes exactly
        blocks.append(F.sub(np.kron(idb, a.mats[i].T), np.kron(b.mats[i], ida)))
    kern = linalg.kernel_fp(np.vstack(blocks), F)
    basis = [row.reshape(db, da) for row in kern]
    for f in basis:
        for i in range(a.r):
            lhs = linalg.matmul_fp(f, a.mats[i], F)
            rhs = linalg.matmul_fp(b.mats[i], f, F)
            if not np.array_equal(lhs, rhs):
                raise ConsistencyError("hom basis element fails to intertwine")
    return HomSpace(a, b, basis)


@dataclass
class Decomposition:
    module: KEModule
    summands: list[KEModule]
    inclusions: list  # (dim x dim_s) matrices embedding each summand
    certificate: object  # invertible dim x dim change of basis
    indecomposable_rounds: int
    flags: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.summands)

    def verify(self) -> bool:
        """Conjugating the block-diagonal summand action by the certificate
        must reproduce the module's generators exactly."""
        m = self.module
        F = m.ctx
        pmat = self.certificate
        try:
            pinv = linalg.inv_fp(pmat, F)
        except InputError:
            return False
        for i in range(m.r):
            blocks = [s.mats[i] for s in self.summands]
            bd = np.zeros((m.dim, m.dim), dtype=np.int64)
            off = 0
            for bmat in blocks:
                k = bmat.shape[0]
                bd[off : off + k, off : off + k] = bmat
                off += k
            recon = linalg.matmul_fp(linalg.matmul_fp(pmat, bd, F), pinv, F)
            if not np.array_equal(recon, m.mats[i]):
                return False
        return True


def decompose(m: KEModule, seed: int = 0, rounds: int = 50) -> Decomposition:
    """Split into (probable) indecomposables by random Fitting elements."""
    m.require_valid()
    rng = random.Random(seed)
    parts = _split_rec(m, rng, rounds)
    inclusions = []
    summands = []
    cols = []
    uncertain = []
    for idx, (summand, embed_rows, certain) in enumerate(parts):
        summands.append(summand)
        inc = embed_rows.T  # dim x dim_s
        inclusions.append(inc)
        cols.append(inc)
        if not certain:
            uncertain.append(idx)
    cert = np.hstack(cols) if cols else np.zeros((m.dim, 0), dtype=np.int64)
    dec = Decomposition(m, summands, inclusions, cert, rounds)
    if uncertain:
        dec.flags["rounds_exhausted_blocks"] = uncertain
    if sum(s.dim for s in summands) != m.dim or not dec.verify():
        raise ConsistencyError("decomposition certificate failed to verify")
    return dec


def _split_rec(m: KEModule, rng: random.Random, rounds: int):
    """List of (summand, rows embedding it into m, indecomposability-certain)."""
    d = m.dim
    if d == 0:
        return []
    F = m.ctx
    hom = hom_space(m, m)
    if hom.dim <= 1:
        # only scalar endomorphisms: indecomposable for certain
        return [(m, np.eye(d, dtype=np.int64), True)]
    for _ in range(rounds):
        e = _random_combination(F, hom.basis, rng, (d, d))
        en = linalg.matpow_fp(e, d, F)
        ker = linalg.kernel_fp(en, F)
        if 0 < ker.shape[0] < d:
            ksub = Subspace.span(m.ctx, d, ker)
            isub = Subspace.span(m.ctx, d, en.T)
            if ksub.dim + isub.dim != d:
                raise ConsistencyError("Fitting split dimensions do not add up")
            kmod, krows = sub_as_module(m, ksub)
            imod, irows = sub_as_module(m, isub)
            return _part_list(kmod, krows, rng, rounds) + _part_list(imod, irows, rng, rounds)
    return [(m, np.eye(d, dtype=np.int64), False)]


def _random_combination(F, basis, rng: random.Random, shape) -> np.ndarray:
    """sum c_f f over the basis with uniformly random c_f in F_q."""
    out = np.zeros(shape, dtype=np.int64)
    for f in basis:
        c = rng.randrange(F.q)
        if c:
            out = F.add(out, F.mul(c, f))
    return out


def _part_list(mod: KEModule, rows, rng, rounds):
    """Recurse on a summand; compose embedding rows back to the parent."""
    out = []
    for part, prows, certain in _split_rec(mod, rng, rounds):
        comp = linalg.matmul_fp(prows, rows, mod.ctx)
        out.append((part, comp, certain))
    return out


@dataclass
class IsoVerdict:
    kind: str  # "isomorphic" | "not_isomorphic" | "unknown"
    certificate: object | None = None
    witness: dict | None = None

    @property
    def isomorphic(self) -> bool:
        return self.kind == "isomorphic"


def iso_probe(a: KEModule, b: KEModule, seed: int = 0, rounds: int = 64) -> IsoVerdict:
    """Fast invariants, then randomized search for an invertible intertwiner."""
    a.require_valid()
    b.require_valid()
    if a.r != b.r or not a.ctx.same_field(b.ctx):
        raise InputError("isomorphism probe needs matching p, r, field")
    if a.dim != b.dim:
        return IsoVerdict("not_isomorphic", witness={"invariant": "dim", "a": a.dim, "b": b.dim})
    if a.dim == 0:
        return IsoVerdict("isomorphic", certificate=np.zeros((0, 0), dtype=np.int64))
    ja = generic_power_ranks(a, a.ctx.p)
    jb = generic_power_ranks(b, b.ctx.p)
    if ja != jb:
        return IsoVerdict(
            "not_isomorphic", witness={"invariant": "generic power ranks", "a": ja, "b": jb}
        )
    for name, fn in (("radical series", radical_series), ("socle series", socle_series)):
        da = [s.dim for s in fn(a)]
        db = [s.dim for s in fn(b)]
        if da != db:
            return IsoVerdict("not_isomorphic", witness={"invariant": name, "a": da, "b": db})
    hom = hom_space(a, b)
    if hom.dim == 0:
        return IsoVerdict("not_isomorphic", witness={"invariant": "hom space", "dim": 0})
    F = a.ctx
    rng = random.Random(seed)
    for _ in range(rounds):
        f = _random_combination(F, hom.basis, rng, (b.dim, a.dim))
        if linalg.rank_fp(f, F) == a.dim:
            for i in range(a.r):
                lhs = linalg.matmul_fp(f, a.mats[i], F)
                rhs = linalg.matmul_fp(b.mats[i], f, F)
                if not np.array_equal(lhs, rhs):
                    raise ConsistencyError("certificate fails to intertwine")
            return IsoVerdict("isomorphic", certificate=f)
    return IsoVerdict("unknown")
