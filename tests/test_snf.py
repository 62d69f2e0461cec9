import itertools
import random

import numpy as np

from kemod import dpoly, linalg
from kemod.gf import FieldCtx
from kemod.snf import smith_normal_form

F3 = FieldCtx(3)
F5 = FieldCtx(5)

# entries are dense code lists, constant term first
ZERO, ONE, T = [], [1], [0, 1]


def test_snf_diag_t_t():
    res = smith_normal_form([[T, ZERO], [ZERO, T]], F3)
    assert [f for f in res.invariant_factors] == [[0, 1], [0, 1]]


def test_snf_unit_and_t():
    res = smith_normal_form([[ONE, ZERO], [ZERO, T]], F3)
    assert res.invariant_factors == [[1], [0, 1]]


def test_snf_jordan_like_block():
    # [[t, 1], [0, t]]: hand row/column reduction gives (1, t^2)
    res = smith_normal_form([[T, ONE], [ZERO, T]], F3)
    assert res.invariant_factors == [[1], [0, 0, 1]]


def test_rank_at_specializations_matches_surviving_factors():
    # for each point c, rank of m(c) equals the count of invariant factors
    # not vanishing at c
    rng = random.Random(8)
    ops = F3.ops
    for _ in range(10):
        nr = nc = 3
        entries = [
            [[rng.randrange(3) for _ in range(rng.randint(0, 2))] for _ in range(nc)]
            for _ in range(nr)
        ]
        res = smith_normal_form([[list(e) for e in row] for row in entries], F3)
        for c in range(3):
            mat = np.array(
                [[dpoly.eval_at(ops, e, c) for e in row] for row in entries], dtype=np.int64
            )
            want = sum(1 for f in res.invariant_factors if dpoly.eval_at(ops, f, c) != 0)
            assert linalg.rank_fp(mat, 3) == want


def test_snf_extension_field():
    f4 = FieldCtx(2, 2)
    g = f4.encode(f4.gen())
    res = smith_normal_form([[T, [g]], [ZERO, T]], f4)
    # [[t, g], [0, t]] is equivalent to (1, t^2) since g is a unit
    assert len(res.invariant_factors) == 2
    assert len(res.invariant_factors[0]) == 1
    assert len(res.invariant_factors[1]) == 3


def _minor_det(ops, p, mat, rows, cols):
    """Leibniz expansion of one k x k minor (k <= 4 here)."""
    k = len(rows)
    total = []
    for perm in itertools.permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        term = [1]
        for i in range(k):
            term = dpoly.mul(ops, term, mat[rows[i]][cols[perm[i]]])
        total = dpoly.add(ops, total, dpoly.scale(ops, term, sign % p))
    return total


def _random_matrix(rng, p, nr, nc, maxlen):
    return [[[rng.randrange(p) for _ in range(rng.randint(0, maxlen))] for _ in range(nc)]
            for _ in range(nr)]


def test_determinant_divisor_chain():
    # the gcd of all k x k minors equals the product of the first k invariant
    # factors, which are monic and form a divisibility chain (brute-force
    # minors on small square F_3 and rectangular F_5 matrices)
    rng3, rng5 = random.Random(21), random.Random(4)
    cases = [(F3, _random_matrix(rng3, 3, 3, 3, 2)) for _ in range(8)]
    for _ in range(12):
        nr, nc = rng5.randint(1, 4), rng5.randint(1, 4)
        cases.append((F5, _random_matrix(rng5, 5, nr, nc, 3)))
    for F, entries in cases:
        ops, p = F.ops, F.p
        mat = [[dpoly.trim(ops, list(e)) for e in row] for row in entries]
        res = smith_normal_form(entries, F)
        for f in res.invariant_factors:
            assert f[-1] == 1
        for a, b in zip(res.invariant_factors, res.invariant_factors[1:]):
            assert dpoly.rem(ops, b, a) == []
        nr, nc = len(mat), len(mat[0])
        for k in range(1, min(nr, nc) + 1):
            gcd_minors = []
            for rows in itertools.combinations(range(nr), k):
                for cols in itertools.combinations(range(nc), k):
                    d = _minor_det(ops, p, mat, rows, cols)
                    if d:
                        gcd_minors = dpoly.gcd(ops, gcd_minors, d) if gcd_minors else dpoly.monic(ops, d)
            prod = [1]
            for f in res.invariant_factors[:k]:
                prod = dpoly.mul(ops, prod, f)
            if len(res.invariant_factors) < k:
                assert gcd_minors == []
            else:
                assert gcd_minors == dpoly.monic(ops, prod)
