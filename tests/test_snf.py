import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kemod as K
from kemod import dpoly, linalg, pencil, snf
from kemod.errors import InputError
from kemod.gf import FieldCtx
from kemod.snf import SNFResult, smith_normal_form
from test_pencil import _disguise

F3 = FieldCtx(3)
F5 = FieldCtx(5)

# entries are dense code lists, constant term first
ZERO, ONE, T = [], [1], [0, 1]


def eval_at(ops, f, x):
    """The value of the code list f at x, by Horner's rule."""
    acc = ops.zero
    for c in reversed(f):
        acc = ops.add(ops.mul(acc, x), c)
    return acc


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
                [[eval_at(ops, e, c) for e in row] for row in entries], dtype=np.int64
            )
            want = sum(1 for f in res.invariant_factors if eval_at(ops, f, c) != 0)
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


def test_snf_takes_code_array_rows():
    # rows of a (rows, cols, deg+1) code array, as modules._snf_of_power
    # passes them, give the same factors as coefficient lists
    a = np.array([[[0, 1], [1, 0]], [[0, 0], [0, 1]]], dtype=np.int64)  # [[t, 1], [0, t]]
    assert smith_normal_form(list(a), F3).invariant_factors == [[1], [0, 0, 1]]
    assert smith_normal_form(list(np.zeros((4, 4, 1), dtype=np.int64)), F3) == SNFResult([])
    assert smith_normal_form([], F3) == SNFResult([])
    with pytest.raises(InputError):
        smith_normal_form([[ONE, T], [ONE]], F3)


# -- the batched elimination against the Euclidean algorithm --------------------


def oracle_smith_form(entries, ctx):
    """The per-entry Euclidean algorithm that every Smith form took before the
    code-array elimination: pivot on the minimum-degree entry, clear its row
    and column by division, restart when a remainder drops the pivot degree,
    and fold rows that break divisibility into the pivot row."""
    ops = ctx.ops
    nr = len(entries)
    nc = len(entries[0]) if nr else 0
    A = [[dpoly.trim(ops, list(e)) for e in row] for row in entries]

    def swap_cols(i, j):
        for r in range(nr):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    def row_sub(i, j, q):
        for c in range(nc):
            A[i][c] = dpoly.sub(ops, A[i][c], dpoly.mul(ops, q, A[j][c]))

    def col_sub(i, j, q):
        for r in range(nr):
            A[r][i] = dpoly.sub(ops, A[r][i], dpoly.mul(ops, q, A[r][j]))

    pos = 0
    while pos < min(nr, nc):
        found = min(
            ((len(A[i][j]), i, j) for i in range(pos, nr) for j in range(pos, nc) if A[i][j]),
            default=None,
        )
        if found is None:
            break
        _, pi, pj = found
        A[pi], A[pos] = A[pos], A[pi]
        swap_cols(pj, pos)
        while True:
            dirty = False
            for i in range(nr):
                if i != pos and A[i][pos]:
                    q, r = dpoly.divmod_(ops, A[i][pos], A[pos][pos])
                    row_sub(i, pos, q)
                    if r:
                        A[i], A[pos] = A[pos], A[i]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(nc):
                if j != pos and A[pos][j]:
                    q, r = dpoly.divmod_(ops, A[pos][j], A[pos][pos])
                    col_sub(j, pos, q)
                    if r:
                        swap_cols(j, pos)
                        dirty = True
                        break
            if dirty:
                continue
            offender = None
            if len(A[pos][pos]) > 1:
                offender = next(
                    (i for i in range(pos + 1, nr) for j in range(pos + 1, nc)
                     if A[i][j] and dpoly.rem(ops, A[i][j], A[pos][pos])),
                    None,
                )
            if offender is None:
                break
            A[pos] = [dpoly.add(ops, a, b) for a, b in zip(A[pos], A[offender])]
        pos += 1
    return SNFResult([dpoly.monic(ops, A[i][i]) for i in range(min(nr, nc)) if A[i][i]])


FIELDS = [FieldCtx(2), FieldCtx(3), FieldCtx(5), FieldCtx(2, 2), FieldCtx(2, 3), FieldCtx(3, 2)]


def _poly_matrix(rng, F, rows, cols, deg, density):
    codes = [F.random_code(rng) if rng.random() < density else 0 for _ in range(rows * cols * (deg + 1))]
    return np.array(codes, dtype=np.int64).reshape(rows, cols, deg + 1)


def _permuted(rng, a):
    """a with its rows and its columns in random orders."""
    return a[rng.sample(range(a.shape[0]), a.shape[0])][:, rng.sample(range(a.shape[1]), a.shape[1])]


def _w_sum(F, rng):
    """W_{n,d} (+) W_{n',d'}^* over F, with 2 <= d <= n <= 4 and n' <= 3."""
    n, n2 = rng.randint(2, 4), rng.randint(1, 3)
    a, b = K.w_module(F, n, rng.randint(2, min(n, F.p))), K.w_module(F, n2, rng.randint(1, min(n2, F.p)))
    return K.direct_sum(a, K.dual(b))


def _sparse_matrix(rng, F, rows, cols):
    """A chain of lines that each hold one constant entry, ending in the
    corner (0, 0): c_i at (i, i) with an entry of positive degree at
    (i, i + 1), so each strike leaves the next line with one entry.  Then
    single entries of positive degree and a few random entries, some lines
    left zero, and the rows and columns permuted."""
    a = np.zeros((rows, cols, 3), dtype=np.int64)
    k = rng.randint(0, min(rows, cols))
    for i in range(k):
        a[i, i, 0] = F.random_code(rng) or 1
        if i + 1 < k:
            a[i, i + 1, :2] = [F.random_code(rng), F.random_code(rng) or 1]
    for _ in range(rng.randint(0, 3) if rows > k and cols > k else 0):
        i, j, e = rng.randrange(k, rows), rng.randrange(k, cols), rng.randint(1, 2)
        a[i, j, e] = F.random_code(rng) or 1
    for _ in range(rng.randint(0, 2) if rows and cols else 0):
        a[rng.randrange(rows), rng.randrange(cols)] = [F.random_code(rng) for _ in range(3)]
    return _permuted(rng, a)


SPARSE_FIELDS = [FieldCtx(2), FieldCtx(3), FieldCtx(5), FieldCtx(2, 2), FieldCtx(3, 2)]


@st.composite
def smith_inputs(draw):
    """(F, code array): random matrices up to 6 x 6 of degree <= 3 over F_2,
    F_3, F_5, F_4, F_8 and F_9; about as many low-rank products
    B diag(t - c_i) C of linear factors, whose non-unit invariant factors
    exercise the divisibility fold; and sparse matrices over F_2, F_3, F_5,
    F_4 and F_9 for the unit peel: pencil powers of W-sums and chains of
    lines with one constant entry (``_sparse_matrix``), rows and columns
    permuted."""
    kind = draw(st.sampled_from(["product", "random", "sparse"]))
    F = draw(st.sampled_from(SPARSE_FIELDS if kind == "sparse" else FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if kind == "sparse":
        if draw(st.booleans()):
            return F, _permuted(rng, _w_sum(F, rng).power_pencil(draw(st.integers(1, F.p - 1))))
        return F, _sparse_matrix(rng, F, rows + 1, cols + 1)
    if kind == "random":
        density = draw(st.sampled_from([0.2, 0.5, 1.0]))
        return F, _poly_matrix(rng, F, rows, cols, draw(st.integers(0, 3)), density)
    k = draw(st.integers(0, min(rows, cols)))
    diag = np.zeros((k, k, 2), dtype=np.int64)
    for i in range(k):
        diag[i, i] = [F.random_code(rng), 1] if rng.random() < 0.7 else [F.random_code(rng) or 1, 0]
    b, c = _poly_matrix(rng, F, rows, k, 1, 0.7), _poly_matrix(rng, F, k, cols, 1, 0.7)
    a = pencil.pm_mul(pencil.pm_mul(b, diag, F), c, F) if k else np.zeros((rows, cols, 1), dtype=np.int64)
    return F, a


@settings(max_examples=300, deadline=None)
@given(smith_inputs())
def test_smith_form_matches_euclidean_oracle(case):
    F, a = case
    lists = [[[int(x) for x in a[i, j]] for j in range(a.shape[1])] for i in range(a.shape[0])]
    want = oracle_smith_form(lists, F)
    assert smith_normal_form(list(a), F) == want
    assert smith_normal_form(lists, F) == want


def test_the_peel_alone_finishes_the_pencil_of_a_reordered_w_sum(monkeypatch):
    # every pivot of X_1 + t X_2 on a W-sum in a reordered basis is a line
    # with one constant entry, so no Schur step is left after the peel
    def boom(*args):
        raise AssertionError("Schur step after the peel")

    rng = random.Random(6)
    for F in SPARSE_FIELDS:
        for _ in range(3):
            a = _permuted(rng, _w_sum(F, rng).power_pencil(1))
            want = oracle_smith_form([[[int(x) for x in e] for e in row] for row in a], F)
            monkeypatch.setattr(snf, "_sub_outer", boom)
            assert smith_normal_form(list(a), F) == want
            monkeypatch.undo()
            assert all(f == [1] for f in want.invariant_factors)


def test_a_disguised_pencil_strikes_nothing():
    rng = random.Random(7)
    for F in SPARSE_FIELDS:
        m = _disguise(K.direct_sum(K.w_module(F, 4, 2), K.dual(K.w_module(F, 3, 2))), rng)
        a = m.power_pencil(1)
        assert snf._strike_units(F.canon(a))[1] == 0
