"""One matrix lane for every F_q: prime and extension fields must agree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kemod as K
from kemod import linalg
from kemod.errors import ConsistencyError, InputError
from kemod.generate import mixed_family
from kemod.gf import FieldCtx, find_irreducible_fp, irreducible_of_degree, splitting_extension
from kemod.modules import rank_at_point, root_operator
from kemod.suite import verify_theorems


def base_change(m, k):
    """The same module over F_{p^k}: codes of F_p are codes of F_{p^k}."""
    return K.KEModule(FieldCtx(m.ctx.p, k), m.r, m.mats)


def invariants(m):
    p = m.ctx.p
    dec = K.constant_jordan_type(m)
    out = {
        "jordan_type": K.jordan_type(m).mults,
        "genker_dims": [K.generic_kernel_power(m, n).dim for n in range(1, p + 1)],
        "cjt": dec.kind,
    }
    if dec.is_cjt:
        out["splittings"] = [K.splitting_type(m, i).twists for i in range(1, p + 1)]
    return out


W_GRID = [(2, 3, 2), (3, 3, 2), (3, 3, 3), (5, 3, 2)]


@pytest.mark.parametrize("k", [2, 3])
def test_base_change_preserves_invariants(k):
    mods = [mem.module for mem in mixed_family(12, seed=3, max_dim=10)]
    mods += [K.w_module(p, n, d) for p, n, d in W_GRID]
    # not CJT: the rank of X_alpha drops at the roots of t^2 + 1 (in F_9, not F_3)
    x1, x2 = np.zeros((4, 4), dtype=np.int64), np.zeros((4, 4), dtype=np.int64)
    x1[2, 0] = x1[3, 1] = x2[3, 0] = 1
    x2[2, 1] = 2
    mods.append(K.KEModule(FieldCtx(3), 2, [x1, x2]))
    for m in mods:
        assert invariants(base_change(m, k)) == invariants(m), m


def _rref_reference(F, a):
    rows = [[F.decode(x) for x in row] for row in a]
    R, piv = linalg.rref_gen(rows, F.zero)
    return [[F.encode(x) for x in row] for row in R], piv


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_matches_scalar_reference(p, k, data):
    F = FieldCtx(p, k)
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    entries = data.draw(st.lists(st.integers(0, F.q - 1), min_size=rows * cols, max_size=rows * cols))
    a = np.array(entries, dtype=np.int64).reshape(rows, cols)
    R, piv = linalg.rref_fp(a, F)
    want_R, want_piv = _rref_reference(F, a)
    assert piv == want_piv
    assert R.tolist() == want_R


@pytest.mark.parametrize("ctx", [FieldCtx(3), FieldCtx(2, 2)])
def test_rank_jump_module_same_outcome_over_f3_and_f4(ctx):
    # X_2 = c X_1 in dim 2: the rank of X_alpha drops on the line l1 + c l2 = 0,
    # so the duality route and the all-points image disagree over every field
    x1 = np.zeros((2, 2), dtype=np.int64)
    x1[1, 0] = 1
    m = K.KEModule(ctx, 2, [x1, ctx.mul(ctx.gen().v, x1)])
    assert K.constant_jrank_decide(m, 1).kind == "not_constant"
    with pytest.raises(ConsistencyError):
        K.generic_image_power(m, 1)


def test_verify_theorems_runs_every_check_over_f4():
    rep = verify_theorems(K.w_module(FieldCtx(2, 2), 3, 2))
    names = {c["check"]: c["ok"] for c in rep["checks"]}
    assert names["coordinate-change invariance at i=1"]
    assert names["equal 1-images sheaf criterion"]
    equal = next(c for c in rep["checks"] if c["check"] == "equal 1-images sheaf criterion")
    assert "skipped" not in equal["detail"]
    assert rep["ok"]


def test_decompose_and_iso_probe_over_f9():
    f9 = FieldCtx(3, 2)
    a, b = K.w_module(f9, 3, 2), K.dual(K.w_module(f9, 2, 2))
    dec = K.decompose(K.direct_sum(a, b), seed=1)
    assert sorted(s.dim for s in dec.summands) == sorted([a.dim, b.dim])
    assert dec.verify()
    rng = np.random.default_rng(0)
    while True:
        g = rng.integers(0, f9.q, size=(a.dim, a.dim))
        if linalg.rank_fp(g, f9) == a.dim:
            break
    ginv = linalg.inv_fp(g, f9)
    conj = K.KEModule(f9, 2, [linalg.matmul_fp(linalg.matmul_fp(g, x, f9), ginv, f9) for x in a.mats])
    assert K.iso_probe(a, conj, seed=0).kind == "isomorphic"
    assert K.syzygy(f9, 2, 1).dim == 8


def test_largest_accepted_prime_is_exact():
    p = 1048573  # the largest prime below 2^20
    a = np.full((2, 2), p - 1, dtype=np.int64)
    assert np.array_equal(linalg.matmul_fp(a, a, p), np.full((2, 2), 2))
    assert linalg.rank_fp(np.array([[1, 2], [2, 4]]), p) == 1
    assert linalg.rank_fp(np.array([[p - 1, 1], [1, p - 1]]), p) == 1
    assert linalg.rank_fp(np.array([[p - 1, 2], [1, p - 1]]), p) == 2


@pytest.mark.parametrize("p", [1048583, 4294967311, 2**61 - 1])
def test_primes_beyond_the_exact_range_are_refused(p):
    with pytest.raises(InputError):
        FieldCtx(p)
    with pytest.raises(InputError):
        linalg.matmul_fp(np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64), p)


def test_field_sizes_beyond_int64_codes_are_refused():
    with pytest.raises(InputError):
        FieldCtx(2, 62)


def test_jump_point_field_beyond_int64_codes():
    # X_1 = [[0, 0], [C, 0]], X_2 = [[0, 0], [I, 0]] over F_101 with C the
    # companion matrix of an irreducible of degree 10: the rank drops only at
    # the roots, which lie in F_{101^10} (about 2^66.6)
    p, deg = 101, 10
    g = find_irreducible_fp(p, deg)
    z, c = np.zeros((deg, deg), dtype=np.int64), np.zeros((deg, deg), dtype=np.int64)
    c[np.arange(1, deg), np.arange(deg - 1)] = 1
    c[:, deg - 1] = (-np.array(g[:deg])) % p
    eye = np.eye(deg, dtype=np.int64)
    m = K.KEModule(FieldCtx(p), 2, [np.block([[z, z], [c, z]]), np.block([[z, z], [eye, z]])])
    dec = K.constant_jordan_type(m)
    assert dec.kind == "not_cjt"
    # X_1 + theta X_2 is singular where g(-theta) = 0 (deg g even)
    assert dec.witness["minimal_polynomial"] == [(-1) ** i * c % p for i, c in enumerate(g)]
    assert (dec.witness["rank_there"], dec.witness["generic_rank"]) == (deg - 1, deg)
    # as for X_2 = c X_1, the duality route and the all-points image disagree
    with pytest.raises(ConsistencyError):
        K.generic_image_power(m, 1)


@pytest.mark.parametrize("ctx", [FieldCtx(3), FieldCtx(2, 2)])
def test_root_operator_ranks_match_the_splitting_field(ctx):
    mods = [base_change(mem.module, ctx.k) for mem in mixed_family(30, seed=5, max_dim=8)
            if mem.module.ctx.p == ctx.p]
    for deg in (1, 2, 3):
        g = irreducible_of_degree(ctx, deg)
        ext, root = splitting_extension(ctx, g)
        for m in mods:
            for j in range(1, ctx.p + 1):
                blown = linalg.matpow_fp(root_operator(m, g), j, ctx)
                assert linalg.rank_fp(blown, ctx) == deg * rank_at_point(m, (ext.one, ext.decode(root)), j)


def test_int_arrays_are_codes_and_int_lists_are_prime_field_elements():
    f9 = FieldCtx(3, 2)
    entries = [[0, 0], [5, 0]]  # 5 = 2 + 1 * 3 is the code of 2 + x
    assert K.KEModule(f9, 1, [np.array(entries)]).mats[0][1, 0] == 5
    assert K.KEModule(f9, 1, [entries]).mats[0][1, 0] == 2  # 5 read in F_3
    with pytest.raises(InputError):
        K.KEModule(f9, 1, [np.array([[0, 0], [9, 0]])])


@pytest.mark.parametrize("F", [FieldCtx(3), FieldCtx(3, 2)], ids=["F3", "F9"])
def test_ragged_nesting_is_an_input_error(F):
    for a in ([[1, 0], [0]], [[1], [0, 1]]):
        with pytest.raises(InputError, match="ragged"):
            F.array(a)
