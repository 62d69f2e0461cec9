import random

import numpy as np
import pytest

import kemod as K
from kemod.errors import InputError, MathRefusal
from kemod.gf import FieldCtx
from kemod.modules import generic_power_ranks, random_invertible
from kemod.subspace import Subspace

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)


def jordan_block(n):
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        m[i + 1, i] = 1
    return m


# -- validation ---------------------------------------------------------------


def test_validate_trivial():
    m = K.trivial_module(F3, 2, 4)
    assert m.validate().ok


def test_validate_equal_nilpotents():
    j = jordan_block(2)
    m = K.KEModule(F2, 2, [j, j])
    assert m.validate().ok


def test_validate_commutativity_violation():
    a = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    b = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    m = K.KEModule(F2, 2, [a, b])  # ab != ba
    rep = m.validate()
    assert not rep.ok
    assert rep.violations[0]["kind"] == "commutativity"
    assert rep.violations[0]["pair"] == (1, 2)
    with pytest.raises(MathRefusal):
        K.jordan_type(m)


def test_validate_pth_power_violation():
    j = jordan_block(3)
    m = K.KEModule(F2, 1, [j])  # j^2 != 0 over F_2
    rep = m.validate()
    assert not rep.ok
    assert any(v["kind"] == "pth_power" for v in rep.violations)


# -- x_alpha -------------------------------------------------------------------


def test_x_alpha_coordinate_points():
    w = K.w_module(3, 2, 2)
    a = K.x_alpha(w, K.PointSpec.closed(F3, [1, 0]))
    assert np.array_equal(a, w.mats[0])
    b = K.x_alpha(w, K.PointSpec.closed(F3, [0, 1]))
    assert np.array_equal(b, w.mats[1])


def test_x_alpha_generic_is_pencil():
    w = K.w_module(3, 2, 2)
    sym = K.x_alpha(w, K.PointSpec.generic())
    # evaluating the symbolic matrix at t = 2 must match the closed point (1, 2)
    pt = [F3.one, F3.scalar(2)]
    closed = K.x_alpha(w, K.PointSpec.closed(F3, [1, 2]))
    for a in range(3):
        for b in range(3):
            assert sym[a][b].eval([F3.scalar(2)]) == F3.scalar(int(closed[a, b]))


def test_x_alpha_zero_point_rejected():
    with pytest.raises(InputError):
        K.PointSpec.closed(F3, [0, 0])


# -- Jordan types ---------------------------------------------------------------


def test_jordan_type_w22():
    w = K.w_module(3, 2, 2)
    jt = K.jordan_type(w, K.PointSpec.closed(F3, [1, 1]))
    assert repr(jt) == "[2][1]"
    assert K.jordan_type(w) == jt  # generic agrees


def test_jordan_type_w43():
    assert repr(K.jordan_type(K.w_module(3, 4, 3))) == "[3]^2[2][1]"


def test_jordan_type_zero_module():
    m = K.trivial_module(F3, 2, 0)
    assert K.jordan_type(m).dim() == 0


def test_jordan_type_at_extension_point():
    # F_4-point of an F_2-module
    w = K.w_module(2, 3, 2)
    f4 = FieldCtx(2, 2)
    g = f4.gen()
    jt = K.jordan_type(w, K.PointSpec.closed(f4, [f4.one, g]))
    assert jt == K.jordan_type(w)


def test_generic_ranks_match_symbolic_elimination():
    # cross-check the grid method against honest rational-function elimination
    from kemod.linalg import rank_gen
    from kemod.poly import RationalFunction

    rng = random.Random(2)
    for p, n, d in [(2, 3, 2), (3, 3, 2), (5, 4, 3)]:
        w = K.w_module(p, n, d)
        sym = K.x_alpha(w, K.PointSpec.generic())
        ctx = w.ctx
        rows = [[RationalFunction.from_poly(e) for e in row] for row in sym]
        zero = RationalFunction.const(ctx, 1, 0)
        assert rank_gen(rows, zero) == generic_power_ranks(w, 1)[0]


# -- constant rank / CJT decisions ----------------------------------------------


def test_w_modules_constant_exact():
    for p, n, d in [(2, 4, 2), (3, 5, 3), (5, 6, 4)]:
        w = K.w_module(p, n, d)
        for j in range(1, min(d + 1, p)):
            dec = K.constant_jrank_decide(w, j)
            assert dec.kind == "constant"


def test_free_plus_trivial_constant():
    # k + kE (p=2, r=2) has constant rank at every point
    m = K.direct_sum(K.trivial_module(F2, 2, 1), K.free_module(F2, 2, 1))
    dec = K.constant_jrank_decide(m, 1)
    assert dec.kind == "constant"
    assert dec.rank == 2
    cjt = K.constant_jordan_type(m)
    assert cjt.is_cjt
    assert repr(cjt.jordan_type) == "[2]^2[1]"


def test_not_constant_with_witness_at_infinity():
    m = K.KEModule(F2, 2, [jordan_block(2), np.zeros((2, 2), dtype=np.int64)])
    dec = K.constant_jrank_decide(m, 1)
    assert dec.kind == "not_constant"
    assert dec.witness["point"] == "(0, 1)"
    cjt = K.constant_jordan_type(m)
    assert cjt.kind == "not_cjt"


def test_not_constant_with_extension_witness():
    # X1 = J2 + J1, X2 chosen so the jump point avoids the rational chart points:
    # build a module whose rank drops only at t^2 + 1 = 0 over F_3
    x1 = np.zeros((4, 4), dtype=np.int64)
    x2 = np.zeros((4, 4), dtype=np.int64)
    # two blocks: on block one X_alpha = (1) * shift, on block two (t at root i)
    x1[1, 0] = 1
    x2[1, 0] = 0
    x1[3, 2] = 0
    x2[3, 2] = 1
    m = K.KEModule(F3, 2, [x1, x2])
    # rank of x1 + t x2 is 2 unless both rows vanish; (1,0): rank 1; witness exists
    dec = K.constant_jrank_decide(m, 1)
    assert dec.kind == "not_constant"


def test_snf_witness_minimal_polynomial():
    # a module whose 1-rank drops exactly at the roots of t^2 + 1 over F_3:
    # X_alpha acts on a 2-dim space by [[0, lam1^2+lam2^2... ]] -- build via
    # companion trick: X1 = [[0,1],[0,0]] (x) e1, X2 = [[0,i],[0,0]] needs i;
    # instead use 4-dim: X_alpha kills the top cell iff lam1^2+lam2^2 = 0
    x1 = np.zeros((3, 3), dtype=np.int64)
    x2 = np.zeros((3, 3), dtype=np.int64)
    # X1: e0 -> e1, X2: e0 -> e2  and  X1: e2 -> 0... keep rank 1 generic:
    x1[1, 0] = 1
    x2[2, 0] = 1
    m = K.KEModule(F3, 2, [x1, x2])
    # rank(X_alpha) = 1 everywhere (image = span(lam1 e1 + lam2 e2)): constant
    assert K.constant_jrank_decide(m, 1).kind == "constant"


# -- dual, restrict ---------------------------------------------------------------


def test_dual_trivial_is_itself():
    m = K.trivial_module(F3, 2, 3)
    d = K.dual(m)
    assert all(np.array_equal(a, b) for a, b in zip(m.mats, d.mats))


def test_dual_involution_and_jordan_invariance():
    w = K.w_module(3, 4, 3)
    dd = K.dual(K.dual(w))
    assert all(np.array_equal(a, b) for a, b in zip(w.mats, dd.mats))
    assert K.jordan_type(K.dual(w)) == K.jordan_type(w)


def test_dual_w22_socle_head():
    # hand check: transposing W_{2,2} swaps head and socle
    w = K.w_module(3, 2, 2)
    d = K.dual(w)
    assert K.socle(d).dim == 2
    assert (K.radical(d)).dim == 2  # head dim = 3 - 2 = 1
    assert K.socle(w).dim == 1
    assert K.radical(w).dim == 1


def test_restrict_identity():
    w = K.w_module(3, 3, 2)
    r = K.restrict(w, np.eye(2, dtype=np.int64))
    assert all(np.array_equal(a, b) for a, b in zip(w.mats, r.mats))


def test_restrict_rank_one_gives_point_jordan_type():
    w = K.w_module(3, 4, 2)
    for coords in [(1, 0), (1, 2), (0, 1)]:
        col = np.array([[coords[0]], [coords[1]]])
        r = K.restrict(w, col)
        assert r.r == 1
        assert K.jordan_type(r) == K.jordan_type(w, K.PointSpec.closed(F3, list(coords)))


def test_restrict_rank_deficient_rejected():
    w = K.w_module(3, 3, 2)
    with pytest.raises(InputError):
        K.restrict(w, np.array([[1, 2], [2, 4]]))  # rank 1


def test_restrict_functoriality():
    rng = random.Random(6)
    w = K.direct_sum(K.w_module(3, 3, 2), K.dual(K.w_module(3, 2, 2)))
    a = random_invertible(F3, 2, rng)
    b = random_invertible(F3, 2, rng)
    lhs = K.restrict(w, (a @ b) % 3)
    rhs = K.restrict(K.restrict(w, a), b)
    assert all(np.array_equal(x, y) for x, y in zip(lhs.mats, rhs.mats))


# -- constructors -----------------------------------------------------------------


def test_w_module_dimensions():
    assert K.w_module(3, 4, 3).dim == 9
    for p, n, d in [(2, 5, 2), (3, 6, 3), (5, 8, 5)]:
        assert K.w_module(p, n, d).dim == d * (2 * n - d + 1) // 2


def test_w_module_parameter_validation():
    with pytest.raises(InputError):
        K.w_module(3, 2, 4)  # d > p
    with pytest.raises(InputError):
        K.w_module(3, 2, 3)  # d > n


def test_w_n2_jordan_type():
    for p, n in [(2, 4), (3, 5), (5, 3)]:
        w = K.w_module(p, n, 2)
        jt = K.jordan_type(w)
        assert jt.mult(2) == n - 1 and jt.mult(1) == 1


def test_subquotient_full_is_identity():
    w = K.w_module(3, 3, 2)
    full = Subspace.full(F3, w.dim)
    zero = Subspace.zero(F3, w.dim)
    q = K.subquotient(w, full, zero)
    assert all(np.array_equal(a, b) for a, b in zip(w.mats, q.mats))


def test_subquotient_requires_invariance():
    w = K.w_module(3, 3, 2)
    bad = Subspace.span(F3, w.dim, np.eye(w.dim, dtype=np.int64)[:1])  # top vertex: not invariant
    with pytest.raises(InputError):
        K.subquotient(w, Subspace.full(F3, w.dim), bad)


def test_from_presentation_reproduces_w_module():
    # relations X1 v1, X2 v_n, X1^d v_i, X2 v_i - X1 v_{i+1}
    p, n, d = 3, 2, 2
    rels = []
    rels.append([(0, (1, 0), 1)])                       # X1 v1
    rels.append([(n - 1, (0, 1), 1)])                   # X2 v_n
    for i in range(n):
        rels.append([(i, (d, 0), 1)])                   # X1^d v_i
    for i in range(n - 1):
        rels.append([(i, (0, 1), 1), (i + 1, (1, 0), -1)])   # X2 v_i - X1 v_{i+1}
    m = K.from_presentation(F3, 2, n, rels)
    w = K.w_module(p, n, d)
    assert m.dim == w.dim == 3
    assert K.iso_probe(m, w, seed=0).isomorphic


def test_free_module_guard():
    with pytest.raises(InputError):
        K.free_module(F5, 2, 200)  # 200 * 25 > 4096


def test_syzygy_dims_and_cjt():
    s1 = K.syzygy(F3, 2, 1)
    assert s1.dim == 8  # rad(kE), dim p^2 - 1
    dec = K.constant_jordan_type(s1)
    assert dec.is_cjt
    s2 = K.syzygy(F2, 2, 2)
    assert K.constant_jordan_type(s2).is_cjt


# -- radical / socle layers ---------------------------------------------------------


def test_loewy_length_of_w_modules():
    for p, n, d in [(3, 4, 3), (5, 5, 4), (2, 3, 2)]:
        assert K.loewy_length(K.w_module(p, n, d)) == d


def test_radical_of_trivial():
    assert K.radical(K.trivial_module(F3, 2, 4)).dim == 0


def test_socle_of_w_n2_is_bottom_layer():
    for n in (3, 5):
        w = K.w_module(3, n, 2)
        soc = K.socle(w)
        assert soc.dim == n - 1
        # bottom layer = images of X1: rows n..(2n-2)
        bottom = Subspace.span(F3, w.dim, np.eye(w.dim, dtype=np.int64)[n:])
        assert soc == bottom


def test_series_are_monotone():
    w = K.w_module(5, 4, 3)
    rs = K.radical_series(w)
    assert [s.dim for s in rs] == sorted([s.dim for s in rs], reverse=True)
    ss = K.socle_series(w)
    assert [s.dim for s in ss] == sorted(s.dim for s in ss)
    assert rs[-1].dim == 0 and ss[-1].dim == w.dim


# -- properties ----------------------------------------------------------------------


def test_jordan_type_sums_to_dim_at_random_points():
    rng = random.Random(12)
    for p in (2, 3, 5):
        ctx = FieldCtx(p)
        w = K.direct_sum(K.w_module(p, 3, min(2, p)), K.trivial_module(ctx, 2, 2))
        for _ in range(5):
            coords = [ctx.random_scalar(rng) for _ in range(2)]
            if not any(bool(c) for c in coords):
                continue
            jt = K.jordan_type(w, K.PointSpec(tuple(coords), ctx))
            assert jt.dim() == w.dim


def test_generic_type_matches_off_jump_points():
    # constant modules: every closed point gives the generic type
    w = K.w_module(3, 4, 2)
    generic = K.jordan_type(w)
    f9 = FieldCtx(3, 2)
    rng = random.Random(3)
    for _ in range(6):
        coords = [f9.random_scalar(rng) for _ in range(2)]
        if not any(bool(c) for c in coords):
            continue
        assert K.jordan_type(w, K.PointSpec(tuple(coords), f9)) == generic


def test_extension_field_module_roundtrip_ops():
    # small modules over F_4: the generic machinery must handle them end to end
    f4 = FieldCtx(2, 2)
    g = f4.gen()
    z = f4.zero
    # X_alpha kills e0 exactly at the F_4-rational point [g : 1]: not constant
    x1 = [[z, z, z], [f4.one, z, z], [z, z, z]]
    x2 = [[z, z, z], [g, z, z], [z, z, z]]
    skew = K.KEModule(f4, 2, [x1, x2])
    assert skew.validate().ok
    assert repr(K.jordan_type(skew)) == "[2][1]"
    dec = K.constant_jrank_decide(skew, 1)
    assert dec.kind == "not_constant"
    assert dec.witness is not None
    # independent images: rank 1 at every point
    y1 = [[z, z, z], [f4.one, z, z], [z, z, z]]
    y2 = [[z, z, z], [z, z, f4.one], [z, z, z]]
    const = K.KEModule(f4, 2, [y1, y2])
    assert const.validate().ok
    assert K.constant_jrank_decide(const, 1).kind == "constant"
    assert repr(K.jordan_type(const)) == "[2][1]"
    assert K.radical(const).dim == 1


def test_extension_field_jump_witness():
    # rank of X_alpha drops exactly at the roots of t^2 + 1, which is
    # irreducible over F_3: the witness must name that minimal polynomial
    # and verify the drop over F_9
    x1 = np.zeros((4, 4), dtype=np.int64)
    x2 = np.zeros((4, 4), dtype=np.int64)
    # X1: (u, 0) -> (0, u); X2: (u, 0) -> (0, C u), C the companion of t^2+1
    x1[2, 0] = 1
    x1[3, 1] = 1
    x2[2, 1] = 2  # C = [[0, -1], [1, 0]]
    x2[3, 0] = 1
    m = K.KEModule(F3, 2, [x1, x2])
    assert m.validate().ok
    dec = K.constant_jrank_decide(m, 1)
    assert dec.kind == "not_constant"
    assert dec.witness["minimal_polynomial"] == [1, 0, 1]  # t^2 + 1
    assert dec.witness["rank_there"] < dec.rank == 2


def test_route_disagreement_is_a_consistency_error(monkeypatch):
    # the Smith form and the rank grid are independent routes to the generic
    # rank; a disagreement must surface as ConsistencyError (CLI exit 1)
    from kemod import modules
    from kemod.errors import ConsistencyError

    real = modules.generic_power_ranks
    monkeypatch.setattr(modules, "generic_power_ranks", lambda m, j: [r + 1 for r in real(m, j)])
    with pytest.raises(ConsistencyError):
        K.constant_jrank_decide(K.w_module(3, 3, 2), 1)
