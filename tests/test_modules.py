import random

import numpy as np
import pytest

import kemod as K
from kemod import pencil
from kemod.errors import InputError, MathRefusal
from kemod.gf import FieldCtx
from kemod.modules import generic_power_ranks, random_invertible
from kemod.subspace import Subspace
from oracles import (
    apply_generator,
    complement_two_eliminations,
    perp_two_eliminations,
    subquotient_with_lift_two_eliminations,
)
from symbolic import generic_rank, x_alpha_generic

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
    sym = x_alpha_generic(w)
    # evaluating the symbolic matrix at t = 2 must match the closed point (1, 2)
    pt = [F3.one, F3.scalar(2)]
    closed = K.x_alpha(w, K.PointSpec.closed(F3, [1, 2]))
    for a in range(3):
        for b in range(3):
            assert sym[a][b].eval([F3.scalar(2)]) == F3.scalar(int(closed[a, b]))


def test_x_alpha_at_the_generic_point_is_refused():
    # the generic point has ranks and kernels, not a matrix over F_q
    for m in (K.w_module(3, 2, 2), K.free_module(F2, 3), K.trivial_module(F3, 1, 2)):
        with pytest.raises(InputError):
            K.x_alpha(m, K.PointSpec.generic())


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
    for p, n, d in [(2, 3, 2), (3, 3, 2), (5, 4, 3)]:
        w = K.w_module(p, n, d)
        assert generic_rank(w) == generic_power_ranks(w, 1)[0]


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


def test_one_elimination_subspaces_match_the_two_elimination_oracles():
    """perp, complement_in and subquotient_with_lift, which read pivots off
    the echelon forms they hold, equal the routes that eliminated again,
    byte for byte, on the radical and socle layers and generic kernels of
    mixed_family members and disguised W-modules."""
    from kemod.generate import mixed_family
    from kemod.modules import subquotient_with_lift

    rng = random.Random(3)
    mods = [mem.module for mem in mixed_family(9, seed=2, max_dim=12)]
    mods += [_disguise(K.w_module(F, n, d), rng) for F, n, d in ((F2, 5, 2), (F3, 4, 3), (F5, 3, 2))]
    for m in mods:
        subs = K.radical_series(m) + K.socle_series(m)
        subs += [K.generic_kernel_power(m, n).subspace for n in range(1, m.ctx.p)]
        for sub in subs:
            want = perp_two_eliminations(sub)
            assert sub.perp() == want and sub.perp().basis.tobytes() == want.basis.tobytes()
        for top in subs:
            for bottom in subs:
                if not top.contains(bottom):
                    continue
                comp = bottom.complement_in(top)
                want = complement_two_eliminations(bottom, top)
                assert comp.basis.tobytes() == want.tobytes() and comp.basis.shape == want.shape
                assert comp.pivots == Subspace.span(m.ctx, m.dim, want).pivots
                mod, lift = subquotient_with_lift(m, top, bottom)
                mats, want_lift = subquotient_with_lift_two_eliminations(m, top, bottom)
                assert lift.tobytes() == want_lift.tobytes() and lift.shape == want_lift.shape
                assert all(x.tobytes() == y.tobytes() and x.shape == y.shape for x, y in zip(mod.mats, mats))


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


@pytest.mark.parametrize("F", [F3, FieldCtx(2, 2)], ids=lambda F: f"F{F.q}")
def test_is_invariant_matches_span_and_contains(F):
    """is_invariant against the form that echelonizes each image and asks
    containment: spun submodules are invariant, random spans mostly not."""
    from kemod.modules import is_invariant, submodule_spin

    rng = random.Random(2)
    m = K.direct_sum(K.w_module(F, 3, 2), K.dual(K.w_module(F, 2, 2)))
    seen = set()
    for _ in range(40):
        rows = [[F.random_code(rng) for _ in range(m.dim)] for _ in range(rng.randint(0, 3))]
        for sub in (Subspace.span(F, m.dim, rows), submodule_spin(m, rows)):
            want = all(sub.contains(apply_generator(m, i, sub)) for i in range(m.r))
            assert is_invariant(m, sub) == want
            seen.add(want)
    assert seen == {True, False}


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
    # in rank two the generic image comes from duality and, independently,
    # from the direct intersection; a disagreement must surface as
    # ConsistencyError (CLI exit 1)
    from kemod import genker
    from kemod.errors import ConsistencyError

    monkeypatch.setattr(genker, "_direct_image_r2", lambda m, n, part: Subspace.zero(m.ctx, m.dim))
    with pytest.raises(ConsistencyError):
        K.generic_image_power(K.w_module(3, 3, 2), 1)


# -- one route per rank-two invariant -------------------------------------------


def _disguise_with_basis(m, rng):
    """X_i -> P X_i P^-1, then a random invertible change of coordinates;
    returns the module and P."""
    from kemod import linalg

    P = random_invertible(m.ctx, m.dim, rng)
    Pinv = linalg.inv_fp(P, m.ctx)
    mats = [linalg.matmul_fp(linalg.matmul_fp(P, x, m.ctx), Pinv, m.ctx) for x in m.mats]
    return K.restrict(K.KEModule(m.ctx, 2, mats), random_invertible(m.ctx, 2, rng)), P


def _disguise(m, rng):
    return _disguise_with_basis(m, rng)[0]


def _square_zero_from_companion():
    # X_1 = [[0,0],[I,0]], X_2 = [[0,0],[C,0]], C the companion of t^2 + 1
    # over F_3: the rank drops at the roots of t^2 + 1, which lie in F_9
    x1, x2 = np.zeros((4, 4), dtype=np.int64), np.zeros((4, 4), dtype=np.int64)
    x1[2, 0] = x1[3, 1] = x2[3, 0] = 1
    x2[2, 1] = 2
    return K.KEModule(F3, 2, [x1, x2])


def test_smith_form_ranks_match_the_grid():
    # the rank grid stays as the tests' oracle for the Smith-form ranks
    from kemod.generate import mixed_family
    from kemod.modules import _grid_ranks

    rng = random.Random(4)
    mods = [K.w_module(p, n, d) for p in (2, 3, 5) for n in range(1, 5) for d in range(1, min(n, p) + 1)]
    mods += [mem.module for mem in mixed_family(12, seed=5, max_dim=12)]
    for p, parts in [(2, [(4, 2), (3, 2)]), (3, [(3, 3), (3, 2)]), (5, [(3, 3), (2, 2)])]:
        a, b = (K.w_module(p, n, d) for n, d in parts)
        mods += [_disguise(K.direct_sum(a, b), rng), _disguise(K.direct_sum(a, K.dual(b)), rng)]
    mods.append(_square_zero_from_companion())
    mods += [K.w_module(FieldCtx(p, 2), n, d) for p, n, d in [(2, 3, 2), (3, 3, 2), (3, 4, 3)]]
    for m in mods:
        p = m.ctx.p
        assert generic_power_ranks(m, p) == _grid_ranks(m, p), m


def test_rank_two_runs_no_grid(monkeypatch):
    from kemod import modules

    def boom(*args, **kwargs):
        raise AssertionError("rank grid ran for r = 2")

    monkeypatch.setattr(modules, "_grid_ranks", boom)
    disguised = _disguise(K.direct_sum(K.w_module(3, 3, 2), K.w_module(3, 2, 2)), random.Random(1))
    for m in (K.w_module(3, 4, 3), disguised):
        assert K.constant_jordan_type(m).is_cjt
        assert K.jordan_type(m).dim() == m.dim
        for n in range(1, 4):
            K.splitting_type(m, n)
            K.generic_kernel_power(m, n)
            K.generic_image_power(m, n)


# -- dense pencils: Smith forms after a change of basis ----------------------------


@pytest.mark.parametrize("p, n, d, jt", [(3, 12, 3, "[3]^10[2][1]"), (5, 10, 5, "[5]^6[4][3][2][1]")])
def test_dense_w_module_jordan_type_and_image(p, n, d, jt):
    # dim 33 over F_3 and dim 40 over F_5 with every pencil power dense: the
    # Smith forms behind the generic ranks, the CJT decision and the generic
    # image must keep their entries of low degree to finish at all
    from kemod import linalg

    base = K.w_module(p, n, d)
    m, P = _disguise_with_basis(base, random.Random(1))
    assert repr(K.jordan_type(m)) == jt
    dec = K.constant_jordan_type(m)
    assert dec.is_cjt and repr(dec.jordan_type) == jt
    # the r = 2 image runs the direct route through the Smith form as well
    for j in (1, 2):
        want = K.generic_image_power(base, j)
        moved = Subspace.span(m.ctx, m.dim, linalg.matmul_fp(P, want.basis.T, m.ctx).T)
        assert K.generic_image_power(m, j) == moved


def test_dense_jump_module_witness_and_image_cut(monkeypatch):
    # the square-zero module whose rank drops at the roots of t^2 + 1, plus
    # W_{12,3}, disguised (dim 37, F_3): the jump stays irrational, so the
    # witness comes from a non-unit invariant factor of a dense Smith form
    from kemod import genker
    from kemod.errors import ConsistencyError
    from kemod.gf import splitting_extension
    from kemod.modules import rank_at_point

    m = _disguise(K.direct_sum(_square_zero_from_companion(), K.w_module(3, 12, 3)), random.Random(3))
    assert m.dim == 37
    dec = K.constant_jordan_type(m)
    assert dec.kind == "not_cjt"
    w = dec.witness
    assert w["j"] == 1 and len(w["minimal_polynomial"]) == 3
    # re-verify at a root in F_9, through the point's own matrix
    ext, root = splitting_extension(F3, [F3.encode(c) for c in w["minimal_polynomial"]])
    assert rank_at_point(m, (ext.one, ext.decode(root)), 1) == w["rank_there"] < w["generic_rank"]
    # the direct image is cut at that root and disagrees with duality, as on
    # every module whose rank jumps
    cuts = []
    real_cut = genker._cut_by_root_image
    monkeypatch.setattr(genker, "_cut_by_root_image", lambda *a: cuts.append(a[3]) or real_cut(*a))
    with pytest.raises(ConsistencyError):
        K.generic_image_power(m, 1)
    assert [F3.encode(c) for c in w["minimal_polynomial"]] in [list(g) for g in cuts]


@pytest.mark.parametrize("F", [F2, F3, FieldCtx(3, 2)], ids=lambda F: f"F{F.q}")
@pytest.mark.parametrize("d", [0, 1, 5])
def test_kernel_generators_from_p_on_are_the_zero_pencils_sweep(monkeypatch, F, d):
    want = pencil.graded_kernel_basis(np.zeros((d, d, 1), dtype=np.int64), F, d)
    monkeypatch.setattr(pencil, "graded_kernel_basis", None)  # no sweep from p on
    m = K.trivial_module(F, 2, d)
    for ell in (F.p, F.p + 1):
        got = m.kernel_generators(ell)
        assert [g.deg for g in got] == [g.deg for g in want]
        for g, w in zip(got, want):
            assert g.coeffs.dtype == w.coeffs.dtype and g.coeffs.shape == w.coeffs.shape
            assert g.coeffs.tobytes() == w.coeffs.tobytes()


def test_kernel_generators_from_p_on_refuse_other_ranks():
    with pytest.raises(InputError):
        K.trivial_module(F3, 3, 2).kernel_generators(3)
