import functools
import itertools
import random

import numpy as np
import pytest

import kemod as K
from kemod import decomp, generate, linalg, suite
from kemod.errors import ConsistencyError, InputError, KemodError
from kemod.gf import FieldCtx
from kemod.modules import generic_power_ranks, loewy_length, random_invertible
from fixdata import mainexample_module
from oracles import hom_space_stacked_check, random_combination_loop, split_by_rounds

F2 = FieldCtx(2)
F3 = FieldCtx(3)
FIELDS = [F2, F3, FieldCtx(5), FieldCtx(2, 2), FieldCtx(3, 2)]


def brute_force_hom_dim(a, b):
    """Oracle: enumerate all linear maps b.dim x a.dim over F_p (tiny cases)."""
    p = a.ctx.p
    da, db = a.dim, b.dim
    count = 0
    for vals in itertools.product(range(p), repeat=da * db):
        f = np.array(vals, dtype=np.int64).reshape(db, da)
        ok = True
        for i in range(a.r):
            if ((f @ a.mats[i] - b.mats[i] @ f) % p).any():
                ok = False
                break
        if ok:
            count += 1
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count
    return dim


def test_hom_space_trivial_modules():
    k = K.trivial_module(F3, 2, 1)
    assert K.hom_space(k, k).dim == 1


def test_hom_space_w22_to_k_brute_force():
    # oracle: maps W_{2,2} -> k are functionals vanishing on the radical
    w = K.w_module(2, 2, 2)  # over F_2 to keep the enumeration tiny
    k = K.trivial_module(F2, 2, 1)
    assert brute_force_hom_dim(w, k) == 2
    assert K.hom_space(w, k).dim == 2
    # and k -> W_{2,2} lands in the socle, which is one-dimensional
    assert brute_force_hom_dim(k, w) == 1
    assert K.hom_space(k, w).dim == 1


def test_hom_space_contains_identity():
    w = K.w_module(3, 3, 2)
    hom = K.hom_space(w, w)
    eye = np.eye(w.dim, dtype=np.int64)
    # identity must be a combination of the basis: solve
    from oracles import solve_fp

    cols = np.array([f.reshape(-1) for f in hom.basis]).T
    assert solve_fp(cols, eye.reshape(-1), 3) is not None


@pytest.mark.parametrize("F", [FieldCtx(5), FieldCtx(3, 2)], ids=lambda F: f"F{F.q}")
def test_hom_space_refuses_a_basis_element_that_does_not_intertwine(monkeypatch, F):
    # the matrix unit E_00 does not commute with the generators of W_{3,2}
    w = K.w_module(F, 3, 2)
    assert K.hom_space(w, w).dim > 0
    unit = np.zeros(w.dim * w.dim, dtype=np.int64)
    unit[0] = 1
    real = linalg.kernel_fp
    monkeypatch.setattr(linalg, "kernel_fp", lambda a, F: np.vstack([real(a, F), unit]))
    with pytest.raises(ConsistencyError, match="fails to intertwine"):
        K.hom_space(w, w)


def test_hom_space_parameter_mismatch():
    with pytest.raises(InputError):
        K.hom_space(K.trivial_module(F2, 2, 1), K.trivial_module(F3, 2, 1))


def test_decompose_direct_sum_of_w22():
    w = K.w_module(3, 2, 2)
    m = K.direct_sum(w, w)
    dec = K.decompose(m, seed=1)
    assert sorted(s.dim for s in dec.summands) == [3, 3]
    assert dec.verify()
    for s in dec.summands:
        assert K.iso_probe(s, w, seed=2).isomorphic


def test_decompose_trivial_is_indecomposable():
    k = K.trivial_module(F3, 2, 1)
    dec = K.decompose(k, seed=0)
    assert dec.count == 1 and dec.summands[0].dim == 1


def test_decompose_reassembly_exact():
    m = K.direct_sum(K.w_module(3, 3, 2), K.dual(K.w_module(3, 2, 2)))
    rng = random.Random(9)
    from kemod.modules import random_invertible

    g = random_invertible(F3, m.dim, rng)
    ginv = K.linalg.inv_fp(g, 3) if hasattr(K, "linalg") else None
    from kemod.linalg import inv_fp, matmul_fp

    ginv = inv_fp(g, 3)
    scrambled = K.KEModule(F3, 2, [matmul_fp(matmul_fp(g, x, 3), ginv, 3) for x in m.mats])
    assert scrambled.validate().ok
    dec = K.decompose(scrambled, seed=4)
    assert dec.verify()
    assert sum(s.dim for s in dec.summands) == m.dim
    # jordan data refines additively
    from kemod.modules import generic_power_ranks

    total = [0] * 3
    for s in dec.summands:
        for j, r in enumerate(generic_power_ranks(s, 3)):
            total[j] += r
    assert total == generic_power_ranks(m, 3)


def test_decompose_mainexample_kernel():
    m = mainexample_module()
    sub = K.sub_as_module(m, K.generic_kernel_power(m, 2).subspace)[0]
    dec = K.decompose(sub, seed=11)
    assert sorted(s.dim for s in dec.summands) == [3, 3]
    w22 = K.w_module(3, 2, 2)
    for s in dec.summands:
        assert K.iso_probe(s, w22, seed=0).isomorphic


def test_iso_probe_identity():
    m = mainexample_module()
    v = K.iso_probe(m, m, seed=0)
    assert v.isomorphic
    # certificate is an honest intertwiner
    from kemod.linalg import matmul_fp

    f = v.certificate
    for i in range(2):
        assert np.array_equal(matmul_fp(f, m.mats[i], 3), matmul_fp(m.mats[i], f, 3))


def test_iso_probe_rejects_on_loewy_length():
    w = K.w_module(3, 2, 2)
    k3 = K.trivial_module(F3, 2, 3)
    v = K.iso_probe(w, k3, seed=0)
    assert v.kind == "not_isomorphic"
    assert v.witness["invariant"] in ("generic power ranks", "radical series", "socle series")


def test_iso_probe_symmetric_verdicts():
    a = K.w_module(3, 3, 2)
    b = K.dual(K.w_module(3, 3, 2))
    va = K.iso_probe(a, b, seed=1)
    vb = K.iso_probe(b, a, seed=1)
    assert va.kind == vb.kind == "not_isomorphic"
    w = K.w_module(3, 2, 2)
    m2 = K.restrict(w, np.array([[1, 1], [1, 2]]))  # invertible coordinate change
    assert K.iso_probe(w, m2, seed=0).isomorphic
    assert K.iso_probe(m2, w, seed=0).isomorphic


def test_iso_probe_dim_mismatch():
    assert K.iso_probe(K.w_module(3, 2, 2), K.w_module(3, 3, 2), seed=0).kind == "not_isomorphic"


@pytest.mark.parametrize("F", [F2, F3, FieldCtx(5), FieldCtx(2, 3), FieldCtx(3, 2)], ids=lambda F: f"F{F.q}")
def test_random_combination_is_the_loop(F):
    rng = np.random.default_rng(F.q)
    basis = list(rng.integers(0, F.q, (7, 4, 5)))
    a, b = random.Random(3), random.Random(3)
    for _ in range(5):
        assert np.array_equal(decomp._random_combination(F, basis, a, (4, 5)), random_combination_loop(F, basis, b, (4, 5)))
    assert a.random() == b.random()  # the same draws


@pytest.mark.parametrize(
    "build",
    [
        lambda: K.direct_sum(K.w_module(3, 2, 2), K.w_module(3, 2, 2)),
        lambda: K.direct_sum(K.w_module(2, 3, 2), K.dual(K.w_module(2, 3, 2))),
        lambda: K.direct_sum(mainexample_module(), K.trivial_module(F3, 2, 2)),
        lambda: K.direct_sum(K.w_module(FieldCtx(3, 2), 3, 2), K.trivial_module(FieldCtx(3, 2), 2, 1)),
    ],
    ids=["w22+w22", "w32+dual over F2", "mainexample+k^2", "w32+k over F9"],
)
def test_decompositions_and_iso_certificates_are_those_of_the_loop(monkeypatch, build):
    m = build()
    new = K.decompose(m, seed=5)
    iso = K.iso_probe(m, m, seed=5)
    monkeypatch.setattr(decomp, "_random_combination", random_combination_loop)
    m = build()
    old = K.decompose(m, seed=5)
    assert new.count == old.count >= 2
    for s, t in zip(new.summands, old.summands):
        assert all(np.array_equal(a, b) for a, b in zip(s.mats, t.mats))
    assert np.array_equal(new.certificate, old.certificate)
    assert np.array_equal(iso.certificate, K.iso_probe(m, m, seed=5).certificate)


def _scrambled(m, seed):
    """m in a random basis."""
    g = random_invertible(m.ctx, m.dim, random.Random(seed))
    ginv = linalg.inv_fp(g, m.ctx)
    mats = [linalg.matmul_fp(linalg.matmul_fp(g, x, m.ctx), ginv, m.ctx) for x in m.mats]
    return K.KEModule(m.ctx, m.r, mats)


def _sum_of_small_modules(F):
    parts = [K.w_module(F, 3, 2), K.dual(K.w_module(F, 2, 2)), K.w_module(F, 2, 2), K.trivial_module(F, 2, 2)]
    return functools.reduce(K.direct_sum, parts)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"F{F.q}")
def test_sums_split_into_certified_summands(F):
    # every summand is certified: the trivial ones by their zero action, the
    # others by a local endomorphism ring; nothing is left to the rounds
    for m in (_sum_of_small_modules(F), _scrambled(_sum_of_small_modules(F), F.q)):
        dec = K.decompose(m, seed=3)
        assert sorted(s.dim for s in dec.summands) == [1, 1, 3, 3, 5]
        assert dec.verify() and dec.flags == {}


def test_zero_action_splits_without_a_hom_space_or_a_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("the zero action needs no hom space and no draw")

    m = K.trivial_module(F3, 2, 6)
    monkeypatch.setattr(decomp, "hom_space", refuse)
    monkeypatch.setattr(decomp, "_random_combination", refuse)
    dec = K.decompose(m, seed=0)
    assert [s.dim for s in dec.summands] == [1] * 6 and dec.flags == {}
    assert np.array_equal(dec.certificate, np.eye(6, dtype=np.int64))
    # derived from the block: one family, one cache for the equal summands
    assert all(s._family is m._family and s._cache is dec.summands[0]._cache for s in dec.summands)


def _f9_linear_module():
    """X_1 = [[0, 0], [I, 0]] and X_2 = [[0, 0], [C, 0]] over F_3, with C the
    companion matrix of F_9's modulus: End = F_9 + a radical, local but with
    residue field F_9, so the module is indecomposable over F_3 yet splits
    over F_9."""
    c0, c1, _ = FieldCtx(3, 2).modulus
    c = np.array([[0, -c0 % 3], [1, -c1 % 3]])
    z, i = np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)
    return K.KEModule(F3, 2, [np.block([[z, z], [i, z]]), np.block([[z, z], [c, z]])])


def test_a_local_ring_with_a_bigger_residue_field_is_left_to_the_rounds():
    m = _f9_linear_module()
    assert m.validate().ok
    hom = K.hom_space(m, m)
    assert hom.dim == 6 and not decomp._is_local(F3, np.array(hom.basis))
    dec = K.decompose(m, seed=0)
    assert dec.count == 1 and dec.flags == {"rounds_exhausted_blocks": [0]}


@pytest.mark.parametrize("F", [F2, F3], ids=lambda F: f"F{F.q}")
def test_scalar_powers_alone_do_not_make_a_ring_local(F):
    # I, E_12 and E_21 all have scalar P-th powers, but E_12 E_21 is an
    # idempotent: the chain V_1 = E_12 V_0 + E_21 V_0 = V_0 stalls
    eye, e12 = np.eye(2, dtype=np.int64), np.array([[0, 1], [0, 0]])
    assert not decomp._is_local(F, np.array([eye, e12, e12.T]))
    assert decomp._is_local(F, np.array([eye, e12]))


def _invariants(dec):
    return sorted((s.dim, tuple(generic_power_ranks(s, s.ctx.p)), loewy_length(s)) for s in dec.summands)


def _scanned_modules():
    """mixed_family members and the subquotients conjecture-scan decomposes."""
    for mem in generate.mixed_family(9, 1, max_dim=14) + generate.mixed_family(9, 2, max_dim=14):
        m, n = mem.module, min(2, mem.module.ctx.p)
        yield mem.name, m
        try:
            subs = suite._power_subquotients(m, n, n)
        except KemodError:
            continue
        yield from ((f"{mem.name} {tag}", q) for tag, q in zip(("K/IK", "K(M/I)"), subs))


def test_structural_steps_agree_with_the_rounds_alone(monkeypatch):
    for name, m in _scanned_modules():
        new = K.decompose(m, seed=5, rounds=24)
        with monkeypatch.context() as patch:
            patch.setattr(decomp, "_split_rec", split_by_rounds)
            old = K.decompose(m, seed=5, rounds=24)
        assert _invariants(new) == _invariants(old), name
        flagged = [len(d.flags.get("rounds_exhausted_blocks", ())) for d in (new, old)]
        assert flagged[0] <= flagged[1], name


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"F{F.q}")
def test_hom_space_is_that_of_the_stacked_check(F):
    zero = K.KEModule(F, 2, [np.zeros((0, 0), dtype=np.int64)] * 2)
    mods = [K.w_module(F, 3, 2), K.dual(K.w_module(F, 2, 2)), K.trivial_module(F, 2, 2), zero,
            _scrambled(_sum_of_small_modules(F), 1)]
    for a, b in itertools.product(mods, repeat=2):
        new, old = K.hom_space(a, b).basis, hom_space_stacked_check(a, b)
        assert len(new) == len(old)
        assert all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(new, old))
