"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The generated-family criteria share a single session-scoped family of 100
verified constant-Jordan-type modules over p in {2, 3, 5} with dim <= 24.
Every assertion is exact (integer / subspace equality); nothing is
tolerance-based.
"""

import random

import numpy as np
import pytest

import kemod as K
from kemod.generate import mixed_family
from kemod.gf import FieldCtx
from kemod.modules import random_invertible
from kemod.sheaf import SplittingType
from kemod.suite import conjecture_scan
from fixdata import mainexample_module, sixteen_module

FAMILY_SEED = 20260811


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {tag} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def w_grid():
    for p in (2, 3, 5):
        for n in range(1, 9):
            for d in range(1, min(n, p) + 1):
                yield p, n, d


@pytest.fixture(scope="session")
def family():
    return [(mem.name, mem.module) for mem in mixed_family(100, seed=FAMILY_SEED)]


def test_criterion_01_w_module_jordan_types():
    checked = 0
    for p, n, d in w_grid():
        w = K.w_module(p, n, d)
        dec = K.constant_jordan_type(w)
        expected = [0] * p
        expected[d - 1] += n - d + 1
        for j in range(1, d):
            expected[j - 1] += 1
        ok = dec.is_cjt and dec.jordan_type == K.JordanType(p, expected)
        if not ok:
            report(1, False, f"W_({n},{d}) over F_{p}: got {dec}")
        checked += 1
    report(1, True, f"{checked} W-modules, exact Jordan types")


def test_criterion_02_w_module_bundles():
    checked = 0
    for p, n, d in w_grid():
        w = K.w_module(p, n, d)
        for i in range(1, d + 1):
            expect = SplittingType([-n + i]) if i < d else SplittingType([0] * (n - d + 1))
            got = K.splitting_type(w, i)
            if got != expect:
                report(2, False, f"F_{i}(W_({n},{d})) over F_{p}: {got.twists}")
            checked += 1
    report(2, True, f"{checked} splitting types over the full grid")


def test_criterion_03_dual_line_bundles():
    checked = 0
    for p in (2, 3, 5):
        for n in range(2, 9):
            got = K.splitting_type(K.dual(K.w_module(p, n, 2)), 1)
            if got != SplittingType([n - 1]):
                report(3, False, f"dual W_({n},2) over F_{p}: {got.twists}")
            checked += 1
    report(3, True, f"{checked} dual W-modules give O(n-1)")


def test_criterion_04_worked_example():
    m = mainexample_module()
    ok1 = K.splitting_type(m, 1) == SplittingType([-1, -1])
    ok2 = K.splitting_type(K.dual(m), 1) == SplittingType([1, 1])
    k2 = K.generic_kernel_power(m, 2)
    ok3 = k2.dim == 6
    sub = K.sub_as_module(m, k2.subspace)[0]
    dec = K.decompose(sub, seed=5)
    w22 = K.w_module(3, 2, 2)
    ok4 = dec.count == 2 and all(K.iso_probe(s, w22, seed=1).isomorphic for s in dec.summands)
    report(4, ok1 and ok2 and ok3 and ok4,
           f"F1={K.splitting_type(m,1).human()}, dual F1={K.splitting_type(K.dual(m),1).human()}, "
           f"dim K^2={k2.dim}, summands={[s.dim for s in dec.summands]}")


def test_criterion_05_sixteen_example():
    m = sixteen_module()
    dec = K.constant_jordan_type(m)
    ok1 = dec.is_cjt and repr(dec.jordan_type) == "[3]^4[2]^2"
    top = K.filtration_layer(m, -1)
    bottom = K.filtration_layer(m, 2)
    ok2 = top.dim == m.dim and bottom.dim == 0  # M = J^{-1}K(M)/J^2K(M)
    k2 = K.generic_kernel_power(m, 2).subspace
    ok3 = top.contains(k2) and k2.dim < top.dim  # strict inclusion
    report(5, ok1 and ok2 and ok3,
           f"type={dec.jordan_type}, J^-1K={top.dim}, J^2K={bottom.dim}, K^2={k2.dim}")


def test_criterion_06_generic_kernel_reduction(family):
    pairs = 0
    for name, m in family:
        for i in range(1, m.ctx.p + 1):
            st = K.splitting_type(m, i)
            lay = K.layer_module(m, -i, i + 1)
            got = K.splitting_type(lay, i)
            if got != st:
                report(6, False, f"{name} i={i}: {st.twists} vs layer {got.twists}")
            pairs += 1
    report(6, True, f"{len(family)} modules, {pairs} exact layer reductions")


def test_criterion_07_power_reduction(family):
    pairs = 0
    for name, m in family:
        p = m.ctx.p
        for i in range(1, p + 1):
            st = K.splitting_type(m, i)
            n = i + 1
            if n > p:
                continue  # K^n = M and I^n K^n = 0: the reduction is the identity
            ksub = K.sub_as_module(m, K.generic_kernel_power(m, n).subspace)[0]
            q1 = K.quotient_module(ksub, K.generic_image_power(ksub, n))
            got1 = K.splitting_type(q1, i)
            q2big = K.quotient_module(m, K.generic_image_power(m, n))
            q2 = K.sub_as_module(q2big, K.generic_kernel_power(q2big, n).subspace)[0]
            got2 = K.splitting_type(q2, i)
            if not (got1 == st == got2):
                report(7, False, f"{name} i={i}: {st.twists} vs {got1.twists}/{got2.twists}")
            pairs += 2
    report(7, True, f"{len(family)} modules, {pairs} exact power reductions")


def test_criterion_08_duality_suite(family):
    pairs = 0
    for name, m in family:
        md = K.dual(m)
        for i in range(1, m.ctx.p + 1):
            st = K.splitting_type(m, i)
            expect = SplittingType(-a - i + 1 for a in st.twists)
            got = K.splitting_type(md, i)
            if got != expect:
                report(8, False, f"{name} i={i}: expected {expect.twists}, got {got.twists}")
            pairs += 1
    report(8, True, f"{pairs} exact dual splitting identities")


def test_criterion_09_pullback_suite(family):
    rng = random.Random(FAMILY_SEED)
    pairs = 0
    idx = 0
    while pairs < 50:
        name, m = family[idx % len(family)]
        idx += 1
        if m.dim == 0:
            continue
        amat = random_invertible(m.ctx, 2, rng)
        for i in range(1, m.ctx.p + 1):
            st = K.splitting_type(m, i)
            got = K.line_restriction_splitting(m, amat, i)
            if got != st:
                report(9, False, f"{name} i={i}: coordinate change broke the splitting")
        # rank-one restrictions: Jordan multiplicities match bundle ranks
        lam = [rng.randrange(m.ctx.p) for _ in range(2)]
        if not any(lam):
            lam = [1, 0]
        rest = K.restrict(m, np.array([[lam[0]], [lam[1]]], dtype=np.int64))
        jt = K.jordan_type(rest)
        for i in range(1, m.ctx.p + 1):
            if jt.mult(i) != K.splitting_type(m, i).rank:
                report(9, False, f"{name}: rank-one restriction multiplicity mismatch at {i}")
        pairs += 1
    report(9, True, f"{pairs} (module, invertible change) pairs + rank-one restrictions")


def test_criterion_10_chern_identity(family):
    for name, m in family:
        chk = K.filtration_chern_check(m)
        if not chk["ok"]:
            report(10, False, f"{name}: total {chk['total']}")
    report(10, True, f"{len(family)} exact integer Chern identities")


def test_criterion_11_equal_images_reduction():
    rng = random.Random(7)
    mods = []
    for p, n, d in [(2, 5, 2), (3, 4, 3), (3, 6, 2), (5, 5, 4), (5, 4, 3)]:
        mods.append((f"W({n},{d})p{p}", K.w_module(p, n, d)))
    # random quotients of W-modules (equal images passes to quotients)
    from kemod.generate import _random_w_quotient

    for p in (2, 3, 5):
        ctx = FieldCtx(p)
        for t in range(3):
            q = _random_w_quotient(ctx, rng, 16)
            mods.append((f"Wquot p{p} #{t}", q))
    pairs = 0
    for name, m in mods:
        eip = K.equal_images_decide(m)
        if eip.verdict is not True:
            report(11, False, f"{name} lost the equal images property")
        rs = K.radical_series(m)
        for i in range(1, m.ctx.p + 1):
            st = K.splitting_type(m, i)
            for j in range(0, i):
                base = rs[j] if j < len(rs) else rs[-1]
                radj = K.sub_as_module(m, base)[0]
                got = K.splitting_type(radj, i - j)
                if got != st:
                    report(11, False, f"{name} (i={i}, j={j}): {st.twists} vs {got.twists}")
                pairs += 1
    report(11, True, f"{len(mods)} equal-images modules, {pairs} radical reductions")


def test_criterion_12_kernel_image_duality(family):
    pairs = 0
    for name, m in family:
        for n in range(1, m.ctx.p + 1):
            # generic_image_power computes the direct r=2 intersection and
            # raises on disagreement; compare explicitly against the perp too
            direct = K.generic_image_power(m, n)
            viaperp = K.generic_kernel_power(K.dual(m), n).subspace.perp()
            if direct != viaperp:
                report(12, False, f"{name} n={n}")
            pairs += 1
    report(12, True, f"{pairs} exact perp identities")


def test_criterion_13_conjecture_scan():
    rep = conjecture_scan(200, seed=FAMILY_SEED, family="all")
    well_formed = (
        rep["scanned"] >= 1
        and "nonzero_candidates" in rep
        and rep["summands_examined"] > 0
        and not rep["anomalies"]
    )
    # either outcome passes; silence does not
    outcome = rep["outcome"]
    detail = (
        f"scanned={rep['scanned']}, summands={rep['summands_examined']}, "
        f"loewy3={rep['loewy3_summands']}, candidates={len(rep['nonzero_candidates'])}"
    )
    report(13, well_formed, f"{outcome}; {detail}")
