import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kemod.errors import InputError
from kemod.gf import FieldCtx
from kemod.subspace import Subspace

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)


def random_subspace(draw, ctx, ambient):
    nrows = draw(st.integers(0, ambient))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, ctx.p - 1), min_size=ambient, max_size=ambient),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Subspace.span(ctx, ambient, np.array(rows, dtype=np.int64).reshape(nrows, ambient))


subspace_strategy = st.composite(
    lambda draw, ctx=F3, ambient=5: random_subspace(draw, ctx, ambient)
)


def test_standard_basis_sum():
    e1 = Subspace.span(F2, 3, np.array([[1, 0, 0]]))
    e2 = Subspace.span(F2, 3, np.array([[0, 1, 0]]))
    s = e1.sum(e2)
    assert s.dim == 2
    assert s == Subspace.span(F2, 3, np.array([[1, 0, 0], [0, 1, 0]]))


def test_ambient_mismatch_raises():
    a = Subspace.full(F2, 3)
    b = Subspace.full(F2, 4)
    with pytest.raises(InputError):
        a.sum(b)


@settings(max_examples=40, deadline=None)
@given(subspace_strategy())
def test_intersect_idempotent(v):
    assert v.intersect(v) == v


@settings(max_examples=40, deadline=None)
@given(subspace_strategy())
def test_double_perp(v):
    assert v.perp().perp() == v


@settings(max_examples=40, deadline=None)
@given(subspace_strategy())
def test_perp_dimension(v):
    assert v.dim + v.perp().dim == v.ambient


@settings(max_examples=30, deadline=None)
@given(subspace_strategy(), subspace_strategy())
def test_sum_and_intersect_commute_and_bound(a, b):
    assert a.sum(b) == b.sum(a)
    assert a.intersect(b) == b.intersect(a)
    # modular dimension identity
    assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


@settings(max_examples=30, deadline=None)
@given(subspace_strategy(), subspace_strategy())
def test_containments(a, b):
    s = a.sum(b)
    assert s.contains(a) and s.contains(b)
    i = a.intersect(b)
    assert a.contains(i) and b.contains(i)


@settings(max_examples=25, deadline=None)
@given(subspace_strategy(), subspace_strategy())
def test_perp_reverses_sum(a, b):
    assert a.sum(b).perp() == a.perp().intersect(b.perp())


def test_complement_in():
    big = Subspace.full(F3, 4)
    small = Subspace.span(F3, 4, np.array([[1, 0, 0, 0], [0, 1, 0, 0]]))
    comp = small.complement_in(big).basis
    joined = small.sum(Subspace.span(F3, 4, np.array(comp)))
    assert joined == big
    assert len(comp) == 2


def test_extension_field_subspace_ops():
    f4 = FieldCtx(2, 2)
    g = f4.gen()
    v = Subspace.span(f4, 3, [[f4.one, g, f4.zero]])
    assert v.dim == 1
    assert v.perp().dim == 2
    assert v.perp().perp() == v
    w = Subspace.span(f4, 3, [[g, g * g, f4.zero]])  # same line, scaled by g
    assert v == w
