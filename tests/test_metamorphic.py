"""Every answer on a dense input against what its construction implies.

A module file comes in whatever basis its author chose, so a basis-aligned
module and the same module after a random change of basis and coordinates
must give the same answers, and both the ones their construction implies.
The disguised modules here are dense, so their pencils reach the sweep's
long eliminations that the aligned ones skip.
"""

import random

import pytest

import kemod as K
from kemod.gf import FieldCtx
from test_pencil import _disguise


def _w_twists(n, d, i):
    """The twists of F_i(W_{n,d}): O(i - n) for i < d, O^(n-d+1) for i = d,
    the zero bundle above."""
    return (i - n,) if i < d else (0,) * (n - d + 1) if i == d else ()


def _dual_twists(twists, i):
    """The twists of F_i(M*): a -> -a - i + 1."""
    return tuple(-a - i + 1 for a in twists)


# W_{n,d} + W_{n',d'}*, of dims 20-33
SUMS = [
    (FieldCtx(3), (7, 3), (6, 2)),
    (FieldCtx(3), (10, 3), (3, 2)),
    (FieldCtx(5), (5, 4), (5, 2)),
    (FieldCtx(5), (6, 5), (2, 2)),
    (FieldCtx(2, 2), (6, 2), (5, 2)),
    (FieldCtx(2, 2), (11, 2), (6, 2)),
]


@pytest.mark.parametrize("F, a, b", SUMS, ids=lambda x: f"F{x.q}" if isinstance(x, FieldCtx) else "W%d,%d" % x)
def test_splitting_types_of_disguised_w_sums(F, a, b):
    """Every splitting type of a disguised W-sum is the one the construction
    gives (direct sums add twists, duals send a to -a - i + 1) and the one
    of the aligned module."""
    m = K.direct_sum(K.w_module(F, *a), K.dual(K.w_module(F, *b)))
    assert 20 <= m.dim <= 33
    disguised = _disguise(m, random.Random(m.dim))
    for i in range(1, F.p + 1):
        want = tuple(sorted(_w_twists(*a, i) + _dual_twists(_w_twists(*b, i), i), reverse=True))
        assert K.splitting_type(m, i).twists == want, i
        assert K.splitting_type(disguised, i).twists == want, i
