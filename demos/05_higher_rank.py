"""Rank three and beyond: exact generic data, constancy tested on the
rational points, and splitting types along lines.

For r >= 3 the parameter space is P^{r-1}; full splitting types no longer
exist, but generic ranks are still computed exactly (a lattice of points in
an extension field), constancy is tested on the rational points when they
are few (a drop there is a witness; otherwise the verdict is only
"probably constant", with no error bound), and restrictions to lines
recover honest P^1 splitting types.
"""

import numpy as np

import kemod as K

m = K.free_module(K.FieldCtx(2), 3, 1)  # the free module, dim 8
print("free module, r = 3, p = 2:", K.jordan_type(m))

dec = K.constant_jrank_decide(m, 1)  # the 7 points of P^2(F_2) show no drop
print("constant 1-rank:", dec.kind, "rank", dec.rank)

# n-th power generic kernels work in every rank: the sum of the kernels at
# the points of generic rank of one lattice in an extension of F_2.
print("dim K^1 =", K.generic_kernel(m).dim, " dim I^1 =", K.generic_image_power(m, 1).dim)

# Lines in P^2 correspond to rank-2 homogeneously embedded subgroups; the
# pullback of each bundle to a line is computed by restricting the module.
lines = [
    [[1, 0], [0, 1], [0, 0]],
    [[1, 0], [0, 1], [1, 1]],
    [[0, 1], [1, 1], [1, 0]],
]
for ln in lines:
    st = K.line_restriction_splitting(m, ln, 2)
    print("line", ln, "-> F_2 restricted:", st.human())

# Slice dimensions of the subquotient sheaves exist in any rank.
print("F_1 slice dims of the trivial module on P^2:", K.fi_slice_dims(K.trivial_module(K.FieldCtx(3), 3, 1), 1, 4))
