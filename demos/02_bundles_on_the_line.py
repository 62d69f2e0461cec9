"""From constant Jordan type to vector bundles on the projective line.

A constant-Jordan-type module M gives, for each block length i, a vector
bundle on P^1 of rank a_i (the number of length-i blocks).  Every bundle
on P^1 is a direct sum of twists O(a); the multiset of twists is the
splitting type, and this library computes it exactly.
"""

import kemod as K

p = 3
for n, d in [(2, 2), (4, 3), (5, 2)]:
    w = K.w_module(p, n, d)
    print(f"W_({n},{d}) over F_{p}, Jordan type {K.jordan_type(w)}:")
    for i in range(1, d + 1):
        st = K.splitting_type(w, i)
        print(f"  F_{i} = {st.human()}")

# Duals flip and shift the twists: F_i(M^#) ~ F_i(M)^v(-i+1).
w52 = K.w_module(3, 5, 2)
print("\nF_1(W_{5,2})        =", K.splitting_type(w52, 1).human())
print("F_1(dual W_{5,2})   =", K.splitting_type(K.dual(w52), 1).human())

# The rank of F_i is the number a_i of length-i blocks in the Jordan type.
jt = K.constant_jordan_type(w52).jordan_type
print("\nranks equal block counts:",
      all(K.splitting_type(w52, i).rank == jt.mult(i) for i in range(1, p + 1)))

# The slice filtration of the trivial bundle forces an exact integer
# identity among degrees and ranks of the F_i.
chk = K.filtration_chern_check(w52)
print("first Chern identity:", chk["ok"], "(total =", str(chk["total"]) + ")")

# Coordinate changes of the line do not move the twists.
import random

from kemod.modules import random_invertible

rng = random.Random(1)
amat = random_invertible(K.FieldCtx(3), 2, rng)
print("pullback along a coordinate change:",
      K.line_restriction_splitting(w52, amat, 1).human())
