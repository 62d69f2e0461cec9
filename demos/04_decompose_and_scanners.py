"""Decomposition, isomorphism probing, and the evidence scanners.

Summands are always genuine (the change-of-basis certificate is verified
exactly).  Trivial summands and summands with a local endomorphism ring are
certified indecomposable; only a block left to the random Fitting rounds
carries sampling confidence.  Two scanners assemble evidence on open
structural questions; they report, never assert.
"""

import kemod as K
from kemod.suite import conjecture_scan, question_scan

w = K.w_module(3, 2, 2)
m = K.direct_sum(K.direct_sum(w, K.dual(w)), K.trivial_module(K.FieldCtx(3), 2, 1))
dec = K.decompose(m, seed=7)
print("decomposing W + W# + k:", [s.dim for s in dec.summands],
      "| certificate verified:", dec.verify())

matches = sum(K.iso_probe(s, w, seed=0).isomorphic for s in dec.summands)
print("summands isomorphic to W_{2,2}:", matches, "of", dec.count)

# Scanner 1: Loewy-length-3 summands of K^2(M)/I^2 K^2(M) across a family
# of constant-Jordan-type modules; the question is whether the first
# bundle always vanishes on them.
rep = conjecture_scan(count=30, seed=11)
print("\nzero-sheaf scan:", rep["outcome"])
print("  modules:", rep["scanned"], "summands:", rep["summands_examined"],
      "loewy-3:", rep["loewy3_summands"])

# Scanner 2: is K^n(M)/I^m K^n(M) always isomorphic to K^n(M/I^m(M))?
rep = question_scan(count=20, seed=11)
print("\nsubquotient-isomorphism scan:", rep["verdicts"])
for item in rep["attention"]:
    print("  needs attention:", item)
