"""Block-perturbed consistent matrices and their efficient vectors.

A_n(B) places a small reciprocal block B in the leading corner and fills
the rest with ones.  For these matrices the efficient set has closed-form
descriptions, which makes generating certified efficient vectors cheap.
"""

import random
from fractions import Fraction as F

from effvec import (
    ThreeBlockMatrix,
    TwoBlockMatrix,
    canonical_form,
    detect_minimal_block,
    is_efficient,
    lcompl_membership,
    lcompl_sample,
    three_block_membership,
    two_block_is_efficient,
    validate_reciprocal,
)

rng = random.Random(1)

# --- 2-block: single perturbed entry x --------------------------------------
S = TwoBlockMatrix(F(3), 5)
print("2-block, x=3, n=5: w is efficient iff w2 <= w3..w5 <= w1 <= 3*w2")
for w in [(3, 1, 2, 1, 3), (4, 1, 2, 1, 3)]:
    chain = two_block_is_efficient(S, w)
    assert chain == is_efficient(S.matrix(), w).efficient
    print(f"  w = {w}: {'efficient' if chain else 'inefficient'}")

# --- bounded-tail extension -------------------------------------------------
B = validate_reciprocal([[1, 2, 3], [F(1, 2), 1, F(1, 2)], [F(1, 3), 2, 1]])
form = canonical_form(B, 6)
head = tuple(B.column(0))  # columns of the block are always efficient for it
print(f"\nhead {head} efficient for the block; tails must stay in "
      f"[{min(head)}, {max(head)}]")
for g in lcompl_sample(form, head, rng, count=3):
    assert lcompl_membership(form, g.vector)
    assert is_efficient(form.matrix(), g.vector).efficient
    print("  generated efficient vector:", g.vector)

# --- 3-block: union over 4-subvector routes ---------------------------------
tbm = ThreeBlockMatrix(B, 6)
u = (F(13), F(8), F(7), F(12), F(7), F(7))
ok, j = three_block_membership(tbm, u)
print(f"\n3-block u = {u}: efficient={ok}, witness position j={j + 1} (1-based)")
print("note: the head (13, 8, 7) alone is NOT efficient for the block --")
print("efficiency of the whole vector does not restrict to the block here")
assert not is_efficient(B, u[:3]).efficient

# --- recovering the block from a scrambled matrix ---------------------------
d = detect_minimal_block(tbm.matrix())
print(f"\ndetected minimal perturbed block at 1-based indices "
      f"{[i + 1 for i in d.K]}")
