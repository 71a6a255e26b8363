"""When is the Perron eigenvector of a block-perturbed matrix efficient?

The principal eigenvector is the classical weight-extraction method for
pairwise-comparison matrices, but it is not always Pareto efficient.  For
A_n(B) with a 3-by-3 block the verdict depends only on the block (plus
simple sufficient conditions); with a constant block it is always yes.
"""

from fractions import Fraction as F

from effvec import (
    ConstantBlockMatrix,
    ThreeBlockMatrix,
    block_matrix,
    canonical_form,
    constant_block_perron_check,
    is_efficient,
    perron,
    perron_efficiency_via_submatrix,
    perron_tail_structure,
    three_block_sufficient,
)
from effvec.fixtures import three_block_from_triple

# --- verdict flips under tiny parameter changes ------------------------------
print("n = 6, block parameterized by (a12, a13, a23):")
for triple in [(F(2), F(17, 2), F(2)), (F(2), F(8), F(2))]:
    B = three_block_from_triple(*triple)
    A = block_matrix(B, 6)
    r = perron(A)
    form = canonical_form(B, 6)
    ts = perron_tail_structure(form, r)
    verdict = perron_efficiency_via_submatrix(form, r)
    print(f"  {tuple(map(str, triple))}: lambda={r.lam:.6f}, "
          f"equal tail={ts.ok}, Perron vector {verdict.status}")

# --- sufficient conditions read off the block --------------------------------
B = three_block_from_triple(F(2), F(4), F(3))
cond = three_block_sufficient(B)
print(f"\nblock (2, 4, 3): q = a13 - a23*a12 = {cond.q}, matched {cond.matched}")
print("matched condition guarantees efficiency for EVERY n >= 4:")
for n in (4, 7, 10):
    A = block_matrix(B, n)
    r = perron(A)
    v = is_efficient(A.to_float(), r.w)
    print(f"  n={n}: {v.status}")
    assert v.efficient

# --- constant blocks: always efficient ---------------------------------------
print("\nconstant block C_s(x): the Perron vector is efficient for all x, s, n")
for x, s, n in [(F(5), 3, 7), (F(1, 4), 4, 9), (F(9), 2, 5)]:
    verdict = constant_block_perron_check(ConstantBlockMatrix(x, s, n))
    print(f"  x={x}, s={s}, n={n}: {verdict.status}")
