"""form_verdict decides A_n(B) from its block and sorted values, and must say
what is_efficient says on the n-by-n matrix: the same components, the same
dominator bit for bit, and, when read, the same digraph.  The closed forms
and the Perron verdicts that call it are held to is_efficient here too."""

import random
from fractions import Fraction as F
from itertools import islice

import numpy as np
import pytest

from effvec import (
    BlockPerturbedForm,
    ConstantBlockMatrix,
    ReciprocalMatrix,
    ThreeBlockMatrix,
    TwoBlockMatrix,
    block_matrix,
    build_digraph,
    canonical_form,
    constant_block_perron_check,
    constant_block_sample,
    detect_minimal_block,
    form_verdict,
    is_efficient,
    lcompl_membership,
    lcompl_sample,
    perron,
    perron_efficiency_via_submatrix,
    three_block_generate,
    three_block_membership,
    two_block_is_efficient,
    two_block_sample,
    union_route_member,
)
from effvec import cli, efficiency
from effvec.errors import PreconditionError
from effvec.fixtures import B3, TABLE1, table1_matrix, three_block_from_triple

from conftest import rand_frac, rand_reciprocal, rand_vector
from test_exact_kernels import scrambled_blocks, vectors

#: relative offsets for near ties: well inside TOL_EDGE, inside it, and beyond it
OFFSETS = (1e-13, 1e-10, 5e-10, 3e-9)


def near(w, rng):
    """w with every entry scaled by 1 +- an offset from OFFSETS, or kept."""
    return tuple(x * (1 + rng.choice((0,) + OFFSETS) * rng.choice((1, -1))) for x in w)


def assert_same(form, w):
    """form_verdict(form, w) is is_efficient(form.matrix(), w) in components,
    dominator and digraph; returns the verdict."""
    got, want = form_verdict(form, w), is_efficient(form.matrix(), w)
    assert got.components == want.components, (form.block, w)
    assert got.dominator == want.dominator, (form.block, w)
    assert list(map(type, got.dominator or ())) == list(map(type, want.dominator or ()))
    n, G = form.n, got.digraph
    assert [[G.has_edge(i, j) for j in range(n)] for i in range(n)] == want.digraph.adj.tolist()
    assert np.array_equal(G.adj, want.digraph.adj), (form.block, w)
    return got


def float_three_block(rng):
    return three_block_from_triple(*(9.0 ** rng.uniform(-1, 1) for _ in range(3)))


def families(rng, exact):
    """(form, sampled vectors) for each of the four family samplers."""
    if exact:
        x, B = rand_frac(rng), rand_reciprocal(3, rng)
    else:
        x, B = 9.0 ** rng.uniform(-1, 1), float_three_block(rng)
    n = rng.randint(4, 9)
    S = TwoBlockMatrix(x, n)
    lc = canonical_form(B, n)
    tb = ThreeBlockMatrix(B, n)
    M = ConstantBlockMatrix(x, rng.randint(3, 4), n + 1)
    seeds = iter(lambda: tuple(rand_frac(rng) if exact else rng.uniform(0.1, 9) for _ in range(4)),
                 None)
    return [
        (S, [g.vector for g in two_block_sample(S, rng, 6)]),
        (lc, [g.vector for g in lcompl_sample(lc, B.column(rng.randrange(3)), rng, 6)]),
        (tb, [g.vector for g in islice(three_block_generate(tb, seeds, rng), 6)]),
        (M, [g.vector for g in constant_block_sample(M, rng, 6)]),
    ]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_family_samplers(exact):
    """Sampled vectors (efficient), the same with a tail entry moved past
    the head's maximum (inefficient), and, on floats, with near ties."""
    rng = random.Random(11 if exact else 12)
    inefficient = 0
    for _ in range(25):
        for form, ws in families(rng, exact):
            for w in ws:
                assert assert_same(form, w).efficient
                k = rng.randrange(form.s, form.n)
                pushed = w[:k] + (max(w) * 2,) + w[k + 1:]
                inefficient += not assert_same(form, pushed).efficient
                if not exact:
                    assert_same(form, near(w, rng))
    assert inefficient >= 500


def test_scrambled_corpus():
    """The scrambled exact A_n(B) of test_exact_kernels, detected; vectors in
    input coordinates mapped into the form's by from_input, and their floats."""
    rng = random.Random(5)
    inefficient = 0
    for A in scrambled_blocks():
        form = detect_minimal_block(A).form
        for w in vectors(A, rng, lambda: rand_vector(A.n, rng)):
            h = form.from_input(w)
            inefficient += not assert_same(form, h).efficient
            assert_same(form, tuple(map(float, h)))
    assert inefficient >= 150


def test_float_near_ties():
    """Head and tail entries at each other's values, moved by near-tie offsets:
    the tolerant relation is not transitive, so sorting alone would miss edges."""
    rng = random.Random(13)
    for _ in range(400):
        s, n = rng.randint(2, 4), rng.randint(5, 9)
        B = rand_reciprocal(s, rng).to_float()
        form = canonical_form(B, n)
        head = B.column(rng.randrange(s))
        w = head + tuple(rng.choice(head) for _ in range(n - s))
        assert_same(form, near(w, rng))


def test_form_verdict_reads_w_once(monkeypatch):
    """form_verdict reads w by one weights call: its scores, its digraph's
    array and its dominator take that checked w."""
    calls = []
    for cls in (ReciprocalMatrix, BlockPerturbedForm):
        monkeypatch.setattr(cls, "weights", lambda self, w, read=cls.weights:
                            calls.append(w) or read(self, w))
    for B, w in ((B3, (1, 1, 1, 9, 1)),
                 (float_three_block(random.Random(5)), (1.0, 1.0, 1.0, 9.0, 1.0))):
        calls.clear()
        verdict = form_verdict(canonical_form(B, 5), w)
        assert not verdict.efficient and verdict.digraph.adj.any()
        assert calls == [w]


def test_three_block_near_tie_example():
    """No union route holds on this float pair, yet G(A, w) is strongly
    connected: tolerant ties need not chain, so the verdict is
    form_is_efficient's, with no witness."""
    A = ThreeBlockMatrix(three_block_from_triple(0.30315149147492815, 0.26695329780779065,
                                                 0.41717732363987137), 8)
    w = (0.26695329778109533, 0.4171773223883394, 0.9999999995, 0.41717732343128267,
         0.9999999999999, 0.26695329780779065, 0.9999999999999, 1.0000000005)
    assert is_efficient(A.matrix(), w).efficient
    assert not any(union_route_member(A, w, j) for j in range(3, A.n))
    assert three_block_membership(A, w) == (True, None)


def test_three_block_membership_on_near_ties():
    """The float 3-block union test says what is_efficient says on 4,000
    vectors built on ties: a head from a column of A_4(B), tail entries drawn
    from that column, then every entry moved by near(); a witness j is a
    route that holds."""
    rng = random.Random(1)
    for _ in range(4000):
        A = ThreeBlockMatrix(float_three_block(rng), rng.randint(4, 9))
        col = block_matrix(A.block, 4).column(rng.randrange(4))
        w = near(col[:3] + tuple(rng.choice(col) for _ in range(A.n - 3)), rng)
        ok, j = three_block_membership(A, w)
        assert ok == is_efficient(A.matrix(), w).efficient, (A.block, w)
        assert j is None or union_route_member(A, w, j)


def test_two_block_near_tie_example():
    """A chain of tolerant ties is no chain: w_3 = 3 ties w_1 and w_4 each way
    within TOL_EDGE, but w_4 is 1e-9 relative above w_1, beyond it, so the
    chain test read w_4 outside [w_2, w_1] while G(A, w) reaches it through w_3."""
    S = TwoBlockMatrix(3.0, 4)
    w = (3 * (1 - 5e-10), 1.0, 3.0, 3 * (1 + 5e-10))
    assert is_efficient(S.matrix(), w).efficient
    assert two_block_is_efficient(S, w)
    assert form_verdict(S, w).efficient


def test_float_closed_forms_build_no_matrix(monkeypatch):
    """On floats the closed forms read form_verdict's components only: an
    inefficient vector builds no A_n(B) and no dominator."""
    def refuse(*args):
        raise AssertionError("A_n(B) or a dominator built")

    S = TwoBlockMatrix(3.0, 6)
    form = canonical_form(float_three_block(random.Random(3)), 6)
    head = form.block.column(0)
    monkeypatch.setattr(efficiency, "_dominator", refuse)
    monkeypatch.setattr(type(S), "matrix", refuse)
    monkeypatch.setattr(type(form), "matrix", refuse)
    assert not two_block_is_efficient(S, (3.0, 1.0, 2.0, 2.0, 2.0, 5.0))
    assert not lcompl_membership(form, head + (max(head) * 2,) * 3)


@pytest.mark.parametrize("scale", [1 + d for d in OFFSETS] + [1 - d for d in OFFSETS])
def test_closed_forms_on_near_ties(scale):
    """Both float closed forms agree with is_efficient on their samplers'
    vectors with entries scaled by 1 +- 1e-13, 1e-10, 5e-10 and 3e-9."""
    rng = random.Random(int(scale * 1e13) % 2**32)
    for _ in range(40):
        S = TwoBlockMatrix(9.0 ** rng.uniform(-1, 1), rng.randint(3, 8))
        for g in two_block_sample(S, rng, 5):
            w = tuple(x * scale if rng.random() < 0.5 else x for x in g.vector)
            assert two_block_is_efficient(S, w) == is_efficient(S.matrix(), w).efficient
        B = float_three_block(rng)
        form = canonical_form(B, rng.randint(4, 8))
        for g in lcompl_sample(form, B.column(rng.randrange(3)), rng, 5):
            w = tuple(x * scale if rng.random() < 0.5 else x for x in g.vector)
            want = is_efficient(form.matrix(), w).efficient
            if is_efficient(B, w[:3]).efficient:
                assert lcompl_membership(form, w) == want
            else:
                with pytest.raises(PreconditionError):
                    lcompl_membership(form, w)


def perron_corpus():
    """(form, Perron result) pairs: random exact and float 3- to 5-blocks,
    constant blocks either way up, and the TABLE1 rows."""
    rng = random.Random(17)
    out = []
    for _ in range(30):
        s = rng.randint(3, 5)
        B = rand_reciprocal(s, rng)
        for block in (B, B.to_float()):
            form = canonical_form(block, s + rng.randint(1, 40))
            out.append((form, perron(form.matrix())))
    for x in (F(3), F(1, 3), 2.5, 0.4):
        M = ConstantBlockMatrix(x, 4, 9).oriented()
        out.append((M, perron(M.matrix())))
    for row in range(len(TABLE1)):
        tbm = table1_matrix(row)
        out.append((tbm, perron(tbm.matrix())))
    return out


def test_perron_verdict_is_the_reduced_pair():
    """perron_efficiency_via_submatrix is is_efficient on A_{s+1}(B) and the
    leading s + 1 entries."""
    for form, r in perron_corpus():
        got = perron_efficiency_via_submatrix(form, r)
        want = is_efficient(block_matrix(form.block, form.s + 1), r.w[: form.s + 1])
        assert got.components == want.components and got.dominator == want.dominator
        assert np.array_equal(got.digraph.adj, want.digraph.adj)


def test_no_n_by_n_digraph(monkeypatch, capsys):
    """With G(A, w)'s builder patched to raise, every Perron verdict of the
    corpus and an n = 1000 generate still answer; a verdict's digraph builds
    its adj when it is first read, once, and it is build_digraph's."""
    corpus = perron_corpus()

    def refuse(*args):
        raise AssertionError("G(A, w) built")

    with monkeypatch.context() as m:
        m.setattr(efficiency, "_digraph", refuse)
        verdicts = [perron_efficiency_via_submatrix(form, r) for form, r in corpus]
        assert cli.main(["generate", "2block", "--x", "3", "--n", "1000", "--count", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    for v, (form, r) in zip(verdicts, corpus):
        G = v.digraph
        assert "adj" not in vars(G)
        adj = G.adj
        assert G.adj is adj and not adj.flags.writeable
        want = build_digraph(block_matrix(form.block, form.s + 1), r.w[: form.s + 1])
        assert np.array_equal(adj, want.adj) and G.n == form.s + 1


def test_constant_block_witness_without_adj():
    """constant_block_perron_check reads its witness cycle edge by edge: the
    verdict's digraph has built no adj, and agrees once it does."""
    for x, s, n in ((F(3), 4, 9), (F(2, 7), 3, 5), (0.4, 5, 12)):
        v = constant_block_perron_check(ConstantBlockMatrix(x, s, n))
        assert v.efficient and "adj" not in vars(v.digraph)
        cycle = tuple(range(s, -1, -1))
        assert all(v.digraph.adj[i, j] for i, j in zip(cycle, cycle[1:] + cycle[:1]))
