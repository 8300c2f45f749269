import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from grasstrop import (
    PlueckerMonomial,
    PlueckerPolynomial,
    format_polynomial,
    is_noncrossing,
    p,
    parse_polynomial,
    straighten,
    three_term_relation,
)
from grasstrop.plucker import _unit_normal_form
from oracles import eval_on_minors
from util import random_matrix, random_monomial, random_polynomial


def test_three_term_relation_shape():
    f = three_term_relation(1, 2, 3, 4)
    assert format_polynomial(f) == (
        "p[1,2]*p[3,4] - p[1,3]*p[2,4] + p[1,4]*p[2,3]"
    )
    m = PlueckerMonomial.of([(1, 3), (2, 4)])
    assert f.coefficient(m) == -1
    with pytest.raises(ValueError):
        three_term_relation(1, 2, 2, 4)
    with pytest.raises(ValueError):
        three_term_relation(2, 1, 3, 4)


def test_three_term_relation_vanishes_on_minors():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(4, 7)
        mat = random_matrix(rng, n)
        for quad in combinations(range(1, n + 1), 4):
            assert eval_on_minors(three_term_relation(*quad), mat) == 0


def test_is_noncrossing():
    assert is_noncrossing(PlueckerMonomial.of([(1, 2), (3, 4)]))
    assert is_noncrossing(PlueckerMonomial.of([(1, 4), (2, 3)]))
    assert not is_noncrossing(PlueckerMonomial.of([(1, 3), (2, 4)]))
    assert is_noncrossing(PlueckerMonomial.of([(1, 3), (2, 4)]), order=[1, 3, 2, 4])
    assert is_noncrossing(PlueckerMonomial.one())
    assert is_noncrossing(PlueckerMonomial.of({(1, 3): 5}))
    with pytest.raises(ValueError):
        is_noncrossing(PlueckerMonomial.of([(1, 3), (2, 4)]), order=[1, 2, 3])


def test_straighten_examples():
    f = straighten(p(1, 3) * p(2, 4))
    assert format_polynomial(f) == "p[1,2]*p[3,4] + p[1,4]*p[2,3]"
    assert straighten(PlueckerPolynomial.zero()).is_zero
    g = p(1, 2) * p(3, 4)
    assert straighten(g) == g


def test_straighten_is_noncrossing_and_evaluation_preserving():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(4, 6)
        f = random_polynomial(rng, n, max_degree=3, max_terms=4)
        g = straighten(f)
        for m in g.monomials():
            assert is_noncrossing(m)
        for _ in range(3):
            mat = random_matrix(rng, n)
            assert eval_on_minors(f, mat) == eval_on_minors(g, mat)


def test_straighten_custom_order():
    order = [2, 1, 3, 4]
    f = p(1, 2) * p(3, 4) + p(1, 3) * p(2, 4)
    g = straighten(f, order=order)
    for m in g.monomials():
        assert is_noncrossing(m, order=order)
    rng = random.Random(13)
    for _ in range(20):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        h = random_polynomial(rng, 5, max_degree=2, max_terms=3)
        hs = straighten(h, order=perm)
        assert all(is_noncrossing(m, order=perm) for m in hs.monomials())
        mat = random_matrix(rng, 5)
        assert eval_on_minors(h, mat) == eval_on_minors(hs, mat)


def test_straighten_idempotent():
    rng = random.Random(29)
    for _ in range(30):
        f = straighten(random_polynomial(rng, 5, max_degree=3, max_terms=4))
        assert straighten(f) == f


def test_format_and_parse_round_trip():
    rng = random.Random(7)
    for _ in range(80):
        f = random_polynomial(rng, 6, max_degree=3, max_terms=4)
        assert parse_polynomial(format_polynomial(f)) == f
    assert format_polynomial(PlueckerPolynomial.zero()) == "0"
    assert parse_polynomial("0").is_zero
    assert format_polynomial(PlueckerPolynomial.constant(Fraction(-3, 2))) == "-3/2"


def test_format_examples():
    f = p(1, 3) * p(2, 4) - p(1, 4) * p(2, 3)
    assert format_polynomial(f) == "p[1,3]*p[2,4] - p[1,4]*p[2,3]"
    g = p(1, 2) * p(1, 2) + PlueckerPolynomial.constant(1)
    assert format_polynomial(g) == "p[1,2]^2 + 1"
    h = p(1, 2).scaled(Fraction(5, 3))
    assert format_polynomial(h) == "5/3*p[1,2]"


def test_parse_accepts_spacing_variants():
    f = parse_polynomial("p[1,3] * p[2,4]-p[1,4]*p[2,3]")
    assert f == p(1, 3) * p(2, 4) - p(1, 4) * p(2, 3)
    assert parse_polynomial("2 p[1,2]") == p(1, 2).scaled(2)
    assert parse_polynomial("- p[1,2]^2") == -(p(1, 2) * p(1, 2))


def test_parse_errors():
    bads = (
        "p[1,1]", "p[2,1]", "p[1,2]*", "*p[1,2]", "p[1", "q[1,2]", "", "p[1,2]^1/2",
        "1/0*p[1,2]", "p[1,2]^1.5",
        # digits are ASCII only, as in every other reader
        "\u0663 p[\u0661,\u0662]^\u0662", "p[1,2]^\u0662", "\u0663*p[1,2]",
    )
    for bad in bads:
        with pytest.raises(ValueError):
            parse_polynomial(bad)
    assert parse_polynomial("p[1,2]^0") == PlueckerPolynomial.constant(1)


def test_monomial_operations():
    m = PlueckerMonomial.of([(1, 2), (1, 2), (3, 4)])
    assert m.degree == 3
    assert m.as_dict() == {(1, 2): 2, (3, 4): 1}
    assert m.expanded() == ((1, 2), (1, 2), (3, 4))
    assert m.max_label() == 4
    prod = m * PlueckerMonomial.of([(1, 2)])
    assert prod.as_dict()[(1, 2)] == 3
    assert PlueckerMonomial.one().degree == 0
    assert PlueckerMonomial.of({(1, 2): 0}) == PlueckerMonomial.one()
    with pytest.raises(ValueError):
        PlueckerMonomial((((1, 2), 0),))
    with pytest.raises(ValueError):
        PlueckerMonomial.of([(2, 2)])


def test_polynomial_arithmetic():
    f = p(1, 2) + p(1, 2)
    assert f == p(1, 2).scaled(2)
    assert (f - f).is_zero
    g = (p(1, 2) + p(3, 4)) * p(1, 3)
    assert g.coefficient(PlueckerMonomial.of([(1, 2), (1, 3)])) == 1
    assert g.max_degree() == 2
    assert g.max_label() == 4
    assert PlueckerPolynomial.of({PlueckerMonomial.one(): 0}).is_zero


def test_straighten_crossing_heavy_product():
    # the four diameters of the octagon cross pairwise; their cube has
    # degree 12 and needs thousands of rewrites
    f = p(1, 5) * p(2, 6) * p(3, 7) * p(4, 8)
    f3 = f * f * f
    g = straighten(f3)
    assert len(g.terms) == 364
    assert all(is_noncrossing(m) for m in g.monomials())
    rng = random.Random(17)
    for _ in range(2):
        mat = random_matrix(rng, 8)
        assert eval_on_minors(f3, mat) == eval_on_minors(g, mat)


def test_straighten_cancels_a_pending_crossing_monomial():
    # rewriting the crossing p13*p25 in the first term yields p12*p14*p35,
    # which still crosses and cancels the second term while it waits its turn
    f = p(1, 3) * p(1, 4) * p(2, 5) - p(1, 2) * p(1, 4) * p(3, 5)
    assert straighten(f) == p(1, 4) * p(1, 5) * p(2, 3)
    assert straighten(f - p(1, 4) * p(1, 5) * p(2, 3)).is_zero


def _monomial_where(rng, n, order, crossing):
    """A random monomial of degree 2..4 on labels 1..n that crosses in order, or does not."""
    while True:
        m = random_monomial(rng, n, max_degree=4)
        if m.degree >= 2 and is_noncrossing(m, order=order) != crossing:
            return m


def _memo_corpus():
    """Seeded (f, order) pairs: one crossing term of either sign, or several terms."""
    rng = random.Random(31)
    corpus = []
    for n in range(4, 9):
        for _ in range(12):
            order = None
            if rng.random() < 0.5:
                order = list(range(1, n + 1))
                rng.shuffle(order)
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
            terms = [(_monomial_where(rng, n, order, True), c)]
            terms += [(_monomial_where(rng, n, order, False), Fraction(rng.randint(-3, 3)))
                      for _ in range(rng.randint(0, 2))]
            corpus.append((PlueckerPolynomial(tuple(terms)), order))
            g = random_polynomial(rng, n, max_degree=3, max_terms=3)
            corpus.append((three_term_relation(1, 2, 3, 4) * g + g, order))
    return corpus


def test_memo_agrees_with_cold_straightening_and_minors():
    rng = random.Random(37)
    signs = set()
    for f, order in _memo_corpus():
        crossing = [(m, c) for m, c in f.terms if not is_noncrossing(m, order=order)]
        if len(crossing) == 1:
            m, c = crossing[0]
            signs.add(c > 0)
            straighten(PlueckerPolynomial(((m, Fraction(7)),)), order=order)  # warm the memo
        warm = straighten(f, order=order)
        _unit_normal_form.cache_clear()
        cold = straighten(f, order=order)
        assert warm == cold, (f, order)
        assert all(is_noncrossing(m, order=order) for m in warm.monomials())
        n = max(f.max_label(), 4)
        for _ in range(2):
            mat = random_matrix(rng, n)
            assert eval_on_minors(warm, mat) == eval_on_minors(f, mat)
    assert signs == {True, False}


def test_memo_keeps_each_circular_order_apart():
    m = p(1, 4) * p(2, 5) * p(3, 6)
    orders = (None, [1, 2, 3, 5, 4, 6])
    cold = []
    for order in orders:
        _unit_normal_form.cache_clear()
        cold.append(straighten(m, order=order))
    assert cold[0] != cold[1]
    _unit_normal_form.cache_clear()
    for _ in range(2):
        for order, want in zip(orders, cold):
            got = straighten(m.scaled(-2), order=order)
            assert got == want.scaled(-2)
            assert all(is_noncrossing(mm, order=order) for mm in got.monomials())


def test_memo_does_not_skip_the_order_check():
    m = p(1, 3) * p(2, 4) * p(3, 5)
    straighten(m, order=[1, 2, 3, 4, 5])
    straighten(m)
    for bad in ([1, 2, 3, 4], (5, 4, 3, 2)):
        with pytest.raises(ValueError, match=r"^labels \[\d\] not in the circular order$"):
            straighten(m, order=bad)


def test_straighten_refuses_a_repeated_label_in_the_order():
    f = p(1, 3) * p(2, 4)
    # without the check, [1, 2, 1, 4, 3] would act as the order 2, 1, 4, 3
    assert straighten(f, order=[2, 1, 4, 3]) == p(1, 2) * p(3, 4) + p(1, 4) * p(2, 3)
    assert straighten(f, order=[1, 2, 4, 3]) == f
    before = _unit_normal_form.cache_info()
    for bad, named in (([1, 2, 1, 4, 3], "[1]"), ((4, 3, 2, 1, 3, 4), "[3, 4]")):
        with pytest.raises(ValueError, match=rf"^labels {re.escape(named)} repeat in the circular order$"):
            straighten(f, order=bad)
    after = _unit_normal_form.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    # a crossing-free or label-free polynomial is checked all the same
    with pytest.raises(ValueError, match=r"repeat in the circular order"):
        straighten(p(1, 2) * p(3, 4), order=[1, 2, 3, 4, 2])
    with pytest.raises(ValueError, match=r"repeat in the circular order"):
        straighten(PlueckerPolynomial.zero(), order=[1, 1])


def test_is_noncrossing_refuses_a_repeated_label_in_the_order():
    m = PlueckerMonomial.of([(1, 3), (2, 4)])
    assert is_noncrossing(m, order=[1, 3, 2, 4])
    for bad in ([1, 3, 2, 4, 3], [1, 1, 3, 2, 4], [1, 2, 1, 4, 3]):
        with pytest.raises(ValueError, match=r"^labels \[\d\] repeat in the circular order$"):
            is_noncrossing(m, order=bad)
    with pytest.raises(ValueError, match=r"repeat in the circular order"):
        is_noncrossing(PlueckerMonomial.one(), order=[5, 5])


def test_memo_is_bounded_and_hit_by_a_recurring_product():
    _unit_normal_form.cache_clear()
    maxsize = _unit_normal_form.cache_info().maxsize
    assert maxsize == 256
    base = p(1, 3) * p(2, 4)
    power = p(5, 6)
    for _ in range(maxsize + 44):
        straighten(base * power)
        power = power * p(5, 6)
    info = _unit_normal_form.cache_info()
    assert info.misses == maxsize + 44
    assert info.currsize <= maxsize
    f = p(1, 5) * p(2, 6) * p(3, 7) * p(4, 8)
    straighten(f.scaled(3))
    before = _unit_normal_form.cache_info()
    assert straighten(f.scaled(Fraction(-1, 2))) == straighten(f).scaled(Fraction(-1, 2))
    after = _unit_normal_form.cache_info()
    assert after.hits == before.hits + 2
    assert after.misses == before.misses
