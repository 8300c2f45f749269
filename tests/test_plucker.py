import random
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
from oracles import eval_on_minors
from util import random_matrix, random_polynomial


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
    bads = ("p[1,1]", "p[2,1]", "p[1,2]*", "*p[1,2]", "p[1", "q[1,2]", "", "p[1,2]^1/2")
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
