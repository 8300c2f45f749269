import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from grasstrop import (
    DissimilarityVector,
    EdgeMonomial,
    EdgeWeighting,
    PlueckerMonomial,
    PlueckerPolynomial,
    contract_edge,
    dissimilarity,
    exact_rank,
    graded_count,
    initial_form,
    initial_ideal_hilbert_check,
    internal_indicator,
    monomial_map,
    p,
    parse_polynomial,
    format_polynomial,
    three_term_relation,
    toric_kernel_membership,
    tropical_weight,
)
from grasstrop.ideals import _degree_rows, _toric_generators, signed_incidence_rank
from util import random_tree, trees_cached


def sigma(k):
    return trees_cached(4)[k - 1]


def zero_dissim(n):
    pairs = {(i, j): 0 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return DissimilarityVector.of(n, pairs)


def test_initial_form_examples():
    t = sigma(1)
    d = dissimilarity(internal_indicator(t))
    f = parse_polynomial("p[1,2]*p[3,4] - p[1,4]*p[2,3] + p[1,3]*p[2,4]")
    assert format_polynomial(initial_form(f, d)) == "p[1,3]*p[2,4] - p[1,4]*p[2,3]"
    assert initial_form(f, zero_dissim(4)) == f
    mono = p(1, 3) * p(2, 4)
    assert initial_form(mono, d) == mono
    with pytest.raises(ValueError):
        initial_form(PlueckerPolynomial.zero(), d)
    with pytest.raises(ValueError):
        initial_form(p(1, 5), zero_dissim(4))


def test_monomial_map_examples():
    t = sigma(1)
    assert monomial_map(t, PlueckerMonomial.of([(1, 2)])).format() == "y[l1]*y[l2]"
    assert (
        monomial_map(t, PlueckerMonomial.of([(1, 3)])).format()
        == "y[l1]*y[l3]*y[e3-4]"
    )
    a = monomial_map(t, PlueckerMonomial.of([(1, 3), (2, 4)]))
    b = monomial_map(t, PlueckerMonomial.of([(1, 4), (2, 3)]))
    assert a == b
    assert a.as_dict() == {"l1": 1, "l2": 1, "l3": 1, "l4": 1, "e3-4": 2}
    assert monomial_map(t, PlueckerMonomial.one()) == EdgeMonomial(())
    assert EdgeMonomial(()).format() == "1"
    assert a.degree == 6


def test_monomial_map_is_monoid_homomorphism():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.choice([4, 5, 6])
        t = random_tree(rng, n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

        def rand_mon():
            k = rng.randrange(0, 4)
            return PlueckerMonomial.of([rng.choice(pairs) for _ in range(k)])

        ma, mb = rand_mon(), rand_mon()
        da = monomial_map(t, ma).as_dict()
        db = monomial_map(t, mb).as_dict()
        total = dict(da)
        for eid, e in db.items():
            total[eid] = total.get(eid, 0) + e
        total = {eid: e for eid, e in total.items() if e}
        assert total == monomial_map(t, ma * mb).as_dict()


def test_monomial_map_matches_tropical_weight():
    rng = random.Random(9)
    for _ in range(80):
        n = rng.choice([4, 5, 6])
        t = random_tree(rng, n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        m = PlueckerMonomial.of([rng.choice(pairs) for _ in range(rng.randrange(0, 4))])
        r = EdgeWeighting.of(t, {eid: Fraction(rng.randrange(0, 5)) for eid in t.edge_ids})
        lhs = tropical_weight(r, PlueckerPolynomial.of([(m, Fraction(1))]))
        image = monomial_map(t, m)
        rhs = sum((Fraction(e) * r.weight(eid) for eid, e in image.exps), Fraction(0))
        assert lhs == rhs


def test_toric_kernel_membership_examples():
    t = sigma(1)
    assert toric_kernel_membership(t, parse_polynomial("p[1,3]*p[2,4] - p[1,4]*p[2,3]"))
    assert not toric_kernel_membership(t, parse_polynomial("p[1,2]*p[3,4] - p[1,4]*p[2,3]"))
    assert toric_kernel_membership(t, PlueckerPolynomial.zero())
    assert not toric_kernel_membership(t, p(1, 2))
    assert toric_kernel_membership(
        t, parse_polynomial("p[1,3]*p[2,4] - p[1,4]*p[2,3] + p[1,2] - p[1,2]")
    )


def test_crossing_binomial_membership_dichotomy():
    seen_middle = 0
    for n in (4, 5, 6):
        index = {pr: k for k, pr in enumerate(combinations(range(1, n + 1), 2))}
        for t in trees_cached(n):
            dv = dissimilarity(internal_indicator(t))
            gens = _toric_generators(t)
            for quad, gen in zip(combinations(range(1, n + 1), 4), gens, strict=True):
                i, j, k, l = quad
                sums = {
                    frozenset([(i, j), (k, l)]): dv.value(i, j) + dv.value(k, l),
                    frozenset([(i, k), (j, l)]): dv.value(i, k) + dv.value(j, l),
                    frozenset([(i, l), (j, k)]): dv.value(i, l) + dv.value(j, k),
                }
                low = min(sums.values())
                split = [s for s, v in sums.items() if v == low]
                assert len(split) == 1, (n, quad)
                g = initial_form(three_term_relation(*quad), dv)
                assert len(g.terms) == 2, (n, quad)
                # the integer generators of the Hilbert check are these binomials
                assert gen == tuple(
                    (tuple(index[pr] for pr in m.expanded()), int(c)) for m, c in g.terms
                ), (n, quad)
                kept = {frozenset(pr for pr, _ in m.exps) for m, _ in g.terms}
                assert kept == set(sums) - set(split), (n, quad)
                is_middle = split[0] == frozenset([(i, k), (j, l)])
                seen_middle += is_middle
                assert toric_kernel_membership(t, g) == (not is_middle), (n, quad)
    assert seen_middle == 551


def test_hilbert_check_n4():
    rep = initial_ideal_hilbert_check(sigma(1), 3)
    assert rep.passed
    rows = [(c.d, c.monomials, c.ideal_dim, c.quotient, c.semigroup_count) for c in rep.degrees]
    assert rows == [(1, 6, 0, 6, 6), (2, 21, 1, 20, 20), (3, 56, 6, 50, 50)]
    assert rep.degrees[2].quotient == graded_count(sigma(1), plucker_degree=3)
    obj = json.loads(rep.to_json())
    assert obj["pass"] is True
    assert obj["degrees"][1]["quotient"] == 20


def test_hilbert_check_all_small_trees():
    for n in (4, 5):
        for t in trees_cached(n):
            assert initial_ideal_hilbert_check(t, 3).passed, (n, t)


def test_hilbert_check_n6():
    rep = initial_ideal_hilbert_check(trees_cached(6)[0], 3)
    assert rep.passed
    last = rep.degrees[-1]
    assert (last.monomials, last.ideal_dim, last.quotient) == (680, 190, 490)


def test_hilbert_check_guard_and_errors():
    t6 = trees_cached(6)[0]
    with pytest.raises(ValueError) as err:
        initial_ideal_hilbert_check(t6, 4)
    assert "1500" in str(err.value)
    rep = initial_ideal_hilbert_check(t6, 4, max_monomials=4000)
    assert rep.passed
    t5 = trees_cached(5)[0]
    nt = contract_edge(t5, t5.internal_edge_ids[0])
    with pytest.raises(ValueError):
        initial_ideal_hilbert_check(nt, 2)
    with pytest.raises(ValueError):
        initial_ideal_hilbert_check(sigma(1), 0)


def test_internal_indicator():
    t = sigma(1)
    r = internal_indicator(t)
    assert r.weight("e3-4") == 1
    assert all(r.weight(f"l{i}") == 0 for i in range(1, 5))


def test_edge_monomial_validation_and_order():
    m = EdgeMonomial.of({"e3-4": 2, "l3": 1, "l1": 1})
    assert m.format() == "y[l1]*y[l3]*y[e3-4]^2"
    assert m.degree == 4
    with pytest.raises(ValueError):
        EdgeMonomial((("l1", 0),))
    with pytest.raises(ValueError):
        EdgeMonomial((("l1", -2),))


def test_exact_rank():
    assert exact_rank([]) == 0
    assert exact_rank([{}, {}]) == 0
    assert exact_rank([{0: 1, 1: 2}]) == 1
    assert exact_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert exact_rank([{0: 1, 1: 2}, {0: 2, 1: 5}]) == 2
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]
    assert exact_rank(rows) == 2
    big = [{j: (i + 1) ** j for j in range(6)} for i in range(6)]
    assert exact_rank(big) == 6
    with pytest.raises(ValueError):
        exact_rank([{0: True}])
    with pytest.raises(ValueError):
        exact_rank([{0: Fraction(1, 2)}])


def test_exact_rank_random_vs_float():
    rng = random.Random(19)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(0, min(nrows, ncols))
        base = [
            {j: rng.randint(-3, 3) for j in range(ncols)} for _ in range(rank)
        ]
        rows = []
        for _ in range(nrows):
            combo = {}
            for b in base[: rank]:
                c = rng.randint(-2, 2)
                for j, v in b.items():
                    combo[j] = combo.get(j, 0) + c * v
            rows.append({j: v for j, v in combo.items() if v})
        assert exact_rank(rows) <= rank


def _int_columns(rows):
    cols = {}
    return [{cols.setdefault(k, len(cols)): v for k, v in row.items()} for row in rows]


def test_signed_incidence_rank_matches_exact_rank_on_hilbert_rows():
    cases = [(t, 3) for n in (4, 5) for t in trees_cached(n)] + [(trees_cached(6)[4], 4)]
    for t, d_max in cases:
        n_vars = t.n * (t.n - 1) // 2
        gens = _toric_generators(t)
        for d in range(2, d_max + 1):
            rows = list(_degree_rows(gens, n_vars, d))
            assert signed_incidence_rank(rows) == exact_rank(_int_columns(rows)), (t, d)


def test_signed_incidence_rank_hand_built_graphs():
    cases = [
        # balanced cycles: even number of same-sign rows around the triangle
        ([{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}], 2),
        ([{0: 1, 1: 1}, {1: -1, 2: -1}, {0: 1, 2: -1}], 2),
        # unbalanced cycles: an odd number of them
        ([{0: 1, 1: 1}, {1: 1, 2: -1}, {0: 1, 2: -1}], 3),
        ([{0: 1, 1: 1}, {1: 1, 2: 1}, {2: -1, 0: -1}], 3),
        # a repeated edge, with either overall sign, changes nothing
        ([{0: 1, 1: -1}, {0: -1, 1: 1}, {1: 1, 0: -1}], 1),
        # a repeated edge of the other parity is an unbalanced 2-cycle
        ([{0: 1, 1: -1}, {0: 1, 1: 1}], 2),
        # columns 2..9 met by no row are balanced singletons: rank 1 of 10
        ([{0: 1, 1: -1}], 1),
        # an unbalanced component joined to a balanced one, from either side
        ([{0: 1, 1: 1}, {0: 1, 1: -1}, {2: 1, 3: -1}, {1: 1, 2: 1}], 4),
        ([{0: 1, 1: 1}, {0: 1, 1: -1}, {2: 1, 3: -1}, {2: 1, 1: 1}], 4),
        # two balanced components, then a path of four vertices
        ([{0: 1, 1: 1}, {2: 1, 3: 1}], 2),
        ([{0: 1, 1: 1}, {2: 1, 3: 1}, {1: -1, 2: 1}], 3),
        ([], 0),
    ]
    for rows, rank in cases:
        assert signed_incidence_rank(rows) == rank, rows
        assert exact_rank(rows) == rank, rows


def test_signed_incidence_rank_random_signed_graphs():
    rng = random.Random(23)
    for _ in range(300):
        n_vertices = rng.randint(2, 9)
        rows = []
        for _ in range(rng.randint(0, 12)):
            u, v = rng.sample(range(n_vertices), 2)
            rows.append({u: rng.choice((1, -1)), v: rng.choice((1, -1))})
        assert signed_incidence_rank(rows) == exact_rank(rows), rows


def test_signed_incidence_rank_refuses_other_rows_in_optimized_mode():
    # python -O strips assert statements; a row that is not a +-1 binomial
    # must still raise RuntimeError
    code = (
        "from grasstrop.ideals import signed_incidence_rank\n"
        "bad = [{}, {0: 1}, {0: 1, 1: 1, 2: -1}, {0: 2, 1: 1}, {0: 1, 1: 0}, {0: 1, 1: -3}]\n"
        "for row in bad:\n"
        "    try:\n"
        "        signed_incidence_rank([{5: 1, 6: -1}, row])\n"
        "    except RuntimeError:\n"
        "        continue\n"
        "    raise SystemExit(f'no RuntimeError on {row}')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, (flags, proc.stderr + proc.stdout)
