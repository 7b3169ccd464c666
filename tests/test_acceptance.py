"""Acceptance battery.

Each test is one numbered criterion; its pytest verdict is the pass/fail
line, and a CRITERION summary is printed for runs with output enabled.
Every count is exact (integer equality, no tolerances).
"""

import itertools
import json
import math
import random
from pathlib import Path

from sandpark import (
    FamilySpec,
    bipartite_graph,
    bipartite_prime_bijection,
    bipartite_prime_bijection_inverse,
    breakpoints,
    burning_starts,
    catalan,
    class_count,
    closed_form_count,
    complete_graph,
    count_class,
    cross_validate_oracles,
    drain_except,
    find_quantifier_gap_witness,
    gap_witness_from_dict,
    is_g_parking,
    is_parking_function,
    is_pf_by_condition,
    is_pq_parking,
    is_prime,
    is_prime_classical,
    is_recurrent,
    is_strongly_recurrent,
    iter_class,
    pq_paths,
    random_connected_multigraph,
    simulate_park,
    split_graph,
    split_prime_bijection,
    split_prime_bijection_inverse,
    stabilize,
    tripartite_graph,
)
from conftest import graph_pool, reference_stabilize

FIXTURES = Path(__file__).parent / "fixtures"
POOL = graph_pool()

FAMILY_INSTANCES = (
    [FamilySpec("complete", n=n) for n in (2, 3, 4, 5)]
    + [FamilySpec("wheel", n=n) for n in (3, 4, 5, 6, 7)]
    + [FamilySpec("tripartite", p=p, q=q)
       for p, q in ((2, 2), (2, 3), (3, 2), (3, 3))]
    + [FamilySpec("bipartite", p=p, q=q)
       for p, q in ((2, 2), (3, 2), (2, 3), (3, 3))]
    + [FamilySpec("split", m=m, n=n) for m, n in ((2, 1), (2, 2), (3, 2))]
)


def increasing_vectors(n, hi):
    return itertools.combinations_with_replacement(range(1, hi + 1), n)


def sorted_pairs(g, first_len):
    degs = g.nonsink_degrees
    second_len = len(degs) - first_len
    for a in increasing_vectors(first_len, degs[0]):
        for b in increasing_vectors(second_len, degs[-1]):
            yield a, b


def test_criterion_01_complete_prime_counts():
    expected = {2: 1, 3: 4, 4: 27, 5: 256}
    for n, want in expected.items():
        spec = FamilySpec("complete", n=n)
        got = count_class(spec, "ppf")
        assert got == want == closed_form_count(spec, "ppf"), n
    print("CRITERION 1 (complete-graph prime counts 1,4,27,256): PASS")


def test_criterion_02_catalan_counts():
    want = [1, 2, 5, 14, 42, 132, 429]
    for n, expected in zip(range(2, 9), want):
        got = sum(1 for p in increasing_vectors(n, n)
                  if is_parking_function(p) and is_prime_classical(p))
        assert got == expected == catalan(n - 1), n
        if n <= 6:
            assert count_class(FamilySpec("complete", n=n), "ppf-inc") == expected
    print("CRITERION 2 (increasing prime counts are Catalan numbers): PASS")


def test_criterion_03_wheel_strong_counts():
    for n in range(3, 8):
        spec = FamilySpec("wheel", n=n)
        got = count_class(spec, "sr-forall")
        assert got == n + 1 == closed_form_count(spec, "sr-wheel"), n
    print("CRITERION 3 (wheel strong-recurrence counts n+1): PASS")


def test_criterion_04_tripartite_prime_counts():
    for p, q in ((2, 2), (2, 3), (3, 2), (3, 3)):
        spec = FamilySpec("tripartite", p=p, q=q)
        formula = closed_form_count(spec, "ppf")
        brute = count_class(spec, "ppf")
        assert brute == formula, (p, q, brute, formula)
    assert closed_form_count(FamilySpec("tripartite", p=2, q=2), "ppf") == 5
    print("CRITERION 4 (tripartite prime counts match the closed form): PASS")


def test_criterion_05_bipartite_and_split_counts_and_bijections():
    for p, q in ((2, 2), (3, 2), (2, 3), (3, 3)):
        spec = FamilySpec("bipartite", p=p, q=q)
        assert count_class(spec, "ppf-inc") == closed_form_count(spec, "ppf-inc")
        g = bipartite_graph(p, q)
        primes = [(a, b) for a, b in sorted_pairs(g, p)
                  if is_g_parking(g, a + b) and is_prime(g, a + b)]
        smaller = bipartite_graph(p - 1, q)
        targets = {(a, b) for a, b in sorted_pairs(smaller, p - 1)
                   if is_g_parking(smaller, a + b)}
        images = set()
        for pair in primes:
            image = bipartite_prime_bijection(pair)
            assert bipartite_prime_bijection_inverse(image) == pair, pair
            images.add(image)
        assert images == targets, (p, q)
    for m, n in ((2, 1), (2, 2), (3, 2)):
        spec = FamilySpec("split", m=m, n=n)
        assert count_class(spec, "ppf-inc") == closed_form_count(spec, "ppf-inc")
        g = split_graph(m, n)
        primes = [(a, b) for a, b in sorted_pairs(g, m)
                  if is_g_parking(g, a + b) and is_prime(g, a + b)]
        smaller = split_graph(m - 1, n)
        targets = {(a, b) for a, b in sorted_pairs(smaller, m - 1)
                   if is_g_parking(smaller, a + b)}
        images = set()
        for pair in primes:
            image = split_prime_bijection(pair)
            assert split_prime_bijection_inverse(image) == pair, pair
            images.add(image)
        assert images == targets, (m, n)
    print("CRITERION 5 (bipartite/split counts and bijection round-trips): PASS")


def test_criterion_06_matrix_tree_consistency():
    for spec in FAMILY_INSTANCES:
        report = class_count(spec, "recurrent")
        assert report.expected_source == "matrix-tree", spec.label()
        assert report.count == report.expected, spec.label()
        assert count_class(spec, "pf") == report.count, spec.label()
    rng = random.Random(99)
    for i in range(50):
        g = random_connected_multigraph(rng, rng.randint(2, 6))
        recurrent = sum(1 for _ in iter_class(g, "recurrent"))
        assert recurrent == g.spanning_tree_count(), (i, g)
    print("CRITERION 6 (recurrent counts equal spanning tree counts, "
          "families + 50 random multigraphs): PASS")


def test_criterion_07_oracle_equivalence():
    for label, g in POOL:
        assert len(g.nonsink) <= 6, label
        report = cross_validate_oracles(g)
        assert report.ok, (label, report.discrepancies)
        assert report.orientation_checked, label
        assert report.stable_checked == math.prod(g.nonsink_degrees), label
    print(f"CRITERION 7 (oracle equivalence on {len(POOL)} graphs, "
          "zero discrepancies): PASS")


def test_criterion_08_abelian_property():
    rng = random.Random(20260819)
    for label, g in POOL:
        degs = g.nonsink_degrees
        k = len(degs)
        for _ in range(200):
            c = [rng.randint(0, 3 * d) for d in degs]
            bump = rng.randrange(k)
            c[bump] += degs[bump]
            c = tuple(c)
            base = stabilize(g, c)
            for seed in (rng.randrange(2**30), rng.randrange(2**30)):
                alt = reference_stabilize(g, c, rng=random.Random(seed))
                assert alt.final == base.final, (label, c)
                assert alt.odometer == base.odometer, (label, c)
    print("CRITERION 8 (abelian property, 200 shuffled stabilisations "
          "per graph): PASS")


def test_criterion_09_classical_equivalences():
    for n in range(1, 6):
        g = complete_graph(n)
        for p in itertools.product(range(1, n + 1), repeat=n):
            answers = {is_pf_by_condition(p, cond) for cond in (1, 2, 3, 4)}
            assert len(answers) == 1, p
            assert is_parking_function(p) == is_g_parking(g, p), p
    print("CRITERION 9 (four equivalent tests and the complete-graph "
          "correspondence, n <= 5): PASS")


def test_criterion_10_worked_examples():
    assert simulate_park((3, 1, 3, 1)).spots == (3, 1, 4, 2)
    failed = simulate_park((3, 1, 3, 3))
    assert failed.spots[3] is None and not failed.success
    assert breakpoints((1, 1, 1, 3, 4, 4, 7, 7, 7)) == (6, 9)
    pair = ((3, 4, 1, 1, 3), (1, 3, 2, 1))
    assert is_pq_parking(*pair)
    assert is_g_parking(tripartite_graph(5, 4), pair[0] + pair[1])
    lower, upper = pq_paths(*pair)
    assert lower.word == "EENNEENEN"
    assert upper.word == "NNENENEEE"
    print("CRITERION 10 (worked examples: parking outcomes, breakpoints, "
          "two-part paths): PASS")


def test_criterion_11_closure_properties():
    for label, g in POOL:
        degs = g.nonsink_degrees
        k = len(degs)
        rec = list(iter_class(g, "recurrent"))
        for c in rec:
            for i in range(k):
                if c[i] + 1 < degs[i]:
                    bumped = c[:i] + (c[i] + 1,) + c[i + 1:]
                    assert is_recurrent(g, bumped), (label, c, i)
        strong = [c for c in rec if is_strongly_recurrent(g, c)]
        if all(m <= 1 for m in g.sink_mults):
            for c in strong:
                for i in range(k):
                    if c[i] + 1 < degs[i]:
                        bumped = c[:i] + (c[i] + 1,) + c[i + 1:]
                        assert is_strongly_recurrent(g, bumped), (label, c, i)
        for c in strong:
            for v in burning_starts(g, c):
                assert burning_starts(g, drain_except(g, c, v)) == (v,), \
                    (label, c, v)
    print("CRITERION 11 (closure under grain addition and drained-start "
          "uniqueness): PASS")


def test_criterion_12_quantifier_gap():
    for label, g in POOL:
        for c in iter_class(g, "sr-forall"):
            assert is_strongly_recurrent(g, c, "exists"), (label, c)
    data = json.loads((FIXTURES / "quantifier_gap_witness.json").read_text())
    frozen = gap_witness_from_dict(data)
    found = find_quantifier_gap_witness(frozen.seed)
    assert found == frozen
    assert is_strongly_recurrent(found.graph, found.config, "exists")
    assert not is_strongly_recurrent(found.graph, found.config, "forall")
    print("CRITERION 12 (forall implies exists; strict gap witness "
          f"graph={found.graph.vertices} config={found.config}): PASS")
