"""Fast paths against reference oracles on graphs beyond the small pool.

Seeded random multigraphs with 7 to 10 non-sink vertices are too large for
exhaustive sweeps, so configurations are sampled from the grain-dropping
chain started at the maximal stable configuration, whose states are all
recurrent.  Recurrence is also checked on uniform stable configurations and
on chain states with one grain removed, which fall on both sides of the
recurrent boundary.

The worklist ``stabilize``, the Markov chain built on it and the modular
``spanning_tree_count`` are checked against the scan stabilizer and Bareiss
(``conftest``) on the pool, the random multigraphs, grids with a sink
border and wheels.  Their order independence is checked twice: the scan
stabilizer fires in shuffled orders, and every fast path must answer the
same on a copy of the graph with its non-sink vertices redeclared in a
shuffled order.

The pruned enumeration walk is checked against generate-and-test
(``conftest.reference_iter_class``) for every class, on the pool, the
increasing-class families, the random multigraphs and smaller ones with up
to triple edges.  Generate-and-test visits the
whole candidate space, up to 18.7 million candidates on the random
multigraphs, so each multigraph is cut to the leading induced subgraph
(first non-sink vertices in declaration order, plus the sink) whose space
stays within ``WALK_SPACE``.
"""

import math
import random
from itertools import accumulate

import pytest

from sandpark import (
    FamilySpec,
    burning_sequence,
    count_class,
    failing_boost_vertex,
    is_prime,
    is_prime_bruteforce,
    is_recurrent,
    is_recurrent_burning,
    is_strongly_recurrent,
    iter_class,
    make_family,
    markov_run,
    max_forbidden_set,
    pf_from_config,
    random_connected_multigraph,
    stabilize,
    topple,
)
from sandpark.enumeration import CLASSES
from conftest import (boost_witness, carried, graph_pool,
                      grid_with_sink_border, redeclared, reference_iter_class,
                      reference_stabilize, reference_tree_count)

SEEDS = range(16)


def sampled_recurrent(seed):
    """A seeded graph, an rng, and up to 30 recurrent configurations."""
    rng = random.Random(seed)
    g = random_connected_multigraph(rng, rng.randint(8, 11), max_mult=2,
                                    extra_edges=14)
    top = tuple(d - 1 for d in g.nonsink_degrees)
    states = sorted({c for _, _, c in markov_run(g, top, 300, seed=seed).trace})
    rng.shuffle(states)
    return g, rng, states[:30]


@pytest.mark.parametrize("seed", SEEDS)
def test_recurrence_oracles_agree_on_sampled_stable_configs(seed):
    g, rng, states = sampled_recurrent(seed)
    assert 7 <= len(g.nonsink) <= 10
    samples = [tuple(rng.randrange(d) for d in g.nonsink_degrees)
               for _ in range(50)]
    for c in states:
        i = rng.randrange(len(c))
        samples.append(c[:i] + (max(c[i] - 1, 0),) + c[i + 1:])
    for c in samples:
        assert is_recurrent(g, c) == is_recurrent_burning(g, c), c


@pytest.mark.parametrize("seed", SEEDS)
def test_primality_routes_agree_on_sampled_parking_functions(seed):
    g, _, states = sampled_recurrent(seed)
    for c in states:
        p = pf_from_config(g, c)
        prime = is_prime(g, p)
        assert prime == is_prime_bruteforce(g, p), p
        assert prime == is_strongly_recurrent(g, c), p
        witness = failing_boost_vertex(g, p)
        assert (witness is None) == prime, p
        assert witness == boost_witness(g, p), p


def random_multigraph(seed):
    rng = random.Random(seed)
    return random_connected_multigraph(rng, rng.randint(8, 11), max_mult=2,
                                       extra_edges=14)


SPARSE_CORE_GRAPHS = (
    graph_pool()
    + [(f"random-{seed}", random_multigraph(seed)) for seed in SEEDS]
    + [(f"grid-{side}", grid_with_sink_border(side)) for side in range(3, 11)]
    + [(f"W{n}", make_family(FamilySpec("wheel", n=n))) for n in range(4, 13)])
GRAPH_IDS = [label for label, _ in SPARSE_CORE_GRAPHS]


def unstable_samples(g, rng, count):
    """Configurations from -1 to 3 deg - 1 per vertex, so most need firing
    and some vertices owe grains."""
    return [tuple(rng.randint(-1, 3 * d - 1) for d in g.nonsink_degrees)
            for _ in range(count)]


def heavy_piles(g, rng, count):
    """On a graph with a non-sink edge of multiplicity at least 2, piles of
    3 to 10 times each degree: a vertex fires at least twice at once,
    and its neighbours cross their degrees by more than one grain."""
    if max(m for row in g.nonsink_nbrs for _, m in row) < 2:
        return []
    return [tuple(rng.randint(3 * d, 10 * d) for d in g.nonsink_degrees)
            for _ in range(count)]


@pytest.mark.parametrize("label,g", SPARSE_CORE_GRAPHS, ids=GRAPH_IDS)
def test_worklist_stabilize_matches_scan_reference(label, g):
    # final, odometer and the declaration-order log all equal the scan's
    rng = random.Random(label)
    for c in unstable_samples(g, rng, 4) + heavy_piles(g, rng, 2):
        ref = reference_stabilize(g, c)
        assert stabilize(g, c) == ref, c
        for _ in range(2):
            seed = rng.randrange(2 ** 30)
            alt = reference_stabilize(g, c, rng=random.Random(seed))
            assert (alt.final, alt.odometer) == (ref.final, ref.odometer), c
            cur = c
            for v in alt.log:
                cur = topple(g, cur, v)
            assert cur == alt.final, c


@pytest.mark.parametrize("label,g", SPARSE_CORE_GRAPHS, ids=GRAPH_IDS)
def test_markov_states_match_reference_drops(label, g):
    # The drops are redrawn as random.choices draws them from the same
    # cumulative weights, and each state by the scan reference; the packed
    # trace must equal the plain list of (step, vertex, state) tuples.
    top = tuple(d - 1 for d in g.nonsink_degrees)
    k = len(g.nonsink)
    run = markov_run(g, top, 60, seed=len(label))
    drops = random.Random(len(label)).choices(
        g.nonsink, cum_weights=list(accumulate([1.0 / k] * k)), k=60)
    expected, prev = [], top
    for step, vertex in enumerate(drops, 1):
        pos = g.nonsink_pos[vertex]
        bumped = prev[:pos] + (prev[pos] + 1,) + prev[pos + 1:]
        prev = reference_stabilize(g, bumped).final
        expected.append((step, vertex, prev))
    assert run.trace == expected
    assert list(run.trace) == expected
    assert [run.trace[i] for i in range(-60, 0)] == expected


@pytest.mark.parametrize("label,g", SPARSE_CORE_GRAPHS, ids=GRAPH_IDS)
def test_tree_count_matches_bareiss(label, g):
    assert g.spanning_tree_count() == reference_tree_count(g)


@pytest.mark.parametrize("label,g", SPARSE_CORE_GRAPHS, ids=GRAPH_IDS)
def test_tree_count_matches_networkx(label, g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    for i, row in enumerate(g.rows):
        for j, m in row:
            if j > i:
                h.add_edge(g.vertices[i], g.vertices[j], weight=m)
    # networkx returns a floating-point determinant
    expected = nx.number_of_spanning_trees(h, weight="weight")
    count = g.spanning_tree_count()
    assert math.isclose(count, expected, rel_tol=1e-9)
    if count < 2 ** 50:
        assert count == round(expected)


def seven_to_nine(seed):
    """A seeded multigraph with 7 to 9 non-sink vertices and up to triple
    edges."""
    rng = random.Random(seed)
    return random_connected_multigraph(rng, rng.randint(8, 10), max_mult=3,
                                       extra_edges=10)


RELABEL_GRAPHS = (
    [(label, g, True) for label, g in graph_pool()]
    + [(f"seven-to-nine-{seed}", seven_to_nine(seed), False)
       for seed in SEEDS])


@pytest.mark.parametrize("label,g,counted", RELABEL_GRAPHS,
                         ids=[label for label, _, _ in RELABEL_GRAPHS])
def test_fast_paths_invariant_under_redeclaration(label, g, counted):
    # declaration order fixes the firing order, the fixpoint's scan, the
    # walker's assignment order and the elimination's ties; no answer
    # may depend on it
    rng = random.Random(label)
    h = redeclared(g, rng)
    assert h.spanning_tree_count() == g.spanning_tree_count()
    for c in unstable_samples(g, rng, 6):
        a, b = stabilize(g, c), stabilize(h, carried(g, h, c))
        assert b.final == carried(g, h, a.final), c
        assert b.odometer == carried(g, h, a.odometer), c
    top = tuple(d - 1 for d in g.nonsink_degrees)
    samples = []
    for _ in range(15):
        c = tuple(rng.randrange(d) for d in g.nonsink_degrees)
        rec = stabilize(g, [x + y for x, y in zip(c, top)]).final
        i = rng.randrange(len(c))
        samples += [c, rec, rec[:i] + (rec[i] - 1,) + rec[i + 1:]]
    for c in samples:
        d = carried(g, h, c)
        assert set(max_forbidden_set(h, d)) == set(max_forbidden_set(g, c))
        assert is_recurrent(h, d) == is_recurrent(g, c), c
        if min(c) >= 0:
            assert ((burning_sequence(h, d) is None)
                    == (burning_sequence(g, c) is None)), c
    if counted:
        for cls in ("recurrent", "pf", "ppf"):
            assert count_class(h, cls) == count_class(g, cls), cls


WALK_SPACE = 5000
GRAPH_CLASSES = [cls for cls in CLASSES if not cls.endswith("-inc")]


def leading_subgraph(g, space):
    """The induced subgraph on the longest run of leading non-sink vertices
    whose candidate space is at most ``space``.  The random multigraphs
    attach each vertex to an earlier one, so every such run is connected."""
    for n in range(len(g.nonsink), 0, -1):
        sub = g.induced_with_sink(g.nonsink[:n])
        if math.prod(sub.nonsink_degrees) <= space:
            return sub
    raise AssertionError("no leading subgraph fits")


def triple_edge_multigraph(seed):
    """3 to 6 non-sink vertices with up to triple edges.  Wide sink edges
    make burning starts that stop being starts as their value falls."""
    rng = random.Random(seed)
    return random_connected_multigraph(rng, rng.randint(4, 7), max_mult=3,
                                       extra_edges=6)


INC_FAMILIES = ([FamilySpec("complete", n=n) for n in range(2, 9)]
                + [FamilySpec(family, p=p, q=q)
                   for family in ("tripartite", "bipartite")
                   for p, q in ((2, 2), (2, 3), (3, 2), (3, 3))]
                + [FamilySpec("split", m=m, n=n)
                   for m, n in ((2, 1), (2, 2), (3, 2), (3, 3))])
WALK_CASES = (
    [(label, g, cls) for label, g in graph_pool() for cls in GRAPH_CLASSES]
    + [(f"random-{seed}", leading_subgraph(random_multigraph(seed), WALK_SPACE),
        cls) for seed in SEEDS for cls in GRAPH_CLASSES]
    + [(f"triple-{seed}",
        leading_subgraph(triple_edge_multigraph(seed), WALK_SPACE), cls)
       for seed in SEEDS for cls in GRAPH_CLASSES]
    + [(spec.label(), spec, cls) for spec in INC_FAMILIES
       for cls in ("pf-inc", "ppf-inc")])


@pytest.mark.parametrize("label,target,cls", WALK_CASES,
                         ids=[f"{label}-{cls}" for label, _, cls in WALK_CASES])
def test_pruned_walk_matches_generate_and_test(label, target, cls):
    assert list(iter_class(target, cls)) == reference_iter_class(target, cls)
