"""Merino's level polynomial as a graded oracle for the enumeration walk.

The recurrent configurations of a connected multigraph, counted by
level(c) = sum(c) - |E| + deg(sink), have generating function T_G(1, y)
(Merino López, "Chip firing and the Tutte polynomial", 1997).  Through the
degree complement p = deg - c a parking function has level |E| - sum(p).
The Tutte evaluation below is a deletion-contraction that shares nothing
with the package: it checks the walk's whole level distribution, not only
the matrix-tree total, on the pool, on seeded random multigraphs past the
generate-and-test size cut, and on Hypothesis-drawn multigraphs.
"""

import random
from collections import Counter
from itertools import zip_longest

from hypothesis import given, settings, strategies as st

from sandpark import (build_graph, iter_class, random_connected_multigraph,
                      stabilize)
from conftest import reference_stabilize


def _padd(a, b):
    return tuple(map(sum, zip_longest(a, b, fillvalue=0)))


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i + j] += x * z
    return tuple(out)


def _joined(classes, u, v):
    """Whether ``u`` and ``v`` are connected along ``classes``."""
    seen, todo = {u}, [u]
    while todo:
        a = todo.pop()
        for (p, q), _ in classes:
            for b in ((q,) if p == a else (p,) if q == a else ()):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
    return v in seen


def _tutte_1y(classes, memo):
    """Coefficients of T(1, y) of a connected loop-free multigraph.

    ``classes`` is a frozenset of ``((u, v), m)``, u < v, one entry per
    parallel class.  Contracting one edge of a class turns the other m - 1
    into loops (a factor y each) and deleting it leaves m - 1, so at x = 1
    the class unrolls to T = (1 + y + ... + y^(m-1)) T(G / class)
    + T(G - class).  The last term drops when the class is a bridge: its
    last edge is then a bridge, a factor x = 1.  ``memo`` maps each edge
    multiset already evaluated to its polynomial.
    """
    if not classes:
        return (1,)
    if classes in memo:
        return memo[classes]
    (u, v), m = cls = max(classes, key=lambda c: (c[0][1], c[0][0]))
    rest = classes - {cls}
    merged = Counter()
    for (p, q), k in rest:
        p, q = (u if p == v else p), (u if q == v else q)
        merged[min(p, q), max(p, q)] += k
    out = _pmul((1,) * m, _tutte_1y(frozenset(merged.items()), memo))
    if _joined(rest, u, v):
        out = _padd(out, _tutte_1y(rest, memo))
    memo[classes] = out
    return out


def tutte_1y(g):
    """T_G(1, y) coefficients, lowest degree first."""
    return _tutte_1y(frozenset(((i, j), m) for i, row in enumerate(g.rows)
                               for j, m in row if i < j), {})


def distribution(levels):
    count = Counter(levels)
    return tuple(count[d] for d in range(max(count) + 1))


def recurrent_levels(g):
    shift = g.edge_total - sum(g.sink_mults)
    return distribution(sum(c) - shift for c in iter_class(g, "recurrent"))


def parking_levels(g):
    return distribution(g.edge_total - sum(p) for p in iter_class(g, "pf"))


def test_triangle():
    g = build_graph(["0", "v1", "v2"], "0",
                    [("0", "v1", 1), ("0", "v2", 1), ("v1", "v2", 1)])
    # T_K3(x, y) = x^2 + x + y
    assert tutte_1y(g) == recurrent_levels(g) == parking_levels(g) == (2, 1)


def test_parallel_class_is_a_unit():
    # a double edge: T = x + y; a triple edge followed by a single one:
    # T = (x + y + y^2) x
    two = build_graph(["0", "a"], "0", [("0", "a", 2)])
    assert tutte_1y(two) == (1, 1)
    three = build_graph(["0", "a", "b"], "0", [("0", "a", 3), ("a", "b", 1)])
    assert tutte_1y(three) == (1, 1, 1)


def test_pool_levels(pool):
    for label, g in pool:
        want = tutte_1y(g)
        assert recurrent_levels(g) == want, label
        assert parking_levels(g) == want, label


def _seeded_graphs(count, tree_cap):
    rng = random.Random(1997)
    made = []
    while len(made) < count:
        g = random_connected_multigraph(rng, rng.randint(8, 10),
                                        max_mult=rng.randint(1, 3),
                                        extra_edges=8)
        if g.spanning_tree_count() <= tree_cap:
            made.append(g)
    return made


def test_seeded_multigraphs_past_the_size_cut():
    # 7 to 9 non-sink vertices: past the pool and the 5,000-candidate cut
    # of the generate-and-test comparison
    graphs = _seeded_graphs(20, 20000)
    assert min(len(g.nonsink) for g in graphs) >= 7
    for g in graphs:
        want = tutte_1y(g)
        assert recurrent_levels(g) == want, g.vertices
        assert parking_levels(g) == want, g.vertices
        assert sum(want) == g.spanning_tree_count()


@st.composite
def connected_multigraphs(draw, max_nonsink=5, max_mult=2):
    """A random tree plus extra edges, with a drawn sink."""
    n = draw(st.integers(2, max_nonsink + 1))
    names = [f"v{i}" for i in range(n)]
    pair = st.integers(1, max_mult)
    edges = [(names[i], names[draw(st.integers(0, i - 1))], draw(pair))
             for i in range(1, n)]
    for a, b, m in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1), pair),
                                 max_size=n)):
        if a != b:
            edges.append((names[a], names[b], m))
    return build_graph(names, draw(st.sampled_from(names)), edges)


@settings(max_examples=60)
@given(connected_multigraphs(max_nonsink=6))
def test_walk_levels_match_tutte(g):
    want = tutte_1y(g)
    assert recurrent_levels(g) == want
    assert parking_levels(g) == want


@settings(max_examples=60)
@given(connected_multigraphs(max_nonsink=11, max_mult=3))
def test_tree_count_is_tutte_at_one_one(g):
    assert g.spanning_tree_count() == sum(tutte_1y(g))


@settings(max_examples=60)
@given(connected_multigraphs(max_nonsink=8, max_mult=3), st.data())
def test_stabilize_matches_scan_reference(g, data):
    c = data.draw(st.tuples(*(st.integers(0, 2 * d)
                              for d in g.nonsink_degrees)))
    assert stabilize(g, c) == reference_stabilize(g, c)
