"""Shared test graphs and reference helpers.

The pool holds every named instance the exhaustive sweeps run on; all of
them have at most 6 non-sink vertices so full stable/candidate spaces stay
cheap to enumerate.
"""

from functools import partial
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import settings

from sandpark import (build_graph, boost_except, burning_starts_pf,
                      family_parts, graph_to_dict, is_g_parking,
                      is_minimal_recurrent, is_prime, is_recurrent,
                      is_recurrent_burning, is_strongly_recurrent, make_family, FamilySpec,
                      StabilisationTrace, ToppleLimitError)
from sandpark.sandpile import DEFAULT_MAX_TOPPLINGS

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def triangle():
    return build_graph(["0", "v1", "v2"], "0",
                       [("0", "v1", 1), ("0", "v2", 1), ("v1", "v2", 1)])


def twin_triangles():
    """Two triangles glued at the sink; the sink is a cut vertex."""
    return build_graph(["0", "a", "b", "c", "d"], "0",
                       [("0", "a", 1), ("0", "b", 1), ("a", "b", 1),
                        ("0", "c", 1), ("0", "d", 1), ("c", "d", 1)])


def sink_multiedge_pair():
    """Three vertices with parallel edges into the sink."""
    return build_graph(["0", "v1", "v2"], "0",
                       [("0", "v1", 2), ("0", "v2", 3), ("v1", "v2", 1)])


def sink_multiedge_square():
    """Four non-sink vertices, one double edge at the sink."""
    return build_graph(["0", "v1", "v2", "v3", "v4"], "0",
                       [("0", "v1", 2), ("v1", "v2", 1), ("v2", "v3", 1),
                        ("v3", "v4", 1), ("v4", "0", 1), ("v1", "v3", 1)])


def _family_pool():
    specs = [FamilySpec("complete", n=n) for n in (2, 3, 4, 5)]
    specs += [FamilySpec("wheel", n=n) for n in (3, 4, 5, 6)]
    specs += [FamilySpec("tripartite", p=p, q=q) for p, q in ((2, 2), (2, 3), (3, 3))]
    specs += [FamilySpec("bipartite", p=p, q=q) for p, q in ((2, 2), (3, 2), (3, 3))]
    specs += [FamilySpec("split", m=m, n=n) for m, n in ((2, 1), (2, 2), (3, 2))]
    return [(spec.label(), make_family(spec)) for spec in specs]


def graph_pool():
    """Every named test graph, as (label, graph) pairs."""
    pool = _family_pool()
    pool.append(("twin-triangles", twin_triangles()))
    pool.append(("sink-multiedge-pair", sink_multiedge_pair()))
    pool.append(("sink-multiedge-square", sink_multiedge_square()))
    return pool


def boost_witness(g, p):
    """Parking-side definition of the primality witness: the first burning
    start whose boost leaves no parking function, or None."""
    for v in burning_starts_pf(g, p):
        if not is_g_parking(g, boost_except(g, p, v)):
            return v
    return None


def reference_strongly_recurrent(g, c, quantifier):
    """Strong recurrence by its definition, on a stable non-negative ``c``.

    Each burning start (a sink neighbour that goes unstable when the sink
    fires) is drained by hand: every other vertex gives back its sink-edge
    grains.  A drain with a negative entry is not recurrent; any other is
    put to the burning test.  ``forall`` asks every drain to be recurrent
    and ``exists`` one; non-recurrent ``c`` is neither."""
    if not is_recurrent_burning(g, c):
        return False
    sink = g.sink_mults
    drains = [tuple(y if j == i else y - m for j, (y, m) in enumerate(zip(c, sink)))
              for i, (x, d) in enumerate(zip(c, g.nonsink_degrees))
              if sink[i] and x + sink[i] >= d]
    verdicts = [min(drained) >= 0 and is_recurrent_burning(g, drained)
                for drained in drains]
    return all(verdicts) if quantifier == "forall" else any(verdicts)


def grid_with_sink_border(side):
    """side x side grid, row-major names r.c; each missing border neighbour
    is an edge to the sink "s", so every vertex has degree 4."""
    names = ["s"] + [f"{r}.{c}" for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < side and 0 <= cc < side:
                    if (dr, dc) in ((0, 1), (1, 0)):
                        edges.append((f"{r}.{c}", f"{rr}.{cc}", 1))
                else:
                    edges.append((f"{r}.{c}", "s", 1))
    return build_graph(names, "s", edges)


def reference_stabilize(g, c, *, rng=None,
                        max_topplings=DEFAULT_MAX_TOPPLINGS):
    """Scan-order stabilisation: rescan every vertex before each firing and
    walk the dense row.  Reference for the worklist ``stabilize``.  With
    ``rng`` a uniformly chosen unstable vertex fires instead of the first:
    the shuffled orders the abelian-property tests draw."""
    degs = g.nonsink_degrees
    adj = g.nonsink_adj
    k = len(degs)
    cur = list(c)
    odometer = [0] * k
    log = []
    fired = 0
    while True:
        unstable = [i for i in range(k) if cur[i] >= degs[i]]
        if not unstable:
            break
        i = unstable[0] if rng is None else rng.choice(unstable)
        fired += 1
        if fired > max_topplings:
            raise ToppleLimitError(
                f"stabilisation exceeded {max_topplings} topplings")
        cur[i] -= degs[i]
        row = adj[i]
        for j in range(k):
            if row[j]:
                cur[j] += row[j]
        odometer[i] += 1
        log.append(g.nonsink[i])
    return StabilisationTrace(tuple(cur), tuple(odometer), tuple(log))


def redeclared(g, rng):
    """``g`` with its non-sink vertices declared in a shuffled order; the
    sink, its place and every edge stay."""
    order = list(g.nonsink)
    rng.shuffle(order)
    names = iter(order)
    vertices = [v if v == g.sink else next(names) for v in g.vertices]
    return build_graph(vertices, g.sink,
                       [tuple(e) for e in graph_to_dict(g)["edges"]])


def carried(g, h, c):
    """Configuration ``c`` of ``g`` in the declaration order of ``h``, a
    relabelling of ``g``."""
    return tuple(c[g.nonsink_pos[v]] for v in h.nonsink)


def det_bareiss(a):
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(a)
    if n == 0:
        return 1
    a = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reference_tree_count(g):
    """Matrix-tree count by Bareiss on the dense reduced Laplacian."""
    deg, adj = g.nonsink_degrees, g.nonsink_adj
    k = len(deg)
    return det_bareiss([[deg[i] if i == j else -adj[i][j] for j in range(k)]
                        for i in range(k)])


def _is_prime_pf(g, p):
    return is_g_parking(g, p) and is_prime(g, p)


# class -> (membership test of a complete candidate, or None; lowest value)
_REFERENCE_MEMBERSHIP = {
    "stable": (None, 0),
    "recurrent": (is_recurrent, 0),
    "sr-forall": (partial(is_strongly_recurrent, quantifier="forall"), 0),
    "sr-exists": (partial(is_strongly_recurrent, quantifier="exists"), 0),
    "min-recurrent": (is_minimal_recurrent, 0),
    "pf": (is_g_parking, 1),
    "ppf": (_is_prime_pf, 1),
    "pf-inc": (is_g_parking, 1),
    "ppf-inc": (_is_prime_pf, 1),
}


def reference_iter_class(target, cls, first=None):
    """Generate-and-test enumeration: every candidate of the full space in
    lexicographic order, filtered by the class's membership test.  Increasing
    classes take the candidates non-decreasing inside each family part.
    ``first`` keeps only the ``first``-th value of the first coordinate.
    Reference for the pruned walk of ``iter_class``."""
    test, low = _REFERENCE_MEMBERSHIP[cls]
    g = make_family(target) if isinstance(target, FamilySpec) else target
    if cls.endswith("-inc"):
        parts = [(range(low, low + g.deg(part[0])), len(part))
                 for part in family_parts(target)]
        cands = (sum(chunks, ()) for chunks in product(
            *(combinations_with_replacement(r, s) for r, s in parts)))
        if first is not None:
            cands = (c for c in cands if c[0] == low + first)
    else:
        ranges = [range(low, low + d) for d in g.nonsink_degrees]
        if first is not None:
            ranges[0] = ranges[0][first:first + 1]
        cands = product(*ranges)
    return [c for c in cands if test is None or test(g, c)]


@pytest.fixture(scope="session")
def pool():
    return graph_pool()


@pytest.fixture()
def k2():
    return triangle()
