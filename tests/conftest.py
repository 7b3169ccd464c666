"""Shared test graphs and reference helpers.

The pool holds every named instance the exhaustive sweeps run on; all of
them have at most 6 non-sink vertices so full stable/candidate spaces stay
cheap to enumerate.
"""

import pytest
from hypothesis import settings

from sandpark import (build_graph, boost_except, burning_starts_pf,
                      is_g_parking, make_family, FamilySpec)

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


@pytest.fixture(scope="session")
def pool():
    return graph_pool()


@pytest.fixture()
def k2():
    return triangle()
