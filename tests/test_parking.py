import itertools
import sys
from functools import partial

import pytest
from hypothesis import given, strategies as st

from sandpark import (
    SizeCapError,
    UnknownVertexError,
    boost_except,
    build_graph,
    burning_starts_pf,
    config_from_pf,
    decomposing_partition,
    delete_one_vertex,
    failing_boost_vertex,
    is_decomposable,
    is_g_parking,
    is_g_parking_naive,
    is_prime,
    is_prime_bruteforce,
    burning_starts,
    drain_except,
    is_minimal_recurrent,
    is_recurrent,
    is_recurrent_orientation,
    is_sink_twin,
    is_strongly_recurrent,
    make_family,
    max_forbidden_set,
    FamilySpec,
    parking_from_dict,
    parking_violation,
    pf_from_config,
    prime_decompositions,
    restrict_partition,
)
from sandpark import sandpile
from conftest import boost_witness, graph_pool, triangle, twin_triangles

POOL = graph_pool()
SMALL = [(label, g) for label, g in POOL if len(g.nonsink) <= 4]


def candidates(g):
    return itertools.product(*(range(1, d + 1) for d in g.nonsink_degrees))


def parking_functions(g):
    return [p for p in candidates(g) if is_g_parking(g, p)]


def nonunique_decomposition_graph():
    """Cycle through the sink with a chord; one of its parking functions
    splits into prime blocks in two inequivalent ways."""
    return build_graph(["0", "v1", "v2", "v3", "v4"], "0",
                       [("0", "v1", 1), ("v1", "v2", 1), ("v2", "v3", 1),
                        ("v3", "v4", 1), ("v4", "0", 1), ("v3", "0", 1)])


class TestMembership:
    def test_triangle_set(self, k2):
        assert parking_functions(k2) == [(1, 1), (1, 2), (2, 1)]

    def test_positivity_enforced(self, k2):
        with pytest.raises(ValueError):
            is_g_parking(k2, (0, 1))
        with pytest.raises(ValueError):
            is_g_parking(k2, (1,))

    @pytest.mark.parametrize("bad", [(1.5, 1), (True, 1)])
    @pytest.mark.parametrize("route", [
        is_g_parking, is_g_parking_naive, is_prime, is_prime_bruteforce,
        config_from_pf, failing_boost_vertex, parking_violation,
        burning_starts_pf, prime_decompositions])
    def test_entries_must_be_integers(self, k2, route, bad):
        with pytest.raises(ValueError, match="'v1' must be an integer"):
            route(k2, bad)

    def test_above_degree_is_not_parking(self, k2):
        assert is_g_parking(k2, (1, 3)) is False

    def test_violation_witness(self, k2):
        assert parking_violation(k2, (1, 3)) == ("v2",)
        assert parking_violation(k2, (1, 1)) is None

    def test_violation_cap(self):
        g = make_family(FamilySpec("complete", n=21))
        with pytest.raises(SizeCapError):
            parking_violation(g, (1,) * 21)

    def test_naive_agrees_with_fast(self):
        for label, g in SMALL:
            for p in candidates(g):
                assert is_g_parking_naive(g, p) == is_g_parking(g, p), (label, p)

    def test_degree_complement_bijection(self):
        # c recurrent iff deg - c parks, and the maps invert each other
        for label, g in POOL:
            degs = g.nonsink_degrees
            for c in itertools.product(*(range(d) for d in degs)):
                p = tuple(d - x for d, x in zip(degs, c))
                assert is_g_parking(g, p) == is_recurrent(g, c), (label, c)
                if is_recurrent(g, c):
                    assert pf_from_config(g, c) == p
                    assert config_from_pf(g, p) == c

    def test_pf_from_config_domain(self, k2):
        with pytest.raises(ValueError):
            pf_from_config(k2, (2, 0))
        with pytest.raises(ValueError):
            pf_from_config(k2, (0, 0))

    def test_config_from_pf_domain(self, k2):
        with pytest.raises(ValueError):
            config_from_pf(k2, (0, 1))

    def test_parking_from_dict(self, k2):
        assert parking_from_dict(k2, {"values": {"v1": 1, "v2": 2}}) == (1, 2)
        with pytest.raises(ValueError):
            parking_from_dict(k2, {"values": {"v1": 1}})


class TestRestriction:
    def test_complete_example(self):
        g = make_family(FamilySpec("complete", n=4))
        p_a, p_b = restrict_partition(g, (3, 1, 3, 1), ("2", "4"), ("1", "3"))
        assert p_a == (1, 1)
        assert p_b == (1, 1)

    def test_second_block_may_go_nonpositive(self):
        g = make_family(FamilySpec("complete", n=3))
        p_a, p_b = restrict_partition(g, (1, 1, 2), ("1", "3"), ("2",))
        assert p_a == (1, 2)
        assert p_b == (-1,)

    def test_no_edges_between_blocks_keeps_values(self):
        g = twin_triangles()
        p_a, p_b = restrict_partition(g, (1, 2, 2, 1), ("a", "b"), ("c", "d"))
        assert p_a == (1, 2)
        assert p_b == (2, 1)

    def test_partition_validation(self, k2):
        with pytest.raises(ValueError):
            restrict_partition(k2, (1, 1), ("v1",), ("v1", "v2"))
        with pytest.raises(ValueError):
            restrict_partition(k2, (1, 1), ("v1",), ())
        with pytest.raises(UnknownVertexError):
            restrict_partition(k2, (1, 1), ("zz",), ("v2",))


class TestDecomposable:
    def test_complete_positive_example(self):
        g = make_family(FamilySpec("complete", n=4))
        assert is_decomposable(g, (3, 1, 3, 1), ("2", "4"), ("1", "3")) is True

    def test_complete_negative_example(self):
        g = make_family(FamilySpec("complete", n=3))
        assert is_decomposable(g, (1, 1, 2), ("1", "2"), ("3",)) is False

    def test_requires_parking_input(self, k2):
        with pytest.raises(ValueError):
            is_decomposable(k2, (2, 2), ("v1",), ("v2",))

    def test_first_witness(self):
        g = make_family(FamilySpec("complete", n=3))
        assert decomposing_partition(g, (1, 1, 3)) == (("1", "2"), ("3",))
        assert decomposing_partition(g, (1, 1, 2)) is None

    def test_blocks_joined_only_through_sink_may_decompose(self):
        # a and c sit in different triangles but both touch the sink, so
        # {a, c} still induces a connected subgraph and may carry a part
        g = twin_triangles()
        assert is_decomposable(g, (1, 2, 1, 2), ("a", "c"), ("b", "d"))

    def test_disconnected_block_never_decomposes(self):
        # a non-sink P vertex alone induces a disconnected subgraph: it has
        # no edge to the sink, which is also on the P side
        g = make_family(FamilySpec("bipartite", p=2, q=2))
        others = tuple(v for v in g.nonsink if v != "p1")
        for p in parking_functions(g):
            assert not is_decomposable(g, p, ("p1",), others)


class TestPrime:
    def test_triangle(self, k2):
        assert is_prime(k2, (1, 1)) is True
        assert is_prime(k2, (1, 2)) is False
        assert decomposing_partition(k2, (1, 2)) == (("v1",), ("v2",))

    def test_complete3_values(self):
        g = make_family(FamilySpec("complete", n=3))
        ppf = [p for p in parking_functions(g) if is_prime(g, p)]
        assert ppf == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_boost_internals(self):
        g = make_family(FamilySpec("complete", n=3))
        assert burning_starts_pf(g, (1, 1, 2)) == ("1", "2")
        assert boost_except(g, (1, 1, 2), "1") == (1, 2, 3)
        assert failing_boost_vertex(g, (1, 1, 2)) is None
        assert failing_boost_vertex(g, (1, 1, 3)) is not None

    def test_routes_agree_on_pool(self):
        for label, g in SMALL:
            for p in parking_functions(g):
                assert is_prime(g, p) == is_prime_bruteforce(g, p), (label, p)
                assert failing_boost_vertex(g, p) == boost_witness(g, p), \
                    (label, p)

    def test_requires_parking_input(self, k2):
        with pytest.raises(ValueError):
            is_prime(k2, (2, 2))
        with pytest.raises(ValueError):
            is_prime_bruteforce(k2, (2, 2))

    def test_bruteforce_cap(self):
        g = make_family(FamilySpec("complete", n=11))
        with pytest.raises(SizeCapError):
            is_prime_bruteforce(g, (1,) * 11)


class TestPrimeDecompositions:
    def test_prime_input_is_single_block(self, k2):
        assert prime_decompositions(k2, (1, 1)) == [(("v1", "v2"),)]

    def test_composite_input_splits(self, k2):
        assert prime_decompositions(k2, (1, 2)) == [(("v1",), ("v2",))]

    def test_every_parking_function_decomposes(self):
        for label, g in SMALL:
            for p in parking_functions(g):
                decomps = prime_decompositions(g, p)
                assert decomps, (label, p)
                for blocks in decomps:
                    flat = [v for blk in blocks for v in blk]
                    assert sorted(flat) == sorted(g.nonsink), (label, p)

    def test_single_block_iff_prime(self):
        for label, g in SMALL:
            for p in parking_functions(g):
                single = ((tuple(g.nonsink),) in
                          prime_decompositions(g, p))
                assert single == is_prime(g, p), (label, p)

    def test_decomposition_not_unique(self):
        g = nonunique_decomposition_graph()
        p = (1, 2, 1, 1)
        decomps = prime_decompositions(g, p)
        assert (("v1",), ("v2", "v3", "v4")) in decomps
        assert (("v3", "v4"), ("v1", "v2")) in decomps
        shapes = {tuple(sorted(len(b) for b in blocks)) for blocks in decomps}
        assert len(shapes) >= 2


class TestVertexDeletion:
    def test_sink_twin_complete(self):
        g = make_family(FamilySpec("complete", n=4))
        assert all(is_sink_twin(g, v) for v in g.nonsink)

    def test_sink_twin_bipartite(self):
        g = make_family(FamilySpec("bipartite", p=3, q=2))
        assert not any(is_sink_twin(g, v) for v in g.nonsink)

    def test_sink_twin_split(self):
        g = make_family(FamilySpec("split", m=3, n=2))
        clique, independent = ("c1", "c2"), ("i1", "i2")
        assert all(is_sink_twin(g, v) for v in clique)
        assert not any(is_sink_twin(g, v) for v in independent)

    def test_unknown_vertex(self, k2):
        with pytest.raises(UnknownVertexError):
            is_sink_twin(k2, "zz")
        with pytest.raises(UnknownVertexError):
            delete_one_vertex(k2, (1, 1), "0")

    def test_delete_one_vertex_shapes(self):
        g = make_family(FamilySpec("complete", n=4))
        g2, p2 = delete_one_vertex(g, (1, 2, 1, 3), "2")
        assert g2.nonsink == ("1", "3", "4")
        assert p2 == (1, 1, 3)

    def test_deletion_preserves_parking_for_low_prime_values(self):
        # prime functions with p(v) within the sink multiplicity survive
        # deleting v whenever every other vertex sees v and the sink alike
        for spec in (FamilySpec("complete", n=4), FamilySpec("split", m=3, n=2)):
            g = make_family(spec)
            for p in parking_functions(g):
                if not is_prime(g, p):
                    continue
                for v in g.nonsink:
                    if not is_sink_twin(g, v):
                        continue
                    if p[g.nonsink_pos[v]] > g.multiplicity(v, g.sink):
                        continue
                    g2, p2 = delete_one_vertex(g, p, v)
                    assert is_g_parking(g2, p2), (spec.label(), p, v)


@given(st.data())
def test_random_candidates_agree_across_routes(data):
    label, g = data.draw(st.sampled_from(SMALL))
    p = tuple(data.draw(st.integers(1, d)) for d in g.nonsink_degrees)
    assert is_g_parking(g, p) == is_g_parking_naive(g, p)


class TestOneCheckPerCall:
    """A public call checks its input once; what it derives from checked
    input goes to the private cores unchecked."""

    @pytest.fixture()
    def checks(self, monkeypatch):
        real = sandpile._check_config
        count = [0]

        def counted(g, c):
            count[0] += 1
            return real(g, c)

        bound = [m for name, m in sys.modules.items()
                 if name.startswith("sandpark.")
                 and getattr(m, "_check_config", None) is real]
        assert {m.__name__ for m in bound} >= {
            "sandpark.sandpile", "sandpark.parking", "sandpark.reference"}
        for module in bound:
            monkeypatch.setattr(module, "_check_config", counted)
        return count

    @staticmethod
    def assert_one_check(checks, call, arg):
        before = checks[0]
        call(arg)
        assert checks[0] == before + 1, (call, arg)

    @pytest.mark.parametrize("label,g", SMALL, ids=[l for l, _ in SMALL])
    def test_configuration_routes(self, checks, label, g):
        routes = [is_recurrent, is_minimal_recurrent, max_forbidden_set,
                  burning_starts, is_recurrent_orientation,
                  partial(is_strongly_recurrent, quantifier="forall"),
                  partial(is_strongly_recurrent, quantifier="exists")]
        for c in itertools.product(*(range(d) for d in g.nonsink_degrees)):
            for route in routes:
                self.assert_one_check(checks, partial(route, g), c)
            for v in burning_starts(g, c):
                self.assert_one_check(checks, partial(drain_except, g, v=v), c)

    @pytest.mark.parametrize("label,g", SMALL, ids=[l for l, _ in SMALL])
    def test_parking_routes(self, checks, label, g):
        for p in candidates(g):
            self.assert_one_check(checks, partial(is_g_parking, g), p)
        for p in parking_functions(g):
            for route in (config_from_pf, failing_boost_vertex, is_prime):
                self.assert_one_check(checks, partial(route, g), p)
