import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from sandpark import (
    DisconnectedGraphError,
    DuplicateVertexError,
    GraphError,
    LoopEdgeError,
    RootedMultigraph,
    SizeCapError,
    TooFewVerticesError,
    UnknownVertexError,
    build_graph,
    count_class,
    graph_from_dict,
    graph_to_dict,
    is_recurrent,
    is_strongly_recurrent,
    iter_class,
    load_graph,
    make_family,
    markov_run,
    FamilySpec,
    random_connected_multigraph,
    save_graph,
    stabilize,
)
from sandpark import graph as graph_module
from conftest import (graph_pool, grid_with_sink_border, reference_tree_count,
                      sink_multiedge_pair, sink_multiedge_square, triangle,
                      twin_triangles)

POOL = graph_pool()


class TestBuild:
    def test_triangle_shape(self):
        g = triangle()
        assert g.vertices == ("0", "v1", "v2")
        assert g.sink == "0"
        assert g.nonsink == ("v1", "v2")
        assert g.deg("0") == 2
        assert g.deg("v1") == 2
        assert g.multiplicity("v1", "v2") == 1
        assert g.multiplicity("v1", "v1") == 0

    def test_duplicate_edges_sum(self):
        g = build_graph(["0", "a"], "0", [("0", "a", 1), ("a", "0", 2)])
        assert g.multiplicity("0", "a") == 3
        assert g.edge_total == 3

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            build_graph(["0", "a"], "0", [("a", "a", 1), ("0", "a", 1)])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateVertexError):
            build_graph(["0", "a", "a"], "0", [("0", "a", 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownVertexError):
            build_graph(["0", "a"], "0", [("0", "b", 1)])

    def test_unknown_sink_rejected(self):
        with pytest.raises(UnknownVertexError):
            build_graph(["0", "a"], "z", [("0", "a", 1)])

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVerticesError):
            build_graph(["0"], "0", [])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            build_graph(["0", "a", "b"], "0", [("0", "a", 1)])

    def test_bad_multiplicity(self):
        with pytest.raises(GraphError):
            build_graph(["0", "a"], "0", [("0", "a", 0)])
        with pytest.raises(GraphError):
            build_graph(["0", "a"], "0", [("0", "a", True)])

    def test_multiedge(self):
        g = sink_multiedge_pair()
        assert g.multiplicity("0", "v1") == 2
        assert g.multiplicity("0", "v2") == 3
        assert g.deg("v2") == 4
        assert g.sink_mults == (2, 3)


class TestDegrees:
    def test_handshake(self):
        for label, g in POOL:
            assert sum(g.deg(v) for v in g.vertices) == 2 * g.edge_total, label

    def test_deg_within(self):
        g = make_family(FamilySpec("complete", n=3))
        v = g.nonsink[0]
        assert g.deg_within(v, set(g.nonsink)) == 2
        assert g.deg_within(v, {v}) == 0
        assert g.deg_within(v, set(g.vertices)) == g.deg(v)

    @given(st.data())
    def test_deg_within_additive_over_complement(self, data):
        label, g = data.draw(st.sampled_from(POOL))
        v = data.draw(st.sampled_from(g.nonsink))
        subset = {
            w for w in g.vertices
            if w != v and data.draw(st.booleans())
        }
        rest = set(g.vertices) - subset
        assert g.deg_within(v, subset) + g.deg_within(v, rest) == g.deg(v)


class TestInducedAndDelete:
    def test_induced_keeps_declaration_order(self):
        g = make_family(FamilySpec("wheel", n=5))
        sub = g.induced_with_sink(["3", "1"])
        assert sub.vertices == ("0", "1", "3")
        assert sub.multiplicity("0", "1") == 1
        assert sub.multiplicity("1", "3") == 0

    def test_induced_disconnected_rejected(self):
        g = make_family(FamilySpec("bipartite", p=2, q=2))
        with pytest.raises(DisconnectedGraphError):
            g.induced_with_sink(["p2"])

    def test_induced_rejects_sink_member(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.induced_with_sink(["0", "v1"])

    def test_delete_vertex(self):
        g = make_family(FamilySpec("complete", n=4))
        g2 = g.delete_vertex(g.nonsink[0])
        assert len(g2.vertices) == 4
        for a in g2.vertices:
            for b in g2.vertices:
                if a != b:
                    assert g2.multiplicity(a, b) == 1

    def test_delete_sink_rejected(self):
        with pytest.raises(GraphError):
            triangle().delete_vertex("0")

    def test_delete_disconnecting_rejected(self):
        g = build_graph(["0", "a", "b"], "0", [("0", "a", 1), ("a", "b", 1)])
        with pytest.raises(DisconnectedGraphError):
            g.delete_vertex("a")

    def test_delete_below_minimum_rejected(self):
        g = build_graph(["0", "a"], "0", [("0", "a", 1)])
        with pytest.raises(TooFewVerticesError):
            g.delete_vertex("a")


class TestSinkCut:
    def test_twin_triangles_cut(self):
        assert twin_triangles().sink_is_cut_vertex() is True

    def test_complete_not_cut(self):
        assert make_family(FamilySpec("complete", n=4)).sink_is_cut_vertex() is False

    def test_single_nonsink_not_cut(self):
        g = build_graph(["0", "a"], "0", [("0", "a", 1)])
        assert g.sink_is_cut_vertex() is False


class TestSpanningTrees:
    def test_cayley(self):
        # complete graph on n+1 vertices has (n+1)^(n-1) spanning trees
        expected = {2: 3, 3: 16, 4: 125, 5: 1296, 6: 16807}
        for n, count in expected.items():
            g = make_family(FamilySpec("complete", n=n))
            assert g.spanning_tree_count() == count

    def test_single_multiedge(self):
        for m in (1, 2, 5):
            g = build_graph(["0", "a"], "0", [("0", "a", m)])
            assert g.spanning_tree_count() == m

    def test_cycle(self):
        g = build_graph(["0", "a", "b", "c"], "0",
                        [("0", "a", 1), ("a", "b", 1), ("b", "c", 1), ("c", "0", 1)])
        assert g.spanning_tree_count() == 4

    def test_multiedge_pair(self):
        # trees pick one edge per parallel class: 2*3 + 2*1 + 3*1 = 11
        assert sink_multiedge_pair().spanning_tree_count() == 11

    def test_positive_on_pool(self):
        for label, g in POOL:
            assert g.spanning_tree_count() >= 1, label

    def test_hadamard_bound_capped_before_elimination(self, monkeypatch):
        # the 16x16 grid's degree-product bound is 4^256 = 2^512, above 2^89 - 1
        g = grid_with_sink_border(16)
        expected = g.spanning_tree_count()

        def no_inverse(*args):
            raise AssertionError("elimination started")

        monkeypatch.setattr(graph_module, "pow", no_inverse, raising=False)
        monkeypatch.setattr(graph_module, "_MERSENNE_EXPONENTS", (61, 89))
        with pytest.raises(SizeCapError):
            g.spanning_tree_count()
        monkeypatch.undo()
        monkeypatch.setattr(graph_module, "_MERSENNE_EXPONENTS", (61, 89, 607))
        assert g.spanning_tree_count() == expected

    def test_degree_product_bound_picks_smaller_prime(self, monkeypatch):
        # the degree product 2^512 fits below 2^521 - 1; the product of the
        # row norms (about 2^551) does not
        g = grid_with_sink_border(16)
        expected = g.spanning_tree_count()
        monkeypatch.setattr(graph_module, "_MERSENNE_EXPONENTS", (61, 89, 521))
        assert g.spanning_tree_count() == expected

    def test_star_with_hub_declared_first(self):
        # Eliminating the hub first would fill the whole leaf block; the
        # minimum-degree order takes the leaves first and fills nothing.
        leaves = [f"l{i}" for i in range(40)]
        edges = [("h", "s", 1)]
        for i, v in enumerate(leaves):
            edges.append(("h", v, 2 if i % 3 == 0 else 1))
            edges.append((v, "s", 2 if i % 5 == 0 else 1))
        g = build_graph(["h", *leaves, "s"], "s", edges)
        assert g.spanning_tree_count() == reference_tree_count(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_declaration_order(self, seed):
        rng = random.Random(seed)
        g = random_connected_multigraph(rng, 12, max_mult=3, extra_edges=12)
        names = list(g.vertices)
        rng.shuffle(names)
        edges = [tuple(e) for e in graph_to_dict(g)["edges"]]
        shuffled = build_graph(names, g.sink, edges)
        assert shuffled.vertices != g.vertices
        expected = reference_tree_count(g)
        assert g.spanning_tree_count() == expected
        assert shuffled.spanning_tree_count() == expected

    @pytest.mark.parametrize("side", [12, 16, 20])
    def test_grid_matches_eigenvalue_product(self, side):
        # The sink-border grid's reduced Laplacian is the Dirichlet
        # Laplacian of the side x side grid, whose eigenvalues are known.
        angles = [j * math.pi / (side + 1) for j in range(1, side + 1)]
        expected = math.fsum(math.log(4 - 2 * math.cos(a) - 2 * math.cos(b))
                             for a in angles for b in angles)
        count = grid_with_sink_border(side).spanning_tree_count()
        assert math.isclose(math.log(count), expected, rel_tol=1e-12)

    def test_disconnected_graph_rejected(self):
        # Hand-built, since build_graph refuses it: sink-a and b-c.
        g = RootedMultigraph(("s", "a", "b", "c"), "s",
                             (((1, 1),), ((0, 1),), ((3, 1),), ((2, 1),)))
        with pytest.raises(DisconnectedGraphError):
            g.spanning_tree_count()


class TestJson:
    def test_round_trip(self, tmp_path):
        for label, g in POOL:
            path = tmp_path / "g.json"
            save_graph(g, path)
            assert load_graph(path) == g, label

    def test_dict_shape(self):
        d = graph_to_dict(triangle())
        assert d["vertices"] == ["0", "v1", "v2"]
        assert d["sink"] == "0"
        assert ["v1", "v2", 1] in d["edges"]

    def test_edges_require_multiplicity(self):
        d = {"vertices": ["0", "a"], "sink": "0", "edges": [["0", "a"]]}
        with pytest.raises(GraphError):
            graph_from_dict(d)

    def test_missing_key_rejected(self):
        with pytest.raises(GraphError):
            graph_from_dict({"vertices": ["0", "a"], "edges": []})

    @pytest.mark.parametrize("endpoint", [["a"], {"a": 1}])
    def test_non_string_endpoint_rejected(self, endpoint):
        for edge in ([endpoint, "0", 1], ["0", endpoint, 1]):
            d = {"vertices": ["0", "a"], "sink": "0", "edges": [edge]}
            with pytest.raises(GraphError):
                graph_from_dict(d)

    def test_file_contents_are_json(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(triangle(), path)
        parsed = json.loads(path.read_text())
        assert parsed["sink"] == "0"


class TestValueSemantics:
    def test_equality_and_hash(self):
        assert triangle() == triangle()
        assert hash(triangle()) == hash(triangle())

    def test_frozen(self):
        g = triangle()
        with pytest.raises(AttributeError):
            g.sink = "v1"

    def test_is_dataclass_instance(self):
        assert isinstance(triangle(), RootedMultigraph)


class TestSparseRows:
    def test_rows_are_sorted_index_multiplicity_pairs(self):
        g = sink_multiedge_pair()
        assert g.rows == (((1, 2), (2, 3)), ((0, 2), (2, 1)),
                          ((0, 3), (1, 1)))

    @pytest.mark.parametrize("make", [sink_multiedge_square,
                                      lambda: grid_with_sink_border(6)],
                             ids=["pool", "grid6"])
    def test_fast_paths_never_build_dense_view(self, make):
        # cached_property stores into the instance __dict__, so a view that
        # was ever built shows up there.
        g = make()
        assert g.is_connected() and not g.sink_is_cut_vertex()
        g.nonsink_nbrs, g.sink_mults
        top = tuple(d - 1 for d in g.nonsink_degrees)
        stabilize(g, tuple(2 * d for d in g.nonsink_degrees))
        assert is_recurrent(g, top)
        is_strongly_recurrent(g, top)
        assert g.spanning_tree_count() >= 1
        markov_run(g, top, 50, 1)
        if len(g.nonsink) <= 6:
            assert count_class(g, "recurrent") == g.spanning_tree_count()
        else:
            next(iter_class(g, "recurrent", cap=math.prod(g.nonsink_degrees)))
        graph_to_dict(g)
        v = g.nonsink[0]
        g.induced_with_sink([v])
        g.multiplicity(v, g.sink)
        g.deg_within(v, g.nonsink)
        assert "nonsink_adj" not in g.__dict__


def _star(leaves):
    """The sink as hub, each leaf joined to it by one edge."""
    names = [f"v{i}" for i in range(leaves)]
    return build_graph(["s"] + names, "s", [(v, "s", 1) for v in names])


class TestLargeSparse:
    @pytest.mark.parametrize("make,k,sink_deg,deg", [
        (lambda: grid_with_sink_border(100), 10000, 400, 4),
        (lambda: _star(1501), 1501, 1501, 1)], ids=["grid100", "star1501"])
    def test_build_query_round_trip(self, tmp_path, make, k, sink_deg, deg):
        g = make()
        assert g.degrees == (sink_deg,) + (deg,) * k
        assert g.edge_total == (sink_deg + deg * k) // 2
        assert g.is_connected()
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g
        assert is_recurrent(g, tuple(d - 1 for d in g.nonsink_degrees))

    def test_grid100_tree_count_capped_before_elimination(self, monkeypatch):
        # degree product 4^10000 = 2^20000, above 2^11213 - 1
        def no_order(*args):
            raise AssertionError("elimination started")

        monkeypatch.setattr(graph_module, "_min_degree_order", no_order)
        with pytest.raises(SizeCapError):
            grid_with_sink_border(100).spanning_tree_count()
