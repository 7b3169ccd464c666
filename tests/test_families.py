import itertools

import pytest

from sandpark import (
    FamilySpec,
    bipartite_graph,
    bipartite_prime_bijection,
    bipartite_prime_bijection_inverse,
    catalan,
    closed_form_count,
    complete_graph,
    family_parts,
    graph_to_dict,
    is_g_parking,
    is_pq_parking,
    is_prime,
    is_prime_pq,
    is_recurrent,
    is_sink_twin,
    is_strongly_recurrent,
    make_family,
    path_with_e_heights,
    path_with_n_positions,
    pq_paths,
    split_graph,
    split_prime_bijection,
    split_prime_bijection_inverse,
    tripartite_graph,
    wheel_graph,
    wheel_recurrent,
    wheel_strongly_recurrent,
)
from sandpark.families import _degree_groups

EXAMPLE_PAIR = ((3, 4, 1, 1, 3), (1, 3, 2, 1))
FAMILY_PARAMS = {"complete": ("n",), "wheel": ("n",), "tripartite": ("p", "q"),
                 "bipartite": ("p", "q"), "split": ("m", "n")}


def stable_configs(g):
    return itertools.product(*(range(d) for d in g.nonsink_degrees))


def candidates(g):
    return itertools.product(*(range(1, d + 1) for d in g.nonsink_degrees))


def increasing_tuples(length, lo, hi):
    return itertools.combinations_with_replacement(range(lo, hi + 1), length)


class TestSpecs:
    def test_labels(self):
        assert FamilySpec("complete", n=4).label() == "K4^0"
        assert FamilySpec("wheel", n=5).label() == "W5^0"
        assert FamilySpec("tripartite", p=2, q=2).label() == "K(2,2)^0"
        assert FamilySpec("bipartite", p=3, q=2).label() == "K(3*,2)"
        assert FamilySpec("split", m=2, n=1).label() == "S(2*,1)"

    def test_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("moebius", n=3)
        with pytest.raises(ValueError):
            FamilySpec("complete")
        with pytest.raises(ValueError):
            FamilySpec("complete", n=4, p=2)
        with pytest.raises(ValueError):
            FamilySpec("wheel", n=2)
        with pytest.raises(ValueError):
            FamilySpec("split", m=0, n=1)
        with pytest.raises(ValueError, match="needs integer n >= 1"):
            FamilySpec("complete", n=True)
        with pytest.raises(ValueError, match="needs integer p >= 1"):
            FamilySpec("bipartite", p=False, q=2)

    def test_parts_tile_nonsink(self):
        for spec in (FamilySpec("complete", n=3),
                     FamilySpec("tripartite", p=2, q=3),
                     FamilySpec("bipartite", p=3, q=2),
                     FamilySpec("split", m=2, n=2)):
            g = make_family(spec)
            flat = tuple(v for part in family_parts(spec) for v in part)
            assert flat == g.nonsink

    def test_wheel_has_no_parts(self):
        with pytest.raises(ValueError):
            family_parts(FamilySpec("wheel", n=4))


FAMILY_DOCUMENTS = [
    (FamilySpec("complete", n=2),
     {"vertices": ["0", "1", "2"], "sink": "0",
      "edges": [["0", "1", 1], ["0", "2", 1], ["1", "2", 1]]}),
    (FamilySpec("wheel", n=3),
     {"vertices": ["0", "1", "2", "3"], "sink": "0",
      "edges": [["0", "1", 1], ["0", "2", 1], ["0", "3", 1],
                ["1", "2", 1], ["1", "3", 1], ["2", "3", 1]]}),
    (FamilySpec("tripartite", p=1, q=2),
     {"vertices": ["v0", "p1", "q1", "q2"], "sink": "v0",
      "edges": [["v0", "p1", 1], ["v0", "q1", 1], ["v0", "q2", 1],
                ["p1", "q1", 1], ["p1", "q2", 1]]}),
    (FamilySpec("bipartite", p=2, q=1),
     {"vertices": ["p0", "p1", "p2", "q1"], "sink": "p0",
      "edges": [["p0", "q1", 1], ["p1", "q1", 1], ["p2", "q1", 1]]}),
    (FamilySpec("split", m=1, n=2),
     {"vertices": ["c0", "c1", "i1", "i2"], "sink": "c0",
      "edges": [["c0", "c1", 1], ["c0", "i1", 1], ["c0", "i2", 1],
                ["c1", "i1", 1], ["c1", "i2", 1]]}),
]


@pytest.mark.parametrize("spec,document", FAMILY_DOCUMENTS,
                         ids=[spec.label() for spec, _ in FAMILY_DOCUMENTS])
def test_family_graph_documents(spec, document):
    assert graph_to_dict(make_family(spec)) == document


class TestConstruction:
    def test_complete_degrees(self):
        g = complete_graph(4)
        assert all(g.deg(v) == 4 for v in g.vertices)

    def test_wheel_degrees(self):
        g = wheel_graph(5)
        assert g.deg("0") == 5
        assert all(g.deg(v) == 3 for v in g.nonsink)

    def test_tripartite_degrees(self):
        g = tripartite_graph(2, 3)
        assert g.deg("v0") == 5
        assert all(g.deg(f"p{i}") == 4 for i in (1, 2))
        assert all(g.deg(f"q{j}") == 3 for j in (1, 2, 3))

    def test_bipartite_degrees(self):
        g = bipartite_graph(3, 2)
        assert g.sink == "p0"
        assert g.deg("p0") == 2
        assert all(g.deg(f"p{i}") == 2 for i in (1, 2, 3))
        assert all(g.deg(f"q{j}") == 4 for j in (1, 2))
        assert g.multiplicity("p1", "p2") == 0

    def test_split_degrees(self):
        g = split_graph(3, 2)
        assert g.sink == "c0"
        assert all(g.deg(f"c{i}") == 5 for i in range(4))
        assert all(g.deg(f"i{j}") == 4 for j in (1, 2))
        assert g.multiplicity("i1", "i2") == 0


    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_degree_groups_match_built_graphs(self, family):
        names = FAMILY_PARAMS[family]
        for values in itertools.product(range(1, 7), repeat=len(names)):
            if family == "wheel" and values[0] < 3:
                continue
            spec = FamilySpec(family, **dict(zip(names, values)))
            groups = _degree_groups(spec)
            degrees = [d for d, count in groups for _ in range(count)]
            assert degrees == list(make_family(spec).nonsink_degrees), spec
            if family != "wheel":
                # the walk takes each group's positions to be one part
                parts = family_parts(spec)
                assert [count for _, count in groups] == [
                    len(part) for part in parts], spec
                assert tuple(v for part in parts for v in part) == \
                    make_family(spec).nonsink, spec


class TestWheelCharacterisations:
    def test_recurrent_examples(self):
        assert wheel_recurrent((2, 0, 2)) is True
        assert wheel_recurrent((2, 1, 2)) is True
        assert wheel_recurrent((2, 0, 0)) is False
        assert wheel_recurrent((0, 2, 0)) is False
        assert wheel_recurrent((1, 1, 1)) is False
        assert wheel_recurrent((2, 0, 1, 0, 2)) is False

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            wheel_recurrent((3, 0, 0))
        with pytest.raises(ValueError):
            wheel_recurrent((2, -1, 2))
        with pytest.raises(ValueError):
            wheel_recurrent((2, 2))

    def test_short_rims_rejected(self):
        with pytest.raises(ValueError, match="wheel needs n >= 3"):
            wheel_graph(2)
        with pytest.raises(ValueError, match="wheel needs n >= 3 rim"):
            wheel_strongly_recurrent((2, 2))

    @pytest.mark.parametrize("test", [wheel_recurrent, wheel_strongly_recurrent])
    @pytest.mark.parametrize("c", [(2.0, 1, 0), (True, 2, 2), (1.0, 2, 2),
                                   (1.5, 2, 2), (2, 2, False)])
    def test_rejects_non_integer_values(self, test, c):
        with pytest.raises(ValueError, match="must be integers"):
            test(c)

    def test_matches_general_oracle(self):
        for n in range(3, 9):
            g = wheel_graph(n)
            for c in itertools.product((0, 1, 2), repeat=n):
                assert wheel_recurrent(c) == is_recurrent(g, c), (n, c)

    def test_strong_examples(self):
        assert wheel_strongly_recurrent((2, 2, 2)) is True
        assert wheel_strongly_recurrent((1, 2, 2)) is True
        assert wheel_strongly_recurrent((1, 1, 2)) is False
        assert wheel_strongly_recurrent((2, 0, 2)) is False

    def test_strong_matches_general_oracle(self):
        for n in range(3, 7):
            g = wheel_graph(n)
            for c in itertools.product((0, 1, 2), repeat=n):
                assert wheel_strongly_recurrent(c) == \
                    is_strongly_recurrent(g, c), (n, c)

    def test_strong_count(self):
        for n in range(3, 8):
            found = sum(1 for c in itertools.product((1, 2), repeat=n)
                        if wheel_strongly_recurrent(c))
            assert found == n + 1


class TestLatticePaths:
    def test_figure_paths(self):
        lower, upper = pq_paths(*EXAMPLE_PAIR)
        assert lower.word == "EENNEENEN"
        assert upper.word == "NNENENEEE"
        # each step paired with the point it starts from: the heights of
        # the lower path's east steps, the positions of the upper's north
        assert tuple(y for (_, y), s in zip(lower.points(), lower.steps)
                     if s == "E") == (0, 0, 2, 2, 3)
        assert tuple(x for (x, _), s in zip(upper.points(), upper.steps)
                     if s == "N") == (0, 0, 1, 2)

    def test_empty_vectors_rejected(self):
        with pytest.raises(ValueError, match="east-height vector must be "
                           "non-empty"):
            path_with_e_heights((), 2)
        with pytest.raises(ValueError, match="north-position vector must be "
                           "non-empty"):
            path_with_n_positions((), 2)

    def test_path_constructors_validate(self):
        with pytest.raises(ValueError):
            path_with_e_heights((1, 0), 2)
        with pytest.raises(ValueError):
            path_with_e_heights((0, 3), 2)
        with pytest.raises(ValueError):
            path_with_n_positions((0, 3), 2)

    @pytest.mark.parametrize("make", [path_with_e_heights, path_with_n_positions])
    @pytest.mark.parametrize("vector", [(True, 1), (0.5,), (0, 1.0)])
    def test_path_constructors_reject_non_integers(self, make, vector):
        with pytest.raises(ValueError, match="must be integers"):
            make(vector, 2)

    def test_points_run_corner_to_corner(self):
        lower, upper = pq_paths(*EXAMPLE_PAIR)
        for path in (lower, upper):
            pts = path.points()
            assert pts[0] == (0, 0)
            assert pts[-1] == (5, 4)
            assert len(pts) == 10

    def test_membership_example(self):
        assert is_pq_parking(*EXAMPLE_PAIR) is True
        assert is_prime_pq(*EXAMPLE_PAIR) is True

    def test_all_ones_parks(self):
        assert is_pq_parking((1, 1), (1, 1)) is True

    def test_out_of_range_fails_quietly(self):
        assert is_pq_parking((4, 1), (1, 1)) is False

    def test_positivity_errors(self):
        with pytest.raises(ValueError):
            is_pq_parking((0, 1), (1, 1))
        with pytest.raises(ValueError):
            is_pq_parking((), (1, 1))

    def test_prime_requires_parking(self):
        with pytest.raises(ValueError):
            is_prime_pq((3, 3), (3, 3))

    def test_matches_graph_oracle(self):
        for p, q in ((2, 2), (2, 3), (3, 2)):
            g = tripartite_graph(p, q)
            for flat in candidates(g):
                pp, pq = flat[:p], flat[p:]
                assert is_pq_parking(pp, pq) == is_g_parking(g, flat), flat
                if is_g_parking(g, flat):
                    assert is_prime_pq(pp, pq) == is_prime(g, flat), flat

    def test_example_member_on_graph(self):
        g = tripartite_graph(5, 4)
        flat = EXAMPLE_PAIR[0] + EXAMPLE_PAIR[1]
        assert is_g_parking(g, flat)
        assert is_prime(g, flat)


class TestClosedForms:
    def test_complete(self):
        values = {2: 1, 3: 4, 4: 27, 5: 256}
        for n, v in values.items():
            assert closed_form_count(FamilySpec("complete", n=n), "ppf") == v

    def test_complete_increasing(self):
        for n in range(2, 7):
            spec = FamilySpec("complete", n=n)
            assert closed_form_count(spec, "ppf-inc") == catalan(n - 1)
            assert closed_form_count(spec, "catalan") == catalan(n - 1)

    def test_catalan_values(self):
        assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_wheel(self):
        for n in range(3, 8):
            spec = FamilySpec("wheel", n=n)
            assert closed_form_count(spec, "ppf") == n + 1
            assert closed_form_count(spec, "sr-wheel") == n + 1

    def test_tripartite(self):
        values = {(2, 2): 5, (2, 3): 17, (3, 2): 17, (3, 3): 136}
        for (p, q), v in values.items():
            spec = FamilySpec("tripartite", p=p, q=q)
            assert closed_form_count(spec, "ppf") == v

    def test_bipartite_increasing(self):
        values = {(2, 2): 3, (3, 2): 6, (2, 3): 6, (3, 3): 20}
        for (p, q), v in values.items():
            spec = FamilySpec("bipartite", p=p, q=q)
            assert closed_form_count(spec, "ppf-inc") == v

    def test_split_increasing(self):
        values = {(2, 1): 3, (2, 2): 6, (3, 2): 30}
        for (m, n), v in values.items():
            spec = FamilySpec("split", m=m, n=n)
            assert closed_form_count(spec, "ppf-inc") == v

    def test_unsupported_combinations(self):
        with pytest.raises(ValueError):
            closed_form_count(FamilySpec("wheel", n=4), "ppf-inc")
        with pytest.raises(ValueError):
            closed_form_count(FamilySpec("bipartite", p=2, q=2), "ppf")
        with pytest.raises(ValueError):
            closed_form_count(FamilySpec("complete", n=3), "sr-wheel")
        with pytest.raises(ValueError):
            closed_form_count(FamilySpec("tripartite", p=2, q=2), "ppf-inc")


def increasing_prime_pairs(g, p_len):
    """Sorted prime parking pairs on a two-part family graph."""
    out = []
    degs = g.nonsink_degrees
    first = increasing_tuples(p_len, 1, degs[0])
    second_len = len(degs) - p_len
    for a in first:
        for b in increasing_tuples(second_len, 1, degs[-1]):
            flat = a + b
            if is_g_parking(g, flat) and is_prime(g, flat):
                out.append((a, b))
    return out


def increasing_parking_pairs(g, p_len):
    out = []
    degs = g.nonsink_degrees
    second_len = len(degs) - p_len
    for a in increasing_tuples(p_len, 1, degs[0]):
        for b in increasing_tuples(second_len, 1, degs[-1]):
            if is_g_parking(g, a + b):
                out.append((a, b))
    return out


class TestBipartiteBijection:
    def test_explicit_small_case(self):
        g = bipartite_graph(2, 2)
        primes = increasing_prime_pairs(g, 2)
        assert primes == [((1, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (1, 1))]
        images = [bipartite_prime_bijection(pair) for pair in primes]
        assert images == [((1,), (1, 1)), ((1,), (1, 2)), ((2,), (1, 1))]

    def test_image_is_full_shorter_set(self):
        for p, q in ((2, 2), (3, 2), (2, 3)):
            g = bipartite_graph(p, q)
            primes = increasing_prime_pairs(g, p)
            images = {bipartite_prime_bijection(pair) for pair in primes}
            targets = set(increasing_parking_pairs(bipartite_graph(p - 1, q), p - 1))
            assert images == targets, (p, q)
            for pair in primes:
                assert bipartite_prime_bijection_inverse(
                    bipartite_prime_bijection(pair)) == pair

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bipartite_prime_bijection(((2, 1), (1, 1)))
        with pytest.raises(ValueError):
            bipartite_prime_bijection(((1,), (1, 1)))
        with pytest.raises(ValueError):
            bipartite_prime_bijection(((1, 2), (1, 2)))


class TestSplitBijection:
    def test_explicit_small_case(self):
        g = split_graph(2, 1)
        primes = increasing_prime_pairs(g, 2)
        assert len(primes) == 3
        for pair in primes:
            assert pair[0][0] == 1

    def test_image_is_full_shorter_set(self):
        for m, n in ((2, 1), (2, 2), (3, 2)):
            g = split_graph(m, n)
            primes = increasing_prime_pairs(g, m)
            images = {split_prime_bijection(pair) for pair in primes}
            targets = set(increasing_parking_pairs(split_graph(m - 1, n), m - 1))
            assert images == targets, (m, n)
            for pair in primes:
                assert split_prime_bijection_inverse(
                    split_prime_bijection(pair)) == pair

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            split_prime_bijection(((1,), (1,)))
        with pytest.raises(ValueError):
            split_prime_bijection(((1, 3), (1,)))


BIJECTIONS = {
    "bipartite": (bipartite_prime_bijection, bipartite_prime_bijection_inverse,
                  "P-vertices"),
    "split": (split_prime_bijection, split_prime_bijection_inverse,
              "clique vertices"),
}


@pytest.mark.parametrize("family", sorted(BIJECTIONS))
class TestDeletionBijectionErrors:
    """Every ValueError path of the bipartite* and split deletion bijections."""

    def test_one_vertex_in_first_part(self, family):
        forward, _, part = BIJECTIONS[family]
        with pytest.raises(ValueError, match=f"need at least two {part}"):
            forward(((1,), (1, 1)))

    def test_not_parking(self, family):
        forward, _, _ = BIJECTIONS[family]
        bad = ((1, 1), (2, 2)) if family == "bipartite" else ((1, 1), (4, 4))
        with pytest.raises(ValueError,
                           match=f"not a parking function on {family} graph"):
            forward(bad)

    def test_parking_but_not_prime(self, family):
        forward, _, _ = BIJECTIONS[family]
        with pytest.raises(ValueError, match="^not prime$"):
            forward(((2, 2), (1, 1)))

    @pytest.mark.parametrize("pair, message", [
        (((), (1, 1)), "first part must be non-empty"),
        (((1, 1), ()), "second part must be non-empty"),
        (((0, 1), (1, 1)), "values must be positive"),
        (((1, 1), (1, -2)), "values must be positive"),
    ])
    def test_empty_or_non_positive_part(self, family, pair, message):
        forward, inverse, _ = BIJECTIONS[family]
        for route in (forward, inverse):
            with pytest.raises(ValueError, match=message):
                route(pair)

    def test_inverse_of_non_parking_pair(self, family):
        _, inverse, _ = BIJECTIONS[family]
        with pytest.raises(ValueError,
                           match=f"not a parking function on {family} graph"):
            inverse(((1,), (4, 4)))


class TestDeletionHypotheses:
    def test_complete_satisfies_deletion_condition(self):
        g = complete_graph(4)
        assert all(is_sink_twin(g, v) for v in g.nonsink)

    def test_wheel3_satisfies_it_but_larger_wheels_do_not(self):
        assert all(is_sink_twin(wheel_graph(3), v) for v in ("1", "2", "3"))
        g = wheel_graph(4)
        assert not any(is_sink_twin(g, v) for v in g.nonsink)

    def test_split_clique_only(self):
        g = split_graph(2, 2)
        assert is_sink_twin(g, "c1")
        assert is_sink_twin(g, "c2")
        assert not is_sink_twin(g, "i1")

    def test_bipartite_never(self):
        g = bipartite_graph(2, 2)
        assert not any(is_sink_twin(g, v) for v in g.nonsink)
