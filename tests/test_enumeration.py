import csv
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

from sandpark import (
    FamilySpec,
    SizeCapError,
    UnknownVertexError,
    build_graph,
    class_count,
    count_class,
    cross_validate_oracles,
    default_suite,
    expected_count,
    find_nonunique_decomposition_witness,
    find_quantifier_gap_witness,
    gap_witness_from_dict,
    graph_from_dict,
    is_g_parking,
    is_prime,
    is_strongly_recurrent,
    iter_class,
    make_family,
    parking_from_dict,
    prime_decompositions,
    random_connected_multigraph,
    reports_to_csv,
    reports_to_json,
    verify_counts,
)
from sandpark import enumeration
from sandpark.enumeration import CLASSES, DEFAULT_SPACE_CAP, _walk
from sandpark.families import family_parts
from conftest import triangle

FIXTURES = Path(__file__).parent / "fixtures"


class TestIterClass:
    def test_recurrent_triangle(self, k2):
        assert list(iter_class(k2, "recurrent")) == [(0, 1), (1, 0), (1, 1)]

    def test_pf_triangle(self, k2):
        assert list(iter_class(k2, "pf")) == [(1, 1), (1, 2), (2, 1)]

    def test_stable_is_full_box(self, k2):
        assert len(list(iter_class(k2, "stable"))) == 4

    def test_ppf_increasing_complete(self):
        spec = FamilySpec("complete", n=3)
        assert list(iter_class(spec, "ppf-inc")) == [(1, 1, 1), (1, 1, 2)]

    def test_increasing_needs_family(self, k2):
        with pytest.raises(ValueError):
            list(iter_class(k2, "pf-inc"))

    def test_unknown_class(self, k2):
        with pytest.raises(ValueError):
            list(iter_class(k2, "transient"))

    def test_space_cap(self):
        spec = FamilySpec("complete", n=12)
        with pytest.raises(SizeCapError):
            list(iter_class(spec, "recurrent", cap=1000))

    def test_members_satisfy_their_class(self, k2):
        for c in iter_class(k2, "sr-forall"):
            assert is_strongly_recurrent(k2, c)
        for p in iter_class(k2, "ppf"):
            assert is_g_parking(k2, p) and is_prime(k2, p)

    def test_increasing_space_cap(self):
        spec = FamilySpec("complete", n=9)
        assert len(list(iter_class(spec, "ppf-inc", cap=24310))) == 1430
        with pytest.raises(SizeCapError):
            iter_class(spec, "ppf-inc", cap=1000)

    def test_first_value_slices_partition_the_walk(self, pool):
        for label, g in pool:
            for cls in CLASSES:
                if cls.endswith("-inc"):
                    continue
                slices = [item for first in range(g.nonsink_degrees[0])
                          for item in _walk(g, cls, DEFAULT_SPACE_CAP, first)]
                assert slices == list(iter_class(g, cls)), (label, cls)

    def test_increasing_classes_are_sorted_members(self):
        specs = [FamilySpec("complete", n=n) for n in (2, 3, 4)]
        specs += [FamilySpec(family, p=p, q=q)
                  for family in ("tripartite", "bipartite")
                  for p, q in ((2, 2), (2, 3), (3, 2))]
        specs += [FamilySpec("split", m=m, n=n)
                  for m, n in ((2, 1), (2, 2), (3, 2))]
        for spec in specs:
            cuts, end = [], 0
            for part in family_parts(spec):
                cuts.append((end, end + len(part)))
                end += len(part)

            def sorted_in_parts(t):
                return all(list(t[a:b]) == sorted(t[a:b]) for a, b in cuts)

            for inc, full in (("pf-inc", "pf"), ("ppf-inc", "ppf")):
                want = [t for t in iter_class(spec, full) if sorted_in_parts(t)]
                assert list(iter_class(spec, inc)) == want, (spec.label(), inc)

    def test_walk_deeper_than_recursion_limit(self, monkeypatch):
        leaves = [f"v{i}" for i in range(1500)]
        assert len(leaves) > sys.getrecursionlimit()
        star = build_graph(["s"] + leaves, "s", [(v, "s", 1) for v in leaves])
        for cls in ("stable", "recurrent", "pf"):
            assert count_class(star, cls) == 1, cls

        def untouchable(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(enumeration, "_search", untouchable)
        for cls in ("stable", "recurrent", "pf"):
            with pytest.raises(SizeCapError):
                iter_class(star, cls, cap=0)

    def test_deterministic_order(self):
        spec = FamilySpec("wheel", n=4)
        assert list(iter_class(spec, "recurrent")) == \
            list(iter_class(spec, "recurrent"))


# SHA-256 of each member stream, one "v1,v2,...\n" line per member, pinned
# from the per-value walk that preceded the interval walk.  They hold the
# members and their order on instances past the generate-and-test size cut.
PINNED_STREAMS = [
    (FamilySpec("complete", n=6), "ppf", 3125,
     "4caf7c0688e3802073c81295e9823bbd62a4bdbf4506c06a3124317b6b16c1b7"),
    (FamilySpec("tripartite", p=4, q=3), "ppf", 809,
     "c705efd164be86d5e55b30b1cad46a4a37d33409676b295d3a14b1c0be073a3e"),
    (FamilySpec("wheel", n=10), "sr-forall", 11,
     "c5dbe06d57670961bfd7bbaa9a92a3ec76de37c1aba7beca75cdb1978bf325b8"),
    (FamilySpec("complete", n=9), "ppf-inc", 1430,
     "ca64e6bc0eb1b98f23e0118c28b37bd441e175f1004169202f61283efb0afb81"),
    (FamilySpec("complete", n=6), "recurrent", 16807,
     "e03ba14ef174c39628a21e870ade85d5dcce7b3a179627ae725d089ec4b2d369"),
    (FamilySpec("wheel", n=10), "recurrent", 15125,
     "db8c9ff3c1cf6a55d7ad440545d2cdc99b092a0cac7b89c132e9caaf0234ad97"),
    (FamilySpec("wheel", n=8), "sr-exists", 9,
     "514f538d847228131957ad3db92d83fd3bd4b04963c371435b276322800dd6c1"),
    (FamilySpec("wheel", n=8), "min-recurrent", 254,
     "bfec67027100383465edb64a3f6c9923f7f48b505ec9c129655043fca8f695b9"),
]


@pytest.mark.parametrize("spec,cls,count,digest", PINNED_STREAMS,
                         ids=[f"{spec.label()}-{cls}"
                              for spec, cls, _, _ in PINNED_STREAMS])
def test_member_stream_pinned(spec, cls, count, digest):
    h = hashlib.sha256()
    seen = 0
    for c in iter_class(spec, cls):
        h.update((",".join(map(str, c)) + "\n").encode())
        seen += 1
    assert (seen, h.hexdigest()) == (count, digest)
    assert count_class(spec, cls) == count


class TestCounting:
    def test_matches_matrix_tree(self, k2):
        assert count_class(k2, "recurrent") == k2.spanning_tree_count() == 3

    def test_parallel_agrees_with_serial(self):
        spec = FamilySpec("complete", n=4)
        for cls in ("recurrent", "pf", "ppf", "pf-inc", "ppf-inc"):
            assert count_class(spec, cls, jobs=2) == count_class(spec, cls)
        for spec in (FamilySpec("bipartite", p=3, q=3),
                     FamilySpec("split", m=3, n=2)):
            for cls in ("pf-inc", "ppf-inc"):
                assert count_class(spec, cls, jobs=2) == \
                    count_class(spec, cls), (spec, cls)

    def test_pool_size_is_clamped(self, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return list(map(fn, tasks))

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(enumeration, "get_context", lambda method: FakeContext)
        spec = FamilySpec("complete", n=4)      # first coordinate: 4 slices
        for cpus, jobs, clamped in ((3, 10**9, 3), (64, 10**9, 4),
                                    (64, 2, 2), (None, 8, 1)):
            monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
            assert count_class(spec, "recurrent", jobs=jobs) == 125
            assert sizes.pop() == clamped
        with pytest.raises(SizeCapError):
            count_class(FamilySpec("complete", n=12), "recurrent", jobs=2,
                        cap=1000)
        assert sizes == []

    def test_jobs_below_one_rejected_before_the_walk(self, monkeypatch):
        def untouchable(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(enumeration, "_search", untouchable)
        spec = FamilySpec("complete", n=4)
        for jobs in (0, -5):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                count_class(spec, "recurrent", jobs=jobs)
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                class_count(spec, "recurrent", jobs=jobs)

    def test_expected_count_sources(self, k2):
        assert expected_count(k2, "stable") == (4, "degree-product")
        assert expected_count(k2, "recurrent") == (3, "matrix-tree")
        assert expected_count(k2, "ppf") is None
        spec = FamilySpec("complete", n=4)
        assert expected_count(spec, "ppf") == (27, "closed-form")
        assert expected_count(spec, "min-recurrent") is None

    def test_shifted_increasing_formulas(self):
        # adding one vertex of value 1 turns increasing parking functions
        # into increasing prime ones, so pf-inc counts shift the family
        for spec in (FamilySpec("complete", n=3),
                     FamilySpec("bipartite", p=2, q=2),
                     FamilySpec("split", m=2, n=1)):
            exp = expected_count(spec, "pf-inc")
            assert exp is not None
            assert count_class(spec, "pf-inc") == exp[0], spec.label()

    def test_report_fields(self):
        report = class_count(FamilySpec("wheel", n=4), "sr-forall")
        assert report.family == "wheel"
        assert report.params == "n=4"
        assert report.count == 5
        assert report.expected == 5
        assert report.match

    def test_custom_graph_label(self, k2):
        report = class_count(k2, "recurrent", label="triangle")
        assert report.family == "custom"
        assert report.params == "triangle"
        assert report.match


class TestReports:
    def test_suite_all_match(self):
        reports = verify_counts(default_suite())
        assert len(reports) == 43
        for r in reports:
            assert r.expected is not None, (r.family, r.params, r.cls)
            assert r.match, (r.family, r.params, r.cls, r.count, r.expected)

    def test_csv_shape(self, k2):
        reports = [class_count(k2, "recurrent", label="triangle")]
        text = reports_to_csv(reports)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["family", "params", "class", "count", "expected",
                           "match", "millis"]
        assert rows[1][:4] == ["custom", "triangle", "recurrent", "3"]
        assert rows[1][5] == "true"

    def test_json_shape(self):
        reports = [class_count(FamilySpec("complete", n=3), "ppf")]
        rows = json.loads(reports_to_json(reports))
        assert rows[0]["family"] == "complete"
        assert rows[0]["count"] == 4
        assert rows[0]["expected_source"] == "closed-form"
        assert rows[0]["match"] is True


class TestCrossValidation:
    def test_triangle_clean(self, k2):
        report = cross_validate_oracles(k2, label="triangle")
        assert report.ok
        assert report.stable_checked == 4
        assert report.candidates_checked == 4
        assert report.recurrent_count == 3
        assert report.pf_count == 3
        assert report.ppf_count == 1
        assert report.sr_count == 1
        assert report.orientation_checked
        assert report.candidates_checked == math.prod(k2.nonsink_degrees)

    def test_wheel_clean(self):
        report = cross_validate_oracles(make_family(FamilySpec("wheel", n=4)))
        assert report.ok
        assert report.recurrent_count == 45
        assert report.sr_count == 5

    def test_orientation_can_be_skipped(self):
        # nine non-sink vertices: above the orientation oracle's cap, so the
        # size of the graph alone skips it and every other route still runs
        names = [str(i) for i in range(10)]
        g = build_graph(names, "0", [(a, b, 1) for a, b in zip(names, names[1:])])
        report = cross_validate_oracles(g)
        assert not report.orientation_checked
        assert report.candidates_checked == math.prod(g.nonsink_degrees)
        assert report.ok


class TestRandomGraphs:
    def test_seeded_generation_is_stable(self):
        a = random_connected_multigraph(random.Random(3), 5)
        b = random_connected_multigraph(random.Random(3), 5)
        assert a == b

    def test_generated_graphs_are_valid(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_connected_multigraph(rng, rng.randint(2, 6))
            assert g.sink == "0"
            assert g.is_connected()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            random_connected_multigraph(random.Random(0), 1)


class TestGapWitness:
    def test_search_finds_frozen_fixture(self):
        data = json.loads((FIXTURES / "quantifier_gap_witness.json").read_text())
        frozen = gap_witness_from_dict(data)
        found = find_quantifier_gap_witness(frozen.seed)
        assert found == frozen

    def test_fixture_separates_quantifiers(self):
        data = json.loads((FIXTURES / "quantifier_gap_witness.json").read_text())
        w = gap_witness_from_dict(data)
        assert is_strongly_recurrent(w.graph, w.config, "exists")
        assert not is_strongly_recurrent(w.graph, w.config, "forall")

    def test_round_trip(self):
        data = json.loads((FIXTURES / "quantifier_gap_witness.json").read_text())
        w = gap_witness_from_dict(data)
        assert gap_witness_from_dict(w.to_dict()) == w

    def test_missing_vertex_rejected(self):
        data = json.loads((FIXTURES / "quantifier_gap_witness.json").read_text())
        del data["config"]["values"]["v1"]
        with pytest.raises(ValueError):
            gap_witness_from_dict(data)

    def test_extra_vertex_rejected(self):
        data = json.loads((FIXTURES / "quantifier_gap_witness.json").read_text())
        data["config"]["values"]["zz"] = 0
        with pytest.raises(UnknownVertexError):
            gap_witness_from_dict(data)


class TestDecompositionWitness:
    def test_search_finds_frozen_fixture(self):
        data = json.loads((FIXTURES / "decomposition_witness.json").read_text())
        g = graph_from_dict(data["graph"])
        p = parking_from_dict(g, data["parking"])
        found = find_nonunique_decomposition_witness(data["seed"])
        assert found is not None
        fg, fp, fdecs = found
        assert fg == g
        assert fp == p

    def test_fixture_has_two_shapes(self):
        data = json.loads((FIXTURES / "decomposition_witness.json").read_text())
        g = graph_from_dict(data["graph"])
        p = parking_from_dict(g, data["parking"])
        decs = prime_decompositions(g, p)
        recorded = [tuple(tuple(block) for block in blocks)
                    for blocks in data["decompositions"]]
        for blocks in recorded:
            assert blocks in decs
        shapes = {tuple(sorted(len(b) for b in blocks)) for blocks in decs}
        assert len(shapes) >= 2
