import csv
import hashlib
import io
import json
import math
import random
import runpy
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from sandpark import (
    FamilySpec,
    SizeCapError,
    UnknownVertexError,
    build_graph,
    class_count,
    closed_form_count,
    count_class,
    cross_validate_oracles,
    default_suite,
    expected_count,
    find_nonunique_decomposition_witness,
    find_quantifier_gap_witness,
    gap_witness_from_dict,
    graph_from_dict,
    is_g_parking,
    is_pq_parking,
    is_prime,
    is_prime_pq,
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
from sandpark import (burning, enumeration, families, keys, reference,
                      sandpile)
from sandpark.enumeration import (CLASSES, DEFAULT_SPACE_CAP, _listing,
                                  _pairs, _plan, _runs)
from sandpark.families import _degree_groups, catalan, family_parts
from conftest import (giant_triangle, reference_burning_count,
                      reference_iter_class, triangle)

FIXTURES = Path(__file__).parent / "fixtures"

# parts of five or more vertices, where the look-ahead over a part's later
# positions reaches furthest
LONG_PARTS = [FamilySpec("complete", n=5), FamilySpec("complete", n=6),
              FamilySpec("tripartite", p=4, q=3),
              FamilySpec("tripartite", p=1, q=6),
              FamilySpec("bipartite", p=3, q=3),
              FamilySpec("bipartite", p=1, q=5),
              FamilySpec("split", m=3, n=3), FamilySpec("split", m=2, n=4)]


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

    def test_increasing_classes_are_sorted_members(self):
        specs = [FamilySpec("complete", n=n) for n in (2, 3, 4)]
        specs += [FamilySpec(family, p=p, q=q)
                  for family in ("tripartite", "bipartite")
                  for p, q in ((2, 2), (2, 3), (3, 2))]
        specs += [FamilySpec("split", m=m, n=n)
                  for m, n in ((2, 1), (2, 2), (3, 2))]
        for spec in specs + LONG_PARTS:
            sorted_in_parts = _sorted_in_parts(spec)
            for inc, full in (("pf-inc", "pf"), ("ppf-inc", "ppf")):
                direct = list(iter_class(spec, full))
                want = [t for t in direct if sorted_in_parts(t)]
                assert list(iter_class(spec, inc)) == want, (spec.label(), inc)
                assert count_class(spec, full) == len(direct), \
                    (spec.label(), full)

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
# from the per-value walk that preceded the interval walk, and the last two
# from the member walk that read each position's interval off the keys.
# They hold the members and their order on instances past the
# generate-and-test size cut.
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
    (FamilySpec("complete", n=7), "recurrent", 262144,
     "e51eeaf89fee9d492913ad948b9c3e0b9456aca137a474af9d59299ba6dc0de8"),
    (FamilySpec("tripartite", p=4, q=4), "sr-exists", 8721,
     "45ff1d3532386f1df907b5698ec3d442550bc2840ba721b8dd1f6b0358a8dd23"),
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

    @pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "2", None])
    def test_jobs_and_cap_must_be_integers(self, monkeypatch, bad):
        def untouchable(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(enumeration, "_search", untouchable)
        spec = FamilySpec("complete", n=4)
        with pytest.raises(ValueError, match="jobs must be an integer"):
            count_class(spec, "recurrent", jobs=bad)
        for call in (lambda: count_class(spec, "recurrent", cap=bad),
                     lambda: count_class(spec, "recurrent", jobs=2, cap=bad),
                     lambda: iter_class(spec, "recurrent", cap=bad),
                     lambda: class_count(spec, "recurrent", cap=bad)):
            with pytest.raises(ValueError, match="cap must be an integer"):
                call()

    def test_space_past_printable_digits_capped(self):
        g = giant_triangle()
        space = math.prod(g.nonsink_degrees)
        for call in (lambda: count_class(g, "recurrent"),
                     lambda: iter_class(g, "stable")):
            with pytest.raises(SizeCapError) as exc:
                call()
            assert str(exc.value) == (
                "search space of a 5001-digit number exceeds cap 100000000")
        # the same space is written out in full when the cap is above it
        assert next(iter_class(g, "stable", cap=space)) == (0, 0)

    @pytest.mark.parametrize("cls", ["ppf", "ppf-inc", "recurrent"])
    def test_family_capped_before_its_graph_is_built(self, monkeypatch, cls):
        def unbuildable(*args):
            raise AssertionError("the family graph was built")

        monkeypatch.setattr(families, "build_graph", unbuildable)
        for n in (1500, 3000, 10 ** 5, 10 ** 400):
            with pytest.raises(SizeCapError, match="exceeds cap 100000000"):
                count_class(FamilySpec("complete", n=n), cls)
        # K20 ppf-inc: about 6.9e10 representatives, above the cap, once
        # the cap is also below its 1,771 burning states
        with pytest.raises(SizeCapError, match="search space of 68923264410"):
            count_class(FamilySpec("complete", n=20), "ppf-inc", cap=1770)
        # positive control on a call that still builds the graph: K3
        # counts every class from its degree groups, with no graph
        with pytest.raises(AssertionError, match="graph was built"):
            expected_count(FamilySpec("complete", n=3), "recurrent")

    def test_jobs_below_one_rejected_before_the_walk(self, monkeypatch):
        def untouchable(*args):
            raise AssertionError("the walk started")

        # any accepted jobs changes nothing: every count runs in one process
        k7 = make_family(FamilySpec("complete", n=7))
        w13 = make_family(FamilySpec("wheel", n=13))
        for target, cls, count in ((k7, "recurrent", 8 ** 6),
                                   (w13, "sr-forall", 14)):
            assert [count_class(target, cls, jobs=jobs)
                    for jobs in (1, 2, 64)] == [count] * 3, cls
        monkeypatch.setattr(enumeration, "_search", untouchable)
        spec = FamilySpec("complete", n=4)
        for jobs in (0, -5):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                count_class(spec, "recurrent", jobs=jobs)

    def test_expected_count_sources(self, k2):
        assert expected_count(k2, "stable") == (4, "degree-product")
        assert expected_count(k2, "recurrent") == (3, "matrix-tree")
        assert expected_count(k2, "ppf") is None
        spec = FamilySpec("complete", n=4)
        assert expected_count(spec, "ppf") == (27, "closed-form")
        assert expected_count(spec, "min-recurrent") is None
        # one burning start decides both quantifiers on a family with parts
        assert expected_count(spec, "sr-exists") == (27, "closed-form")
        assert expected_count(FamilySpec("tripartite", p=4, q=3),
                              "sr-exists") == (809, "closed-form")
        assert expected_count(FamilySpec("bipartite", p=2, q=2),
                              "sr-exists") is None
        # and on a wheel, whose min-recurrent count is 2^n - 2
        w6 = FamilySpec("wheel", n=6)
        assert expected_count(w6, "sr-exists") == (7, "closed-form")
        assert expected_count(w6, "min-recurrent") == (62, "closed-form")

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
        report = class_count(k2, "recurrent")
        assert report.family == "custom"
        assert report.params == "|V|=3,sink=0"
        assert report.match


def _full_space(spec):
    return math.prod(d ** c for d, c in _degree_groups(spec))


def _orbit(sizes, rep):
    """The members a representative stands for, its values permuted inside
    the parts of these sizes: prod |part|! / prod mult!."""
    weight, end = 1, 0
    for c in sizes:
        weight *= math.factorial(c)
        for mult in Counter(rep[end:end + c]).values():
            weight //= math.factorial(mult)
        end += c
    return weight


def _walk_count(target, cls, walk):
    """Members of ``cls`` on ``target`` from the runs of ``walk`` ("reps"
    or "members"): the walks stay the reference for the counts a family
    takes from its degree groups.  A member, or a representative of an
    increasing class, counts once, and any other representative weighs its
    orbit (``_orbit``), each value of a run's last position joining the
    prefix's part-mates that hold it."""
    groups = _plan(target, cls, None, check=False)[1]
    runs = _runs(target, cls, (None, groups, walk))
    if walk == "members" or cls.endswith("-inc"):
        return sum(hi - lo + 1 for _, lo, hi in runs)
    sizes = [c for _, c in groups]
    *heads, last = sizes
    total = 0
    for vals, lo, hi in runs:
        prefix = vals[:-1]
        weight = _orbit(heads + [last - 1], prefix) * last
        mates = prefix[len(prefix) - last + 1:]
        total += sum(weight // (mates.count(x) + 1) for x in range(lo, hi + 1))
    return total


def _reference_walk(spec, cls):
    """The walk the tests count ``cls`` on ``spec`` with: a wheel's
    members, or a family's representatives."""
    return "members" if spec.family == "wheel" else "reps"


# the battery's families whose full space the direct walk covers; wheels
# have no increasing classes
ORBIT_SPECS = sorted({spec for spec, _ in default_suite()
                      if _full_space(spec) <= 10 ** 5},
                     key=FamilySpec.label)
ORBIT_CASES = [(spec, cls) for spec in ORBIT_SPECS for cls in CLASSES
               if not (spec.family == "wheel" and cls.endswith("-inc"))]
WHEEL_CLASSES = [cls for cls in CLASSES if not cls.endswith("-inc")]

# the 61 family shapes with parts whose full space the bare graph's walk
# covers quickly
SWEEP_SPECS = [spec for spec in
               [FamilySpec("complete", n=n) for n in range(1, 8)]
               + [FamilySpec(family, p=p, q=q)
                  for family in ("tripartite", "bipartite")
                  for p in range(1, 6) for q in range(1, 6)]
               + [FamilySpec("split", m=m, n=n)
                  for m in range(1, 5) for n in range(1, 5)]
               if _full_space(spec) <= 2 * 10 ** 5]
# one family of each kind, for the degree-complement pairs below
PAIR_SPECS = [FamilySpec("tripartite", p=5, q=5),
              FamilySpec("bipartite", p=4, q=3), FamilySpec("split", m=3, n=3),
              FamilySpec("wheel", n=8), FamilySpec("complete", n=8)]


# families with the sizes of the parts of their graph, the sink included
TREE_CASES = ([(FamilySpec("complete", n=n), (1,) * (n + 1))
               for n in range(1, 10)]
              + [(FamilySpec("tripartite", p=p, q=q), (1, p, q))
                 for p, q in ((5, 5), (2, 9))]
              + [(FamilySpec("bipartite", p=5, q=4), (6, 4)),
                 (FamilySpec("split", m=3, n=3), (1, 1, 1, 1, 3)),
                 # a 127-bit count
                 (FamilySpec("bipartite", p=120, q=2), (121, 2))])


def _tree_count(parts):
    """Spanning trees of the complete multipartite graph with parts of
    these sizes: n^(k-2) * prod (n - n_i)^(n_i - 1) (Lewis 1999)."""
    n = sum(parts)
    return n ** (len(parts) - 2) * math.prod((n - m) ** (m - 1) for m in parts)


def _wheel_brute_counts(n):
    """Every class of W_n, from the rims in {0, 1, 2}^n that
    ``families.wheel_recurrent``, ``wheel_strongly_recurrent`` and the n
    grains of level 0 admit; a parking candidate counts as its degree
    complement."""
    stable = recurrent = strong = level = 0
    for c in product(range(3), repeat=n):
        stable += 1
        if families.wheel_recurrent(c):
            recurrent += 1
            strong += families.wheel_strongly_recurrent(c)
            level += sum(c) == n
    return {"stable": stable, "recurrent": recurrent, "sr-forall": strong,
            "sr-exists": strong, "min-recurrent": level, "pf": recurrent,
            "ppf": strong}


def _lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestOrbitRoute:
    """The walks the burning route is checked against: a family with parts
    walks one representative per orbit, weighed by the orbit's size in the
    test, and a wheel walks its members."""

    @pytest.mark.parametrize("spec,cls", ORBIT_CASES,
                             ids=[f"{spec.label()}-{cls}"
                                  for spec, cls in ORBIT_CASES])
    def test_count_equals_the_direct_walk(self, spec, cls):
        if cls.endswith("-inc"):
            want = len(list(iter_class(spec, cls)))
        else:
            want = count_class(make_family(spec), cls)
        assert count_class(spec, cls) == want
        # and through the reference walk
        assert _walk_count(spec, cls, _reference_walk(spec, cls)) == want

    @pytest.fixture()
    def prevs(self, monkeypatch):
        seen = []
        real = enumeration._search

        def spy(g, low, checks, prev, *rest, **options):
            seen.append(list(prev))
            return real(g, low, checks, prev, *rest, **options)

        monkeypatch.setattr(enumeration, "_search", spy)
        return seen

    @pytest.mark.parametrize("spec,cls,count", [
        (FamilySpec("complete", n=6), "recurrent", 16807),
        (FamilySpec("complete", n=6), "ppf", 3125),
        (FamilySpec("tripartite", p=4, q=3), "ppf", 809)])
    def test_family_counts_walk_representatives(self, prevs, spec, cls, count):
        # the reference walk
        assert _walk_count(spec, cls, "reps") == count
        assert count_class(make_family(spec), cls) == count
        orbit, direct = prevs
        assert orbit.count(None) == len(family_parts(spec))
        assert direct == [None] * len(direct)
        # listing walks the representatives, then reads the members off
        # their prefix keys
        prevs.clear()
        assert len(list(iter_class(spec, cls))) == count
        assert prevs == [orbit]

    @pytest.mark.parametrize("spec", SWEEP_SPECS,
                             ids=[spec.label() for spec in SWEEP_SPECS])
    def test_configuration_counts_equal_the_bare_graph_walk(self, spec):
        g = make_family(spec)
        for cls in ("sr-exists", "min-recurrent", "sr-forall", "recurrent"):
            assert count_class(spec, cls) == count_class(g, cls), cls
        # and through the reference walk
        assert _walk_count(spec, "recurrent", "reps") == \
            count_class(g, "recurrent")

    @pytest.mark.parametrize("spec", PAIR_SPECS,
                             ids=[spec.label() for spec in PAIR_SPECS])
    def test_degree_complement_pairs_walk_alike(self, fixpoints, spec):
        # a class and its parking twin state their representative rules in
        # grains, so both walk one set of representatives
        for pair in (("recurrent", "pf"), ("sr-forall", "ppf")):
            counts, walks = [], []
            for cls in pair:
                fixpoints.clear()
                counts.append(_walk_count(spec, cls,
                                          _reference_walk(spec, cls)))
                walks.append(len(fixpoints))
            assert counts[0] == counts[1], pair
            assert walks[0] == walks[1] > 0, pair

    @pytest.mark.parametrize("spec", [
        pytest.param(FamilySpec("wheel", n=n), id=str(n))
        for n in (11, 12, 13)]
        + [pytest.param(spec, id=spec.label()) for spec in LONG_PARTS])
    def test_wheel_slices_sum_to_the_count(self, spec):
        # the whole reference walk; a family with parts is held to its bare
        # graph's count
        for cls in WHEEL_CLASSES:
            if spec.family == "wheel":
                want = expected_count(spec, cls)[0]
            else:
                want = count_class(make_family(spec), cls)
            assert _walk_count(spec, cls, _reference_walk(spec, cls)) == \
                want, (spec, cls)

    @pytest.mark.parametrize("spec,parts", TREE_CASES,
                             ids=[spec.label() for spec, _ in TREE_CASES])
    def test_weights_count_the_spanning_trees(self, spec, parts):
        assert sum(parts) == len(make_family(spec).vertices)
        trees = _tree_count(parts)
        for cls in ("recurrent", "pf"):
            assert count_class(spec, cls) == trees, cls
            # and through the reference walk
            assert _walk_count(spec, cls, "reps") == trees, cls

    def test_wheel_recurrent_counts_are_lucas_numbers(self):
        # the spanning trees of the wheel with n rim vertices number
        # L(2n) - 2 (Sedlacek 1970)
        for n in range(3, 16):
            assert count_class(FamilySpec("wheel", n=n), "recurrent") == \
                _lucas(2 * n) - 2, n

    def test_cap_bounds_the_walked_space(self, monkeypatch):
        k9 = FamilySpec("complete", n=9)
        # stable's walk counts 9^9 members from C(17, 9) representatives
        assert _walk_count(k9, "stable", "reps") == 9 ** 9
        # ppf counts from 220 burning states and stable from the one word
        # of 9^9, and below them the walk's check runs
        for cls, count, work in (("stable", 9 ** 9, 1), ("ppf", 8 ** 8, 220)):
            assert count_class(k9, cls, cap=work) == count
            with pytest.raises(SizeCapError, match="search space of 24310 "):
                count_class(k9, cls, cap=work - 1)
        with pytest.raises(SizeCapError, match="search space of 387420489 "):
            iter_class(k9, "ppf")
        with pytest.raises(SizeCapError, match="search space of 387420489 "):
            count_class(make_family(k9), "ppf")
        # C(16, 8)^2 representatives, which stable, ppf and ppf-inc no
        # longer walk; below stable's one word (9^16) the walk's check runs
        k88 = FamilySpec("tripartite", p=8, q=8)
        assert count_class(k88, "stable") == 9 ** 16
        with pytest.raises(SizeCapError, match="search space of 165636900 "):
            count_class(k88, "stable", cap=0)
        for cls in ("ppf-inc", "ppf"):
            assert _plan(k88, cls, DEFAULT_SPACE_CAP, True)[2] == "burning"

    def test_expected_stable_builds_no_graph(self, monkeypatch):
        def unbuildable(spec):
            raise AssertionError("the family graph was built")

        monkeypatch.setattr(enumeration, "make_family", unbuildable)
        assert expected_count(FamilySpec("complete", n=1500), "stable") == \
            (1500 ** 1500, "degree-product")
        assert expected_count(FamilySpec("split", m=2, n=3), "stable") == \
            (5 ** 2 * 3 ** 3, "degree-product")
        with pytest.raises(AssertionError, match="graph was built"):
            expected_count(FamilySpec("complete", n=3), "recurrent")


# the complete multipartite shapes whose full space is at most 10^5
MULTIPARTITE = ([FamilySpec("complete", n=n) for n in range(1, 7)]
                + [spec for spec in
                   [FamilySpec(family, **{a: x, b: y})
                    for family, a, b in (("tripartite", "p", "q"),
                                         ("bipartite", "p", "q"),
                                         ("split", "m", "n"))
                    for x in range(1, 17) for y in range(1, 17)]
                   if _full_space(spec) <= 10 ** 5])

# every shape with parts the walks above count: the sweep, LONG_PARTS and
# the battery's families
ROUTE_SPECS = sorted(set(SWEEP_SPECS) | set(LONG_PARTS)
                     | {spec for spec, _ in default_suite()
                        if spec.family != "wheel"}, key=FamilySpec.label)
# shapes with one long part, which the burning work charges far above the
# transitions its loop tries
ONE_LONG_PART = [FamilySpec("tripartite", p=1, q=300),
                 FamilySpec("tripartite", p=300, q=1),
                 FamilySpec("bipartite", p=300, q=2),
                 FamilySpec("bipartite", p=1, q=300),
                 FamilySpec("split", m=1, n=300)]


# shapes past the walks' reach, which the tuple-keyed burning loop counts
PAST_THE_WALKS = ([FamilySpec("complete", n=n) for n in range(1, 26)]
                  + [FamilySpec(family, **{a: x, b: y})
                     for family, a, b in (("tripartite", "p", "q"),
                                          ("bipartite", "p", "q"),
                                          ("split", "m", "n"))
                     for x, y in ((1, 12), (12, 1), (2, 11), (11, 2),
                                  (5, 12), (12, 5), (8, 9), (9, 8))])


def _spy_moves(monkeypatch):
    """Spy on ``burning._moves``: a list that collects each move it lists
    that burns something, each checked to leave nothing unburnt or some
    group with unburnt vertices and a window of positive width."""
    listed = []
    real = burning._moves

    def spy(key, f, shape, *args):
        moves = real(key, f, shape, *args)
        _, n1, groups = shape
        for move in moves:
            if move[0]:
                rest = [(move[1] // a % n1, move[1] // b % n1)
                        for a, b, _, _ in groups]
                assert (not any(x for x, _ in rest)
                        or any(x and y for x, y in rest)), move
                listed.append(move)
        return moves

    monkeypatch.setattr(burning, "_moves", spy)
    return listed


def _sorted_in_parts(spec):
    """Whether a tuple is non-decreasing inside every part of ``spec``."""
    cuts, end = [], 0
    for part in family_parts(spec):
        cuts.append((end, end + len(part)))
        end += len(part)
    return lambda t: all(list(t[a:b]) == sorted(t[a:b]) for a, b in cuts)


def _wheel_grains(n):
    """tr(T(x)^n) - 2x^n with T(x) = [[x + x^2, 1], [x^2, x]], as a list
    of coefficients: the recurrent configurations of W_n by their grains."""
    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def plus(a, b):
        return [x + y for x, y in zip(a + [0] * len(b), b + [0] * len(a))]

    step = [[[0, 1, 1], [1]], [[0, 0, 1], [0, 1]]]
    power = [[[1], [0]], [[0], [1]]]
    for _ in range(n):
        power = [[plus(times(power[i][0], step[0][j]),
                       times(power[i][1], step[1][j])) for j in range(2)]
                 for i in range(2)]
    trace = plus(power[0][0], power[1][1])
    trace[n] -= 2
    return trace


class TestBurningRoute:
    """A family counts every class from its degree groups, with no graph
    and no walk: ``stable`` as their product, a family with parts every
    other class from its unburnt vectors, the strongly recurrent and prime
    classes from the drain of one burning start, and a wheel from
    two-state automata along the rim.  The walks stay the reference."""

    @pytest.mark.parametrize("spec", ROUTE_SPECS, ids=FamilySpec.label)
    def test_route_equals_the_walks(self, spec):
        g = make_family(spec) if _full_space(spec) <= 2 * 10 ** 5 else None
        for cls in CLASSES:
            assert _plan(spec, cls, DEFAULT_SPACE_CAP, True)[2] == "burning"
            count = count_class(spec, cls)
            assert count == _walk_count(spec, cls, _reference_walk(spec, cls))
            if g is None:
                continue
            if cls.endswith("-inc"):
                keep = _sorted_in_parts(spec)
                want = sum(1 for t in iter_class(g, cls[:-4]) if keep(t))
            else:
                want = count_class(g, cls)
            assert count == want, cls

    @pytest.mark.parametrize("spec,parts,walked", [
        (FamilySpec("complete", n=60), (1,) * 61, False),
        (FamilySpec("tripartite", p=12, q=12), (1, 12, 12), False),
        (FamilySpec("split", m=12, n=12), (1,) * 13 + (12,), False),
        (FamilySpec("bipartite", p=20, q=20), (21, 20), False),
        # 90,601 representatives, whose walk took 41 s for pf
        (FamilySpec("tripartite", p=1, q=300), (1, 1, 300), True)],
        ids=["K60", "K(12,12)", "S(12*,12)", "K(20*,20)", "K(1,300)"])
    def test_route_counts_the_spanning_trees(self, spec, parts, walked):
        trees = make_family(spec).spanning_tree_count()
        assert trees == _tree_count(parts)
        # the representatives' space, which the cap charges past the burning
        # work, fits the default cap only for K(1,300)
        assert (_walked_space(spec, True) <= DEFAULT_SPACE_CAP) == walked
        assert count_class(spec, "recurrent") == count_class(spec, "pf") \
            == trees

    def test_increasing_counts_are_the_shifted_closed_forms(self):
        # Catalan numbers on complete graphs, Narayana-type products on
        # bipartite* and split graphs, far past the representative walk
        specs = [FamilySpec("complete", n=n) for n in range(1, 31)]
        specs += [FamilySpec(family, **{a: x, b: y})
                  for family, a, b in (("bipartite", "p", "q"),
                                       ("split", "m", "n"))
                  for x in range(1, 9) for y in range(1, 9)]
        for spec in specs:
            want = closed_form_count(families._grow_first_part(spec),
                                     "ppf-inc")
            assert count_class(spec, "pf-inc") == want, spec.label()

    @pytest.mark.parametrize("spec", MULTIPARTITE, ids=FamilySpec.label)
    def test_sr_exists_equals_sr_forall_through_the_walks(self, spec):
        # on a complete multipartite graph the drains of any two burning
        # starts are recurrent together (_burning_count)
        assert _walk_count(spec, "sr-exists", "reps") == \
            _walk_count(spec, "sr-forall", "reps") == \
            count_class(spec, "sr-exists")

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 4)
                                     for q in range(1, 4)])
    def test_tripartite_counts_the_prime_pairs(self, p, q):
        # the (p, q)-parking functions whose two staircases meet only at
        # the corners (Armon et al.), read by families.is_prime_pq
        pairs = [(a, b) for a in product(range(1, q + 2), repeat=p)
                 for b in product(range(1, p + 2), repeat=q)
                 if is_pq_parking(a, b)]
        prime = [(a, b) for a, b in pairs if is_prime_pq(a, b)]
        spec = FamilySpec("tripartite", p=p, q=q)
        assert count_class(spec, "pf") == len(pairs)
        for cls in ("ppf", "sr-forall", "sr-exists"):
            assert count_class(spec, cls) == len(prime), cls
        assert count_class(spec, "ppf-inc") == sum(
            1 for a, b in prime if list(a) == sorted(a)
            and list(b) == sorted(b))

    def test_prime_counts_are_the_closed_forms_at_scale(self):
        # far past the representative walks
        assert count_class(FamilySpec("complete", n=60), "ppf") == 59 ** 59
        for n in range(1, 41):
            assert count_class(FamilySpec("complete", n=n), "ppf-inc") == \
                catalan(n - 1), n
        for spec in (FamilySpec("bipartite", p=30, q=30),
                     FamilySpec("split", m=30, n=5),
                     FamilySpec("split", m=5, n=30)):
            assert count_class(spec, "ppf-inc") == \
                closed_form_count(spec, "ppf-inc"), spec.label()
        k2020 = FamilySpec("tripartite", p=20, q=20)
        assert count_class(k2020, "ppf") == count_class(k2020, "sr-exists") \
            == closed_form_count(k2020, "ppf")

    def test_wheel_route_equals_the_walks(self):
        for n in range(3, 14):
            w = FamilySpec("wheel", n=n)
            brute = _wheel_brute_counts(n)
            for cls in WHEEL_CLASSES:
                assert _plan(w, cls, DEFAULT_SPACE_CAP, True)[2] == "burning"
                assert count_class(w, cls) == \
                    _walk_count(w, cls, "members") == brute[cls], (n, cls)

    def test_wheel_route_counts_lucas_numbers(self):
        for n in range(3, 301):
            assert count_class(FamilySpec("wheel", n=n), "recurrent") == \
                _lucas(2 * n) - 2, n

    def test_wheel_route_counts_the_closed_forms(self):
        # far past the member walk
        for n in range(14, 301):
            w = FamilySpec("wheel", n=n)
            want = {"stable": 3 ** n, "recurrent": _lucas(2 * n) - 2,
                    "sr-forall": n + 1, "sr-exists": n + 1,
                    "min-recurrent": 2 ** n - 2, "pf": _lucas(2 * n) - 2,
                    "ppf": n + 1}
            assert {cls: count_class(w, cls) for cls in WHEEL_CLASSES} \
                == want, n

    @pytest.mark.parametrize("n", range(3, 11))
    def test_wheel_automaton_grades_the_member_walk(self, n):
        w = FamilySpec("wheel", n=n)
        tally = Counter(sum(c) for c in iter_class(w, "recurrent"))
        grains = _wheel_grains(n)
        assert {i: c for i, c in enumerate(grains) if c} == tally
        # level 0 holds one grain per rim edge: n grains
        assert grains[n] == count_class(w, "min-recurrent") == 2 ** n - 2
        assert sum(grains) == count_class(w, "recurrent")

    def test_route_builds_no_graph_and_walks_nothing(self, monkeypatch):
        def untouchable(*args, **options):
            raise AssertionError("a graph was built or a walk started")

        monkeypatch.setattr(families, "build_graph", untouchable)
        monkeypatch.setattr(enumeration, "_search", untouchable)
        k6, w10 = FamilySpec("complete", n=6), FamilySpec("wheel", n=10)
        assert count_class(k6, "stable") == 6 ** 6
        for cls in ("recurrent", "pf"):
            assert count_class(k6, cls) == 7 ** 5
        assert count_class(k6, "pf-inc") == catalan(6)
        for cls in ("ppf", "sr-forall", "sr-exists"):
            assert count_class(k6, cls, jobs=2) == 5 ** 5
        assert count_class(k6, "ppf-inc") == catalan(5)
        assert count_class(k6, "min-recurrent") == math.factorial(6)
        wheel = {"stable": 3 ** 10, "recurrent": 15125, "sr-forall": 11,
                 "sr-exists": 11, "min-recurrent": 2 ** 10 - 2, "pf": 15125,
                 "ppf": 11}
        assert {cls: count_class(w10, cls, jobs=2)
                for cls in WHEEL_CLASSES} == wheel

    def test_cap_bounds_the_burning_states(self, monkeypatch):
        # K12: C(15, 3) = 455 triples; below them the walk's check runs,
        # with its message
        k12 = FamilySpec("complete", n=12)
        assert _plan(k12, "recurrent", 455, True) == (455, ((12, 12),),
                                                      "burning")
        assert count_class(k12, "recurrent", cap=455) == 13 ** 11
        # min-recurrent walks the same C(23, 12) representatives
        for cls in ("recurrent", "min-recurrent"):
            with pytest.raises(SizeCapError) as exc:
                count_class(k12, cls, cap=454)
            assert str(exc.value) == "search space of 1352078 exceeds cap 454"
        # refused at the default cap before: W17 (3^17 candidates) and
        # K(8,8) (C(16, 8)^2 representatives)
        w17 = FamilySpec("wheel", n=17)
        assert count_class(w17, "recurrent") == _lucas(34) - 2
        with pytest.raises(SizeCapError, match="^search space of 129140163 "):
            count_class(w17, "recurrent", cap=16)
        k88 = FamilySpec("tripartite", p=8, q=8)
        assert count_class(k88, "pf") == _tree_count((1, 8, 8))
        # past the vertex bound the walk's refusal stands, byte for byte
        monkeypatch.setattr(enumeration, "_burning_count", None)
        with pytest.raises(SizeCapError) as exc:
            count_class(FamilySpec("wheel", n=100001), "recurrent")
        assert str(exc.value) == \
            "search space of more than 2^65537 exceeds cap 100000000"

    def test_work_is_charged_by_the_words_of_the_count(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_burning_count", None)
        # K300 ppf: C(303, 3) states of one drained group, each charged by
        # the 39 words of a 2,469-bit space, are past the cap, and so are
        # the representatives
        k300 = FamilySpec("complete", n=300)
        assert _plan(k300, "ppf", 10 ** 9, True) == \
            (math.comb(303, 3) * 39, ((300, 300),), "burning")
        with pytest.raises(SizeCapError, match="exceeds cap 100000000$"):
            count_class(k300, "ppf")
        # K531 recurrent, 25,236,484 states of one word each before
        k531 = FamilySpec("complete", n=531)
        assert _plan(k531, "recurrent", 10 ** 10, True)[0] == \
            math.comb(534, 3) * 76
        with pytest.raises(SizeCapError, match="exceeds cap 100000000$"):
            count_class(k531, "recurrent")
        # tripartite(20, 20) drains both groups, each state charged 3 words
        # (176 bits); bipartite(20*, 20) only its group with sink edges,
        # and an increasing class by the 73 bits of its representatives
        assert _plan(FamilySpec("tripartite", p=20, q=20), "ppf",
                     DEFAULT_SPACE_CAP, True)[0] == math.comb(23, 3) ** 2 * 2 * 3
        assert _plan(FamilySpec("bipartite", p=20, q=20), "ppf-inc",
                     DEFAULT_SPACE_CAP, True)[0] == math.comb(23, 3) ** 2 * 1 * 2

    def test_stable_is_charged_only_its_words(self):
        # K600 stable is 600^600, 5,537 bits: 87 words, where the charge of
        # C(603, 3) states per word was past the cap; its listing walks the
        # 600^600 members, and is refused
        k600 = FamilySpec("complete", n=600)
        assert _plan(k600, "stable", DEFAULT_SPACE_CAP, True) == \
            (87, ((600, 600),), "burning")
        assert count_class(k600, "stable") == math.prod([600] * 600)
        with pytest.raises(SizeCapError, match="exceeds cap 100000000$"):
            iter_class(k600, "stable")

    def test_rests_that_count_zero_form_no_weight(self, monkeypatch):
        # bipartite(20000*, 1): the Q-vertex burns first, and then every
        # P-vertex at once, as a lone independent part burns whole; none of
        # the 19,999 partial burns that burn nothing more is listed
        combs = []

        class Counted:
            def __getattr__(self, name):
                return getattr(math, name)

            def comb(self, n, k):
                combs.append((n, k))
                return math.comb(n, k)

        listed = _spy_moves(monkeypatch)
        spec = FamilySpec("bipartite", p=20000, q=1)
        for module in (enumeration, burning):
            monkeypatch.setattr(module, "math", Counted())
        assert count_class(spec, "recurrent", cap=10 ** 14) == 1
        assert [(burnt, weight) for burnt, _, weight in listed] == \
            [(1, 1), (20000, 1)]
        # count_class plans once, taking two for the work bound, and the
        # loop weighs its moves with no comb
        assert combs == [(20003, 3), (4, 3)]

    @pytest.mark.parametrize("n", [300, 1000])
    def test_a_lone_independent_part_burns_whole(self, monkeypatch, n):
        # K(N,1)^0: once the one-vertex part has burnt, the long part is
        # alone and burns whole, so the count lists 5N moves, where trying
        # its partial burns took (N + 1)^2 (1,003,001 at N = 1000)
        listed = _spy_moves(monkeypatch)
        for p, q in ((n, 1), (1, n)):
            listed.clear()
            spec = FamilySpec("tripartite", p=p, q=q)
            assert count_class(spec, "recurrent") == _tree_count((1, 1, n))
            assert 0 < len(listed) <= 5 * n

    @pytest.mark.parametrize("spec", PAST_THE_WALKS, ids=FamilySpec.label)
    def test_keys_equal_the_tuple_states(self, spec):
        # past the walks' reach the tuple-keyed loop, which tries and
        # weighs every k vector, is the reference
        for cls in CLASSES:
            assert count_class(spec, cls, cap=10 ** 30) == \
                reference_burning_count(spec, cls), cls

    @pytest.mark.parametrize("spec", ROUTE_SPECS + ONE_LONG_PART,
                             ids=FamilySpec.label)
    def test_transitions_stay_within_the_charge(self, monkeypatch, spec):
        # past the burning work the cap charges the representatives' space:
        # the loop lists at most twice as many moves that burn something,
        # the one-group moves of min-recurrent too (K(1,300)^0 recurrent
        # lists 1,500 against a space of 90,601, where trying every k
        # vector took 90,901)
        listed = _spy_moves(monkeypatch)
        bound = 2 * _walked_space(spec, True)
        tries = {}
        for cls in CLASSES:
            listed.clear()
            assert _plan(spec, cls, DEFAULT_SPACE_CAP, True)[2] == "burning"
            count_class(spec, cls)
            tries[cls] = len(listed)
        assert max(tries.values()) <= bound and tries["recurrent"] > 0, tries

    @pytest.mark.parametrize("spec,cls,want", [
        (FamilySpec("tripartite", p=1, q=500), "recurrent",
         _tree_count((1, 1, 500))),
        (FamilySpec("bipartite", p=300, q=2), "recurrent",
         _tree_count((301, 2))),
        (FamilySpec("tripartite", p=1, q=300), "ppf",
         closed_form_count(FamilySpec("tripartite", p=1, q=300), "ppf")),
        (FamilySpec("tripartite", p=300, q=1), "ppf",
         closed_form_count(FamilySpec("tripartite", p=300, q=1), "ppf")),
        (FamilySpec("bipartite", p=300, q=2), "min-recurrent",
         int("40740719526689721725368913768187563221029367873318"
             "72501272280898708762599526673412366794751")),
        (FamilySpec("bipartite", p=1000, q=1), "pf-inc",
         expected_count(FamilySpec("bipartite", p=1000, q=1), "pf-inc")[0]),
        (FamilySpec("bipartite", p=20000, q=1), "recurrent", 1)],
        ids=["K(1,500)^0-recurrent", "K(300*,2)-recurrent", "K(1,300)^0-ppf",
             "K(300,1)^0-ppf", "K(300*,2)-min-recurrent", "K(1000*,1)-pf-inc",
             "K(20000*,1)-recurrent"])
    def test_counts_past_the_work(self, spec, cls, want):
        # the burning work passes the default cap, and the representatives'
        # space, which the cap then charges, fits it
        assert _plan(spec, cls, None, True, check=False)[0] > \
            DEFAULT_SPACE_CAP
        assert _plan(spec, cls, DEFAULT_SPACE_CAP, True) == \
            (_walked_space(spec, True), _degree_groups(spec), "burning")
        assert count_class(spec, cls) == want


# Observed, not proved: the prime parking functions of bipartite K(p*, q)
# are exactly as many as those of tripartite K(p, q)^0, which have a closed
# form.  No prediction of ``expected_count`` rests on it.
BIPARTITE_PPF = ([(p, q, "direct") for p, q in ((2, 2), (2, 3), (3, 2), (3, 3),
                                                (2, 4), (4, 2), (3, 4))]
                 + [(p, q, "family") for p, q in ((5, 5), (6, 4), (4, 6))])


@pytest.mark.parametrize("p,q,route", BIPARTITE_PPF,
                         ids=[f"{p}-{q}-{route}" for p, q, route in BIPARTITE_PPF])
def test_bipartite_ppf_observed_equal_to_tripartite_closed_form(p, q, route):
    spec = FamilySpec("bipartite", p=p, q=q)
    target = make_family(spec) if route == "direct" else spec
    want = closed_form_count(FamilySpec("tripartite", p=p, q=q), "ppf")
    assert count_class(target, "ppf") == want
    assert expected_count(spec, "ppf") is None


@pytest.fixture()
def fixpoints(monkeypatch):
    """The length of the domain of every fixpoint ``_discard`` runs, in
    either module: its positions."""
    lengths = []
    for module in (enumeration, sandpile):
        real = module._discard

        def counted(c, deg_in, nbrs, _real=real):
            lengths.append(len(deg_in))
            return _real(c, deg_in, nbrs)

        monkeypatch.setattr(module, "_discard", counted)
    return lengths


class TestLookAhead:
    """A representative's fixpoints also hold the later positions of its
    part, at the most grains the part's order leaves them; the walk visits
    fewer prefixes and yields the same runs."""

    # these run 943, 3,001, 598, 3,001, 9,900, 6,521 and 5,710 fixpoints,
    # over positions as they did over blocks of twins (7,424 while the
    # sr-exists mates were undrained); 1,766, 5,683, 698, 5,683, 9,900,
    # 6,521 and 15,223 while the drains also ran the pinned fixpoint and
    # sr-exists drained every open start; on the prefix alone the parking
    # classes ran 13,735, 47,744 and 182,000, and the configuration classes
    # 62,320, 41,989, 15,408 and 30,785 when only the parking classes
    # looked ahead
    @pytest.mark.parametrize("spec,cls,count,most", [
        (FamilySpec("complete", n=9), "ppf-inc", 1430, 2500),
        (FamilySpec("complete", n=10), "ppf", 9 ** 9, 8000),
        (FamilySpec("tripartite", p=1, q=100), "ppf", 1, 1000),
        (FamilySpec("complete", n=10), "sr-forall", 9 ** 9, 8000),
        (FamilySpec("complete", n=10), "recurrent", 11 ** 9, 12000),
        (FamilySpec("tripartite", p=5, q=5), "min-recurrent", 329462, 8000),
        (FamilySpec("complete", n=10), "sr-exists", 9 ** 9, 20000)],
        ids=["K9-ppf-inc", "K10-ppf", "K(1,100)-ppf", "K10-sr-forall",
             "K10-recurrent", "K(5,5)-min-recurrent", "K10-sr-exists"])
    def test_look_ahead_bounds_the_fixpoints(self, fixpoints, spec, cls,
                                             count, most):
        # the reference walk
        assert _walk_count(spec, cls, _reference_walk(spec, cls)) == count
        assert 0 < len(fixpoints) <= most

    @pytest.mark.parametrize("cls,most", [("pf", 2001), ("ppf", 4002)])
    def test_mates_without_edges_stay_out(self, fixpoints, cls, most):
        # the P-vertices share no edge and the Q-vertex comes last, so no
        # fixpoint reaches past the prefix: the one fixpoint of pf spans
        # the 2,001 positions and the two of ppf 4,002
        assert _walk_count(FamilySpec("bipartite", p=2000, q=1), cls,
                           "reps") == 1
        assert 0 < len(fixpoints) and sum(fixpoints) <= most


def test_exists_drains_one_start_per_block(fixpoints):
    # two starts of one part holding one value give one bound, so only the
    # first is drained, and the mates hold their drained grains, as none is
    # a start: 5,710 fixpoints, against 7,424 with the mates undrained and
    # 15,223 when every open start was drained (sr-forall runs 3,001)
    assert _walk_count(FamilySpec("complete", n=10), "sr-exists",
                       "reps") == 9 ** 9
    assert 0 < len(fixpoints) <= 6000


# once a burning start is assigned, its drain bounds t at least as high as
# the pinned fixpoint, which is skipped; with it these ran 5,683, 607 and
# 598 fixpoints, against 3,001, 517 and 513 (the K6 listing, which walked
# the members, now walks the representatives in 226)
@pytest.mark.parametrize("spec,count,most", [
    (FamilySpec("complete", n=10), 9 ** 9, 3200),
    (FamilySpec("complete", n=6), 5 ** 5, 550),
    (FamilySpec("wheel", n=12), 13, 550)], ids=["K10", "K6-listing", "W12"])
def test_drains_skip_the_pinned_fixpoint(fixpoints, spec, count, most):
    # K10 and the K6 listing walk representatives, W12 its members
    if spec.n == 6:
        assert sum(1 for _ in iter_class(spec, "ppf")) == count
    else:    # the reference walk
        assert _walk_count(spec, "ppf", _reference_walk(spec, "ppf")) == count
    assert 0 < len(fixpoints) <= most


LISTED = [cls for cls in CLASSES if not cls.endswith("-inc")]
# the last three positions are listed as one block per prefix key: shapes
# of at most three non-sink positions, and shapes whose last three cross
# from one group into the next
TAIL_SHAPES = ([FamilySpec("complete", n=n) for n in (1, 2, 3)]
               + [FamilySpec("bipartite", p=1, q=1),
                  FamilySpec("tripartite", p=1, q=1),
                  FamilySpec("split", m=1, n=1)]
               + [FamilySpec("bipartite", p=4, q=2),
                  FamilySpec("tripartite", p=3, q=1),
                  FamilySpec("split", m=2, n=1)])
LISTING_CASES = [(spec, cls) for spec in LONG_PARTS + TAIL_SHAPES
                 for cls in LISTED]


class TestListingMemo:
    """Listing a family with parts decides each prefix once per orbit: the
    representative walk records the key of every prefix it admits, the
    values each part holds, and a member prefix with the key of a
    recorded one permutes its values inside the parts, so it is admitted
    with no fixpoint."""

    @pytest.mark.parametrize("spec,cls", LISTING_CASES,
                             ids=[f"{spec.label()}-{cls}"
                                  for spec, cls in LISTING_CASES])
    def test_family_lists_the_bare_graph_walk(self, spec, cls):
        # the bare graph walks the members
        want = list(iter_class(make_family(spec), cls))
        assert list(iter_class(spec, cls)) == want

    @pytest.mark.parametrize("n,cls,count,most", [
        (6, "ppf", 5 ** 5, 1000), (7, "ppf", 6 ** 6, 3000),
        (6, "sr-exists", 5 ** 5, 1000)])
    def test_keys_bound_the_fixpoints(self, fixpoints, n, cls, count, most):
        # 226, 731 and 311 fixpoints, the representative walk's, against
        # 517, 1,725 and 5,110 while listing walked the members with an
        # interval kept per key (sr-exists kept none), 607 and 2,022 while
        # drains also ran the pinned fixpoint, and 9,747 and 122,629 with
        # one per prefix
        assert sum(1 for _ in iter_class(FamilySpec("complete", n=n),
                                         cls)) == count
        assert 0 < len(fixpoints) <= most

    @pytest.mark.parametrize("cls", ["recurrent", "sr-forall", "sr-exists",
                                     "min-recurrent", "pf", "ppf"])
    def test_one_vertex_part_inside_another_keeps_its_keys(self, cls):
        # b, a group of its own, sits between the twin groups a and c: each
        # value of b sets a field, so the prefix a1, a2, b keeps a key apart
        # from the prefix a1, a2 even when b takes the lowest value
        edges = [("0", v, 1) for v in ("a1", "a2", "c1", "c2")]
        edges += [(v, "b", 1) for v in ("a1", "a2", "c1", "c2")]
        edges += [(a, c, 1) for a in ("a1", "a2") for c in ("c1", "c2")]
        g = build_graph(["0", "a1", "a2", "b", "c1", "c2"], "0",
                        edges + [("0", "b", 2)])
        groups = ((4, 2), (6, 1), (4, 2))
        assert [d for d, c in groups for _ in range(c)] == \
            list(g.nonsink_degrees)
        keyed, plain = (list(_listing(g, cls, (None, groups, walk)))
                        for walk in ("keys", "members"))
        assert keyed == plain != []

    def test_rendered_blocks_are_one_per_recorded_key(self, monkeypatch):
        # a listing builds each key's block once, as text, and keeps it
        # until the walk ends: never more blocks than recorded keys, and
        # fewer blocks of the first tail position than prefixes taking them
        spec = FamilySpec("tripartite", p=4, q=3)
        built = []
        block = keys._block

        def spy(blocks, units, low, seen, t, key, cell, end):
            if t < len(units):      # past the last position nothing is kept
                built.append((t, key))
            return block(blocks, units, low, seen, t, key, cell, end)

        monkeypatch.setattr(keys, "_block", spy)
        plan = _plan(spec, "ppf", DEFAULT_SPACE_CAP)
        pairs = _pairs(spec, "ppf", plan, ",{}".format, "")
        listed, prefixes = [], 0
        for prefix, texts in pairs:
            walk = pairs.gi_yieldfrom.gi_frame.f_locals
            blocks, seen, head = walk["blocks"], walk["seen"], walk["head"]
            assert len(blocks) <= len(seen)
            listed += [",".join(map(str, prefix)) + text for text in texts]
            prefixes += 1
        keys_built = [key for _, key in built]
        assert len(set(keys_built)) == len(built) == len(blocks)
        assert 0 < sum(t == head for t, _ in built) < prefixes
        assert listed == [",".join(map(str, m))
                          for m in iter_class(make_family(spec), "ppf")]

    def test_long_single_path_runs_no_more_fixpoints(self, fixpoints):
        # the one member is all ones, and the two fixpoints are those of
        # the Q-vertex, the only one with edges into its prefix
        spec = FamilySpec("bipartite", p=20000, q=1)
        assert list(iter_class(spec, "ppf")) == [(1,) * 20001]
        assert len(fixpoints) <= 2

    def test_one_vertex_group_keys_its_value(self):
        # the Q-vertex's field holds its value, not a bit per value: 15
        # bits count the P-vertices and 15 more hold the Q-vertex's value
        groups = _degree_groups(FamilySpec("bipartite", p=20000, q=1))
        assert groups == ((1, 20000), (20001, 1))
        units = enumeration._prefix_units(groups, 1)
        assert len(units) == 20001
        assert max(u.bit_length() for u in units[-1]) == 30
        assert len({u + v for u in units[0][1:]
                    for v in units[-1][1:]}) == 20001


def _walked_space(spec, counting):
    """The space the cap charges ``stable`` on ``spec`` past the burning
    work: a count on a family with parts is charged its representatives,
    and the rest every tuple, which listing walks."""
    reps = counting and families._FAMILY_TABLE[spec.family].parts
    return math.prod(math.comb(d + c - 1, c) if reps else d ** c
                     for d, c in _degree_groups(spec))


# the battery's families and the LONG_PARTS shapes, each planned listing
# and counting when the charged space is at most 10^6 (K8-K10 and
# K(5,5)^0 listing and W13 either way charge more)
PLAN_SPECS = sorted({spec for spec, _ in default_suite()} | set(LONG_PARTS),
                    key=FamilySpec.label)
PLAN_CASES = [(spec, counting) for spec in PLAN_SPECS
              for counting in (False, True)
              if _walked_space(spec, counting) <= 10 ** 6]


class TestPlan:
    """The walk is chosen once, from the degree groups, before any graph
    is built; the walk then reads only those groups."""

    @pytest.mark.parametrize("spec,counting", PLAN_CASES,
                             ids=[f"{spec.label()}-{'count' if c else 'list'}"
                                  for spec, c in PLAN_CASES])
    def test_space_is_the_tuples_stable_walks(self, monkeypatch, spec,
                                              counting):
        plan = space, groups, walk = _plan(spec, "stable", DEFAULT_SPACE_CAP,
                                           counting)
        assert groups == _degree_groups(spec)
        if counting:
            # counted from the degrees; past the vertex bound, as past the
            # burning work, the space of the representatives is charged
            assert walk == "burning"
            assert count_class(spec, "stable") == _full_space(spec)
            monkeypatch.setattr(enumeration, "_VERTEX_BOUND", 0)
            space, _, walk = _plan(spec, "stable", None, True, check=False)
            assert (walk, space) == ("burning", _walked_space(spec, True))
        else:
            walked = sum(hi - lo + 1 for _, lo, hi in _runs(spec, "stable",
                                                            plan))
            assert (walk, walked) == ("members", space) and \
                space == _walked_space(spec, False)

    @pytest.mark.parametrize(
        "spec", [s for s in PLAN_SPECS if families._FAMILY_TABLE[s.family].parts],
        ids=FamilySpec.label)
    def test_listing_walk_of_every_class(self, spec):
        # stable runs no fixpoint, so it walks the members; every other
        # class, sr-exists too, is read off the representatives' keys
        walks = {cls: _plan(spec, cls, None, check=False)[2]
                 for cls in CLASSES}
        assert walks == {"stable": "members", "recurrent": "keys",
                         "sr-forall": "keys", "sr-exists": "keys",
                         "min-recurrent": "keys", "pf": "keys",
                         "ppf": "keys", "pf-inc": "reps", "ppf-inc": "reps"}

    def test_vertex_bound_refuses_before_the_graph(self, monkeypatch):
        def unbuildable(spec):
            raise AssertionError("the family graph was built")

        monkeypatch.setattr(enumeration, "make_family", unbuildable)
        # spaces of 200,001 and 1 under the cap
        big = FamilySpec("bipartite", p=200000, q=1)
        message = "target of 200001 non-sink vertices exceeds bound 100000"
        for call in (lambda: count_class(big, "recurrent"),
                     lambda: iter_class(big, "ppf"),
                     lambda: iter_class(big, "pf-inc"),
                     lambda: class_count(big, "min-recurrent")):
            with pytest.raises(SizeCapError, match=message):
                call()
        # at the bound the plan passes
        at = FamilySpec("bipartite", p=99999, q=1)
        assert _plan(at, "recurrent", DEFAULT_SPACE_CAP, True)[0] == \
            100000
        # the space is refused first
        with pytest.raises(SizeCapError, match="search space of "):
            count_class(FamilySpec("bipartite", p=200000, q=2), "recurrent")
        with pytest.raises(SizeCapError, match="search space of "):
            iter_class(big, "ppf", cap=200000)


GAP_GRAPH = gap_witness_from_dict(json.loads(
    (FIXTURES / "quantifier_gap_witness.json").read_text())).graph


def _sink_multigraphs(seeds):
    """Seeded multigraphs with a sink multiplicity of at least 2, whose
    wide sink edges make burning starts that come and go with the value."""
    graphs = []
    for seed in seeds:
        rng = random.Random(seed)
        g = random_connected_multigraph(rng, rng.randint(4, 6), max_mult=3,
                                        extra_edges=4)
        if max(g.sink_mults) >= 2 and math.prod(g.nonsink_degrees) <= 4000:
            graphs.append((f"sink-multi-{seed}", g))
    return graphs


CUT_CASES = [(label, g, cls)
             for label, g in [("gap-witness", GAP_GRAPH)]
             + _sink_multigraphs(range(40))
             for cls in ("sr-exists", "min-recurrent")]


class TestRunStreams:
    """``sr-exists`` and ``min-recurrent`` are decided at the prefix like
    every other class: counting and listing test no member again, and no
    run is visited that its prefix rules out."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        count = Counter()
        for name in ("_check_config", "is_strongly_recurrent",
                     "is_minimal_recurrent"):
            real = getattr(sandpile, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                count[_name] += 1
                return _real(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if (module_name.startswith("sandpark")
                        and getattr(module, name, None) is real):
                    monkeypatch.setattr(module, name, counted)
        return count

    @pytest.mark.parametrize("cls", ["sr-exists", "min-recurrent"])
    def test_no_member_is_tested_again(self, calls, pool, cls):
        targets = [g for _, g in pool] + [GAP_GRAPH, FamilySpec("wheel", n=8)]
        members = 0
        for target in targets:
            count = count_class(target, cls)
            assert len(list(iter_class(target, cls))) == count
            members += count
        assert members > 0
        assert calls == Counter()
        # the counters see a call that does go through the public test
        sandpile.is_strongly_recurrent(GAP_GRAPH, (0, 0), "exists")
        sandpile.is_minimal_recurrent(GAP_GRAPH, (0, 0))
        assert calls == Counter({"_check_config": 2, "is_strongly_recurrent": 1,
                                 "is_minimal_recurrent": 1})

    @pytest.mark.parametrize("cls,count,most", [("sr-exists", 11, 4390),
                                                ("min-recurrent", 1022, 5472)])
    def test_prefix_cuts_bound_the_fixpoints(self, fixpoints, cls, count,
                                             most):
        w10 = FamilySpec("wheel", n=10)
        assert _walk_count(w10, cls, "members") == count
        cut = len(fixpoints)
        fixpoints.clear()
        assert _walk_count(w10, "recurrent", "members") == 15125
        # no run is visited that the prefix rules out: at most half the
        # fixpoints of the recurrent walk
        assert 0 < cut <= most and 2 * cut <= len(fixpoints)

    @pytest.mark.parametrize("n", range(1, 30))
    def test_min_recurrent_on_complete_graphs(self, n):
        # the acyclic orientations of K_{n+1} with the sink as unique
        # source (Greene and Zaslavsky 1983), from K16 on past the walk's cap
        spec = FamilySpec("complete", n=n)
        assert count_class(spec, "min-recurrent") == math.factorial(n)
        if n <= 6:
            assert count_class(make_family(spec), "min-recurrent") == \
                math.factorial(n)

    def test_gap_witness_counts(self):
        assert (count_class(GAP_GRAPH, "sr-exists"),
                count_class(GAP_GRAPH, "sr-forall")) == (4, 1)

    @pytest.mark.parametrize("label,g,cls", CUT_CASES,
                             ids=[f"{label}-{cls}" for label, _, cls in CUT_CASES])
    def test_cut_runs_match_generate_and_test(self, label, g, cls):
        want = reference_iter_class(g, cls)
        assert list(iter_class(g, cls)) == want
        assert count_class(g, cls) == len(want)


class TestReports:
    def test_suite_all_match(self):
        reports = verify_counts(default_suite())
        assert len(reports) == 56
        for r in reports:
            assert r.expected is not None, (r.family, r.params, r.cls)
            assert r.match, (r.family, r.params, r.cls, r.count, r.expected)

    def test_csv_shape(self, k2):
        reports = [class_count(k2, "recurrent")]
        text = reports_to_csv(reports)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["family", "params", "class", "count", "expected",
                           "match", "millis"]
        assert rows[1][:4] == ["custom", "|V|=3,sink=0", "recurrent", "3"]
        assert rows[1][5] == "true"

    def test_json_shape(self):
        reports = [class_count(FamilySpec("complete", n=3), "ppf")]
        rows = json.loads(reports_to_json(reports))
        assert rows[0]["family"] == "complete"
        assert rows[0]["count"] == 4
        assert rows[0]["expected_source"] == "closed-form"
        assert rows[0]["match"] is True


    def test_no_prediction_leaves_match_unset(self, k2):
        # a bare graph has no closed form for its prime parking functions
        report = class_count(k2, "ppf")
        assert (report.count, report.expected, report.match) == (1, None, None)
        row = list(csv.reader(io.StringIO(reports_to_csv([report]))))[1]
        assert row[4:6] == ["", ""]
        assert json.loads(reports_to_json([report]))[0]["match"] is None

    def test_battery_script_reports_an_unpredicted_row(self, monkeypatch,
                                                       capsys, k2):
        script = runpy.run_path(str(Path(__file__).parent.parent / "scripts"
                                    / "verify_counts.py"))
        monkeypatch.setitem(script["main"].__globals__, "default_suite",
                            lambda: [(k2, "recurrent"), (k2, "ppf")])
        assert script["main"]([]) == 1
        out, err = capsys.readouterr()
        ok_row, bad_row = out.splitlines()
        assert ok_row.endswith("  ok")
        assert "expected=None" in bad_row
        assert bad_row.endswith("  MISMATCH")
        assert err == "1 mismatching counts\n"


class TestCrossValidation:
    def test_does_not_use_the_walker(self, monkeypatch, k2):
        def untouchable(*args):
            raise AssertionError("the enumeration walker ran")

        monkeypatch.setattr(enumeration, "_search", untouchable)
        report = cross_validate_oracles(k2)
        assert report.ok
        assert (report.stable_checked, report.recurrent_count,
                report.ppf_count) == (4, 3, 1)

    def test_space_capped_before_any_route(self):
        huge = 10 ** 30
        g = build_graph(["0", "a", "b"], "0",
                        [("0", "a", huge), ("a", "b", huge), ("0", "b", huge)])
        with pytest.raises(SizeCapError, match="exceeds cap"):
            cross_validate_oracles(g)

    def test_space_past_printable_digits_capped(self):
        with pytest.raises(SizeCapError) as exc:
            cross_validate_oracles(giant_triangle())
        assert str(exc.value) == (
            "search space of a 5001-digit number exceeds cap 100000000")

    def test_triangle_clean(self, k2):
        report = cross_validate_oracles(k2)
        assert report.ok
        assert report.stable_checked == 4
        assert report.recurrent_count == 3
        assert report.pf_count == 3
        assert report.ppf_count == 1
        assert report.sr_count == 1
        assert report.orientation_checked

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
        assert report.stable_checked == math.prod(g.nonsink_degrees)
        assert report.ok

    @pytest.mark.parametrize("route, wrong, mismatch", [
        ("is_recurrent_burning", lambda g, c: False, "recurrence mismatch"),
        ("is_g_parking_naive", lambda g, p: False, "parking mismatch"),
        ("is_prime_bruteforce", lambda g, p: False, "primality mismatch"),
        ("orientation_recurrent_set", lambda g: [], "orientation set mismatch"),
    ])
    def test_a_wrong_route_is_reported(self, monkeypatch, k2, route, wrong,
                                       mismatch):
        monkeypatch.setattr(reference, route, wrong)
        report = cross_validate_oracles(k2)
        assert not report.ok
        assert any(d.startswith(mismatch) for d in report.discrepancies), \
            report.discrepancies


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
