import hashlib
import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from sandpark import (
    SizeCapError,
    ToppleLimitError,
    UnknownVertexError,
    add_sink_grains,
    build_graph,
    burning_sequence,
    burning_starts,
    complete_graph,
    config_from_dict,
    config_to_dict,
    drain_except,
    is_minimal_recurrent,
    is_recurrent,
    is_recurrent_burning,
    is_recurrent_orientation,
    is_stable,
    is_strongly_recurrent,
    make_family,
    FamilySpec,
    graph_to_dict,
    iter_class,
    markov_run,
    max_forbidden_set,
    orientation_indegrees,
    orientation_recurrent_set,
    random_connected_multigraph,
    stabilize,
    topple,
    trace_to_csv,
    write_trace_csv,
)
from sandpark import sandpile
from sandpark.errors import _size
from conftest import (carried, graph_pool, grid_with_sink_border, redeclared,
                      reference_stabilize, reference_strongly_recurrent,
                      sink_multiedge_pair, triangle)

POOL = graph_pool()


def stable_configs(g):
    return itertools.product(*(range(d) for d in g.nonsink_degrees))


def random_config(g, rng, lo=0, hi=None):
    return tuple(rng.randint(lo, (hi if hi is not None else 3 * d))
                 for d in g.nonsink_degrees)


class TestTopple:
    def test_single_topple(self, k2):
        assert topple(k2, (2, 0), "v1") == (0, 1)

    def test_stable_vertex_rejected(self, k2):
        with pytest.raises(ValueError):
            topple(k2, (1, 0), "v1")

    def test_sink_rejected(self, k2):
        with pytest.raises(ValueError):
            topple(k2, (2, 0), "0")

    def test_unknown_vertex(self, k2):
        with pytest.raises(UnknownVertexError):
            topple(k2, (2, 0), "zz")

    def test_grain_loss_equals_sink_multiplicity(self):
        # toppling v loses exactly mult(v, sink) grains from the non-sink part
        rng = random.Random(5)
        for label, g in POOL:
            for _ in range(20):
                c = random_config(g, rng)
                unstable = [v for v, x, d in zip(g.nonsink, c, g.nonsink_degrees)
                            if x >= d]
                if not unstable:
                    continue
                v = rng.choice(unstable)
                after = topple(g, c, v)
                lost = sum(c) - sum(after)
                assert lost == g.multiplicity(v, g.sink), label


class TestStabilize:
    def test_stable_input_is_fixed(self, k2):
        tr = stabilize(k2, (1, 1))
        assert tr.final == (1, 1)
        assert tr.log == ()
        assert tr.odometer == (0, 0)

    def test_log_replay_reaches_final(self):
        rng = random.Random(11)
        for label, g in POOL:
            c = random_config(g, rng)
            tr = stabilize(g, c)
            cur = c
            for v in tr.log:
                cur = topple(g, cur, v)
            assert cur == tr.final, label
            assert is_stable(g, tr.final), label

    def test_odometer_counts_log(self):
        g = make_family(FamilySpec("wheel", n=4))
        tr = stabilize(g, (7, 0, 3, 2))
        for v, n in zip(g.nonsink, tr.odometer):
            assert tr.log.count(v) == n

    @given(st.data())
    def test_abelian(self, data):
        label, g = data.draw(st.sampled_from(POOL))
        c = tuple(data.draw(st.integers(0, 3 * d)) for d in g.nonsink_degrees)
        seed_a = data.draw(st.integers(0, 2**16))
        seed_b = data.draw(st.integers(0, 2**16))
        base = stabilize(g, c)
        alt_a = reference_stabilize(g, c, rng=random.Random(seed_a))
        alt_b = reference_stabilize(g, c, rng=random.Random(seed_b))
        assert alt_a.final == alt_b.final == base.final
        assert alt_a.odometer == alt_b.odometer == base.odometer

    def test_topple_budget(self, k2):
        with pytest.raises(ToppleLimitError):
            stabilize(k2, (50, 50), max_topplings=3)

    def test_topple_budget_counts_bulk_firings(self, k2):
        # v1 fires 5 * 10^29 times in the first wave, far past the default
        # budget of 10^7, so the run stops there instead of firing singly
        start = time.perf_counter()
        with pytest.raises(ToppleLimitError):
            stabilize(k2, (10 ** 30, 0))
        assert time.perf_counter() - start < 1.0

    def test_topple_budget_is_exact(self):
        # the 4,000-grain centre pile on the 16x16 grid fires 78,381 times
        g = grid_with_sink_border(16)
        c = [0] * 256
        c[8 * 16 + 8] = 4000
        with pytest.raises(ToppleLimitError):
            stabilize(g, c, max_topplings=78_380)
        tr = stabilize(g, c, max_topplings=78_381)
        assert sum(tr.odometer) == 78_381

    @staticmethod
    def multigraph_piles(seed, count):
        """Seeded multigraphs with parallel edges, each with a pile of
        hundreds of grains and a few negative entries."""
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            g = random_connected_multigraph(rng, rng.randint(4, 9),
                                            max_mult=4, extra_edges=6)
            if max(m for row in g.nonsink_nbrs for _, m in row) < 2:
                continue
            c = [rng.randint(-3, 2 * d) for d in g.nonsink_degrees]
            c[rng.randrange(len(c))] += rng.randint(200, 600)
            out.append((g, tuple(c)))
        return out

    def test_waves_match_shuffled_orders_on_multigraphs(self):
        # grains arrive q * m at a time along parallel edges, so a position
        # can cross its degree by far more than one firing's worth
        negatives = 0
        for n, (g, c) in enumerate(self.multigraph_piles(31, 24)):
            negatives += min(c) < 0
            tr = stabilize(g, c)
            assert is_stable(g, tr.final), n
            for seed in (n, n + 100):
                ref = reference_stabilize(g, c, rng=random.Random(seed))
                assert (tr.final, tr.odometer) == (ref.final, ref.odometer), n
        assert negatives >= 6

    def test_topple_budget_is_exact_on_a_multigraph(self):
        g, c = self.multigraph_piles(7, 1)[0]
        total = sum(reference_stabilize(g, c).odometer)
        assert total > 100
        with pytest.raises(ToppleLimitError):
            stabilize(g, c, max_topplings=total - 1)
        assert sum(stabilize(g, c, max_topplings=total).odometer) == total

    def test_log_replayed_once_on_first_read(self, monkeypatch):
        calls = []
        replay = sandpile._ordered_log

        def counted(g, c):
            calls.append(c)
            return replay(g, c)

        monkeypatch.setattr(sandpile, "_ordered_log", counted)
        g = grid_with_sink_border(16)
        c = [0] * 256
        c[8 * 16 + 8] = 4000
        tr = stabilize(g, c)
        assert calls == []
        ref = reference_stabilize(g, c)
        assert (tr.final, tr.odometer) == (ref.final, ref.odometer)
        assert tr.log == ref.log
        assert tr.log is tr.log
        assert calls == [tuple(c)]

    def test_negative_values_permitted(self, k2):
        # vertices may owe grains; stabilisation still terminates
        tr = stabilize(k2, (-1, 5))
        assert tr.final == (1, 1)
        assert tr.odometer == (0, 2)


class TestBurning:
    def test_verdict_runs_no_ordered_replay(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("the log was replayed")

        monkeypatch.setattr(sandpile, "_ordered_log", boom)
        g = grid_with_sink_border(16)
        top = tuple(d - 1 for d in g.nonsink_degrees)
        assert is_recurrent_burning(g, top) is True
        assert is_recurrent_burning(g, (0,) * 256) is False
        with pytest.raises(RuntimeError, match="replayed"):
            burning_sequence(g, top)

    def test_triangle_sequence(self, k2):
        assert burning_sequence(k2, (1, 0)) == ("0", "v1", "v2")
        assert burning_sequence(k2, (1, 1)) in (("0", "v1", "v2"), ("0", "v2", "v1"))

    def test_non_recurrent_has_no_sequence(self, k2):
        assert burning_sequence(k2, (0, 0)) is None

    def test_unstable_rejected(self, k2):
        with pytest.raises(ValueError):
            burning_sequence(k2, (2, 0))

    def test_triangle_recurrent_set(self, k2):
        rec = {c for c in stable_configs(k2) if is_recurrent_burning(k2, c)}
        assert rec == {(0, 1), (1, 0), (1, 1)}

    def test_add_sink_grains(self, k2):
        assert add_sink_grains(k2, (0, 0)) == (1, 1)
        g = sink_multiedge_pair()
        assert add_sink_grains(g, (0, 0)) == (2, 3)


class TestForbiddenSet:
    def test_triangle_values(self, k2):
        assert max_forbidden_set(k2, (0, 0)) == ("v1", "v2")
        assert max_forbidden_set(k2, (1, 0)) == ()

    def test_peel_order_irrelevant(self):
        # redeclaring the vertices changes the order the fixpoint scans
        # and discards them in
        for label, g in POOL:
            shuffled = [redeclared(g, random.Random(seed)) for seed in (1, 2)]
            for c in itertools.islice(stable_configs(g), 40):
                base = max_forbidden_set(g, c)
                for h in shuffled:
                    alt = max_forbidden_set(h, carried(g, h, c))
                    assert set(alt) == set(base), label

    def test_negative_vertex_never_burns(self, k2):
        # a vertex with negative grains stays forbidden forever
        assert "v1" in max_forbidden_set(k2, (-1, 1))
        assert not is_recurrent(k2, (-1, 1))

    def test_matches_burning_on_pool(self):
        for label, g in POOL:
            for c in stable_configs(g):
                assert is_recurrent(g, c) == is_recurrent_burning(g, c), (label, c)


class TestOrientations:
    def test_triangle_minimal_indegrees(self, k2):
        assert set(orientation_indegrees(k2)) == {(0, 1), (1, 0)}

    def test_size_cap(self):
        g = make_family(FamilySpec("complete", n=9))
        with pytest.raises(SizeCapError):
            orientation_indegrees(g)

    def test_unstable_rejected(self, k2):
        with pytest.raises(ValueError):
            is_recurrent_orientation(k2, (2, 0))

    def test_recurrent_set_matches_burning(self):
        for label, g in POOL:
            byor = orientation_recurrent_set(g)
            byburn = {c for c in stable_configs(g) if is_recurrent_burning(g, c)}
            assert byor == byburn, label

    def test_vectors_hold_one_grain_per_nonsink_edge(self):
        # level 0, so no vector dominates another
        rng = random.Random(20261018)
        seeded = [random_connected_multigraph(rng, rng.randint(8, 9))
                  for _ in range(4)]
        for g in [g for _, g in POOL] + seeded:
            grains = g.edge_total - sum(g.sink_mults)
            vecs = orientation_indegrees(g)
            assert vecs and all(sum(d) == grains for d in vecs), g

    def test_min_recurrent_walk_matches_orientations(self):
        graphs = POOL + [(s.label(), make_family(s))
                         for s in (FamilySpec("wheel", n=7),
                                   FamilySpec("complete", n=6))]
        for label, g in graphs:
            assert set(iter_class(g, "min-recurrent")) == set(
                orientation_indegrees(g)), label
        assert len(orientation_indegrees(graphs[-1][1])) == math.factorial(6)

    def test_usable_at_cap(self):
        # one vector per order of the non-sink vertices of K8
        assert len(orientation_indegrees(complete_graph(8))) == math.factorial(8)


class TestStrongRecurrence:
    def test_burning_starts(self, k2):
        assert burning_starts(k2, (1, 1)) == ("v1", "v2")
        assert burning_starts(k2, (1, 0)) == ("v1",)
        assert burning_starts(k2, (0, 0)) == ()

    def test_drain_except(self, k2):
        assert drain_except(k2, (1, 1), "v1") == (1, 0)
        assert drain_except(k2, (1, 0), "v1") == (1, -1)
        with pytest.raises(ValueError):
            drain_except(k2, (1, 0), "v2")

    @pytest.mark.parametrize("v", ["zz", "0"])
    def test_drain_except_needs_a_nonsink_vertex(self, k2, v):
        with pytest.raises(UnknownVertexError, match="unknown or sink"):
            drain_except(k2, (1, 1), v)

    def test_triangle_strong_set(self, k2):
        assert is_strongly_recurrent(k2, (1, 1)) is True
        assert is_strongly_recurrent(k2, (1, 0)) is False
        assert is_strongly_recurrent(k2, (0, 1)) is False
        assert is_strongly_recurrent(k2, (0, 0)) is False

    def test_non_recurrent_is_false_not_error(self, k2):
        assert is_strongly_recurrent(k2, (0, 0), quantifier="exists") is False

    def test_bad_quantifier(self, k2):
        with pytest.raises(ValueError):
            is_strongly_recurrent(k2, (1, 1), quantifier="any")

    def test_exists_weaker_than_forall(self):
        for label, g in POOL:
            for c in stable_configs(g):
                if is_strongly_recurrent(g, c, quantifier="forall"):
                    assert is_strongly_recurrent(g, c, quantifier="exists"), (label, c)

    def test_quantifiers_agree_on_simple_sink_edges(self):
        # with all sink multiplicities 1 the two quantifiers coincide
        for label, g in POOL:
            if any(m > 1 for m in g.sink_mults):
                continue
            for c in stable_configs(g):
                fa = is_strongly_recurrent(g, c, quantifier="forall")
                ex = is_strongly_recurrent(g, c, quantifier="exists")
                assert fa == ex, (label, c)

    @pytest.mark.parametrize("quantifier", ["forall", "exists"])
    def test_quantifiers_match_definition(self, quantifier):
        graphs = [g for _, g in POOL]
        rng = random.Random(16)
        while len(graphs) < len(POOL) + 30:
            g = random_connected_multigraph(rng, rng.randint(3, 5),
                                            max_mult=3, extra_edges=3)
            if max(g.sink_mults) >= 2 and math.prod(g.nonsink_degrees) <= 2000:
                graphs.append(g)
        gaps = 0
        for g in graphs:
            for c in stable_configs(g):
                expected = reference_strongly_recurrent(g, c, quantifier)
                assert is_strongly_recurrent(g, c, quantifier) == expected, (
                    graph_to_dict(g), c)
                gaps += expected != reference_strongly_recurrent(
                    g, c, "exists" if quantifier == "forall" else "forall")
        # the seeded graphs reach configurations the two quantifiers split
        assert gaps > 0

    def test_gap_on_multiedge_graph(self):
        g = sink_multiedge_pair()
        gap = [c for c in stable_configs(g)
               if is_strongly_recurrent(g, c, quantifier="exists")
               and not is_strongly_recurrent(g, c, quantifier="forall")]
        assert (1, 3) in gap


class TestMinimalRecurrent:
    def test_triangle(self, k2):
        assert is_minimal_recurrent(k2, (1, 0)) is True
        assert is_minimal_recurrent(k2, (0, 1)) is True
        assert is_minimal_recurrent(k2, (1, 1)) is False
        assert is_minimal_recurrent(k2, (0, 0)) is False

    def test_definition_on_pool(self):
        for label, g in POOL:
            if len(g.nonsink) > 4:
                continue
            for c in stable_configs(g):
                expect = is_recurrent(g, c) and all(
                    c[i] == 0 or not is_recurrent(
                        g, c[:i] + (c[i] - 1,) + c[i + 1:])
                    for i in range(len(c)))
                assert is_minimal_recurrent(g, c) == expect, (label, c)

    def test_drained_strong_config_has_unique_start(self):
        # draining a strongly recurrent configuration at v leaves v as the
        # only burning start
        for label, g in POOL:
            if len(g.nonsink) > 4:
                continue
            for c in stable_configs(g):
                if not is_strongly_recurrent(g, c, quantifier="forall"):
                    continue
                for v in burning_starts(g, c):
                    assert burning_starts(g, drain_except(g, c, v)) == (v,), (label, c, v)


class TestMarkov:
    def test_deterministic_given_seed(self, k2):
        a = markov_run(k2, (0, 0), 50, seed=9)
        b = markov_run(k2, (0, 0), 50, seed=9)
        assert a.trace == b.trace
        c = markov_run(k2, (0, 0), 50, seed=10)
        assert a.trace != c.trace

    def test_visits_stay_stable(self, k2):
        run = markov_run(k2, (1, 1), 200, seed=3)
        for _, _, cfg in run.trace:
            assert is_stable(k2, cfg)

    def test_converges_to_recurrent_set(self, k2):
        run = markov_run(k2, (0, 0), 2000, seed=1)
        tail = {cfg for step, v, cfg in run.trace[500:]}
        rec = {c for c in stable_configs(k2) if is_recurrent(k2, c)}
        assert tail == rec

    def test_unstable_start_rejected(self, k2):
        with pytest.raises(ValueError):
            markov_run(k2, (2, 0), 5, seed=0)

    def test_mu_validation(self, k2):
        with pytest.raises(ValueError):
            markov_run(k2, (0, 0), 5, seed=0, mu=[0.5, 0.4])
        with pytest.raises(ValueError):
            markov_run(k2, (0, 0), 5, seed=0, mu=[1.0, 0.0])
        with pytest.raises(ValueError):
            markov_run(k2, (0, 0), 5, seed=0, mu={"v1": 1.0})
        with pytest.raises(UnknownVertexError):
            markov_run(k2, (0, 0), 5, seed=0, mu={"v1": 0.5, "zz": 0.5})
        for bad in (float("nan"), float("inf"), None, [0.5], "0.5", True):
            with pytest.raises(ValueError):
                markov_run(k2, (0, 0), 0, seed=0, mu=[bad, 0.5])
        with pytest.raises(ValueError):
            markov_run(k2, (0, 0), -1, seed=0)

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_steps_must_be_an_integer(self, k2, bad):
        with pytest.raises(ValueError, match="steps must be an integer"):
            markov_run(k2, (0, 0), bad, seed=0)

    def test_cap_raises_before_any_drop(self, k2, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("the chain started")

        monkeypatch.setattr(sandpile, "_relax", boom)
        monkeypatch.setattr(sandpile.random, "Random", boom)
        at_cap = sandpile.CHAIN_CAP // len(k2.nonsink)
        with pytest.raises(SizeCapError, match="cap"):
            markov_run(k2, (0, 0), at_cap + 1, seed=0)
        # Bad arguments still raise first, and at the cap the chain starts.
        with pytest.raises(ValueError, match="steps must be an integer"):
            markov_run(k2, (0, 0), float(at_cap + 1), seed=0)
        with pytest.raises(RuntimeError, match="the chain started"):
            markov_run(k2, (0, 0), at_cap, seed=0)

    def test_cap_message_past_printable_digits(self, k2):
        with pytest.raises(SizeCapError) as exc:
            markov_run(k2, (0, 0), 10 ** 5000, seed=0)
        assert str(exc.value) == (
            "chain of a 5001-digit number steps over 2 non-sink vertices "
            "stores a 5001-digit number values, cap 100000000")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on printed digits")
    def test_size_digit_count_is_exact(self):
        limit = sys.get_int_max_str_digits()
        near = [10 ** k + d for k in (limit - 1, limit, limit + 1, 6020)
                for d in (-1, 0, 1)]
        try:
            sys.set_int_max_str_digits(0)
            lengths = [len(str(n)) for n in near]
        finally:
            sys.set_int_max_str_digits(limit)
        for n, length in zip(near, lengths):
            assert _size(n) == (str(n) if length <= limit
                                else f"a {length}-digit number")

    def test_trace_indexing(self, k2):
        trace = markov_run(k2, (0, 0), 2000, seed=1).trace
        steps = list(trace)
        assert len(trace) == len(steps) == 2000
        assert trace[0] == steps[0] and trace[0][0] == 1
        assert trace[-1] == steps[-1] and trace[-1][0] == 2000
        assert trace[-2000] == steps[0]
        for bad in (2000, -2001):
            with pytest.raises(IndexError):
                trace[bad]
        tail = trace[500:]
        assert isinstance(tail, list) and tail == steps[500:]
        assert trace[::-7] == steps[::-7]

    def test_trace_equality(self, k2):
        a = markov_run(k2, (0, 0), 50, seed=9).trace
        b = markov_run(k2, (0, 0), 50, seed=9).trace
        other = markov_run(k2, (0, 0), 50, seed=10).trace
        steps = list(a)
        assert a == b and not a != b
        assert a == steps and steps == a
        assert a != other and other != a
        assert a != steps[:-1] and steps[:-1] != a
        changed = steps[:-1] + [(50, steps[-1][1], (9, 9))]
        assert a != changed and changed != a
        assert a != tuple(steps)

    @staticmethod
    def expected_trace(g, run):
        """The run's steps rebuilt from its drops with ``stabilize``."""
        out, prev = [], run.start
        for step, vertex, _ in run.trace:
            pos = g.nonsink_pos[vertex]
            prev = stabilize(g, prev[:pos] + (prev[pos] + 1,)
                             + prev[pos + 1:]).final
            out.append((step, vertex, prev))
        return out

    def test_exact_states_beyond_a_byte(self):
        huge = 10 ** 30
        g = build_graph(["0", "a", "b"], "0",
                        [("0", "a", huge), ("a", "b", huge), ("0", "b", huge)])
        top = tuple(d - 1 for d in g.nonsink_degrees)
        run = markov_run(g, top, 100, seed=0)
        assert run.trace == self.expected_trace(g, run)
        assert max(run.trace[-1][2]) > 10 ** 29

    def test_exact_states_below_zero(self, k2):
        run = markov_run(k2, (-3, 1), 40, seed=2)
        assert min(run.trace[0][2]) < 0
        assert run.trace == self.expected_trace(k2, run)

    @pytest.mark.parametrize("case", ["grid-bytes", "negative", "wide"])
    def test_stored_states_equal_packed_from_scratch(self, case, k2):
        # quiet drops splice one entry into the last stored state; each
        # stored state must still be what packing the whole state gives
        if case == "grid-bytes":
            g = grid_with_sink_border(16)
            start = tuple(d - 1 for d in g.nonsink_degrees)
            pack, steps = bytes, 1500
        elif case == "negative":
            g, start, pack, steps = k2, (-3, 1), tuple, 200
        else:
            # a vertex of degree 301 holds values no byte can
            g = build_graph(["0", "a", "b", "c"], "0",
                            [("0", "a", 300), ("a", "b", 1), ("b", "c", 2),
                             ("0", "c", 1)])
            start, pack, steps = (250, 0, 1), tuple, 600
        run = markov_run(g, start, steps, seed=13)
        expected = [pack(start)] + [pack(cfg) for _, _, cfg
                                    in self.expected_trace(g, run)]
        stored = run.trace._stored()
        assert [type(s) for s in stored] == [pack] * (steps + 1)
        assert stored == expected
        # a quiet drop changes one entry, a firing at least two
        quiet = sum(sum(x != y for x, y in zip(a, b)) == 1
                    for a, b in zip(stored, stored[1:]))
        assert 0 < quiet < steps

    def test_trace_memory(self):
        g = grid_with_sink_border(16)
        top = tuple(d - 1 for d in g.nonsink_degrees)
        markov_run(g, top, 1, seed=3)  # build the graph's lazy rows first
        tracemalloc.start()
        try:
            run = markov_run(g, top, 2000, seed=3)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(run.trace) == 2000
        assert held < 1_000_000, held

    def test_mu_mapping_matches_sequence(self, k2):
        by_map = markov_run(k2, (0, 0), 100, seed=4, mu={"v1": 0.25, "v2": 0.75})
        by_seq = markov_run(k2, (0, 0), 100, seed=4, mu=[0.25, 0.75])
        assert by_map.trace == by_seq.trace

    def test_trace_csv_shape(self, k2, tmp_path):
        run = markov_run(k2, (0, 0), 3, seed=7)
        text = trace_to_csv(k2, run)
        lines = text.strip().split("\n")
        assert lines[0] == "step,dropped_vertex,config"
        assert lines[1].startswith("0,,")
        assert len(lines) == 5
        path = tmp_path / "trace.csv"
        write_trace_csv(k2, run, path)
        assert path.read_text() == text

    def test_write_trace_csv_streams(self, tmp_path):
        g = grid_with_sink_border(16)
        top = tuple(d - 1 for d in g.nonsink_degrees)
        run = markov_run(g, top, 2000, seed=3)
        path = tmp_path / "trace.csv"
        write_trace_csv(g, run, path)  # warm the csv and io machinery
        tracemalloc.start()
        try:
            write_trace_csv(g, run, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the rows go out as they are made: the file's text is never held
        size = path.stat().st_size
        assert size > 1_000_000
        assert peak < size // 2, (peak, size)

    def test_trace_csv_reproducible(self, k2):
        a = trace_to_csv(k2, markov_run(k2, (0, 0), 40, seed=12))
        b = trace_to_csv(k2, markov_run(k2, (0, 0), 40, seed=12))
        assert a == b

    # SHA-256 of trace_to_csv, pinned so that any change to the sequence of
    # draws shows; same-seed determinism alone would not catch one.
    def test_trace_pinned_non_uniform_mu(self, k2):
        run = markov_run(k2, (0, 0), 100, seed=5, mu=[0.2, 0.8])
        text = trace_to_csv(k2, run)
        assert text.startswith('step,dropped_vertex,config\n0,,"0,0"\n'
                               '1,v2,"0,1"\n2,v2,"1,0"\n3,v2,"1,1"\n')
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9ef4f62eccd62715acafc19816b4660836f5941fd3b3d99c599cabac3b672f83")

    def test_trace_pinned_grid_from_maximal_stable(self):
        g = grid_with_sink_border(4)
        top = tuple(d - 1 for d in g.nonsink_degrees)
        text = trace_to_csv(g, markov_run(g, top, 300, seed=21))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4ea02f5393ea4f31fc9730c8456df10dffa0a021d7b36ca3fea0e10e8b152a91")


class TestConfigIO:
    def test_round_trip(self, k2):
        d = config_to_dict(k2, (1, 0))
        assert d == {"values": {"v1": 1, "v2": 0}}
        assert config_from_dict(k2, d) == (1, 0)

    def test_missing_vertex(self, k2):
        with pytest.raises(ValueError):
            config_from_dict(k2, {"values": {"v1": 1}})

    def test_extra_vertex(self, k2):
        with pytest.raises(ValueError):
            config_from_dict(k2, {"values": {"v1": 1, "v2": 0, "zz": 2}})

    def test_non_integer(self, k2):
        with pytest.raises(ValueError):
            config_from_dict(k2, {"values": {"v1": 1.5, "v2": 0}})

    @pytest.mark.parametrize("bad", [(1.5, 0.5), (2.5, 0), (True, 0)])
    @pytest.mark.parametrize("route", [
        is_stable, is_recurrent, is_recurrent_burning, is_strongly_recurrent,
        is_minimal_recurrent, is_recurrent_orientation, stabilize,
        add_sink_grains, burning_sequence, burning_starts, max_forbidden_set,
        config_to_dict])
    def test_entries_must_be_integers(self, k2, route, bad):
        with pytest.raises(ValueError, match="'v1' must be an integer"):
            route(k2, bad)

    @pytest.mark.parametrize("bad", [(1.5, 0.5), (True, 0)])
    def test_chain_start_must_be_integers(self, k2, bad):
        with pytest.raises(ValueError, match="'v1' must be an integer"):
            markov_run(k2, bad, 1, seed=0)
