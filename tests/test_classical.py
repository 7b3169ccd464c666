import itertools

import pytest
from hypothesis import given, strategies as st

from sandpark import (
    SizeCapError,
    StepPath,
    breakpoints,
    from_path,
    is_parking_function,
    is_pf_by_condition,
    is_prime_classical,
    prime_bijection_classical,
    prime_bijection_classical_inverse,
    simulate_park,
    split_at_breakpoint,
    to_path,
    value_counts,
)

RUNNING_EXAMPLE = (1, 1, 1, 3, 4, 4, 7, 7, 7)


def all_vectors(n):
    return itertools.product(range(1, n + 1), repeat=n)


def parking_functions(n):
    return [p for p in all_vectors(n) if is_parking_function(p)]


class TestSimulation:
    def test_everyone_parks(self):
        out = simulate_park((3, 1, 3, 1))
        assert out.spots == (3, 1, 4, 2)
        assert out.success

    def test_fourth_car_fails(self):
        out = simulate_park((3, 1, 3, 3))
        assert out.spots == (3, 1, 4, None)
        assert not out.success

    def test_single_car(self):
        assert simulate_park((1,)).success

    def test_bad_vectors(self):
        for bad in ((0, 1), (1, 3), (), (1, True)):
            with pytest.raises(ValueError):
                simulate_park(bad)


class TestConditions:
    def test_all_four_agree_exhaustively(self):
        for n in range(1, 5):
            for p in all_vectors(n):
                answers = {cond: is_pf_by_condition(p, cond)
                           for cond in (1, 2, 3, 4)}
                assert len(set(answers.values())) == 1, (p, answers)

    def test_count_matches_formula(self):
        # (n+1)^(n-1) parking functions of length n
        for n in range(1, 6):
            assert len(parking_functions(n)) == (n + 1) ** (n - 1)

    def test_bad_condition(self):
        with pytest.raises(ValueError):
            is_pf_by_condition((1,), 5)

    def test_subset_condition_cap(self):
        with pytest.raises(SizeCapError):
            is_pf_by_condition((1,) * 21, 4)

    @given(st.integers(1, 7).flatmap(
        lambda n: st.tuples(*[st.integers(1, n)] * n)))
    def test_simulation_agrees_with_sort_test(self, p):
        assert is_pf_by_condition(p, 1) == is_pf_by_condition(p, 2)

    def test_permutation_invariance(self):
        for p in parking_functions(4):
            for q in itertools.permutations(p):
                assert is_parking_function(q)


class TestBreakpoints:
    def test_running_example(self):
        assert breakpoints(RUNNING_EXAMPLE) == (6, 9)

    def test_short_examples(self):
        assert breakpoints((3, 1, 3, 1)) == (2, 4)
        assert breakpoints((1, 1)) == (2,)
        assert breakpoints((1, 2)) == (1, 2)

    def test_last_position_always_breaks(self):
        for n in range(1, 6):
            for p in parking_functions(n):
                bps = breakpoints(p)
                assert bps[-1] == n

    def test_requires_parking_function(self):
        with pytest.raises(ValueError):
            breakpoints((2, 2))

    def test_split_running_example(self):
        low, high = split_at_breakpoint(RUNNING_EXAMPLE, 6)
        assert low == (1, 1, 1, 3, 4, 4)
        assert high == (1, 1, 1)

    def test_split_preserves_order_of_entries(self):
        low, high = split_at_breakpoint((3, 1, 3, 1), 2)
        assert low == (1, 1)
        assert high == (1, 1)

    def test_split_rejects_last_breakpoint(self):
        with pytest.raises(ValueError):
            split_at_breakpoint((1, 1), 2)

    def test_split_rejects_non_breakpoint(self):
        with pytest.raises(ValueError):
            split_at_breakpoint(RUNNING_EXAMPLE, 3)

    def test_split_parts_are_parking_functions(self):
        for n in range(2, 6):
            for p in parking_functions(n):
                for j in breakpoints(p)[:-1]:
                    low, high = split_at_breakpoint(p, j)
                    assert is_parking_function(low)
                    assert is_parking_function(high)
                    rebuilt = sorted(low) + sorted(x + j for x in high)
                    assert rebuilt == sorted(p)


class TestPrime:
    def test_examples(self):
        assert is_prime_classical((1,)) is True
        assert is_prime_classical((1, 1)) is True
        assert is_prime_classical((1, 2)) is False
        assert is_prime_classical((1, 1, 2)) is True
        assert is_prime_classical(RUNNING_EXAMPLE) is False

    def test_prime_iff_no_interior_breakpoint(self):
        for n in range(1, 6):
            for p in parking_functions(n):
                assert is_prime_classical(p) == (breakpoints(p) == (n,))

    def test_prime_counts(self):
        # (n-1)^(n-1) prime parking functions of length n
        for n in range(1, 6):
            primes = [p for p in parking_functions(n) if is_prime_classical(p)]
            assert len(primes) == (n - 1) ** (n - 1)


class TestPrimeBijection:
    def test_forward(self):
        assert prime_bijection_classical((1, 1, 2)) == (1, 2)
        assert prime_bijection_classical((1,)) == ()

    def test_inverse(self):
        assert prime_bijection_classical_inverse((1, 2)) == (1, 1, 2)

    def test_round_trip(self):
        for n in range(2, 7):
            sources = sorted({tuple(sorted(p)) for p in parking_functions(n)
                              if is_prime_classical(p)})
            for p in sources:
                image = prime_bijection_classical(p)
                assert is_parking_function(image)
                assert prime_bijection_classical_inverse(image) == p

    def test_image_is_every_shorter_sorted_parking_function(self):
        n = 5
        sources = {tuple(sorted(p)) for p in parking_functions(n)
                   if is_prime_classical(p)}
        images = {prime_bijection_classical(p) for p in sources}
        targets = {tuple(sorted(p)) for p in parking_functions(n - 1)}
        assert images == targets

    def test_rejects_unsorted_or_composite(self):
        with pytest.raises(ValueError):
            prime_bijection_classical((2, 1, 1))
        with pytest.raises(ValueError):
            prime_bijection_classical((1, 2, 3))
        with pytest.raises(ValueError):
            prime_bijection_classical_inverse((2, 1))


class TestPaths:
    def test_value_counts(self):
        assert value_counts(RUNNING_EXAMPLE) == (3, 0, 1, 2, 0, 0, 3, 0, 0)

    def test_dyck_running_example(self):
        path = to_path(RUNNING_EXAMPLE, "dyck")
        assert path.word == "UUUDDUDUUDDDUUUDDD"
        assert path.axis_touches() == (6, 9)

    def test_lukasiewicz_running_example(self):
        path = to_path(RUNNING_EXAMPLE, "lukasiewicz")
        assert path.steps == (2, -1, 0, 1, -1, -1, 2, -1, -1)
        assert path.word == "+2,-1,+0,+1,-1,-1,+2,-1,-1"
        assert path.axis_touches() == (6, 9)

    def test_round_trip_both_kinds(self):
        for n in range(1, 6):
            for p in parking_functions(n):
                for kind in ("dyck", "lukasiewicz"):
                    assert from_path(to_path(p, kind)) == tuple(sorted(p))

    def test_touches_are_breakpoints(self):
        for n in range(1, 6):
            for p in parking_functions(n):
                for kind in ("dyck", "lukasiewicz"):
                    assert to_path(p, kind).axis_touches() == breakpoints(p)

    def test_prime_touches_once(self):
        for n in range(1, 6):
            for p in parking_functions(n):
                once = to_path(p, "dyck").axis_touches() == (n,)
                assert once == is_prime_classical(p)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            to_path((1, 1), "motzkin")

    def test_from_path_validation(self):
        with pytest.raises(ValueError):
            from_path(StepPath("dyck", ("U", "U", "D")))
        with pytest.raises(ValueError):
            from_path(StepPath("dyck", ("U", "X")))
        with pytest.raises(ValueError):
            from_path(StepPath("lukasiewicz", (-1, 1)))
        with pytest.raises(ValueError):
            from_path(StepPath("spiral", ()))

    @pytest.mark.parametrize("kind, steps", [
        ("dyck", ("U", "N", "D")),
        ("staircase", ("E", "U")),
        ("lukasiewicz", (1, "D")),
        ("spiral", ("U",)),
    ])
    def test_step_outside_kind_rejected(self, kind, steps):
        with pytest.raises(ValueError):
            StepPath(kind, steps).points()

    def test_requires_parking_function(self):
        with pytest.raises(ValueError):
            to_path((2, 2), "dyck")
