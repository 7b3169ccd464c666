"""Classical parking functions on a one-way street of n spots.

Car i drives to its preferred spot p_i and takes the first free spot at or
after it; the vector parks when every car finds a spot.  Four equivalent
membership conditions are implemented separately so they can be played off
against each other, together with breakpoints, the prime/non-prime split,
the two lattice-path encodings of non-decreasing vectors, and the
staircases that families.py draws for two-part parking pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .errors import SizeCapError

SUBSET_MAX_N = 20


def _check_vector(p: Sequence[int]) -> tuple[int, ...]:
    p = tuple(p)
    if not p:
        raise ValueError("preference vector must be non-empty")
    n = len(p)
    for x in p:
        if isinstance(x, bool) or not isinstance(x, int) or not 1 <= x <= n:
            raise ValueError(f"preferences must be integers in 1..{n}, got {x!r}")
    return p


@dataclass(frozen=True)
class ParkOutcome:
    """Spot taken by each car, in arrival order; None marks a failed car."""

    spots: tuple[Optional[int], ...]

    @property
    def success(self) -> bool:
        return all(s is not None for s in self.spots)


def simulate_park(p: Sequence[int]) -> ParkOutcome:
    p = _check_vector(p)
    n = len(p)
    free = [True] * (n + 1)
    spots: list[Optional[int]] = []
    for pref in p:
        spot = None
        for s in range(pref, n + 1):
            if free[s]:
                free[s] = False
                spot = s
                break
        spots.append(spot)
    return ParkOutcome(tuple(spots))


def is_pf_by_condition(p: Sequence[int], condition: int) -> bool:
    """Membership by one of the four equivalent tests.

    1: the parking simulation succeeds.
    2: the sorted vector satisfies sorted(p)[i] <= i+1.
    3: at least i entries are <= i, for every i.
    4: every non-empty index set S has an entry <= n+1-|S| (exponential).
    """
    p = _check_vector(p)
    n = len(p)
    if condition == 1:
        return simulate_park(p).success
    if condition == 2:
        return all(x <= i + 1 for i, x in enumerate(sorted(p)))
    if condition == 3:
        return all(sum(1 for x in p if x <= i) >= i for i in range(1, n + 1))
    if condition == 4:
        if n > SUBSET_MAX_N:
            raise SizeCapError(f"subset test capped at n = {SUBSET_MAX_N}, got {n}")
        for mask in range(1, 1 << n):
            size = mask.bit_count()
            bound = n + 1 - size
            if not any(mask >> i & 1 and p[i] <= bound for i in range(n)):
                return False
        return True
    raise ValueError("condition must be 1, 2, 3 or 4")


def is_parking_function(p: Sequence[int]) -> bool:
    return simulate_park(p).success


# ----------------------------------------------------------------------
# breakpoints and the prime/composite split


def breakpoints(p: Sequence[int]) -> tuple[int, ...]:
    """Positions j where exactly j entries are <= j.  Always includes n."""
    p = _check_vector(p)
    if not is_parking_function(p):
        raise ValueError("not a parking function")
    n = len(p)
    return tuple(j for j in range(1, n + 1)
                 if sum(1 for x in p if x <= j) == j)


def split_at_breakpoint(p: Sequence[int], j: int
                        ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cut at an interior breakpoint into two smaller parking functions.

    Entries <= j keep their values (index order preserved); the rest are
    shifted down by j.
    """
    p = _check_vector(p)
    n = len(p)
    if j not in breakpoints(p):
        raise ValueError(f"{j} is not a breakpoint")
    if j >= n:
        raise ValueError("splitting needs an interior breakpoint (j < n)")
    low = tuple(x for x in p if x <= j)
    high = tuple(x - j for x in p if x > j)
    return low, high


def is_prime_classical(p: Sequence[int]) -> bool:
    """Prime: the only breakpoint is n itself."""
    p = _check_vector(p)
    return breakpoints(p) == (len(p),)


def prime_bijection_classical(p: Sequence[int]) -> tuple[int, ...]:
    """Drop the leading 1 of a non-decreasing prime parking function.

    The result is a parking function one shorter; prepending a 1 inverts.
    """
    p = _check_vector(p)
    if any(a > b for a, b in zip(p, p[1:])):
        raise ValueError("input must be non-decreasing")
    if not is_prime_classical(p):
        raise ValueError("input must be prime")
    return p[1:]


def prime_bijection_classical_inverse(p: Sequence[int]) -> tuple[int, ...]:
    p = _check_vector(p)
    if any(a > b for a, b in zip(p, p[1:])):
        raise ValueError("input must be non-decreasing")
    if not is_parking_function(p):
        raise ValueError("input must be a parking function")
    return (1,) + p


# ----------------------------------------------------------------------
# lattice paths: the two encodings of non-decreasing vectors, and staircases

# the unit move of each step, per kind (None for a step outside the kind);
# a Lukasiewicz step is its own rise
_MOVES = {"dyck": {"U": (1, 1), "D": (1, -1)}.get,
          "staircase": {"E": (1, 0), "N": (0, 1)}.get,
          "lukasiewicz": lambda s: (1, s) if type(s) is int else None}


@dataclass(frozen=True)
class StepPath:
    """A lattice path from (0, 0): a Dyck path (U/D steps), a Lukasiewicz
    path (integer rises) or an East/North staircase (E/N steps).

    Positive x-axis touch points of a Dyck or Lukasiewicz encoding sit
    exactly at the breakpoints of the encoded parking function.
    """

    kind: str
    steps: tuple

    @property
    def word(self) -> str:
        if self.kind == "lukasiewicz":
            return ",".join(f"{r:+d}" for r in self.steps)
        return "".join(self.steps)

    def points(self) -> tuple[tuple[int, int], ...]:
        """Every lattice point visited, in order, from (0, 0)."""
        move = _MOVES.get(self.kind)
        if move is None:
            raise ValueError(f"bad path kind {self.kind!r}")
        x = y = 0
        pts = [(0, 0)]
        for s in self.steps:
            m = move(s)
            if m is None:
                raise ValueError(f"bad {self.kind} step {s!r}")
            x, y = x + m[0], y + m[1]
            pts.append((x, y))
        return tuple(pts)

    def axis_touches(self) -> tuple[int, ...]:
        # a Dyck path spends two steps (one up, one down) per car
        per_car = 2 if self.kind == "dyck" else 1
        return tuple(i // per_car for i, h in self.points()[1:] if h == 0)


def _staircase(levels: Iterable[int], end: int, rise: str, run: str
               ) -> tuple[str, ...]:
    """Rise to each level in turn and take one run step there, then rise
    to ``end``."""
    steps: list[str] = []
    y = 0
    for level in levels:
        steps += [rise] * (level - y) + [run]
        y = level
    return tuple(steps + [rise] * (end - y))


def value_counts(p: Sequence[int]) -> tuple[int, ...]:
    """How many entries equal j, for j = 1..n."""
    p = _check_vector(p)
    n = len(p)
    counts = [0] * n
    for x in p:
        counts[x - 1] += 1
    return tuple(counts)


def to_path(p: Sequence[int], kind: str) -> StepPath:
    """Encode the multiset of values as a lattice path.

    Dyck: for each value j in turn, one up-step per entry equal to j, then
    one down-step.  Lukasiewicz: the j-th step rises by (count of j) - 1.
    Injective on non-decreasing parking functions.
    """
    p = _check_vector(p)
    if not is_parking_function(p):
        raise ValueError("not a parking function")
    counts = value_counts(p)
    if kind == "dyck":
        return StepPath("dyck", _staircase(accumulate(counts), len(p), "U", "D"))
    if kind == "lukasiewicz":
        return StepPath("lukasiewicz", tuple(q - 1 for q in counts))
    raise ValueError("kind must be 'dyck' or 'lukasiewicz'")


def from_path(path: StepPath) -> tuple[int, ...]:
    """Decode a path back to the non-decreasing parking function."""
    path.points()  # rejects an unknown kind or a step outside the kind
    if path.kind == "dyck":
        *runs, tail = path.word.split("D")
        if tail:
            raise ValueError("Dyck word must end with a down-step")
        counts = [len(r) for r in runs]
    elif path.kind == "lukasiewicz":
        counts = [r + 1 for r in path.steps]
    else:
        raise ValueError("a staircase encodes no parking function")
    out = []
    for j, q in enumerate(counts, start=1):
        out.extend([j] * q)
    p = tuple(out)
    if len(p) != len(counts):
        raise ValueError("step counts do not encode a square-shaped vector")
    if not is_parking_function(p):
        raise ValueError("path does not encode a parking function")
    return p
