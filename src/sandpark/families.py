"""Named graph families and their special-case theory.

Families (parameters are at least 1 unless noted):

* complete(n): vertices 1..n all adjacent, plus an adjacent sink 0.
* wheel(n), n >= 3: an n-cycle rim, every rim vertex adjacent to a hub sink.
* tripartite(p, q): independent parts P (size p), Q (size q) and the sink,
  with a single edge between any two vertices in different parts.
* bipartite(p, q): part P holds the sink plus p vertices, part Q holds q;
  all P-Q pairs are adjacent (the sink sits inside P).
* split(m, n): a clique of m+1 vertices containing the sink, plus an
  independent set of n vertices adjacent to every clique vertex.

Wheels admit a direct recurrence test; bipartite-with-sink parking pairs
admit a two-lattice-path test; bipartite* and split carry vertex-deletion
bijections between prime and plain increasing parking functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import RootedMultigraph, build_graph
from .parking import is_g_parking, is_prime

FAMILIES = ("complete", "wheel", "tripartite", "bipartite", "split")


@dataclass(frozen=True)
class FamilySpec:
    """Which family and which parameters; validated on construction."""

    family: str
    n: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    m: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        need = {"complete": ("n",), "wheel": ("n",),
                "tripartite": ("p", "q"), "bipartite": ("p", "q"),
                "split": ("m", "n")}[self.family]
        for name in need:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"family {self.family!r} needs integer {name} >= 1")
        for name in ("n", "p", "q", "m"):
            if name not in need and getattr(self, name) is not None:
                raise ValueError(
                    f"family {self.family!r} does not take parameter {name}")
        if self.family == "wheel" and self.n < 3:
            raise ValueError("wheel needs n >= 3")

    def label(self) -> str:
        if self.family == "complete":
            return f"K{self.n}^0"
        if self.family == "wheel":
            return f"W{self.n}^0"
        if self.family == "tripartite":
            return f"K({self.p},{self.q})^0"
        if self.family == "bipartite":
            return f"K({self.p}*,{self.q})"
        return f"S({self.m}*,{self.n})"

    def params(self) -> str:
        if self.family in ("complete", "wheel"):
            return f"n={self.n}"
        if self.family in ("tripartite", "bipartite"):
            return f"p={self.p},q={self.q}"
        return f"m={self.m},n={self.n}"


def complete_graph(n: int) -> RootedMultigraph:
    names = ["0"] + [str(i) for i in range(1, n + 1)]
    edges = [(names[i], names[j], 1)
             for i in range(n + 1) for j in range(i + 1, n + 1)]
    return build_graph(names, "0", edges)


def wheel_graph(n: int) -> RootedMultigraph:
    if n < 3:
        raise ValueError("wheel needs n >= 3")
    names = ["0"] + [str(i) for i in range(1, n + 1)]
    edges = [(str(i), str(i % n + 1), 1) for i in range(1, n + 1)]
    edges += [("0", str(i), 1) for i in range(1, n + 1)]
    return build_graph(names, "0", edges)


def tripartite_graph(p: int, q: int) -> RootedMultigraph:
    ps = [f"p{i}" for i in range(1, p + 1)]
    qs = [f"q{j}" for j in range(1, q + 1)]
    names = ["v0"] + ps + qs
    edges = [(a, b, 1) for a in ps for b in qs]
    edges += [("v0", a, 1) for a in ps + qs]
    return build_graph(names, "v0", edges)


def bipartite_graph(p: int, q: int) -> RootedMultigraph:
    ps = [f"p{i}" for i in range(1, p + 1)]
    qs = [f"q{j}" for j in range(1, q + 1)]
    names = ["p0"] + ps + qs
    edges = [(a, b, 1) for a in ["p0"] + ps for b in qs]
    return build_graph(names, "p0", edges)


def split_graph(m: int, n: int) -> RootedMultigraph:
    cs = [f"c{i}" for i in range(1, m + 1)]
    xs = [f"i{j}" for j in range(1, n + 1)]
    names = ["c0"] + cs + xs
    clique = ["c0"] + cs
    edges = [(clique[i], clique[j], 1)
             for i in range(m + 1) for j in range(i + 1, m + 1)]
    edges += [(c, x, 1) for c in clique for x in xs]
    return build_graph(names, "c0", edges)


def make_family(spec: FamilySpec) -> RootedMultigraph:
    if spec.family == "complete":
        return complete_graph(spec.n)
    if spec.family == "wheel":
        return wheel_graph(spec.n)
    if spec.family == "tripartite":
        return tripartite_graph(spec.p, spec.q)
    if spec.family == "bipartite":
        return bipartite_graph(spec.p, spec.q)
    return split_graph(spec.m, spec.n)


def family_parts(spec: FamilySpec) -> tuple[tuple[str, ...], ...]:
    """Interchangeable vertex groups, for 'increasing' enumeration classes.

    Wheels have no such groups (rim vertices are only cyclically
    symmetric), so they are rejected.
    """
    if spec.family == "complete":
        return (tuple(str(i) for i in range(1, spec.n + 1)),)
    if spec.family == "tripartite" or spec.family == "bipartite":
        return (tuple(f"p{i}" for i in range(1, spec.p + 1)),
                tuple(f"q{j}" for j in range(1, spec.q + 1)))
    if spec.family == "split":
        return (tuple(f"c{i}" for i in range(1, spec.m + 1)),
                tuple(f"i{j}" for j in range(1, spec.n + 1)))
    raise ValueError(f"family {spec.family!r} has no interchangeable parts")


# ----------------------------------------------------------------------
# wheels: direct recurrence tests on rim values


def _cyclic_between(n: int, i: int, j: int) -> range | list[int]:
    """Rim positions strictly between i and j, walking forward from i."""
    if i < j:
        return range(i + 1, j)
    return [k % n + 1 for k in range(i, n + j - 1)]


def wheel_recurrent(c: Sequence[int]) -> bool:
    """Recurrence on a wheel, read off the rim values directly.

    A stable wheel configuration (values 0, 1, 2) is recurrent exactly when
    some value is 2 and, for every ordered pair of zero positions, walking
    forward between them passes a 2.
    """
    c = tuple(c)
    n = len(c)
    if n < 3:
        raise ValueError("wheel needs n >= 3 rim vertices")
    if any(x not in (0, 1, 2) for x in c):
        raise ValueError("stable wheel values lie in {0, 1, 2}")
    if 2 not in c:
        return False
    zeros = [i + 1 for i, x in enumerate(c) if x == 0]
    for i in zeros:
        for j in zeros:
            if i == j:
                continue
            if not any(c[k - 1] == 2 for k in _cyclic_between(n, i, j)):
                return False
    return True


def wheel_strongly_recurrent(c: Sequence[int]) -> bool:
    """Strong recurrence on a wheel: no zeros and at most one 1."""
    c = tuple(c)
    if len(c) < 3:
        raise ValueError("wheel needs n >= 3 rim vertices")
    return all(x in (1, 2) for x in c) and sum(1 for x in c if x == 1) <= 1


# ----------------------------------------------------------------------
# bipartite-with-sink parking via two monotone lattice paths


@dataclass(frozen=True)
class MonotonePath:
    """East/North staircase from (0, 0); steps is a string over 'E', 'N'."""

    steps: str

    @property
    def width(self) -> int:
        return self.steps.count("E")

    @property
    def height(self) -> int:
        return self.steps.count("N")

    def points(self) -> tuple[tuple[int, int], ...]:
        x = y = 0
        pts = [(0, 0)]
        for s in self.steps:
            if s == "E":
                x += 1
            else:
                y += 1
            pts.append((x, y))
        return tuple(pts)

    def e_heights(self) -> tuple[int, ...]:
        out = []
        y = 0
        for s in self.steps:
            if s == "N":
                y += 1
            else:
                out.append(y)
        return tuple(out)

    def n_positions(self) -> tuple[int, ...]:
        out = []
        x = 0
        for s in self.steps:
            if s == "E":
                x += 1
            else:
                out.append(x)
        return tuple(out)


def _check_lattice_vector(a: Sequence[int], bound: int, what: str) -> tuple[int, ...]:
    a = tuple(a)
    if not a:
        raise ValueError(f"{what} must be non-empty")
    if any(x < 0 or x > bound for x in a):
        raise ValueError(f"{what} entries must lie in 0..{bound}")
    if any(x > y for x, y in zip(a, a[1:])):
        raise ValueError(f"{what} must be non-decreasing")
    return a


def path_with_e_heights(a: Sequence[int], height: int) -> MonotonePath:
    """Staircase whose i-th east step sits at y = a_i, ending at
    (len(a), height)."""
    a = _check_lattice_vector(a, height, "east-height vector")
    steps = []
    y = 0
    for ai in a:
        steps.append("N" * (ai - y))
        steps.append("E")
        y = ai
    steps.append("N" * (height - y))
    return MonotonePath("".join(steps))


def path_with_n_positions(b: Sequence[int], width: int) -> MonotonePath:
    """Staircase whose j-th north step sits at x = b_j, ending at
    (width, len(b))."""
    b = _check_lattice_vector(b, width, "north-position vector")
    steps = []
    x = 0
    for bj in b:
        steps.append("E" * (bj - x))
        steps.append("N")
        x = bj
    steps.append("E" * (width - x))
    return MonotonePath("".join(steps))


def pq_paths(pp: Sequence[int], pq: Sequence[int]
             ) -> tuple[MonotonePath, MonotonePath]:
    """The lower and upper staircases of a candidate pair.

    Sorting each side and subtracting 1 gives the east-height vector of the
    lower path (from the P side) and the north-position vector of the upper
    path (from the Q side), both across a len(pp) x len(pq) rectangle.
    """
    p, q = len(pp), len(pq)
    a = tuple(x - 1 for x in sorted(pp))
    b = tuple(x - 1 for x in sorted(pq))
    return path_with_e_heights(a, q), path_with_n_positions(b, p)


def is_pq_parking(pp: Sequence[int], pq: Sequence[int]) -> bool:
    """Two-part parking test: upper path weakly above the lower one.

    Values must be positive; values beyond the opposite part size plus one
    simply fail (no vertex degree admits them).
    """
    pp, pq = tuple(pp), tuple(pq)
    if not pp or not pq:
        raise ValueError("both parts must be non-empty")
    p, q = len(pp), len(pq)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in pp + pq):
        raise ValueError("values must be integers")
    if any(x < 1 for x in pp + pq):
        raise ValueError("values must be positive")
    if any(x > q + 1 for x in pp) or any(x > p + 1 for x in pq):
        return False
    lower, upper = pq_paths(pp, pq)
    a = lower.e_heights()
    return all(h >= ai for h, ai in zip(upper.e_heights(), a))


def is_prime_pq(pp: Sequence[int], pq: Sequence[int]) -> bool:
    """Prime pair: the two staircases meet only at the rectangle corners."""
    if not is_pq_parking(pp, pq):
        raise ValueError("not a two-part parking pair")
    lower, upper = pq_paths(pp, pq)
    meet = set(lower.points()) & set(upper.points())
    return meet == {(0, 0), (len(pp), len(pq))}


# ----------------------------------------------------------------------
# closed-form counts


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def catalan(k: int) -> int:
    return _exact_div(math.comb(2 * k, k), k + 1)


def closed_form_count(spec: FamilySpec, which: str) -> int:
    """Known exact counts for special families.

    which = 'ppf' (prime parking functions), 'ppf-inc' (non-decreasing
    prime), 'sr-wheel' (strongly recurrent wheel configurations) or
    'catalan' (alias of 'ppf-inc' on complete graphs).  Everything is exact
    integer arithmetic.
    """
    f = spec.family
    if f == "complete" and which == "ppf":
        return (spec.n - 1) ** (spec.n - 1)
    if f == "complete" and which in ("ppf-inc", "catalan"):
        return catalan(spec.n - 1)
    if f == "wheel" and which in ("ppf", "sr-wheel"):
        return spec.n + 1
    if f == "tripartite" and which == "ppf":
        p, q = spec.p, spec.q
        return (p ** q * (q - 1) ** (p - 1)
                + q ** p * (p - 1) ** (q - 1)
                - (p + q - 1) * (p - 1) ** (q - 1) * (q - 1) ** (p - 1))
    if f == "bipartite" and which == "ppf-inc":
        p, q = spec.p, spec.q
        return _exact_div(math.comb(p + q - 1, p) * math.comb(p + q - 1, p - 1),
                          p + q - 1)
    if f == "split" and which == "ppf-inc":
        m, n = spec.m, spec.n
        return _exact_div(math.comb(2 * m - 2, m - 1) * math.comb(2 * m + n - 2, n),
                          m)
    raise ValueError(f"no closed form for class {which!r} on family {f!r}")


# ----------------------------------------------------------------------
# deletion bijections for bipartite* and split families

Pair = tuple[tuple[int, ...], tuple[int, ...]]


def _check_increasing_pair(pair: Pair) -> Pair:
    first, second = pair
    first, second = tuple(first), tuple(second)
    for part, name in ((first, "first"), (second, "second")):
        if not part:
            raise ValueError(f"{name} part must be non-empty")
        if any(x < 1 for x in part):
            raise ValueError("values must be positive")
        if any(a > b for a, b in zip(part, part[1:])):
            raise ValueError(f"{name} part must be non-decreasing")
    return first, second


# family -> (graph on the two part sizes, name of the first part's vertices)
_DELETION_FAMILIES = {"bipartite": (bipartite_graph, "P-vertices"),
                      "split": (split_graph, "clique vertices")}


def _delete_first(pair: Pair, family: str) -> Pair:
    """Drop the first vertex of an increasing prime parking pair."""
    first, second = _check_increasing_pair(pair)
    make_graph, what = _DELETION_FAMILIES[family]
    if len(first) < 2:
        raise ValueError(f"need at least two {what} to delete one")
    g = make_graph(len(first), len(second))
    flat = first + second
    if not is_g_parking(g, flat):
        raise ValueError(f"not a parking function on {family} graph")
    if not is_prime(g, flat):
        raise ValueError("not prime")
    if first[0] != 1:
        raise AssertionError("prime increasing pair must start at 1")
    return first[1:], second


def _prepend_one(pair: Pair, family: str) -> Pair:
    """Inverse of ``_delete_first``: a fresh first vertex with value 1."""
    first, second = _check_increasing_pair(pair)
    g = _DELETION_FAMILIES[family][0](len(first), len(second))
    if not is_g_parking(g, first + second):
        raise ValueError(f"not a parking function on {family} graph")
    return (1,) + first, second


def bipartite_prime_bijection(pair: Pair) -> Pair:
    """Delete the first P-vertex of an increasing prime parking function on
    bipartite(p, q); the result parks on bipartite(p-1, q).

    Primality forces the deleted value to be 1.
    """
    return _delete_first(pair, "bipartite")


def bipartite_prime_bijection_inverse(pair: Pair) -> Pair:
    """Prepend a fresh P-vertex with value 1; the result is prime on
    bipartite(p+1, q)."""
    return _prepend_one(pair, "bipartite")


def split_prime_bijection(pair: Pair) -> Pair:
    """Delete the first clique vertex of an increasing prime parking
    function on split(m, n); the result parks on split(m-1, n)."""
    return _delete_first(pair, "split")


def split_prime_bijection_inverse(pair: Pair) -> Pair:
    """Prepend a fresh clique vertex with value 1; the result is prime on
    split(m+1, n)."""
    return _prepend_one(pair, "split")
