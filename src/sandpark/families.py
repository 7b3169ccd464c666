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

All but the wheel are complete multipartite graphs, built by one
constructor.  Everything the package knows about a family is one record of
``_FAMILY_TABLE``; validation, labels, ``make_family``, ``family_parts``,
``closed_form_count`` and the deletion bijections all read it.

Wheels admit a direct recurrence test; the parking functions of
tripartite(p, q), the (p, q)-parking functions, admit a two-lattice-path
test; bipartite* and split carry vertex-deletion bijections between prime
and plain increasing parking functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .classical import StepPath, _staircase
from .graph import RootedMultigraph, build_graph
from .parking import is_g_parking, is_prime


def _complete_multipartite(sink: str, parts: list[Sequence[str]]) -> RootedMultigraph:
    """One edge between any two vertices in different parts; the sink opens
    the first part, and a clique is a run of one-vertex parts."""
    names = [v for part in parts for v in part]
    edges = [(v, w, 1) for i, part in enumerate(parts)
             for other in parts[i + 1:] for v in part for w in other]
    return build_graph(names, sink, edges)


def _part_names(family: str, *sizes: int) -> tuple[tuple[str, ...], ...]:
    """Names of a family's interchangeable parts: the prefix, then 1..size."""
    return tuple(tuple(f"{prefix}{i}" for i in range(1, size + 1))
                 for (prefix, _), size in zip(_FAMILY_TABLE[family].parts, sizes))


def complete_graph(n: int) -> RootedMultigraph:
    (rest,) = _part_names("complete", n)
    return _complete_multipartite("0", [(v,) for v in ("0", *rest)])


def wheel_graph(n: int) -> RootedMultigraph:
    if n < 3:
        raise ValueError("wheel needs n >= 3")
    names = ["0"] + [str(i) for i in range(1, n + 1)]
    edges = [(str(i), str(i % n + 1), 1) for i in range(1, n + 1)]
    edges += [("0", str(i), 1) for i in range(1, n + 1)]
    return build_graph(names, "0", edges)


def tripartite_graph(p: int, q: int) -> RootedMultigraph:
    ps, qs = _part_names("tripartite", p, q)
    return _complete_multipartite("v0", [("v0",), ps, qs])


def bipartite_graph(p: int, q: int) -> RootedMultigraph:
    ps, qs = _part_names("bipartite", p, q)
    return _complete_multipartite("p0", [("p0", *ps), qs])


def split_graph(m: int, n: int) -> RootedMultigraph:
    cs, xs = _part_names("split", m, n)
    return _complete_multipartite("c0", [(c,) for c in ("c0", *cs)] + [xs])


# ----------------------------------------------------------------------
# the family table


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def catalan(k: int) -> int:
    return _exact_div(math.comb(2 * k, k), k + 1)


@dataclass(frozen=True)
class _Family:
    """Everything the package knows about one family."""

    params: tuple[str, ...]                 # names, in constructor order
    build: Callable[..., RootedMultigraph]  # the constructor
    label: str                              # str.format template
    closed_forms: dict[str, Callable[..., int]]  # class -> f(*params)
    parts: tuple[tuple[str, str], ...] = ()  # (name prefix, size parameter)
    first_part: Optional[str] = None        # the deletion bijections' name
    min_n: int = 1


_FAMILY_TABLE = {
    "complete": _Family(("n",), complete_graph, "K{n}^0", {
        "ppf": lambda n: (n - 1) ** (n - 1),
        "ppf-inc": lambda n: catalan(n - 1),
        "catalan": lambda n: catalan(n - 1)}, parts=(("", "n"),)),
    "wheel": _Family(("n",), wheel_graph, "W{n}^0", {
        "ppf": lambda n: n + 1, "sr-wheel": lambda n: n + 1}, min_n=3),
    "tripartite": _Family(("p", "q"), tripartite_graph, "K({p},{q})^0", {
        "ppf": lambda p, q: (p ** q * (q - 1) ** (p - 1) + q ** p * (p - 1) ** (q - 1)
                             - (p + q - 1) * (p - 1) ** (q - 1) * (q - 1) ** (p - 1))},
        parts=(("p", "p"), ("q", "q"))),
    "bipartite": _Family(("p", "q"), bipartite_graph, "K({p}*,{q})", {
        "ppf-inc": lambda p, q: _exact_div(
            math.comb(p + q - 1, p) * math.comb(p + q - 1, p - 1), p + q - 1)},
        parts=(("p", "p"), ("q", "q")), first_part="P-vertices"),
    "split": _Family(("m", "n"), split_graph, "S({m}*,{n})", {
        "ppf-inc": lambda m, n: _exact_div(
            math.comb(2 * m - 2, m - 1) * math.comb(2 * m + n - 2, n), m)},
        parts=(("c", "m"), ("i", "n")), first_part="clique vertices"),
}

FAMILIES = tuple(_FAMILY_TABLE)


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
        record = _FAMILY_TABLE[self.family]
        for name in record.params:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"family {self.family!r} needs integer {name} >= 1")
        for name in ("n", "p", "q", "m"):
            if name not in record.params and getattr(self, name) is not None:
                raise ValueError(
                    f"family {self.family!r} does not take parameter {name}")
        if self.n is not None and self.n < record.min_n:
            raise ValueError(f"{self.family} needs n >= {record.min_n}")

    def _args(self) -> list[int]:
        """The parameters in constructor order."""
        return [getattr(self, name) for name in _FAMILY_TABLE[self.family].params]

    def label(self) -> str:
        return _FAMILY_TABLE[self.family].label.format(**vars(self))

    def params(self) -> str:
        return ",".join(f"{name}={getattr(self, name)}"
                        for name in _FAMILY_TABLE[self.family].params)


def make_family(spec: FamilySpec) -> RootedMultigraph:
    return _FAMILY_TABLE[spec.family].build(*spec._args())


def _interchangeable(spec: FamilySpec) -> tuple[tuple[str, str], ...]:
    """The table's parts of ``spec``; wheels have none (rim vertices are
    only cyclically symmetric), so they are rejected."""
    parts = _FAMILY_TABLE[spec.family].parts
    if not parts:
        raise ValueError(f"family {spec.family!r} has no interchangeable parts")
    return parts


def family_parts(spec: FamilySpec) -> tuple[tuple[str, ...], ...]:
    """Interchangeable vertex groups, for 'increasing' enumeration classes."""
    sizes = (getattr(spec, size) for _, size in _interchangeable(spec))
    return _part_names(spec.family, *sizes)


def closed_form_count(spec: FamilySpec, which: str) -> int:
    """Known exact counts for special families.

    which = 'ppf' (prime parking functions), 'ppf-inc' (non-decreasing
    prime), 'sr-wheel' (strongly recurrent wheel configurations) or
    'catalan' (alias of 'ppf-inc' on complete graphs).  Everything is exact
    integer arithmetic.
    """
    formula = _FAMILY_TABLE[spec.family].closed_forms.get(which)
    if formula is None:
        raise ValueError(
            f"no closed form for class {which!r} on family {spec.family!r}")
    return formula(*spec._args())


def _grow_first_part(spec: FamilySpec) -> FamilySpec:
    """``spec`` with one more vertex in its first interchangeable part.

    The ``pf-inc`` count of ``spec`` is the ``ppf-inc`` count of the result:
    deleting the fresh vertex, which a prime function sets to 1, is the
    bijection below on bipartite* and split graphs, and on complete graphs
    both counts are Catalan numbers.
    """
    size = _interchangeable(spec)[0][1]
    return replace(spec, **{size: getattr(spec, size) + 1})


# ----------------------------------------------------------------------
# wheels: direct recurrence tests on rim values


def _cyclic_between(n: int, i: int, j: int) -> range | list[int]:
    """Rim positions strictly between i and j, walking forward from i."""
    if i < j:
        return range(i + 1, j)
    return [k % n + 1 for k in range(i, n + j - 1)]


def _check_integers(values: tuple, what: str) -> None:
    if any(isinstance(x, bool) or not isinstance(x, int) for x in values):
        raise ValueError(f"{what} must be integers")


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
    _check_integers(c, "wheel values")
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
    _check_integers(c, "wheel values")
    return all(x in (1, 2) for x in c) and sum(1 for x in c if x == 1) <= 1


# ----------------------------------------------------------------------
# (p, q)-parking functions, the parking functions of tripartite(p, q),
# via two staircases


def _check_lattice_vector(a: Sequence[int], bound: int, what: str) -> tuple[int, ...]:
    a = tuple(a)
    if not a:
        raise ValueError(f"{what} must be non-empty")
    _check_integers(a, f"{what} entries")
    if any(x < 0 or x > bound for x in a):
        raise ValueError(f"{what} entries must lie in 0..{bound}")
    if any(x > y for x, y in zip(a, a[1:])):
        raise ValueError(f"{what} must be non-decreasing")
    return a


def path_with_e_heights(a: Sequence[int], height: int) -> StepPath:
    """Staircase whose i-th east step sits at y = a_i, ending at
    (len(a), height)."""
    a = _check_lattice_vector(a, height, "east-height vector")
    return StepPath("staircase", _staircase(a, height, "N", "E"))


def path_with_n_positions(b: Sequence[int], width: int) -> StepPath:
    """Staircase whose j-th north step sits at x = b_j, ending at
    (width, len(b))."""
    b = _check_lattice_vector(b, width, "north-position vector")
    return StepPath("staircase", _staircase(b, width, "E", "N"))


def pq_paths(pp: Sequence[int], pq: Sequence[int]
             ) -> tuple[StepPath, StepPath]:
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
    """Two-part parking test: upper path weakly above the lower one in
    every column.

    Values must be positive; values beyond the opposite part size plus one
    simply fail (no vertex degree admits them).
    """
    pp, pq = tuple(pp), tuple(pq)
    if not pp or not pq:
        raise ValueError("both parts must be non-empty")
    p, q = len(pp), len(pq)
    _check_integers(pp + pq, "values")
    if any(x < 1 for x in pp + pq):
        raise ValueError("values must be positive")
    if any(x > q + 1 for x in pp) or any(x > p + 1 for x in pq):
        return False
    # the highest point of each column, x = 0..p
    lower, upper = (dict(path.points()) for path in pq_paths(pp, pq))
    return all(upper[x] >= y for x, y in lower.items())


def is_prime_pq(pp: Sequence[int], pq: Sequence[int]) -> bool:
    """Prime pair: the two staircases meet only at the rectangle corners."""
    if not is_pq_parking(pp, pq):
        raise ValueError("not a two-part parking pair")
    lower, upper = pq_paths(pp, pq)
    meet = set(lower.points()) & set(upper.points())
    return meet == {(0, 0), (len(pp), len(pq))}


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


def _delete_first(pair: Pair, family: str) -> Pair:
    """Drop the first vertex of an increasing prime parking pair."""
    first, second = _check_increasing_pair(pair)
    record = _FAMILY_TABLE[family]
    if len(first) < 2:
        raise ValueError(f"need at least two {record.first_part} to delete one")
    g = record.build(len(first), len(second))
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
    g = _FAMILY_TABLE[family].build(len(first), len(second))
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
