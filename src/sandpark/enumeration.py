"""Exhaustive enumeration, count verification and witness searches.

Enumeration classes (lexicographic in declaration order):

* stable / recurrent / sr-forall / sr-exists / min-recurrent over
  configurations with values 0..deg(v)-1;
* pf / ppf over parking candidates with values 1..deg(v);
* pf-inc / ppf-inc restrict to candidates non-decreasing inside each
  interchangeable part, so they need a family, not a bare graph.

One depth-first walk decides every class at the prefix.  It assigns
positions in declaration order, and as each position joins, one pinned
forbidden-set fixpoint per check turns the prefix into the interval of
values the position may take; ``min-recurrent`` first clips it to the
grains level 0 leaves.  The last position is not listed: the walk yields
``(prefix, lo, hi)`` runs, so counting adds up their lengths, listing reads
each run as its prefix and the rows ``lo..hi`` (``_pairs``), and no member
is tested on its own.

Which walk runs is decided once (``_plan``), from the target's non-sink
degree groups: a family's, one ``(degree, count)`` group per part (or for
the rim) in declaration order, read from its parameters, and a bare
graph's, one ``(degree, 1)`` group per vertex.  A group's positions are
contiguous, and the vertices of a part are twins.  The first row that fits
decides:

====================  ======  ========================  ==========================
target                output  walk                      cap bounds
====================  ======  ========================  ==========================
family, any class     count   burning states, no walk   work, else representatives
family, ``-inc``      list    representatives           representatives
family with parts     list    members, by key blocks    full space
wheel, bare graph     any     members                   full space
====================  ======  ========================  ==========================

A family counts every class from its degree groups
(``burning._burning_count``).  The cap bounds its burning work while the
target is within the vertex bound; past that work or that bound it bounds
the space of the representatives (a wheel's: the full space), with their
checks and messages, and the count still runs from the burning states.
The class, the cap and the space are checked when the walk is chosen,
before any graph is built, and then the vertex count: degree-1 vertices
add nothing to the space, so a target of more than ``_VERTEX_BOUND``
non-sink vertices is refused apart.  The full space is the product of
``d ** c`` over the ``(d, c)`` groups, the representatives' that of
``C(d + c - 1, c)``.  The burning work is the product of ``C(c + 3, 3)``,
the ``(u, k_prev, k)`` triples of a part, or a wheel's rim length, times
the sink-adjacent groups whose drain a strongly recurrent or prime class
runs, and times the 64-bit words of the count, which is at most the full
space (an increasing class: the representatives'); ``stable``, whose
count is the full space, is charged its words alone.

The representative rule is stated in grains, the quantity every prefix
check reads: a configuration's values, or the degree complement of a
parking candidate's, so a class and its degree-complement twin
(``recurrent`` and ``pf``, ``sr-forall`` and ``ppf``) walk one set of
representatives.  A representative walk visits, per orbit of the
permutations inside the parts, the member whose grains never rise inside a
part (the parking candidates non-decreasing there, which the increasing
classes list).  Its fixpoints hold a position's later part-mates at the
most grains the part's order leaves them, and drain one burning start per
run of twins holding one value.  A family with parts
is listed in two passes: its representative walk, without the look-ahead,
records the key of every prefix it admits, the multiset of values each
part holds.  What a member prefix admits depends only on its key, so the
member prefixes are walked up to the last three positions, and each takes
its key's block of those, built once per key off the recorded keys with no
fixpoint (``keys``; ``stable``, which runs none, walks the members).  The
burning route walks no configuration: it counts the sequences of unburnt
vectors of Dhar's burning, one entry per part, from the sink or from one
drained burning start, reads a wheel's rim with two-state automata, or for
``stable`` multiplies the degrees.  So the walks, which listing and bare
graphs still take, are its reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .burning import _SEEDED, _burning_count
from .errors import SizeCapError, _size
from .families import (_FAMILY_TABLE, FamilySpec, _degree_groups,
                       _grow_first_part, closed_form_count, make_family)
from .graph import RootedMultigraph, build_graph, graph_from_dict, graph_to_dict
from .keys import _keyed_members, _prefix_units
from .parking import prime_decompositions
from .sandpile import (
    Config,
    _discard,
    config_from_dict,
    config_to_dict,
    is_strongly_recurrent,
)

DEFAULT_SPACE_CAP = 100_000_000
# A candidate space past this many bits is refused from its logarithm.
_EXACT_SPACE_BITS = 1 << 16
# the most non-sink vertices a walk's target may have
_VERTEX_BOUND = 100_000
# the most rows of a run that one listed pair holds
_RUN_ROWS = 4096

Target = Union[RootedMultigraph, FamilySpec]


# What the walk checks on each assigned prefix: recurrence, and then the
# drains of every or of some burning start, or the grains of level 0.
_NONE, _RECURRENT, _DRAINS, _LEVEL_ZERO, _DRAIN_EXISTS = range(5)

# class -> (lowest value of a coordinate, checks).  Configurations take
# values 0..deg(v)-1 and parking candidates 1..deg(v); parking classes are
# checked on the degree complement.
_CLASS_WALKS = {
    "stable": (0, _NONE),
    "recurrent": (0, _RECURRENT),
    "sr-forall": (0, _DRAINS),
    "sr-exists": (0, _DRAIN_EXISTS),
    "min-recurrent": (0, _LEVEL_ZERO),
    "pf": (1, _RECURRENT),
    "ppf": (1, _DRAINS),
    "pf-inc": (1, _RECURRENT),
    "ppf-inc": (1, _DRAINS),
}
CLASSES = tuple(_CLASS_WALKS)


def _plan(target: Target, cls: str, cap: Optional[int],
          counting: bool = False, *, check: bool = True
          ) -> tuple[int, tuple, str]:
    """``(space, groups, walk)``: the walk of ``cls`` on ``target`` (the
    table above), the target's degree groups and the size of the space the
    walk visits, before any graph is built.

    ``walk`` is ``"members"``, ``"keys"``, ``"reps"`` or ``"burning"``
    (no walk, whose space is its work, charged by the words of the count),
    which every count on a family takes.  Past its work or the vertex
    bound, a family's count is charged the space of its representatives
    (a wheel's: its tuples), which bounds the transitions its burning loop
    tries (``test_transitions_stay_within_the_charge``).  With ``check``,
    ``cap`` must be an integer, a space above it is refused, and then a
    target of more than ``_VERTEX_BOUND`` non-sink vertices.  A space whose
    logarithm puts it past both ``cap`` and 2^``_EXACT_SPACE_BITS`` is
    refused without being computed.
    """
    if cls not in _CLASS_WALKS:
        raise ValueError(f"unknown class {cls!r}; choose from {CLASSES}")
    if check and (isinstance(cap, bool) or not isinstance(cap, int)):
        raise ValueError(f"cap must be an integer, got {cap!r}")
    inc = cls.endswith("-inc")
    family = isinstance(target, FamilySpec)
    if family:
        parts = _FAMILY_TABLE[target.family].parts
        groups = _degree_groups(target)
        if inc and not parts:
            raise ValueError(
                f"family {target.family!r} has no interchangeable parts")
    elif inc:
        raise ValueError(
            "increasing classes need a graph family with declared parts")
    else:
        parts = ()
        groups = tuple((d, 1) for d in target.nonsink_degrees)
    walk = ("burning" if counting and family else "reps" if inc
            else "keys" if parts and _CLASS_WALKS[cls][1] != _NONE
            else "members")
    reps = inc or (counting and parts)
    vertices = sum(c for _, c in groups)
    if walk == "burning" and vertices <= _VERTEX_BOUND:
        # the rim's length, or the (u, k_prev, k) triples of each part, once
        # per sink-adjacent group drained, each charged by the 64-bit words
        # of a count of at most 2^bits; stable multiplies the degrees, so it
        # is charged only the words
        work, bits = 1, 0.0
        for d, c in groups:
            if cls != "stable":
                work *= math.comb(c + 3, 3) if parts else c
            bits += c * math.log2(d)
        if cls in _SEEDED:
            work *= sum(d > vertices - c for d, c in groups)
        if inc:
            bits = _space_bits(groups, True)
        work *= int(bits) // 64 + 1
        if not check or work <= cap:
            return work, groups, walk
    if check:
        limit = max(cap.bit_length(), _EXACT_SPACE_BITS) + 1
        if _space_bits(groups, reps) > limit:
            raise SizeCapError(
                f"search space of more than 2^{limit} exceeds cap {_size(cap)}")
    space = math.prod(math.comb(d + c - 1, c) if reps else d ** c
                      for d, c in groups)
    if check:
        if space > cap:
            raise SizeCapError(
                f"search space of {_size(space)} exceeds cap {_size(cap)}")
        if vertices > _VERTEX_BOUND:
            raise SizeCapError(f"target of {_size(vertices)} non-sink "
                               f"vertices exceeds bound {_VERTEX_BOUND}")
    return space, groups, walk


def _space_bits(groups, reps: bool) -> float:
    """log2 of the space of the ``(d, c)`` groups, the tuples' or with
    ``reps`` the representatives', or infinity past the float range."""
    try:
        if reps:
            return sum(math.lgamma(d + c) - math.lgamma(c + 1) - math.lgamma(d)
                       for d, c in groups) / math.log(2)
        return sum(c * math.log2(d) for d, c in groups)
    except OverflowError:       # parameters past the float range
        return math.inf


def _runs(target: Target, cls: str, plan, record: Optional[tuple] = None):
    """The run stream (``_search``, given ``record``) of the walk ``plan``
    (from ``_plan``) chose for ``cls`` on ``target``."""
    _, groups, walk = plan
    low, checks = _CLASS_WALKS[cls]
    g = make_family(target) if isinstance(target, FamilySpec) else target
    # each position's index in its group; a representative's prev is the
    # position before it in its part
    index = [i for _, c in groups for i in range(c)]
    prev = [t - 1 if walk == "reps" and i else None
            for t, i in enumerate(index)]
    return _search(g, low, checks, prev, record)


def _pairs(target: Target, cls: str, plan, cell=lambda x: (x,), end=()
           ) -> Iterator[tuple[tuple, list]]:
    """The members of ``cls`` on ``target``, lexicographically, as
    ``(prefix, rows)`` pairs: each member is a prefix followed by one of its
    rows, those ``_by_keys`` reads off the prefix's key or the last values
    ``lo..hi`` of a run of the walk ``plan`` chose (``_members``).  A row is
    ``cell(x)`` of each later value ``x``, then ``end``: by default a tuple."""
    if plan[2] == "keys":
        return _by_keys(target, cls, plan[1], cell, end)
    return _members(_runs(target, cls, plan), cell, end)


def _listing(target: Target, cls: str, plan) -> Iterator[tuple[int, ...]]:
    """The members of ``cls`` on ``target``, lexicographically: the pairs
    of ``_pairs``, expanded."""
    return (prefix + row for prefix, rows in _pairs(target, cls, plan)
            for row in rows)


def _members(runs, cell, end) -> Iterator[tuple[tuple, list]]:
    """Each ``(prefix, lo, hi)`` run as its prefix and the rows ``cell(x) +
    end`` for ``x`` in ``lo..hi``, ``_RUN_ROWS`` at most to a pair, so that a
    run of any length streams.  With no prefix (one non-sink vertex), each
    value is a prefix of the one row ``end``, so no row opens with a cell."""
    for vals, lo, hi in runs:
        prefix = tuple(vals[:-1])
        if not prefix:
            yield from (((x,), [end]) for x in range(lo, hi + 1))
            continue
        for start in range(lo, hi + 1, _RUN_ROWS):
            yield prefix, [cell(x) + end
                           for x in range(start, min(start + _RUN_ROWS, hi + 1))]


def _search(g: RootedMultigraph, low: int, checks: int, prev,
            record: Optional[tuple] = None) -> Iterator[tuple[list, int, int]]:
    """Depth-first walk over positions in declaration order.

    Yields ``(vals, lo, hi)`` runs: each value ``lo..hi`` of the last
    position completes the prefix ``vals[:-1]`` (one list, reused) to a
    candidate that passes every prefix check.

    The prefix ``0..t-1`` has passed when ``t`` joins, so each forbidden
    subconfiguration (Dhar 1990) of ``0..t`` holds ``t``.  One fixpoint with
    ``t`` pinned at -1 (negative values are never discarded) leaves a set R,
    and a value passes exactly when ``t`` holds at least its edges into R.
    Each burning start's drain, pinned the same way, bounds the value less
    the sink edges of ``t``.  ``forall`` takes the largest bound over the
    assigned starts, and a fixpoint that discards ``t`` first says whether
    ``t`` may be one; with a start assigned it skips the pinned fixpoint, as
    a drain holds no more grains but at its start, which burns at once in
    both.  ``exists`` takes the least bound over the starts still open,
    ``t`` and, before the last sink edge, a later one.  ``min-recurrent``
    clips the value to the grains level 0 leaves.  So the values that pass
    form one interval, found once per prefix, and on the last position the
    checks are exactly the class.  The checks read grains, ``conf``: a
    parking value is their degree complement, and ``parking`` only converts
    values to grains and back.  The representative rule cuts the interval
    of grains before the fixpoints, which stop once it is empty: a
    representative holds at most the grains of ``prev[t]``.

    On a representative walk with checks the fixpoints look ahead to the
    end of ``t``'s part, the run of ``prev`` links after ``t``.  Those
    later part-mates are twins of ``t`` and hold at most ``cmax`` grains,
    since none holds more than the position before it.  Extra grains never
    make a forbidden set, so one forbidden with the mates at their most
    rules out every completion (one without ``t`` holds a mate, and adding
    ``t``, its twin, keeps it forbidden).  The mates enter ``conf`` at
    ``cmax`` and ``drained`` at ``cmax - s``, as no mate is a start:
    ``forall`` drains assigned starts only, and a mate joins an ``exists``
    walk only holding fewer grains than its edges into the domain, so fewer
    than the ``d - s`` of a start.  Mates that would burn at once stay out,
    as do mates with no edges into the domain, and the last position has
    none.  A start whose ``prev`` holds its value is not drained: swapping
    the two twins fixes every other position, so both drains give one
    bound.

    A representative walk listing a family with parts, given ``record``
    ``(units, seen)``, adds to ``seen`` the key (``_prefix_units``) of
    each prefix it admits, down to each value of a last-position run: how
    many of each part's assigned positions hold each value.  Permuting the
    assigned positions of a part is an automorphism, as they are twins,
    that fixes the sink and every later position.  It maps the forbidden
    sets, the burning starts and their drains of one prefix onto those of
    the other and keeps its grains, so a member prefix passes every check
    exactly when the representative with its key does.  So the walk runs
    without the look-ahead, which rules out a prefix that no representative
    completes, mates holding at most the part's least grains, while a
    member prefix with its key may still be completed by mates holding more
    (with it, K6 ``ppf`` would list 702 of its 3,125 members).
    """
    degs = g.nonsink_degrees
    sink = g.sink_mults + (0,)
    nbrs = g.nonsink_nbrs
    k = len(degs)
    parking = low == 1
    drains = checks == _DRAINS
    exists = checks == _DRAIN_EXISTS
    budget = checks == _LEVEL_ZERO
    vals = [0] * k
    conf = [0] * (k + 1)     # the configuration, or the degree complement
    drained = [0] * (k + 1)  # conf minus the sink edges; k: a start to come
    deg_in = [0] * k     # edges of each assigned position into the prefix
    starts: list[int] = []   # assigned burning starts, ascending
    top = [0] * k        # the last admissible value of each position
    # a representative's part-mates still to come, t+1..e on the run of
    # prev links after t: (e, t's edges into 0..e) when it has any
    ahead: list = [None] * k
    e = k - 1
    for u in reversed(range(k - 1) if checks and not record else ()):
        e = e if prev[u + 1] == u else u
        reach = e > u and sum(m for j, m in nbrs[u] if j <= e)
        if reach:
            ahead[u] = e, reach

    # drained and nbrs come in as defaults, so the walk's reads stay local
    def fix(t, v, drained=drained, nbrs=nbrs):
        """t's edges into what the drain of the start ``v`` leaves of the
        domain, t pinned, and how many positions it leaves."""
        drained[t], saved, drained[v] = -1, drained[v], math.inf
        pinned = dom[:n]
        left = _discard(drained, pinned, nbrs)
        drained[v] = saved
        return pinned[t], left
    lo, hi = low, low + degs[0] - 1
    if budget:
        # level 0's grains less the most (under) and least (over) after t
        grains = g.edge_total - sum(sink)
        under, over = [0] * k, [0] * k
        most = least = 0     # summed over the positions after t
        for u in reversed(range(k)):  # not t: a generator on t makes it a cell
            under[u], over[u] = grains - most, grains - least
            most += degs[u] - 1
            least += sum(m for j, m in nbrs[u] if j > u)
        held = [0] * k       # held[t]: the grains on 0..t-1
        lo, hi = max(lo, under[0]), min(hi, over[0])
    if record:
        # keys[t]: the key of the prefix 0..t-1, a member of seen
        units, seen = record
        keys = [0] * k
    if exists:
        # opts[t]: (start, least value of t) per start open when t joins
        last = max(i for i, s in enumerate(sink) if s)
        opts = [[(k, sink[0]), (0, degs[0] - sink[0])]] * k
    t = 0
    while True:
        if t == k - 1:
            if lo <= hi:
                if record:
                    seen.update(map(keys[t].__add__, units[t][lo:hi + 1]))
                yield vals, lo, hi
            hi = lo - 1
        vals[t], top[t] = lo - 1, hi
        while vals[t] >= top[t]:
            # t leaves the prefix
            for j, m in nbrs[t]:
                if j >= t:
                    break
                deg_in[j] -= m
            if t == 0:
                return
            t -= 1
        vals[t] = x = vals[t] + 1
        c = degs[t] - x if parking else x
        conf[t] = c
        if drains:
            while starts and starts[-1] >= t:
                starts.pop()
            drained[t] = c - sink[t]
            if (sink[t] and c >= degs[t] - sink[t]
                    and (prev[t] is None or vals[prev[t]] != x)):
                starts.append(t)
        # t + 1 joins the prefix; find the values c it may take
        t += 1
        if record:
            keys[t] = key = keys[t - 1] + units[t - 1][x]
            seen.add(key)
        d = degs[t]
        back = 0
        for j, m in nbrs[t]:
            if j >= t:
                break
            deg_in[j] += m
            back += m
        deg_in[t] = back
        # a representative holds at most the grains of prev[t]
        cmin, cmax = 0, d - 1 if prev[t] is None else conf[prev[t]]
        n, dom = t + 1, deg_in   # the fixpoints' domain is 0..n-1
        if ahead[t]:
            e, reach = ahead[t]
            s = sink[t]
            # the later part-mates t+1..e, twins of t holding at most cmax
            # grains (cmax - s drained), join unless they would burn at once
            if reach > (cmax - s if drains else cmax):
                n, r = e + 1, e - t
                conf[t + 1:n] = [cmax] * r
                drained[t + 1:n] = [cmax - s] * r
                dom = deg_in[:t]
                for j, m in nbrs[t]:
                    if j >= t:
                        break
                    dom[j] += m * r
                back = reach    # t's edges into the domain, and each mate's
                dom += [back] * (r + 1)
        if budget:
            held[t] = held[t - 1] + conf[t - 1]
            cmin = max(cmin, under[t] - held[t])
            cmax = min(cmax, over[t] - held[t])
        if drains and starts:
            pass     # a drain bounds t at least as high
        elif checks and back:
            conf[t] = -1
            pinned = dom[:n]
            _discard(conf, pinned, nbrs)
            cmin = max(cmin, pinned[t])
        if drains:
            s = sink[t]
            for v in starts:
                if cmin >= s + back or cmin > cmax:
                    break
                cmin = max(cmin, s + fix(t, v)[0])
            # t would be a burning start: its drain keeps t, discarded first
            if s and cmax >= max(cmin, d - s) and fix(t, t)[1]:
                cmax = d - s - 1
        elif exists and cmin <= cmax:
            s = sink[t]
            drained[t - 1] = conf[t - 1] - sink[t - 1]
            opts[t] = open_ = []
            for v, b in opts[t - 1]:
                if conf[t - 1] < b or (v == t - 1 and prev[v] is not None
                                       and vals[prev[v]] == x):
                    continue     # closed by t - 1, or one drain per run
                if v == k:
                    # t as a start (c >= d - s) drains like k: no forbidden set
                    open_.append((t, d - s))
                    if t >= last:
                        continue
                b = cmin if cmin >= s + back else s + fix(t, v)[0]
                open_.append((v, b))
            cmin = max(cmin, min((b for _, b in open_), default=cmax + 1))
        lo, hi = (d - cmax, d - cmin) if parking else (cmin, cmax)


def _by_keys(target: Target, cls: str, groups, cell, end
             ) -> Iterator[tuple[tuple, list]]:
    """The members of a family with parts, lexicographically, as the
    ``(prefix, block)`` pairs, rows of ``cell`` and ``end``, that
    ``keys._keyed_members`` reads off the keys (``keys._prefix_units``)
    its representative walk records (``_search`` with ``record``).
    """
    low = _CLASS_WALKS[cls][0]
    units = _prefix_units(groups, low)
    seen: set = set()
    for _ in _runs(target, cls, (None, groups, "reps"), record=(units, seen)):
        pass
    yield from _keyed_members(units, low, seen, cell, end)


def iter_class(target: Target, cls: str, *,
               cap: int = DEFAULT_SPACE_CAP) -> Iterator[tuple[int, ...]]:
    """Stream all members of an enumeration class, lexicographically.

    An unknown class, a bare graph for an increasing class, a ``cap`` that
    is not an integer, a space above it and a target past the vertex bound
    raise at the call, before any candidate is tested.
    """
    return _listing(target, cls, _plan(target, cls, cap))


# ----------------------------------------------------------------------
# counting


def count_class(target: Target, cls: str, *, jobs: int = 1,
                cap: int = DEFAULT_SPACE_CAP) -> int:
    """Members of ``cls`` on ``target``: for a family the count from its
    degree groups (the table above), and for a bare graph the lengths of
    the runs of its member walk.  ``jobs``, an integer of at least 1, is
    checked and changes nothing: every count runs in one process.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    # raises on bad input before any candidate is tested
    plan = _plan(target, cls, cap, True)
    if plan[2] == "burning":
        return _burning_count(target, plan[1], cls)
    return sum(hi - lo + 1 for _, lo, hi in _runs(target, cls, plan))


@dataclass
class EnumerationReport:
    family: str
    params: str
    cls: str
    count: int
    expected: Optional[int]
    expected_source: Optional[str]
    millis: float

    @property
    def match(self) -> Optional[bool]:
        """Whether the count equals the prediction; None when none is
        attached."""
        return None if self.expected is None else self.count == self.expected


def expected_count(target: Target, cls: str) -> Optional[tuple[int, str]]:
    """Known exact prediction for a class count, when one exists; only
    the tree count builds a family's graph."""
    if cls == "stable":
        return _plan(target, cls, None, check=False)[0], "degree-product"
    spec = target if isinstance(target, FamilySpec) else None
    if cls in ("recurrent", "pf"):
        g = target if spec is None else make_family(spec)
        return g.spanning_tree_count(), "matrix-tree"
    if spec is None:
        return None
    try:
        # on a family one burning start decides both quantifiers
        # (_burning_count)
        if cls in ("ppf", "sr-forall", "sr-exists"):
            return closed_form_count(spec, "ppf"), "closed-form"
        if cls in ("ppf-inc", "min-recurrent"):
            return closed_form_count(spec, cls), "closed-form"
        if cls == "pf-inc":
            return closed_form_count(_grow_first_part(spec), "ppf-inc"), "closed-form"
    except ValueError:
        return None
    return None


def _make_report(target: Target, cls: str, count: int, millis: float,
                 expected: Optional[tuple[int, str]]) -> EnumerationReport:
    """Label a finished count and attach the ``expected_count`` pair."""
    if isinstance(target, FamilySpec):
        family, params = target.family, target.params()
    else:
        family = "custom"
        params = f"|V|={len(target.vertices)},sink={target.sink}"
    return EnumerationReport(family=family, params=params, cls=cls, count=count,
                             expected=expected[0] if expected else None,
                             expected_source=expected[1] if expected else None,
                             millis=millis)


def class_count(target: Target, cls: str, *,
                cap: int = DEFAULT_SPACE_CAP) -> EnumerationReport:
    start = time.perf_counter()
    count = count_class(target, cls, cap=cap)
    millis = (time.perf_counter() - start) * 1000.0
    return _make_report(target, cls, count, millis, expected_count(target, cls))


def verify_counts(suite: Iterable[tuple[Target, str]]
                  ) -> list[EnumerationReport]:
    return [class_count(target, cls) for target, cls in suite]


def default_suite() -> list[tuple[FamilySpec, str]]:
    """The standard closed-form verification battery."""
    suite: list[tuple[FamilySpec, str]] = []
    for n in range(2, 11):
        suite.append((FamilySpec("complete", n=n), "ppf"))
    for n in range(2, 9):
        suite.append((FamilySpec("complete", n=n), "ppf-inc"))
    for n in range(3, 13):
        suite.append((FamilySpec("wheel", n=n), "sr-forall"))
    for p, q in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 5)):
        suite.append((FamilySpec("tripartite", p=p, q=q), "ppf"))
    for p, q in ((2, 2), (3, 2), (2, 3), (3, 3)):
        suite.append((FamilySpec("bipartite", p=p, q=q), "ppf-inc"))
    for m, n in ((2, 1), (2, 2), (3, 2)):
        suite.append((FamilySpec("split", m=m, n=n), "ppf-inc"))
    for n in range(2, 6):
        suite.append((FamilySpec("complete", n=n), "recurrent"))
    for n in range(3, 14):
        suite.append((FamilySpec("wheel", n=n), "recurrent"))
    suite.append((FamilySpec("bipartite", p=4, q=4), "pf"))
    suite.append((FamilySpec("split", m=3, n=4), "pf"))
    return suite


def _decimal(n: int) -> str:
    """The digits of ``n >= 0``, also past those ``str`` will print
    (``sys.get_int_max_str_digits``), joined from halves split at a power
    of ten."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20     # about half the digits
        high, low = divmod(n, 10 ** k)
        return _decimal(high) + _decimal(low).zfill(k)


def reports_to_csv(reports: Iterable[EnumerationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "params", "class", "count", "expected",
                     "match", "millis"])
    for r in reports:
        writer.writerow([r.family, r.params, r.cls, _decimal(r.count),
                         "" if r.expected is None else _decimal(r.expected),
                         "" if r.match is None else str(r.match).lower(),
                         f"{r.millis:.3f}"])
    return buf.getvalue()


def reports_to_json(reports: Iterable[EnumerationReport]) -> str:
    """``json.dumps(rows, indent=2)`` of one flat row per report, written
    field by field: ``json`` prints an integer with ``str``'s limit, so the
    integers go in through ``_decimal``."""
    rows = [{"family": r.family, "params": r.params, "class": r.cls,
             "count": r.count, "expected": r.expected,
             "expected_source": r.expected_source, "match": r.match,
             "millis": round(r.millis, 3)} for r in reports]
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(
        "  {\n" + ",\n".join(
            f"    {json.dumps(key)}: "
            + (_decimal(v) if type(v) is int else json.dumps(v))
            for key, v in row.items()) + "\n  }" for row in rows) + "\n]"


# ----------------------------------------------------------------------
# seeded random multigraphs and witness searches


def random_connected_multigraph(rng: random.Random, n_vertices: int, *,
                                max_mult: int = 2,
                                extra_edges: int = 2) -> RootedMultigraph:
    """Random connected loop-free multigraph with sink "0".

    A random attachment tree guarantees connectivity; a few extra random
    pairs (merged into existing edges) add cycles and parallel edges.
    """
    if n_vertices < 2:
        raise ValueError("need at least 2 vertices")
    names = ["0"] + [f"v{i}" for i in range(1, n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        j = rng.randrange(i)
        edges.append((names[i], names[j], rng.randint(1, max_mult)))
    for _ in range(rng.randint(0, extra_edges)):
        i = rng.randrange(n_vertices)
        j = rng.randrange(n_vertices)
        if i == j:
            continue
        edges.append((names[i], names[j], rng.randint(1, max_mult)))
    return build_graph(names, "0", edges)


@dataclass(frozen=True)
class GapWitness:
    """A graph and configuration separating the two strong-recurrence
    quantifiers."""

    graph: RootedMultigraph
    config: Config
    seed: int
    graph_index: int

    def to_dict(self) -> dict:
        return {"graph": graph_to_dict(self.graph),
                "config": config_to_dict(self.graph, self.config),
                "seed": self.seed,
                "graph_index": self.graph_index}


def gap_witness_from_dict(data: dict) -> GapWitness:
    g = graph_from_dict(data["graph"])
    config = config_from_dict(g, data["config"])
    return GapWitness(g, config, data["seed"], data["graph_index"])


GAP_SEARCH_GRAPHS = 2000
GAP_SEARCH_MAX_VERTICES = 5
DECOMPOSITION_SEARCH_GRAPHS = 300


def find_quantifier_gap_witness(seed: int) -> Optional[GapWitness]:
    """Search seeded random multigraphs for an exists-but-not-forall
    strongly recurrent configuration."""
    rng = random.Random(seed)
    for idx in range(GAP_SEARCH_GRAPHS):
        n = rng.randint(3, GAP_SEARCH_MAX_VERTICES)
        g = random_connected_multigraph(rng, n, max_mult=2, extra_edges=3)
        if math.prod(g.nonsink_degrees) > 20000:
            continue
        for c in iter_class(g, "sr-exists"):
            if not is_strongly_recurrent(g, c, "forall"):
                return GapWitness(g, c, seed, idx)
    return None


def find_nonunique_decomposition_witness(seed: int
                                         ) -> Optional[tuple[RootedMultigraph,
                                                             tuple[int, ...],
                                                             list]]:
    """Search for a parking function admitting two prime decompositions
    whose block-size multisets differ."""
    rng = random.Random(seed)
    for _ in range(DECOMPOSITION_SEARCH_GRAPHS):
        g = random_connected_multigraph(rng, rng.randint(4, 5),
                                        max_mult=1, extra_edges=3)
        if math.prod(g.nonsink_degrees) > 5000:
            continue
        for cand in iter_class(g, "pf"):
            decs = prime_decompositions(g, cand)
            shapes = {tuple(sorted(len(b) for b in d)) for d in decs}
            if len(shapes) >= 2:
                return g, cand, decs
    return None
