"""Exhaustive enumeration, count verification and witness searches.

Enumeration classes (lexicographic in declaration order):

* stable / recurrent / sr-forall / sr-exists / min-recurrent over
  configurations with values 0..deg(v)-1;
* pf / ppf over parking candidates with values 1..deg(v);
* pf-inc / ppf-inc restrict to candidates non-decreasing inside each
  interchangeable part, so they need a family, not a bare graph.

One depth-first walk serves every class.  It assigns positions in
declaration order, and as each position joins the prefix, one pinned
forbidden-set fixpoint per check turns the prefix into the interval of
values the position may take.  The last position is not listed: the walk
yields ``(prefix, lo, hi)`` runs, which counting adds up and listing
expands.  The cap bounds the full candidate space before the walk starts.
Counting can split the space by the first coordinate across worker
processes; the count does not depend on the worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass
from functools import partial
from multiprocessing import get_context
from typing import Iterable, Iterator, Optional, Union

from .errors import SizeCapError
from .families import (FamilySpec, _grow_first_part, closed_form_count,
                       family_parts, make_family)
from .graph import RootedMultigraph, build_graph, graph_from_dict, graph_to_dict
from .parking import prime_decompositions
from .sandpile import (
    Config,
    _discard,
    config_from_dict,
    config_to_dict,
    is_minimal_recurrent,
    is_strongly_recurrent,
)

DEFAULT_SPACE_CAP = 100_000_000

Target = Union[RootedMultigraph, FamilySpec]


def _resolve(target: Target) -> tuple[RootedMultigraph, Optional[FamilySpec]]:
    if isinstance(target, FamilySpec):
        return make_family(target), target
    return target, None


# What the walk checks on each assigned prefix.
_NONE, _RECURRENT, _DRAINS = 0, 1, 2

# class -> (lowest value of a coordinate, prefix checks, test left for the
# complete candidate).  Configurations take values 0..deg(v)-1 and parking
# candidates 1..deg(v); parking classes are checked on the degree complement.
_CLASS_WALKS = {
    "stable": (0, _NONE, None),
    "recurrent": (0, _RECURRENT, None),
    "sr-forall": (0, _DRAINS, None),
    "sr-exists": (0, _RECURRENT,
                  partial(is_strongly_recurrent, quantifier="exists")),
    "min-recurrent": (0, _RECURRENT, is_minimal_recurrent),
    "pf": (1, _RECURRENT, None),
    "ppf": (1, _DRAINS, None),
    "pf-inc": (1, _RECURRENT, None),
    "ppf-inc": (1, _DRAINS, None),
}
CLASSES = tuple(_CLASS_WALKS)


def _runs(target: Target, cls: str, cap: int, first: Optional[int] = None):
    """The graph, the leaf test and the run stream of ``cls``.

    The class, the target and the size of the full candidate space are
    checked when this is called, before any candidate is tested.  With
    ``first`` set, only the slice holding the ``first``-th value of the
    first coordinate is walked; the slices partition the space in order.
    Increasing classes walk the tuples that are non-decreasing inside each
    part of the family, whose vertices share a degree, so their space is a
    product of multiset counts.
    """
    if cls not in _CLASS_WALKS:
        raise ValueError(f"unknown class {cls!r}; choose from {CLASSES}")
    low, checks, leaf = _CLASS_WALKS[cls]
    g, spec = _resolve(target)
    degs = g.nonsink_degrees
    # the position whose value bounds each position from below, or None
    prev: list[Optional[int]] = [None] * len(degs)
    if cls.endswith("-inc"):
        if spec is None:
            raise ValueError(
                "increasing classes need a graph family with declared parts")
        parts = [[g.nonsink_pos[v] for v in part] for part in family_parts(spec)]
        space = math.prod(math.comb(degs[part[0]] + len(part) - 1, len(part))
                          for part in parts)
        for part in parts:
            for before, at in zip(part, part[1:]):
                prev[at] = before
    else:
        space = math.prod(degs)
    if space > cap:
        raise SizeCapError(f"search space of {space} exceeds cap {cap}")
    first_values = range(low, low + degs[0])
    if first is not None:
        first_values = first_values[first:first + 1]
    return g, leaf, _search(g, low, checks, prev, first_values)


def _members(g: RootedMultigraph, leaf, runs) -> Iterator[tuple[int, ...]]:
    """Expand ``(prefix, lo, hi)`` runs into members, lexicographically."""
    for vals, lo, hi in runs:
        prefix = tuple(vals[:-1])
        for x in range(lo, hi + 1):
            cand = prefix + (x,)
            if leaf is None or leaf(g, cand):
                yield cand


def _walk(target: Target, cls: str, cap: int,
          first: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Members of ``cls`` in lexicographic order, checked as by ``_runs``."""
    return _members(*_runs(target, cls, cap, first))


def _search(g: RootedMultigraph, low: int, checks: int, prev,
            first_values: range) -> Iterator[tuple[list, int, int]]:
    """Depth-first walk over positions in declaration order.

    Yields ``(vals, lo, hi)`` runs: each value ``lo..hi`` of the last
    position completes the prefix ``vals[:-1]`` (one list, reused) to a
    candidate that passes every prefix check.

    The prefix ``0..t-1`` has passed when ``t`` joins, so each forbidden
    subconfiguration (Dhar 1990) of ``0..t`` holds ``t``.  One fixpoint with
    ``t`` pinned at -1 (negative values are never discarded) leaves a set R,
    and a value passes exactly when ``t`` holds at least its edges into R.
    Each assigned burning start's drain, pinned the same way, bounds the
    value less the sink edges of ``t``.  One fixpoint that discards ``t``
    first says whether ``t`` may be a burning start itself.  So the values
    that pass form one interval, found once per prefix.  On the last
    position these checks are exactly recurrence and strong recurrence
    (``forall``).  Parking values are the degree complement of the
    configuration, and increasing classes cut the interval with ``prev``
    before the fixpoints, which stop once it is empty.
    """
    degs = g.nonsink_degrees
    sink = g.sink_mults
    nbrs = g.nonsink_nbrs
    k = len(degs)
    parking = low == 1
    drains = checks == _DRAINS
    vals = [0] * k
    conf = [0] * k       # the configuration; the degree complement for parking
    drained = [0] * k    # conf minus the sink edges
    deg_in = [0] * k     # edges of each assigned position into the prefix
    starts: list[int] = []   # assigned burning starts, ascending
    top = [0] * k        # the last admissible value of each position
    t = 0
    lo, hi = first_values.start, first_values.stop - 1
    while True:
        if t == k - 1:
            if lo <= hi:
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
            if sink[t] and c >= degs[t] - sink[t]:
                starts.append(t)
        # t + 1 joins the prefix; find the values c it may take
        t += 1
        n = t + 1
        d = degs[t]
        back = 0
        for j, m in nbrs[t]:
            if j >= t:
                break
            deg_in[j] += m
            back += m
        deg_in[t] = back
        # an increasing class takes at least the value of prev[t]
        p = low if prev[t] is None else vals[prev[t]]
        cmin, cmax = (0, d - p) if parking else (p, d - 1)
        if checks and back:
            conf[t] = -1
            pinned = deg_in[:n]
            _discard(conf, pinned, nbrs)
            cmin = max(cmin, pinned[t])
        if drains:
            s = sink[t]
            drained[t] = -1
            for v in starts:
                if cmin >= s + back or cmin > cmax:
                    break
                drained[v] = conf[v]
                pinned = deg_in[:n]
                _discard(drained, pinned, nbrs)
                drained[v] -= sink[v]
                cmin = max(cmin, s + pinned[t])
            if s and cmax >= max(cmin, d - s):
                # t would be a burning start: its drain keeps t, discarded first
                drained[t] = d
                if _discard(drained, deg_in[:n], nbrs):
                    cmax = d - s - 1
        lo, hi = (d - cmax, d - cmin) if parking else (cmin, cmax)


def iter_class(target: Target, cls: str, *,
               cap: int = DEFAULT_SPACE_CAP) -> Iterator[tuple[int, ...]]:
    """Stream all members of an enumeration class, lexicographically.

    An unknown class, a bare graph for an increasing class and a space
    above ``cap`` raise at the call, before any candidate is tested.
    """
    return _walk(target, cls, cap)


# ----------------------------------------------------------------------
# counting, optionally across worker processes


def _count_slice(args) -> int:
    """Members of one slice; a run without a leaf test counts at once."""
    g, leaf, runs = _runs(*args)
    if leaf is None:
        return sum(hi - lo + 1 for _, lo, hi in runs)
    return sum(1 for _ in _members(g, leaf, runs))


def count_class(target: Target, cls: str, *, jobs: int = 1,
                cap: int = DEFAULT_SPACE_CAP) -> int:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1:
        return _count_slice((target, cls, cap, None))
    # raises on bad input before any worker starts
    g, _, _ = _runs(target, cls, cap)
    tasks = [(target, cls, cap, first) for first in range(g.nonsink_degrees[0])]
    processes = min(jobs, len(tasks), os.cpu_count() or 1)
    with get_context("fork").Pool(processes=processes) as pool:
        return sum(pool.map(_count_slice, tasks))


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
    def match(self) -> bool:
        return self.expected is None or self.count == self.expected


def expected_count(target: Target, cls: str) -> Optional[tuple[int, str]]:
    """Known exact prediction for a class count, when one exists."""
    g, spec = _resolve(target)
    if cls == "stable":
        return math.prod(g.nonsink_degrees), "degree-product"
    if cls in ("recurrent", "pf"):
        return g.spanning_tree_count(), "matrix-tree"
    if spec is None:
        return None
    try:
        if cls in ("ppf", "sr-forall"):
            return closed_form_count(spec, "ppf"), "closed-form"
        if cls == "ppf-inc":
            return closed_form_count(spec, "ppf-inc"), "closed-form"
        if cls == "pf-inc":
            return closed_form_count(_grow_first_part(spec), "ppf-inc"), "closed-form"
    except ValueError:
        return None
    return None


def _make_report(target: Target, cls: str, count: int, millis: float,
                 with_expected: bool,
                 label: Optional[str] = None) -> EnumerationReport:
    """Label a finished count and attach its expected value."""
    g, spec = _resolve(target)
    if spec is not None:
        family, params = spec.family, spec.params()
    else:
        family, params = "custom", label or f"|V|={len(g.vertices)},sink={g.sink}"
    exp = expected_count(target, cls) if with_expected else None
    return EnumerationReport(family=family, params=params, cls=cls, count=count,
                             expected=exp[0] if exp else None,
                             expected_source=exp[1] if exp else None,
                             millis=millis)


def class_count(target: Target, cls: str, *, jobs: int = 1,
                cap: int = DEFAULT_SPACE_CAP, with_expected: bool = True,
                label: Optional[str] = None) -> EnumerationReport:
    start = time.perf_counter()
    count = count_class(target, cls, jobs=jobs, cap=cap)
    millis = (time.perf_counter() - start) * 1000.0
    return _make_report(target, cls, count, millis, with_expected, label)


def verify_counts(suite: Iterable[tuple[Target, str]], *,
                  jobs: int = 1) -> list[EnumerationReport]:
    return [class_count(target, cls, jobs=jobs) for target, cls in suite]


def default_suite() -> list[tuple[FamilySpec, str]]:
    """The standard closed-form verification battery."""
    suite: list[tuple[FamilySpec, str]] = []
    for n in range(2, 8):
        suite.append((FamilySpec("complete", n=n), "ppf"))
    for n in range(2, 9):
        suite.append((FamilySpec("complete", n=n), "ppf-inc"))
    for n in range(3, 13):
        suite.append((FamilySpec("wheel", n=n), "sr-forall"))
    for p, q in ((2, 2), (2, 3), (3, 2), (3, 3)):
        suite.append((FamilySpec("tripartite", p=p, q=q), "ppf"))
    for p, q in ((2, 2), (3, 2), (2, 3), (3, 3)):
        suite.append((FamilySpec("bipartite", p=p, q=q), "ppf-inc"))
    for m, n in ((2, 1), (2, 2), (3, 2)):
        suite.append((FamilySpec("split", m=m, n=n), "ppf-inc"))
    for n in range(2, 6):
        suite.append((FamilySpec("complete", n=n), "recurrent"))
    for n in range(3, 8):
        suite.append((FamilySpec("wheel", n=n), "recurrent"))
    return suite


def reports_to_csv(reports: Iterable[EnumerationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "params", "class", "count", "expected",
                     "match", "millis"])
    for r in reports:
        writer.writerow([r.family, r.params, r.cls, r.count,
                         "" if r.expected is None else r.expected,
                         str(r.match).lower(), f"{r.millis:.3f}"])
    return buf.getvalue()


def reports_to_json(reports: Iterable[EnumerationReport]) -> str:
    rows = [{"family": r.family, "params": r.params, "class": r.cls,
             "count": r.count, "expected": r.expected,
             "expected_source": r.expected_source, "match": r.match,
             "millis": round(r.millis, 3)} for r in reports]
    return json.dumps(rows, indent=2)


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


def find_quantifier_gap_witness(seed: int, *, max_graphs: int = 2000,
                                max_vertices: int = 5
                                ) -> Optional[GapWitness]:
    """Search seeded random multigraphs for an exists-but-not-forall
    strongly recurrent configuration."""
    rng = random.Random(seed)
    for idx in range(max_graphs):
        n = rng.randint(3, max_vertices)
        g = random_connected_multigraph(rng, n, max_mult=2, extra_edges=3)
        if math.prod(g.nonsink_degrees) > 20000:
            continue
        for c in iter_class(g, "sr-exists"):
            if not is_strongly_recurrent(g, c, "forall"):
                return GapWitness(g, c, seed, idx)
    return None


def find_nonunique_decomposition_witness(seed: int, *, max_graphs: int = 300
                                         ) -> Optional[tuple[RootedMultigraph,
                                                             tuple[int, ...],
                                                             list]]:
    """Search for a parking function admitting two prime decompositions
    whose block-size multisets differ."""
    rng = random.Random(seed)
    for _ in range(max_graphs):
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
