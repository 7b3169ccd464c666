"""Exhaustive enumeration, count verification and oracle cross-validation.

Enumeration classes (lexicographic in declaration order):

* stable / recurrent / sr-forall / sr-exists / min-recurrent over
  configurations with values 0..deg(v)-1;
* pf / ppf over parking candidates with values 1..deg(v);
* pf-inc / ppf-inc restrict to candidates non-decreasing inside each
  interchangeable part, so they need a family, not a bare graph.

Counting can split the search space by the first coordinate across worker
processes; results do not depend on the worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations_with_replacement, product
from multiprocessing import get_context
from typing import Iterable, Iterator, Optional, Union

from .errors import SizeCapError
from .families import FamilySpec, catalan, closed_form_count, family_parts, make_family
from .graph import RootedMultigraph, build_graph, graph_from_dict, graph_to_dict
from .parking import (_complement, is_g_parking, is_g_parking_naive, is_prime,
                      is_prime_bruteforce)
from .sandpile import (
    Config,
    config_from_dict,
    config_to_dict,
    is_recurrent,
    is_recurrent_burning,
    is_minimal_recurrent,
    is_stable,
    is_strongly_recurrent,
    orientation_recurrent_set,
)

DEFAULT_SPACE_CAP = 100_000_000

Target = Union[RootedMultigraph, FamilySpec]


def _resolve(target: Target) -> tuple[RootedMultigraph, Optional[FamilySpec]]:
    if isinstance(target, FamilySpec):
        return make_family(target), target
    return target, None


def _is_ppf(g: RootedMultigraph, cand: tuple[int, ...]) -> bool:
    return is_strongly_recurrent(g, _complement(g, cand))


# class -> (membership test, or None when every candidate belongs; lowest
# value of a coordinate).  Configurations take values 0..deg(v)-1 and
# parking candidates 1..deg(v).
_MEMBERSHIP = {
    "stable": (None, 0),
    "recurrent": (is_recurrent, 0),
    "sr-forall": (partial(is_strongly_recurrent, quantifier="forall"), 0),
    "sr-exists": (partial(is_strongly_recurrent, quantifier="exists"), 0),
    "min-recurrent": (is_minimal_recurrent, 0),
    "pf": (is_g_parking, 1),
    "ppf": (_is_ppf, 1),
    "pf-inc": (is_g_parking, 1),
    "ppf-inc": (_is_ppf, 1),
}
CLASSES = tuple(_MEMBERSHIP)


def _walk(target: Target, cls: str, cap: int,
          first: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Members of ``cls`` in lexicographic order, the one candidate-space walk.

    The class, the target and the space size are checked when this is
    called, before any candidate is tested.  With ``first`` set, only the
    slice holding the ``first``-th value of the first coordinate is walked;
    the slices partition the space in order.  Increasing classes walk the
    tuples that are non-decreasing inside each part of the family, whose
    vertices share a degree, so their space is a product of multiset counts.
    """
    if cls not in _MEMBERSHIP:
        raise ValueError(f"unknown class {cls!r}; choose from {CLASSES}")
    test, low = _MEMBERSHIP[cls]
    g, spec = _resolve(target)
    if cls.endswith("-inc"):
        if spec is None:
            raise ValueError(
                "increasing classes need a graph family with declared parts")
        parts = [(range(low, low + g.deg(part[0])), len(part))
                 for part in family_parts(spec)]
        space = math.prod(math.comb(len(r) + s - 1, s) for r, s in parts)
        cands = (sum(chunks, ()) for chunks in product(
            *(combinations_with_replacement(r, s) for r, s in parts)))
    else:
        ranges = [range(low, low + d) for d in g.nonsink_degrees]
        space = math.prod(map(len, ranges))
        if first is not None:
            ranges[0] = ranges[0][first:first + 1]
        cands = product(*ranges)
    if space > cap:
        raise SizeCapError(f"search space of {space} exceeds cap {cap}")
    return cands if test is None else filter(partial(test, g), cands)


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
    target, cls, cap, first = args
    return sum(1 for _ in _walk(target, cls, cap, first))


def count_class(target: Target, cls: str, *, jobs: int = 1,
                cap: int = DEFAULT_SPACE_CAP) -> int:
    if jobs <= 1 or cls.endswith("-inc"):
        return sum(1 for _ in iter_class(target, cls, cap=cap))
    _walk(target, cls, cap)     # raises on bad input before any worker starts
    g, _ = _resolve(target)
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
    f = spec.family
    try:
        if cls in ("ppf", "sr-forall"):
            return closed_form_count(spec, "ppf"), "closed-form"
        if cls == "ppf-inc":
            return closed_form_count(spec, "ppf-inc"), "closed-form"
        if cls == "pf-inc":
            if f == "complete":
                return catalan(spec.n), "closed-form"
            if f == "bipartite":
                bigger = FamilySpec("bipartite", p=spec.p + 1, q=spec.q)
                return closed_form_count(bigger, "ppf-inc"), "closed-form"
            if f == "split":
                bigger = FamilySpec("split", m=spec.m + 1, n=spec.n)
                return closed_form_count(bigger, "ppf-inc"), "closed-form"
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
    for n in range(2, 6):
        suite.append((FamilySpec("complete", n=n), "ppf"))
    for n in range(2, 9):
        suite.append((FamilySpec("complete", n=n), "ppf-inc"))
    for n in range(3, 8):
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
# oracle cross-validation


@dataclass
class OracleReport:
    """Outcome of playing the independent membership routes off each other."""

    label: str
    stable_checked: int = 0
    candidates_checked: int = 0
    recurrent_count: int = 0
    pf_count: int = 0
    ppf_count: int = 0
    sr_count: int = 0
    orientation_checked: bool = False
    naive_checked: bool = False
    discrepancies: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def cross_validate_oracles(g: RootedMultigraph, *, label: str = "",
                           include_orientation: bool = True,
                           include_naive: bool = True,
                           orientation_max_nonsink: int = 8) -> OracleReport:
    """Exhaustively compare every independent route on one graph.

    Checks, over the full stable space and the full candidate space:
    burning vs forbidden-set recurrence (vs orientations when feasible),
    subset-definition vs degree-complement parking membership, partition
    vs drain-test primality, and the degree-complement bijection between
    strongly recurrent configurations and prime parking functions.
    """
    report = OracleReport(label=label or f"graph(|V|={len(g.vertices)})")
    rec_set: set[Config] = set()
    sr_set: set[Config] = set()
    for c in iter_class(g, "stable"):
        report.stable_checked += 1
        by_burning = is_recurrent_burning(g, c)
        by_forbidden = is_recurrent(g, c)
        if by_burning != by_forbidden:
            report.discrepancies.append(
                f"recurrence mismatch at {c}: burning={by_burning} "
                f"forbidden={by_forbidden}")
        if by_forbidden:
            rec_set.add(c)
            if is_strongly_recurrent(g, c, "forall"):
                sr_set.add(c)
    report.recurrent_count = len(rec_set)
    report.sr_count = len(sr_set)

    if include_orientation and len(g.nonsink) <= orientation_max_nonsink:
        report.orientation_checked = True
        by_orientation = orientation_recurrent_set(
            g, max_nonsink=orientation_max_nonsink)
        if set(by_orientation) != rec_set:
            extra = sorted(set(by_orientation) - rec_set)[:3]
            missing = sorted(rec_set - set(by_orientation))[:3]
            report.discrepancies.append(
                f"orientation set mismatch: extra={extra} missing={missing}")

    ppf_set: set[tuple[int, ...]] = set()
    for c in iter_class(g, "stable"):
        cand = tuple(x + 1 for x in c)
        report.candidates_checked += 1
        fast = is_g_parking(g, cand)
        if include_naive:
            report.naive_checked = True
            naive = is_g_parking_naive(g, cand)
            if naive != fast:
                report.discrepancies.append(
                    f"parking mismatch at {cand}: naive={naive} fast={fast}")
        if not fast:
            continue
        report.pf_count += 1
        brute = is_prime_bruteforce(g, cand)
        drain = is_prime(g, cand)
        if brute != drain:
            report.discrepancies.append(
                f"primality mismatch at {cand}: partitions={brute} drain={drain}")
        if brute:
            ppf_set.add(cand)
    report.ppf_count = len(ppf_set)

    dual = {_complement(g, c) for c in sr_set}
    if dual != ppf_set:
        extra = sorted(dual - ppf_set)[:3]
        missing = sorted(ppf_set - dual)[:3]
        report.discrepancies.append(
            f"strong-recurrence/prime bijection mismatch: "
            f"dual-not-prime={extra} prime-not-dual={missing}")
    return report


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
    from .parking import prime_decompositions

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
