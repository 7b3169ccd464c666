"""Reference oracles: exponential definitions the fast routes answer to.

Parking membership by the subset condition, primality by a search over
ordered two-block partitions, and recurrence by rooted acyclic
orientations decide what the fast routes decide through the degree
complement and the forbidden-set fixpoint.  Each refuses graphs above its
module constant with ``SizeCapError``.  No fast path calls them;
``cross_validate_oracles`` and the test suite play them against the fast
routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Optional, Sequence

from .errors import SizeCapError, UnknownVertexError, _check_cap
from .graph import RootedMultigraph
from .parking import (PARTITION_MAX_NONSINK, Parking, _check_candidate,
                      _complement, _restriction, is_g_parking, is_prime)
from .sandpile import (Config, _check_config, burning_starts, is_recurrent,
                       is_recurrent_burning, is_strongly_recurrent)

NAIVE_MAX_NONSINK = 20
ORIENTATION_MAX_NONSINK = 8
CROSS_CHECK_MAX_SPACE = 100_000_000


# ----------------------------------------------------------------------
# parking and primality


def parking_violation(g: RootedMultigraph, p: Sequence[int]
                      ) -> Optional[tuple[str, ...]]:
    """First vertex set witnessing failure of the subset condition, or None.

    A set violates when every member needs more grains than its edges
    leaving the set (towards the complement, sink included) provide.
    """
    p = _check_candidate(g, p)
    _check_cap("subset test", len(p), NAIVE_MAX_NONSINK)
    return _violation(g, p)


def _violation(g: RootedMultigraph, p: Parking) -> Optional[tuple[str, ...]]:
    k = len(p)
    adj = g.nonsink_adj
    degs = g.nonsink_degrees
    for mask in range(1, 1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        if not any(p[i] <= degs[i] - sum(adj[i][j] for j in members)
                   for i in members):
            return tuple(g.nonsink[i] for i in members)
    return None


def is_g_parking_naive(g: RootedMultigraph, p: Sequence[int]) -> bool:
    return parking_violation(g, p) is None


def decomposing_partition(g: RootedMultigraph, p: Sequence[int]
                          ) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
    """First ordered partition that decomposes ``p``, or None (prime)."""
    p = _check_candidate(g, p)
    k = len(g.nonsink)
    _check_cap("partition search", k, PARTITION_MAX_NONSINK)
    if _violation(g, p) is not None:
        raise ValueError("candidate is not a parking function")
    names = g.nonsink
    for mask in range(1, (1 << k) - 1):
        a = tuple(names[i] for i in range(k) if mask >> i & 1)
        b = tuple(names[i] for i in range(k) if not mask >> i & 1)
        part = _restriction(g, p, a, b)
        if part is not None and _violation(*part) is None:
            return a, b
    return None


def is_prime_bruteforce(g: RootedMultigraph, p: Sequence[int]) -> bool:
    return decomposing_partition(g, p) is None


def burning_starts_pf(g: RootedMultigraph, p: Sequence[int]) -> tuple[str, ...]:
    """Vertices whose value is within their sink multiplicity: the burning
    starts of the degree complement."""
    return burning_starts(g, _complement(g, _check_candidate(g, p)))


def boost_except(g: RootedMultigraph, p: Sequence[int], v: str) -> Parking:
    """Raise every value except at ``v`` by its sink multiplicity."""
    p = _check_candidate(g, p)
    if v not in g.nonsink_pos:
        raise UnknownVertexError(f"unknown or sink vertex {v!r}")
    pos = g.nonsink_pos[v]
    return tuple(x if i == pos else x + m
                 for i, (x, m) in enumerate(zip(p, g.sink_mults)))


# ----------------------------------------------------------------------
# recurrence by rooted acyclic orientations


def orientation_indegrees(g: RootedMultigraph) -> tuple[tuple[int, ...], ...]:
    """In-degree vectors of rooted acyclic orientations, sorted.

    Every acyclic orientation arises from a vertex order with all edges
    pointing towards earlier vertices, and the first vertex is forcibly a
    target, so orders starting at the sink enumerate exactly the acyclic
    orientations in which the sink is a target.  Uniqueness of the target
    amounts to every other vertex having some earlier neighbour.  Each
    vector counts every non-sink edge once, so all sum to
    ``edge_total - sum(sink_mults)`` and none dominates another: they are
    the minimal recurrent configurations.
    """
    k = len(g.nonsink)
    _check_cap("orientation oracle", k, ORIENTATION_MAX_NONSINK)
    adj = g.nonsink_adj
    sink_m = g.sink_mults
    seen: set[tuple[int, ...]] = set()
    for perm in permutations(range(k)):
        placed: list[int] = []
        indeg = [0] * k
        for i in perm:
            row = adj[i]
            if not (sink_m[i] or any(row[j] for j in placed)):
                break
            for j in placed:
                indeg[j] += row[j]
            placed.append(i)
        else:
            seen.add(tuple(indeg))
    return tuple(sorted(seen))


def is_recurrent_orientation(g: RootedMultigraph, c: Sequence[int]) -> bool:
    """Recurrence via acyclic orientations rooted at the sink.

    ``c`` is recurrent exactly when it dominates, pointwise, the in-degree
    vector of some acyclic orientation whose unique target is the sink.
    """
    c = _check_config(g, c)
    if any(x >= d for x, d in zip(c, g.nonsink_degrees)):
        raise ValueError("orientation test needs a stable configuration")
    if any(x < 0 for x in c):
        raise ValueError("orientation test needs a non-negative configuration")
    return any(all(x >= d for x, d in zip(c, vec))
               for vec in orientation_indegrees(g))


def orientation_recurrent_set(g: RootedMultigraph) -> frozenset[Config]:
    """All stable configurations accepted by the orientation oracle."""
    degs = g.nonsink_degrees
    return frozenset(c for vec in orientation_indegrees(g)
                     for c in product(*(range(d, deg)
                                        for d, deg in zip(vec, degs))))


# ----------------------------------------------------------------------
# every route against every other on one graph


@dataclass
class OracleReport:
    """Outcome of playing the independent membership routes off each other."""

    stable_checked: int = 0  # each with its parking candidate c + 1
    recurrent_count: int = 0
    pf_count: int = 0
    ppf_count: int = 0
    sr_count: int = 0
    orientation_checked: bool = False
    discrepancies: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def cross_validate_oracles(g: RootedMultigraph) -> OracleReport:
    """Exhaustively compare every independent route on one graph.

    One walk over the stable space checks each configuration ``c`` and
    then the candidate ``c + 1``, so the candidate space is covered too:
    burning vs forbidden-set recurrence (vs orientations up to
    ``ORIENTATION_MAX_NONSINK`` non-sink vertices), subset-definition vs
    degree-complement parking membership, partition vs drain-test
    primality, and the degree-complement bijection between strongly
    recurrent configurations and prime parking functions.  The walk is a
    plain product, not the enumeration walker these routes also check,
    and a space above ``CROSS_CHECK_MAX_SPACE`` raises before it starts.
    """
    space = math.prod(g.nonsink_degrees)
    if space > CROSS_CHECK_MAX_SPACE:
        raise SizeCapError(
            f"search space of {space} exceeds cap {CROSS_CHECK_MAX_SPACE}")
    report = OracleReport()
    rec_set: set[Config] = set()
    sr_set: set[Config] = set()
    ppf_set: set[tuple[int, ...]] = set()
    for c in product(*(range(d) for d in g.nonsink_degrees)):
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

        cand = tuple(x + 1 for x in c)
        fast = is_g_parking(g, cand)
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
    report.recurrent_count = len(rec_set)
    report.sr_count = len(sr_set)
    report.ppf_count = len(ppf_set)

    if len(g.nonsink) <= ORIENTATION_MAX_NONSINK:
        report.orientation_checked = True
        by_orientation = orientation_recurrent_set(g)
        if set(by_orientation) != rec_set:
            extra = sorted(set(by_orientation) - rec_set)[:3]
            missing = sorted(rec_set - set(by_orientation))[:3]
            report.discrepancies.append(
                f"orientation set mismatch: extra={extra} missing={missing}")

    dual = {_complement(g, c) for c in sr_set}
    if dual != ppf_set:
        extra = sorted(dual - ppf_set)[:3]
        missing = sorted(ppf_set - dual)[:3]
        report.discrepancies.append(
            f"strong-recurrence/prime bijection mismatch: "
            f"dual-not-prime={extra} prime-not-dual={missing}")
    return report
