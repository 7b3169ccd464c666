"""Graphical parking functions: membership, primality, decompositions.

A parking candidate assigns a positive integer to every non-sink vertex
(tuples in declaration order, like configurations).  Membership and
primality take the degree-complement duality with sandpile configurations:
``p`` parks exactly when ``deg - p`` is recurrent, and is prime exactly when
``deg - p`` is strongly recurrent, which the drain test of ``sandpile``
decides.  Both are tested against the definitions in ``reference``: the
subset condition (``parking_violation``) and the search over ordered
two-block partitions (``decomposing_partition``).  What a partition does to
``p`` lives here: ``restrict_partition`` splits it, ``_restriction`` builds
the part that must park, and ``is_decomposable`` decides one partition.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence

from .errors import UnknownVertexError, _check_cap
from .graph import RootedMultigraph
from .sandpile import (_check_config, _first_drain, _recurrent,
                       config_from_dict, is_recurrent)

PARTITION_MAX_NONSINK = 10

Parking = tuple[int, ...]


def _check_candidate(g: RootedMultigraph, p: Sequence[int]) -> Parking:
    p = _check_config(g, p)
    if any(x < 1 for x in p):
        raise ValueError("parking candidates must be positive everywhere")
    return p


def parking_from_dict(g: RootedMultigraph, data: dict) -> Parking:
    return _check_candidate(g, config_from_dict(g, data))


def load_parking(g: RootedMultigraph, path) -> Parking:
    with open(path, "r", encoding="utf-8") as fh:
        return parking_from_dict(g, json.load(fh))


# ----------------------------------------------------------------------
# membership


def _complement(g: RootedMultigraph, x: Sequence[int]) -> tuple[int, ...]:
    """deg - x, the degree-complement bijection in either direction."""
    return tuple(d - v for v, d in zip(x, g.nonsink_degrees))


def is_g_parking(g: RootedMultigraph, p: Sequence[int]) -> bool:
    """Fast membership: the degree complement must be recurrent."""
    return _recurrent(g, _complement(g, _check_candidate(g, p)))


def pf_from_config(g: RootedMultigraph, c: Sequence[int]) -> Parking:
    """Degree complement of a recurrent configuration."""
    c = tuple(c)
    if not is_recurrent(g, c):
        raise ValueError("configuration is not recurrent")
    return _complement(g, c)


def config_from_pf(g: RootedMultigraph, p: Sequence[int]) -> tuple[int, ...]:
    """Degree complement of a parking function (always recurrent)."""
    c = _complement(g, _check_candidate(g, p))
    if not _recurrent(g, c):
        raise ValueError("candidate is not a parking function")
    return c


# ----------------------------------------------------------------------
# partitions and decomposability


def _normalize_block(g: RootedMultigraph, block: Iterable[str]) -> tuple[str, ...]:
    block = set(block)
    for v in block:
        if v not in g.nonsink_pos:
            if v not in g.index:
                raise UnknownVertexError(f"unknown vertex {v!r}")
            raise ValueError("partition blocks contain non-sink vertices only")
    return tuple(v for v in g.nonsink if v in block)


def _check_partition(g: RootedMultigraph, a: Iterable[str], b: Iterable[str]
                     ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    a = _normalize_block(g, a)
    b = _normalize_block(g, b)
    if not a or not b:
        raise ValueError("both blocks must be non-empty")
    if set(a) & set(b):
        raise ValueError("blocks must be disjoint")
    if len(a) + len(b) != len(g.nonsink):
        raise ValueError("blocks must cover all non-sink vertices")
    return a, b


def restrict_partition(g: RootedMultigraph, p: Sequence[int],
                       a: Iterable[str], b: Iterable[str]
                       ) -> tuple[Parking, tuple[int, ...]]:
    """Split ``p`` along an ordered two-block partition of non-sink vertices.

    The first block keeps its values; the second is reduced by the edges
    each vertex sends into the first block.  Both outputs follow declaration
    order of their blocks; the second may contain non-positive values.
    """
    p = _check_candidate(g, p)
    a, b = _check_partition(g, a, b)
    pos = g.nonsink_pos
    p_a = tuple(p[pos[v]] for v in a)
    p_b = tuple(p[pos[v]] - g.deg_within(v, a) for v in b)
    return p_a, p_b


def _connected_with_sink(g: RootedMultigraph, block: tuple[str, ...]) -> bool:
    members = {g.index[v] for v in block} | {g.sink_index}
    return len(g._reachable(g.sink_index, members)) == len(members)


def _restriction(g: RootedMultigraph, p: Parking, a: tuple[str, ...],
                 b: tuple[str, ...]) -> Optional[tuple[RootedMultigraph, Parking]]:
    """The restriction of ``p`` to ``a`` with its induced subgraph, which
    must park for (a, b) to decompose ``p``; None when (a, b) cannot."""
    pos = g.nonsink_pos
    if any(p[pos[v]] - g.deg_within(v, a) <= 0 for v in b):
        return None
    if not (_connected_with_sink(g, a) and _connected_with_sink(g, b)):
        return None
    return g.induced_with_sink(a), tuple(p[pos[v]] for v in a)


def is_decomposable(g: RootedMultigraph, p: Sequence[int],
                    a: Iterable[str], b: Iterable[str]) -> bool:
    """Does the ordered partition (a, b) split ``p`` into two parking parts?

    Equivalent to: the restriction to ``a`` parks on the induced subgraph
    and the reduced values on ``b`` stay positive.  Partitions whose induced
    subgraphs are disconnected never decompose.
    """
    p = _check_candidate(g, p)
    if not _recurrent(g, _complement(g, p)):
        raise ValueError("candidate is not a parking function")
    part = _restriction(g, p, *_check_partition(g, a, b))
    return part is not None and _recurrent(part[0], _complement(*part))


def failing_boost_vertex(g: RootedMultigraph, p: Sequence[int]) -> Optional[str]:
    """First ``v`` for which ``reference.boost_except(g, p, v)`` does not
    park, or None when prime: the failing drain of the degree complement."""
    return _first_drain(g, config_from_pf(g, p), False)


def is_prime(g: RootedMultigraph, p: Sequence[int]) -> bool:
    """Primality via the degree complement: ``p`` is prime exactly when
    ``deg - p`` is strongly recurrent (every burning start, drained, leaves
    a recurrent configuration)."""
    return failing_boost_vertex(g, p) is None


# ----------------------------------------------------------------------
# prime decompositions


def prime_decompositions(g: RootedMultigraph, p: Sequence[int]
                         ) -> list[tuple[tuple[str, ...], ...]]:
    """All ordered partitions splitting ``p`` into prime parking parts.

    Block i keeps its values minus the edges into earlier blocks; each
    reduced part must be a prime parking function on its induced subgraph
    (blocks inducing disconnected subgraphs are skipped).  Every parking
    function has at least one such partition; a single-block entry appears
    exactly when ``p`` itself is prime.  Output order is deterministic:
    blocks are explored lexicographically by declaration-order bitmask.
    """
    p = _check_candidate(g, p)
    if not _recurrent(g, _complement(g, p)):
        raise ValueError("candidate is not a parking function")
    k = len(g.nonsink)
    _check_cap("partition search", k, PARTITION_MAX_NONSINK)
    names = g.nonsink
    pos = g.nonsink_pos
    results: list[tuple[tuple[str, ...], ...]] = []

    def explore(remaining: tuple[int, ...], prefix_names: tuple[str, ...],
                chosen: tuple[tuple[str, ...], ...]) -> None:
        if not remaining:
            results.append(chosen)
            return
        rem = list(remaining)
        for mask in range(1, 1 << len(rem)):
            block = tuple(names[rem[i]] for i in range(len(rem)) if mask >> i & 1)
            reduced = tuple(p[pos[v]] - g.deg_within(v, prefix_names)
                            for v in block)
            if any(x < 1 for x in reduced):
                continue
            if not _connected_with_sink(g, block):
                continue
            sub = g.induced_with_sink(block)
            c = _complement(sub, reduced)
            if not _recurrent(sub, c) or _first_drain(sub, c, False) is not None:
                continue
            rest = tuple(i for i in rem if names[i] not in block)
            explore(rest, prefix_names + block, chosen + (block,))

    explore(tuple(range(k)), (), ())
    return results


# ----------------------------------------------------------------------
# vertex deletion


def is_sink_twin(g: RootedMultigraph, v: str) -> bool:
    """Can deleting ``v`` preserve parking for prime functions low at ``v``?

    Requires ``v`` to neighbour the sink (otherwise its value can never be
    within its sink multiplicity) and every other vertex to see the sink
    and ``v`` with equal multiplicity.
    """
    if v not in g.nonsink_pos:
        raise UnknownVertexError(f"unknown or sink vertex {v!r}")
    if g.multiplicity(v, g.sink) < 1:
        return False
    return all(g.multiplicity(w, g.sink) == g.multiplicity(w, v)
               for w in g.nonsink if w != v)


def delete_one_vertex(g: RootedMultigraph, p: Sequence[int], v: str
                      ) -> tuple[RootedMultigraph, Parking]:
    """Drop ``v`` from graph and candidate; values are kept as they are."""
    p = _check_candidate(g, p)
    if v not in g.nonsink_pos:
        raise UnknownVertexError(f"unknown or sink vertex {v!r}")
    g2 = g.delete_vertex(v)
    pos = g.nonsink_pos
    p2 = tuple(p[pos[w]] for w in g2.nonsink)
    return g2, p2
