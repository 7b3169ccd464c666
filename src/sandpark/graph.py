"""Rooted multigraphs with subset-degree queries and structural predicates.

Vertices are opaque strings.  Declaration order is canonical throughout the
package: configurations, parking values, enumeration output and reports all
follow it, which keeps every run reproducible.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Collection, Iterable, Optional, Sequence

from .errors import (
    DisconnectedGraphError,
    DuplicateVertexError,
    GraphError,
    LoopEdgeError,
    SizeCapError,
    TooFewVerticesError,
    UnknownVertexError,
)


@dataclass(frozen=True)
class RootedMultigraph:
    """Finite connected loop-free multigraph with a designated sink.

    ``rows`` lists each vertex's ``(index, multiplicity)`` pairs, sorted by
    index.  Instances are immutable value objects: equality and hashing use
    the vertex list, the sink and the rows, so graphs can key caches.
    """

    vertices: tuple[str, ...]
    sink: str
    rows: tuple[tuple[tuple[int, int], ...], ...]

    # ------------------------------------------------------------------
    # derived lookups (computed once per instance)

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def sink_index(self) -> int:
        return self.index[self.sink]

    @cached_property
    def nonsink(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v != self.sink)

    @cached_property
    def nonsink_indices(self) -> tuple[int, ...]:
        return tuple(self.index[v] for v in self.nonsink)

    @cached_property
    def nonsink_pos(self) -> dict[str, int]:
        return {v: p for p, v in enumerate(self.nonsink)}

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(m for _, m in row) for row in self.rows)

    @cached_property
    def nonsink_degrees(self) -> tuple[int, ...]:
        return tuple(self.degrees[i] for i in self.nonsink_indices)

    @cached_property
    def sink_mults(self) -> tuple[int, ...]:
        """Multiplicity towards the sink, per non-sink position."""
        si = self.sink_index
        return tuple(dict(self.rows[i]).get(si, 0) for i in self.nonsink_indices)

    @cached_property
    def nonsink_nbrs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``rows`` minus the sink, in non-sink positions (still ascending)."""
        si = self.sink_index
        return tuple(tuple((j - (j > si), m) for j, m in self.rows[i] if j != si)
                     for i in self.nonsink_indices)

    @cached_property
    def simple_nbrs(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """``nonsink_nbrs`` without multiplicities, or None when an edge
        between non-sink vertices has multiplicity above 1.  Sink edges do
        not count, since these rows omit the sink."""
        nbrs = self.nonsink_nbrs
        if any(m > 1 for row in nbrs for _, m in row):
            return None
        return tuple(tuple(j for j, _ in row) for row in nbrs)

    @cached_property
    def nonsink_adj(self) -> tuple[tuple[int, ...], ...]:
        """Dense non-sink multiplicity matrix, O(V^2): reference oracles only."""
        k = len(self.nonsink)
        dense = [[0] * k for _ in range(k)]
        for i, row in enumerate(self.nonsink_nbrs):
            for j, m in row:
                dense[i][j] = m
        return tuple(map(tuple, dense))

    @cached_property
    def edge_total(self) -> int:
        return sum(self.degrees) // 2

    # ------------------------------------------------------------------
    # basic queries

    def _vertex_index(self, v: str) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def multiplicity(self, v: str, w: str) -> int:
        return self.deg_within(v, (w,))

    def deg(self, v: str) -> int:
        return self.degrees[self._vertex_index(v)]

    def deg_within(self, v: str, within: Iterable[str]) -> int:
        """Number of edge endpoints at ``v`` leading into ``within``."""
        row = dict(self.rows[self._vertex_index(v)])
        return sum(row.get(self._vertex_index(w), 0) for w in within)

    # ------------------------------------------------------------------
    # structural operations

    def induced_with_sink(self, keep: Iterable[str]) -> "RootedMultigraph":
        """Induced subgraph on ``keep`` plus the sink.

        ``keep`` must be a non-empty set of non-sink vertices and the result
        must be connected; declaration order is inherited from this graph.
        """
        keep_set = set(keep)
        if not keep_set:
            raise GraphError("induced subgraph needs at least one non-sink vertex")
        for v in keep_set:
            if v not in self.index:
                raise UnknownVertexError(f"unknown vertex {v!r}")
            if v == self.sink:
                raise GraphError("the sink is always kept; do not list it")
        names = tuple(v for v in self.vertices
                      if v == self.sink or v in keep_set)
        new = {self.index[v]: k for k, v in enumerate(names)}
        sub = tuple(tuple((new[j], m) for j, m in self.rows[i] if j in new)
                    for i in new)
        g = RootedMultigraph(names, self.sink, sub)
        if not g.is_connected():
            raise DisconnectedGraphError(
                f"induced subgraph on {sorted(keep_set)} plus sink is disconnected")
        return g

    def delete_vertex(self, v: str) -> "RootedMultigraph":
        """Remove one non-sink vertex together with all incident edges."""
        iv = self._vertex_index(v)
        if iv == self.sink_index:
            raise GraphError("cannot delete the sink")
        if len(self.vertices) <= 2:
            raise TooFewVerticesError("deletion would leave fewer than 2 vertices")
        keep = [v2 for v2 in self.nonsink if v2 != v]
        return self.induced_with_sink(keep)

    def _reachable(self, start: int, allowed: Collection[int]) -> set[int]:
        """Indices reachable from ``start`` through vertices in ``allowed``."""
        seen = {start}
        queue = deque([start])
        while queue:
            for j, _ in self.rows[queue.popleft()]:
                if j in allowed and j not in seen:
                    seen.add(j)
                    queue.append(j)
        return seen

    def is_connected(self) -> bool:
        n = len(self.vertices)
        return len(self._reachable(self.sink_index, range(n))) == n

    def sink_is_cut_vertex(self) -> bool:
        """True iff removing the sink disconnects the remaining vertices."""
        rest = self.nonsink_indices
        return len(self._reachable(rest[0], set(rest))) != len(rest)

    def spanning_tree_count(self) -> int:
        """Number of spanning trees: the reduced Laplacian determinant.

        The reduced Laplacian of a connected graph is positive definite, and
        so is any symmetric permutation of it.  Its rows are eliminated in
        greedy minimum-degree order, which keeps the fill small; every
        leading minor in that order is a principal minor of the original, a
        positive integer at most the product of its diagonal (Hadamard's
        inequality), hence at most the product of the non-sink degrees.
        Sparse elimination with diagonal pivots modulo a Mersenne prime above
        that product meets no zero pivot, and the residue is the exact
        count.  A zero pivot therefore means the graph is disconnected and
        raises ``DisconnectedGraphError``.  Raises ``SizeCapError`` before
        any elimination when the product exceeds the largest tabulated prime.
        """
        deg = self.nonsink_degrees
        bound = math.prod(deg)
        for e in _MERSENNE_EXPONENTS:
            p = (1 << e) - 1
            if bound < p:
                break
        else:
            raise SizeCapError(
                f"spanning-tree count capped at a degree-product bound of "
                f"2^{e}, graph has about 2^{bound.bit_length() - 1}")
        nbrs = self.nonsink_nbrs
        order = _min_degree_order(nbrs)
        new_pos = {old: i for i, old in enumerate(order)}
        # Upper triangle only: the Schur complements stay symmetric.
        # Entries are reduced loosely by folding, since 2^e = 1 mod p
        # gives v = (v & p) + (v >> e) mod p, also for negative v.
        rows = [{i: deg[old]} | {new_pos[j]: -m for j, m in nbrs[old]
                                 if new_pos[j] > i}
                for i, old in enumerate(order)]
        count = 1
        for k, row in enumerate(rows):
            rows[k] = None
            pivot = row.pop(k) % p
            if not pivot:
                raise DisconnectedGraphError("graph is not connected")
            count = count * pivot % p
            inv = pow(pivot, -1, p)
            tail = sorted(row.items())
            for a, (i, x) in enumerate(tail):
                factor = x * inv % p
                target = rows[i]
                for j, y in tail[a:]:
                    v = target.get(j, 0) - factor * y
                    target[j] = (v & p) + (v >> e)
        return count


def _min_degree_order(nbrs: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Greedy minimum-degree elimination order of a sparse symmetric pattern.

    Each step takes the position with the fewest remaining neighbours, ties
    to the lowest position, and joins its neighbours into a clique, as
    eliminating it would.  Stale heap entries are skipped on pop.
    """
    adj = [{j for j, _ in row} for row in nbrs]
    heap = [(len(a), i) for i, a in enumerate(adj)]
    heapify(heap)
    order = []
    while heap:
        d, i = heappop(heap)
        nb = adj[i]
        if nb is None or d != len(nb):
            continue
        adj[i] = None
        order.append(i)
        for j in nb:
            a = adj[j]
            a.discard(i)
            a |= nb
            a.discard(j)
            heappush(heap, (len(a), j))
    return order


# Exponents e of the Mersenne primes 2^e - 1 that spanning_tree_count works
# modulo; the last one caps the size of the count.
_MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607,
                       1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213)


def build_graph(vertices: Sequence[str], sink: str,
                edges: Iterable[tuple[str, str, int]]) -> RootedMultigraph:
    """Validate and assemble a rooted multigraph from an edge list.

    Duplicate (v, w) entries sum their multiplicities.  Loops, unknown
    names, duplicate vertex names, fewer than two vertices, non-positive
    multiplicities and disconnected results are all rejected with distinct
    error types.
    """
    names = tuple(vertices)
    if len(set(names)) != len(names):
        raise DuplicateVertexError("vertex names must be distinct")
    if len(names) < 2:
        raise TooFewVerticesError("a rooted graph needs at least 2 vertices")
    index = {v: i for i, v in enumerate(names)}
    if sink not in index:
        raise UnknownVertexError(f"sink {sink!r} is not a declared vertex")
    adj = [Counter() for _ in names]
    for v, w, m in edges:
        if v not in index:
            raise UnknownVertexError(f"unknown vertex {v!r} in edge list")
        if w not in index:
            raise UnknownVertexError(f"unknown vertex {w!r} in edge list")
        if v == w:
            raise LoopEdgeError(f"loop edge at {v!r}")
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise GraphError(f"edge multiplicity must be a positive integer, got {m!r}")
        adj[index[v]][index[w]] += m
        adj[index[w]][index[v]] += m
    g = RootedMultigraph(names, sink, tuple(tuple(sorted(a.items())) for a in adj))
    if not g.is_connected():
        raise DisconnectedGraphError("graph is not connected")
    return g


# ----------------------------------------------------------------------
# JSON interchange
#
# {"vertices": ["0", "v1", ...], "sink": "0", "edges": [["v1", "v2", 1], ...]}
# The multiplicity field is mandatory on every edge.


def graph_from_dict(data: dict) -> RootedMultigraph:
    if not isinstance(data, dict):
        raise GraphError("graph document must be a JSON object")
    try:
        vertices = data["vertices"]
        sink = data["sink"]
        edges = data["edges"]
    except KeyError as e:
        raise GraphError(f"graph document missing key {e.args[0]!r}") from None
    if (not isinstance(vertices, list)
            or not all(isinstance(v, str) for v in vertices)):
        raise GraphError("'vertices' must be a list of strings")
    if not isinstance(sink, str):
        raise GraphError("'sink' must be a string")
    if not isinstance(edges, list):
        raise GraphError("'edges' must be a list")
    triples = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 3:
            raise GraphError(
                f"each edge must be a [v, w, multiplicity] triple, got {e!r}")
        if not (isinstance(e[0], str) and isinstance(e[1], str)):
            raise GraphError(f"edge endpoints must be strings, got {e!r}")
        triples.append((e[0], e[1], e[2]))
    return build_graph(vertices, sink, triples)


def graph_to_dict(g: RootedMultigraph) -> dict:
    edges = [[g.vertices[i], g.vertices[j], m]
             for i, row in enumerate(g.rows) for j, m in row if j > i]
    return {"vertices": list(g.vertices), "sink": g.sink, "edges": edges}


def load_graph(path) -> RootedMultigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))


def save_graph(g: RootedMultigraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2)
        fh.write("\n")
