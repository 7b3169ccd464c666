"""Chip-firing dynamics on rooted multigraphs.

Configurations are plain integer tuples aligned with ``graph.nonsink``
(declaration order).  The sink absorbs grains and never topples.

Two recurrence tests live here: the burning test (drop one grain per sink
edge and watch for a full round of topplings) and the maximal
forbidden-subconfiguration fixpoint, which the fast paths use.  The test
suite holds them equal to each other and to the rooted acyclic orientation
oracle of ``reference``.

A public function checks its configuration once (``_check_config``) and
hands the checked tuple, and what it derives from it, to the private
cores, which check nothing: ``_recurrent``, the fixpoint ``_discard``, the
burning-start positions ``_starts``, the one drain loop ``_first_drain``
behind both quantifiers of strong recurrence, the order-free toppling
kernel ``_relax`` and the declaration-order replay ``_ordered_log``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from array import array
from bisect import bisect
from collections.abc import Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass, field
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate, islice
from numbers import Real
from typing import Optional

from .errors import SizeCapError, ToppleLimitError, UnknownVertexError, _size
from .graph import RootedMultigraph

Config = tuple[int, ...]

DEFAULT_MAX_TOPPLINGS = 10_000_000
# Largest steps * non-sink vertices of a grain-drop chain: the values a
# full iteration of its trace yields.
CHAIN_CAP = 100_000_000


def _check_config(g: RootedMultigraph, c: Sequence[int]) -> Config:
    """``c`` as a tuple: one integer (not a bool) per non-sink vertex."""
    c = tuple(c)
    if len(c) != len(g.nonsink):
        raise ValueError(
            f"got {len(c)} values, graph has {len(g.nonsink)} "
            "non-sink vertices")
    for v, x in zip(g.nonsink, c):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"value for {v!r} must be an integer, got {x!r}")
    return c


# ----------------------------------------------------------------------
# JSON interchange: {"values": {"v1": 2, "v2": 0}}


def _document_values(data, what: str):
    """The vertex mapping inside a ``{"values": {...}}`` document."""
    if not isinstance(data, dict) or not isinstance(data.get("values"), Mapping):
        raise ValueError(f"{what} document must be {{\"values\": {{...}}}}")
    return data["values"]


def _vertex_values(g: RootedMultigraph, values: Mapping, what: str) -> list:
    """Entries of a vertex-keyed mapping in declaration order.

    The mapping must name every non-sink vertex and nothing else.
    """
    extra = set(values) - set(g.nonsink)
    if extra:
        raise UnknownVertexError(
            f"{what} names unknown or sink vertices: {sorted(extra)}")
    missing = set(g.nonsink) - set(values)
    if missing:
        raise ValueError(f"{what} missing vertices: {sorted(missing)}")
    return [values[v] for v in g.nonsink]


def config_from_dict(g: RootedMultigraph, data: dict) -> Config:
    return _check_config(g, _vertex_values(
        g, _document_values(data, "configuration"), "configuration"))


def config_to_dict(g: RootedMultigraph, c: Sequence[int]) -> dict:
    c = _check_config(g, c)
    return {"values": {v: x for v, x in zip(g.nonsink, c)}}


def load_config(g: RootedMultigraph, path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(g, json.load(fh))


# ----------------------------------------------------------------------
# single steps


def is_stable(g: RootedMultigraph, c: Sequence[int]) -> bool:
    c = _check_config(g, c)
    return all(x < d for x, d in zip(c, g.nonsink_degrees))


def topple(g: RootedMultigraph, c: Sequence[int], v: str) -> Config:
    """Fire ``v`` once: it loses deg(v) grains, neighbours gain per edge."""
    c = _check_config(g, c)
    pos = g.nonsink_pos.get(v)
    if pos is None:
        if v not in g.index:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        raise ValueError("the sink does not topple")
    deg = g.nonsink_degrees[pos]
    if c[pos] < deg:
        raise ValueError(f"vertex {v!r} is stable (value {c[pos]} < degree {deg})")
    out = list(c)
    out[pos] -= deg
    for j, m in g.nonsink_nbrs[pos]:
        out[j] += m
    return tuple(out)


class StabilisationTrace:
    """Result of driving a configuration to stability.

    ``log`` records toppled vertices in firing order; ``odometer`` counts
    topplings per non-sink vertex.  Replaying ``log`` with ``topple``
    reproduces ``final``.  The trace is immutable, and compares, hashes and
    prints by its three fields.  ``stabilize`` hands over ``log`` as a
    zero-argument callable, which the trace calls on the first read of
    ``log`` and then replaces by the tuple it returns.
    """

    __slots__ = ("final", "odometer", "_log")

    def __init__(self, final: Config, odometer: tuple[int, ...], log):
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "odometer", odometer)
        object.__setattr__(self, "_log", log)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @property
    def log(self) -> tuple[str, ...]:
        if callable(self._log):
            object.__setattr__(self, "_log", self._log())
        return self._log

    def _fields(self) -> tuple:
        return self.final, self.odometer, self.log

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return StabilisationTrace, self._fields()

    def __repr__(self) -> str:
        return (f"StabilisationTrace(final={self.final!r}, "
                f"odometer={self.odometer!r}, log={self.log!r})")


def _relax(g: RootedMultigraph, cur: list[int], pending: list[int],
           odometer: list[int], *, max_topplings: int) -> None:
    """Fire unstable positions of ``cur`` in place until none is left,
    adding each position's firings to ``odometer``.

    ``pending`` lists each unstable position once and is read in order
    while it grows: a position fires q = cur // deg times at once and sends
    q * m grains along each sparse neighbour row entry, and a neighbour that
    crosses its degree is appended.  The order is breadth-first, so a
    position gathers its neighbours' grains before it fires, which the
    abelian property allows; the budget is checked on the running total.
    A position read holds x >= deg, as it was appended on crossing its
    degree and only its own firing lowers it, so x < 2 * deg fires once.
    On a graph whose non-sink edges are all single (``simple_nbrs``) the
    rows carry no multiplicities and each neighbour gains q; one firing
    needs no division, and a neighbour crosses exactly when it reaches deg.

    Each step fires at least once, so ``pending``, one slot per step read,
    ends with at most k + ``max_topplings`` entries (k non-sink vertices).
    """
    degs = g.nonsink_degrees
    simple = g.simple_nbrs
    nbrs = g.nonsink_nbrs
    push = pending.append
    fired = 0
    for i in pending:
        d = degs[i]
        x = cur[i]
        if x < d + d and simple is not None:
            fired += 1
            if fired > max_topplings:
                raise ToppleLimitError(
                    f"stabilisation exceeded {max_topplings} topplings")
            cur[i] = x - d
            odometer[i] += 1
            for j in simple[i]:
                cur[j] = y = cur[j] + 1
                if y == degs[j]:
                    push(j)
            continue
        q = x // d
        fired += q
        if fired > max_topplings:
            raise ToppleLimitError(
                f"stabilisation exceeded {max_topplings} topplings")
        cur[i] = x - q * d
        odometer[i] += q
        if simple is None:
            for j, m in nbrs[i]:
                x = cur[j]
                cur[j] = y = x + q * m
                if x < degs[j] <= y:
                    push(j)
        else:
            for j in simple[i]:
                x = cur[j]
                cur[j] = y = x + q
                if x < degs[j] <= y:
                    push(j)


def _ordered_log(g: RootedMultigraph, c: Config) -> tuple[str, ...]:
    """The firing log of stabilising ``c`` when the first unstable position
    in declaration order always fires.

    ``pending`` is a min-heap of exactly the unstable positions, and a
    neighbour joins it when it crosses its degree.  The caller has already
    stabilised ``c`` within its budget, and every order fires the same
    total, so no budget is checked here.
    """
    degs = g.nonsink_degrees
    nbrs = g.nonsink_nbrs
    cur = list(c)
    # ascending, so already a heap
    pending = [i for i, (x, d) in enumerate(zip(cur, degs)) if x >= d]
    log = []
    while pending:
        i = pending[0]
        cur[i] -= degs[i]
        log.append(i)
        # drop i before any neighbour joins, while it is still at the top
        if cur[i] < degs[i]:
            heappop(pending)
        for j, m in nbrs[i]:
            x = cur[j]
            cur[j] = x + m
            if x < degs[j] <= x + m:
                heappush(pending, j)
    names = g.nonsink
    return tuple(names[i] for i in log)


def stabilize(g: RootedMultigraph, c: Sequence[int], *,
              max_topplings: int = DEFAULT_MAX_TOPPLINGS) -> StabilisationTrace:
    """Topple until stable.

    The final configuration and odometer do not depend on the order (Dhar's
    abelian property), so they come from the bulk kernel ``_relax``.  The
    log lists the firings when the first unstable vertex in declaration
    order fires; it is replayed from ``c`` the first time it is read.  A
    budget of ``max_topplings`` firings guards against runaway input.
    """
    c = _check_config(g, c)
    cur = list(c)
    pending = [i for i, (x, d) in enumerate(zip(cur, g.nonsink_degrees))
               if x >= d]
    odometer = [0] * len(cur)
    _relax(g, cur, pending, odometer, max_topplings=max_topplings)
    return StabilisationTrace(tuple(cur), tuple(odometer),
                              partial(_ordered_log, g, c))


def add_sink_grains(g: RootedMultigraph, c: Sequence[int]) -> Config:
    """Send one grain along every sink edge (the sink fires once)."""
    c = _check_config(g, c)
    return tuple(x + m for x, m in zip(c, g.sink_mults))


# ----------------------------------------------------------------------
# recurrence


def _require_stable_nonnegative(g: RootedMultigraph, c: Config,
                                what: str) -> None:
    """The domain of the burning and orientation oracles."""
    if any(x >= d for x, d in zip(c, g.nonsink_degrees)):
        raise ValueError(f"{what} needs a stable configuration")
    if any(x < 0 for x in c):
        raise ValueError(f"{what} needs a non-negative configuration")


def _burning_trace(g: RootedMultigraph, c: Sequence[int]
                   ) -> Optional[StabilisationTrace]:
    """The burning test: fire the sink once and stabilise.  ``c`` is
    recurrent exactly when the result is ``c`` again with every vertex
    having toppled exactly once; then the trace, else None.  Its log is
    left unread, so a verdict alone runs no ordered replay.
    """
    c = _check_config(g, c)
    _require_stable_nonnegative(g, c, "burning test")
    trace = stabilize(g, add_sink_grains(g, c))
    if trace.final == c and all(t == 1 for t in trace.odometer):
        return trace
    return None


def burning_sequence(g: RootedMultigraph, c: Sequence[int]) -> Optional[tuple[str, ...]]:
    """Burning test witness, or None when ``c`` is not recurrent.

    The returned sequence starts at the sink and lists the firing order.
    """
    trace = _burning_trace(g, c)
    return None if trace is None else (g.sink,) + trace.log


def is_recurrent_burning(g: RootedMultigraph, c: Sequence[int]) -> bool:
    return _burning_trace(g, c) is not None


def _discard(c: Sequence[int], deg_in: list, nbrs) -> int:
    """Run the forbidden-set fixpoint on positions ``0..len(deg_in)-1``.

    ``deg_in`` holds each position's edges into that prefix and is updated
    in place: a discarded position's entry becomes None.  A scan of the
    prefix discards every position holding at least its internal degree,
    then each discard lowers its neighbours' degrees along the sparse rows
    ``nbrs`` (ascending positions, so the prefix ends the walk).  Returns
    the number of positions left, the size of the fixpoint.
    """
    n = len(deg_in)
    stack = []
    for i in range(n):
        if c[i] >= deg_in[i]:
            deg_in[i] = None
            stack.append(i)
    left = n - len(stack)
    while stack and left:
        for j, m in nbrs[stack.pop()]:
            if j >= n:
                break
            d = deg_in[j]
            if d is not None:
                d -= m
                if c[j] >= d:
                    deg_in[j] = None
                    stack.append(j)
                    left -= 1
                else:
                    deg_in[j] = d
    return left


def max_forbidden_set(g: RootedMultigraph, c: Sequence[int]) -> tuple[str, ...]:
    """Largest vertex set on which ``c`` is everywhere below internal degree.

    Starts from all non-sink vertices and repeatedly discards any vertex
    holding at least as many grains as it has edges into the remaining set.
    The fixpoint is independent of the discard order; the tests check this
    on graphs with their vertices redeclared in shuffled orders.  Stable
    configurations are recurrent exactly when the result is empty.  Negative
    values never get discarded, so configurations with negative entries are
    never recurrent.
    """
    c = _check_config(g, c)
    # graphs have no loops, so the edges into the non-sink set are all
    # edges except those to the sink
    deg_in = [d - m for d, m in zip(g.nonsink_degrees, g.sink_mults)]
    _discard(c, deg_in, g.nonsink_nbrs)
    return tuple(v for v, d in zip(g.nonsink, deg_in) if d is not None)


def _recurrent(g: RootedMultigraph, c: Sequence[int]) -> bool:
    """Stable, and the forbidden-set fixpoint leaves nothing."""
    degs = g.nonsink_degrees
    return (all(x < d for x, d in zip(c, degs)) and not _discard(
        c, [d - m for d, m in zip(degs, g.sink_mults)], g.nonsink_nbrs))


def is_recurrent(g: RootedMultigraph, c: Sequence[int]) -> bool:
    """Recurrence via the forbidden-set fixpoint (fast path, total)."""
    return _recurrent(g, _check_config(g, c))


# ----------------------------------------------------------------------
# strong recurrence


def _starts(g: RootedMultigraph, c: Sequence[int]) -> list[int]:
    """Positions of the burning starts of ``c``."""
    return [i for i, (x, d, m) in enumerate(zip(c, g.nonsink_degrees, g.sink_mults))
            if m >= 1 and x >= d - m]


def burning_starts(g: RootedMultigraph, c: Sequence[int]) -> tuple[str, ...]:
    """Sink neighbours that go unstable when the sink fires once.

    Exactly the vertices that can lead a burning sequence of ``c``.
    """
    return tuple(g.nonsink[i] for i in _starts(g, _check_config(g, c)))


def drain_except(g: RootedMultigraph, c: Sequence[int], v: str) -> Config:
    """Remove the sink-edge grains everywhere except at ``v``.

    Models the state just before ``v`` leads a burning round: every other
    vertex gives back the grains the sink would send it.  ``v`` must be a
    burning start of ``c``; a name that is not a non-sink vertex raises
    ``UnknownVertexError``.
    """
    c = _check_config(g, c)
    pos = g.nonsink_pos.get(v)
    if pos is None:
        raise UnknownVertexError(f"unknown or sink vertex {v!r}")
    if pos not in _starts(g, c):
        raise ValueError(f"vertex {v!r} is not a burning start of this configuration")
    return tuple(x if i == pos else x - m
                 for i, (x, m) in enumerate(zip(c, g.sink_mults)))


def _first_drain(g: RootedMultigraph, c: Config, recurrent: bool) -> Optional[str]:
    """First burning start of the stable ``c`` whose drain (``drain_except``)
    is recurrent when ``recurrent`` is True, and is not when False; or None.

    A drain lies below ``c``, so it is stable and one fixpoint decides it.
    """
    sink = g.sink_mults
    deg_in = [d - m for d, m in zip(g.nonsink_degrees, sink)]
    drained = [x - m for x, m in zip(c, sink)]
    for i in _starts(g, c):
        drained[i] = c[i]
        if (not _discard(drained, deg_in[:], g.nonsink_nbrs)) == recurrent:
            return g.nonsink[i]
        drained[i] -= sink[i]
    return None


def is_strongly_recurrent(g: RootedMultigraph, c: Sequence[int],
                          quantifier: str = "forall") -> bool:
    """Recurrence that survives draining the sink edges.

    With ``forall`` every burning start must leave a recurrent drained
    configuration; ``exists`` asks for at least one.  Non-recurrent input
    returns False.
    """
    if quantifier not in ("forall", "exists"):
        raise ValueError("quantifier must be 'forall' or 'exists'")
    c = _check_config(g, c)
    if not _recurrent(g, c):
        return False
    if quantifier == "forall":
        return _first_drain(g, c, False) is None
    return _first_drain(g, c, True) is not None


def is_minimal_recurrent(g: RootedMultigraph, c: Sequence[int]) -> bool:
    """Recurrent, and removing any single grain breaks recurrence.

    A recurrent configuration holds at least one grain per non-sink edge,
    and the minimal ones hold exactly that many (level 0, Merino 1997), so
    a grain count and one recurrence test decide.
    """
    c = _check_config(g, c)
    return sum(c) == g.edge_total - sum(g.sink_mults) and _recurrent(g, c)


# ----------------------------------------------------------------------
# grain-dropping Markov chain


def _redrop(g: RootedMultigraph, cur: list[int], drops):
    """Drop a grain at each position of ``drops`` onto the stable ``cur`` in
    place, stabilising after each with ``_relax`` and the default budget;
    yield each drop's work: 1 if quiet, else the kernel's steps."""
    degs = g.nonsink_degrees
    odometer = [0] * len(cur)  # one for all the drops, none allocated per drop
    for i in drops:
        cur[i] = x = cur[i] + 1
        if x < degs[i]:
            yield 1
        else:
            pending = [i]
            _relax(g, cur, pending, odometer, max_topplings=DEFAULT_MAX_TOPPLINGS)
            yield len(pending)


def _pack(cur, wide: bool):
    """A state stored: a tuple if ``wide``, else bytes via a bytearray."""
    return tuple(cur) if wide else bytes(bytearray(cur))


class ChainTrace(Sequence):
    """Read-only steps of a grain-drop chain: ``trace[i]`` is
    ``(i + 1, dropped vertex, state)``, rebuilt on access.

    Dropped positions sit in one ``array('I')``, and ``markov_run`` stores a
    few states packed: ``bytes`` (one byte per non-sink vertex) when every
    value the chain can reach fits in 0..255, exact tuples otherwise.  A read
    drops the same grains again from the nearest stored state at or before
    it, on the same kernel with the same budget, so no rebuild raises.
    Iteration and a slice replay once, in increasing step order, restarting
    from each stored state that lies past the step before; a slice returns
    a list.  ``==`` compares element-wise with lists and other traces.
    """

    __slots__ = ("_g", "_drops", "_at", "_states")

    def __init__(self, g: RootedMultigraph, drops: array, at: array, states: list):
        self._g = g
        self._drops = drops
        self._at = at  # states[j] is the state after at[j] drops; at[0] == 0
        self._states = states

    def __len__(self) -> int:
        return len(self._drops)

    def _replay(self, steps: range):
        """``(i, cur)`` for each step ``i`` of the increasing ``steps``:
        ``cur``, one list reused, is the state after drop ``i`` (step -1:
        the start), dropped again in one ``_redrop`` from the step before,
        or from the stored state at or before ``i`` past the step before."""
        # a: the drops cur holds at the step before.  The first pass gathers
        # the drops each step replays, and the second replays them
        at, feed, a = self._at, array("I"), -1
        for i in steps:
            a = max(a, at[bisect(at, i + 1) - 1])
            feed += self._drops[a:i + 1]
            a = i + 1
        cur: list = []       # filled from a stored state before any drop
        redone, a = _redrop(self._g, cur, feed), -1
        for i in steps:
            j = bisect(at, i + 1) - 1
            if at[j] > a:    # a stored state lies past the step before
                cur[:] = self._states[j]
                a = at[j]
            for _ in islice(redone, i + 1 - a):
                pass
            a = i + 1
            yield i, cur

    def __getitem__(self, i):
        n, names, drops = len(self._drops), self._g.nonsink, self._drops
        if isinstance(i, slice):
            steps = range(*i.indices(n))
            got = {j: (j + 1, names[drops[j]], tuple(cur)) for j, cur
                   in self._replay(steps if steps.step > 0 else steps[::-1])}
            return [got[j] for j in steps]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace index out of range")
        return i + 1, names[drops[i]], tuple(next(self._replay(range(i, i + 1)))[1])

    def __iter__(self):
        names, drops = self._g.nonsink, self._drops
        for i, cur in self._replay(range(len(drops))):
            yield i + 1, names[drops[i]], tuple(cur)

    def _stored(self):
        """The packed state of each step from 0 (the start), in one replay."""
        wide = type(self._states[0]) is tuple
        return (_pack(cur, wide) for _, cur in self._replay(range(-1, len(self))))

    def __eq__(self, other):
        if not isinstance(other, (ChainTrace, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"ChainTrace({len(self)} steps)"


@dataclass
class MarkovRun:
    """Trajectory of the single-grain-drop chain over stable configurations."""

    start: Config
    steps: int
    seed: int
    trace: Sequence[tuple[int, str, Config]] = field(default_factory=list)


def markov_run(g: RootedMultigraph, start: Sequence[int], steps: int, seed: int,
               mu: Optional[Mapping[str, float] | Sequence[float]] = None
               ) -> MarkovRun:
    """Drop ``steps`` grains at vertices sampled from ``mu`` and stabilise.

    ``mu`` defaults to uniform over non-sink vertices; explicit weights must
    be finite, strictly positive and sum to 1 within 1e-9 (then
    renormalised).  ``steps`` must be a non-negative integer, and
    ``steps * len(g.nonsink)`` at most ``CHAIN_CAP`` (``SizeCapError``).
    Bad arguments raise before any step runs.  The run is a pure function of
    its arguments; its ``trace`` is a ``ChainTrace``.

    The trace keeps the drops, drawn first, and a packed state at step 0
    and wherever the work since the last stored state reaches k =
    ``len(g.nonsink)``: one unit per quiet drop, else the avalanche's kernel
    steps.  So ``trace[i]`` costs O(k) work plus one avalanche, and
    iteration replays the chain once.
    """
    start = _check_config(g, start)
    if any(x >= d for x, d in zip(start, g.nonsink_degrees)):
        raise ValueError("start configuration must be stable")
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    k = len(g.nonsink)
    if steps * k > CHAIN_CAP:
        raise SizeCapError(
            f"chain of {_size(steps)} steps over {k} non-sink vertices "
            f"stores {_size(steps * k)} values, cap {CHAIN_CAP}")
    if mu is None:
        weights = [1.0 / k] * k
    else:
        weights = (_vertex_values(g, mu, "mu") if isinstance(mu, Mapping)
                   else list(mu))
        if len(weights) != k:
            raise ValueError("mu length does not match non-sink vertex count")
        for w in weights:
            if (isinstance(w, bool) or not isinstance(w, Real)
                    or not math.isfinite(w) or w <= 0):
                raise ValueError(
                    f"mu weights must be finite and strictly positive, got {w!r}")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mu weights must sum to 1, got {total}")
        weights = [w / total for w in weights]
    # The cumulative weights are summed once; each draw is then the one
    # random.choices(range(k), weights) makes: a bisection of one random().
    cum = list(accumulate(weights))
    total = cum[-1]
    draw = random.Random(seed).random
    degs = g.nonsink_degrees
    # A stored state is stable, so each entry is below max(degs); only a
    # firing lowers an entry, and it leaves it non-negative, so no entry
    # falls below min(0, *start).  Bytes hold every value in that range
    # when the start has no negative entry and no degree exceeds 256.
    wide = min(start) < 0 or max(degs) > 256
    drops = array("I", (bisect(cum, draw() * total, 0, k - 1)
                        for _ in range(steps)))
    cur, work = list(start), 0
    at, states = array("I", [0]), [_pack(start, wide)]
    for step, done in enumerate(_redrop(g, cur, drops), 1):
        work += done
        if work >= k:
            work = 0
            at.append(step)
            states.append(_pack(cur, wide))
    return MarkovRun(start=start, steps=steps, seed=seed,
                     trace=ChainTrace(g, drops, at, states))


def _write_trace(fh, run: MarkovRun) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["step", "dropped_vertex", "config"])
    writer.writerow([0, "", ",".join(str(x) for x in run.start)])
    for step, vertex, cfg in run.trace:
        writer.writerow([step, vertex, ",".join(str(x) for x in cfg)])


def trace_to_csv(g: RootedMultigraph, run: MarkovRun) -> str:
    """Serialise a run trace; configuration values are comma-joined in
    declaration order."""
    buf = io.StringIO()
    _write_trace(buf, run)
    return buf.getvalue()


def write_trace_csv(g: RootedMultigraph, run: MarkovRun, path) -> None:
    """Stream the rows of ``trace_to_csv`` to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_trace(fh, run)
