"""The three benchmark workloads, their pinned answers and their checks.

Each workload is a closed loop: one client issues its operations one after
the other, each after the previous one returned.  An operation is one
instance or phase; it is timed on its own and its output is checked after
the pass, outside every timed region.  The checks never call the code under
test to obtain an expected value: counts are compared with literals pinned
from closed forms, the sandpile with a Laplacian the benchmark builds from
its own edge list, and the spanning-tree count with a pinned integer whose
residues the benchmark recomputes by its own elimination.

Why these workloads:

* ``sparse_count`` -- classes that reject almost every candidate, so nearly
  all time goes to ``parking.is_g_parking``, ``parking.is_prime`` and
  ``sandpile.is_strongly_recurrent``.  It is the only workload that goes
  through the CLI (``enumerate --output json``, which walks the space twice).
  ``stabilize`` never runs.
* ``dense_count`` -- classes that accept most candidates, counted with
  ``jobs=1`` and then with ``jobs=min(2, cpu_count)`` on the same instances,
  which isolates the process pool of ``enumeration.count_class``.
* ``grid_avalanche`` -- a 16x16 grid whose border edges go to the sink: a
  4,000-grain pile is stabilised, the grain-dropping chain runs 5,000 seeded
  drops from the maximal stable configuration, and the grid's spanning trees
  are counted.  The only workload where ``stabilize``, the Markov step and
  ``spanning_tree_count`` do real work; it enumerates nothing.

The counting workloads are exhaustive over fixed families, so the seed does
not change their inputs; in ``grid_avalanche`` it drives the drop sequence.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable, Optional

# Exact answers, pinned from closed forms and never recomputed by the
# program at run time:  K_n ppf = (n-1)^(n-1),  K_n recurrent = (n+1)^(n-1),
# W_n recurrent = L_2n - 2 (Lucas),  W_n sr-forall = n + 1,
# K_n ppf-inc = Catalan(n-1),  K(4,3) ppf = 809 (tripartite closed form).
PINS = {
    "K6-ppf": 5 ** 5,
    "K4_3-ppf": 809,
    "W10-sr-forall": 11,
    "K9-ppf-inc": 1430,
    "K6-recurrent": 7 ** 5,
    "W10-recurrent": 15127 - 2,
    # odometer sum of the 4,000-grain centre pile on the 16x16 grid
    "grid-topplings": 78381,
    # spanning trees of the 16x16 grid with its border wired to the sink;
    # agrees with prod_{j,k} (4 - 2cos(j pi/17) - 2cos(k pi/17)) to 1e-12
    "grid-trees": int(
        "1020132137529169388932426409774052646971282835659919876720032228"
        "0247746624930490358913254205021559687197571770712699935135746635"
        "071488"),
}

# name: (FamilySpec arguments, class, size of the candidate space)
INSTANCES = {
    "K6-ppf": ({"family": "complete", "n": 6}, "ppf", 6 ** 6),
    "K4_3-ppf": ({"family": "tripartite", "p": 4, "q": 3}, "ppf", 4 ** 4 * 5 ** 3),
    "W10-sr-forall": ({"family": "wheel", "n": 10}, "sr-forall", 3 ** 10),
    # non-decreasing 9-tuples over 1..9
    "K9-ppf-inc": ({"family": "complete", "n": 9}, "ppf-inc", comb(17, 9)),
    "K6-recurrent": ({"family": "complete", "n": 6}, "recurrent", 6 ** 6),
    "W10-recurrent": ({"family": "wheel", "n": 10}, "recurrent", 3 ** 10),
}
CLI_INSTANCE = "K6-ppf"

GRID_SIDE = 16
PILE_GRAINS = 4000
CHAIN_STEPS = 5000
# primes for the benchmark's own check of the pinned tree count
CHECK_PRIMES = (2 ** 61 - 1, 2 ** 89 - 1)


@dataclass
class Op:
    """One operation of a workload's closed loop.

    ``kind`` says which end-to-end figure its time feeds: ``serial`` and
    ``jobs`` counts (with ``space`` candidates), ``pile``, ``chain`` or
    ``tree``.  ``check`` returns None when the output is right, else a
    message; it also sees the outputs of the whole pass.
    """

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], Optional[str]]
    space: int = 0


def _fill_cached(g) -> None:
    for prop in ("index", "sink_index", "nonsink", "nonsink_indices",
                 "nonsink_pos", "degrees", "nonsink_degrees", "sink_mults",
                 "nonsink_adj", "edge_total"):
        getattr(g, prop)


# ----------------------------------------------------------------------
# counting workloads


def _expect_count(name: str):
    def check(count, _outputs):
        if count != PINS[name]:
            return f"{name}: count {count}, pinned {PINS[name]}"
        return None
    return check


def _expect_serial_count(name: str):
    def check(count, outputs):
        if count != PINS[name]:
            return f"{name} with jobs: count {count}, pinned {PINS[name]}"
        if outputs.get(name) != count:
            return f"{name}: jobs count {count} != serial {outputs.get(name)}"
        return None
    return check


def _check_cli(result, _outputs):
    rc, text = result
    if rc != 0:
        return f"cli enumerate exited {rc}"
    doc = json.loads(text)
    want = PINS[CLI_INSTANCE]
    elements = {tuple(e) for e in doc["elements"]}
    if doc["count"] != want or len(doc["elements"]) != want or len(elements) != want:
        return (f"cli {CLI_INSTANCE}: count {doc['count']}, "
                f"{len(elements)} distinct elements, pinned {want}")
    if any(not 1 <= x <= 6 for e in elements for x in e):
        return f"cli {CLI_INSTANCE}: element outside 1..6"
    return None


def _count_state(sp, names) -> dict:
    specs = {}
    for name in names:
        kwargs, _cls, _space = INSTANCES[name]
        specs[name] = sp.families.FamilySpec(**kwargs)
        _fill_cached(sp.families.make_family(specs[name]))
    return specs


def _count_op(sp, specs, name, jobs) -> Op:
    _kwargs, cls, space = INSTANCES[name]
    if jobs == 1:
        return Op(name, "serial",
                  lambda: sp.enumeration.count_class(specs[name], cls, jobs=1),
                  _expect_count(name), space)
    return Op(f"{name}-jobs", "jobs",
              lambda: sp.enumeration.count_class(specs[name], cls, jobs=jobs),
              _expect_serial_count(name), space)


def _cli_op(sp) -> Op:
    kwargs, cls, space = INSTANCES[CLI_INSTANCE]
    argv = ["enumerate", "--family", kwargs["family"], "--n", str(kwargs["n"]),
            "--class", cls, "--output", "json", "--expected"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = sp.cli.main(argv)
        return rc, buf.getvalue()

    return Op(CLI_INSTANCE, "serial", run, _check_cli, space)


SPARSE = ("K6-ppf", "K4_3-ppf", "W10-sr-forall", "K9-ppf-inc")
DENSE = ("K6-recurrent", "W10-recurrent")


def sparse_setup(sp, _seed):
    return _count_state(sp, SPARSE)


def sparse_ops(sp, specs, _jobs) -> list[Op]:
    return [_cli_op(sp)] + [_count_op(sp, specs, n, 1) for n in SPARSE[1:]]


def dense_setup(sp, _seed):
    return _count_state(sp, DENSE)


def dense_ops(sp, specs, jobs) -> list[Op]:
    return ([_count_op(sp, specs, n, 1) for n in DENSE]
            + [_count_op(sp, specs, n, jobs) for n in DENSE])


# ----------------------------------------------------------------------
# grid workload


def grid_edges(side: int = GRID_SIDE) -> tuple[list[str], list[tuple[str, str, int]]]:
    """Grid vertices (sink first) and edges; every vertex has degree 4."""
    names = ["s"] + [f"{r}_{c}" for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            v = f"{r}_{c}"
            if c + 1 < side:
                edges.append((v, f"{r}_{c + 1}", 1))
            if r + 1 < side:
                edges.append((v, f"{r + 1}_{c}", 1))
            border = (r == 0) + (r == side - 1) + (c == 0) + (c == side - 1)
            if border:
                edges.append((v, "s", border))
    return names, edges


class GridReference:
    """The grid's reduced Laplacian, built from the edge list alone."""

    def __init__(self, names, edges):
        pos = {v: i for i, v in enumerate(names[1:])}
        k = len(pos)
        self.degree = [0] * k
        self.nbrs: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for v, w, m in edges:
            for a, b in ((v, w), (w, v)):
                if a in pos:
                    self.degree[pos[a]] += m
                    if b in pos:
                        self.nbrs[pos[a]].append((pos[b], m))

    def laplacian_times(self, u) -> list[int]:
        return [d * x - sum(m * u[j] for j, m in row)
                for d, x, row in zip(self.degree, u, self.nbrs)]

    def is_stable(self, c) -> bool:
        return all(0 <= x < d for x, d in zip(c, self.degree))

    def det_mod(self, p: int, band: int) -> int:
        """Reduced-Laplacian determinant mod ``p`` by banded elimination.

        Without pivoting, fill-in stays inside the band, so this costs
        k * band^2 steps.  A pivot that vanishes mod ``p`` is reported.
        """
        k = len(self.degree)
        a = [[0] * k for _ in range(k)]
        for i, (d, row) in enumerate(zip(self.degree, self.nbrs)):
            a[i][i] = d % p
            for j, m in row:
                a[i][j] = (a[i][j] - m) % p
        det = 1
        for col in range(k):
            pivot = a[col][col]
            if pivot == 0:
                raise ArithmeticError(f"zero pivot mod {p} at column {col}")
            det = det * pivot % p
            inv = pow(pivot, -1, p)
            last = min(k, col + band + 1)
            for i in range(col + 1, last):
                f = a[i][col] * inv % p
                if f:
                    ri, rc = a[i], a[col]
                    for j in range(col, last):
                        ri[j] = (ri[j] - f * rc[j]) % p
        return det


def reference_kernel(side: int = 12, grains: int = 600) -> Callable[[], None]:
    """Fixed pure-Python work that never calls the program.

    A scan-based stabilisation of a centre pile on a small grid plus one
    modular determinant.  Timed between operations, it tracks how fast the
    host runs at that moment.
    """
    names, edges = grid_edges(side)
    ref = GridReference(names, edges)
    k = len(ref.degree)
    centre = (side // 2) * side + side // 2

    def kernel() -> None:
        cur = [0] * k
        cur[centre] = grains
        while True:
            unstable = [i for i in range(k) if cur[i] >= ref.degree[i]]
            if not unstable:
                break
            i = unstable[0]
            cur[i] -= ref.degree[i]
            for j, m in ref.nbrs[i]:
                cur[j] += m
        ref.det_mod(CHECK_PRIMES[0], side)

    return kernel


@dataclass
class GridState:
    graph: Any
    pile: tuple
    top: tuple
    chain_seed: int


def grid_setup(sp, seed):
    names, edges = grid_edges()
    g = sp.graph.build_graph(names, "s", edges)
    _fill_cached(g)
    k = len(g.nonsink)
    pile = [0] * k
    pile[(GRID_SIDE // 2) * GRID_SIDE + GRID_SIDE // 2] = PILE_GRAINS
    top = tuple(d - 1 for d in g.nonsink_degrees)
    return GridState(g, tuple(pile), top, random.Random(seed).randrange(2 ** 31))


def grid_ops(sp, state: GridState, _jobs) -> list[Op]:
    names, edges = grid_edges()
    ref = GridReference(names, edges)
    residues = {p: ref.det_mod(p, GRID_SIDE) for p in CHECK_PRIMES}
    g = state.graph

    def pile():
        trace = sp.sandpile.stabilize(g, state.pile)
        return trace.final, trace.odometer

    def check_pile(out, _outputs):
        final, odometer = out
        if not ref.is_stable(final):
            return "pile: final configuration is not stable"
        if min(odometer) < 0 or sum(odometer) != PINS["grid-topplings"]:
            return f"pile: {sum(odometer)} topplings, pinned {PINS['grid-topplings']}"
        moved = ref.laplacian_times(odometer)
        if any(a - b != f for a, b, f in zip(state.pile, moved, final)):
            return "pile: initial - Laplacian * odometer != final"
        return None

    def chain():
        run = sp.sandpile.markov_run(g, state.top, CHAIN_STEPS, state.chain_seed)
        return len(run.trace), run.trace[-1][2]

    def check_chain(out, _outputs):
        steps, last = out
        if steps != CHAIN_STEPS:
            return f"chain: {steps} steps, asked for {CHAIN_STEPS}"
        if not ref.is_stable(last):
            return "chain: last state is not stable"
        if not sp.sandpile.is_recurrent(g, last):
            return "chain: is_recurrent rejects the last state"
        if sp.sandpile.burning_sequence(g, last) is None:
            return "chain: burning test rejects the last state"
        return None

    def check_tree(count, _outputs):
        if count != PINS["grid-trees"]:
            return "tree: count differs from the pinned value"
        if any(PINS["grid-trees"] % p != r for p, r in residues.items()):
            return "tree: pinned value disagrees with the modular determinant"
        return None

    return [Op("pile", "pile", pile, check_pile),
            Op("chain", "chain", chain, check_chain),
            # looked up per call, so a traced run sees the wrapped method
            Op("tree", "tree", lambda: g.spanning_tree_count(), check_tree)]


@dataclass
class Workload:
    """``setup(sp, seed)`` builds the inputs; ``ops(sp, state, jobs)`` the loop."""

    setup: Callable
    ops: Callable


WORKLOADS = {
    "sparse_count": Workload(sparse_setup, sparse_ops),
    "dense_count": Workload(dense_setup, dense_ops),
    "grid_avalanche": Workload(grid_setup, grid_ops),
}
