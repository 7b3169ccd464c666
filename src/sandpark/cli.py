"""Command-line interface.

Exit codes: 0 when the command succeeds and every reported property holds,
1 when input is valid but a checked property is false, 2 on usage or
validation errors (malformed files, cap breaches, vectors outside their
domain).
"""

import argparse
import functools
import json
import sys
import time
from typing import Iterator, Optional, Sequence

from .errors import SandparkError, SizeCapError
from .enumeration import (
    CLASSES,
    DEFAULT_SPACE_CAP,
    _decimal,
    _make_report,
    _pairs,
    _plan,
    count_class,
    expected_count,
    reports_to_csv,
)
from .families import (
    FAMILIES,
    FamilySpec,
    is_pq_parking,
    is_prime_pq,
    path_with_e_heights,
    path_with_n_positions,
)
from .graph import load_graph
from .parking import (
    failing_boost_vertex,
    is_g_parking,
    is_prime,
    load_parking,
    prime_decompositions,
)
from .classical import to_path
from .reference import (decomposing_partition, is_g_parking_naive,
                        is_prime_bruteforce, is_recurrent_orientation,
                        parking_violation)
from .sandpile import (
    _document_values,
    _first_drain,
    _recurrent,
    burning_sequence,
    is_minimal_recurrent,
    is_recurrent,
    is_recurrent_burning,
    is_stable,
    is_strongly_recurrent,
    load_config,
    markov_run,
    max_forbidden_set,
    write_trace_csv,
)

USAGE_ERROR = 2
PROPERTY_FALSE = 1
OK = 0


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _fmt_set(names: Sequence[str]) -> str:
    return "{" + ", ".join(names) + "}"


def _fmt_blocks(blocks: Sequence[Sequence[str]]) -> str:
    return "(" + ", ".join(_fmt_set(b) for b in blocks) + ")"


def _witness(oracle, *args):
    """The oracle's witness, or None when the graph is above its size cap."""
    try:
        return oracle(*args)
    except SizeCapError:
        return None


# ----------------------------------------------------------------------
# check


# property -> {oracle: route}, the default route first.  A property with no
# routes has one test, and takes no --oracle.
_ROUTES = {
    "recurrent": {"burning": is_recurrent_burning, "forbidden": is_recurrent,
                  "orientation": is_recurrent_orientation},
    "strongly-recurrent": {},
    "minimal-recurrent": {},
    "parking": {"fast": is_g_parking, "bruteforce": is_g_parking_naive},
    "prime": {"fast": is_prime, "bruteforce": is_prime_bruteforce},
}


def cmd_check(args) -> int:
    prop = args.property
    routes = _ROUTES[prop]
    if args.oracle not in (None, *routes):
        raise ValueError(f"oracle {args.oracle!r} does not test {prop}")
    route = routes.get(args.oracle) or next(iter(routes.values()), None)
    g = load_graph(args.graph)
    values = load_config(g, args.input)

    if prop == "parking":
        parks = route(g, values)
        print(f"parking={str(parks).lower()}")
        if not parks:
            witness = _witness(parking_violation, g, values)
            if witness is not None:
                print(f"violating set: {_fmt_set(witness)}")
            return PROPERTY_FALSE
        return OK
    if prop == "prime":
        prime = route(g, values)
        print(f"prime={str(prime).lower()}")
        if not prime:
            v = failing_boost_vertex(g, values)
            if v is not None:
                print(f"failing boost vertex: {v}")
            parts = _witness(decomposing_partition, g, values)
            if parts is not None:
                print(f"decomposing partition: {_fmt_blocks(parts)}")
            return PROPERTY_FALSE
        return OK

    stable = is_stable(g, values)
    # recurrent configurations are stable and non-negative, whatever the
    # route; the burning and orientation routes refuse any other input
    in_domain = stable and all(x >= 0 for x in values)
    # on the burning route one burn gives the verdict and its sequence
    burn = in_domain and route is is_recurrent_burning
    seq = burning_sequence(g, values) if burn else None
    if prop == "recurrent":
        verdict = seq is not None if burn else in_domain and route(g, values)
    elif prop == "strongly-recurrent":
        verdict = is_strongly_recurrent(g, values, args.quantifier)
    else:
        verdict = is_minimal_recurrent(g, values)

    print(f"{prop}={str(verdict).lower()}")
    if not stable:
        print("configuration is not stable")
    if verdict and in_domain:
        seq = seq or burning_sequence(g, values)
        if seq is not None:
            print("burning sequence: " + " -> ".join(seq))
    if not verdict:
        forbidden = max_forbidden_set(g, values)
        if forbidden:
            print(f"forbidden set: {_fmt_set(forbidden)}")
        if prop == "strongly-recurrent" and is_recurrent(g, values):
            v = _first_drain(g, values, False)
            if v is not None:
                print(f"draining start {v} leaves a non-recurrent state")
    return OK if verdict else PROPERTY_FALSE


# ----------------------------------------------------------------------
# enumerate


def _family_from_args(args) -> Optional[FamilySpec]:
    if not args.family:
        return None
    return FamilySpec(args.family, n=args.n, p=args.p, q=args.q, m=args.m)


def _count_line(report) -> str:
    line = f"count={_decimal(report.count)}"
    if report.match is not None:
        line += (f" expected={_decimal(report.expected)} "
                 f"match={str(report.match).lower()}")
    return line


# (row opening, value separator, row close, row separator) of a listing's
# text: a row per line, or the rows of ``json.dumps(..., indent=2)``
_LIST = ("", ",", "\n", "")
_JSON = ("    [\n      ", ",\n      ", "\n    ]", ",\n")
# rows per write of a list
_CHUNK = 4096


def _chunks(pairs, fmt) -> Iterator[tuple[int, str]]:
    """The text of a listing's ``(prefix, texts)`` pairs in the format
    ``fmt``, as ``(rows, text)`` chunks of ``_CHUNK`` rows, the last of fewer.

    A prefix's text ends on a value, and each of its texts is a cell per
    later value, the value separator then its digits, then the row close
    (``_pairs``).  A prefix's rows are its text followed by each of its
    texts, joined in one call, and the row separator joins the chunks.  A
    block is split where a chunk ends, and an empty block writes nothing.
    """
    opening, sep, _, rowsep = fmt
    pieces: list = []
    room = _CHUNK
    for prefix, texts in pairs:
        if not texts:
            continue
        head = opening + sep.join(map(str, prefix))
        glue = rowsep + head
        while len(texts) >= room:
            pieces.append(head + glue.join(texts[:room]))
            yield _CHUNK, rowsep.join(pieces)
            pieces, texts, room = [], texts[room:], _CHUNK
        if texts:
            pieces.append(head + glue.join(texts))
            room -= len(texts)
    if pieces:
        yield _CHUNK - room, rowsep.join(pieces)


def _listing_json(payload: dict, texts: list) -> str:
    """``json.dumps(payload, indent=2)`` with its last key, ``elements``,
    an empty list, filled with the rows of ``texts``, the chunks' texts of
    ``_chunks`` in ``_JSON``.  With ``indent`` CPython encodes in pure
    Python, so only the header goes through ``json``."""
    head = json.dumps(payload, indent=2)
    if not texts:
        return head
    body = _JSON[3].join(texts)
    return head[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}"


def cmd_enumerate(args) -> int:
    spec = _family_from_args(args)
    if spec is None and args.graph is None:
        raise ValueError("need either --family or --graph")
    target = spec if spec is not None else load_graph(args.graph)
    # the walk its output runs (the table in enumeration) is checked before
    # expected_count builds a family's graph
    fmt = {"list": _LIST, "json": _JSON}.get(args.output)
    plan = _plan(target, args.cls, args.cap, fmt is None)
    expected = expected_count(target, args.cls) if args.expected else None
    if args.expected and expected is None:
        name = f"{spec.family} {spec.params()}" if spec else args.graph
        raise ValueError(f"no exact prediction for class {args.cls} on {name}")

    if fmt is not None:
        # one walk gives both the rows and the count; the output
        # carries no timing
        chunks = _chunks(_pairs(target, args.cls, plan,
                                (fmt[1] + "{}").format, fmt[2]), fmt)
    if args.output == "list":
        count = 0
        # one write per chunk, never the whole listing at once
        for rows, text in chunks:
            sys.stdout.write(text)
            count += rows
        report = _make_report(target, args.cls, count, 0.0, expected)
        print(_count_line(report))
    elif args.output == "json":
        chunks = list(chunks)
        report = _make_report(target, args.cls,
                              sum(rows for rows, _ in chunks), 0.0, expected)
        payload = {"family": report.family, "params": report.params,
                   "class": report.cls, "count": report.count,
                   "expected": report.expected, "match": report.match,
                   "elements": []}
        print(_listing_json(payload, [text for _, text in chunks]))
    else:
        start = time.perf_counter()
        count = count_class(target, args.cls, cap=args.cap)
        report = _make_report(target, args.cls, count,
                              (time.perf_counter() - start) * 1000.0, expected)
        if args.output == "csv":
            sys.stdout.write(reports_to_csv([report]))
        else:
            print(f"{report.family} {report.params} {report.cls}: "
                  + _count_line(report))
    return PROPERTY_FALSE if report.match is False else OK


# ----------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    g = load_graph(args.graph)
    values = load_parking(g, args.pf)
    decompositions = prime_decompositions(g, values)
    shown = decompositions if args.all else decompositions[:1]
    for blocks in shown:
        print(_fmt_blocks(blocks))
    print(f"decompositions={len(decompositions)}"
          f" prime={str(len(decompositions[0]) == 1).lower()}")
    return OK


# ----------------------------------------------------------------------
# simulate


def _load_mu(path):
    with open(path, encoding="utf-8") as fh:
        return _document_values(json.load(fh), "mu")


def cmd_simulate(args) -> int:
    g = load_graph(args.graph)
    start = (load_config(g, args.start) if args.start
             else (0,) * len(g.nonsink))
    mu = _load_mu(args.mu) if args.mu else None
    run = markov_run(g, start, args.steps, args.seed, mu=mu)

    # The chain's states are stable and checked, and stay packed, read one
    # step at a time from step 0 (the start): one verdict per distinct state.
    decided, first, later = {}, None, True
    for step, s in enumerate(run.trace._stored()):
        verdict = decided.get(s)
        if verdict is None:
            verdict = decided[s] = _recurrent(g, s)
        if first is not None:
            later = later and verdict
        elif verdict:
            first = step
    print(f"steps={args.steps} seed={args.seed}")
    print(f"distinct stable states visited: {len(decided)}")
    print(f"recurrent among visited: {sum(decided.values())}")
    if first is not None:
        print(f"first recurrent state at step {first}; all later states "
              f"recurrent: {str(later).lower()}")
    if args.trace:
        write_trace_csv(g, run, args.trace)
        print(f"trace written to {args.trace}")
    return OK


# ----------------------------------------------------------------------
# paths


def _svg_from_polylines(polylines, unit=24, margin=12) -> str:
    width = max(x for pts in polylines for x, _ in pts)
    height = max(1, max(y for pts in polylines for _, y in pts))
    w = width * unit + 2 * margin
    h = height * unit + 2 * margin

    def fmt(points):
        return " ".join(f"{margin + x * unit},{h - margin - y * unit}"
                        for x, y in points)

    colors = ("black", "firebrick")
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">']
    for pts, color in zip(polylines, colors):
        lines.append(f'  <polyline points="{fmt(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_paths(args) -> int:
    if (args.pf is None) == (args.pq is None):
        raise ValueError("give exactly one of --pf or --pq")

    if args.pf is not None:
        p = _parse_vector(args.pf)
        path = to_path(p, args.kind)
        print(f"{args.kind} word: {path.word}")
        touches = path.axis_touches()
        print("axis touches: " + ",".join(str(t) for t in touches))
        prime = touches == (len(p),)
        print(f"prime={str(prime).lower()}")
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(_svg_from_polylines([path.points()]))
            print(f"svg written to {args.svg}")
        return OK if prime else PROPERTY_FALSE

    a_text, _, b_text = args.pq.partition(";")
    if not b_text:
        raise ValueError("--pq expects 'a-vector;b-vector'")
    a = _parse_vector(a_text)
    b = _parse_vector(b_text)
    p, q = len(a), len(b)
    lower = path_with_e_heights(a, q)
    upper = path_with_n_positions(b, p)
    print(f"lower path: {lower.word}")
    print(f"upper path: {upper.word}")
    pp = tuple(x + 1 for x in a)
    pq_vals = tuple(x + 1 for x in b)
    parking = is_pq_parking(pp, pq_vals)
    print(f"weakly-above={str(parking).lower()}")
    prime = False
    if parking:
        prime = is_prime_pq(pp, pq_vals)
        meet = sorted(set(lower.points()) & set(upper.points()))
        print("intersection points: " +
              " ".join(f"({x},{y})" for x, y in meet))
        print(f"endpoint-only intersection={str(prime).lower()}")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_svg_from_polylines([lower.points(), upper.points()]))
        print(f"svg written to {args.svg}")
    return OK if parking and prime else PROPERTY_FALSE


# ----------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared
    by every caller."""
    parser = argparse.ArgumentParser(
        prog="sandpark",
        description="Sandpile recurrence and parking functions on rooted "
                    "multigraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="test one configuration or vector")
    check.add_argument("--graph", required=True, help="graph JSON file")
    check.add_argument("--input", required=True,
                       help="configuration/parking JSON file")
    check.add_argument("--property", required=True, choices=_ROUTES)
    check.add_argument("--quantifier", choices=["forall", "exists"],
                       default="forall")
    check.add_argument("--oracle", choices=list(dict.fromkeys(
        oracle for routes in _ROUTES.values() for oracle in routes)))

    enum = sub.add_parser("enumerate", help="list or count a class")
    enum.add_argument("--family", choices=FAMILIES)
    enum.add_argument("--n", type=int)
    enum.add_argument("--p", type=int)
    enum.add_argument("--q", type=int)
    enum.add_argument("--m", type=int)
    enum.add_argument("--graph", help="graph JSON file (instead of --family)")
    enum.add_argument("--class", dest="cls", required=True, choices=CLASSES)
    enum.add_argument("--output", choices=["csv", "json", "list"])
    enum.add_argument("--expected", action="store_true",
                      help="compare against the known exact count")
    enum.add_argument("--cap", type=int, default=DEFAULT_SPACE_CAP,
                      help="maximum candidate-space size")

    dec = sub.add_parser("decompose",
                         help="split a parking function into prime blocks")
    dec.add_argument("--graph", required=True)
    dec.add_argument("--pf", required=True, help="parking JSON file")
    dec.add_argument("--all", action="store_true",
                     help="print every ordered prime decomposition")

    sim = sub.add_parser("simulate", help="run the grain-dropping chain")
    sim.add_argument("--graph", required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--mu", help="JSON file of drop weights per vertex")
    sim.add_argument("--start",
                     help="stable start configuration (default all zeros)")
    sim.add_argument("--trace", help="write the step trace to this CSV file")

    paths = sub.add_parser("paths", help="lattice-path encodings")
    paths.add_argument("--pf", help="comma-separated parking function")
    paths.add_argument("--kind", choices=["dyck", "lukasiewicz"],
                       default="dyck")
    paths.add_argument("--pq",
                       help="semicolon-separated pair of lattice vectors, "
                            "e.g. '0,0,2,2,3;0,0,1,2'")
    paths.add_argument("--svg", help="write the path(s) as an SVG file")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, not bound into the shared parser
        return globals()[f"cmd_{args.command}"](args)
    except (SandparkError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
