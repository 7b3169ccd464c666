"""Command-line interface.

Exit codes: 0 when the command succeeds and every reported property holds,
1 when input is valid but a checked property is false, 2 on usage or
validation errors (malformed files, cap breaches, vectors outside their
domain).
"""

import argparse
import json
import sys
import time
from itertools import islice
from typing import Optional, Sequence

from .errors import SandparkError, SizeCapError
from .enumeration import (
    CLASSES,
    DEFAULT_SPACE_CAP,
    _check_space,
    _make_report,
    _orbit_route,
    count_class,
    expected_count,
    iter_class,
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
    line = f"count={report.count}"
    if report.match is not None:
        line += (f" expected={report.expected} "
                 f"match={str(report.match).lower()}")
    return line


def _listing_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2)`` for a payload whose last key,
    ``elements``, lists integer tuples.  With ``indent`` CPython encodes in
    pure Python, so only the header goes through ``json`` and each element
    is joined directly."""
    elements = payload["elements"]
    head = json.dumps({**payload, "elements": []}, indent=2)
    if not elements:
        return head
    body = ",\n".join("    [\n      " + ",\n      ".join(map(str, e))
                      + "\n    ]" for e in elements)
    return head[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}"


def cmd_enumerate(args) -> int:
    spec = _family_from_args(args)
    if spec is None and args.graph is None:
        raise ValueError("need either --family or --graph")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    target = spec if spec is not None else load_graph(args.graph)
    # the space its output walks, before expected_count builds a family's
    # graph: listing walks every member (deciding each prefix of a family
    # with parts once per orbit), counting a family representatives
    listing = args.output in ("list", "json")
    _check_space(target, args.cls, args.cap,
                 not listing and _orbit_route(target))
    expected = expected_count(target, args.cls) if args.expected else None
    if args.expected and expected is None:
        name = f"{spec.family} {spec.params()}" if spec else args.graph
        raise ValueError(f"no exact prediction for class {args.cls} on {name}")

    if args.output == "list":
        count = 0
        members = iter_class(target, args.cls, cap=args.cap)
        # one write per chunk of members, never the whole listing at once
        while chunk := list(islice(members, 4096)):
            sys.stdout.write("".join([",".join(map(str, item)) + "\n"
                                      for item in chunk]))
            count += len(chunk)
        report = _make_report(target, args.cls, count, 0.0, expected)
        print(_count_line(report))
    elif args.output == "json":
        elements = list(iter_class(target, args.cls, cap=args.cap))
        # one serial walk gives both the elements and the count; the
        # payload carries no timing
        report = _make_report(target, args.cls, len(elements), 0.0, expected)
        payload = {"family": report.family, "params": report.params,
                   "class": report.cls, "count": report.count,
                   "expected": report.expected, "match": report.match,
                   "elements": elements}
        print(_listing_json(payload))
    else:
        start = time.perf_counter()
        count = count_class(target, args.cls, jobs=args.jobs, cap=args.cap)
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

    # The chain's states are stable and checked, and stay packed: one
    # verdict per distinct state, then one per step from step 0 (the start).
    stored = run.trace._stored()
    decided = {s: _recurrent(g, s) for s in dict.fromkeys(stored)}
    verdicts = [decided[s] for s in stored]
    print(f"steps={args.steps} seed={args.seed}")
    print(f"distinct stable states visited: {len(decided)}")
    print(f"recurrent among visited: {sum(decided.values())}")
    if True in verdicts:
        first = verdicts.index(True)
        print(f"first recurrent state at step {first}; all later states "
              f"recurrent: {str(all(verdicts[first:])).lower()}")
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


def build_parser() -> argparse.ArgumentParser:
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
    check.set_defaults(func=cmd_check)

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
    enum.add_argument("--jobs", type=int, default=1)
    enum.add_argument("--cap", type=int, default=DEFAULT_SPACE_CAP,
                      help="maximum candidate-space size")
    enum.set_defaults(func=cmd_enumerate)

    dec = sub.add_parser("decompose",
                         help="split a parking function into prime blocks")
    dec.add_argument("--graph", required=True)
    dec.add_argument("--pf", required=True, help="parking JSON file")
    dec.add_argument("--all", action="store_true",
                     help="print every ordered prime decomposition")
    dec.set_defaults(func=cmd_decompose)

    sim = sub.add_parser("simulate", help="run the grain-dropping chain")
    sim.add_argument("--graph", required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--mu", help="JSON file of drop weights per vertex")
    sim.add_argument("--start",
                     help="stable start configuration (default all zeros)")
    sim.add_argument("--trace", help="write the step trace to this CSV file")
    sim.set_defaults(func=cmd_simulate)

    paths = sub.add_parser("paths", help="lattice-path encodings")
    paths.add_argument("--pf", help="comma-separated parking function")
    paths.add_argument("--kind", choices=["dyck", "lukasiewicz"],
                       default="dyck")
    paths.add_argument("--pq",
                       help="semicolon-separated pair of lattice vectors, "
                            "e.g. '0,0,2,2,3;0,0,1,2'")
    paths.add_argument("--svg", help="write the path(s) as an SVG file")
    paths.set_defaults(func=cmd_paths)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SandparkError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
