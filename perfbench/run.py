"""Benchmark for sandpark: exhaustive counting and grid avalanches.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sparse_count --seed 1 --seconds 30 --trace 0

``--workload`` is ``sparse_count``, ``dense_count``, ``grid_avalanche`` or
``all``.  Each workload runs in a fresh forked process, so peak memory and
the program's graph-keyed caches do not carry over.  That process imports
``sandpark`` from ``src/`` and builds its inputs several times (``setup_s``
is the median), then repeats passes over the workload's operations until
``--seconds`` would be exceeded, at least once, and checks every output.
With ``--trace 1`` one further pass runs with every public function of the
package wrapped (see ``tracing.py``); its aggregated spans are written to
``perfbench/out/``.

The speed of the shared host drifts by up to a fifth over minutes, far more
than a regression worth catching, so the gated pass time is relative:
before every operation the process times a fixed pure-Python reference
kernel that never calls the program (``workloads.reference_kernel``), and
``pass_rel`` is a pass's wall time divided by the kernel time around it.
A change to the program moves only the numerator.  Raw wall times are
reported alongside.

The report lists every figure as the median over passes with its sample
count.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of ``BENCHMARK.json`` untraced, its per-layer metrics traced.  The exit code
is 0 when every check passed, 1 when an operation failed or returned a wrong
answer, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
# reference-kernel calls before each operation (about 0.15 s)
REFERENCE_REPS = 4

# Gated end-to-end metrics; every workload reports each of them.
END_TO_END_UNITS = {"setup_s": "s", "pass_rel": "ratio", "peak_rss_mb": "MB"}
# Further end-to-end figures, each reported by the workloads it applies to.
FIGURE_UNITS = {"pass_s": "s", "reference_s": "s", "pass_rel": "ratio",
                "candidates_per_s": "1/s", "candidates_per_s_jobs": "1/s",
                "topplings_per_s": "1/s", "drops_per_s": "1/s",
                "tree_count_s": "s", "worker_cpu_s": "s",
                "worker_cpu_ratio": "ratio"}

TRACED_FUNCTIONS = (
    "graph.spanning_tree_count", "graph.build_graph", "families.make_family",
    "sandpile.stabilize", "sandpile.markov_run", "sandpile.is_recurrent",
    "sandpile.max_forbidden_set", "sandpile.is_strongly_recurrent",
    "parking.is_g_parking", "parking.is_prime", "enumeration.count_class",
    "enumeration.iter_class", "cli.main")
# Modules whose self time is non-zero on every workload.
SELF_TIME_LAYERS = ("graph", "sandpile")


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_sandpark():
    """Import a fresh copy of the package from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "sandpark" or n.startswith("sandpark.")]:
        del sys.modules[name]
    sp = importlib.import_module("sandpark")
    for layer in tracing.LAYERS:
        importlib.import_module(f"sandpark.{layer}")
    if Path(sp.__file__).resolve().parent != SRC / "sandpark":
        raise SetupError(f"imported sandpark from {sp.__file__}, not from {SRC}")
    return sp


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def median_n(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values)}


# ----------------------------------------------------------------------
# one workload, inside its own process


@dataclass
class Pass:
    """Per-operation times, outputs and problems of one pass."""

    times: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)
    worker_cpu: float = 0.0
    reference_s: float = 0.0


def run_pass(ops, tracer=None, kernel=None) -> Pass:
    """Issue every operation once, timing ``kernel`` before each when given."""
    done = Pass()
    for op in ops:
        if kernel is not None:
            start = perf_counter()
            for _ in range(REFERENCE_REPS):
                kernel()
            done.reference_s += perf_counter() - start
        if tracer is not None:
            tracer.op = op.name
        cpu = children_cpu_s()
        start = perf_counter()
        try:
            done.outputs[op.name] = op.run()
        except Exception as exc:  # an operation that raises is a failure; go on
            done.problems[op.name] = f"{op.name}: {type(exc).__name__}: {exc}"
        done.times[op.name] = perf_counter() - start
        if op.kind == "jobs":
            done.worker_cpu += children_cpu_s() - cpu
    return done


def check_pass(ops, outputs, problems) -> None:
    for op in ops:
        if op.name not in outputs:
            continue
        try:
            message = op.check(outputs[op.name], outputs)
        except Exception as exc:
            message = f"{op.name}: check raised {type(exc).__name__}: {exc}"
        if message:
            problems[op.name] = message


def pass_figures(ops, done: Pass) -> dict[str, float]:
    times, outputs = done.times, done.outputs
    by_kind: dict[str, list] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    fig = {"pass_s": sum(times.values()), "reference_s": done.reference_s}
    fig["pass_rel"] = fig["pass_s"] / done.reference_s
    serial_s = sum(times[op.name] for op in by_kind.get("serial", ()))
    for kind, key in (("serial", "candidates_per_s"), ("jobs", "candidates_per_s_jobs")):
        if kind in by_kind:
            fig[key] = (sum(op.space for op in by_kind[kind])
                        / sum(times[op.name] for op in by_kind[kind]))
    if "jobs" in by_kind:
        fig["worker_cpu_s"] = done.worker_cpu
        fig["worker_cpu_ratio"] = done.worker_cpu / serial_s
    if "pile" in outputs:
        fig["topplings_per_s"] = sum(outputs["pile"][1]) / times["pile"]
    if "chain" in outputs:
        fig["drops_per_s"] = outputs["chain"][0] / times["chain"]
    if "tree" in times:
        fig["tree_count_s"] = times["tree"]
    return fig


def layer_metrics(tracer, ops, untraced: dict, traced_pass_s: float) -> tuple[dict, dict]:
    """Per-layer metrics for the result line, and further per-layer figures."""
    totals = tracer.totals()
    op_names = {op.name for op in ops}
    metrics, extra = {}, {}
    for name in TRACED_FUNCTIONS:
        calls, _total, own = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        extra[f"{name}.self_s"] = (own, "s")
        pct = tracer.percentiles_us(name)
        if pct is not None:
            extra[f"{name}.p50_us"] = (pct[0], "us")
            extra[f"{name}.p99_us"] = (pct[1], "us")
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (sum(row[2] for name, row in totals.items()
                                          if name.startswith(layer + ".")), "s")
    metrics["sandpile.topplings"] = (tracer.topplings, "count")
    metrics["sandpile.log_entries"] = (tracer.log_entries, "count")
    if "chain" in op_names:
        chain_s = tracer.totals("chain").get("sandpile.markov_run", (0, 0.0))[1]
        extra["sandpile.markov_step_us"] = (chain_s / workloads.CHAIN_STEPS * 1e6, "us")
    cand_all = acc_all = 0
    for inst in workloads.INSTANCES:
        cand = tracer.candidates(inst) if inst in op_names else 0
        acc = tracer.yields.get(inst, 0)
        walks = tracer.totals(inst).get(tracing.ITER_CLASS, (0,))[0] if inst in op_names else 0
        cand_all += cand
        acc_all += acc
        metrics[f"enumeration.candidates.{inst}"] = (cand, "count")
        metrics[f"enumeration.accepted.{inst}"] = (acc, "count")
        metrics[f"enumeration.accept_ratio.{inst}"] = (acc / cand if cand else 0.0, "ratio")
        metrics[f"enumeration.iter_class.calls.{inst}"] = (walks, "count")
    metrics["enumeration.candidates"] = (cand_all, "count")
    metrics["enumeration.accepted"] = (acc_all, "count")
    metrics["enumeration.accept_ratio"] = (acc_all / cand_all if cand_all else 0.0, "ratio")
    ratio = untraced.get("worker_cpu_ratio")
    metrics["enumeration.worker_cpu_ratio"] = (ratio["median"] if ratio else 0.0, "ratio")
    if "worker_cpu_s" in untraced:
        extra["enumeration.worker_cpu_s"] = (untraced["worker_cpu_s"]["median"], "s")
    metrics["trace.overhead_ratio"] = (traced_pass_s / untraced["pass_s"]["median"], "ratio")
    return metrics, extra


def measure(name: str, seed: int, seconds: float, trace: bool, jobs: int) -> dict:
    wl = workloads.WORKLOADS[name]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        sp = import_sandpark()
        state = wl.setup(sp, seed)
        setup_s.append(perf_counter() - start)
    ops = wl.ops(sp, state, jobs)
    kernel = workloads.reference_kernel()

    attempted = failed = 0
    errors: list[str] = []
    figures: dict[str, list] = {}

    def account(done: Pass) -> None:
        nonlocal attempted, failed
        check_pass(ops, done.outputs, done.problems)
        attempted += len(ops)
        failed += len(done.problems)
        errors.extend(list(done.problems.values())[:max(0, 10 - len(errors))])
        done.outputs.clear()

    start = perf_counter()
    while True:
        began = perf_counter()
        done = run_pass(ops, kernel=kernel)
        for key, value in pass_figures(ops, done).items():
            figures.setdefault(key, []).append(value)
        account(done)
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    result = {"workload": name, "setup_s": median_n(setup_s),
              "figures": {k: median_n(v) for k, v in figures.items()}}

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wl.setup(sp, seed)
            done = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        account(done)
        metrics, extra = layer_metrics(tracer, ops, result["figures"],
                                       sum(done.times.values()))
        result["layers"], result["layer_extra"] = metrics, extra
        result["spans"] = tracer.spans()
    result["attempted"], result["failed"], result["errors"] = attempted, failed, errors
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def child(conn, *args) -> None:
    try:
        conn.send(measure(*args))
    except Exception:
        conn.send({"fatal": traceback.format_exc()})
    finally:
        conn.close()


def run_isolated(*args) -> dict:
    """Run ``measure`` in a fresh forked process and return its result."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=child, args=(send, *args))
    proc.start()
    send.close()
    try:
        result = recv.recv()
    except EOFError:
        result = {"fatal": f"workload process died with exit code {proc.exitcode}"}
    finally:
        recv.close()
        proc.join()
    if "fatal" in result:
        raise SetupError(result["fatal"])
    return result


# ----------------------------------------------------------------------
# reporting


def metadata(seed: int, jobs: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform(),
            "seed": seed, "jobs": jobs}


def report(result: dict, meta: dict, trace: bool) -> None:
    name = result["workload"]
    print(f"== {name}  seed={meta['seed']} jobs={meta['jobs']}"
          + ("  (inputs do not depend on the seed)" if name != "grid_avalanche" else ""))
    rows = [("setup_s", result["setup_s"], "s")]
    rows += [(k, v, FIGURE_UNITS[k]) for k, v in result["figures"].items()]
    for key, stat, unit in rows:
        print(f"  {key:<24} {stat['median']:>14.6g} {unit:<6} median of n={stat['n']}")
    print(f"  {'peak_rss_mb':<24} {result['peak_rss_mb']:>14.6g} MB")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<24} {ratio:>14.6g} ratio  "
          f"failed={result['failed']} attempted={result['attempted']}")
    for message in result["errors"]:
        print(f"  FAILED {message}")
    if trace:
        for key, (value, unit) in sorted({**result["layers"], **result["layer_extra"]}.items()):
            print(f"  {key:<44} {value:>14.6g} {unit}")
        print("  (p50_us/p99_us only for functions with >= 1000 traced calls; "
              "candidates of the jobs counts are tested in the workers, which "
              "are not traced; classical is reached by no workload)")


def end_to_end(result: dict) -> dict:
    values = {"setup_s": result["setup_s"]["median"],
              "pass_rel": result["figures"]["pass_rel"]["median"],
              "peak_rss_mb": result["peak_rss_mb"]}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(result: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}


def write_trace(result: dict, meta: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{result['workload']}-seed{meta['seed']}.json"
    doc = {"metadata": meta, "figures": result["figures"],
           "per_layer": {**result["layers"], **result["layer_extra"]},
           "spans": result["spans"]}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sandpark" / "__init__.py").is_file():
        print(f"error: no sandpark package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    jobs = min(2, os.cpu_count() or 1)
    meta = metadata(args.seed, jobs)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    meta["loadavg_start"] = ",".join(f"{x:.2f}" for x in os.getloadavg())
    try:
        results = [run_isolated(n, args.seed, args.seconds, bool(args.trace), jobs)
                   for n in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta["loadavg_end"] = ",".join(f"{x:.2f}" for x in os.getloadavg())
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for result in results:
        report(result, meta, bool(args.trace))
        if args.trace:
            print(f"  spans written to {write_trace(result, meta)}")
    pick = per_layer if args.trace else end_to_end
    if len(results) == 1:
        metrics = pick(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in pick(r).items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
