"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``.

A wrong pinned answer must fail the run, the result line must carry exactly
the metrics ``BENCHMARK.json`` lists, and a directory without the program
must exit non-zero without printing a result.
"""

import json

import pytest

import run
import workloads

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(capsys, workload, trace=0):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,pin", [("grid_avalanche", "grid-trees"),
                                          ("dense_count", "K6-recurrent")])
def test_wrong_pin_fails_the_run(capsys, monkeypatch, workload, pin):
    monkeypatch.setitem(workloads.PINS, pin, workloads.PINS[pin] + 1)
    rc, result = _run(capsys, workload)
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_lists_the_declared_metrics(capsys, trace, section):
    rc, result = _run(capsys, "grid_avalanche", trace)
    assert rc == 0
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_without_the_program_no_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    rc = run.main(["--workload", "grid_avalanche", "--seed", "1",
                   "--seconds", "1", "--trace", "0"])
    assert rc == 2
    assert capsys.readouterr().out == ""
