import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sandpark import (FamilySpec, build_graph, cli, complete_graph,
                      enumeration, families, make_family, sandpile, save_graph)
from conftest import giant_triangle, grid_with_sink_border

FIXTURES = Path(__file__).parent / "fixtures"

TRIANGLE = {"vertices": ["0", "v1", "v2"], "sink": "0",
            "edges": [["0", "v1", 1], ["0", "v2", 1], ["v1", "v2", 1]]}

HUGE = 10 ** 30
HUGE_TRIANGLE = {"vertices": ["0", "a", "b"], "sink": "0",
                 "edges": [["0", "a", HUGE], ["a", "b", HUGE],
                           ["0", "b", HUGE]]}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "sandpark", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    return str(path)


@pytest.fixture()
def huge_file(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_TRIANGLE))
    return str(path)


def values_file(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text(json.dumps({"values": mapping}))
    return str(path)


class TestCheck:
    def test_recurrent_true_prints_burning_sequence(self, tmp_path, triangle_file):
        cfg = values_file(tmp_path, "c.json", {"v1": 1, "v2": 1})
        out = run_cli("check", "--graph", triangle_file, "--input", cfg,
                      "--property", "recurrent")
        assert out.returncode == 0
        assert "recurrent=true" in out.stdout
        assert "burning sequence: 0 -> v1 -> v2" in out.stdout

    def test_burning_route_stabilises_once(self, monkeypatch, capsys, tmp_path,
                                           triangle_file):
        calls = []
        real = sandpile.stabilize

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(sandpile, "stabilize", counted)
        cfg = values_file(tmp_path, "c.json", {"v1": 1, "v2": 1})
        rc, out, _ = run_main(capsys, "check", "--graph", triangle_file,
                              "--input", cfg, "--property", "recurrent")
        assert rc == 0
        assert out.splitlines() == ["recurrent=true",
                                    "burning sequence: 0 -> v1 -> v2"]
        assert calls == [(2, 2)]

    def test_recurrent_false_prints_forbidden_set(self, tmp_path, triangle_file):
        cfg = values_file(tmp_path, "c.json", {"v1": 0, "v2": 0})
        out = run_cli("check", "--graph", triangle_file, "--input", cfg,
                      "--property", "recurrent")
        assert out.returncode == 1
        assert "forbidden set: {v1, v2}" in out.stdout

    def test_all_recurrence_oracles_agree(self, tmp_path, triangle_file):
        cfg = values_file(tmp_path, "c.json", {"v1": 1, "v2": 0})
        for oracle in ("burning", "forbidden", "orientation"):
            out = run_cli("check", "--graph", triangle_file, "--input", cfg,
                          "--property", "recurrent", "--oracle", oracle)
            assert out.returncode == 0, oracle

    def test_parking_then_prime(self, tmp_path, triangle_file):
        pf = values_file(tmp_path, "p.json", {"v1": 1, "v2": 2})
        parking = run_cli("check", "--graph", triangle_file, "--input", pf,
                          "--property", "parking", "--oracle", "fast")
        assert parking.returncode == 0
        assert "parking=true" in parking.stdout
        prime = run_cli("check", "--graph", triangle_file, "--input", pf,
                        "--property", "prime")
        assert prime.returncode == 1
        assert "prime=false" in prime.stdout
        assert "decomposing partition: ({v1}, {v2})" in prime.stdout

    def test_parking_false_shows_violating_set(self, tmp_path, triangle_file):
        pf = values_file(tmp_path, "p.json", {"v1": 1, "v2": 3})
        out = run_cli("check", "--graph", triangle_file, "--input", pf,
                      "--property", "parking", "--oracle", "bruteforce")
        assert out.returncode == 1
        assert "violating set: {v2}" in out.stdout

    def test_prime_on_non_parking_is_usage_error(self, tmp_path, triangle_file):
        pf = values_file(tmp_path, "p.json", {"v1": 2, "v2": 2})
        out = run_cli("check", "--graph", triangle_file, "--input", pf,
                      "--property", "prime")
        assert out.returncode == 2

    def test_strongly_recurrent_quantifiers(self, tmp_path):
        data = json.loads((FIXTURES / "quantifier_gap_witness.json").read_text())
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(data["graph"]))
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(data["config"]))
        exists = run_cli("check", "--graph", str(graph_path), "--input",
                         str(cfg_path), "--property", "strongly-recurrent",
                         "--quantifier", "exists")
        assert exists.returncode == 0
        forall = run_cli("check", "--graph", str(graph_path), "--input",
                         str(cfg_path), "--property", "strongly-recurrent")
        assert forall.returncode == 1
        assert "leaves a non-recurrent state" in forall.stdout

    def test_minimal_recurrent(self, tmp_path, triangle_file):
        low = values_file(tmp_path, "low.json", {"v1": 1, "v2": 0})
        high = values_file(tmp_path, "high.json", {"v1": 1, "v2": 1})
        assert run_cli("check", "--graph", triangle_file, "--input", low,
                       "--property", "minimal-recurrent").returncode == 0
        assert run_cli("check", "--graph", triangle_file, "--input", high,
                       "--property", "minimal-recurrent").returncode == 1

    def test_wrong_oracle_for_property(self, tmp_path, triangle_file):
        pf = values_file(tmp_path, "p.json", {"v1": 1, "v2": 1})
        out = run_cli("check", "--graph", triangle_file, "--input", pf,
                      "--property", "parking", "--oracle", "burning")
        assert out.returncode == 2

    @pytest.mark.parametrize("prop", ["strongly-recurrent",
                                      "minimal-recurrent"])
    @pytest.mark.parametrize("oracle", ["burning", "forbidden", "orientation",
                                        "bruteforce", "fast"])
    def test_oracle_rejected_where_it_has_no_route(self, tmp_path,
                                                   triangle_file, prop,
                                                   oracle):
        cfg = values_file(tmp_path, "c.json", {"v1": 1, "v2": 1})
        out = run_cli("check", "--graph", triangle_file, "--input", cfg,
                      "--property", prop, "--oracle", oracle)
        assert out.returncode == 2
        assert out.stdout == ""
        assert f"error: oracle '{oracle}' does not test {prop}" in out.stderr
        assert "Traceback" not in out.stderr

    def test_malformed_files(self, tmp_path, triangle_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = run_cli("check", "--graph", triangle_file, "--input", str(bad),
                      "--property", "recurrent")
        assert out.returncode == 2
        missing = run_cli("check", "--graph", triangle_file, "--input",
                          str(tmp_path / "nope.json"), "--property", "recurrent")
        assert missing.returncode == 2

    def test_non_string_edge_endpoint(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"vertices": ["0", "a"], "sink": "0",
                                     "edges": [[["a"], "0", 1]]}))
        cfg = values_file(tmp_path, "c.json", {"a": 0})
        out = run_cli("check", "--graph", str(graph), "--input", cfg,
                      "--property", "recurrent")
        assert out.returncode == 2
        assert "error:" in out.stderr
        assert "Traceback" not in out.stderr

    def test_config_vertex_mismatch(self, tmp_path, triangle_file):
        cfg = values_file(tmp_path, "c.json", {"v1": 1})
        out = run_cli("check", "--graph", triangle_file, "--input", cfg,
                      "--property", "recurrent")
        assert out.returncode == 2

    def test_unknown_property_is_usage_error(self, tmp_path, triangle_file):
        cfg = values_file(tmp_path, "c.json", {"v1": 1, "v2": 1})
        out = run_cli("check", "--graph", triangle_file, "--input", cfg,
                      "--property", "transient")
        assert out.returncode == 2

    @pytest.mark.parametrize("oracle, code, stdout", [
        ("fast", 1, "parking=false\n"),
        ("bruteforce", 2, ""),
    ])
    def test_witness_above_cap_keeps_verdict(self, tmp_path, oracle, code,
                                             stdout):
        # K21 is above the subset oracle's cap of 20 non-sink vertices: the
        # fast verdict stands without its witness line, while the capped
        # oracle asked for the verdict itself is a usage error
        graph = tmp_path / "k21.json"
        save_graph(complete_graph(21), graph)
        values = values_file(tmp_path, "p.json",
                             {str(i): 21 for i in range(1, 22)})
        out = run_cli("check", "--graph", str(graph), "--input", values,
                      "--property", "parking", "--oracle", oracle)
        assert out.returncode == code
        assert out.stdout == stdout
        if code == 1:
            assert out.stderr == ""
        else:
            assert "subset test capped at 20" in out.stderr

    @pytest.mark.parametrize("values, stdout", [
        ({"v1": 5, "v2": 0}, "recurrent=false\nconfiguration is not stable\n"),
        ({"v1": -1, "v2": 1}, "recurrent=false\nforbidden set: {v1}\n"),
    ], ids=["unstable", "negative"])
    def test_every_recurrence_oracle_answers_false_off_the_domain(
            self, tmp_path, triangle_file, values, stdout):
        cfg = values_file(tmp_path, "c.json", values)
        for oracle in ((), ("--oracle", "burning"), ("--oracle", "forbidden"),
                       ("--oracle", "orientation")):
            out = run_cli("check", "--graph", triangle_file, "--input", cfg,
                          "--property", "recurrent", *oracle)
            assert out.returncode == 1, oracle
            assert out.stdout == stdout, oracle
            assert out.stderr == "", oracle

    def test_huge_multiplicities_recurrent(self, tmp_path, huge_file):
        cfg = values_file(tmp_path, "c.json", {"a": 0, "b": 0})
        out = run_cli("check", "--graph", huge_file, "--input", cfg,
                      "--property", "recurrent")
        assert out.returncode == 1
        assert out.stdout == "recurrent=false\nforbidden set: {a, b}\n"


def run_main(capsys, *args):
    """Run the CLI in process: (exit code, stdout, stderr)."""
    rc = cli.main(list(args))
    out = capsys.readouterr()
    return rc, out.out, out.err


# each property's routes by oracle name, the default first
ROUTES = {"recurrent": ["burning", "forbidden", "orientation"],
          "strongly-recurrent": [],
          "minimal-recurrent": [],
          "parking": ["fast", "bruteforce"],
          "prime": ["fast", "bruteforce"]}
ORACLES = ["burning", "forbidden", "orientation", "fast", "bruteforce"]
ROUTED = [(prop, oracle) for prop, routes in ROUTES.items()
          for oracle in routes]
UNROUTED = [(prop, oracle) for prop, routes in ROUTES.items()
            for oracle in ORACLES if oracle not in routes]


@pytest.fixture()
def route_inputs(tmp_path, triangle_file):
    """(graph file, value files) on the triangle and on the quantifier-gap
    fixture: configurations inside and outside the recurrent set, parking
    functions prime and not, and a candidate that does not park."""
    gap = json.loads((FIXTURES / "quantifier_gap_witness.json").read_text())
    gap_file = tmp_path / "gap.json"
    gap_file.write_text(json.dumps(gap["graph"]))
    cases = {triangle_file: [{"v1": 1, "v2": 0}, {"v1": 0, "v2": 0},
                             {"v1": 1, "v2": 2}, {"v1": 1, "v2": 1},
                             {"v1": 2, "v2": 2}],
             str(gap_file): [gap["config"]["values"], {"v1": 0, "v2": 1},
                             {"v1": 2, "v2": 1}, {"v1": 1, "v2": 1},
                             {"v1": 3, "v2": 4}]}
    return [(graph, values_file(tmp_path, f"in{i}-{j}.json", values))
            for i, (graph, inputs) in enumerate(cases.items())
            for j, values in enumerate(inputs)]


class TestCheckRoutes:
    def test_one_table_names_every_route(self):
        assert {prop: list(routes) for prop, routes in cli._ROUTES.items()} \
            == ROUTES
        check = cli.build_parser()._subparsers._group_actions[0].choices["check"]
        choices = {a.dest: list(a.choices) for a in check._actions if a.choices}
        assert choices["property"] == list(ROUTES)
        assert choices["oracle"] == ORACLES

    @pytest.mark.parametrize("prop, oracle", UNROUTED)
    def test_pair_outside_the_table_is_rejected(self, capsys, triangle_file,
                                                tmp_path, prop, oracle):
        cfg = values_file(tmp_path, "c.json", {"v1": 1, "v2": 1})
        rc, out, err = run_main(capsys, "check", "--graph", triangle_file,
                                "--input", cfg, "--property", prop,
                                "--oracle", oracle)
        assert rc == 2
        assert out == ""
        assert err == f"error: oracle '{oracle}' does not test {prop}\n"

    @pytest.mark.parametrize("prop, oracle", ROUTED)
    def test_every_route_prints_the_default_verdict(self, capsys,
                                                    route_inputs, prop,
                                                    oracle):
        for graph, values in route_inputs:
            args = ("check", "--graph", graph, "--input", values,
                    "--property", prop)
            default = run_main(capsys, *args)
            chosen = run_main(capsys, *args, "--oracle", oracle)
            assert chosen[:2] == default[:2], (graph, values)
            if default[0] != 2:
                assert chosen[1].startswith(f"{prop}="), (graph, values)

    @pytest.mark.parametrize("args", [
        ("check", "--input", "zero.json", "--property", "parking"),
        ("check", "--input", "zero.json", "--property", "prime"),
        ("check", "--input", "zero.json", "--property", "parking",
         "--oracle", "bruteforce"),
        ("check", "--input", "two.json", "--property", "prime"),
        ("check", "--input", "two.json", "--property", "prime",
         "--oracle", "bruteforce"),
        ("decompose", "--pf", "two.json"),
        ("simulate", "--steps", "5", "--seed", "0", "--mu", "mu.json"),
    ], ids=["parking-zero", "prime-zero", "bruteforce-zero",
            "prime-non-parking", "bruteforce-prime-non-parking",
            "decompose-non-parking", "mu-unknown-vertex"])
    def test_library_rejections_exit_two(self, capsys, tmp_path,
                                         triangle_file, args):
        files = {"zero.json": values_file(tmp_path, "zero.json",
                                          {"v1": 0, "v2": 1}),
                 "two.json": values_file(tmp_path, "two.json",
                                         {"v1": 2, "v2": 2}),
                 "mu.json": values_file(tmp_path, "mu.json",
                                        {"v1": 0.5, "v2": 0.25, "v9": 0.25})}
        rc, out, err = run_main(capsys, args[0], "--graph", triangle_file,
                                *(files.get(a, a) for a in args[1:]))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_paths_rejects_non_parking_vector(self, capsys):
        rc, out, err = run_main(capsys, "paths", "--pf", "3,3,1")
        assert (rc, out) == (2, "")
        assert err == "error: not a parking function\n"

    @pytest.mark.parametrize("text", ['{"values": [0.5, 0.5]}',
                                      '{"values": 5}'])
    def test_mu_document_needs_a_mapping(self, capsys, tmp_path,
                                         triangle_file, text):
        mu = tmp_path / "mu.json"
        mu.write_text(text)
        rc, out, err = run_main(capsys, "simulate", "--graph", triangle_file,
                                "--steps", "5", "--seed", "0", "--mu",
                                str(mu))
        assert (rc, out) == (2, "")
        assert err.startswith("error: mu document must be")


# a small instance of every family of the battery, listed as the family and
# as its bare graph, one of a single position whose prefix is the whole
# member, and two more wheels
LISTED_SPECS = [FamilySpec("complete", n=5), FamilySpec("wheel", n=6),
                FamilySpec("tripartite", p=2, q=3),
                FamilySpec("bipartite", p=3, q=2),
                FamilySpec("split", m=2, n=2), FamilySpec("complete", n=1)]
LISTED = {**{spec.label(): spec for spec in LISTED_SPECS},
          **{f"{spec.label()}-graph": make_family(spec)
             for spec in LISTED_SPECS},
          "W3^0": FamilySpec("wheel", n=3), "W8^0": FamilySpec("wheel", n=8)}


class TestEnumerate:
    def test_wheel_strong_count_matches(self):
        out = run_cli("enumerate", "--family", "wheel", "--n", "5",
                      "--class", "sr-forall", "--expected")
        assert out.returncode == 0
        assert "count=6" in out.stdout
        assert "match=true" in out.stdout

    def test_wheel_sr_exists_matches_the_sr_forall_form(self, capsys):
        # one burning start's drain decides both quantifiers on a wheel
        rc, out, err = run_main(capsys, "enumerate", "--family", "wheel",
                                "--n", "9", "--class", "sr-exists",
                                "--expected")
        assert (rc, err) == (0, "")
        assert out == "wheel n=9 sr-exists: count=10 expected=10 match=true\n"

    def test_complete_prime_count(self):
        out = run_cli("enumerate", "--family", "complete", "--n", "4",
                      "--class", "ppf", "--expected")
        assert out.returncode == 0
        assert "count=27" in out.stdout

    def test_list_output(self):
        out = run_cli("enumerate", "--family", "tripartite", "--p", "2",
                      "--q", "2", "--class", "ppf", "--output", "list")
        assert out.returncode == 0
        lines = out.stdout.strip().splitlines()
        assert lines[-1] == "count=5"
        assert len(lines) == 6
        assert "1,1,1,1" in lines

    def test_list_output_compares_with_expected(self):
        out = run_cli("enumerate", "--family", "complete", "--n", "3",
                      "--class", "ppf", "--output", "list", "--expected")
        assert out.returncode == 0
        assert out.stdout.splitlines()[-1] == "count=4 expected=4 match=true"

    def test_list_output_mismatch_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "expected_count",
                            lambda target, cls: (5, "closed-form"))
        rc = cli.main(["enumerate", "--family", "complete", "--n", "3",
                       "--class", "ppf", "--output", "list", "--expected"])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "count=4 expected=5 match=false"

    @pytest.mark.parametrize("cls", ["ppf", "recurrent"])
    @pytest.mark.parametrize("bare", [False, True], ids=["family", "graph"])
    def test_list_bytes_match_one_line_per_member(self, capsys, monkeypatch,
                                                  tmp_path, cls, bare):
        # K6 recurrent has 16,807 members, so its listing spans five chunks
        target = complete_graph(6)
        if bare:
            path = tmp_path / "k6.json"
            save_graph(target, path)
            args = ("--graph", str(path))
        else:
            args = ("--family", "complete", "--n", "6")
        lines = [",".join(str(x) for x in item) + "\n"
                 for item in enumeration.iter_class(target, cls)]
        count = len(lines)
        writes = []
        rows = []
        write = sys.stdout.write

        def counted(text):
            writes.append(len(text))
            rows.append(text.count("\n"))
            return write(text)

        monkeypatch.setattr(sys.stdout, "write", counted)
        rc, out, _ = run_main(capsys, "enumerate", *args, "--class", cls,
                              "--output", "list")
        assert rc == 0
        assert out == "".join(lines) + f"count={count}\n"
        # one write per 4,096 members, then the count line
        chunks = -(-count // 4096)
        assert chunks < len(writes) <= chunks + 2
        assert max(writes) <= 4096 * max(map(len, lines))
        assert rows[:chunks] == [4096] * (chunks - 1) + [count % 4096 or 4096]

    def test_json_round_trips_elements(self):
        out = run_cli("enumerate", "--family", "complete", "--n", "3",
                      "--class", "ppf", "--output", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["count"] == 4
        assert payload["elements"] == [[1, 1, 1], [1, 1, 2], [1, 2, 1],
                                       [2, 1, 1]]

    @pytest.mark.parametrize("elements", [
        [(1, 2, 3), (2, 1, 1), (10, 1, 2)], [], [(1,), (20,)],
        [tuple(range(20)), tuple(range(20, 0, -1))]],
        ids=["elements", "empty", "1-tuples", "20-tuples"])
    def test_json_listing_is_json_dumps(self, monkeypatch, capsys, elements):
        payload = {"family": "complete", "params": "n=3", "class": "ppf",
                   "count": len(elements), "expected": None, "match": None,
                   "elements": elements}

        fmt = cli._JSON

        def pairs(target, cls, plan, cell, end):
            # one pair per element, split after a different number of
            # values each time: an empty prefix, whose row opens without
            # the separator, and an empty suffix among them
            for i, e in enumerate(elements):
                cut = i % (len(e) + 1)
                row = "".join(map(cell, e[cut:])) + end
                yield e[:cut], [row if cut else row[len(fmt[1]):]]

        texts = [text for _, text in cli._chunks(
            pairs(None, None, None, lambda x: fmt[1] + str(x), fmt[2]), fmt)]
        assert cli._listing_json({**payload, "elements": []}, texts) == \
            json.dumps(payload, indent=2)
        monkeypatch.setattr(cli, "_pairs", pairs)
        rc, out, _ = run_main(capsys, "enumerate", "--family", "complete",
                              "--n", "3", "--class", "ppf", "--output", "json")
        assert rc == 0
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("target", LISTED.values(), ids=LISTED)
    def test_listing_bytes_equal_per_member_formatting(self, capsys, tmp_path,
                                                       target):
        # list prints each member on its line, and json is json.dumps of
        # the payload, whichever walk lists the members
        if isinstance(target, FamilySpec):
            args = ("--family", target.family,
                    *(f"--{param}" for param in target.params().split(",")))
        else:
            path = tmp_path / "g.json"
            save_graph(target, path)
            args = ("--graph", str(path))
        # the increasing classes need a family with parts
        parts = isinstance(target, FamilySpec) and target.family != "wheel"
        for cls in [c for c in enumeration.CLASSES
                    if parts or not c.endswith("-inc")]:
            members = list(enumeration.iter_class(target, cls))
            report = enumeration._make_report(target, cls, len(members), 0.0,
                                              None)
            lines = io.StringIO()
            for member in members:
                print(",".join(str(x) for x in member), file=lines)
            rc, out, err = run_main(capsys, "enumerate", *args, "--class",
                                    cls, "--output", "list")
            assert (rc, err) == (0, ""), cls
            assert out == lines.getvalue() + f"count={len(members)}\n", cls
            payload = {"family": report.family, "params": report.params,
                       "class": cls, "count": len(members), "expected": None,
                       "match": None, "elements": [list(m) for m in members]}
            rc, out, err = run_main(capsys, "enumerate", *args, "--class",
                                    cls, "--output", "json")
            assert (rc, err) == (0, ""), cls
            assert out == json.dumps(payload, indent=2) + "\n", cls

    @pytest.mark.parametrize("cls,empty", [("ppf", 58), ("recurrent", 0)])
    def test_json_skips_empty_blocks_and_spans_chunks(self, capsys, cls,
                                                      empty):
        # K6 ppf: 58 of the 166 prefixes the keyed walk yields have an
        # empty block, and write nothing; K6 recurrent's 16,807 members
        # span five chunks
        spec = FamilySpec("complete", n=6)
        plan = enumeration._plan(spec, cls, enumeration.DEFAULT_SPACE_CAP)
        assert plan[2] == "keys"
        pairs = list(enumeration._pairs(spec, cls, plan))
        assert sum(not rows for _, rows in pairs) == empty
        members = [list(m) for m in enumeration.iter_class(spec, cls)]
        rc, out, _ = run_main(capsys, "enumerate", "--family", "complete",
                              "--n", "6", "--class", cls, "--output", "json")
        assert rc == 0
        assert out == json.dumps(
            {"family": "complete", "params": "n=6", "class": cls,
             "count": len(members), "expected": None, "match": None,
             "elements": members}, indent=2) + "\n"

    def test_empty_listing(self, capsys, tmp_path):
        # the star with two leaves has no prime parking function
        path = tmp_path / "star.json"
        save_graph(build_graph(["s", "a", "b"], "s",
                               [("s", "a", 1), ("s", "b", 1)]), path)
        args = ("enumerate", "--graph", str(path), "--class", "ppf")
        assert run_main(capsys, *args, "--output", "list") == \
            (0, "count=0\n", "")
        rc, out, err = run_main(capsys, *args, "--output", "json")
        assert (rc, err) == (0, "")
        assert out == json.dumps(
            {"family": "custom", "params": "|V|=3,sink=s", "class": "ppf",
             "count": 0, "expected": None, "match": None, "elements": []},
            indent=2) + "\n"

    def test_json_mismatch_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "expected_count",
                            lambda target, cls: (5, "closed-form"))
        rc, out, _ = run_main(capsys, "enumerate", "--family", "complete",
                              "--n", "3", "--class", "ppf", "--output", "json",
                              "--expected")
        assert rc == 1
        members = enumeration.iter_class(FamilySpec("complete", n=3), "ppf")
        assert out == json.dumps(
            {"family": "complete", "params": "n=3", "class": "ppf",
             "count": 4, "expected": 5, "match": False,
             "elements": [list(m) for m in members]}, indent=2) + "\n"

    def test_csv_output(self):
        out = run_cli("enumerate", "--family", "complete", "--n", "3",
                      "--class", "recurrent", "--output", "csv", "--expected")
        assert out.returncode == 0
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "family,params,class,count,expected,match,millis"
        assert lines[1].startswith("complete,n=3,recurrent,16,16,true")

    def test_graph_file_target(self, tmp_path, triangle_file):
        out = run_cli("enumerate", "--graph", triangle_file,
                      "--class", "recurrent", "--output", "list")
        assert out.returncode == 0
        assert out.stdout.strip().splitlines() == ["0,1", "1,0", "1,1",
                                                   "count=3"]

    def test_jobs_flag(self):
        # --jobs is gone: every count runs in one process
        serial = run_cli("enumerate", "--family", "complete", "--n", "4",
                         "--class", "recurrent")
        assert serial.returncode == 0
        assert "count=125" in serial.stdout
        self.assert_no_jobs_option("2")

    def test_cap_breach(self):
        # below K12's 455 burning states min-recurrent walks C(23, 12)
        # representatives, above the cap
        out = run_cli("enumerate", "--family", "complete", "--n", "12",
                      "--class", "min-recurrent", "--cap", "454")
        assert out.returncode == 2

    def test_increasing_cap_breach(self):
        # below K9's 220 burning states ppf-inc walks C(17, 9)
        # representatives, above the cap
        out = run_cli("enumerate", "--family", "complete", "--n", "9",
                      "--class", "ppf-inc", "--cap", "219")
        assert out.returncode == 2

    def test_cap_bounds_the_space_each_output_walks(self, capsys):
        # a count runs 220 burning states of K9, or below them walks
        # C(17, 9) representatives; a list walks all 9^9 candidates
        args = ("enumerate", "--family", "complete", "--n", "9",
                "--class", "ppf")
        rc, out, err = run_main(capsys, *args, "--expected")
        assert (rc, err) == (0, "")
        assert out == ("complete n=9 ppf: count=16777216 expected=16777216 "
                       "match=true\n")
        for output in ("list", "json"):
            rc, out, err = run_main(capsys, *args, "--output", output)
            assert (rc, out) == (2, "")
            assert err == ("error: search space of 387420489 exceeds cap "
                           "100000000\n")
        rc, out, err = run_main(capsys, *args, "--cap", "219")
        assert (rc, out) == (2, "")
        assert "search space of 24310 exceeds cap 219" in err

    def test_jobs_below_one_rejected(self):
        self.assert_no_jobs_option("0")

    @staticmethod
    def assert_no_jobs_option(jobs):
        """``--jobs`` is refused as an unknown option by the CLI and by
        ``scripts/verify_counts.py``, before any count."""
        out = run_cli("enumerate", "--family", "complete", "--n", "3",
                      "--class", "ppf", "--jobs", jobs)
        script = Path(__file__).parent.parent / "scripts" / "verify_counts.py"
        by_script = subprocess.run([sys.executable, str(script), "--jobs", jobs],
                                   capture_output=True, text=True)
        for run in (out, by_script):
            assert run.returncode == 2
            assert run.stdout == ""
            assert "unrecognized arguments: --jobs" in run.stderr

    def test_needs_target(self):
        out = run_cli("enumerate", "--class", "recurrent")
        assert out.returncode == 2

    def test_increasing_class_needs_family(self, triangle_file):
        out = run_cli("enumerate", "--graph", triangle_file,
                      "--class", "ppf-inc")
        assert out.returncode == 2

    def test_huge_multiplicities_capped_before_walk(self, monkeypatch,
                                                     capsys, huge_file):
        def untouchable(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(enumeration, "_search", untouchable)
        rc = cli.main(["enumerate", "--graph", huge_file,
                       "--class", "recurrent"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"search space of {(2 * HUGE) ** 2} exceeds cap" in err

    def test_space_past_printable_digits_capped(self, capsys, tmp_path):
        path = tmp_path / "giant.json"
        save_graph(giant_triangle(), path)
        rc, out, err = run_main(capsys, "enumerate", "--graph", str(path),
                                "--class", "recurrent")
        assert (rc, out) == (2, "")
        assert err == ("error: search space of a 5001-digit number "
                       "exceeds cap 100000000\n")

    def test_count_past_printable_digits(self, capsys):
        # W20000 counts L(40000) - 2, 8,360 digits, past the 4,300 that
        # str() prints by default; each output writes them all
        a, b = 2, 1
        for _ in range(40000):
            a, b = b, a + b
        want = a - 2

        def value(digits):
            # int() stops at the same limit: read 1,000 digits at a time
            head = len(digits) % 1000 or 1000
            n = int(digits[:head])
            for i in range(head, len(digits), 1000):
                n = n * 10 ** 1000 + int(digits[i:i + 1000])
            return n

        args = ("enumerate", "--family", "wheel", "--n", "20000",
                "--class", "recurrent")
        rc, out, err = run_main(capsys, *args)
        assert (rc, err) == (0, "")
        head, digits = out.rstrip("\n").split("count=")
        assert head == "wheel n=20000 recurrent: "
        assert len(digits) == 8360 and value(digits) == want
        rc, out, err = run_main(capsys, *args, "--output", "csv")
        assert (rc, err) == (0, "")
        row = out.splitlines()[1].split(",")
        assert row[:3] == ["wheel", "n=20000", "recurrent"]
        assert value(row[3]) == want
        report = enumeration._make_report(FamilySpec("wheel", n=20000),
                                          "recurrent", want, 0.0,
                                          (want, "closed-form"))
        (row,) = json.loads(enumeration.reports_to_json([report]),
                            parse_int=value)
        assert row["count"] == row["expected"] == want and row["match"]

    def test_burning_work_past_the_cap_exits_2(self, capsys):
        # K300 ppf: C(303, 3) burning states, each charged by the 39 words
        # of its count, are past the cap, and so are the representatives
        rc, out, err = run_main(capsys, "enumerate", "--family", "complete",
                                "--n", "300", "--class", "ppf")
        assert (rc, out) == (2, "")
        assert err.startswith("error: search space of ")
        assert err.endswith(" exceeds cap 100000000\n")

    @pytest.mark.parametrize("cls", ["ppf", "ppf-inc"])
    @pytest.mark.parametrize("expected", [False, True],
                             ids=["plain", "expected"])
    def test_family_capped_before_its_graph_is_built(self, monkeypatch,
                                                     capsys, cls, expected):
        def unbuildable(*args):
            raise AssertionError("the family graph was built")

        monkeypatch.setattr(families, "build_graph", unbuildable)
        args = ["enumerate", "--family", "complete", "--n", "1500",
                "--class", cls] + (["--expected"] if expected else [])
        rc, out, err = run_main(capsys, *args)
        assert (rc, out) == (2, "")
        assert err.startswith("error: search space of ")
        assert "exceeds cap 100000000" in err
        # positive control: a family under the cap is built to be listed
        # (its count runs the burning states, with no graph)
        with pytest.raises(AssertionError, match="graph was built"):
            cli.main(["enumerate", "--family", "complete", "--n", "3",
                      "--class", cls, "--output", "list"])

    @pytest.mark.parametrize("output", [[], ["--output", "list"]],
                             ids=["count", "list"])
    def test_family_past_the_vertex_bound_exits_2(self, monkeypatch, capsys,
                                                  output):
        # a space of 200,001 under the cap, but 200,001 non-sink vertices
        def unbuildable(*args):
            raise AssertionError("the family graph was built")

        monkeypatch.setattr(families, "build_graph", unbuildable)
        rc, out, err = run_main(capsys, "enumerate", "--family", "bipartite",
                                "--p", "200000", "--q", "1", "--class",
                                "recurrent", *output)
        assert (rc, out) == (2, "")
        assert err == ("error: target of 200001 non-sink vertices exceeds "
                       "bound 100000\n")


class TestParser:
    """``main`` parses with one parser per process."""

    @pytest.mark.parametrize("calls", [
        [("enumerate", "--family", "complete", "--n", "3", "--class", "ppf",
          "--output", "json", "--expected", "--cap", "1000"),
         ("enumerate", "--family", "wheel", "--n", "5", "--class",
          "recurrent"),
         ("enumerate", "--family", "complete", "--n", "9", "--class", "ppf",
          "--output", "list")],
        [("paths", "--pf", "1,1,2", "--kind", "lukasiewicz"),
         ("paths", "--pf", "1,1,2"),
         ("enumerate", "--family", "complete", "--n", "3", "--class", "ppf",
          "--cap", "1")]],
        ids=["enumerate", "paths"])
    def test_calls_in_one_process_match_fresh_ones(self, capsys, calls):
        # a value given to one call is not the default of the next, nor
        # is its subcommand
        assert cli.build_parser() is cli.build_parser()
        for args in calls:
            fresh = run_cli(*args)
            assert run_main(capsys, *args) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), args

    def test_help_is_unchanged(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        for args in (["--help"], ["enumerate", "--help"], ["--help"]):
            fresh = run_cli(*args)
            assert fresh.returncode == 0 and "usage: sandpark" in fresh.stdout
            with pytest.raises(SystemExit) as exc:
                cli.main(args)
            assert exc.value.code == 0
            assert capsys.readouterr().out == fresh.stdout, args


class TestEnumerateMatch:
    """``match`` is true or false only when a prediction was compared."""

    def test_csv_without_expected_leaves_match_empty(self, capsys):
        rc, out, _ = run_main(capsys, "enumerate", "--family", "complete",
                              "--n", "3", "--class", "recurrent",
                              "--output", "csv")
        assert rc == 0
        row = out.splitlines()[1].split(",")
        assert row[:6] == ["complete", "n=3", "recurrent", "16", "", ""]

    def test_json_without_expected_has_null_match(self, capsys):
        rc, out, _ = run_main(capsys, "enumerate", "--family", "complete",
                              "--n", "3", "--class", "ppf", "--output", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["expected"] is None
        assert payload["match"] is None

    def test_json_with_expected_compares(self, capsys):
        rc, out, _ = run_main(capsys, "enumerate", "--family", "complete",
                              "--n", "3", "--class", "ppf", "--output", "json",
                              "--expected")
        assert rc == 0
        payload = json.loads(out)
        assert (payload["expected"], payload["match"]) == (4, True)

    @pytest.mark.parametrize("output", [(), ("--output", "csv"),
                                        ("--output", "json"),
                                        ("--output", "list")])
    @pytest.mark.parametrize("target, name", [
        (("--graph", "TRIANGLE"), "ppf on TRIANGLE"),
        # no closed form for ppf, which sr-exists counts on a family with
        # parts
        (("--family", "bipartite", "--p", "2", "--q", "2", "--class",
          "sr-exists"), "sr-exists on bipartite p=2,q=2"),
    ], ids=["graph-ppf", "family-sr-exists"])
    def test_expected_without_prediction_exits_before_the_walk(
            self, monkeypatch, capsys, triangle_file, output, target, name):
        def untouchable(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(enumeration, "_search", untouchable)
        target = tuple(triangle_file if a == "TRIANGLE" else a for a in target)
        if "--class" not in target:
            target += ("--class", "ppf")
        rc, out, err = run_main(capsys, "enumerate", *target, *output,
                                "--expected")
        assert (rc, out) == (2, "")
        assert err == ("error: no exact prediction for class "
                       + name.replace("TRIANGLE", triangle_file) + "\n")


class TestReadmeExamples:
    """The README's command-line examples, with its triangle.json,
    config.json and pf.json."""

    @pytest.fixture()
    def files(self, tmp_path, triangle_file):
        return {"triangle.json": triangle_file,
                "config.json": values_file(tmp_path, "config.json",
                                           {"v1": 1, "v2": 0}),
                "pf.json": values_file(tmp_path, "pf.json",
                                       {"v1": 1, "v2": 2})}

    @pytest.mark.parametrize("args, code, stdout", [
        ("check --graph triangle.json --input config.json "
         "--property recurrent", 0,
         "recurrent=true\nburning sequence: 0 -> v1 -> v2\n"),
        ("check --graph triangle.json --input pf.json --property prime", 1,
         "prime=false\nfailing boost vertex: v1\n"
         "decomposing partition: ({v1}, {v2})\n"),
        ("enumerate --family wheel --n 5 --class sr-forall --expected", 0,
         "wheel n=5 sr-forall: count=6 expected=6 match=true\n"),
        ("enumerate --family tripartite --p 2 --q 2 --class ppf "
         "--output list", 0,
         "1,1,1,1\n1,1,1,2\n1,1,2,1\n1,2,1,1\n2,1,1,1\ncount=5\n"),
        ("decompose --graph triangle.json --pf pf.json --all", 0,
         "({v1}, {v2})\ndecompositions=1 prime=false\n"),
        ("simulate --graph triangle.json --steps 200 --seed 7", 0,
         "steps=200 seed=7\ndistinct stable states visited: 4\n"
         "recurrent among visited: 3\n"
         "first recurrent state at step 1; all later states recurrent: "
         "true\n"),
    ], ids=["check-recurrent", "check-prime", "enumerate-expected",
            "enumerate-list", "decompose", "simulate"])
    def test_full_stdout(self, files, args, code, stdout):
        out = run_cli(*(files.get(word, word) for word in args.split()))
        assert out.returncode == code
        assert out.stdout == stdout


class TestDecompose:
    def test_composite_two_blocks(self, tmp_path, triangle_file):
        pf = values_file(tmp_path, "p.json", {"v1": 1, "v2": 2})
        out = run_cli("decompose", "--graph", triangle_file, "--pf", pf)
        assert out.returncode == 0
        assert "({v1}, {v2})" in out.stdout
        assert "prime=false" in out.stdout

    def test_prime_single_block(self, tmp_path, triangle_file):
        pf = values_file(tmp_path, "p.json", {"v1": 1, "v2": 1})
        out = run_cli("decompose", "--graph", triangle_file, "--pf", pf,
                      "--all")
        assert out.returncode == 0
        assert "({v1, v2})" in out.stdout
        assert "decompositions=1" in out.stdout
        assert "prime=true" in out.stdout

    @pytest.fixture()
    def witness_args(self, tmp_path):
        data = json.loads((FIXTURES / "decomposition_witness.json").read_text())
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(data["graph"]))
        pf_path = tmp_path / "p.json"
        pf_path.write_text(json.dumps(data["parking"]))
        return ["decompose", "--graph", str(graph_path), "--pf", str(pf_path)]

    def test_witness_graph_has_two(self, witness_args):
        out = run_cli(*witness_args, "--all")
        assert out.returncode == 0
        assert "decompositions=2" in out.stdout
        assert "({v1}, {v2, v3, v4})" in out.stdout
        assert "({v2, v3}, {v1, v4})" in out.stdout

    def test_count_without_all_is_the_real_count(self, witness_args):
        # only the first decomposition is printed, but all are counted
        out = run_cli(*witness_args)
        assert out.returncode == 0
        assert out.stdout == "({v1}, {v2, v3, v4})\ndecompositions=2 prime=false\n"

    def test_non_parking_is_usage_error(self, tmp_path, triangle_file):
        pf = values_file(tmp_path, "p.json", {"v1": 2, "v2": 2})
        out = run_cli("decompose", "--graph", triangle_file, "--pf", pf)
        assert out.returncode == 2


class TestSimulate:
    def test_summary_and_trace(self, tmp_path, triangle_file):
        trace = tmp_path / "trace.csv"
        out = run_cli("simulate", "--graph", triangle_file, "--steps", "200",
                      "--seed", "11", "--trace", str(trace))
        assert out.returncode == 0
        assert "recurrent among visited: 3" in out.stdout
        assert "all later states recurrent: true" in out.stdout
        header = trace.read_text().splitlines()[0]
        assert header == "step,dropped_vertex,config"

    def test_trace_bytes_reproducible(self, tmp_path, triangle_file):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            out = run_cli("simulate", "--graph", triangle_file, "--steps",
                          "50", "--seed", "9", "--trace", str(path))
            assert out.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_summary_pinned(self, tmp_path):
        path = tmp_path / "grid.json"
        save_graph(grid_with_sink_border(4), path)
        out = run_cli("simulate", "--graph", str(path), "--steps", "300",
                      "--seed", "21")
        assert out.returncode == 0
        assert out.stdout == (
            "steps=300 seed=21\n"
            "distinct stable states visited: 301\n"
            "recurrent among visited: 271\n"
            "first recurrent state at step 30; "
            "all later states recurrent: true\n")

    def test_zero_steps(self, triangle_file):
        out = run_cli("simulate", "--graph", triangle_file, "--steps", "0",
                      "--seed", "1")
        assert out.returncode == 0
        assert "distinct stable states visited: 1" in out.stdout

    def test_custom_start_and_mu(self, tmp_path, triangle_file):
        start = values_file(tmp_path, "start.json", {"v1": 1, "v2": 1})
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"values": {"v1": 0.25, "v2": 0.75}}))
        out = run_cli("simulate", "--graph", triangle_file, "--steps", "30",
                      "--seed", "2", "--start", start, "--mu", str(mu))
        assert out.returncode == 0

    def test_invalid_mu(self, tmp_path, triangle_file):
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"values": {"v1": 0.5, "v2": 0.4}}))
        out = run_cli("simulate", "--graph", triangle_file, "--steps", "5",
                      "--seed", "0", "--mu", str(mu))
        assert out.returncode == 2

    def test_unstable_start(self, tmp_path, triangle_file):
        start = values_file(tmp_path, "start.json", {"v1": 5, "v2": 0})
        out = run_cli("simulate", "--graph", triangle_file, "--steps", "5",
                      "--seed", "0", "--start", start)
        assert out.returncode == 2

    def test_negative_steps_rejected(self, triangle_file):
        out = run_cli("simulate", "--graph", triangle_file, "--steps", "-5",
                      "--seed", "0")
        assert out.returncode == 2
        assert "steps=" not in out.stdout

    def test_steps_above_cap_rejected(self, triangle_file):
        out = run_cli("simulate", "--graph", triangle_file, "--steps",
                      "1000000000", "--seed", "0")
        assert out.returncode == 2
        assert "steps=" not in out.stdout
        assert "cap 100000000" in out.stderr

    def test_huge_multiplicities(self, huge_file):
        out = run_cli("simulate", "--graph", huge_file, "--steps", "100",
                      "--seed", "0")
        assert out.returncode == 0
        assert "distinct stable states visited: 101" in out.stdout

    def test_recurrent_start_enters_at_step_zero(self, tmp_path,
                                                 triangle_file):
        top = values_file(tmp_path, "top.json", {"v1": 1, "v2": 1})
        for steps, visited in (("5", 3), ("0", 1)):
            out = run_cli("simulate", "--graph", triangle_file, "--steps",
                          steps, "--seed", "4", "--start", top)
            assert out.returncode == 0
            assert out.stdout.splitlines()[1:] == [
                f"distinct stable states visited: {visited}",
                f"recurrent among visited: {visited}",
                "first recurrent state at step 0; "
                "all later states recurrent: true"]

    def test_summary_decides_each_stored_state_once(self, monkeypatch,
                                                    capsys, tmp_path):
        path = tmp_path / "grid.json"
        save_graph(grid_with_sink_border(4), path)

        def forbidden(*args, **kwargs):
            raise AssertionError("the summary decoded or re-checked a state")

        decided = []

        def counted(g, c):
            decided.append(c)
            return sandpile._recurrent(g, c)

        monkeypatch.setattr(cli, "is_recurrent", forbidden)
        monkeypatch.setattr(sandpile, "is_recurrent", forbidden)
        monkeypatch.setattr(sandpile.ChainTrace, "__iter__", forbidden)
        monkeypatch.setattr(sandpile.ChainTrace, "__getitem__", forbidden)
        monkeypatch.setattr(cli, "_recurrent", counted)
        rc, out, _ = run_main(capsys, "simulate", "--graph", str(path),
                              "--steps", "300", "--seed", "21")
        assert rc == 0
        assert out.splitlines()[1:3] == ["distinct stable states visited: 301",
                                         "recurrent among visited: 271"]
        assert len(decided) == len(set(decided)) == 301
        # positive controls: each patch is live
        run = sandpile.markov_run(grid_with_sink_border(2), (0,) * 4, 3, 0)
        for touch in (lambda: list(run.trace), lambda: run.trace[0],
                      lambda: cli.is_recurrent(None, None)):
            with pytest.raises(AssertionError, match="decoded or re-checked"):
                touch()

    def test_summary_memory(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        save_graph(grid_with_sink_border(16), path)
        argv = ["simulate", "--graph", str(path), "--seed", "3", "--steps"]
        assert cli.main(argv + ["1"]) == 0    # warm the imports
        tracemalloc.start()
        try:
            assert cli.main(argv + ["2000"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "distinct stable states visited: 2001" in capsys.readouterr().out
        # 2,001 distinct packed states of 256 bytes, each held once as a
        # key of the verdicts; a decoded copy of each as a tuple of 256
        # ints adds about 4.2 MB
        assert peak < 1_000_000, peak

    @pytest.mark.parametrize("text", [
        '{"values": {"v1": null, "v2": 1.0}}',
        '{"values": {"v1": [0.5], "v2": 0.5}}',
        '{"values": {"v1": NaN, "v2": 1.0}}',
    ], ids=["null", "list", "nan"])
    def test_non_numeric_mu_weight_rejected(self, tmp_path, triangle_file, text):
        mu = tmp_path / "mu.json"
        mu.write_text(text)
        out = run_cli("simulate", "--graph", triangle_file, "--steps", "0",
                      "--seed", "0", "--mu", str(mu))
        assert out.returncode == 2
        assert "steps=" not in out.stdout
        assert "Traceback" not in out.stderr


class TestPaths:
    def test_dyck_not_prime(self):
        out = run_cli("paths", "--pf", "1,1,1,3,4,4,7,7,7", "--kind", "dyck")
        assert out.returncode == 1
        assert "dyck word: UUUDDUDUUDDDUUUDDD" in out.stdout
        assert "axis touches: 6,9" in out.stdout
        assert "prime=false" in out.stdout

    def test_lukasiewicz(self):
        out = run_cli("paths", "--pf", "1,1,1,3,4,4,7,7,7",
                      "--kind", "lukasiewicz")
        assert out.returncode == 1
        assert "+2,-1,+0,+1,-1,-1,+2,-1,-1" in out.stdout

    def test_single_car_prime(self):
        out = run_cli("paths", "--pf", "1")
        assert out.returncode == 0
        assert "dyck word: UD" in out.stdout
        assert "prime=true" in out.stdout

    def test_non_integer_vector_exits_2(self):
        out = run_cli("paths", "--pf", "1,x")
        assert out.returncode == 2
        assert "expected comma-separated integers" in out.stderr

    def test_pq_example(self):
        out = run_cli("paths", "--pq", "0,0,2,2,3;0,0,1,2")
        assert out.returncode == 0
        assert "lower path: EENNEENEN" in out.stdout
        assert "upper path: NNENENEEE" in out.stdout
        assert "weakly-above=true" in out.stdout
        assert "endpoint-only intersection=true" in out.stdout

    def test_pq_parking_but_not_prime(self):
        out = run_cli("paths", "--pq", "2,2;0,0")
        assert out.returncode == 1
        assert "weakly-above=true" in out.stdout
        assert "endpoint-only intersection=false" in out.stdout

    def test_pq_not_weakly_above(self):
        out = run_cli("paths", "--pq", "1,1;1,2")
        assert out.returncode == 1
        assert "weakly-above=false" in out.stdout

    def test_svg_output(self, tmp_path):
        svg = tmp_path / "path.svg"
        out = run_cli("paths", "--pf", "1,1,2", "--svg", str(svg))
        assert out.returncode == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    @pytest.mark.parametrize("kind, size, points", [
        ("dyck", 'width="456" height="96"',
         "12,84 36,60 60,36 84,12 108,36 132,60 156,36 180,60 204,36 228,12 "
         "252,36 276,60 300,84 324,60 348,36 372,12 396,36 420,60 444,84"),
        ("lukasiewicz", 'width="240" height="72"',
         "12,60 36,12 60,36 84,36 108,12 132,36 156,60 180,12 204,36 228,60"),
        ("pq", 'width="144" height="120"',
         ("12,108 36,108 60,108 60,84 60,60 84,60 108,60 108,36 132,36 132,12",
          "12,108 12,84 12,60 36,60 36,36 60,36 60,12 84,12 108,12 132,12")),
    ])
    def test_svg_polyline_pinned(self, tmp_path, kind, size, points):
        svg = tmp_path / "path.svg"
        if kind == "pq":
            out = run_cli("paths", "--pq", "0,0,2,2,3;0,0,1,2",
                          "--svg", str(svg))
            assert out.returncode == 0
        else:
            out = run_cli("paths", "--pf", "1,1,1,3,4,4,7,7,7",
                          "--kind", kind, "--svg", str(svg))
            assert out.returncode == 1
            points = (points,)
        polylines = "".join(
            f'  <polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="2"/>\n'
            for pts, color in zip(points, ("black", "firebrick")))
        assert svg.read_text() == (
            f'<svg xmlns="http://www.w3.org/2000/svg" {size}>\n'
            f'{polylines}</svg>\n')

    def test_svg_flat_path_keeps_one_unit_of_height(self, tmp_path):
        svg = tmp_path / "flat.svg"
        out = run_cli("paths", "--pf", "1,2", "--kind", "lukasiewicz",
                      "--svg", str(svg))
        assert out.returncode == 1
        assert svg.read_text().startswith(
            '<svg xmlns="http://www.w3.org/2000/svg" width="72" height="48">\n'
            '  <polyline points="12,36 36,36 60,36" ')

    @pytest.mark.parametrize("args, code, stdout", [
        (("--pf", "1,1,1,3,4,4,7,7,7", "--kind", "dyck"), 1,
         "dyck word: UUUDDUDUUDDDUUUDDD\naxis touches: 6,9\nprime=false\n"),
        (("--pq", "0,0,2,2,3;0,0,1,2"), 0,
         "lower path: EENNEENEN\nupper path: NNENENEEE\nweakly-above=true\n"
         "intersection points: (0,0) (5,4)\n"
         "endpoint-only intersection=true\n"),
    ])
    def test_readme_examples_full_stdout(self, args, code, stdout):
        out = run_cli("paths", *args)
        assert out.returncode == code
        assert out.stdout == stdout

    def test_pq_svg_has_two_polylines(self, tmp_path):
        svg = tmp_path / "pq.svg"
        out = run_cli("paths", "--pq", "0,0,2,2,3;0,0,1,2", "--svg", str(svg))
        assert out.returncode == 0
        assert svg.read_text().count("<polyline") == 2

    def test_non_parking_vector(self):
        out = run_cli("paths", "--pf", "2,2")
        assert out.returncode == 2

    def test_vector_out_of_lattice_range(self):
        out = run_cli("paths", "--pq", "5;0")
        assert out.returncode == 2

    def test_malformed_pair(self):
        out = run_cli("paths", "--pq", "0,0,1")
        assert out.returncode == 2

    def test_exactly_one_input_required(self):
        assert run_cli("paths").returncode == 2
        assert run_cli("paths", "--pf", "1", "--pq", "0;0").returncode == 2

    def test_bad_kind(self):
        out = run_cli("paths", "--pf", "1", "--kind", "motzkin")
        assert out.returncode == 2
