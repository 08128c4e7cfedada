import hashlib
import json
import math
import shlex
import sys
from pathlib import Path

import pytest

from trifference import constructions, search
from trifference.cli import build_parser, run
from trifference.core import read_triff


def out_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


class TestConstructAndVerify:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "c.triff"
        assert run(["construct", "one-bounded", "--n", "5", "-o", str(path)]) == 0
        code = read_triff(path)
        assert len(code) == 10
        assert run(["verify", str(path)]) == 0
        assert "status=trifferent" in capsys.readouterr().out

    def test_verify_failure_prints_witness(self, tmp_path, capsys):
        path = tmp_path / "bad.triff"
        path.write_text("n=2\n00\n01\n10\n")
        assert run(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "status=not_trifferent" in out
        assert "00" in out and "01" in out and "10" in out

    def test_verify_json_mode(self, tmp_path, capsys):
        path = tmp_path / "bad.triff"
        path.write_text("n=2\n00\n01\n10\n")
        assert run(["verify", "--json", str(path)]) == 1
        blob = out_json(capsys)
        assert blob["status"] == "not_trifferent"
        assert blob["witness"] == [0, 1, 2]
        assert blob["schema"] == 1

    def test_witness_indexes_the_sorted_words(self, tmp_path, capsys):
        # a .triff file may list its words in any order; they are stored
        # sorted, and witness indices refer to that order
        path = tmp_path / "unsorted.triff"
        path.write_text("n=2\n22\n10\n01\n00\n")
        assert [w.string for w in read_triff(path)] == ["00", "01", "10", "22"]
        assert run(["verify", "--json", str(path)]) == 1
        assert out_json(capsys)["witness"] == [0, 1, 2]
        assert run(["verify", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[2:] == [
            "witness: indices (0, 1, 2)",
            "  00",
            "  01",
            "  10",
        ]

    def test_malformed_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.triff"
        path.write_text("n=2\n012\n")
        assert run(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_symbol_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "symbol.triff"
        path.write_text("n=3\n012\n0x2\n")
        assert run(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: codeword symbols must be 0, 1, or 2\n"

    def test_non_ascii_length_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "length.triff"
        path.write_text("n=\u00b2\n01\n", encoding="utf-8")
        assert run(["verify", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 1: first line must be 'n=<int>'\n"

    def test_missing_file(self, tmp_path):
        assert run(["verify", str(tmp_path / "nope.triff")]) == 2

    def test_triple_construct(self, tmp_path):
        path = tmp_path / "t.triff"
        assert run(["construct", "triple", "--q", "2", "-o", str(path)]) == 0
        code = read_triff(path)
        assert (code.n, len(code), code.r_bound) == (9, 12, 3)

    def test_nonprime_order_is_rejected_before_a_base_is_built(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(constructions, "one_bounded", lambda n: built.append(n))
        assert run(["construct", "triple", "--q", "150"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: q must be prime, got 150\n")
        assert built == []

    def test_recursive_construct(self, tmp_path):
        path = tmp_path / "r.triff"
        assert (
            run(["construct", "recursive", "--t", "2", "--target", "12", "-o", str(path)])
            == 0
        )
        assert read_triff(path).r_bound == 9

    def test_workers_option(self, tmp_path):
        path = tmp_path / "c.triff"
        run(["construct", "one-bounded", "--n", "8", "-o", str(path)])
        assert run(["verify", "--workers", "2", str(path)]) == 0


class TestSearch:
    def test_max_json(self, capsys):
        assert run(["search", "max", "--n", "2"]) == 0
        blob = out_json(capsys)
        assert blob["best_size"] == 4
        assert blob["status"] == "optimal"
        assert blob["config"]["n"] == 2

    def test_max_r_with_table(self, tmp_path, capsys):
        table = tmp_path / "results.json"
        assert run(
            ["search", "max-r", "--n", "3", "--r", "1", "--table", str(table)]
        ) == 0
        assert out_json(capsys)["best_size"] == 6
        saved = json.loads(table.read_text())
        assert saved["entries"][0] == {"n": 3, "r": 1, "size": 6, "status": "optimal"}

    def test_oracle_flag(self, capsys):
        assert run(["search", "max", "--n", "2", "--oracle"]) == 0
        assert out_json(capsys)["oracle_checked"] is True

    def test_cap_violation_is_an_error(self, capsys):
        assert run(["search", "max", "--n", "9"]) == 2
        assert "error:" in capsys.readouterr().err
        # refused before 3^n is computed, so at any length at once
        assert run(["search", "max", "--n", "100000000"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["max"], ["max-r", "--r", "1"]])
    def test_cap_must_be_positive(self, capsys, mode):
        assert run(["search", *mode, "--n", "3", "--cap", "0"]) == 2
        assert "argument --cap: must be a positive integer, got '0'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, size, cap",
        [
            (["search", "max", "--n", "5", "--cap", "5", "--budget", "1000"], 243, 81),
            (["search", "max-r", "--n", "7", "--r", "0"], 128, 81),
            (["search", "max-r", "--n", "4", "--r", "1", "--oracle-cap", "5"], 32, 5),
        ],
    )
    def test_oracle_cap_is_checked_before_any_search_work(
        self, monkeypatch, capsys, argv, size, cap
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("search work before the oracle cap check")

        monkeypatch.setattr(search, "_branch_and_bound", must_not_run)
        monkeypatch.setattr(search, "enumerate_bad_triples", must_not_run)
        assert run(argv + ["--oracle"]) == 2
        assert capsys.readouterr().err == (
            f"error: oracle universe size {size} exceeds cap {cap}\n"
        )

    @pytest.mark.parametrize(
        "argv, oracle, message",
        [
            (["--n", "3"], 99, "oracle disagrees with search: 99 vs 6"),
            (["--n", "3", "--budget", "5"], 0, "budgeted search exceeded the oracle optimum"),
        ],
    )
    def test_oracle_disagreement_is_a_failed_verification(
        self, monkeypatch, capsys, argv, oracle, message
    ):
        monkeypatch.setattr(search, "oracle_max", lambda instance, cap: oracle)
        assert run(["search", "max", *argv, "--oracle"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, entry",
        [
            (["bound", "report", "--n", "6", "--exact-table"], {"n": 5, "size": 10}),
            (["search", "max", "--n", "2", "--table"], {"n": 5, "r": 2}),
            (["bound", "report", "--n", "5", "--exact-table"], {"n": 5, "r": 2, "size": 1}),
        ],
    )
    def test_malformed_table_is_a_usage_error(self, tmp_path, capsys, argv, entry):
        table = tmp_path / "results.json"
        table.write_text(json.dumps({"schema": 1, "entries": [entry]}))
        assert run(argv + [str(table)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBound:
    def test_report_with_exact_table(self, tmp_path, capsys):
        table = tmp_path / "results.json"
        run(["search", "max-r", "--n", "3", "--r", "1", "--table", str(table)])
        capsys.readouterr()
        assert run(
            ["bound", "report", "--n", "3", "--exact-table", str(table)]
        ) == 0
        blob = out_json(capsys)
        names = [e["name"] for e in blob["entries"]]
        assert "exact-r1-transfer" in names
        assert blob["crossover_N0"] == 10**7

    def test_report_with_rate_lines(self, tmp_path, capsys):
        path = tmp_path / "c.triff"
        run(["construct", "one-bounded", "--n", "4", "-o", str(path)])
        capsys.readouterr()
        assert run(["bound", "report", "--n", "4", "--code", str(path)]) == 0
        assert out_json(capsys)["rates"][0]["rate"] == pytest.approx(0.5)

    def test_rate_lines_are_for_verified_codes_only(self, tmp_path, capsys, monkeypatch):
        # all nine words of length 2 would claim rate log2(9/2)/2 > log2(3/2)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "full2.triff").write_text("n=2\n" + "".join(f"{a}{b}\n" for a in "012" for b in "012"))
        assert run(["bound", "report", "--n", "2", "--code", "full2.triff"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: full2.triff is not trifferent (witness (0, 1, 3))\n"
        # a trifferent code keeps its rate line, and the rest of the report
        run(["construct", "one-bounded", "--n", "6", "-o", "ob6.triff"])
        assert run(["bound", "report", "--n", "6"]) == 0
        plain = out_json(capsys)
        assert run(["bound", "report", "--n", "6", "--code", "ob6.triff"]) == 0
        with_code = out_json(capsys)
        assert with_code.pop("config") == {**plain.pop("config"), "code": "['ob6.triff']"}
        assert with_code == {**plain, "rates": [{"label": "ob6.triff", "rate": math.log2(6) / 6}]}

    def test_zarankiewicz(self, capsys):
        assert run(
            ["bound", "zarankiewicz", "--u", "4", "--v", "4", "--s", "1", "--t", "2"]
        ) == 0
        blob = out_json(capsys)
        assert blob["value"] == 4.0
        assert blob["edge_bound"] == 3

    def test_transfer(self, capsys):
        assert run(["bound", "transfer", "--n", "4", "--r", "0", "--tb", "2"]) == 0
        assert out_json(capsys)["value"] == 10.125

    def test_transfer_value_that_comes_out_infinite_is_null(self, capsys):
        # 3^600 and the density both fit a double, their product does not
        assert run(["bound", "transfer", "--n", "600", "--r", "1", "--tb", "1e300"]) == 0
        blob = out_json(capsys)
        assert blob["value"] is None
        assert blob["log2_value"] == pytest.approx(1339.327, abs=1e-3)

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("n", [6, 512, 513, 600, 646, 647, 700, 1748, 1749, 1750, 10**9])
    def test_transfer_prints_the_report_line(self, tmp_path, capsys, n, r):
        # the same transfer as an exactly searched layer of the report; the
        # r = 2 layer of length 6 holds only 240 words
        size = 2 * n if r == 1 else 1000 if n > 6 else 200
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"schema": 1, "entries": [{"n": n, "r": r, "size": size}]}))
        assert run(["bound", "report", "--n", str(n), "--exact-table", str(table)]) == 0
        line = next(e for e in out_json(capsys)["entries"] if e["name"] == f"exact-r{r}-transfer")
        assert run(["bound", "transfer", "--n", str(n), "--r", str(r), "--tb", str(size)]) == 0
        blob = out_json(capsys)
        assert (blob["value"], blob["log2_value"]) == (line["value"], line["log2_value"])
        assert (blob["value"] is None) == (n == 10**9 or (r == 1 and n >= 1748))

    def test_deficit(self, capsys):
        assert run(["bound", "deficit", "--r", "3"]) == 0
        assert out_json(capsys)["delta_upper"] == pytest.approx(1.5)
        assert run(["bound", "deficit", "--r", "2", "--n", "9", "--tb", "12"]) == 0
        assert "delta" in out_json(capsys)

    def test_deficit_tb_without_n(self, capsys):
        assert run(["bound", "deficit", "--r", "2", "--tb", "12"]) == 2


class TestGraph:
    def setup_code(self, tmp_path):
        src = tmp_path / "t3.triff"
        run(["construct", "triple", "--q", "2", "-o", str(src)])
        proj = tmp_path / "t2.triff"
        run(["project", str(src), "--best", "-o", str(proj)])
        return src, proj

    def test_build_with_edge_list(self, tmp_path, capsys):
        src, proj = self.setup_code(tmp_path)
        capsys.readouterr()
        edges = tmp_path / "edges.txt"
        assert run(["graph", "build", str(proj), "--edges", str(edges)]) == 0
        blob = out_json(capsys)
        assert blob["kind"] == "simple"
        assert edges.read_text().count("\n") == blob["edge_count"]

    def test_kst_check(self, tmp_path, capsys):
        src, proj = self.setup_code(tmp_path)
        capsys.readouterr()
        assert run(["graph", "kst-check", str(proj), "--s", "3", "--t", "9"]) == 0
        assert out_json(capsys)["free"] is True
        assert run(["graph", "kst-check", str(src), "--s", "1", "--t", "1"]) == 0
        blob = out_json(capsys)
        assert blob["free"] is False
        assert blob["witness"]["left"] and blob["witness"]["right"]

    def test_bipartition_needs_seed(self, tmp_path, capsys):
        _, proj = self.setup_code(tmp_path)
        capsys.readouterr()
        assert run(["graph", "bipartition", str(proj)]) == 2
        assert run(["graph", "bipartition", str(proj), "--seed", "5"]) == 0
        blob = out_json(capsys)
        assert blob["seed"] == 5
        assert 0.0 <= blob["mean_crossing_fraction"] <= 1.0

    def test_kind_inference_failure(self, tmp_path, capsys):
        path = tmp_path / "c.triff"
        run(["construct", "one-bounded", "--n", "4", "-o", str(path)])
        capsys.readouterr()
        assert run(["graph", "build", str(path)]) == 2


class TestTransforms:
    def test_sample_shift_requires_seed(self, tmp_path, capsys):
        path = tmp_path / "c.triff"
        run(["construct", "one-bounded", "--n", "4", "-o", str(path)])
        capsys.readouterr()
        assert run(["sample-shift", str(path), "--r", "1"]) == 2
        assert (
            run(["sample-shift", str(path), "--r", "1", "--trials", "50", "--seed", "9"])
            == 0
        )
        blob = out_json(capsys)
        assert blob["seed"] == 9
        assert blob["trials"] == 50

    def test_sample_shift_exhaustive(self, tmp_path, capsys):
        path = tmp_path / "c.triff"
        run(["construct", "one-bounded", "--n", "3", "-o", str(path)])
        capsys.readouterr()
        assert run(["sample-shift", str(path), "--r", "1", "--exhaustive"]) == 0
        blob = out_json(capsys)
        assert blob["mean_fraction"] == blob["expectation"]

    def test_prune(self, tmp_path, capsys):
        path = tmp_path / "c.triff"
        run(["construct", "one-bounded", "--n", "4", "-o", str(path)])
        capsys.readouterr()
        assert run(["prune", str(path)]) == 0
        blob = out_json(capsys)
        assert blob["final_size"] <= 2
        assert len(blob["sizes"]) == 5

    def test_project_fixed_coordinate(self, tmp_path, capsys):
        src = tmp_path / "t.triff"
        run(["construct", "triple", "--q", "2", "-o", str(src)])
        out = tmp_path / "p.triff"
        assert run(["project", str(src), "--i", "2", "-o", str(out)]) == 0
        projected = read_triff(out)
        assert len(projected) > 0
        assert projected.r_bound == 2

    def test_project_needs_a_choice(self, tmp_path, capsys):
        src = tmp_path / "t.triff"
        run(["construct", "triple", "--q", "2", "-o", str(src)])
        assert run(["project", str(src)]) == 2


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_option(self, capsys):
        assert run(["construct", "one-bounded"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "report", "--n", str(10**400)],
            ["bound", "zarankiewicz", "--u", "9", "--v", str(10**400), "--s", "3", "--t", "9"],
        ],
        ids=["report", "zarankiewicz"],
    )
    def test_integer_too_big_for_a_float_is_a_usage_error(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "transfer", "--n", "5", "--r", "1", "--tb", "nan"],
            ["bound", "transfer", "--n", "5", "--r", "1", "--tb", "inf"],
            ["bound", "deficit", "--r", "2", "--n", "5", "--tb", "nan"],
        ],
        ids=" ".join,
    )
    def test_layer_bound_that_is_not_finite_is_a_usage_error(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tb_value must be positive and finite\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_output_that_is_not_finite_is_a_usage_error(self, monkeypatch, capsys, value):
        # JSON has no token for these, so the body is refused before any write
        from trifference import bounds

        monkeypatch.setattr(bounds, "deficit_upper", lambda r: value)
        assert run(["bound", "deficit", "--r", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Out of range float values")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "max", "--n", "3", "--budget", "0"],
            ["search", "max", "--n", "3", "--budget", "-5"],
            ["search", "max-r", "--n", "4", "--r", "2", "--budget", "0"],
            ["search", "max-r", "--n", "4", "--r", "0", "--budget", "-1"],
        ],
        ids=" ".join,
    )
    def test_budget_below_one_is_a_usage_error(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget: must be a positive integer" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "max", "--n", "3", "--oracle", "--oracle-cap", "0"],
            ["search", "max-r", "--n", "3", "--r", "1", "--oracle", "--oracle-cap", "-1"],
            ["search", "max-r", "--n", "3", "--r", "1", "--oracle", "--oracle-cap", "0"],
            ["search", "max", "--n", "3", "--budget", "٣"],
            ["search", "max", "--n", "3", "--budget", "²"],
            ["search", "max-r", "--n", "3", "--r", "1", "--cap", "٣"],
            ["search", "max", "--n", "3", "--cap", "²"],
            ["verify", "c.triff", "--workers", "٣"],
            ["verify", "c.triff", "--workers", "²"],
        ],
        ids=" ".join,
    )
    def test_positive_integer_flags_are_usage_errors(self, capsys, argv):
        # the .triff parser's digit rule: int() would read '٣' as 3 and reject '²'
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-2]}: must be a positive integer, got {argv[-1]!r}" in captured.err

    @pytest.mark.parametrize("bad", ["٣", "1_0", "+3"])
    @pytest.mark.parametrize(
        "line",
        [
            "construct one-bounded --n {}",
            "construct triple --q {}",
            "construct triple --q 3 --sigma-seed {}",
            "construct recursive --t {} --target 10",
            "construct recursive --t 2 --target {}",
            "search max --n {}",
            "search max-r --n {} --r 1",
            "search max-r --n 3 --r {}",
            "bound report --n {}",
            "bound zarankiewicz --u {} --v 9 --s 3 --t 9",
            "bound zarankiewicz --u 9 --v {} --s 3 --t 9",
            "bound zarankiewicz --u 9 --v 9 --s {} --t 9",
            "bound zarankiewicz --u 9 --v 9 --s 3 --t {}",
            "bound transfer --n {} --r 1 --tb 2",
            "bound transfer --n 4 --r {} --tb 2",
            "bound deficit --r {}",
            "bound deficit --r 2 --n {} --tb 12",
            "graph kst-check c.triff --s {} --t 2",
            "graph kst-check c.triff --s 1 --t {}",
            "graph bipartition c.triff --seed {}",
            "graph bipartition c.triff --seed 1 --trials {}",
            "sample-shift c.triff --r {} --seed 1",
            "sample-shift c.triff --r 1 --trials {} --seed 1",
            "sample-shift c.triff --r 1 --seed {}",
            "project c.triff --i {}",
        ],
    )
    def test_integer_flags_take_ascii_digits_only(self, capsys, line, bad):
        # int() would read each of these: '٣' and '+3' as 3, '1_0' as 10
        argv = line.format(bad).split()
        flag = argv[argv.index(bad) - 1]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: invalid int value: {bad!r}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "transfer", "--n", "4", "--r", "1", "--tb", "٨"],
            ["bound", "deficit", "--r", "2", "--n", "9", "--tb", "١٢"],
        ],
        ids=" ".join,
    )
    def test_layer_bound_takes_ascii_text_only(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --tb: invalid float value: {argv[-1]!r}" in captured.err

    def test_negative_integers_reach_the_library(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.triff").write_text("n=4\nr=2\n2200\n2020\n0202\n")
        assert run(["graph", "bipartition", "c.triff", "--seed", "-5"]) == 0
        assert out_json(capsys)["seed"] == -5
        assert run(["construct", "triple", "--q", "3", "--sigma-seed", "-1"]) == 0
        assert run(["search", "max", "--n", "-3"]) == 2
        assert capsys.readouterr().err == "error: n must be positive\n"

    def test_output_goes_to_file(self, tmp_path):
        target = tmp_path / "report.json"
        assert run(["bound", "report", "--n", "5", "-o", str(target)]) == 0
        assert json.loads(target.read_text())["n"] == 5

    def test_config_echoed_everywhere(self, tmp_path, capsys):
        path = tmp_path / "c.triff"
        run(["construct", "one-bounded", "--n", "3", "-o", str(path)])
        text = path.read_text()
        assert '"command": "construct"' in text
        capsys.readouterr()
        run(["search", "max", "--n", "2"])
        assert "config" in out_json(capsys)


# Full bodies of the commands that print a whole statistics record, as the
# record classes gave them before they became NamedTuples.
GOLDEN_BODIES = [
    (
        ["sample-shift", "c4.triff", "--r", "1", "--trials", "50", "--seed", "9"],
        {
            "code_size": 8,
            "config": {
                "code": "c4.triff",
                "command": "sample-shift",
                "exhaustive": False,
                "output": None,
                "r": 1,
                "seed": 9,
                "trials": 50,
            },
            "exhaustive": False,
            "expectation": "256/81",
            "expectation_float": 3.1604938271604937,
            "max_count": 6,
            "mean": 3.1,
            "mean_fraction": "31/10",
            "n": 4,
            "r": 1,
            "schema": 1,
            "seed": 9,
            "trials": 50,
        },
    ),
    (
        ["sample-shift", "c3.triff", "--r", "1", "--exhaustive"],
        {
            "code_size": 6,
            "config": {
                "code": "c3.triff",
                "command": "sample-shift",
                "exhaustive": True,
                "output": None,
                "r": 1,
                "seed": None,
                "trials": 10000,
            },
            "exhaustive": True,
            "expectation": "8/3",
            "expectation_float": 2.6666666666666665,
            "max_count": 6,
            "mean": 2.6666666666666665,
            "mean_fraction": "8/3",
            "n": 3,
            "r": 1,
            "schema": 1,
            "seed": None,
            "trials": 27,
        },
    ),
    (
        ["graph", "bipartition", "t2.triff", "--seed", "5", "--trials", "20"],
        {
            "config": {
                "action": "bipartition",
                "code": "t2.triff",
                "command": "graph",
                "exhaustive": False,
                "kind": "auto",
                "output": None,
                "seed": 5,
                "trials": 20,
            },
            "edge_count": 4,
            "exhaustive": False,
            "expected_edge_crossing": 0.5714285714285714,
            "mean_crossing_fraction": 0.575,
            "n": 8,
            "schema": 1,
            "seed": 5,
            "trials": 20,
        },
    ),
]


@pytest.mark.parametrize("argv, body", GOLDEN_BODIES, ids=[" ".join(a) for a, _ in GOLDEN_BODIES])
def test_statistics_bodies_are_pinned(tmp_path, monkeypatch, capsys, argv, body):
    monkeypatch.chdir(tmp_path)
    run(["construct", "one-bounded", "--n", "4", "-o", "c4.triff"])
    run(["construct", "one-bounded", "--n", "3", "-o", "c3.triff"])
    run(["construct", "triple", "--q", "2", "-o", "t3.triff"])
    run(["project", "t3.triff", "--best", "-o", "t2.triff"])
    capsys.readouterr()
    assert run(argv) == 0
    assert out_json(capsys) == body


LEAF_ARGVS = [
    ["construct", "one-bounded", "--n", "4"],
    ["construct", "triple", "--q", "2", "--sigma-seed", "3"],
    ["construct", "recursive", "--t", "2", "--target", "12"],
    ["verify", "t3.triff"],
    ["verify", "bad.triff"],
    ["verify", "--json", "bad.triff"],
    ["search", "max", "--n", "2", "--table", "results.json"],
    ["search", "max-r", "--n", "3", "--r", "1", "--oracle"],
    ["bound", "report", "--n", "4", "--code", "c4.triff"],
    ["bound", "zarankiewicz", "--u", "9", "--v", "9", "--s", "3", "--t", "9"],
    ["bound", "transfer", "--n", "4", "--r", "1", "--tb", "8"],
    ["bound", "deficit", "--r", "2", "--n", "9", "--tb", "12"],
    ["graph", "build", "t2.triff", "--edges", "edges.txt"],
    ["graph", "kst-check", "t3.triff", "--s", "1", "--t", "1"],
    ["graph", "bipartition", "t2.triff", "--seed", "5", "--trials", "20"],
    ["sample-shift", "c4.triff", "--r", "1", "--trials", "20", "--seed", "9"],
    ["prune", "c4.triff"],
    ["project", "t3.triff", "--best"],
]


@pytest.mark.parametrize("argv", LEAF_ARGVS, ids=" ".join)
def test_output_option_writes_what_stdout_would_show(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    run(["construct", "triple", "--q", "2", "-o", "t3.triff"])
    run(["project", "t3.triff", "--best", "-o", "t2.triff"])
    run(["construct", "one-bounded", "--n", "4", "-o", "c4.triff"])
    (tmp_path / "bad.triff").write_text("n=2\n00\n01\n10\n")
    capsys.readouterr()
    exit_code = run(argv)
    printed = capsys.readouterr().out
    target = tmp_path / "out.file"
    assert run(argv + ["-o", str(target)]) == exit_code
    assert capsys.readouterr().out == ""
    # the echoed configuration is the one difference: it records the -o path
    assert printed.count('"output": null') == 1
    expected = printed.replace('"output": null', f'"output": {json.dumps(str(target))}')
    assert target.read_text() == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "max", "--n", "2", "--table", "side.file"],
        ["graph", "build", "t2.triff", "--edges", "side.file"],
    ],
    ids=" ".join,
)
def test_side_file_waits_for_the_output(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    run(["construct", "triple", "--q", "2", "-o", "t3.triff"])
    run(["project", "t3.triff", "--best", "-o", "t2.triff"])
    capsys.readouterr()
    assert run(argv + ["-o", "nodir/x.json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "side.file").exists()
    assert run(argv + ["-o", "x.json"]) == 0
    assert (tmp_path / "side.file").exists()


# sha256 of json.dumps([exit code, stdout, stderr]) for each argv: the 21
# --help texts and seven usage errors, recorded at 80 columns under Python
# 3.11.7 from the parser that built every command's subtree.  argparse's
# wording changes between Python releases, so elsewhere only the lazily
# built parser's output is compared with the full parser's.
PARSER_DIGESTS = {
    "--help": "f58bbd11c86dc437d1339729ac60d4e41e2596812124ca4b9294cbed312d4cce",
    "construct --help": "8fd686fad2cc0c956640cb5c4f5511ad3a4828a2c81fc7337cd0c98cd7b4682c",
    "construct one-bounded --help": "005b0d83281252515c4105f86de8ac5dd6ffac2fce956d9d19be123eb7dc2e5d",
    "construct triple --help": "278c6b402f6d1518d536c81a7753f64eb2ad52b0558ba345fcac583df2b73146",
    "construct recursive --help": "77e2bef4065a37eb18e74a83c82234e59d1a135f353466d38876de8b0a85d4d4",
    "verify --help": "8224cad3fe41fb26fc6d3f23dae03f66ce8a98c4ad8067a583b57667687c12ff",
    "search --help": "d399c1a25176b89201cfe66feaf54865c76670b9d8bf4ec2a9dec1508ae48660",
    "search max --help": "89c4a2deffc741a764027f88e326898bef721c0309a143bed6cb37c6c9b2856b",
    "search max-r --help": "70b1ba5f8022a52f319302044b51c55927a7b8be0deb8cfbc999ac8e4ae8ee0b",
    "bound --help": "04a90fd6c61b0190e2b1e2275876072112e1c7cfaa9dd0d3181f0211cfca8ce5",
    "bound report --help": "089556efd1317f34e6c6448f2213c3c43a1a2a6297a0661910d5f578f12d874d",
    "bound zarankiewicz --help": "468b1272c582d5cc020954543006753db9b215f913c37a80358afb7114ff10aa",
    "bound transfer --help": "b49e914cdb400339d4e47cab09fd91bc3f5827b025c767605b7464f73f3fd3d1",
    "bound deficit --help": "ab5378193096f58b8a34d9f5d26cd050b659b1254fa35494d3982577901e4980",
    "graph --help": "ec3ede19a26e5ffd307c75632ab8eed9a01085e1cfed221422338ab810cb4216",
    "graph build --help": "f7335cc2258f13df33f5967f32ccb345ef0e1a14bf4e651e7eb21cfe636d3c37",
    "graph kst-check --help": "ba76af5df76ed862be77fcdf7698d5518fb1209c43fc8e7c152ed10ae56c3fb0",
    "graph bipartition --help": "57a32682ea2603b16a5b617d1658c149c64c2859c28c9a7ac8caca8c15882e3a",
    "sample-shift --help": "336c4b18290d9abbe04422ebe0888c1eff5ba5f9e4639f4c47f74afe3165a579",
    "prune --help": "5c77660675e50bc0e194ab0095826303ff0b9889a592ceac02fa2b44ba20f67e",
    "project --help": "25d323d5dbdeb6f2b54427c5c61be2e199882b4cf6e1bef9e98185088f28adf0",
    "": "733875e377538fcca8a02f54bd888d1cf1b1e6148595b04c344f3fba9bfb54b2",
    "bogus": "11ec1feac17af83004222daa01de2f0f257c68bb48f6f5d60e6a4cc588324539",
    "search bogus": "28a153070d5c9b6b761922249efd6cdf5007d4ba922e93ade9d821fd06513847",
    "verify": "69f8830a58aef201bed90a00af1bdaadbb2adc4f102945e8e99c84cc6b414957",
    "--foo verify c.triff": "644efb4ce5bb39cf6eb8c965537515bab8e744dd3c1e0f80e58149e18d3e278b",
    "-- verify c.triff": "58d86c1f3d04d60fbedee6ac2f661031e6c17e0f9b916c3970756c6e1e716ef6",
    "search max": "d1f81f52a24fc1618d0588979ee789073e41ea3a86e9c871d596ba63ee898b61",
}


def parser_outcome(parse, argv, capsys) -> str:
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


@pytest.mark.parametrize("argv", [a.split() for a in PARSER_DIGESTS], ids=[a or "(none)" for a in PARSER_DIGESTS])
def test_help_and_usage_errors_are_unchanged(tmp_path, monkeypatch, capsys, argv):
    # run builds only the subtree of the command argv names
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("LINES", "24")
    lazy = parser_outcome(run, argv, capsys)
    assert lazy == parser_outcome(lambda a: build_parser().parse_args(a), argv, capsys)
    if sys.version_info[:3] == (3, 11, 7):
        assert lazy == PARSER_DIGESTS[" ".join(argv)]


def test_readme_commands_run_as_written(tmp_path, monkeypatch, capsys):
    # every line of the README's command block, in order, in one directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("trifference ")]
    assert len(lines) > 15
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
