import csv
import json
import math
import subprocess
import sys

import pytest

from mlncount import cli
from mlncount.cli import main
from mlncount.lifted import CompiledTheory

EXAMPLE_1 = """\
domain 10
predicate f/2
hard : forall x exists y f(x,y)
count nf : f(x,y)
count fix : f(x,x)
cardinality nf == 10
query has_fix : exists x f(x,x)
"""

SMALL = """\
domain 2
predicate p/1
predicate f/2
weight 0.7 : p(x) & f(x,y) -> p(y)
hard : forall x exists y f(x,y)
count np : p(x)
query allp : forall x p(x)
"""

UNIFORM = """\
domain 5
predicate p/1
"""


@pytest.fixture
def model_path(tmp_path):
    def write(text, name="model.mln"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPartition:
    def test_uniform(self, model_path, capsys):
        code, out, _ = run(capsys, "partition", model_path(UNIFORM),
                           "--threads", "1")
        assert code == 0
        assert float(out.strip()) == pytest.approx(32)
        assert out.strip() == "3.20000000000e+01"

    def test_constrained_function_model(self, model_path, capsys):
        code, out, _ = run(capsys, "partition", model_path(EXAMPLE_1),
                           "--threads", "1")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1e10, rel=1e-9)

    def test_json_format(self, model_path, capsys):
        code, out, _ = run(capsys, "partition", model_path(UNIFORM),
                           "--format", "json", "--threads", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["partition"]["re"] == pytest.approx(32)
        assert payload["partition"]["im"] == 0.0

    def test_json_format_beyond_float_range(self, model_path, capsys):
        # 2^1030 is an exact int no float holds: "re" is its text.
        code, out, _ = run(capsys, "partition",
                           model_path("domain 1030\npredicate p/1\n"),
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "partition": {"re": "1.15052360631e+310", "im": 0.0}}


class TestMarginal:
    def test_named_queries(self, model_path, capsys):
        code, out, _ = run(capsys, "marginal", model_path(SMALL),
                           "--threads", "1")
        assert code == 0
        name, value = out.split()
        assert name == "allp"
        assert 0 <= float(value) <= 1

    def test_query_flag(self, model_path, capsys):
        code, out, _ = run(capsys, "marginal", model_path(UNIFORM),
                           "--query", "exists x p(x)", "--threads", "1")
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(31 / 32)

    def test_constrained_query(self, model_path, capsys):
        code, out, _ = run(capsys, "marginal", model_path(EXAMPLE_1),
                           "--threads", "1")
        assert code == 0
        want = 1 - (9 / 10) ** 10
        assert float(out.split()[1]) == pytest.approx(want, abs=1e-9)

    def test_json_format(self, model_path, capsys):
        text = UNIFORM.replace("domain 5", "domain 3") + (
            "weight 0.5 : p(x)\nquery allp : forall x p(x)\n"
            "query somep : exists x p(x)\n")
        code, out, _ = run(capsys, "marginal", model_path(text),
                           "--format", "json")
        assert code == 0
        q = 1 / (1 + math.exp(0.5))
        assert json.loads(out) == {"marginals": {
            "allp": pytest.approx((1 - q) ** 3, rel=1e-12),
            "somep": pytest.approx(1 - q ** 3, rel=1e-12)}}

    def test_no_query_is_parse_error(self, model_path, capsys):
        code, out, err = run(capsys, "marginal", model_path(UNIFORM))
        assert (code, out) == (2, "")
        assert err == ("error: no --query given and the model declares no "
                       "queries\n")


class TestClauseOrder:
    @pytest.mark.parametrize("command,want", [
        ("partition", "1.00000000000e+10\n"),
        ("marginal", "has_fix 6.51321559900e-01\n")])
    def test_overlapping_clauses_in_either_order(self, model_path, capsys,
                                                 command, want):
        # Both orders keep the one row nf == 10.
        exact, wide = "cardinality nf == 10\n", "cardinality nf in 0..100\n"
        for clauses in (exact + wide, wide + exact):
            text = EXAMPLE_1.replace(exact, clauses)
            code, out, err = run(capsys, command, model_path(text))
            assert code == 0, err
            assert out == want


class TestCountdist:
    def test_csv_column_order(self, model_path, tmp_path, capsys):
        out_path = tmp_path / "dist.csv"
        code, _, _ = run(capsys, "countdist", model_path(SMALL),
                         "--out", str(out_path), "--threads", "1")
        assert code == 0
        rows = list(csv.reader(out_path.open()))
        assert rows[0] == ["n_1", "value"]
        assert len(rows) == 1 + 3  # header + counts 0..2
        assert math.fsum(float(r[-1]) for r in rows[1:]) == pytest.approx(1.0)

    def test_json_schema(self, model_path, tmp_path, capsys):
        out_path = tmp_path / "dist.json"
        code, _, _ = run(capsys, "countdist", model_path(SMALL),
                         "--out", str(out_path), "--format", "json",
                         "--threads", "1")
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"countdist"}
        entry = payload["countdist"][0]
        assert set(entry) == {"index", "p"}

    def test_byte_identical_across_runs(self, model_path, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "countdist", model_path(SMALL), "--out", str(a),
            "--threads", "1")
        run(capsys, "countdist", model_path(SMALL, "copy.mln"), "--out",
            str(b), "--threads", "1")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_counts_is_parse_error(self, model_path, capsys):
        code, _, err = run(capsys, "countdist", model_path(UNIFORM),
                           "--threads", "1")
        assert code == 2
        assert "count" in err


class TestSpectrum:
    def test_csv_has_re_im(self, model_path, tmp_path, capsys):
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", model_path(SMALL),
                         "--out", str(out_path), "--threads", "1")
        assert code == 0
        rows = list(csv.reader(out_path.open()))
        assert rows[0] == ["k_1", "re", "im"]
        assert float(rows[1][1]) == pytest.approx(1.0)  # zero frequency
        assert float(rows[1][2]) == pytest.approx(0.0, abs=1e-12)


class TestFixedpoints:
    def test_csv_values(self, tmp_path, capsys):
        out_path = tmp_path / "fp.csv"
        code, _, _ = run(capsys, "fixedpoints", "--n", "10",
                         "--out", str(out_path), "--threads", "1")
        assert code == 0
        rows = list(csv.reader(out_path.open()))
        assert rows[0] == ["k", "probability_engine", "probability_analytic"]
        k1 = [r for r in rows[1:] if r[0] == "1"][0]
        assert float(k1[1]) == pytest.approx(0.387420489, abs=1e-6)
        assert float(k1[2]) == pytest.approx(0.387420489, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["countdist", SMALL], ["countdist", SMALL, "--format", "json"],
    ["spectrum", SMALL], ["fixedpoints", "--n", "4"]])
def test_stdout_holds_the_file_bytes(argv, model_path, tmp_path, capsys):
    argv = [model_path(a) if a == SMALL else a for a in argv]
    path = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    code, out, err = run(capsys, *argv)  # --out - is the default
    assert (code, err) == (0, "")
    assert out.encode() == path.read_bytes()


class TestCheck:
    def test_small_model_passes(self, model_path, capsys):
        code, out, _ = run(capsys, "check", model_path(SMALL))
        assert code == 0
        assert "partition" in out and "ok" in out

    @pytest.mark.parametrize("name", ["smokers.mln", "functions3.mln",
                                      "exact_count.mln", "hard_totality.mln"])
    def test_shipped_models_pass(self, name, capsys):
        import pathlib
        path = pathlib.Path(__file__).parent.parent / "models" / name
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0, out
        assert "MISMATCH" not in out

    def test_gap_prints_mismatch_and_exits_one(self, model_path, capsys,
                                               monkeypatch):
        # The oracle's partition function, doubled: the queries still agree.
        real = cli.brute_mln_partition
        monkeypatch.setattr(cli, "brute_mln_partition",
                            lambda *args: 2 * real(*args))
        code, out, _ = run(capsys, "check", model_path(SMALL))
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("partition: ")
        assert lines[0].endswith(" MISMATCH")
        assert lines[1:] and all(line.endswith(" ok") for line in lines[1:])

    def test_oracle_gets_the_models_own_constraint(self, capsys,
                                                   monkeypatch):
        import pathlib
        path = pathlib.Path(__file__).parent.parent / "models" / \
            "functions3.mln"
        parse, oracle = cli.parse_model, cli.brute_constrained_partition
        models, seen = [], []

        def parse_model(text_path):
            models.append(parse(text_path))
            return models[-1]

        def brute_constrained_partition(mln, cc, *rest):
            seen.append(cc)
            return oracle(mln, cc, *rest)

        monkeypatch.setattr(cli, "parse_model", parse_model)
        monkeypatch.setattr(cli, "brute_constrained_partition",
                            brute_constrained_partition)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0, out
        assert len(seen) == 1 and seen[0] is models[0].cardinality

    def test_cap_exceeded(self, model_path, capsys):
        code, _, err = run(capsys, "check", model_path(EXAMPLE_1))
        assert code == 4
        assert "100" in err  # 10x10 relation atoms

    def test_cap_flag_lowers_threshold(self, model_path, capsys):
        code, _, _ = run(capsys, "check", model_path(SMALL),
                         "--brute-cap", "3")
        assert code == 4


class TestParallelism:
    def test_threaded_sweep_matches_serial(self, model_path, tmp_path, capsys):
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        run(capsys, "countdist", model_path(EXAMPLE_1), "--out", str(serial),
            "--threads", "1")
        run(capsys, "countdist", model_path(EXAMPLE_1, "copy.mln"), "--out",
            str(parallel), "--threads", "2")
        assert serial.read_bytes() == parallel.read_bytes()


class TestCrossProcessDeterminism:
    def test_fixedpoints_bytes_stable(self, tmp_path):
        outs = []
        for name in ("one.csv", "two.csv"):
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "mlncount.cli", "fixedpoints",
                 "--n", "6", "--out", str(path), "--threads", "1"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_parse_error(self, model_path, capsys):
        code, _, err = run(capsys, "partition",
                           model_path("domain 2\npredicate p/3\n"))
        assert code == 2 and "arity" in err

    def test_reserved_predicate_name(self, model_path, capsys):
        code, out, err = run(capsys, "partition",
                             model_path("domain 2\npredicate true/1\n"))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: 'true' is a reserved word")

    def test_three_variables_name_their_line(self, model_path, capsys):
        text = ("domain 2\npredicate r/2\n"
                "hard : forall x forall y forall z r(x,z)\n")
        code, _, err = run(capsys, "partition", model_path(text))
        assert code == 2 and err.startswith("error: line 3: formula uses 3")

    def test_fixedpoints_needs_a_positive_n(self, capsys):
        code, out, err = run(capsys, "fixedpoints", "--n", "0")
        assert (code, out, err) == (2, "", "error: --n must be >= 1\n")

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "partition", "/nonexistent/x.mln")
        assert code == 2

    def test_infeasible_constraint(self, model_path, capsys):
        text = ("domain 2\npredicate p/1\ncount np : p(x)\n"
                "cardinality np == 5\n")
        code, _, err = run(capsys, "partition", model_path(text),
                           "--threads", "1")
        assert code == 3

    def test_infeasible_constraint_compiles_nothing(self, model_path,
                                                    capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("compiled a theory")

        monkeypatch.setattr("mlncount.spectrum.compile_theory", fail)
        text = ("domain 3\npredicate p/1\ncount np : p(x)\n"
                "cardinality np == 5\n")
        code, out, _ = run(capsys, "partition", model_path(text))
        assert code == 3 and out == ""

    def test_count_beyond_float_range(self, model_path, capsys):
        text = ("domain 32\npredicate p/1\npredicate f/2\n"
                "count c : p(x)\n")
        code, out, err = run(capsys, "countdist", model_path(text))
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_tilt_undo_beyond_float_range(self, model_path, capsys):
        # The function constraint's tilt, about -ln 150 per atom, is undone
        # by a factor past the float range, so the undo is shifted; the kept
        # row is then at the transform's round-off floor, a typed error.
        text = "domain 150\npredicate f/2\nfunction f\n"
        code, out, err = run(capsys, "partition", model_path(text))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_constrained_partition_beyond_float_range(self, model_path,
                                                      capsys):
        # log Z' is about 797, past the float range; the marginal is a ratio
        # and stays finite.
        path = model_path("domain 40\npredicate r/2\ncount nr : r(x,y)\n"
                          "cardinality nr == 320\n")
        code, out, err = run(capsys, "partition", path)
        assert code == 1 and out == "" and "float range" in err
        code, out, _ = run(capsys, "marginal", path, "--query",
                           "exists x r(x,x)")
        assert code == 0 and out == "query 9.99882599797e-01\n"

    @pytest.mark.parametrize("command", ["partition", "marginal", "check"])
    def test_round_off_mass_is_not_a_result(self, model_path, capsys,
                                            command):
        # Every world has np = 3, so np == 0 keeps no mass but round-off.
        path = model_path("domain 3\npredicate p/1\nhard : p(x)\n"
                          "count np : p(x)\ncardinality np == 0\n"
                          "query some : exists x p(x)\n")
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_negative_partition_function(self, model_path, capsys,
                                         monkeypatch):
        # A numeric fault (exit 1), not an infeasible model (exit 3).
        monkeypatch.setattr(CompiledTheory, "wfomc",
                            lambda *args: (-1.0, 1.0))
        path = model_path("domain 2\npredicate p/1\nweight 0.5 : p(x)\n"
                          "count np : p(x)\n")
        for argv in (["partition", path],
                     ["marginal", path, "--query", "exists x p(x)"],
                     ["countdist", path]):
            code, _, err = run(capsys, *argv)
            assert code == 1 and "negative" in err, argv

    @pytest.mark.parametrize("clause", ["", "cardinality np in 0..3\n"])
    def test_open_query_is_refused(self, model_path, capsys, clause):
        path = model_path("domain 4\npredicate p/1\nweight 0.5 : p(x)\n"
                          f"count np : p(x)\n{clause}")
        code, out, err = run(capsys, "marginal", path, "--query", "p(x)")
        assert code == 2 and out == ""
        assert err == "error: sentence has free variables: p(x)\n"

    def test_weight_beyond_exp_range(self, model_path, capsys):
        text = "domain 2\npredicate p/1\nweight 710 : p(x)\n"
        code, out, err = run(capsys, "partition", model_path(text))
        assert code == 1 and out == ""
        assert err.startswith("error: weight 710")

    def test_infeasible_hard_formulas(self, model_path, capsys):
        text = ("domain 2\npredicate p/1\nhard : exists x p(x)\n"
                "hard : forall x !p(x)\n")
        code, _, _ = run(capsys, "partition", model_path(text),
                         "--threads", "1")
        assert code == 3

    @pytest.mark.parametrize("value", ["-inf", "inf", "nan"])
    @pytest.mark.parametrize("head", ["weight", "odds"])
    def test_non_finite_weight(self, model_path, capsys, head, value):
        text = f"domain 2\npredicate p/1\n{head} {value} : p(x)\n"
        code, out, err = run(capsys, "partition", model_path(text))
        assert code == 2 and out == ""
        assert err.startswith("error: line 3:") and "finite" in err
