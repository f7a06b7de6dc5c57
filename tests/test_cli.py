import csv
import json
import math
import subprocess
import sys

import pytest

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

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "partition", "/nonexistent/x.mln")
        assert code == 2

    def test_infeasible_constraint(self, model_path, capsys):
        text = ("domain 2\npredicate p/1\ncount np : p(x)\n"
                "cardinality np == 5\n")
        code, _, err = run(capsys, "partition", model_path(text),
                           "--threads", "1")
        assert code == 3

    def test_count_beyond_float_range(self, model_path, capsys):
        text = ("domain 32\npredicate p/1\npredicate f/2\n"
                "count c : p(x)\n")
        code, out, err = run(capsys, "countdist", model_path(text))
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_negative_partition_function(self, model_path, capsys,
                                         monkeypatch):
        # A numeric fault (exit 1), not an infeasible model (exit 3).
        monkeypatch.setattr(CompiledTheory, "wfomc", lambda *args: -1.0)
        path = model_path("domain 2\npredicate p/1\nweight 0.5 : p(x)\n"
                          "count np : p(x)\n")
        for argv in (["partition", path],
                     ["marginal", path, "--query", "exists x p(x)"],
                     ["countdist", path]):
            code, _, err = run(capsys, *argv)
            assert code == 1 and "negative" in err, argv

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
