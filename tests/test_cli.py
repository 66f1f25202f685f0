"""Tests for the command line front end: formats, exit codes, determinism."""

import io
import json
import math

import numpy as np
import pytest

from singpencil import EPS, NumericalError, Pencil, SolveOptions, write_pencil, write_problem
from singpencil.cli import _build_parser, _config_from_args, main
from singpencil.gallery import (
    bivariate_cubic_system,
    diagonal_demo_pencil,
    showcase_pencil,
)

from helpers import run_python


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def showcase_files(tmp_path):
    a, b = tmp_path / "A.mtx", tmp_path / "B.mtx"
    write_pencil(showcase_pencil(), a, b)
    return str(a), str(b)


@pytest.fixture()
def diag_files(tmp_path):
    a, b = tmp_path / "dA.mtx", tmp_path / "dB.mtx"
    write_pencil(diagonal_demo_pencil(), a, b)
    return str(a), str(b)


class TestSolveCommand:
    @pytest.mark.parametrize(
        "a,b,label",
        [(1.0, 0.0, "infinite_true"), (0.0, 1.0, "finite_true"), (0.0, 0.0, "prescribed")],
    )
    def test_zero_factor_pencils_exit_zero(self, tmp_path, a, b, label):
        pa, pb = tmp_path / "A.mtx", tmp_path / "B.mtx"
        write_pencil(Pencil(A=a * np.eye(4), B=b * np.eye(4)), pa, pb)
        code, out, err = run_cli(["solve", str(pa), str(pb), "--seed", "1", "--format", "csv"])
        assert code == 0 and err == ""
        assert [row.split(",")[-1] for row in out.strip().splitlines()[1:]] == [label] * 4

    def test_zero_row_files_solve(self, tmp_path):
        # in a child process: a regression in zero-row Matrix Market I/O
        # hangs (mmwrite) or kills the interpreter (mmread)
        proc = run_python(
            "import numpy as np\n"
            "from singpencil import Pencil, write_pencil\n"
            "from singpencil.cli import main\n"
            "write_pencil(Pencil(A=np.zeros((0, 3)), B=np.zeros((0, 3))), 'A.mtx', 'B.mtx')\n"
            "raise SystemExit(main(['solve', 'A.mtx', 'B.mtx', '--format', 'csv']))\n",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.strip().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["prescribed"] * 3

    def test_table_output(self, showcase_files):
        a, b = showcase_files
        code, out, err = run_cli(["solve", a, b, "--seed", "1"])
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 9  # header + 7 rows + finite-true summary
        assert lines[0].split()[:2] == ["k", "lambda"]
        classes = [ln.split()[-1] for ln in lines[1:8]]
        assert classes.count("finite_true") == 2
        assert classes.count("infinite_true") == 1
        assert classes.count("prescribed") == 1
        assert "0.333333" in out and "0.5" in out

    def test_csv_round_trips_diagnostics(self, showcase_files):
        a, b = showcase_files
        code, out, _ = run_cli(["solve", a, b, "--seed", "1", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "index", "lambda_re", "lambda_im", "infinite",
            "s_abs", "vx_norm", "uy_norm", "zeta", "class",
        ]
        code2, js, _ = run_cli(["solve", a, b, "--seed", "1", "--format", "json"])
        doc = json.loads(js)
        for line, rec in zip(lines[1:], doc["records"]):
            vals = line.split(",")
            assert float(vals[4]) == rec["s_abs"]
            assert float(vals[5]) == rec["vx_norm"]
            assert float(vals[6]) == rec["uy_norm"]
            assert float(vals[7]) == rec["zeta"]
            assert vals[8] == rec["class"]

    def test_json_gap_report(self, showcase_files):
        a, b = showcase_files
        code, out, _ = run_cli(["solve", a, b, "--seed", "1", "--format", "json"])
        doc = json.loads(out)
        assert doc["nrank"] == 6 and doc["k"] == 1
        assert doc["gap_report"]["max_true_zeta"] < 1e-10
        assert doc["gap_report"]["min_nontrue_zeta"] > 1e-4
        assert len(doc["finite_true"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        code, out, err = run_cli(["solve", str(tmp_path / "no.mtx"), str(tmp_path / "no.mtx")])
        assert code == 2
        assert "error" in err

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("garbage\n")
        code, _, err = run_cli(["solve", str(bad), str(bad)])
        assert code == 2
        assert "bad.mtx" in err

    def test_numerical_failure_exits_3(self, showcase_files, monkeypatch):
        import singpencil.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericalError("iteration stalled", details={"iterations": 42})

        monkeypatch.setattr(cli_mod, "solve", boom)
        a, b = showcase_files
        code, _, err = run_cli(["solve", a, b])
        assert code == 3
        assert "numerical failure" in err and "42" in err


    @pytest.mark.parametrize(
        "cmd,flags,msg",
        [
            ("solve", ["--retries", "-1"], "max_retries"),
            ("solve", ["--tol", "-1"], "nonnegative"),
            ("nrank", ["--tol", "-1"], "nonnegative"),
        ],
    )
    def test_invalid_settings_exit_2(self, showcase_files, cmd, flags, msg):
        code, out, err = run_cli([cmd, *showcase_files, *flags])
        assert code == 2 and out == "" and msg in err

    @pytest.mark.parametrize("cmd", ["solve", "nrank", "intersect", "doubleeig"])
    def test_empty_pencil_exits_2(self, tmp_path, cmd):
        a, b = tmp_path / "A.mtx", tmp_path / "B.mtx"
        write_pencil(Pencil(A=np.zeros((0, 0)), B=np.zeros((0, 0))), a, b)
        code, out, err = run_cli([cmd, str(a), str(b)])
        assert code == 2 and out == "" and "empty pencil" in err


class TestDefaults:
    @pytest.mark.parametrize(
        "argv",
        [["solve", "A", "B"], ["doubleeig", "A", "B"], ["twoparam", "M"], ["intersect", "A", "B"]],
    )
    def test_unflagged_options_are_solve_options_defaults(self, argv, monkeypatch):
        monkeypatch.delenv("SINGPENCIL_SEED", raising=False)
        cfg = _config_from_args(_build_parser().parse_args(argv))
        assert cfg.opts == SolveOptions(seed=0)

    def test_intersect_default_tol(self, diag_files):
        code, out, _ = run_cli(["intersect", *diag_files, "--format", "json"])
        assert code == 0
        assert json.loads(out)["tol"] == math.sqrt(EPS)


class TestNrankCommand:
    def test_exact_output(self, diag_files):
        a, b = diag_files
        code, out, _ = run_cli(["nrank", a, b])
        assert code == 0
        assert out == "nrank=3 k=3\n"

    def test_numeric_tol_override(self, diag_files):
        # a huge tolerance wipes out every singular value
        a, b = diag_files
        code, out, _ = run_cli(["nrank", a, b, "--tol", "10.0"])
        assert code == 0
        assert out == "nrank=0 k=6\n"


class TestHelp:
    def test_help_exits_zero(self):
        code, _, _ = run_cli(["--help"])
        assert code == 0

    def test_subcommand_help_exits_zero(self):
        for sub in ("solve", "nrank", "gen", "twoparam", "doubleeig", "intersect"):
            code, _, _ = run_cli([sub, "--help"])
            assert code == 0

    def test_no_subcommand_exits_2(self):
        code, _, _ = run_cli([])
        assert code == 2


class TestGenCommand:
    SPEC = {
        "blocks": [
            {"kind": "jordan", "size": 1, "eigenvalue": [0.5, 0.0]},
            {"kind": "jordan", "size": 1, "eigenvalue": [-1.25, 0.75]},
            {"kind": "nilpotent", "size": 1},
            {"kind": "right_singular", "index": 1},
            {"kind": "left_singular", "index": 2},
        ],
        "transform": "unitary",
    }

    def test_gen_then_solve_matches_ground_truth(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        outdir = tmp_path / "out"
        code, out, err = run_cli(["gen", str(spec_path), "-o", str(outdir), "--seed", "7"])
        assert code == 0, err
        truth = json.loads((outdir / "ground_truth.json").read_text())
        code, js, _ = run_cli(
            ["solve", str(outdir / "A.mtx"), str(outdir / "B.mtx"), "--seed", "3",
             "--format", "json"]
        )
        assert code == 0
        doc = json.loads(js)
        got = sorted(
            (round(v["re"], 8), round(v["im"], 8)) for v in doc["finite_true"]
        )
        want = sorted((round(re, 8), round(im, 8)) for re, im in truth["finite_eigenvalues"])
        assert got == want
        assert doc["nrank"] == truth["nrank"]

    def test_bad_spec_json_exits_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{broken")
        code, _, err = run_cli(["gen", str(spec_path)])
        assert code == 2
        assert "spec.json:1:" in err


class TestTwoParamCommand:
    def test_cubic_system_csv(self, tmp_path):
        p, c1, c2 = bivariate_cubic_system()
        manifest = write_problem(p, tmp_path / "prob")
        code, out, err = run_cli(["twoparam", manifest, "--seed", "7", "--format", "csv"])
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0].startswith("lambda_re,lambda_im,mu_re")
        assert len(lines) == 10  # header + 9 roots
        from singpencil.gallery import evaluate_bivariate

        for ln in lines[1:]:
            v = [float(x) for x in ln.split(",")[:4]]
            lam, mu = complex(v[0], v[1]), complex(v[2], v[3])
            assert abs(evaluate_bivariate(c1, lam, mu)) < 1e-6

    def test_table_mode(self, tmp_path):
        p, _, _ = bivariate_cubic_system()
        manifest = write_problem(p, tmp_path / "prob")
        code, out, _ = run_cli(["twoparam", manifest, "--seed", "7"])
        assert code == 0
        assert out.strip().splitlines()[-1] == "9 eigenvalue pairs"


class TestDoubleEigCommand:
    def test_small_problem(self, tmp_path):
        rng = np.random.default_rng(11)
        from singpencil import Pencil

        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        write_pencil(Pencil(A=A, B=B), tmp_path / "A.mtx", tmp_path / "B.mtx")
        code, out, _ = run_cli(
            ["doubleeig", str(tmp_path / "A.mtx"), str(tmp_path / "B.mtx"), "--seed", "5"]
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "2 double-eigenvalue locations"


class TestIntersectCommand:
    def test_runs_and_reports(self, diag_files):
        a, b = diag_files
        code, out, _ = run_cli(["intersect", a, b, "--seed", "9"])
        assert code == 0
        assert "matched eigenvalues within tol" in out
        assert "0.5" in out and "0.666667" in out and "0.75" in out


class TestDeterminism:
    COMMANDS = [
        lambda a, b, m: ["solve", a, b, "--seed", "1", "--format", "csv"],
        lambda a, b, m: ["solve", a, b, "--seed", "1", "--format", "json"],
        lambda a, b, m: ["nrank", a, b],
        lambda a, b, m: ["doubleeig", a, b, "--seed", "2", "--format", "csv"],
        lambda a, b, m: ["intersect", a, b, "--seed", "3", "--format", "json"],
        lambda a, b, m: ["twoparam", m, "--seed", "7", "--format", "csv"],
    ]

    def test_byte_identical_reruns(self, tmp_path):
        from singpencil import Pencil

        rng = np.random.default_rng(0)
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        a, b = str(tmp_path / "A.mtx"), str(tmp_path / "B.mtx")
        write_pencil(Pencil(A=A, B=B), a, b)
        p, _, _ = bivariate_cubic_system()
        m = write_problem(p, tmp_path / "prob")
        for make in self.COMMANDS:
            argv = make(a, b, m)
            runs = [run_cli(argv) for _ in range(2)]
            assert runs[0] == runs[1], f"non-deterministic output for {argv}"

    def test_env_seed_override(self, showcase_files, monkeypatch):
        a, b = showcase_files
        monkeypatch.setenv("SINGPENCIL_SEED", "1")
        _, out_env, _ = run_cli(["solve", a, b, "--format", "csv"])
        monkeypatch.delenv("SINGPENCIL_SEED")
        _, out_flag, _ = run_cli(["solve", a, b, "--seed", "1", "--format", "csv"])
        assert out_env == out_flag
        monkeypatch.setenv("SINGPENCIL_SEED", "not-an-int")
        code, _, err = run_cli(["solve", a, b])
        assert code == 2
        assert "SINGPENCIL_SEED" in err
