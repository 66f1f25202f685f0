"""Tests for the command line front end: formats, exit codes, determinism."""

import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from singpencil import (
    EPS,
    NumericalError,
    Pencil,
    SolveOptions,
    read_problem,
    scale,
    solve_2ep,
    spec_from_json,
    squarify,
    write_pencil,
    write_problem,
)
from singpencil.cli import _build_parser, _solve_options, main
from singpencil.gallery import (
    bivariate_cubic_system,
    diagonal_demo_pencil,
    showcase_pencil,
)

from helpers import run_python, start_python


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
        a, b = tmp_path / "A.mtx", tmp_path / "B.mtx"
        write_pencil(Pencil(A=np.zeros((0, 3)), B=np.zeros((0, 3))), a, b)
        code, out, err = run_cli(["solve", str(a), str(b), "--format", "csv"])
        assert code == 0 and err == ""
        rows = out.strip().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["prescribed"] * 3

    def test_table_warns_of_a_persistent_collision(self, showcase_files, monkeypatch):
        # every perturbation prescribes the true eigenvalue 1/3, and --retries 0 keeps it
        import singpencil.solver as solver_mod

        real = solver_mod.make_perturbation
        gamma = ([(1 / 3) / scale(squarify(showcase_pencil())).back_factor], [1.0])
        monkeypatch.setattr(solver_mod, "make_perturbation", lambda n, k, opts, rng: real(
            n, k, dataclasses.replace(opts, gamma=gamma), rng))
        code, out, err = run_cli(["solve", *showcase_files, "--retries", "0"])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == (
            "warning: prescribed/true eigenvalue collision persisted after retries")

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

    @pytest.mark.parametrize("token", ["+1.5", "1_0", None, "1d5", "0x1", "2 5"])
    def test_number_syntax_exit_code_follows_mmread(self, tmp_path, showcase_files, token):
        # a leading + reads as float() reads it (mmread rejects it); a short body and the
        # tokens mmread reads by their prefix (1_0 as 1, 1d5 as 1, 0x1 as 0, "2 5" as 2) exit 2
        a = tmp_path / "A.mtx"
        entries = ["1"] * 48 + ([token] if token else [])
        a.write_text("%%MatrixMarket matrix array real general\n7 7\n" + "\n".join(entries) + "\n")
        code, out, err = run_cli(["solve", str(a), showcase_files[1], "--format", "csv"])
        if token == "+1.5":
            assert code == 0 and err == ""
        else:
            assert code == 2 and out == "" and "A.mtx: not a readable Matrix Market file" in err

    def test_solve_imports_no_scipy(self, showcase_files, tmp_path):
        # the QZ binds numpy's own LAPACK and the reader parses every kind with numpy:
        # general arrays, the "symmetric" files mmwrite writes for a diagonal pencil, coordinate
        # files; gen, twoparam and doubleeig load no scipy module either, and on Linux no file
        # of scipy's own libraries is mapped into the process
        write_pencil(Pencil(A=np.random.default_rng(11).standard_normal((3, 3)),
                            B=np.random.default_rng(12).standard_normal((3, 3))),
                     tmp_path / "rA.mtx", tmp_path / "rB.mtx")
        manifest = write_problem(bivariate_cubic_system()[0], tmp_path / "problem")
        spec = {"blocks": [{"kind": "jordan", "size": 1, "eigenvalue": [0.5, 0.0]},
                           {"kind": "right_singular", "index": 1},
                           {"kind": "left_singular", "index": 2}]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        others = [
            ["gen", str(tmp_path / "spec.json"), "-o", str(tmp_path / "gen")],
            ["twoparam", manifest, "--format", "csv"],
            ["doubleeig", str(tmp_path / "rA.mtx"), str(tmp_path / "rB.mtx"), "--format", "csv"],
        ]
        linux = sys.platform.startswith("linux")
        sym_files = str(tmp_path / "sA.mtx"), str(tmp_path / "sB.mtx")
        coo_files = str(tmp_path / "cA.mtx"), str(tmp_path / "cB.mtx")
        d, p = diagonal_demo_pencil(), showcase_pencil()
        for path, m in zip(sym_files, (d.A, d.B)):
            scipy.io.mmwrite(path, m, field="complex")
        for path, m in zip(coo_files, (p.A, p.B)):
            scipy.io.mmwrite(path, scipy.sparse.coo_matrix(m), field="complex")
        pairs = [list(showcase_files), list(sym_files), list(coo_files)]
        assert [Path(a).read_text().split()[2:5] for a, _ in pairs] == [
            ["array", "complex", "general"], ["array", "complex", "symmetric"],
            ["coordinate", "complex", "general"],
        ]
        proc = run_python(
            "import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import singpencil.cli\n"
            "print(scipy_modules())\n"
            f"for pair in {pairs!r}:\n"
            "    code = singpencil.cli.main(['solve', *pair, '--format', 'csv'])\n"
            "    print(code, scipy_modules())\n"
            "import io\n"
            f"for argv in {others!r}:\n"
            "    print(singpencil.cli.main(argv, out=io.StringIO()), scipy_modules())\n"
            + (linux * "print(sorted({line.split()[-1] for line in open('/proc/self/maps')\n"
                       "              if '/scipy.libs/' in line}))\n"),
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        outs = [run_cli(["solve", *pair, "--format", "csv"])[1] for pair in pairs]
        assert proc.stdout == ("[]\n" + "".join(out + "0 []\n" for out in outs)
                               + "0 []\n" * len(others) + linux * "[]\n")

    def test_csv_solve_loads_no_generator_2ep_or_gallery(self, showcase_files, tmp_path):
        # kcf_gen, two_param and gallery load on first use, which a solve never makes
        proc = run_python(
            "import io, sys\n"
            "from singpencil.cli import main\n"
            f"code = main(['solve', *{list(showcase_files)!r}, '--format', 'csv'], out=io.StringIO())\n"
            "lazy = ('singpencil.kcf_gen', 'singpencil.two_param', 'singpencil.gallery')\n"
            "print(code, [m for m in lazy if m in sys.modules])\n",
            cwd=tmp_path,
        )
        assert (proc.returncode, proc.stdout) == (0, "0 []\n"), proc.stderr

    def test_namespace_is_each_module_all(self):
        # singpencil's names are the __all__ lists of its five modules with names, and
        # the six module names; every name is its module's own object, the lazy ones too
        import singpencil
        from singpencil import kcf_gen, matrix_core, pencil, solver, two_param

        named = (matrix_core, pencil, solver, kcf_gen, two_param)
        modules = {"matrix_core", "pencil", "solver", "kcf_gen", "two_param", "gallery"}
        assert set(singpencil.__all__) == {n for m in named for n in m.__all__} | modules
        assert len(singpencil.__all__) == 55 and singpencil.__all__ == sorted(singpencil.__all__)
        for module in named:
            for name in module.__all__:
                assert getattr(singpencil, name) is getattr(module, name), name
        assert set(singpencil.__all__) <= set(dir(singpencil))

    def test_lazy_names_load_only_what_they_need(self, tmp_path):
        # each probe runs in a fresh interpreter: a dunder loads no lazy module, a lazy
        # module loads itself only, a lazy name kcf_gen and two_param but never gallery
        probe = (
            "import sys\n"
            "import singpencil\n"
            "def loaded():\n"
            "    lazy = ('kcf_gen', 'two_param', 'gallery')\n"
            "    return [m for m in lazy if f'singpencil.{m}' in sys.modules]\n"
        )
        cases = {
            "[hasattr(singpencil, '__wrapped__'), hasattr(singpencil, '__test__')]": [False, False],
            "singpencil.kcf_gen.__name__": "singpencil.kcf_gen",
            "singpencil.double_eig.__name__": "double_eig",
            "hasattr(singpencil, 'nothing')": False,
        }
        loads = [[], ["kcf_gen"], ["kcf_gen", "two_param"], ["kcf_gen", "two_param"]]
        for (expr, value), modules in zip(cases.items(), loads):
            proc = run_python(probe + f"print(repr({expr}), loaded())\n", cwd=tmp_path)
            assert (proc.returncode, proc.stdout) == (0, f"{value!r} {modules!r}\n"), proc.stderr
        proc = run_python(
            "import singpencil\n"
            "before = set(globals())\n"
            "from singpencil import *\n"
            "bound = set(globals()) - before - {'before'}\n"
            "print(len(bound), bound == set(singpencil.__all__))\n",
            cwd=tmp_path,
        )
        assert (proc.returncode, proc.stdout) == (0, "55 True\n"), proc.stderr

    def test_non_finite_entry_exits_2(self, tmp_path, showcase_files):
        nan = tmp_path / "nan.mtx"
        nan.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\nnan\n0.0\n1.0\n")
        code, out, err = run_cli(["solve", str(nan), showcase_files[1]])
        assert code == 2 and out == ""
        assert "contains non-finite entries" in err

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
            ("solve", ["--tol", "nan"], "nonnegative"),
            ("nrank", ["--tol", "nan"], "nonnegative"),
            ("solve", ["--tau", "nan"], "tau must be finite and nonzero"),
            ("solve", ["--tau", "inf"], "tau must be finite and nonzero"),
            ("intersect", ["--delta", "nan"], "match_tol"),
            ("intersect", ["--delta", "-1"], "match_tol"),
        ],
    )
    def test_invalid_settings_exit_2(self, showcase_files, cmd, flags, msg):
        code, out, err = run_cli([cmd, *showcase_files, *flags])
        assert code == 2 and out == "" and msg in err

    @pytest.mark.parametrize("cmd", ["solve", "nrank"])
    def test_unparsable_tol_names_the_option(self, showcase_files, cmd):
        code, out, err = run_cli([cmd, *showcase_files, "--tol", "bogus"])
        assert code == 2 and out == ""
        assert "argument --tol: invalid tolerance value: 'bogus'" in err

    def test_missing_zggev_fallback_exits_2(self, showcase_files, monkeypatch):
        # a numpy whose LAPACK exports no zggev3, without scipy for the zggev fallback
        import singpencil.matrix_core as mc

        monkeypatch.setattr(mc, "_zggev3", lambda: None)
        for name in ("scipy", "scipy.linalg", "scipy.linalg.lapack"):
            monkeypatch.setitem(sys.modules, name, None)
        with pytest.raises(ImportError, match=r"singpencil\[scipy\]"):
            mc.generalized_eig(np.eye(2), np.eye(2))
        code, out, err = run_cli(["solve", *showcase_files])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "singpencil[scipy]" in err

    @pytest.mark.parametrize("cmd", ["solve", "nrank", "intersect", "doubleeig"])
    def test_empty_pencil_exits_2(self, tmp_path, cmd):
        a, b = tmp_path / "A.mtx", tmp_path / "B.mtx"
        write_pencil(Pencil(A=np.zeros((0, 0)), B=np.zeros((0, 0))), a, b)
        code, out, err = run_cli([cmd, str(a), str(b)])
        assert code == 2 and out == "" and "empty pencil" in err


@pytest.fixture()
def overflow_files(tmp_path):
    # a valid pencil whose back-scaled eigenvalues overflow to inf
    a, b = tmp_path / "oA.mtx", tmp_path / "oB.mtx"
    write_pencil(Pencil(A=np.diag([1e150, 1.0, 2.0]), B=np.diag([1.0, 1e-150, 1.0])), a, b)
    return str(a), str(b)


class TestOutputFormats:
    @pytest.mark.parametrize("cmd", ["solve", "doubleeig", "intersect"])
    def test_json_has_no_non_finite_tokens(self, overflow_files, cmd):
        code, out, err = run_cli([cmd, *overflow_files, "--format", "json"])
        assert code == 0, err

        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        doc = json.loads(out, parse_constant=reject)
        if cmd == "intersect":
            ends = [m[key] for m in doc["matches"] for key in ("e1", "e2")]
            assert ends and all(set(e) == {"re", "im"} for e in ends)

    @pytest.mark.parametrize("flags", [[], ["--no-refine"]])
    def test_doubleeig_csv_cells_are_numbers(self, tmp_path, flags):
        rng = np.random.default_rng(12)
        a, b = str(tmp_path / "A.mtx"), str(tmp_path / "B.mtx")
        write_pencil(Pencil(A=rng.standard_normal((3, 3)), B=rng.standard_normal((3, 3))), a, b)
        code, out, err = run_cli(["doubleeig", a, b, "--format", "csv", *flags])
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "lambda_re,lambda_im,min_gap" and len(lines) == 7
        for line in lines[1:]:
            assert all(math.isfinite(float(cell)) for cell in line.split(","))

    def test_doubleeig_table_warns_only_on_too_many_locations(self, tmp_path, overflow_files):
        # the 1e150 pencil returns 8 lambdas, more than n(n-1) = 6 for n = 3
        rng = np.random.default_rng(12)
        a, b = str(tmp_path / "A.mtx"), str(tmp_path / "B.mtx")
        write_pencil(Pencil(A=rng.standard_normal((3, 3)), B=rng.standard_normal((3, 3))), a, b)
        warning = "warning: an n = 3 pencil has at most n(n-1) = 6 such locations"
        for files, count, warned in ((overflow_files, 8, True), ((a, b), 6, False)):
            code, out, err = run_cli(["doubleeig", *files])
            assert code == 0, err
            tail = out.splitlines()[-2:] if warned else out.splitlines()[-1:]
            assert tail == [f"{count} double-eigenvalue locations"] + [warning] * warned


    def test_doubleeig_json_carries_the_count_warning(self, tmp_path, overflow_files):
        # the flag the table's warning line shows; csv carries the rows only
        rng = np.random.default_rng(4)
        a, b = str(tmp_path / "A.mtx"), str(tmp_path / "B.mtx")
        write_pencil(Pencil(A=rng.standard_normal((4, 4)), B=rng.standard_normal((4, 4))), a, b)
        for files, warned in ((overflow_files, True), ((a, b), False)):
            code, out, err = run_cli(["doubleeig", *files, "--format", "json"])
            assert code == 0, err
            assert json.loads(out)["count_warning"] is warned
            code, out, err = run_cli(["doubleeig", *files, "--format", "csv"])
            assert code == 0 and "warning" not in out, err


class TestDefaults:
    @pytest.mark.parametrize(
        "argv",
        [["solve", "A", "B"], ["doubleeig", "A", "B"], ["twoparam", "M"], ["intersect", "A", "B"],
         ["nrank", "A", "B"], ["gen", "S"]],
    )
    def test_unflagged_options_are_solve_options_defaults(self, argv, monkeypatch):
        monkeypatch.delenv("SINGPENCIL_SEED", raising=False)
        assert _solve_options(_build_parser().parse_args(argv)) == SolveOptions(seed=0)

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

    def test_subcommand_help_exits_zero(self, capsys):
        for sub in ("solve", "nrank", "gen", "twoparam", "doubleeig", "intersect"):
            for flag in ("--help", "-h"):
                code, out, err = run_cli([sub, flag])
                assert code == 0 and err == ""
                assert out.startswith(f"usage: singpencil {sub} ")
        assert capsys.readouterr() == ("", "")

    def test_usage_error_goes_to_err(self, capsys):
        code, out, err = run_cli(["nrank", "--bogus"])
        assert code == 2 and out == ""
        assert err.startswith("usage: singpencil nrank ") and "error:" in err
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "argv",
        [["solve", "-h"], ["nrank", "--bogus"], [], ["solve", "{a}", "{b}", "--format", "csv"]],
    )
    def test_entry_streams_match_main(self, showcase_files, tmp_path, argv):
        a, b = showcase_files
        argv = [arg.format(a=a, b=b) for arg in argv]
        proc = run_python(
            f"import sys; sys.argv[1:] = {argv!r}\n"
            "from singpencil.cli import entry\n"
            "entry()\n",
            cwd=tmp_path,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv)

    def test_no_subcommand_exits_2(self):
        code, _, _ = run_cli([])
        assert code == 2

    def test_module_entry_matches_main(self, diag_files, tmp_path):
        # ``python -m singpencil.cli`` runs the module as __main__ through runpy
        a, b = diag_files
        proc = run_python(
            "import runpy, sys\n"
            f"sys.argv = ['singpencil.cli', 'nrank', {a!r}, {b!r}]\n"
            "runpy.run_module('singpencil.cli', run_name='__main__', alter_sys=True)\n",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(["nrank", a, b])[1] == "nrank=3 k=3\n"


class TestEntry:
    def test_entry_freezes_the_import_time_objects(self, tmp_path):
        proc = run_python(
            "import gc, singpencil.cli\n"
            "singpencil.cli.main = lambda: print(gc.get_freeze_count())\n"
            "singpencil.cli.entry()\n",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 10_000  # numpy's and the package's objects

    def test_main_never_freezes(self, diag_files, tmp_path):
        a, b = diag_files
        proc = run_python(
            "import gc, io\n"
            "from singpencil.cli import main\n"
            f"assert main(['solve', {a!r}, {b!r}], out=io.StringIO()) == 0\n"
            "print(gc.get_freeze_count())\n",
            cwd=tmp_path,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_pipe_exits_1_quietly(self, showcase_files, tmp_path, unbuffered):
        a, b = showcase_files
        proc = start_python(
            f"import sys; sys.argv[1:] = ['solve', {a!r}, {b!r}]\n"
            "from singpencil.cli import entry\n"
            "entry()\n",
            cwd=tmp_path,
            env={"PYTHONUNBUFFERED": unbuffered},
        )
        proc.stdout.close()  # the reader is gone before the first write
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_main_returns_1_on_a_closed_pipe(self, showcase_files, method):
        def broken(*_):
            raise BrokenPipeError(32, "Broken pipe")

        out, err = io.StringIO(), io.StringIO()
        setattr(out, method, broken)
        assert main(["solve", *showcase_files], out=out, err=err) == 1
        assert err.getvalue() == ""


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

    @pytest.mark.parametrize("cmd", ["gen", "twoparam"])
    def test_invalid_json_names_line_and_column(self, tmp_path, cmd):
        # gen specs and twoparam manifests share one reader and one message
        path = tmp_path / "doc.json"
        path.write_text("{broken")
        assert run_cli([cmd, str(path)]) == (2, "", (
            f"error: {path}:1:2: invalid JSON (Expecting property name enclosed in double quotes)\n"))

    @pytest.mark.parametrize("block,field", [({"kind": "jordan"}, "size"),
                                             ({"kind": "right_singular"}, "index")])
    def test_block_without_its_size_or_index_exits_2(self, tmp_path, block, field):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"blocks": [{"kind": "jordan", "size": 1}, block]}))
        code, out, err = run_cli(["gen", str(spec_path)])
        assert (code, out) == (2, "")
        assert err == f"error: block 1: {block['kind']} needs an integer '{field}'\n"


    def test_non_finite_eigenvalue_names_its_block(self, tmp_path):
        # json reads NaN as a float; the block that holds it is named, not the matrix A
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"blocks": [{"kind": "nilpotent", "size": 1}, '
                             '{"kind": "jordan", "size": 1, "eigenvalue": [NaN, 0]}]}')
        code, out, err = run_cli(["gen", str(spec_path), "-o", str(tmp_path / "out")])
        assert (code, out) == (2, "")
        assert err == "error: block 1: Jordan eigenvalue must be finite, got (nan+0j)\n"
        assert not (tmp_path / "out").exists()

class TestTwoParamCommand:
    def test_cubic_system_csv(self, tmp_path):
        p, c1, c2 = bivariate_cubic_system()
        manifest = write_problem(p, tmp_path / "prob")
        code, out, err = run_cli(["twoparam", manifest, "--seed", "7", "--format", "csv"])
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0].startswith("lambda_re,lambda_im,mu_re")
        assert len(lines) == 10  # header + 9 roots
        pairs = solve_2ep(p, opts=SolveOptions(seed=7))
        assert [[float(x) for x in ln.split(",")] for ln in lines[1:]] == [
            [e.lam.real, e.lam.imag, e.mu.real, e.mu.imag, e.mu_discrepancy, e.residual1, e.residual2]
            for e in pairs
        ]
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

    @pytest.mark.parametrize("delta", ["nan", "-1e-6"])
    def test_nan_or_negative_delta_exits_2(self, tmp_path, delta):
        manifest = write_problem(bivariate_cubic_system()[0], tmp_path / "prob")
        code, out, err = run_cli(["twoparam", manifest, f"--delta={delta}"])
        assert (code, out) == (2, "") and "delta must be a nonnegative number" in err


_JORDAN = {"kind": "jordan", "size": 1}
_MANIFEST = {k: f"{k}.mtx" for k in ("A1", "B1", "C1", "A2", "B2", "C2")}


@pytest.mark.parametrize(
    "cmd,doc",
    [
        ("gen", {"blocks": [1]}),
        ("gen", {"blocks": 5}),
        ("gen", {"blocks": [{**_JORDAN, "eigenvalue": "ab"}]}),
        ("gen", {"blocks": [{**_JORDAN, "eigenvalue": [1]}]}),
        ("gen", {"blocks": [{**_JORDAN, "eigenvalue": None}]}),
        ("gen", {"blocks": [{**_JORDAN, "size": None}]}),
        ("gen", {"blocks": [{**_JORDAN, "kind": ["jordan"]}]}),
        ("gen", {"blocks": [_JORDAN], "cond_bound": None}),
        ("twoparam", 5),
        ("twoparam", {**_MANIFEST, "A1": 5}),
        ("gen", {"blocks": [{"kind": "nilpotent", "size": 2.7}]}),
        ("gen", {"blocks": [{"kind": "nilpotent", "size": True}]}),
        ("gen", {"blocks": [{"kind": "right_singular", "index": 1.5}]}),
        ("gen", {"blocks": [_JORDAN, {"kind": "left_singular", "index": False}]}),
        ("gen", {"blocks": [{**_JORDAN, "size": "1"}]}),
        ("gen", {"blocks": [_JORDAN], "cond_bound": "5"}),
        ("gen", {"blocks": [_JORDAN], "cond_bound": True}),
        ("gen", {"blocks": [_JORDAN], "cond_bound": "nan"}),
        ("gen", {"blocks": [_JORDAN], "cond_bound": 1e400}),
        ("gen", {"blocks": [_JORDAN], "cond_bound": math.nan}),
        ("gen", {"blocks": [_JORDAN], "cond_bound": 0.5}),
        ("gen", {"blocks": [{**_JORDAN, "eigenvalue": True}]}),
        ("gen", {"blocks": [{**_JORDAN, "eigenvalue": [True, 0]}]}),
        ("gen", {"blocks": [{**_JORDAN, "eigenvalue": [0.5, False]}]}),
    ],
)
def test_ill_shaped_json_exits_2(tmp_path, monkeypatch, cmd, doc):
    # valid JSON of the wrong shape is an input-file error, not a crash
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([cmd, str(path)])
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: ")
    with pytest.raises(ValueError):
        spec_from_json(doc) if cmd == "gen" else read_problem(path)


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


    def test_rectangular_pair_exits_2(self, tmp_path):
        a, b = str(tmp_path / "A.mtx"), str(tmp_path / "B.mtx")
        write_pencil(Pencil(A=np.ones((2, 3)), B=np.eye(2, 3)), a, b)
        assert run_cli(["doubleeig", a, b]) == (2, "", "error: doubleeig requires square matrices\n")


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

    def test_env_seed_override(self, showcase_files, monkeypatch, tmp_path):
        a, b = showcase_files
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(TestGenCommand.SPEC))
        for argv in (["solve", a, b, "--format", "csv"], ["nrank", a, b]):
            monkeypatch.setenv("SINGPENCIL_SEED", "1")
            _, out_env, _ = run_cli(argv)
            monkeypatch.delenv("SINGPENCIL_SEED")
            _, out_flag, _ = run_cli([*argv, "--seed", "1"])
            assert out_env == out_flag
        monkeypatch.setenv("SINGPENCIL_SEED", "1")
        assert run_cli(["gen", str(spec), "-o", str(tmp_path / "env")])[0] == 0
        monkeypatch.delenv("SINGPENCIL_SEED")
        assert run_cli(["gen", str(spec), "-o", str(tmp_path / "flag"), "--seed", "1"])[0] == 0
        for name in ("ground_truth.json", "A.mtx"):
            assert (tmp_path / "env" / name).read_text() == (tmp_path / "flag" / name).read_text()
        assert json.loads((tmp_path / "env" / "ground_truth.json").read_text())["seed"] == 1
        monkeypatch.setenv("SINGPENCIL_SEED", "not-an-int")
        code, _, err = run_cli(["solve", a, b])
        assert code == 2
        assert "SINGPENCIL_SEED" in err
