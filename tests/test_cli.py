import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from susypv.cli import main


def run(argv):
    return main(argv)


class TestSolveCommand:
    def test_basic_run_writes_file(self, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        code = run(["solve", "--l", "1", "--eps", "1", "--nu", "1", "--k", "1",
                    "--order", "1234", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        lines = text.strip().splitlines()
        assert lines[1] == "z,w_re,w_im,residual,flag"
        assert len(lines) == 202  # meta + header + 200 grid rows
        meta = json.loads(lines[0][2:])
        assert float(meta["max_residual"]) <= 1e-8

    def test_complex_columns_populated(self, tmp_path):
        out = tmp_path / "sol.csv"
        code = run(["solve", "--l", "3", "--eps", "0", "--lk", "0,100",
                    "--k", "1", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[2:]
        assert any(abs(float(r.split(",")[2])) > 1e-8 for r in rows)

    def test_zmin_zero_is_config_error(self, tmp_path):
        code = run(["solve", "--zmin", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_degenerate_exit_code(self, tmp_path):
        args = ["solve", "--l", "1", "--eps", "1.25", "--nu", "inf",
                "--mode", "complex-over-real", "--out", str(tmp_path / "d.csv")]
        assert run(args) == 3
        assert run(args + ["--allow-degenerate"]) == 0

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["solve", "--l", "2", "--eps", "0.5", "--nu", "1", "--points", "50"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format_mirrors_csv(self, tmp_path):
        out = tmp_path / "sol.json"
        code = run(["solve", "--l", "1", "--eps", "0.5", "--nu", "1",
                    "--points", "20", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta", "grid"}
        assert len(doc["grid"]) == 20
        assert {"z", "w_re", "w_im", "residual", "flag"} <= set(doc["grid"][0])
        assert "a" in doc["meta"] and "ordering" in doc["meta"]

    @pytest.mark.parametrize("l,eps", [("1.5", "-0.5"), ("2.5", "0")])
    def test_half_odd_branch1_certifies(self, l, eps, tmp_path):
        # branch 1 alone at half-odd l, where 1F1(a1, b1) terminates before
        # its pole; at a1 = 0 (the first case) its derivative is 0
        code = run(["solve", "--l", l, "--eps", eps, "--nu", "0", "--mode", "complex-over-real",
                    "--points", "8", "--out", str(tmp_path / "h.csv")])
        assert code == 0

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l = 2\npoints = 25\n")
        out = tmp_path / "c.csv"
        # flag --points beats the file; file's l=2 beats the default
        code = run(["solve", "--eps", "0.5", "--nu", "1", "--points", "10",
                    "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 12

    DEGENERATE_CFG = ("l = 1\neps = 1.25\nnu = inf\nk = 1\n"
                      "mode = complex-over-real\nallow-degenerate = {}\n")

    @pytest.mark.parametrize("value,expected", [("false", 3), ("No", 3), ("0", 3), ("yes", 0)])
    def test_config_file_boolean(self, value, expected, tmp_path):
        # "false" is a non-empty string; it must not switch the flag on
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.DEGENERATE_CFG.format(value))
        assert run(["solve", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == expected

    @pytest.mark.parametrize("line", ["points = abc", "k = 2.5", "allow-degenerate = maybe",
                                      "spacing = cubic"])
    def test_config_file_bad_value(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = run(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestSeedConstructionErrors:
    # the half-odd-l branch mixture and the annihilated chain are rules of
    # SeedSpec, checked after argparse accepted the flags (an annihilated
    # chain that a sampled zero test missed once ended in exit 3, NaN rows
    # or exit 1: the --l 0 --eps 2.25 --nu 0 --k 4 cases);
    # the other values pass argparse but name nothing the library can
    # run (a bad ordering, k, l, grid bound, tol, filter or --out path);
    # a grid bound outside the evaluation window once ended in a traceback
    @pytest.mark.parametrize("argv", [
        ["solve", "--l", "1.5", "--eps", "0.1,2", "--nu", "0.3,1", "--k", "4",
         "--order", "2413"],
        ["grid-potential", "--l", "1.5", "--eps", "0.1,2", "--nu", "0.3,1", "--k", "1"],
        ["solve", "--l", "1", "--eps", "1.25", "--nu", "inf", "--k", "2"],
        ["solve", "--l", "0", "--eps", "2.25", "--nu", "0", "--k", "4"],
        ["grid-potential", "--l", "0", "--eps", "2.25", "--nu", "0", "--k", "4"],
        ["hierarchy", "--l", "0", "--eps", "2.25", "--nu", "0", "--k", "4"],
        ["solve", "--order", "1111"],
        ["verify", "--k", "0"],
        ["verify", "--k", "-2"],
        ["table", "--which", "t1", "--l", "-3"],
        ["table", "--which", "t0", "--l", "-3"],
        ["table", "--which", "t2", "--l", "1/0"],
        ["solve", "--zmax", "-5"],
        ["solve", "--zmin", "nan"],
        ["solve", "--zmax", "inf"],
        ["solve", "--spacing", "linear", "--zmax", "-1"],
        ["grid-potential", "--xmax", "-1"],
        ["grid-potential", "--xmin", "nan"],
        ["solve", "--l", "inf"],
        ["solve", "--nu", "nan"],
        ["table", "--which", "t1", "--l", "1e400"],
        ["table", "--which", "t1", "--points", "0"],
        ["solve", "--tol", "nan"],
        ["solve", "--tol", "-1"],
        ["solve", "--l", "1.5", "--eps", "-3", "--nu", "0", "--mode", "real-physical"],
        ["verify", "--check", "nosuch"],
        ["solve", "--points", "5", "--out", "no-such-dir/out"],
        ["grid-potential", "--points", "5", "--out", "no-such-dir/out"],
        ["verify", "--check", "shift", "--out", "no-such-dir/out"],
        ["solve", "--l", "2", "--eps", "0.45", "--nu", "3", "--k", "9"],
        ["solve", "--l", "2", "--eps", "0.45", "--nu", "3", "--k", "12"],
        ["solve", "--k", "100000"],
        ["verify", "--k", "9"],
        ["solve", "--l", "1.5", "--eps", "0.1,1", "--nu", "0"],
        ["solve", "--l", "0.5", "--eps", "0.2", "--nu", "0", "--mode", "complex-over-real"],
        ["solve", "--l", "2.5", "--eps", "0.3,0.5", "--nu", "0", "--k", "2"],
        ["hierarchy", "--l", "0.5", "--eps", "0", "--nu", "0"],
        ["solve", "--lk", "1e308,1e308"],
        ["solve", "--eps", "3e4"],
        ["solve", "--eps", "0,3e4"],
        ["solve", "--l", "1000", "--nu", "inf"],
        ["table", "--which", "t0", "--l", "51"],
        ["solve", "--zmax", "1000"],
        ["solve", "--zmin", "1e-300"],
        ["grid-potential", "--xmax", "30"],
        ["grid-potential", "--xmax", "25", "--eps", "0,100"],
        ["grid-potential", "--l", "50", "--xmin", "1e-7"],
    ], ids=["solve-half-odd-l", "grid-potential-half-odd-l", "solve-annihilated-chain",
            "solve-annihilated-branch1", "grid-potential-annihilated-branch1",
            "hierarchy-annihilated-branch1",
            "solve-invalid-ordering", "verify-k-zero", "verify-k-negative",
            "table-l-below-half", "table-t0-l-below-half", "table-l-zero-denominator",
            "solve-zmax-negative", "solve-zmin-nan", "solve-zmax-inf",
            "solve-linear-zmax-negative", "grid-potential-xmax-negative",
            "grid-potential-xmin-nan", "solve-l-inf", "solve-nu-nan", "table-l-overflow",
            "table-points-zero", "solve-tol-nan", "solve-tol-negative",
            "solve-nu-bound-gamma-pole", "verify-no-matching-check", "solve-unwritable-out",
            "grid-potential-unwritable-out", "verify-unwritable-out", "solve-k-above-cap",
            "solve-k-twelve", "solve-k-huge", "verify-k-above-cap",
            "solve-half-odd-branch1-pole", "solve-half-odd-branch1-pole-b0",
            "solve-half-odd-branch1-pole-k2", "hierarchy-half-odd-branch1-pole",
            "solve-mixture-norm-overflow", "solve-eps-large", "solve-eps-imaginary-large",
            "solve-l-large", "table-l-above-cap", "solve-zmax-above-window",
            "solve-zmin-below-window", "grid-potential-xmax-above-window",
            "grid-potential-xmax-above-window-complex-eps", "grid-potential-xmin-below-window"])
    def test_config_error_exit(self, argv, tmp_path, capsys):
        if argv[0] not in ("table", "hierarchy") and "--out" not in argv:  # these take no --out
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err
        assert "Traceback" not in err


class TestPointsBound:
    # an unbounded --points once ran for hours (1e8) or ended in a
    # MemoryError traceback from np.geomspace (1e15)
    @pytest.mark.parametrize("points", ["100001", "1000000000000000"])
    @pytest.mark.parametrize("command", [["solve"], ["table", "--which", "t1"],
                                         ["grid-potential"]])
    def test_above_bound_is_config_error(self, command, points, tmp_path, capsys):
        argv = command + ["--points", points]
        if command[0] != "table":
            argv += ["--out", str(tmp_path / "out.csv")]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: points must lie in [2, 100000]" in err
        assert "Traceback" not in err


class TestTableCommand:
    def test_params_rows_reported(self, capsys):
        code = run(["table", "--which", "params"])
        out = capsys.readouterr().out
        assert code == 1  # the published 2314 entry is off the alpha route
        assert "2314: MISMATCH" in out
        assert out.count("exact") == 5

    def test_t1_report(self, capsys):
        code = run(["table", "--which", "t1", "--l", "1", "--points", "30"])
        out = capsys.readouterr().out
        assert "t1 1423: params=exact w=matched" in out
        assert code == 1  # published 2413/3412 cells do not reproduce

    def test_t0_at_l3_reports_without_traceback(self, capsys):
        # x = 3 is a node of psi_1l at l = 3; the perp state is stepped
        # through it, so the report completes and the rows certify
        code = run(["table", "--which", "t0", "--l", "3"])
        captured = capsys.readouterr()
        assert code == 1  # the printed 1423/2413 cells do not reproduce
        assert "Traceback" not in captured.err
        for row in ("1324", "2314"):
            line = next(l for l in captured.out.splitlines() if l.startswith(f"t0 {row}:"))
            assert "w=residual-certified" in line
            assert float(line.split("residual=")[1].split()[0]) <= 1e-8

    def test_degenerate_machinery_named_on_mismatch(self, capsys):
        # at l = -1/2 the derived closed form of row 1423 is w = 0, while the
        # machinery's w is identically 1: the line says which degeneracy it met
        code = run(["table", "--which", "t2", "--l=-1/2"])
        out = capsys.readouterr().out
        assert code == 1
        line = next(l for l in out.splitlines() if l.startswith("t2 1423:"))
        assert line == "t2 1423: params=exact w=mismatch machinery=w==1"

    @pytest.mark.parametrize("ell,machinery", [("-1/2", "w==1"), ("0", "w==inf")])
    def test_t1_3412_names_only_the_measured_degeneracy(self, ell, machinery, capsys):
        # the printed 3412 cell is a closed form; the machinery's w is
        # degenerate, and which degeneracy depends on l
        run(["table", "--which", "t1", f"--l={ell}", "--points", "12"])
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("t1 3412:"))
        assert line == f"t1 3412: params=exact w=mismatch machinery={machinery}"


class TestVerifyCommand:
    def test_filtered_check(self, capsys):
        assert run(["verify", "--check", "intertwining", "--k", "3"]) == 0
        assert "PASS intertwining k=3" in capsys.readouterr().out

    def test_corrupt_self_test(self, shift_superpotential):
        assert run(["verify", "--check", "intertwining", "--k", "1"]) == 1

    def test_json_summary(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--check", "commutator", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True

    def test_singular_wronskian_ends_in_fail_lines(self, capsys):
        # at k = 8 the chain Wronskian has a node at a sample point: the checks
        # that meet it, factorization included, report FAIL with max_error=inf
        # and the error text
        assert run(["verify", "--k", "8"]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        lines = captured.out.splitlines()
        assert sum(line.startswith("FAIL ") for line in lines) == 6
        assert sum(line.startswith("PASS ") for line in lines) == 9
        singular = [line for line in lines if "max_error=inf" in line]
        assert len(singular) == 6 and all("W vanishes near x=" in line for line in singular)


class TestHierarchyCommand:
    def test_polynomial(self, capsys):
        code = run(["hierarchy", "--l", "2", "--eps", "0.75", "--nu", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "family: polynomial" in out
        assert "matched convention=sqrt" in out

    def test_weber_residual_only(self, capsys):
        # sub-bound nu is fine here: hierarchy regimes are formal
        code = run(["hierarchy", "--l", "0", "--eps", "0.37", "--nu", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "family: weber" in out

    def test_rational(self, capsys):
        # w = (z + 7)/2 exactly: branch 2 terminates after Kummer's transformation
        code = run(["hierarchy", "--l", "1", "--eps", "-2.25", "--nu", "inf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "family: rational" in out


class TestComplexEpsSolve:
    def test_complex_eps_and_nu(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["solve", "--l", "3", "--eps", "1,11", "--nu", "0,100",
                    "--k", "1", "--points", "25", "--out", str(out)])
        assert code == 0
        meta = json.loads(out.read_text().splitlines()[0][2:])
        assert meta["b"].startswith("59.71875")


class TestGridPotential:
    def test_emits_curve(self, tmp_path):
        out = tmp_path / "v.csv"
        code = run(["grid-potential", "--l", "2", "--eps", "0.5", "--nu", "1",
                    "--k", "1", "--points", "40", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,v_re,v_im"
        assert len(lines) == 41
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(v == v for v in vals)  # no NaN in the smooth regime


class TestColdImport:
    def test_cli_import_does_not_load_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run(
            [sys.executable, "-c", "import susypv.cli, sys; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True).stdout
        assert out.strip() == "False"
