"""Experiment CLI: determinism, contracts, exit codes, config handling."""

import math
import subprocess
import sys

import pytest

from mellin_polar.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    UsageError,
    build_config,
    list_functions,
    main,
    run_experiment,
)


NON_DEFAULT_FLAGS = {"c": 0.3, "T": 1.7, "a": 0.2 + 0.1j, "alpha": -0.3, "t_shift": 1.3,
                     "point": (1.4, 0.2), "n_rect": 2}


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "mellin_polar.cli", *argv],
                          capture_output=True, text=True)


class TestRunExperiments:
    def test_boas_convergence_respects_bounds(self, tmp_path):
        out = tmp_path / "boas.csv"
        status = main(["run", "boas-convergence", "--function", "mellin-sine",
                       "--c", "0.5", "--T", "2", "--point", "1,0",
                       "--n", "2,4,8,16,32,64", "--out", str(out)])
        assert status == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# mellin-polar-csv")
        assert "config:" in lines[1]
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == 6
        header = lines[2].split(",")
        i_err, i_bound = header.index("abs_error"), header.index("apriori_bound")
        for row in rows:
            assert float(row[i_err]) <= float(row[i_bound])
        # final truncation at n = 64 sits under the envelope 4T/(pi^2 127)
        assert float(rows[-1][i_err]) <= 4.0 * 2.0 / (math.pi ** 2 * 127.0)

    def test_csv_is_byte_identical_across_runs(self, tmp_path):
        args = ["run", "valiron-convergence", "--function", "sine-blend",
                "--c", "0.5", "--T", "2", "--point", "1,0", "--n", "4,8,16"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timing_flag_adds_column(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["run", "boas-convergence", "--n", "2,4", "--out", str(out), "--timing"])
        assert "wall_time_s" in out.read_text().splitlines()[2]

    def test_residue_defect(self, tmp_path):
        out = tmp_path / "defect.csv"
        status = main(["run", "residue-defect",
                       "--n-rect", "1", "--c", "0", "--out", str(out)])
        assert status == 0
        data_row = out.read_text().splitlines()[3].split(",")
        assert float(data_row[2]) <= 1e-8  # defect value column

    def test_reconstruct_errors_shrink_with_n(self, tmp_path):
        outs = {}
        for n in (64, 128, 256):
            out = tmp_path / f"recon{n}.csv"
            status = main(["run", "reconstruct", "--function", "translated-sine",
                           "--c", "0.5", "--T", "2", "--t-shift", "1.2",
                           "--r-grid", "0.5:2.0:16", "--n", str(n),
                           "--out", str(out)])
            assert status == 0
            lines = out.read_text().splitlines()
            i_err = lines[2].split(",").index("abs_error")
            outs[n] = max(float(line.split(",")[i_err]) for line in lines[3:])
        assert outs[256] < outs[128] < outs[64]

    def test_contour_cauchy(self, tmp_path):
        out = tmp_path / "cauchy.csv"
        status = main(["run", "contour-cauchy", "--function", "power",
                       "--a", "3", "--out", str(out)])
        assert status == 0

    def test_bernstein_ratio_row(self):
        cfg = ExperimentConfig(experiment="bernstein", function="mellin-sine",
                               c=0.5, T=2.0, n_list=(500,))
        status, rows, _ = run_experiment(cfg)
        assert status == 0
        assert rows[0].value.real <= 2.0 * 1.001
        assert rows[0].value.real >= 0.99 * 2.0

    def test_fourier_demo(self, tmp_path):
        out = tmp_path / "fourier.csv"
        status = main(["run", "fourier-demo", "--w", "2.0", "--w0", "0.7",
                       "--n", "8,32,128", "--out", str(out)])
        assert status == 0
        lines = out.read_text().splitlines()
        i_err = lines[2].split(",").index("abs_error")
        last_err = float(lines[-1].split(",")[i_err])
        assert last_err <= 1e-4 * 2.0


class TestConfigHandling:
    def test_config_file_parsed_and_flags_win(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("# comment\nfunction=mellin-sine\nc=0.25\nT=3\n"
                            "n=2,4\npoint=1,0\n")
        cfg = build_config("boas-convergence", {"T": 2.0}, str(cfg_file))
        assert cfg.function == "mellin-sine"
        assert cfg.c == 0.25
        assert cfg.T == 2.0  # flag overrides file
        assert cfg.n_list == (2, 4)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("mystery=1\n")
        with pytest.raises(UsageError, match="mystery"):
            build_config("boas-convergence", {}, str(cfg_file))

    def test_invalid_values_are_usage_errors(self):
        cfg = ExperimentConfig(experiment="boas-convergence", n_list=(8, 4))
        with pytest.raises(UsageError, match="n:"):
            cfg.validate()
        cfg = ExperimentConfig(experiment="nope")
        with pytest.raises(UsageError, match="experiment"):
            cfg.validate()

    def test_unknown_function_is_usage_error(self):
        cfg = ExperimentConfig(experiment="boas-convergence", function="nope")
        with pytest.raises(UsageError, match="function"):
            run_experiment(cfg)

    @pytest.mark.parametrize("line, key", [("c=abc", "c"), ("n-rect=x", "n-rect")])
    def test_unparsable_config_value_is_usage_error(self, tmp_path, capsys, line, key):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n")
        assert main(["run", "fourier-demo", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {key}: ")

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("flags", [{}, NON_DEFAULT_FLAGS], ids=["default", "non-default"])
    def test_header_reads_back_as_config_file(self, tmp_path, experiment, flags):
        cfg = build_config(experiment, dict(flags))
        cfg.validate()
        cfg_file = tmp_path / "header.cfg"
        cfg_file.write_text("".join(f"{k}={v}\n" for k, v in cfg.echo_items()))
        again = build_config(experiment, {}, str(cfg_file))
        again.validate()
        assert again == cfg


class TestCommandLine:
    def test_usage_error_exit_code(self):
        proc = run_cli(["run", "boas-convergence", "--function", "mystery"])
        assert proc.returncode == 2
        assert "usage error" in proc.stderr

    def test_list_functions_stable_and_documented(self):
        first = run_cli(["list-functions"])
        second = run_cli(["list-functions"])
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert "mellin-sine" in first.stdout
        assert "C_f = 1" in first.stdout
        assert "sin(pi t)/(pi t)" in first.stdout  # the sinc convention note

    def test_kernel_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "residue-defect", "--kernel", "boas"])
        assert exc.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_summary_line_printed(self, capsys):
        main(["run", "boas-convergence", "--n", "2,4"])
        out = capsys.readouterr().out
        assert "contract_violations=0" in out

    @pytest.mark.parametrize("args", [
        ["boas-convergence", "--c", "nan"],
        ["boas-convergence", "--T", "inf"],
        ["contour-cauchy", "--function", "power", "--a", "nan"],
        ["contour-cauchy", "--function", "power", "--a", "1+infj"],
        ["reconstruct", "--function", "translated-sine", "--t-shift", "nan"],
        ["reconstruct", "--function", "theta-shifted-sine", "--alpha=-inf"],
        ["boas-convergence", "--point", "1,nan"],
        ["bernstein", "--theta", "nan"],
        ["residue-defect", "--tol", "nan"],
        ["fourier-demo", "--w", "inf"],
        ["fourier-demo", "--w0", "nan"],
        ["fourier-demo", "--x", "nan"],
        ["reconstruct", "--r-grid", "0.5:inf:4"],
        ["valiron-convergence", "--n", "1"],
        ["valiron-convergence", "--n", "1,4"],
    ])
    def test_invalid_numbers_are_usage_errors(self, args, capsys):
        assert main(["run", *args]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_bernstein_without_blocks_is_an_error(self, n, capsys):
        # an empty block table used to pass with the vacuous ratio 0
        assert main(["run", "bernstein", f"--n={n}"]) == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error: ") for line in err.splitlines())

    def test_overflowing_integrand_is_an_error_not_a_traceback(self):
        proc = run_cli(["run", "contour-cauchy", "--function", "power", "--a", "1e308"])
        assert proc.returncode == 1
        assert any(line.startswith("error: ") for line in proc.stderr.splitlines())
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ["boas-convergence", "--point", "1,400", "--T", "2"],
        ["valiron-convergence", "--point", "1,355", "--T", "2"],
        ["boas-convergence", "--point", "1e-300,0", "--c", "3"],  # the oracle's r^{-c}
        ["valiron-convergence", "--point", "1e300,0", "--c=-3"],
        ["fourier-demo", "--w", "1e308"],  # the truncation bound
    ])
    def test_overflowing_bound_is_an_error_not_a_traceback(self, args):
        proc = run_cli(["run", *args])
        assert proc.returncode == 1
        assert any(line.startswith("error: ") for line in proc.stderr.splitlines())
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("args, message", [
        (["contour-cauchy", "--function", "power", "--a", "705"], "missed tolerance"),
        (["contour-cauchy", "--tol", "1e-300"], "missed tolerance"),  # no pass can meet it
        (["residue-defect", "--tol", "1e-300"], "missed tolerance"),
        (["boas-convergence", "--T", "1e308", "--point", "1,0"], "bound overflows"),  # 4T/pi^2
        (["boas-convergence", "--T", "1e-320"], "sampling shift"),  # pi/T = inf
        (["valiron-convergence", "--T", "1e-320"], "sampling shift"),
        (["reconstruct", "--T", "1e-320"], "sampling shift"),
        (["bernstein", "--T", "1e-320"], "sampling shift"),
        (["bernstein", "--T", "1e308"], "sampling shift"),  # pi/(2T) moves no grid point
        (["fourier-demo", "--x", "1e300"], "sampling shift"),  # x +/- k pi/w == x
        (["reconstruct", "--function", "theta-shifted-sine", "--alpha", "800"], "double range"),
        (["boas-convergence", "--function", "translated-sine", "--t-shift", "1e300", "--c", "2"],
         "double range"),
        (["reconstruct", "--n", "1", "--r-grid", "0.01:100:5"], "truncation bound"),  # y >= n
        (["reconstruct", "--function", "theta-shifted-sine", "--T", "2", "--alpha", "354.6",
          "--r-grid", "1e174:1e175:3"], "bound overflows"),  # C_f = e^{709.2}
    ])
    def test_refused_run_is_an_error_without_traceback_or_nan(self, args, message, tmp_path,
                                                              capsys):
        out = tmp_path / "out.csv"
        assert main(["run", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error: ") and message in line for line in err.splitlines())
        assert "Traceback" not in err
        if out.exists():
            rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
            assert not {"nan", "inf", "-inf"} & {cell for row in rows for cell in row[2:]}

    def test_tight_quadrature_tolerance_is_met(self, tmp_path):
        assert main(["run", "contour-cauchy", "--tol", "1e-15",
                     "--out", str(tmp_path / "out.csv")]) == 0
