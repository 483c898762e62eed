"""CLI behaviour: subcommands, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpnorm import CPMap, MapFile, cli, generate_map, identity_channel, random_cpmap
from cpnorm.cli import main
from cpnorm.fileio import save_map

from helpers import loop_apply, records_close

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def identity_map_file(tmp_path):
    path = tmp_path / "identity2.json"
    save_map(MapFile.from_cpmap(identity_channel(2), {"name": "id2"}), path)
    return str(path)


@pytest.fixture()
def generic_map_file(tmp_path):
    path = tmp_path / "gen.json"
    code = main(["gen", "--n", "2", "--m", "2", "--k", "3", "--seed", "1",
                 "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture()
def improving_map_file(tmp_path):
    path = tmp_path / "improving.json"
    save_map(generate_map(3, 3, 3, 2, kind="positively_improving"), path)
    return str(path)


def run_python(code, tmp_path, *argv):
    """Run ``python -c code`` in a fresh interpreter that imports cpnorm from src."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONWARNINGS"] = "default"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_stdout_parses(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--n", "2", "--m", "2", "--k", "2",
                                        "--seed", "3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["version"] == 1 and obj["n"] == 2

    def test_deterministic(self, capsys):
        argv = ["gen", "--n", "2", "--m", "2", "--k", "3", "--seed", "7"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_bad_dims_exit_3(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "--n", "0", "--m", "2", "--k", "1"])
        assert code == 3
        assert "error:" in err

    def test_diagonal_from_matrix(self, capsys, tmp_path):
        matrix_path = tmp_path / "mat.json"
        matrix_path.write_text(json.dumps([[1.0, 1.0], [0.0, 1.0]]))
        code, out, _ = run_cli(capsys, ["gen", "--kind", "diagonal_from_matrix",
                                        "--matrix", str(matrix_path)])
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 2 and obj["m"] == 2
        assert obj["metadata"]["matrix"] == [[1.0, 1.0], [0.0, 1.0]]
        assert len(obj["kraus"]) == 3


class TestCompute:
    def test_identity_closed_form(self, capsys, identity_map_file):
        code, out, _ = run_cli(capsys, ["compute", "--map", identity_map_file,
                                        "--p", "4", "--q", "2"])
        assert code == 0
        rec = json.loads(out)
        assert rec["result"]["norm_estimate"] == pytest.approx(2**0.25, abs=1e-6)
        assert rec["result"]["status"] == "converged"

    def test_unproven_regime_warns_but_exits_zero(self, capsys, identity_map_file):
        code, out, err = run_cli(capsys, ["compute", "--map", identity_map_file,
                                          "--p", "2", "--q", "2"])
        assert code == 0
        assert "unproven regime" in err
        rec = json.loads(out)
        assert any("unproven regime" in w for w in rec["result"]["warnings"])

    def test_invalid_exponent_exit_3(self, capsys, identity_map_file):
        code, _, err = run_cli(capsys, ["compute", "--map", identity_map_file,
                                        "--p", "0.5", "--q", "2"])
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("flag", ["--tol", "--tol-objective"])
    def test_nan_tolerance_exit_3(self, capsys, identity_map_file, flag):
        code, out, err = run_cli(capsys, ["compute", "--map", identity_map_file,
                                          "--p", "3", "--q", "2", flag, "nan"])
        assert code == 3
        assert out == ""
        assert "tolerances" in err

    def test_max_iter_exit_2(self, capsys, generic_map_file):
        code, out, _ = run_cli(capsys, ["compute", "--map", generic_map_file,
                                        "--p", "3", "--q", "2", "--max-iter", "1"])
        assert code == 2
        rec = json.loads(out)
        assert rec["result"]["status"] == "max_iter_reached"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_map_exit_3(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        huge = CPMap([1e160 * v for v in random_cpmap(3, 3, 2, 1).kraus])
        save_map(MapFile.from_cpmap(huge, {"name": "huge"}), path)
        code, out, err = run_cli(capsys, ["compute", "--map", str(path),
                                          "--p", "3", "--q", "2"])
        assert code == 3
        assert out == ""
        assert "non-finite" in err

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run_cli(capsys, ["compute", "--map", "/nonexistent.json",
                                        "--p", "3", "--q", "2"])
        assert code == 3

    def test_trace_file(self, capsys, generic_map_file, tmp_path):
        trace = tmp_path / "trace.tsv"
        code, _, _ = run_cli(capsys, ["compute", "--map", generic_map_file,
                                      "--p", "3", "--q", "2",
                                      "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("# k")
        assert all(len(line.split("\t")) == 5 for line in lines[1:])
        assert len(lines) >= 3

    def test_reproducible_stdout(self, capsys, generic_map_file):
        argv = ["compute", "--map", generic_map_file, "--p", "3", "--q", "2",
                "--seed", "5"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_record_echoes_input(self, capsys, generic_map_file):
        _, out, _ = run_cli(capsys, ["compute", "--map", generic_map_file,
                                     "--p", "3", "--q", "2"])
        rec = json.loads(out)
        assert rec["input"]["p"] == 3.0
        assert rec["input"]["map"]["kraus"]
        assert rec["tool"]["name"] == "cpnorm"

    def test_custom_start_file(self, capsys, generic_map_file, tmp_path):
        start = tmp_path / "start.json"
        start.write_text(json.dumps([[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]]))
        code, out, _ = run_cli(capsys, ["compute", "--map", generic_map_file,
                                        "--p", "3", "--q", "2",
                                        "--start", str(start)])
        assert code == 0


class TestDiagnose:
    def test_identity_counterexamples(self, capsys, identity_map_file):
        code, out, _ = run_cli(capsys, ["diagnose", "--map", identity_map_file,
                                        "--p", "3", "--q", "2",
                                        "--trials", "8", "--samples", "16"])
        assert code == 0
        rec = json.loads(out)
        diag = rec["diagnostics"]
        assert diag["fully_indecomposable"]["verdict"] == "counterexample_found"
        assert diag["positively_improving"]["verdict"] == "counterexample_found"
        assert diag["contraction"]["step_certified"] is True

    def test_reproducible(self, capsys, generic_map_file):
        argv = ["diagnose", "--map", generic_map_file, "--p", "3", "--q", "2",
                "--trials", "8", "--samples", "16", "--seed", "2"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


class TestVerify:
    def test_identity_pass(self, capsys, identity_map_file):
        code, out, _ = run_cli(capsys, ["verify", "--map", identity_map_file,
                                        "--p", "4", "--q", "2",
                                        "--budget", "1500"])
        assert code == 0
        rec = json.loads(out)
        assert rec["cross_validation"]["status"] == "PASS"
        assert rec["cross_validation"]["power_value"] == pytest.approx(
            2**0.25, abs=1e-6
        )

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_exit_3_before_the_power_run(self, capsys, monkeypatch,
                                                  generic_map_file, tol):
        def unreachable(*args, **kwargs):
            raise AssertionError("verify ran the power iteration")

        monkeypatch.setattr(cli, "run_power_method", unreachable)
        code, out, err = run_cli(capsys, ["verify", "--map", generic_map_file,
                                          "--p", "3", "--q", "2", "--tol", tol])
        assert code == 3
        assert out == ""
        assert "tol must be finite and nonnegative" in err

    def test_desk_scale_exit_3(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        save_map(MapFile.from_cpmap(identity_channel(7)), path)
        code, _, err = run_cli(capsys, ["verify", "--map", str(path),
                                        "--p", "3", "--q", "2"])
        assert code == 3
        assert "error:" in err


class TestFreshInterpreter:
    def test_scipy_optimize_not_loaded(self, tmp_path, improving_map_file):
        # no command, the oracle of ``verify`` included, loads any scipy module
        code = (
            "import sys\n"
            "import cpnorm\n"
            "from cpnorm import cli\n"
            "path = sys.argv[1]\n"
            "assert cli.main(['compute', '--map', path, '--p', '3', '--q', '2']) == 0\n"
            "assert cli.main(['diagnose', '--map', path, '--p', '3', '--q', '2',\n"
            "                 '--trials', '8', '--samples', '16']) == 0\n"
            "assert cli.main(['verify', '--map', path, '--p', '3', '--q', '2']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = run_python(code, tmp_path, improving_map_file)
        assert proc.returncode == 0, proc.stderr
        assert '"upper_source": "choi"' in proc.stdout
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_diagnose_warns_once_about_redundant_kraus(self, tmp_path, improving_map_file):
        code = "import sys\nfrom cpnorm.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        proc = run_python(code, tmp_path, "diagnose", "--map", improving_map_file,
                          "--p", "3", "--q", "2", "--trials", "8", "--samples", "16")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("KrausRedundancyWarning") == 1


class TestKernelRecords:
    """Records of the two-product Kraus kernels against the per-operator loop.

    The kernels sum in another order, so records may differ in the last
    digits only. ``compute`` records also carry the final Frobenius and
    Hilbert steps and the residual: differences of iterates near 1e-10, whose
    rounding of about 1e-16 is about 1e-6 of them.
    """

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @pytest.mark.parametrize("command, fixture, rtol", [
        ("compute", "generic_map_file", 1e-4),
        ("diagnose", "generic_map_file", 1e-12),
        ("diagnose", "improving_map_file", 1e-12),
    ])
    def test_record_matches_loop_kernel(self, capsys, monkeypatch, request,
                                        command, fixture, rtol):
        argv = [command, "--map", request.getfixturevalue(fixture),
                "--p", "3", "--q", "2"]
        _, kernel, _ = run_cli(capsys, argv)
        monkeypatch.setattr(CPMap, "_apply",
                            lambda self, a: loop_apply(tuple(self.kraus), a))
        monkeypatch.setattr(CPMap, "_adjoint_apply", lambda self, b: loop_apply(
            tuple(v.conj().T for v in self.kraus), b))
        _, loop, _ = run_cli(capsys, argv)
        assert records_close(kernel, loop, rtol)
