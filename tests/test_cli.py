"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro import ParallelProphet
from repro.cli import build_parser, main
from repro.errors import ConfigurationError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestList:
    def test_lists_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("ompscr_md", "npb_ft", "ompscr_fft", "npb_cg"):
            assert name in out


class TestProfile:
    def test_profile_prints_sections(self, capsys):
        assert main(["profile", "npb_ep", "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "ep_batches" in out
        assert "Mcycles serial" in out

    def test_profile_saves(self, tmp_path, capsys):
        path = tmp_path / "ep.json"
        assert main(["profile", "npb_ep", "-o", str(path)]) == 0
        assert path.exists()

    def test_unknown_workload_errors(self):
        with pytest.raises(ConfigurationError):
            main(["profile", "npb_dt"])

    def test_module_entry_reports_error_without_traceback(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "predict", "nope"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ConfigurationError: ")


class TestPredict:
    def test_predict_workload(self, capsys):
        assert (
            main(
                [
                    "predict",
                    "npb_ep",
                    "--threads",
                    "2,4",
                    "--methods",
                    "syn",
                    "--no-memory-model",
                    "--no-real",
                    "--cores",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2-core" in out and "4-core" in out
        assert "syn" in out

    def test_predict_with_ground_truth(self, capsys):
        assert (
            main(
                [
                    "predict",
                    "npb_ep",
                    "--threads",
                    "4",
                    "--no-memory-model",
                    "--cores",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ground truth" in out
        assert "error" in out

    def test_predict_saved_profile(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["profile", "npb_ep", "-o", str(path), "--cores", "4"])
        capsys.readouterr()
        assert (
            main(
                [
                    "predict",
                    str(path),
                    "--threads",
                    "2",
                    "--no-real",
                    "--no-memory-model",
                    "--cores",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2-core" in out

    def test_cilk_paradigm_flag(self, capsys):
        assert (
            main(
                [
                    "predict",
                    "ompscr_qsort",
                    "--threads",
                    "2",
                    "--methods",
                    "syn",
                    "--no-memory-model",
                    "--no-real",
                    "--cores",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cilk" in out


class TestSavedProfileMachine:
    """A loaded profile's machine is the machine: calibration, replay and
    the header all use it, ``--cores`` defaults to it, and an explicit
    ``--cores`` that disagrees is a one-line ConfigurationError."""

    COMMANDS = {
        "predict": ["predict", "{p}", "--threads", "2", "--no-memory-model"],
        "predict-mm": ["predict", "{p}", "--threads", "2", "--no-real"],
        "sweep": ["sweep", "{p},npb_ep", "--threads", "2", "--methods",
                  "ff,syn,real"],
        "diagnose": ["diagnose", "{p}", "--threads", "2"],
        "trace": ["trace", "{p}", "--threads", "2", "--out", "{out}"],
        "check": ["check", "--workloads", "{p}", "--threads", "2",
                  "--fuzz", "0", "--no-memory-model"],
    }

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("saved") / "ep8.json"
        assert main(["profile", "npb_ep", "-o", str(path), "--cores", "8"]) == 0
        return path

    def _argv(self, command, saved, tmp_path):
        return [
            arg.format(p=saved, out=tmp_path / "trace.json")
            for arg in self.COMMANDS[command]
        ]

    @pytest.mark.parametrize("cores", [[], ["--cores", "8"]],
                             ids=["default", "agreeing"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_runs_on_the_profile_machine(self, saved, tmp_path, monkeypatch,
                                         capsys, command, cores):
        import repro.cli as cli

        machines = []

        class Recording(ParallelProphet):
            def __init__(self, machine, **kwargs):
                machines.append(machine)
                super().__init__(machine, **kwargs)

        monkeypatch.setattr(cli, "ParallelProphet", Recording)
        assert main(self._argv(command, saved, tmp_path) + cores) == 0
        assert [m.n_cores for m in machines] == [8]
        if command.startswith("predict"):
            assert "on 8 cores" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_disagreeing_cores_rejected(self, saved, tmp_path, command):
        with pytest.raises(ConfigurationError, match="--cores 12 disagrees"):
            main(self._argv(command, saved, tmp_path) + ["--cores", "12"])

    def test_profiles_from_different_machines_rejected(self, saved, tmp_path):
        other = tmp_path / "ep4.json"
        main(["profile", "npb_ep", "-o", str(other), "--cores", "4"])
        with pytest.raises(ConfigurationError, match="different machines"):
            main(["sweep", f"{saved},{other}", "--threads", "2"])


class TestTrace:
    def test_trace_writes_loadable_chrome_trace(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "npb_ep",
                    "--threads",
                    "2",
                    "--cores",
                    "4",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        data = json.loads(out_path.read_text())
        assert data["traceEvents"]
        phases = {rec["ph"] for rec in data["traceEvents"]}
        assert phases <= {"X", "I", "C", "M"}
        names = {
            rec["args"]["name"]
            for rec in data["traceEvents"]
            if rec["ph"] == "M" and rec["name"] == "thread_name"
        }
        assert "cpu0" in names and "cpu1" in names
        out = capsys.readouterr().out
        assert str(out_path) in out
        assert "events" in out

    def test_trace_syn_mode(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert (
            main(
                [
                    "trace",
                    "npb_ep",
                    "--threads",
                    "2",
                    "--mode",
                    "syn",
                    "--cores",
                    "4",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        assert out_path.exists()


class TestMetricsFlag:
    def test_predict_metrics_prints_registry(self, capsys):
        assert (
            main(
                [
                    "predict",
                    "npb_ep",
                    "--threads",
                    "2",
                    "--methods",
                    "syn",
                    "--no-memory-model",
                    "--no-real",
                    "--cores",
                    "4",
                    "--metrics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "syn.replays" in out


class TestCalibrate:
    def test_calibrate_prints_formulas(self, capsys):
        assert main(["calibrate", "--threads", "2,4"]) == 0
        out = capsys.readouterr().out
        assert "delta_2" in out
        assert "omega_t" in out


class TestDiagnose:
    def test_diagnose_workload(self, capsys):
        assert (
            main(["diagnose", "npb_ep", "--threads", "4", "--cores", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "dominant cause" in out
        assert "ep_batches" in out

    def test_diagnose_saved_profile(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["profile", "npb_ep", "-o", str(path), "--cores", "4"])
        capsys.readouterr()
        assert (
            main(["diagnose", str(path), "--threads", "2", "--cores", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "dominant cause" in out


class TestSweepFailureExit:
    def test_sweep_with_failing_grid_points_exits_nonzero(self, capsys):
        """An unparsable schedule is deferred to the workers, fails there,
        and is collected — the CLI must warn on stderr and exit 1 rather
        than present the partial grid as authoritative."""
        rc = main(
            [
                "sweep",
                "npb_ep",
                "--threads",
                "2",
                "--schedules",
                "bogus_sched",
                "--no-memory-model",
                "--cores",
                "4",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "grid point(s) failed" in captured.err
        assert "grid point(s) failed" in captured.out  # table footnote too

    def test_clean_sweep_exits_zero(self, capsys):
        rc = main(
            [
                "sweep",
                "npb_ep",
                "--threads",
                "2",
                "--no-memory-model",
                "--cores",
                "4",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().err == ""


class TestSelfcheck:
    def test_predict_selfcheck_passes_and_restores_checker(self, capsys):
        from repro.validate import get_checker

        before = (get_checker().enabled, get_checker().mode)
        rc = main(
            [
                "predict",
                "npb_ep",
                "--threads",
                "2,4",
                "--no-memory-model",
                "--cores",
                "4",
                "--selfcheck",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "selfcheck:" in out and "0 violations" in out
        assert (get_checker().enabled, get_checker().mode) == before

    def test_sweep_selfcheck_passes(self, capsys):
        rc = main(
            [
                "sweep",
                "npb_ep",
                "--threads",
                "2",
                "--methods",
                "syn,real",
                "--no-memory-model",
                "--cores",
                "4",
                "--selfcheck",
            ]
        )
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out


class TestCheck:
    def test_check_quick_passes(self, capsys):
        from repro.validate import get_checker

        before = (get_checker().enabled, get_checker().mode)
        rc = main(["check", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "differential:" in out
        assert "0 violation(s)" in out
        assert "0 violations" in out  # invariant selfcheck line
        # static / static,1 / dynamic,1 whatever the harness ran: FF
        # declines dynamic-family points, SYN/REAL take the team walk.
        assert "columnar engine: ff 4, syn 6, real 6 grid point(s)" in out
        assert (get_checker().enabled, get_checker().mode) == before

    def test_check_explicit_grid(self, capsys):
        rc = main(
            [
                "check",
                "--workloads",
                "npb_ep",
                "--threads",
                "2",
                "--fuzz",
                "2",
                "--no-memory-model",
                "--cores",
                "4",
            ]
        )
        assert rc == 0
        assert "grid point(s)" in capsys.readouterr().out


class TestParadigmChoices:
    def test_omp_task_paradigm_accepted(self, capsys):
        assert (
            main(
                [
                    "predict",
                    "npb_ep",
                    "--threads",
                    "2",
                    "--paradigm",
                    "omp_task",
                    "--methods",
                    "syn",
                    "--no-memory-model",
                    "--no-real",
                    "--cores",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "omp_task" in out


class TestServeCommand:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8765
        assert args.workers == 1
        assert args.queue_depth == 16
        assert args.max_grid_points == 4096
        assert args.jobs == 1

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--queue-depth",
                "4",
                "--timeout",
                "5",
                "--section-memo",
                "128",
            ]
        )
        assert args.port == 0
        assert args.queue_depth == 4
        assert args.timeout == 5.0
        assert args.section_memo == 128
