"""Command-line front-end tests: exit codes, report formats, determinism,
and file emission."""

import csv
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from clonectx import cli


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_bounds_passes(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--c", "0")
        assert code == 0
        assert "quantum_optimal_fidelity = 1.0" in out
        assert "nc_bound_ideal = 1.0" in out

    def test_unknown_flag_is_an_argument_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--c", "0.5", "--bogus")
        assert code == 2
        assert "usage" in err.lower()

    def test_out_of_range_value_is_an_argument_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--c", "1.5")
        assert code == 2
        assert "outside [0, 1]" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("curves", "--out", "OUT", "--points", "1"), "at least 2"),
            (("verify-ontic", "--c", "0.5", "--resolution", "7"), "even number >= 4"),
            (("verify-ontic", "--c", "0.5", "--resolution", "2"), "even number >= 4"),
            (("critical-noise", "--c", "0"), "strictly inside (0, 1)"),
            (("critical-noise", "--c", "1"), "strictly inside (0, 1)"),
            (("verify-ontic", "--c", "0.5", "--resolution", str(2**53 + 2)), "at most 2**53"),
            (("verify-ontic", "--c", "0.5", "--resolution", "1" + "0" * 399), "at most 2**53"),
            (("curves", "--out", "OUT", "--points", "1000001"), "at most 1000000"),
        ],
    )
    def test_domain_error_is_an_argument_error(self, capsys, tmp_path, argv, message):
        code, out, err = run_cli(capsys, *(str(tmp_path) if a == "OUT" else a for a in argv))
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("out", ["notes.txt", "notes.txt/figs"], ids=["file", "below-a-file"])
    def test_out_through_a_file_is_an_argument_error(self, capsys, tmp_path, out):
        (tmp_path / "notes.txt").write_text("kept")
        code, stdout, err = run_cli(capsys, "curves", "--out", str(tmp_path / out), "--points", "5")
        assert code == 2
        assert "argument --out: cannot create directory" in err
        assert stdout == ""
        assert (tmp_path / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize("later", [("--points", "1"), ("--format", "xml"), ("--bogus",)],
                             ids=["points", "format", "unknown-flag"])
    def test_argument_error_after_out_leaves_no_directory(self, capsys, tmp_path, later):
        code, stdout, _ = run_cli(capsys, "curves", "--out", str(tmp_path / "none" / "figs"), *later)
        assert code == 2
        assert stdout == ""
        assert not (tmp_path / "none").exists()

    def test_missing_subcommand_is_an_argument_error(self, capsys):
        code, _, _ = run_cli(capsys, )
        assert code == 2

    def test_verdict_failure_exits_one(self, capsys, monkeypatch):
        from clonectx import cloner

        real = cloner.search_clones

        def sabotaged(c):
            result = real(c)
            return result._replace(fidelity=result.fidelity - 1e-3)

        monkeypatch.setattr(cloner, "search_clones", sabotaged)
        code, out, _ = run_cli(capsys, "clones", "--c", "0.5")
        assert code == 1
        assert "result: FAIL" in out


def fresh_env():
    """Environment in which a fresh interpreter imports ``clonectx`` from these sources."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(probe, *argv):
    """Run ``probe`` in a fresh interpreter; the last line it prints, split on whitespace."""
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=fresh_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_import_does_not_load_scipy():
    # scipy is not a runtime dependency; a fresh interpreter shows what the CLI really imports.
    probe = "import sys, clonectx.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_fresh(probe) == ["[]"]


# No subcommand loads numpy, nor dataclasses and the inspect module it would pull in.
NEVER_LOADED = ("numpy", "dataclasses", "inspect")
CLOSED_FORM_ONLY = ("clonectx.ontic", "clonectx.quantum", *NEVER_LOADED)
QUANTUM_ONLY = ("clonectx.ontic", *NEVER_LOADED)
ONTIC_ONLY = ("clonectx.quantum", *NEVER_LOADED)


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("bounds", "--c", "0.5", "--v", "0.015"), CLOSED_FORM_ONLY),
        (("region", "--v", "0.015"), CLOSED_FORM_ONLY),
        (("critical-noise", "--c", "0.5"), CLOSED_FORM_ONLY),
        (("curves", "--out", "OUT", "--points", "20"), CLOSED_FORM_ONLY),
        (("noise", "--v", "0.015", "--c", "0.5"), QUANTUM_ONLY),
        (("verify-quantum", "--v", "0.015", "--c", "0.5"), QUANTUM_ONLY),
        (("clones", "--c", "0.5"), CLOSED_FORM_ONLY),
        (("verify-ontic", "--c", "0.37", "--resolution", "100"), ONTIC_ONLY),
    ],
    ids=["bounds", "region", "critical-noise", "curves", "noise", "verify-quantum", "clones", "verify-ontic"],
)
def test_subcommand_leaves_the_simulations_it_does_not_use_unloaded(tmp_path, argv, unloaded):
    # The closed-form, clone-search and scan subcommands need neither quantum
    # nor ontic; the quantum ones never need ontic, nor verify-ontic quantum.
    # No module imports numpy or dataclasses, so none of these loads them.
    # A fresh interpreter shows every module of the package and of
    # NEVER_LOADED that the import and the subcommand load.
    probe = ("import sys; from clonectx import cli; code = cli.run(sys.argv[1:]); "
             f"print(code, *sorted(m for m in sys.modules if m.split('.')[0] in {('clonectx', *NEVER_LOADED)}))")
    code, *loaded = run_fresh(probe, *(str(tmp_path) if a == "OUT" else a for a in argv))
    assert code == "0"
    assert "clonectx.cli" in loaded
    assert not [m for m in loaded if any(m == u or m.startswith(u + ".") for u in unloaded)]


@pytest.mark.parametrize(
    "argv, module",
    [
        (("noise", "--v", "0.015", "--c", "0.5"), "clonectx.quantum"),
        (("verify-quantum", "--v", "0.015", "--c", "0.5"), "clonectx.quantum"),
        (("verify-ontic", "--c", "0.5", "--resolution", "20"), "clonectx.ontic"),
    ],
    ids=["noise", "verify-quantum", "verify-ontic"],
)
def test_simulation_loads_before_the_clock_starts(argv, module):
    # elapsed: times the computation only: the simulation module is already
    # loaded when run() first reads the clock, and numpy is not.
    probe = ("import sys, time, types; from clonectx import cli; seen = []; "
             "cli.time = types.SimpleNamespace(perf_counter=lambda: seen.append(sorted(sys.modules)) or time.perf_counter()); "
             "cli.run(sys.argv[1:]); print(*seen[0])")
    loaded = run_fresh(probe, *argv)
    assert module in loaded
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]


def peak_rss_mb(tmp_path, *argv):
    """Peak RSS (MB) of a fresh ``clonectx`` process, from os.wait4; its report must pass."""
    out = tmp_path / "report.json"
    argv = [sys.executable, "-c", "from clonectx.cli import main; main()", *argv, "--json"]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    pid = os.posix_spawn(sys.executable, argv, fresh_env(), file_actions=actions)
    deadline = time.monotonic() + 120
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            pytest.fail(f"{argv[3:]} did not finish within 120 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0
    assert json.loads(out.read_text())["result"] == "pass"
    return usage.ru_maxrss / 1024  # Linux reports kilobytes


def test_verify_ontic_peak_memory_does_not_grow_with_resolution(tmp_path):
    # The model lives on at most 16 output cells whatever --resolution is, so
    # verify-ontic starts and peaks like the closed-form bounds subcommand.
    baseline = peak_rss_mb(tmp_path, "bounds", "--c", "0.37", "--v", "0.015")
    ontic_rss = peak_rss_mb(tmp_path, "verify-ontic", "--c", "0.37", "--resolution", "2000")
    assert ontic_rss - baseline <= 2.0, (ontic_rss, baseline)


class TestReports:
    @pytest.mark.parametrize("argv", [("bounds", "--c", "0.5", "--v", "0.015"),
                                      ("verify-ontic", "--c", "0.318", "--json")], ids=["bounds", "verify-ontic"])
    def test_reports_are_byte_identical(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_wall_time_goes_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "bounds", "--c", "0.5")
        assert "elapsed" not in out
        assert "elapsed" in err

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "verify-quantum", "--v", "0.015", "--c", "0.5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify-quantum"
        assert doc["result"] == "pass"
        assert all(v["status"] in ("pass", "fail") for v in doc["verdicts"])

    def test_json_and_text_agree_on_verdicts(self, capsys):
        _, text, _ = run_cli(capsys, "clones", "--c", "0.25")
        _, as_json, _ = run_cli(capsys, "clones", "--c", "0.25", "--json")
        doc = json.loads(as_json)
        for verdict in doc["verdicts"]:
            assert verdict["name"] in text


class TestSubcommands:
    def test_region_reports_published_interval_and_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "region", "--v", "0.015", "--err-mode", "thm2-direct", "--c-mode", "ideal-overlap"
        )
        assert code == 0
        assert "thm2-direct" in out and "ideal-overlap" in out
        lo = float(out.split("c_lo = ")[1].splitlines()[0])
        hi = float(out.split("c_hi = ")[1].splitlines()[0])
        assert lo == pytest.approx(0.318, abs=0.05)
        assert hi == pytest.approx(0.718, abs=0.05)

    def test_region_empty(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--v", "0.8")
        assert code == 0
        assert "empty = True" in out

    def test_critical_noise(self, capsys):
        code, out, _ = run_cli(capsys, "critical-noise", "--c", "0.5")
        assert code == 0
        vstar = float(out.split("v_max = ")[1].splitlines()[0])
        assert vstar >= 0.015

    @pytest.mark.parametrize("argv", [("region", "--v", "0.015"), ("region", "--v", "0.015", "--json"),
                                      ("critical-noise", "--c", "0.5")], ids=["region", "region-json", "critical-noise"])
    def test_mode_flags_default_to_the_documented_modes(self, capsys, argv):
        _, implicit, _ = run_cli(capsys, *argv)
        _, explicit, _ = run_cli(capsys, *argv, "--err-mode", "thm2-direct", "--c-mode", "observed-confusability")
        assert implicit == explicit

    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    def test_negative_zero_is_reported_as_zero(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "bounds", "--c", "-0.0", "--v", "-0.0", *fmt)
        assert code == 0
        assert "-0.0" not in out

    def test_noise_verdicts_pass(self, capsys):
        code, out, _ = run_cli(capsys, "noise", "--v", "0.1", "--c", "0.3")
        assert code == 0
        assert "result: PASS" in out

    def test_verify_quantum_checks_equivalences_at_collapsed_span(self, capsys):
        code, out, _ = run_cli(capsys, "verify-quantum", "--v", "0.05", "--c", "1")
        assert code == 0
        assert "[PASS] mixing-equivalences" in out

    def test_verify_quantum_next_to_identical_inputs(self, capsys):
        code, out, _ = run_cli(capsys, "verify-quantum", "--v", "0", "--c", "0.9999999999")
        assert code == 0
        assert "[PASS] mixing-equivalences" in out

    def test_verify_ontic(self, capsys):
        code, out, _ = run_cli(capsys, "verify-ontic", "--c", "0.5", "--resolution", "200")
        assert code == 0
        assert "f_global = 0.875" in out
        assert "result: PASS" in out

    @pytest.mark.parametrize("c, n", [(0.0, 4), (0.37, 100), (0.318, 200), (1.0, 64), (1e-9, 2**53), (0.37, 2**53)])
    def test_verify_ontic_judges_every_verdict_at_the_structural_tolerance(self, capsys, c, n):
        code, out, _ = run_cli(capsys, "verify-ontic", "--c", str(c), "--resolution", str(n), "--json")
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert len(verdicts) == 9
        assert all(v["status"] == "pass" and v["detail"].endswith("<= 1e-09") for v in verdicts), verdicts

    def test_verify_ontic_fails_a_fidelity_off_by_a_micro(self, capsys, monkeypatch):
        # At n = 100 a grid-size slack of 4h = 0.08 would let this through.
        from clonectx import ontic

        real = ontic.global_fidelity
        monkeypatch.setattr(ontic, "global_fidelity", lambda model: real(model) + 1e-6)
        code, out, _ = run_cli(capsys, "verify-ontic", "--c", "0.5", "--resolution", "100")
        assert code == 1
        assert "[FAIL] fidelity-saturates-nc-bound" in out
        assert "result: FAIL" in out

    def test_verify_ontic_runs_each_model_check_once(self, capsys, monkeypatch):
        from clonectx import ontic

        calls = {"check_O1": 0, "check_O2": 0}
        for name in calls:
            real = getattr(ontic, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(ontic, name, counted)
        code, out, _ = run_cli(capsys, "verify-ontic", "--c", "0.5", "--resolution", "20")
        assert code == 0
        assert out.count("distance-confusability-identity") == 4
        assert calls == {"check_O1": 1, "check_O2": 1}

    def test_verify_ontic_snaps_with_note(self, capsys):
        code, out, _ = run_cli(capsys, "verify-ontic", "--c", "0.318", "--resolution", "200")
        assert code == 0
        assert "c_snapped = 0.32" in out
        assert "snapping overlap 0.318 to 0.32 (= 32/100) so supports align with the grid" in out

    @pytest.mark.parametrize("n", ["200", str(2**53)])
    def test_verify_ontic_on_the_grid_needs_no_note(self, capsys, n):
        code, out, _ = run_cli(capsys, "verify-ontic", "--c", "0.37", "--resolution", n)
        assert code == 0
        assert "warnings" not in out
        assert float(out.split("c_snapped = ")[1].splitlines()[0]) == pytest.approx(0.37, rel=0, abs=1e-15)

    def test_clones(self, capsys):
        code, out, _ = run_cli(capsys, "clones", "--c", "0.5")
        assert code == 0
        assert "optimizer-matches-closed-form" in out

    def test_clones_near_orthogonal_inputs(self, capsys):
        code, out, _ = run_cli(capsys, "clones", "--c", "0.001")
        assert code == 0
        assert "result: PASS" in out


class TestCurves:
    def test_csv_files(self, capsys, tmp_path):
        out_dir = tmp_path / "figures"
        code, out, _ = run_cli(capsys, "curves", "--out", str(out_dir), "--format", "csv", "--points", "40")
        assert code == 0
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "fidelity_quantum.csv",
            "fidelity_noncontextual.csv",
            "noise_resistance_thm2-direct.csv",
            "noise_resistance_err-prime.csv",
        }
        rows = list(csv.reader(open(out_dir / "fidelity_quantum.csv")))
        assert rows[0] == ["x", "y"]
        assert len(rows) == 41

    def test_json_files_follow_schema(self, capsys, tmp_path):
        out_dir = tmp_path / "figures"
        code, _, _ = run_cli(capsys, "curves", "--out", str(out_dir), "--format", "json", "--points", "20")
        assert code == 0
        doc = json.loads((out_dir / "noise_resistance_err-prime.json").read_text())
        assert set(doc) == {"label", "mode", "points"}
        assert all(len(p) == 2 for p in doc["points"])

    def test_emission_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "curves", "--out", str(a), "--format", "csv", "--points", "25")
        run_cli(capsys, "curves", "--out", str(b), "--format", "csv", "--points", "25")
        for name in ("fidelity_quantum.csv", "noise_resistance_thm2-direct.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
