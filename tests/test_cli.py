"""Command-line front-end tests: exit codes, report formats, determinism,
and file emission."""

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
            (("bounds", "--c", "abc"), "not a number: 'abc'"),
            (("curves", "--out", "OUT", "--points", "2.5"), "not an integer: '2.5'"),
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
        assert err.startswith("usage: clonectx curves ")
        assert "\nclonectx curves: error: argument --out: cannot create directory" in err
        assert stdout == ""
        assert (tmp_path / "notes.txt").read_text() == "kept"

    def test_unwritable_output_file_is_an_argument_error(self, capsys, tmp_path):
        (tmp_path / "fidelity_quantum.csv").mkdir()
        code, stdout, err = run_cli(capsys, "curves", "--out", str(tmp_path), "--points", "5")
        assert code == 2
        assert err.startswith("usage: clonectx curves ")
        assert (f"\nclonectx curves: error: argument --out: cannot write {str(tmp_path / 'fidelity_quantum.csv')!r}: "
                "Is a directory") in err
        assert stdout == ""

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


def nan_last_epsilon(monkeypatch):
    from clonectx import bounds

    real = bounds.depolarizing_epsilons
    monkeypatch.setattr(bounds, "depolarizing_epsilons", lambda v: {**real(v), "bb": math.nan})


def nan_bb_perp_leak(monkeypatch):
    # A NaN pass probability of bb's orthogonal partner: the measured eps_bb is NaN.
    from clonectx import quantum

    real = quantum.NoisyEnsemble.pass_probability
    monkeypatch.setattr(quantum.NoisyEnsemble, "pass_probability",
                        lambda ens, s, t: math.nan if s == "bb_perp" else real(ens, s, t))


def nan_overlap(key):
    """A sabotage that makes the closed-form overlap ``key`` NaN."""

    def sabotage(monkeypatch):
        from clonectx import bounds

        real = bounds.observed_overlaps
        monkeypatch.setattr(bounds, "observed_overlaps", lambda v, c: {**real(v, c), key: math.nan})

    return sabotage


def nan_last_equivalence(monkeypatch):
    from clonectx import quantum

    real = quantum.NoisyEnsemble.equivalence_residuals
    monkeypatch.setattr(quantum.NoisyEnsemble, "equivalence_residuals", lambda ens: {**real(ens), "later": math.nan})


def nan_last_product_cell(monkeypatch):
    # Only the CLI's view of itertools: the model, and its other checks, stay as built.
    import itertools
    import types

    def product(*factors):
        *cells, _ = itertools.product(*factors)
        return [*cells, (math.nan, math.nan)]

    monkeypatch.setattr(cli, "itertools", types.SimpleNamespace(product=product))


def nan_last_a_perp_cell(monkeypatch):
    # Past EpistemicState's own check, which would reject the NaN: the model then fails O1 and O2.
    from clonectx import ontic

    real = ontic.build_saturating_model

    def build(c):
        model = real(c)
        state = model.states["a_perp"]
        broken = tuple.__new__(ontic.EpistemicState, (state.grid, (*state.density[:-1], math.nan)))
        return model._replace(states={**model.states, "a_perp": broken})

    monkeypatch.setattr(ontic, "build_saturating_model", build)


class TestNanTerms:
    """A residual that is the worst of several terms fails its verdict when a term, the first or a later one, is NaN."""

    @pytest.mark.parametrize(
        "argv, sabotage, verdict",
        [
            (("noise", "--v", "0.015", "--c", "0.5"), nan_last_epsilon, "epsilons-match-closed-forms"),
            (("noise", "--v", "0.015", "--c", "0.5"), nan_bb_perp_leak, "epsilons-match-closed-forms"),
            (("noise", "--v", "0.015", "--c", "0.5"), nan_overlap("c_ab"),
             "observed-confusabilities-match-closed-forms"),
            (("noise", "--v", "0.015", "--c", "0.5"), nan_overlap("c_bbaa"),
             "observed-confusabilities-match-closed-forms"),
            (("verify-quantum", "--v", "0.015", "--c", "0.5"), nan_last_equivalence, "mixing-equivalences"),
            (("verify-ontic", "--c", "0.37"), nan_last_product_cell, "clone-of-b-is-product-density"),
            (("verify-ontic", "--c", "0.37"), nan_last_a_perp_cell, "mixing-equivalences"),
        ],
        ids=["epsilons", "measured-epsilon", "observed-confusabilities-first", "observed-confusabilities-last",
             "o2-residual", "beta-product-density", "a-perp-density"],
    )
    def test_verdict_fails_and_exits_one(self, capsys, monkeypatch, argv, sabotage, verdict):
        sabotage(monkeypatch)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert re.search(rf"^  \[FAIL\] {verdict}  \(.* = nan <= \S+\)$", out, re.MULTILINE), out
        assert out.endswith("result: FAIL\n")


def fresh_env():
    """Environment in which a fresh interpreter imports ``clonectx`` from these sources.

    The installed packages follow on ``PYTHONPATH``, so that numpy and scipy can load under
    ``-S`` as well; entries there are only searched, their ``.pth`` files are not run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = sysconfig.get_paths()
    entries = [src, os.environ.get("PYTHONPATH"), paths["purelib"], paths["platlib"]]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(dict.fromkeys(filter(None, entries)))}


def fresh(probe, *argv, **kwargs):
    """Run ``probe`` in a fresh interpreter without ``site`` (``-S``), whose ``.pth`` files may
    preload modules, ``pathlib`` among them, that the package itself must not load."""
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, "-S", "-c", probe, *argv], env=fresh_env(), text=True, timeout=60,
                          **streams)


def run_fresh(probe, *argv):
    """Run ``probe`` in a fresh interpreter; the last line it prints, split on whitespace."""
    done = fresh(probe, *argv)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_fresh_interpreter_can_load_the_installed_packages():
    # The checks below that numpy and scipy stay unloaded can fail only if both could load.
    probe = "import importlib.util, numpy; print(importlib.util.find_spec('scipy') is not None)"
    assert run_fresh(probe) == [str(importlib.util.find_spec("scipy") is not None)]


def test_import_does_not_load_scipy():
    # scipy is not a runtime dependency; a fresh interpreter shows what the CLI really imports.
    probe = "import sys, clonectx.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_fresh(probe) == ["[]"]


# No subcommand loads numpy, nor dataclasses and the inspect module it would pull in, nor pathlib.
NEVER_LOADED = ("numpy", "dataclasses", "inspect", "pathlib")
SCAN_ONLY = ("clonectx.cloner", "clonectx.ontic", "clonectx.quantum", *NEVER_LOADED)
CLOSED_FORM_ONLY = ("clonectx.scan", *SCAN_ONLY)
CLONES_ONLY = ("clonectx.scan", "clonectx.ontic", "clonectx.quantum", *NEVER_LOADED)
QUANTUM_ONLY = ("clonectx.scan", "clonectx.ontic", *NEVER_LOADED)
ONTIC_ONLY = ("clonectx.scan", "clonectx.cloner", "clonectx.quantum", *NEVER_LOADED)


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("bounds", "--c", "0.5", "--v", "0.015"), CLOSED_FORM_ONLY),
        (("region", "--v", "0.015"), SCAN_ONLY),
        (("critical-noise", "--c", "0.5"), SCAN_ONLY),
        (("curves", "--out", "OUT", "--points", "20"), SCAN_ONLY),
        (("noise", "--v", "0.015", "--c", "0.5"), QUANTUM_ONLY),
        (("verify-quantum", "--v", "0.015", "--c", "0.5"), QUANTUM_ONLY),
        (("clones", "--c", "0.5"), CLONES_ONLY),
        (("verify-ontic", "--c", "0.37", "--resolution", "100"), ONTIC_ONLY),
    ],
    ids=["bounds", "region", "critical-noise", "curves", "noise", "verify-quantum", "clones", "verify-ontic"],
)
def test_subcommand_leaves_the_simulations_it_does_not_use_unloaded(tmp_path, argv, unloaded):
    # bounds needs bounds alone, and the sweep subcommands only scan: neither
    # the clone search nor a simulation.  clones needs no simulation, the
    # quantum ones (through quantum) only the clone search's basis, and
    # verify-ontic neither; none of these five needs the sweeps.  No module
    # imports numpy, dataclasses or pathlib, so none of these loads them.
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
        (("region", "--v", "0.015"), "clonectx.scan"),
        (("critical-noise", "--c", "0.5"), "clonectx.scan"),
        (("curves", "--out", "OUT", "--points", "20"), "clonectx.scan"),
        (("noise", "--v", "0.015", "--c", "0.5"), "clonectx.quantum"),
        (("verify-quantum", "--v", "0.015", "--c", "0.5"), "clonectx.quantum"),
        (("verify-ontic", "--c", "0.5", "--resolution", "20"), "clonectx.ontic"),
    ],
    ids=["region", "critical-noise", "curves", "noise", "verify-quantum", "verify-ontic"],
)
def test_simulation_loads_before_the_clock_starts(tmp_path, argv, module):
    # elapsed: times the computation only: the module a subcommand takes
    # beyond bounds is already loaded when run() first reads the clock, and numpy is not.
    probe = ("import sys, time, types; from clonectx import cli; seen = []; "
             "cli.time = types.SimpleNamespace(perf_counter=lambda: seen.append(sorted(sys.modules)) or time.perf_counter()); "
             "cli.run(sys.argv[1:]); print(*seen[0])")
    loaded = run_fresh(probe, *(str(tmp_path) if a == "OUT" else a for a in argv))
    assert module in loaded
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]


MAIN = "from clonectx.cli import main; main()"
# Registered before main(): it runs at exit, and sees the objects main() moved out of the collector's reach.
AT_EXIT = "import atexit, gc; atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0)); "
# A clone search that misses the closed form, so clones fails a verdict.
SABOTAGED = ("from clonectx import cloner; real = cloner.search_clones; "
             "cloner.search_clones = lambda c: real(c)._replace(fidelity=real(c).fidelity - 1e-3); ")


class TestMain:
    """The console script in fresh interpreters: run()'s code and stdout, then a normal exit."""

    @pytest.mark.parametrize(
        "argv, sabotage, code",
        [
            (("bounds", "--c", "0.5", "--v", "0.015"), False, 0),
            (("verify-ontic", "--c", "0.37", "--json"), False, 0),
            (("clones", "--c", "0.5"), True, 1),
            (("bounds", "--c", "1.5"), False, 2),
            (("curves", "--out", "OUT", "--points", "1"), False, 2),
            (("bounds", "--c", "abc"), False, 2),
            (("curves", "--out", "OUT", "--points", "2.5"), False, 2),
        ],
        ids=["pass", "pass-json", "fail", "domain-error", "curves-argument-error", "not-a-number", "not-an-integer"],
    )
    def test_exit_code_and_stdout_are_those_of_run(self, capsys, monkeypatch, tmp_path, argv, sabotage, code):
        argv = [str(tmp_path) if a == "OUT" else a for a in argv]
        if sabotage:
            from clonectx import cloner

            real = cloner.search_clones
            monkeypatch.setattr(cloner, "search_clones", lambda c: real(c)._replace(fidelity=real(c).fidelity - 1e-3))
        assert cli.run(argv) == code
        expected = capsys.readouterr().out
        done = fresh(AT_EXIT + (SABOTAGED if sabotage else "") + MAIN, *argv)
        assert done.returncode == code, done.stderr
        assert done.stdout == expected + "frozen: True\n"
        assert "Traceback" not in done.stderr

    def test_run_leaves_the_collector_as_it_found_it(self, capsys):
        before = gc.get_freeze_count()
        assert cli.run(["bounds", "--c", "0.5"]) == 0
        assert gc.get_freeze_count() == before
        assert gc.isenabled()

    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    def test_closed_stdout_exits_one_without_a_traceback(self, fmt):
        # As with `clonectx bounds --c 0.5 | head -c 10`: the reader is gone before the report is written.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = fresh(AT_EXIT + MAIN, "bounds", "--c", "0.5", *fmt, stdout=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr
        assert "BrokenPipeError" not in done.stderr

    @staticmethod
    def run_with_unwritable_stderr(stderr, buffered, *argv):
        # As with `clonectx verify-quantum ... 2>&-`: the interpreter starts with no fd 2 (sys.stderr is
        # None), or, behind a wrapper script that opened itself there, with an fd 2 it cannot write.
        # And as with a stderr piped to a reader that has gone. Without PYTHONUNBUFFERED, as in most
        # shells, a failed write stays in stderr's buffer for the flush at exit.
        read_end, write_end = os.pipe()
        os.close(read_end)
        read_only = os.open(os.devnull, os.O_RDONLY)
        env = {k: v for k, v in fresh_env().items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            streams = {"closed": {"stderr": subprocess.DEVNULL, "preexec_fn": lambda: os.close(2)},
                       "read-only": {"stderr": read_only}, "broken-pipe": {"stderr": write_end}}[stderr]
            return subprocess.run([sys.executable, "-S", "-c", MAIN, *argv], env=env, text=True, timeout=60,
                                  stdout=subprocess.PIPE, **streams)
        finally:
            os.close(write_end)
            os.close(read_only)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stderr", ["closed", "read-only", "broken-pipe"])
    def test_unwritable_stderr_loses_only_the_elapsed_line(self, capsys, stderr, buffered):
        argv = ("verify-quantum", "--v", "0.015", "--c", "0.5")
        assert cli.run(list(argv)) == 0
        expected = capsys.readouterr().out
        done = self.run_with_unwritable_stderr(stderr, buffered, *argv)
        assert done.returncode == 0
        assert done.stdout == expected and expected.endswith("result: PASS\n")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stderr", ["closed", "read-only", "broken-pipe"])
    def test_unwritable_stderr_keeps_argument_errors_at_two(self, tmp_path, stderr, buffered):
        # argparse's own error, and one found only when used (curves --out through a directory).
        # With no fd 2, argparse's print_usage falls back to stdout: a usage text, and nothing else, lands there.
        (tmp_path / "fidelity_quantum.csv").mkdir()
        for argv in (("region", "--v", "0.015", "--err-mode", "bogus"),
                     ("curves", "--out", str(tmp_path), "--points", "5")):
            done = self.run_with_unwritable_stderr(stderr, buffered, *argv)
            assert done.returncode == 2, argv
            assert done.stdout == "" or done.stdout.startswith("usage: ") and "error" not in done.stdout, argv


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


class TestParser:
    """The parser's structure, pinned field by field rather than as ``-h`` text, whose layout
    changes with ``COLUMNS`` and between Python versions."""

    HELP = (["-h", "--help"], "help", "==SUPPRESS==", False, None, "show this help message and exit", None)
    JSON = (["--json"], "json", False, False, None, "emit the report as JSON", None)
    ERR_MODE = (["--err-mode"], "err_mode", "thm2-direct", False, ["thm2-direct", "appendix-err", "err-prime"],
                None, None)
    C_MODE = (["--c-mode"], "c_mode", "observed-confusability", False, ["ideal-overlap", "observed-confusability"],
              None, None)
    C = (["--c"], "c", None, True, None, None, "_probability")
    V = (["--v"], "v", None, True, None, None, "_probability")
    # Each subcommand in the order -h lists them: its help, then every action as
    # (option_strings, dest, default, required, choices, help, type.__name__).
    EXPECTED = {
        "bounds": ("closed-form fidelity bounds at a given overlap", [
            HELP, JSON,
            (["--c"], "c", None, True, None, "input confusability in [0, 1]", "_probability"),
            (["--v"], "v", None, False, None, "depolarizing noise level in [0, 1]", "_probability")]),
        "clones": ("optimize the clone outputs and cross-check the closed form", [HELP, JSON, C]),
        "noise": ("simulate the depolarized experiment", [HELP, JSON, V, C]),
        "region": ("confusability interval with a quantum advantage", [HELP, JSON, V, ERR_MODE, C_MODE]),
        "critical-noise": ("largest noise level keeping the advantage", [
            HELP, JSON,
            (["--c"], "c", None, True, None, "input confusability in (0, 1)", "_open_probability"),
            ERR_MODE, C_MODE]),
        "curves": ("write figure data (fidelity tradeoff, noise resistance)", [
            HELP, JSON,
            (["--out"], "out", None, True, None, "output directory, made if it does not exist", "_directory"),
            (["--format"], "format", "csv", False, ["csv", "json"], None, None),
            (["--points"], "points", 500, False, None,
             "number of c grid points, 2 to 1000000 (about 350 bytes of memory per point)", "_curve_points"),
            C_MODE]),
        "verify-ontic": ("build the saturating model and run every check", [
            HELP, JSON, C,
            (["--resolution"], "resolution", None, False, None,
             "snap c first to the nearest k/(n/2), the overlaps a grid of n cells per axis can hold; n is even, "
             "4 to 2**53 (default: no snapping, the model is built at c)", "_resolution")]),
        "verify-quantum": ("verify the noisy experiment against closed forms", [HELP, JSON, V, C]),
    }

    @staticmethod
    def _subparsers(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def test_top_level_lists_each_subcommand_with_its_help(self):
        parser = cli._build_parser()[0]
        assert (parser.prog, parser.description) == (
            "clonectx", "Cloning-fidelity bounds, noisy-experiment simulation and noncontextuality verification.")
        assert [(a.option_strings, a.dest) for a in parser._actions] == [(["-h", "--help"], "help"), ([], "command")]
        sub = self._subparsers(parser)
        assert sub.required
        assert [(a.dest, a.help) for a in sub._choices_actions] == [(k, v[0]) for k, v in self.EXPECTED.items()]
        assert list(sub.choices) == list(self.EXPECTED)

    @pytest.mark.parametrize("name", EXPECTED)
    def test_each_subcommand_has_its_pinned_arguments(self, name):
        subparser = self._subparsers(cli._build_parser()[0]).choices[name]
        assert subparser.prog == f"clonectx {name}"
        actions = [(a.option_strings, a.dest, a.default, a.required,
                    None if a.choices is None else list(a.choices), a.help, getattr(a.type, "__name__", None))
                   for a in subparser._actions]
        assert actions == self.EXPECTED[name][1]


class TestReports:
    @pytest.mark.parametrize("argv", [("bounds", "--c", "0.5", "--v", "0.015"),
                                      ("verify-ontic", "--c", "0.318", "--json")], ids=["bounds", "verify-ontic"])
    def test_reports_are_byte_identical(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    # sha256 of stdout, text then --json, pinned before the observables moved into bounds.  These reports
    # compute with arithmetic, sqrt and fsum alone, so their bytes do not depend on the platform's libm.
    GOLDEN = {
        ("bounds", "--c", "0.5", "--v", "0.015"): (
            "e350cb71531fd29e5cbb0e96c49e8d2f4bec57373189784811c6bd3204ca0b6a",
            "f502ebc4902e7205ffe57225eb3ff7267019071e416a5afbcb55b03fdbedcfc6"),
        # Pinned before the noisy ceilings took dicts: no --v, both noise extremes, and a c near 0.
        ("bounds", "--c", "0.37"): (
            "ec8375e2e780eb59ce94927d066be99683997b5f5b00acf6aedc7c67ed4f5eb5",
            "494a5b42fe9736c003369e913054d0f555f79c63535412e44dbfd294de2815b7"),
        ("bounds", "--c", "0", "--v", "1"): (
            "d0c56290585f3bfd5901f6e276429bc541edbfc5dacbe1f893382f0f0457489a",
            "08300b7df5711cddd862509d20ea34f71ac48e147184cee696867da5c569f6b3"),
        ("bounds", "--c", "1", "--v", "0"): (
            "d225b246aa4857a22ef44b2cf23332c58ab119158c69f0ce738759cdaeaca36f",
            "a8b135502fbcf386fc6a8950d1d7659754a1fe88095079f8cdeb12c937bcdce2"),
        ("bounds", "--c", "1e-9", "--v", "0.3"): (
            "c32ab5909c8f556d22f0b962a7a640c1971df55cabc023cd3452507b514d8871",
            "ea2ee94030c1866040ed48e8b5cb69d7b39acea4b05be64fb90ee28efacaf0e8"),
        ("verify-ontic", "--c", "0"): (
            "ee23b0856914eff8e43da9c5cb59d6a01a7dbb1131c1836c894b52ae6a59bded",
            "22a96e0a0bef37373a8c986e3bbb1040126cb3a41cb86a8bb33223292a7248ca"),
        ("verify-ontic", "--c", "0.37"): (
            "664588a49254fc5360089c27082460635160ae2be6324b6cabeef26cfaab3c68",
            "fffe0dc31d73b868e857c3aa131571827e38258deb051b15bc3b279f0984bfbd"),
        ("verify-ontic", "--c", "1"): (
            "947c24d82e5c38b2b48541a1ea11dc77bf009b29d2489810a12bee60dd3327d3",
            "bd1641075c35d9b5f4072b50f29c6748b8a9a507d75c482caf9897fc1e7be1b7"),
        ("verify-ontic", "--c", "0.37", "--resolution", "100"): (
            "ef8cdf90dc1e531a51f2d7970423b94738fcc27844ad5a3800406545046abc55",
            "a85633ced3902a7c653bbd3a9c6cde383caf48faf010c263bd7cc76886dd95d3"),
        # A matching pass probability rounds to 1 + 2**-52 here: its shortfall is a residual of 2.220e-16.
        ("verify-ontic", "--c", "0.8824059935355894"): (
            "b3228015edb05f3427e5820c5d326c42c35007ed69e71104e0c8f05202bef199",
            "4319861157b12d118bbf8c3cb88795160b6df68a9abeadafdff72c7eafdac9ae"),
        # Pinned before the quantum route's measurements became plain floats.  Its input gauge takes acos,
        # cos and sin, so at c = 0.5 these bytes rest on a libm that rounds them as glibc does.
        ("noise", "--v", "0.015", "--c", "0.5"): (
            "f8977cd626e72e8a06c01e0faaa27e5ed10b4828c6969a31426002389229b42c",
            "36c9205d76860fd8852f68ff388bbfa248279c289d5ec51a45a9af0be1d91928"),
        ("verify-quantum", "--v", "0.015", "--c", "0.5"): (
            "f0eaea5e30052088dd35b61c25e72364644ee8850048127a876e124446981837",
            "3060eaff52da7ea813ea21e611f411f06f4ddafa0b3095eb442da66fbb1df841"),
        ("noise", "--v", "0", "--c", "1"): (
            "f6b959865059872b641c93f55907f56c7d50ed91b53520315613631ce6b9fe82",
            "0c434e335c465b7da7ce2b9e5fd3a2fc165969daf10f9c24c3a61db26b8f970a"),
        ("verify-quantum", "--v", "0", "--c", "1"): (
            "3fcf12dcae30f91679f081d78a4e10fcef51c025acb2c85909c7c9c503e5606e",
            "159afeb003060785589392b2982cd6d7fd8dce5f42c20763f4ffb3ed54963d33"),
        ("noise", "--v", "1", "--c", "0"): (
            "616fb18cf842f4fae99b9bff3bc1330954145c04c2c11fd82ff24ff0b3027919",
            "f65adc530f59f7625b40d299e8c10ad845435920409478e016300df77cc557b5"),
        ("verify-quantum", "--v", "1", "--c", "0"): (
            "7343332f39aa5a80bddd2601aaad77e88658b5d3589e87625cf1b6f1972c9b31",
            "77827d5468c1f1e865ef5945cbe853183f14bf0680f8425c9b8bef5c6b948640"),
    }

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("argv", GOLDEN, ids=lambda argv: "".join(argv).replace("--", "-"))
    def test_reports_are_byte_identical_to_the_golden_hashes(self, capsys, argv, as_json):
        code, out, _ = run_cli(capsys, *argv, *["--json"] * as_json)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[argv][as_json], out

    def test_wall_time_goes_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "bounds", "--c", "0.5")
        assert "elapsed" not in out
        assert "elapsed" in err

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("bounds", "--v", "0.015", "--c", "0.5"),
        ("clones", "--c", "0.25"),
        ("noise", "--c", "0.5", "--v", "0.015"),
        ("region", "--c-mode", "ideal-overlap", "--v", "0.015", "--err-mode", "err-prime"),
        ("critical-noise", "--err-mode", "appendix-err", "--c", "0.5"),
        ("curves", "--format", "json", "--points", "3", "--out", "{tmp}"),
        ("verify-ontic", "--resolution", "100", "--c", "0.37"),
        ("verify-quantum", "--c", "0.5", "--v", "0.015"),
    ], ids=lambda argv: argv[0])
    def test_inputs_are_the_parsed_arguments_in_parser_order(self, capsys, tmp_path, argv, as_json):
        argv = [a.format(tmp=tmp_path / "figs") for a in argv] + ["--json"] * as_json
        parsed = vars(cli._build_parser()[0].parse_args(argv))
        expected = [(k, v) for k, v in parsed.items() if k not in ("command", "json")]
        _, out, _ = run_cli(capsys, *argv)
        if as_json:
            assert list(json.loads(out)["inputs"].items()) == expected
        else:
            block = out.split("inputs:\n")[1].split("\noutputs:")[0].splitlines()
            assert block == [f"  {k} = {v}" for k, v in expected]

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("argv, count", [
        (("clones", "--c", "0.5"), 2),
        (("noise", "--v", "0.015", "--c", "0.5"), 4),
        (("verify-quantum", "--v", "0.015", "--c", "0.5"), 4),
        (("verify-ontic", "--c", "0.37"), 9),
    ], ids=["clones", "noise", "verify-quantum", "verify-ontic"])
    def test_every_verdict_detail_gives_its_residual_and_tolerance(self, capsys, argv, count, as_json):
        code, out, _ = run_cli(capsys, *argv, *["--json"] * as_json)
        assert code == 0
        if as_json:
            details = [v["detail"] for v in json.loads(out)["verdicts"]]
        else:
            details = re.findall(r"^  \[PASS\] \S+  \((.*)\)$", out, re.MULTILINE)
        assert len(details) == count, out
        assert all(re.fullmatch(r".+ = \d\.\d{3}e[+-]\d\d <= \S+", d) for d in details), details

    def test_check_passes_a_residual_at_the_tolerance_and_fails_nan(self):
        report = cli.RunReport("clones", {})
        report.check("at-tolerance", "|delta|", 1e-9, 1e-9)
        assert report.verdicts == [{"name": "at-tolerance", "status": "pass", "detail": "|delta| = 1.000e-09 <= 1e-09"}]
        assert not report.failed
        report.check("nan", "max residual", float("nan"), 1e-9)
        assert report.verdicts[1] == {"name": "nan", "status": "fail", "detail": "max residual = nan <= 1e-09"}
        assert report.render_text().endswith("\n  [FAIL] nan  (max residual = nan <= 1e-09)\nresult: FAIL")
        assert json.loads(report.render_json())["result"] == "fail"

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

    @pytest.mark.parametrize("c, v, noisy, clamped", [("0", "0.9", 2.371375, True),
                                                      ("0.5", "0.015", 0.932313171875, False)],
                             ids=["vacuous", "binding"])
    def test_bounds_flags_a_noisy_ceiling_above_one(self, capsys, c, v, noisy, clamped):
        code, out, _ = run_cli(capsys, "bounds", "--c", c, "--v", v, "--json")
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["nc_bound_noisy"] == noisy
        assert outputs["nc_bound_noisy_clamped"] is clamped

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

    @pytest.mark.parametrize("command", ["noise", "verify-quantum"])
    @pytest.mark.parametrize("drifted", [("b", "a"), ("bb", "aa")], ids=["c_ba", "c_bbaa"])
    def test_observed_confusabilities_verdict_reads_the_reverse_overlaps(self, capsys, monkeypatch, command, drifted):
        # Only one reverse overlap drifts: no other verdict reads it, and the forward overlaps stay as simulated.
        from clonectx import quantum

        real = quantum.NoisyEnsemble.pass_probability
        monkeypatch.setattr(quantum.NoisyEnsemble, "pass_probability",
                            lambda ens, s, t: real(ens, s, t) + (1e-6 if (s, t) == drifted else 0.0))
        code, out, _ = run_cli(capsys, command, "--v", "0.015", "--c", "0.5")
        assert code == 1
        assert re.findall(r"^  \[FAIL\] (\S+)  \(max \|delta\| = (\S+) ", out, re.MULTILINE) == [
            ("observed-confusabilities-match-closed-forms", "1.000e-06")], out

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
        from clonectx import bounds

        real = bounds.global_fidelity
        monkeypatch.setattr(bounds, "global_fidelity", lambda p: real(p) + 1e-6)
        code, out, _ = run_cli(capsys, "verify-ontic", "--c", "0.5", "--resolution", "100")
        assert code == 1
        assert "[FAIL] fidelity-saturates-nc-bound" in out
        assert "result: FAIL" in out

    @staticmethod
    def count_calls(monkeypatch, model_class):
        """Calls of ``bounds.measured_epsilons`` and of ``model_class.equivalence_residuals``, counted as they run."""
        from clonectx import bounds

        calls = {"measured_epsilons": 0, "equivalence_residuals": 0}
        for owner, name in ((bounds, "measured_epsilons"), (model_class, "equivalence_residuals")):
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_verify_ontic_runs_each_model_check_once(self, capsys, monkeypatch):
        from clonectx import ontic

        calls = self.count_calls(monkeypatch, ontic.OnticModel)
        code, out, _ = run_cli(capsys, "verify-ontic", "--c", "0.5", "--resolution", "20")
        assert code == 0
        assert out.count("distance-confusability-identity") == 4
        assert calls == {"measured_epsilons": 1, "equivalence_residuals": 1}

    def test_verify_quantum_runs_each_model_check_once(self, capsys, monkeypatch):
        from clonectx import quantum

        calls = self.count_calls(monkeypatch, quantum.NoisyEnsemble)
        code, out, _ = run_cli(capsys, "verify-quantum", "--v", "0.015", "--c", "0.5")
        assert code == 0
        assert out.count("equivalence_residual[") == 4
        assert calls == {"measured_epsilons": 1, "equivalence_residuals": 1}

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(c=st.floats(0.0, 1.0))
    @example(c=0.123)
    @example(c=5e-324)
    @example(c=1.0 - 2**-53)
    def test_verify_ontic_without_resolution_verifies_the_given_overlap(self, c):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.run(["verify-ontic", "--c", repr(c), "--json"])
        doc = json.loads(out.getvalue())
        assert code == 0
        assert doc["inputs"] == {"c": c, "resolution": None}
        assert doc["outputs"]["c_snapped"] == c
        assert "warnings" not in doc["outputs"]
        assert all(v["status"] == "pass" for v in doc["verdicts"])

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
        with open(out_dir / "fidelity_quantum.csv", newline="") as fh:
            rows = list(csv.reader(fh))
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

    @pytest.mark.parametrize("text", ["figs", "figs/", "./figs", "a//b", "a/./b", "a/../b", "/TMP/abs", "//TMP/x",
                                      "///TMP/y", "", "."])
    def test_out_is_reported_and_written_as_pathlib_spells_it(self, capsys, monkeypatch, tmp_path, text):
        # TMP is the test's directory, so that "/abs" and "//x" write there too; "//" stays, as POSIX allows.
        monkeypatch.chdir(tmp_path)
        text = text.replace("TMP", str(tmp_path).lstrip("/"))
        code, out, _ = run_cli(capsys, "curves", "--out", text, "--points", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["out"] == str(Path(text))
        assert doc["outputs"]["files"] == [str(Path(text) / f"{name}.csv") for name in self.CURVE_FILES]
        assert all(os.path.isfile(f) for f in doc["outputs"]["files"])

    # sha256 of the four files, in CURVE_FILES order, pinned from the per-series writers that came before
    # the shared c column, so that any formatting slip in the writer shows.
    # --points 2 holds only c = 0 and 1, so both noise-resistance series are empty.
    GOLDEN = {
        (2, "csv", "observed-confusability"): (
            "a4b1cd420d1377e039cd0b0780c59812005c8950287102a2ff434db015313e15",
            "a4b1cd420d1377e039cd0b0780c59812005c8950287102a2ff434db015313e15",
            "d08fbaff2000cf9c077907245f8be025556e20249e5bc3e7d2f904b49c82c10d",
            "d08fbaff2000cf9c077907245f8be025556e20249e5bc3e7d2f904b49c82c10d",
        ),
        (2, "csv", "ideal-overlap"): (
            "a4b1cd420d1377e039cd0b0780c59812005c8950287102a2ff434db015313e15",
            "a4b1cd420d1377e039cd0b0780c59812005c8950287102a2ff434db015313e15",
            "d08fbaff2000cf9c077907245f8be025556e20249e5bc3e7d2f904b49c82c10d",
            "d08fbaff2000cf9c077907245f8be025556e20249e5bc3e7d2f904b49c82c10d",
        ),
        (2, "json", "observed-confusability"): (
            "0dc37ce2d8cdc66c3fa4f0fabce8c579bb52dfc072de47c7206fba48712016ef",
            "bc8d76cf138f8aa49ae4751d8067751f3fc6821d9c09dfbbf9c72f71b4ade2d9",
            "63c5ff5c37dbee1873ba450e4f3e0eee26ae851017a82b1cdd27481d6609dfc3",
            "ba5245d6633038ab813b0ae850d7c11b2dc5ced60efe1f4cf38b12f07bc90436",
        ),
        (2, "json", "ideal-overlap"): (
            "0dc37ce2d8cdc66c3fa4f0fabce8c579bb52dfc072de47c7206fba48712016ef",
            "bc8d76cf138f8aa49ae4751d8067751f3fc6821d9c09dfbbf9c72f71b4ade2d9",
            "6cd05afe1b2f5634f88f20b929fde852532990ad4427521514895280fc321523",
            "eaabce2e0026d5a3850adb6788b52a6b9f47b483144cf2b0382015aabf35a16d",
        ),
        (7, "csv", "observed-confusability"): (
            "b26a482d8137a46e8f1d05cca53fe86bb2a9ccc3f62c0c2cd5d1fb505e8f74b7",
            "23ec0b8f06bd7dc3f31e7aba526f433d9d71104989362c5c00895e01cee3808e",
            "2dff8b79bbc860117d9b1e09c7a378b4b400125f08b67be41b2b0f5ecfd873ec",
            "f493c698ab7bce43c5edf8f7cc62ae1f139ca3cc916afea0f8dc4eb765cf9262",
        ),
        (7, "csv", "ideal-overlap"): (
            "b26a482d8137a46e8f1d05cca53fe86bb2a9ccc3f62c0c2cd5d1fb505e8f74b7",
            "23ec0b8f06bd7dc3f31e7aba526f433d9d71104989362c5c00895e01cee3808e",
            "7bb9593b83739378e3bd914007844f4d249660aec48d7e1402ff012dd667aee8",
            "f6df5e548b99a293c4a4db282b4e2468a1d2db81172dab0e9e75aa042afae6d5",
        ),
        (7, "json", "observed-confusability"): (
            "d5162e1ee9d6c1961e833a705d0423afafcbb5b883891bd81e7d55ac428d0d97",
            "78c34aaeed583a04a25665286de927fab2869ff5ef6e0ad3ac4f3d1f431a0c4d",
            "4c9649a24ed88e70670c438cec082b1dc6a16ec0dbc8d83b4c9a2bc4be1e78e6",
            "ad9b14f247b924f04ae6f788f438f4c6877138bd1d7424fca6a3024974fee6ee",
        ),
        (7, "json", "ideal-overlap"): (
            "d5162e1ee9d6c1961e833a705d0423afafcbb5b883891bd81e7d55ac428d0d97",
            "78c34aaeed583a04a25665286de927fab2869ff5ef6e0ad3ac4f3d1f431a0c4d",
            "ac85598f081b763fac7567b770398d064f2049d2b1eb0d6496b5f1a9ebcce830",
            "629505e6bc387561ad4dc096141f954d6487092f652678f4c5a110463a71eb46",
        ),
        (777, "csv", "observed-confusability"): (
            "1fc9d331b4b2316bf450cd0110a03a26d953c57eacacb028493d628c1452b058",
            "64521ca1e00b38467e8bc0e793b34a290aa31d34a216bf068ff0f612fd64c9da",
            "d52d91d6bfa03abfac6236b808da5a033619ab92612745941cebcfd08fad699e",
            "6a2c064dc9a5514690ac41a1925613979f3dc8cf8ea316363923717809b6a2d0",
        ),
        (777, "csv", "ideal-overlap"): (
            "1fc9d331b4b2316bf450cd0110a03a26d953c57eacacb028493d628c1452b058",
            "64521ca1e00b38467e8bc0e793b34a290aa31d34a216bf068ff0f612fd64c9da",
            "dd5d75ff42e386a03609053e951206b332ca6a1177904783561fa0d06d22773f",
            "ff4cb35a9b2db30c8f8d369d80d2f9fca570df4334c1526b9ae94af829ca2473",
        ),
        (777, "json", "observed-confusability"): (
            "55fa5921a79843c726329033821619a8f857aed4022fc24e70432bf5da11de3d",
            "54a2a70c203d9d69ea5df9602c7421e2e2dcbe1c61fa4457e0d69b50c066bb70",
            "68b8d7510b9e5aac21ca71d29e6f0fd6a0dee1cab3795d72db2cfd72efcfd14e",
            "74d9f9bcd570e77d19a720dd66f877b1cdf73e576f8a863595a0f03a427e9d20",
        ),
        (777, "json", "ideal-overlap"): (
            "55fa5921a79843c726329033821619a8f857aed4022fc24e70432bf5da11de3d",
            "54a2a70c203d9d69ea5df9602c7421e2e2dcbe1c61fa4457e0d69b50c066bb70",
            "c918ce0dfc5d18a908b35408a88315049cedebcd16b91725a05acc6f010a930b",
            "6c6e66ecfab2f3b22125b9af4a26a76264fbede55110c752d2b7f5b54e458547",
        ),
    }
    CURVE_FILES = ("fidelity_quantum", "fidelity_noncontextual", "noise_resistance_thm2-direct",
                   "noise_resistance_err-prime")

    @pytest.mark.parametrize("n, fmt, c_mode", GOLDEN, ids=[f"{n}-{fmt}-{m}" for n, fmt, m in GOLDEN])
    def test_files_are_byte_identical_to_the_golden_hashes(self, capsys, tmp_path, n, fmt, c_mode):
        code, _, _ = run_cli(capsys, "curves", "--out", str(tmp_path), "--points", str(n), "--format", fmt,
                             "--c-mode", c_mode)
        assert code == 0
        got = tuple(hashlib.sha256((tmp_path / f"{name}.{fmt}").read_bytes()).hexdigest() for name in self.CURVE_FILES)
        assert got == self.GOLDEN[n, fmt, c_mode]
