"""Every function of the package is reached by a command, or kept for a reason named here.

Each subcommand runs in-process through :func:`clonectx.cli.run` under
:func:`sys.setprofile`, in text and ``--json``, and every call is recorded by
its code's file and first line.  The module- and class-level ``def`` of
``src/clonectx`` that no command calls must be exactly the keys of ``KEPT``:
a new function that no command reaches fails here until a command runs it or
``KEPT`` names why it stays, and a kept function that a command comes to
reach fails until it leaves ``KEPT``.  Every subcommand of ``cli._COMMANDS``
has a run here, so one added to the table fails until it has one.  No
module imports a name it never reads, so a deletion cannot leave a dead
import behind.
"""

import ast
import importlib
import sys
from pathlib import Path

import clonectx
from clonectx import bounds, cli

NOISY_FAMILY = "the noisy ontic family: acceptance criteria 3 and 8 reach it until a command checks the noisy model"
KEPT = {
    "bounds._Checked._make": "the namedtuple API, which _replace calls: the override puts it through the check",
    "cli.main": "the console script; every command here runs through cli.run in-process",
    "ontic._Table.nbytes": "perfbench reports it as the kernel's size",
    **dict.fromkeys(["ontic.mix_with_uniform", "ontic.sandwich_margins", "ontic.dpi_margin"], NOISY_FAMILY),
    "scan.advantage_gap": "the scalar reference route that the fused critical-level pass is checked against",
}

MODE_PAIRS = [("--err-mode", e, "--c-mode", c) for e in bounds.ERR_MODES for c in bounds.C_MODES]


def _commands(out: Path) -> list[list[str]]:
    commands = [
        ["bounds", "--c", "0.5"],
        ["bounds", "--c", "0.5", "--v", "0.015"],
        ["clones", "--c", "0.5"],
        ["noise", "--v", "0.015", "--c", "0.5"],
        ["verify-quantum", "--v", "0.015", "--c", "0.5"],
        ["verify-ontic", "--c", "0.37"],
        ["verify-ontic", "--c", "0.37", "--resolution", "100"],
        *(["region", "--v", "0.015", *modes] for modes in MODE_PAIRS),
        *(["critical-noise", "--c", "0.5", *modes] for modes in MODE_PAIRS),
        *(["curves", "--out", str(out / fmt), "--points", "50", "--format", fmt] for fmt in cli.CURVE_FORMATS),
    ]
    return [argv + tail for argv in commands for tail in ([], ["--json"])]


def _defs() -> dict[tuple[str, int], str]:
    """Each module- and class-level function of the package, by (file, first line): its dotted name."""
    found = {}
    for path in sorted(Path(clonectx.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"clonectx.{path.stem}") if path.stem != "__init__" else clonectx
        scopes = [(path.stem, ast.parse(path.read_text()).body)]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{prefix}.{node.name}", node.body))
                elif isinstance(node, ast.FunctionDef):
                    first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                    found[module.__file__, first] = f"{prefix}.{node.name}"
    return found


def _unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, ``from __future__`` aside."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(Path(clonectx.__file__).parent.glob("*.py"))
    assert {path.name: names for path in modules if (names := _unused_imports(path.read_text()))} == {}


def test_an_unused_import_fails_the_check():
    planted = "from __future__ import annotations\nimport math\nimport os.path\nfrom json import dumps as d\nmath.pi\n"
    assert _unused_imports(planted) == ["d", "os"]


def test_every_subcommand_has_a_reach_run(tmp_path):
    assert {argv[0] for argv in _commands(tmp_path)} == set(cli._COMMANDS)


def test_every_function_is_reached_by_a_command_or_kept(capsys, tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.run(argv) for argv in _commands(tmp_path)]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(codes)
    unreached = {name for key, name in _defs().items() if key not in called}
    assert unreached == set(KEPT), (f"reached by no command and not kept: {sorted(unreached - set(KEPT))}; "
                                    f"kept but reached by a command: {sorted(set(KEPT) - unreached)}")
