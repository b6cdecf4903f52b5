"""Seeded command generators for the three workloads.

Each generator yields argument lists for ``clonectx ... --json`` forever.
The inputs are stratified rather than drawn independently: point queries
cycle through all eight subcommands in a seeded order, and the sized
workloads draw their sizes in mirrored pairs (see ``_mirrored_fractions``),
so that the medians of a time-limited run do not hinge on which sizes the
seed happened to draw.  The CLI only ever sees the generated arguments.
"""

from __future__ import annotations

import itertools
import os
import random

WORKLOADS = ("point-queries", "figure-data", "ontic-grid")

ERR_MODES = ("thm2-direct", "appendix-err", "err-prime")
C_MODES = ("ideal-overlap", "observed-confusability")
FORMATS = ("csv", "json")

# v spans the critical level v* ~ 0.0182, so regions are sometimes empty.
V_RANGE = (0.0, 0.03)
POINT_RESOLUTION = 100
POINT_CURVE_POINTS = 50
FIGURE_POINTS = (2000, 4000)
ONTIC_RESOLUTIONS = (200, 400)


def _num(x: float) -> str:
    return repr(float(x))


def _c_closed(rng: random.Random) -> str:
    return _num(rng.random())


def _c_open(rng: random.Random) -> str:
    while True:
        c = rng.random()
        if 0.0 < c < 1.0:
            return _num(c)


def _v(rng: random.Random) -> str:
    return _num(rng.uniform(*V_RANGE))


def _point_command(name: str, rng: random.Random) -> list[str]:
    if name == "bounds":
        return ["bounds", "--c", _c_closed(rng), "--v", _v(rng)]
    if name == "clones":
        return ["clones", "--c", _c_closed(rng)]
    if name in ("noise", "verify-quantum"):
        return [name, "--v", _v(rng), "--c", _c_closed(rng)]
    if name == "region":
        return ["region", "--v", _v(rng), "--err-mode", rng.choice(ERR_MODES), "--c-mode", rng.choice(C_MODES)]
    if name == "critical-noise":
        return ["critical-noise", "--c", _c_open(rng), "--err-mode", rng.choice(ERR_MODES), "--c-mode", rng.choice(C_MODES)]
    if name == "verify-ontic":
        return ["verify-ontic", "--c", _c_closed(rng), "--resolution", str(POINT_RESOLUTION)]
    if name == "curves":
        return ["curves", "--points", str(POINT_CURVE_POINTS), "--format", rng.choice(FORMATS), "--c-mode", rng.choice(C_MODES)]
    raise ValueError(f"unknown subcommand {name!r}")


POINT_SUBCOMMANDS = (
    "bounds", "clones", "noise", "verify-quantum", "region", "critical-noise", "verify-ontic", "curves",
)


def _van_der_corput(k: int) -> float:
    x, denom = 0.0, 1.0
    while k:
        k, bit = divmod(k, 2)
        denom *= 2.0
        x += bit / denom
    return x


def _mirrored_fractions(rng: random.Random):
    """Seeded fractions in [0, 1], in pairs (u, 1 - u).

    A randomly shifted van der Corput sequence spreads every prefix evenly
    over the range, and pairing each fraction with its mirror image keeps
    the median of any whole number of pairs at the middle of the range, so
    a time-limited run measures the same size mix whatever the seed.
    """
    shift = rng.random()
    for j in itertools.count():
        u = (_van_der_corput(j) + shift) % 1.0
        yield u, 1.0 - u


def _in_range(w: float, lo: int, hi: int, step: int = 1) -> int:
    slots = (hi - lo) // step
    return lo + step * min(int(w * (slots + 1)), slots)


def _point_queries(rng: random.Random):
    while True:
        for name in rng.sample(POINT_SUBCOMMANDS, len(POINT_SUBCOMMANDS)):
            yield [_point_command(name, rng)]


def _figure_data(rng: random.Random):
    for pair in _mirrored_fractions(rng):
        modes = rng.sample(C_MODES, 2)  # one of each mode per pair
        yield [
            ["curves", "--points", str(_in_range(w, *FIGURE_POINTS)), "--format", rng.choice(FORMATS), "--c-mode", mode]
            for w, mode in zip(pair, modes)
        ]


def _ontic_grid(rng: random.Random):
    for pair in _mirrored_fractions(rng):
        yield [
            ["verify-ontic", "--c", _c_closed(rng), "--resolution", str(_in_range(w, *ONTIC_RESOLUTIONS, step=2))]
            for w in pair
        ]


def blocks(workload: str, seed: int):
    """Endless, reproducible stream of blocks of CLI argument lists for ``workload``.

    A time-limited run stops only at the end of a block, so that mirrored
    pairs are never split.
    """
    rng = random.Random(f"{workload}:{seed}")
    gen = {"point-queries": _point_queries, "figure-data": _figure_data, "ontic-grid": _ontic_grid}[workload]
    return gen(rng)


def first_commands(workload: str, seed: int, count: int) -> list[list[str]]:
    """The first ``count`` commands of the workload's stream."""
    return list(itertools.islice(itertools.chain.from_iterable(blocks(workload, seed)), count))


def _available_bytes() -> int:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def fits_in_memory(argv: list[str]) -> bool:
    """A dense ontic kernel takes 8*n**3 bytes; run it only if that fits in half the free memory."""
    if argv[0] != "verify-ontic":
        return True
    n = int(option(argv, "--resolution"))
    return 8 * n**3 + 100 * 2**20 <= _available_bytes() // 2


def full_argv(argv: list[str], out_dir) -> list[str]:
    """The generated command plus the output directory ``curves`` needs and ``--json``."""
    return argv + (["--out", str(out_dir)] if argv[0] == "curves" else []) + ["--json"]


def option(argv: list[str], flag: str) -> str | None:
    """Value of ``flag`` in an argument list, or None."""
    return argv[argv.index(flag) + 1] if flag in argv else None
