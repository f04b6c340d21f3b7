"""The benchmark's workloads: which CLI operations a run sends, in order.

A workload is an endless cycle of rounds.  A round is a fixed list of
operations, one ``touropt`` command each, and it covers both presets, so
a run that stops between rounds always holds the same mix.  Each
operation's ``--seed`` is drawn from the workload seed, so one workload
seed always gives the same argv and config files, and another seed gives
other inputs of the same shape and cost class.

- ``search``: ``optimize`` on juneau (100x40) and iceland (120x80), the
  preset defaults.  Mostly ``moea``: sorting, selection, the front
  verification pass and hypervolume, at two archive sizes (about 1k and
  1.9k members), so the O(n^2) front pass shows.
- ``screen``: Sobol ``sensitivity`` over ``full_space`` at n=512 on both
  presets, 13,312 simulations each.  Mostly ``sd_core`` throughput plus
  the ``gsa`` estimator, bootstrap and per-point loop; no ``moea`` work.
- ``desk``: a round-robin of the short commands at their defaults.  Single
  full-trajectory runs that write per-year diagnostics, so the time goes
  to ``cli``, ``dataio``, ``scenario`` and ``flow``, and a slow one-row
  simulation path shows here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("search", "screen", "desk")
PRESETS = ("juneau", "iceland")
DEFAULT_SEED = 0

# The preset defaults, written out so that the workload stays fixed even
# if a preset's defaults change, and so the evaluation count comes from
# the config rather than from the program.
EA_SIZES = {"juneau": (100, 40), "iceland": (120, 80)}
SOBOL_N = 512
MORRIS_R = 20
DESK_COMMANDS = ("simulate", "scenario", "redistribute", "synth", "sensitivity")


@dataclass(frozen=True)
class Op:
    """One CLI operation: its command, preset, seed and config file."""

    command: str
    preset: str
    seed: int
    config: str  # file name inside the inputs directory

    @property
    def label(self) -> str:
        return f"{self.command}/{self.preset}"

    def argv(self, inputs: Path, out: Path) -> list:
        return [self.command, "--preset", self.preset, "--seed", str(self.seed),
                "--config", str(inputs / self.config), "--out", str(out)]


def configs(workload: str) -> dict:
    """Config documents by file name, as the workload's operations read them."""
    if workload == "search":
        return {f"optimize-{p}.json": {"optimize": {"ea": {
            "population_size": EA_SIZES[p][0], "generations": EA_SIZES[p][1]}}}
            for p in PRESETS}
    if workload == "screen":
        return {"sobol.json": {"sensitivity": {
            "method": "sobol", "space": "full", "sobol_n": SOBOL_N}}}
    if workload == "desk":
        return {"desk.json": {"sensitivity": {
            "method": "morris", "space": "full", "morris_r": MORRIS_R}}}
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for name, doc in configs(workload).items():
        (inputs / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _round_plan(workload: str) -> list:
    """(command, preset, config file) for each operation of one round."""
    if workload == "search":
        return [("optimize", p, f"optimize-{p}.json") for p in PRESETS]
    if workload == "screen":
        return [("sensitivity", p, "sobol.json") for p in PRESETS]
    if workload == "desk":
        return [(c, p, "desk.json") for c in DESK_COMMANDS for p in PRESETS]
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload: str, seed: int):
    """Yield the workload's rounds, each a list of :class:`Op`, without end."""
    plan = _round_plan(workload)
    rng = random.Random(f"touropt-bench:{workload}:{seed}")
    while True:
        yield [Op(cmd, preset, rng.randrange(2 ** 31), cfg)
               for cmd, preset, cfg in plan]
