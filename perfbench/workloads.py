"""The benchmark's workloads: CLI argument lists, set-up and output checks.

Each workload is one closed-loop request to `infogame.cli.main` at a fixed
size.  The seed reaches the program only as the CLI's `--seed` flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from fingerprint import (
    check_fingerprint,
    check_invariants,
    simulate_fingerprint,
    simulate_invariants,
    solve_fingerprint,
    solve_invariants,
)

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_3TYPE = os.path.join(HERE, "solve3type.json")
# the small two-sided solve that check-2type audits and simulate-feedback replays
SMALL_SOLVE = ["--preset", "two-sided-1d", "--nx", "41", "--np", "4", "--nq", "4", "--steps", "25"]


@dataclass(frozen=True)
class Workload:
    why: str
    needs_small_solve: bool
    argv: Callable[[str, str, int], list]  # (input solve dir, output dir, seed) -> CLI argv
    artifact: str  # file or directory under the output dir that is fingerprinted
    fingerprint: Callable[[str], tuple]
    invariants: Callable[[str], list]


WORKLOADS = {
    "solve-2type": Workload(
        why="ROADMAP W1: 2-type chain-hull envelopes and the 47 MB CSV write dominate; "
        "isolates the solver, envelope and artifact layers.",
        needs_small_solve=False,
        argv=lambda src, out, seed: [
            "solve", "--preset", "two-sided-1d", "--nx", "81", "--np", "8", "--nq", "8",
            "--steps", "100", "--seed", str(seed), "--out", out,
        ],
        artifact="",
        fingerprint=solve_fingerprint,
        invariants=solve_invariants,
    ),
    "solve-3type": Workload(
        why="ROADMAP W6: a 3x3-type solve whose envelopes take the Qhull branch; "
        "a 2-type-only kernel must leave it unchanged.",
        needs_small_solve=False,
        argv=lambda src, out, seed: [
            "solve", "--config", CONFIG_3TYPE, "--nx", "21", "--np", "6", "--nq", "6",
            "--steps", "8", "--seed", str(seed), "--out", out,
        ],
        artifact="",
        fingerprint=solve_fingerprint,
        invariants=solve_invariants,
    ),
    "check-2type": Workload(
        why="Dual audit of a small solve: Hamiltonian evaluations dominate and no envelope "
        "runs; isolates the audit layer.",
        needs_small_solve=True,
        argv=lambda src, out, seed: ["check", "--solve", src, "--out", os.path.join(out, "check.json")],
        artifact="check.json",
        fingerprint=check_fingerprint,
        invariants=check_invariants,
    ),
    "simulate-feedback": Workload(
        why="Monte Carlo play with the feedback rule replayed from a small solve; "
        "isolates the simulator layer and its thread pool.",
        needs_small_solve=True,
        argv=lambda src, out, seed: [
            "simulate", "--preset", "two-sided-1d", "--strategy-u", f"feedback:{src}",
            "--strategy-v", "cycle", "--h", "0.02", "--samples", "100", "--p", "0.5,0.5",
            "--q", "0.5,0.5", "--seed", str(seed), "--out", out,
        ],
        artifact="simulate.json",
        fingerprint=simulate_fingerprint,
        invariants=simulate_invariants,
    ),
}
