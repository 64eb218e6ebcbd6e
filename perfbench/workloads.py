"""Benchmark workloads: the podr command sequence and a config made from a seed.

The seed sets the sweep seeds only; everything else is pinned here so that a
change to the shipped ``configs/`` cannot change what the benchmark measures.
The program sees nothing but the generated config file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The shipped configs/cavity_case1.json, shrunk to a 32x32 grid and a
# Reynolds ensemble of 100..400 around a Re=250 target (3 methods x 4 budgets
# x 5 seeds x 2 components = 120 sweep cells, as shipped).  The shipped 64x64,
# Re 100..1000 config takes 30 s per `offline` (10 solves of ~3 s), so a run
# could time it once or twice; on a shared host whose speed drifts by a third
# over tens of seconds that single sample swings too far.  At this size a
# cold sequence takes ~4 s and a run gets many, and the flow solver still does
# most of the work.
CAVITY_CASE1 = {
    "problem": "cavity",
    "nx": 32,
    "ny": 32,
    "case": "case1",
    "reynolds": [100, 200, 300, 400],
    "target_reynolds": 250,
    "methods": ["PODR", "RSR", "FSR"],
    "shot_grid": [1000, 10000, 100000, 1000000],
    "chi_cap": 16,
}

# Synthetic traveling-vortex transient at 256x256 (N = 2^16; at 512x512 one
# sequence takes ~15 s, too long to repeat within a run).  Training steps
# 0..19 of a period-50 cycle; step 30 has phase residue 30, outside the
# window's residues 0..19, so the target is really held out.  The surrogate
# seed stays pinned to the shipped transient config's 7.  Other surrogate
# seeds change the bond-search work by up to a quarter (327 to 413 estimator
# calls over seeds 0..5 at 512x512), which would swamp the run-to-run spread
# across benchmark seeds, and some give a uy depth that falls with N, which
# the depth check flags.
TRANSIENT_LARGE = {
    "problem": "transient",
    "nx": 256,
    "ny": 256,
    "case": "case2",
    "window": [0, 19],
    "period": 50,
    "target_step": 30,
    "transient_seed": 7,
    "methods": ["PODR", "RSR", "FSR"],
    "shot_grid": [1000, 10000, 100000],
    "chi_cap": 16,
}

DEPTH_SIZES = (1024, 4096, 16384)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: dict
    n_sweep_seeds: int
    commands: tuple          # podr subcommands with their arguments
    prebuild: bool = False   # run `offline` once during set-up
    cold: bool = True        # empty the output directory before each sequence
    calibration: tuple = ("interpreter",)  # calibrate.py loops that track the commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cavity-cold",
            why="shipped cavity config shrunk to 32x32 from an empty out dir: offline then "
                "sweep; the flow solver does most of the work, mps/readout/io are minor",
            base=CAVITY_CASE1,
            n_sweep_seeds=5,
            commands=(("offline",), ("sweep",)),
        ),
        Workload(
            name="cavity-warm",
            why="same config rerun on prebuilt artifacts: offline reuse, sweep, visualize; "
                "the most common rerun, reads instead of writes, re-solves only the target",
            base=CAVITY_CASE1,
            n_sweep_seeds=5,
            commands=(("offline",), ("sweep",), ("visualize", "--shots", "10000")),
            prebuild=True,
            cold=False,
        ),
        Workload(
            name="transient-large",
            why="analytic 256x256 transient (N=2^16), solver bypassed: bond search, SVD, "
                "readout on 2^16 entries, artifact I/O and the circuit cost model",
            base=TRANSIENT_LARGE,
            n_sweep_seeds=3,
            # the bond search and readouts are LAPACK/FFT work on 2^16-entry
            # arrays as much as interpreter work: against the interpreter loop
            # alone their times still drift 8% over 15 s windows, against both
            # loops 4% (the flow solver drifts 3% against the interpreter loop)
            calibration=("interpreter", "arrays"),
            commands=(("offline",), ("sweep",),
                      ("depth-study", "--sizes", ",".join(map(str, DEPTH_SIZES)))),
        ),
    )
}


def sweep_seeds(seed: int, count: int):
    """Sweep seeds drawn from the benchmark seed; both cavity workloads share them."""
    return sorted(random.Random(seed).sample(range(1_000_000), count))


def check_held_out(cfg: dict) -> None:
    """Refuse a transient whose target repeats a trained phase."""
    if cfg["problem"] != "transient":
        return
    period = cfg["period"]
    trained = {t % period for t in range(cfg["window"][0], cfg["window"][1] + 1)}
    if cfg["target_step"] % period in trained:
        raise ValueError(
            f"target step {cfg['target_step']} repeats a trained phase "
            f"(residue {cfg['target_step'] % period} mod {period})"
        )


def generate(workload: Workload, seed: int, out_dir: str) -> dict:
    """Config document for one run of the workload."""
    cfg = dict(workload.base)
    cfg["seeds"] = sweep_seeds(seed, workload.n_sweep_seeds)
    cfg["out_dir"] = out_dir
    check_held_out(cfg)
    return cfg
