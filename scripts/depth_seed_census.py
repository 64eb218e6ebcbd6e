#!/usr/bin/env python3
"""Census of transient surrogate seeds whose circuit depth does not rise with N.

For each surrogate seed (default 0..39) the case-2 offline stage runs on
perfbench's transient-large settings at 64^2, 128^2 and 256^2, through the
same `run_depth_study` as `podr depth-study`.  Prints each seed's chi lists
and costliest-approximant depths per component, then the number of seeds
where some component's depth fails to rise strictly with N.  The count is a
reported number, not a pass/fail gate; the greedy search minimises the
encoding estimator, not the circuit cost, so a finer grid can get a cheaper
plan.  Takes about 90 s on one core; pass seeds to run a subset:

    PYTHONPATH=src python scripts/depth_seed_census.py [seed ...]
"""

import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import TRANSIENT_LARGE  # noqa: E402
from podreadout.config import config_from_dict  # noqa: E402
from podreadout.pipeline import run_depth_study  # noqa: E402

SIZES = (4096, 16384, 65536)


def census(seeds):
    falling = []
    for seed in seeds:
        with tempfile.TemporaryDirectory() as out_dir:
            cfg = config_from_dict(
                dict(TRANSIENT_LARGE, transient_seed=seed, out_dir=out_dir)
            )
            rows = run_depth_study(cfg, grid_sizes=SIZES)
        bad = []
        for comp in ("ux", "uy"):
            sub = [r for r in rows if r["component"] == comp]
            depths = [r["depth"] for r in sub]
            chis = " | ".join(r["chi_list"] for r in sub)
            print(f"seed {seed:2d} {comp}: depth {depths}  chis {chis}", flush=True)
            if any(a >= b for a, b in zip(depths, depths[1:])):
                bad.append(comp)
        if bad:
            falling.append(f"{seed} ({','.join(bad)})")
    print(f"depth not rising with N: {len(falling)} of {len(seeds)} seeds"
          + (f": {'; '.join(falling)}" if falling else ""))


if __name__ == "__main__":
    census([int(a) for a in sys.argv[1:]] or range(40))
