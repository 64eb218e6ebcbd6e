#!/usr/bin/env python3
"""Store the cavity reference that checks.check_cavity_reference compares to.

    python3 perfbench/make_reference.py

Runs offline, sweep and visualize on the pinned 64x64 cavity config and
writes perfbench/reference.json: the manifest's plan and estimators, the
target's exact projection error per component and the target's centreline
profiles.  Run it only at a commit whose results are the accepted baseline.
"""

import json
import shutil
import sys

import checks
import run
import workloads


def main():
    workload = workloads.WORKLOADS["cavity-warm"]
    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out_dir = work / "out"
        cfg = workloads.generate(workload, 0, str(out_dir))
        config_path = work / "config.json"
        config_path.write_text(json.dumps(cfg) + "\n")
        for argv in workload.commands:
            cmd = run.run_podr(argv, work, config_path)
            if cmd.code:
                print(f"{' '.join(argv)} failed: {cmd.stderr}", file=sys.stderr)
                return 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        e_proj = {r["component"]: float(r["e_proj"]) for r in checks.podr_rows(out_dir)}
        ref = {
            "source_commit": run.git_commit(),
            "solver_tol": 1e-6,
            "config": {k: v for k, v in cfg.items() if k not in ("seeds", "out_dir")},
            "components": {
                comp: {
                    "n_b": e["n_b"], "chis": e["chis"], "e_proj_est": e["e_proj_est"],
                    "e_enc_est": e["e_enc_est"], "e_proj_target": e_proj[comp],
                }
                for comp, e in manifest["components"].items()
            },
            "centreline": checks.centrelines(out_dir / "visual"),
        }
        checks.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
