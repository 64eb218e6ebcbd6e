"""Correctness checks on the files one command sequence left in its out dir.

Each check returns ``(name, ok, detail)``.  A check whose input is missing or
unreadable fails; it never raises.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path

# The acceptance thresholds of each case, (projection, encoding) estimators.
CASE_THRESHOLDS = {"case1": (5e-3, 5e-3), "case2": (1e-3, 1e-3)}

# The paper's sampling term is a Chebyshev-style bound: at beta=2 it holds for
# at least 3/4 of the readouts, not for every one (3 of 16000 PODR cells of the
# 64x64 cavity exceed it, by at most 9%).  Every row must clear it at twice
# beta; the config's beta must cover at least the Chebyshev share.
PER_ROW_BETA_FACTOR = 2.0
MIN_COVERAGE = 0.75

# Reference values, stored from the seed commit, are compared at a relative
# tolerance of this many solver tolerances (1% at solver_tol = 1e-6).
REFERENCE_RTOL_PER_SOLVER_TOL = 1e4

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _check(name):
    def deco(fn):
        def run(*args):
            try:
                ok, detail = fn(*args)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            return name, bool(ok), detail
        return run
    return deco


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def podr_rows(out_dir):
    return [r for r in read_rows(os.path.join(out_dir, "sweep.csv")) if r["method"] == "PODR"]


@_check("podr_budget_rows")
def check_budget_rows(out_dir, cfg):
    rows = podr_rows(out_dir)
    bad = [
        r for r in rows
        if float(r["epsilon"]) > float(r["e_proj"]) + float(r["e_enc"])
        + PER_ROW_BETA_FACTOR * float(r["e_sam_bound"])
    ]
    return rows and not bad, f"{len(bad)} of {len(rows)} PODR rows above the 2*beta budget"


@_check("podr_budget_coverage")
def check_budget_coverage(out_dir, cfg):
    rows = podr_rows(out_dir)
    hits = sum(
        float(r["epsilon"]) <= float(r["e_proj"]) + float(r["e_enc"]) + float(r["e_sam_bound"])
        for r in rows
    )
    ok = rows and hits >= MIN_COVERAGE * len(rows)
    return ok, f"{hits}/{len(rows)} within the beta budget"


@_check("manifest_thresholds")
def check_manifest_thresholds(out_dir, cfg):
    manifest = json.loads(Path(out_dir, "manifest.json").read_text())
    proj_thr, enc_thr = CASE_THRESHOLDS[cfg["case"]]
    comps = manifest["components"]
    bad = [
        c for c, e in comps.items()
        if not (e["e_proj_est"] <= proj_thr and e["e_enc_est"] <= enc_thr)
    ]
    return set(comps) == {"ux", "uy"} and not bad, f"over threshold: {bad or 'none'}"


def _close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


@_check("cavity_reference")
def check_cavity_reference(out_dir, cfg):
    """Manifest plan and estimators, target projection errors and, when the
    visual panels exist, the target's centrelines against the stored reference."""
    ref = json.loads(REFERENCE_PATH.read_text())
    rtol = REFERENCE_RTOL_PER_SOLVER_TOL * ref["solver_tol"]
    manifest = json.loads(Path(out_dir, "manifest.json").read_text())
    e_proj = {r["component"]: float(r["e_proj"]) for r in podr_rows(out_dir)}
    bad = []
    if ref["config"] != {k: v for k, v in cfg.items() if k not in ("seeds", "out_dir")}:
        bad.append("config differs from the one the reference was stored for")
    for comp, want in ref["components"].items():
        got = manifest["components"][comp]
        if got["n_b"] != want["n_b"] or got["chis"] != want["chis"]:
            bad.append(f"{comp} plan {got['n_b']}/{got['chis']}")
        for key in ("e_proj_est", "e_enc_est"):
            if not _close(got[key], want[key], rtol):
                bad.append(f"{comp} {key} {got[key]:.6g} vs {want[key]:.6g}")
        if not _close(e_proj[comp], want["e_proj_target"], rtol):
            bad.append(f"{comp} target e_proj {e_proj[comp]:.6g}")
    visual = Path(out_dir, "visual")
    if visual.is_dir():
        for comp, line in centrelines(visual).items():
            want = ref["centreline"][comp]
            scale = max(abs(v) for v in want)
            if len(line) != len(want) or any(
                    abs(a - b) > rtol * scale for a, b in zip(line, want)):
                bad.append(f"{comp} centreline")
    return not bad, "; ".join(bad) or f"matches at rtol {rtol:g}"


def centrelines(visual_dir):
    """u_x down the vertical and u_y along the horizontal centreline of the truth."""
    def grid(comp):
        with open(Path(visual_dir, f"truth_{comp}.csv"), newline="") as fh:
            return [[float(v) for v in row] for row in csv.reader(fh)]
    ux, uy = grid("ux"), grid("uy")
    return {
        "ux": [row[len(row) // 2] for row in ux],
        "uy": uy[len(uy) // 2],
    }


@_check("depth_scaling")
def check_depth(out_dir, cfg):
    rows = read_rows(os.path.join(out_dir, "depth_study.csv"))
    bad = []
    for comp in ("ux", "uy"):
        sub = sorted((r for r in rows if r["component"] == comp), key=lambda r: int(r["N"]))
        depths = [int(r["depth"]) for r in sub]
        if len(sub) < 2 or len({r["n_b"] for r in sub}) != 1 or any(
                a >= b for a, b in zip(depths, depths[1:])):
            bad.append(f"{comp} n_b={[r['n_b'] for r in sub]} depth={depths}")
    return not bad, "; ".join(bad) or "n_b constant, depth rising with log2 N"


def sweep_digest(out_dir):
    return hashlib.sha256(Path(out_dir, "sweep.csv").read_bytes()).hexdigest()


@_check("sweep_bytes_repeat")
def check_sweep_repeat(out_dir, cfg, store_path):
    """sweep.csv must repeat byte for byte for one config, across sequences and
    runs; the digest seen first for a config hash is kept in ``store_path``."""
    key = read_rows(os.path.join(out_dir, "sweep.csv"))[0]["config_hash"]
    digest = sweep_digest(out_dir)
    store = json.loads(Path(store_path).read_text()) if os.path.exists(store_path) else {}
    first = store.setdefault(key, digest)
    Path(store_path).write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return first == digest, f"config {key}: {digest[:12]} vs first {first[:12]}"


def run_checks(out_dir, cfg, store_path, depth_study):
    results = [
        check_budget_rows(out_dir, cfg),
        check_budget_coverage(out_dir, cfg),
        check_manifest_thresholds(out_dir, cfg),
        check_sweep_repeat(out_dir, cfg, store_path),
    ]
    if cfg["problem"] == "cavity":
        results.append(check_cavity_reference(out_dir, cfg))
    if depth_study:
        results.append(check_depth(out_dir, cfg))
    return results
