"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  The heavyweight inputs (cavity ensembles, sweeps, the
depth study) come from session fixtures shared with the module tests.
"""

import dataclasses
import math
import os
import time

import numpy as np

from conftest import median_curve, record_acceptance
from podreadout.config import ExperimentConfig
from podreadout.flow import Field2D, transient_pair
from podreadout.mps import contract, tt_svd
from podreadout.pipeline import (
    run_offline,
    run_param_study,
    run_shot_sweep,
)
from podreadout.pod import (
    build_snapshot_matrix,
    exact_projection_error,
    pod_decompose,
    proj_error_estimator,
    unit_vector,
)
from podreadout.readout import Target, podr_readout
from podreadout.visualize import stream_function

from oracles import affine_fit_r2, error_budget_check, noise_free_podr
from test_mps import schmidt_truncation_fidelity


def report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    record_acceptance(line)
    assert ok, line


def loglog_slope(curve, floor=0.0, saturation=0.6):
    """Least-squares slope of log10(eps) vs log10(shots), pre-plateau points.

    Points at the saturation ceiling (epsilon near the unit-vector scale)
    and points within a factor 4 of the deterministic floor are excluded.
    """
    pts = [
        (math.log10(b), math.log10(e))
        for b, e in curve
        if e <= saturation and e >= 4.0 * floor
    ]
    xs, ys = zip(*pts)
    return float(np.polyfit(xs, ys, 1)[0]), len(pts)


def noise_free_floor(offline, comp, x):
    """PODR's noise-free epsilon and its floor sqrt(E_proj^2 + E_enc^2)."""
    art = offline.components[comp]
    epsilon, e_proj, e_enc = noise_free_podr(x, art.basis, art.approximants)
    return epsilon, math.sqrt(e_proj**2 + e_enc**2)


def test_criterion_01_estimator_exactness(cavity_bases):
    worst = 0.0
    elapsed = 0.0
    cases = [(cavity_bases["ux"]["matrix"], cavity_bases["ux"]["basis"])]
    rng = np.random.default_rng(0)
    fields = [Field2D(64, 64, rng.normal(size=4096)) for _ in range(10)]
    s_rand = build_snapshot_matrix(fields)
    cases.append((s_rand, pod_decompose(s_rand)))
    for s, basis in cases:
        t0 = time.perf_counter()
        for n_b in range(1, s.shape[1] + 1):
            est_sq = proj_error_estimator(basis.sigma, s.shape[1], n_b) ** 2
            mean_sq = np.mean(
                [exact_projection_error(s[:, j], basis, n_b) ** 2
                 for j in range(s.shape[1])]
            )
            worst = max(worst, abs(est_sq - mean_sq))
        elapsed += time.perf_counter() - t0
    report(
        1,
        "projection estimator equals mean training residual (1e-12)",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst={worst:.2e}",
    )


def test_criterion_02_sampling_error_scaling(sweep_case2, offline_case2, cavity_target):
    x = Target(unit_vector(cavity_target["ux"], "target ux"))
    _, floor = noise_free_floor(offline_case2, "ux", x)
    s_podr, k_podr = loglog_slope(
        median_curve(sweep_case2, "PODR", "ux"), floor=floor
    )
    s_rsr, k_rsr = loglog_slope(median_curve(sweep_case2, "RSR", "ux"))
    ok = abs(s_podr + 0.5) <= 0.1 and abs(s_rsr + 0.5) <= 0.1
    report(
        2,
        "PODR and RSR median epsilon scale as shots^-1/2",
        ok,
        f"slope_podr={s_podr:.3f} ({k_podr} pts), slope_rsr={s_rsr:.3f} ({k_rsr} pts)",
    )


def test_criterion_03_plateau(offline_case1, sweep_case2, offline_case2, cavity_target):
    x = Target(unit_vector(cavity_target["ux"], "target ux"))
    epsilon, floor = noise_free_floor(offline_case1, "ux", x)
    gap = abs(epsilon - floor)
    meds = [e for _, e in median_curve(sweep_case2, "PODR", "ux")]
    _, floor2 = noise_free_floor(offline_case2, "ux", x)
    monotone = all(a >= b for a, b in zip(meds, meds[1:]))
    above = all(m >= floor2 for m in meds)
    report(
        3,
        "noise-free epsilon hits the sqrt(E_proj^2 + E_enc^2) floor; medians descend to it",
        gap <= 1e-10 and monotone and above,
        f"gap={gap:.1e} medians={['%.2e' % m for m in meds]} floor={floor2:.2e}",
    )


def test_criterion_04_error_bound_coverage(offline_case1, cavity_target):
    art = offline_case1.components["ux"]
    x = Target(unit_vector(cavity_target["ux"], "target ux"))
    shots = (10**4 // art.basis.n_b) * art.basis.n_b
    hits2 = hits4 = 0
    trials = 200
    for seed in range(trials):
        rep = podr_readout(x, art.basis, art.approximants, shots, seed, beta=2.0)
        hits2 += error_budget_check(rep)
        hits4 += error_budget_check(rep, beta=4.0)
    ok = hits2 / trials >= 0.75 and hits4 / trials >= 0.93
    report(
        4,
        "epsilon within E_proj + E_enc + beta sqrt(n_b/shots) at Chebyshev rates",
        ok,
        f"beta=2: {hits2}/{trials}, beta=4: {hits4}/{trials}",
    )


def test_criterion_05_depth_scaling(depth_rows):
    details = []
    ok = True
    for comp in ("ux", "uy"):
        sub = [r for r in depth_rows if r["component"] == comp]
        r2 = affine_fit_r2([math.log2(r["N"]) for r in sub], [r["depth"] for r in sub])
        nbs = [r["n_b"] for r in sub]
        spread = max(nbs) - min(nbs)
        details.append(f"{comp}: R2={r2:.4f} n_b={nbs}")
        ok = ok and r2 >= 0.99 and spread <= 2
    report(5, "depth grows linearly in log2(N); n_b stable across sizes", ok,
           "; ".join(details))


def test_criterion_06_method_ordering(sweep_case1):
    meds = {
        m: dict(median_curve(sweep_case1, m, "ux"))[10**4]
        for m in ("PODR", "FSR", "RSR")
    }
    ok = meds["PODR"] < meds["FSR"] < meds["RSR"]
    report(
        6,
        "median epsilon ordering PODR < FSR(idealized) < RSR at 1e4 shots",
        ok,
        ", ".join(f"{m}={v:.3e}" for m, v in meds.items()),
    )


def test_criterion_07_tensor_train_correctness():
    rng = np.random.default_rng(2024)
    worst_rt = 0.0
    worst_fid = 0.0
    for _ in range(20):
        x = rng.normal(size=64)
        full = tt_svd(x, 8)
        worst_rt = max(
            worst_rt, float(np.linalg.norm(contract(full) - x / np.linalg.norm(x)))
        )
        trunc = tt_svd(x, 2)
        fid = abs(float((x / np.linalg.norm(x)) @ contract(trunc)))
        worst_fid = max(worst_fid, abs(fid - schmidt_truncation_fidelity(x, 2)))
    ok = worst_rt <= 1e-10 and worst_fid <= 1e-8
    report(
        7,
        "full-bond round trip (1e-10) and Schmidt-oracle fidelity match (1e-8)",
        ok,
        f"roundtrip={worst_rt:.1e} fidelity_gap={worst_fid:.1e}",
    )


def test_criterion_08_in_ensemble_dip(param_rows):
    # checked for both components at both case truncation levels; the most
    # favorable combination must reach 8 of 10 strict dips.  Known red on
    # this solver's ensembles: the singular tail at the case-selected n_b
    # masks the dip (it emerges only for n_b >= ~9 here), at 64^2 through
    # 256^2 alike; see the decisions ledger for the full analysis.
    counts = {}
    for comp in ("ux", "uy"):
        sub = sorted(
            (r for r in param_rows if r["component"] == comp),
            key=lambda r: float(r["parameter"]),
        )
        for col in ("e_proj_case1", "e_proj_case2"):
            wins = total = 0
            for i, r in enumerate(sub):
                if not r["in_ensemble"] or i == 0 or i + 1 >= len(sub):
                    continue
                total += 1
                wins += r[col] < sub[i - 1][col] and r[col] < sub[i + 1][col]
            counts[f"{comp}/{col[-5:]}"] = (wins, total)
    best = max(w for w, _ in counts.values())
    ok = all(t == 10 for _, t in counts.values()) and best >= 8
    report(
        8,
        "trained Reynolds numbers dip below both untrained neighbors (>= 8/10)",
        ok,
        ", ".join(f"{k}: {w}/{t}" for k, (w, t) in counts.items()),
    )


def test_criterion_09_stream_function_consistency():
    errs = []
    hs = []
    for n in (16, 32, 64, 128):
        ux, uy = transient_pair(3, 50, n, n, seed=11)
        psi = stream_function(ux).grid()
        dx = 1.0 / (n - 1)
        dpsi_dx = (psi[:, 2:] - psi[:, :-2]) / (2.0 * dx)
        errs.append(float(np.abs(dpsi_dx + uy.grid()[:, 1:-1]).max()))
        hs.append(dx)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    report(
        9,
        "max |d(psi)/dx + u_y| shrinks at order >= 1.8 under refinement",
        order >= 1.8,
        f"order={order:.2f} errors={['%.1e' % e for e in errs]}",
    )


def test_criterion_10_byte_determinism(tmp_path):
    cfg = ExperimentConfig(
        problem="transient", nx=32, ny=16, case="case1", window=(0, 15),
        period=8, target_step=20, chi_cap=8, out_dir=str(tmp_path / "run"),
        shot_grid=(1_000, 10_000), seeds=(0, 1),
    )
    artifacts = ("sweep.csv", "sweep_medians.csv", "param_study.csv", "manifest.json")

    def run(cfg):
        offline = run_offline(cfg)
        run_shot_sweep(cfg, offline)
        run_param_study(cfg)
        return {
            name: open(os.path.join(cfg.out_dir, name), "rb").read()
            for name in artifacts
        }

    first = run(cfg)
    second = run(cfg)  # same directory: offline artifacts get reused
    fresh = run(dataclasses.replace(cfg, out_dir=str(tmp_path / "fresh")))
    same_dir = all(first[n] == second[n] for n in artifacts)
    cross_dir = all(first[n] == fresh[n] for n in artifacts)
    report(
        10,
        "config reruns reproduce byte-identical CSV and manifest output",
        same_dir and cross_dir,
        f"same_dir={same_dir} cross_dir={cross_dir}",
    )
