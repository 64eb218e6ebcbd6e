"""Shared fixtures.

The cavity ensembles and the fine-grid reference solve are expensive, so
everything heavyweight is session-scoped and funneled through one
FieldCache: the 64x64 ensemble is solved once and reused by the module
tests, the sweeps, the parameter study, and the acceptance suite.
"""

import sys

import numpy as np
import pytest

from podreadout import pod
from podreadout.config import ExperimentConfig
from podreadout.mps import search_bond_plan
from podreadout.pipeline import (
    FieldCache,
    problem_of,
    run_offline,
    run_param_study,
    run_shot_sweep,
)

CAVITY_RE = tuple(range(100, 1001, 100))
TARGET_RE = 950.0

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _progress(msg):
    print(f"\n[fixtures] {msg}", file=sys.stderr, flush=True)


@pytest.fixture(scope="session")
def cache(tmp_path_factory):
    return FieldCache(str(tmp_path_factory.mktemp("fields")))


def _cavity_config(case, out_dir, **overrides):
    base = dict(
        problem="cavity",
        nx=64,
        ny=64,
        case=case,
        reynolds=CAVITY_RE,
        target_reynolds=TARGET_RE,
        shot_grid=(1_000, 10_000, 100_000, 1_000_000),
        seeds=(0, 1, 2, 3, 4),
        out_dir=str(out_dir),
        chi_cap=16,
        solver_tol=1e-6,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="session")
def cavity_case1_config(tmp_path_factory):
    return _cavity_config("case1", tmp_path_factory.mktemp("cavity_case1"))


@pytest.fixture(scope="session")
def cavity_case2_config(tmp_path_factory):
    return _cavity_config("case2", tmp_path_factory.mktemp("cavity_case2"))


@pytest.fixture(scope="session")
def cavity_ensemble(cavity_case1_config, cache):
    _progress("solving the 64x64 cavity ensemble (10 Reynolds numbers)")
    ux, uy = problem_of(cavity_case1_config, cache).ensemble()
    return {"ux": ux, "uy": uy}


@pytest.fixture(scope="session")
def cavity_target(cavity_case1_config, cache):
    prob = problem_of(cavity_case1_config, cache)
    tx, ty = prob.pair(prob.target)
    return {"ux": tx, "uy": ty}


@pytest.fixture(scope="session")
def cavity_bases(cavity_ensemble):
    bases = {}
    for comp in ("ux", "uy"):
        s = pod.build_snapshot_matrix(cavity_ensemble[comp])
        bases[comp] = {"matrix": s, "basis": pod.pod_decompose(s)}
    return bases


@pytest.fixture(scope="session")
def offline_case1(cavity_case1_config, cache, cavity_ensemble):
    _progress("offline stage at case-1 thresholds")
    return run_offline(cavity_case1_config, problem_of(cavity_case1_config, cache))


@pytest.fixture(scope="session")
def offline_case2(cavity_case2_config, cache, cavity_ensemble):
    _progress("offline stage at case-2 thresholds")
    return run_offline(cavity_case2_config, problem_of(cavity_case2_config, cache))


@pytest.fixture(scope="session")
def sweep_case1(cavity_case1_config, cache, offline_case1):
    _progress("shot sweep at case-1 (3 methods x 4 budgets x 5 seeds x 2 components)")
    return run_shot_sweep(cavity_case1_config, offline_case1,
                          problem_of(cavity_case1_config, cache))


@pytest.fixture(scope="session")
def sweep_case2(cavity_case2_config, cache, offline_case2):
    _progress("shot sweep at case-2")
    return run_shot_sweep(cavity_case2_config, offline_case2,
                          problem_of(cavity_case2_config, cache))


@pytest.fixture(scope="session")
def param_rows(cavity_case1_config, cache, cavity_ensemble):
    _progress("Reynolds parameter study (adds the midpoint solves)")
    return run_param_study(cavity_case1_config, cache)


@pytest.fixture(scope="session")
def oracle_256(cache):
    _progress("fine-grid 256x256 reference solve (under a minute, ~560 MiB)")
    return cache.cavity(100.0, 256, 256, 1e-6, 400_000)


@pytest.fixture(scope="session")
def depth_rows(cavity_case2_config, cache, tmp_path_factory):
    _progress("depth study over grid sizes 32^2, 64^2, 128^2")
    from podreadout.pipeline import run_depth_study
    import dataclasses

    cfg = dataclasses.replace(
        cavity_case2_config,
        out_dir=str(tmp_path_factory.mktemp("depth")),
        grid_sizes=(1024, 4096, 16384),
    )
    return run_depth_study(cfg, cache)


def median_curve(rows, method, component):
    """Per-budget median epsilon from sweep rows."""
    budgets = sorted({r["n_shot_requested"] for r in rows})
    out = []
    for b in budgets:
        eps = [
            r["epsilon"]
            for r in rows
            if r["method"] == method and r["component"] == component
            and r["n_shot_requested"] == b
        ]
        out.append((b, float(np.median(eps))))
    return out
