"""End-to-end orchestration: offline artifacts, shot sweeps and the two studies.

problem_of is the one place that looks at the problem kind: every stage
reads the Problem it returns (its distinct training labels, and the digests
of the bytes of ingested files it read), and Problem.targets(param)
prepares one readout.Target per component through pod.unit_vector, by
default of the held-out pair.  Cavity fields come through a FieldCache, by
default the config's own store (<out_dir>/fields), keyed on flow.py's bytes;
transient pairs are analytic.

component_basis builds and factors one component's snapshot matrix from the
problem's pairs, with its basis count; offline_component is the bond search
on one component's basis.  run_offline runs them in two passes.  Pass 1
takes one component at a time: it builds, factors and writes that basis and
frees it, so no SVD runs while the other component's snapshot data or basis
is in memory.  Pass 2 takes ux and then uy: it reads the basis back (the
bytes every later command reads), searches it and writes its approximants;
the manifest comes last.  run_depth_study repeats both stages across grid
sizes and run_param_study reads the same bases.  readouts is the one loop
over readout cells (component, method, budget, seed): the sweep, `podr
readout` and `podr visualize` all use it, ux's cells and then uy's.
Everything runs on the calling thread; no stage starts a thread.
harmonized_shots is the one rule that fits a shot budget to basis counts:
to a PODR cell's n_b in run_cell, to both components' in `podr visualize`.

Every CSV is written by write_csv from dict rows, the same rows the stages
return.  The output is deterministic for a given config: fixed row order,
17-significant-digit float formatting, randomness derived only from the
config's seeds and the cell coordinates.  No stage reads a clock yet, so
timing is not recorded.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import logging
import math
import os
from dataclasses import dataclass, replace
from typing import Callable
from pathlib import Path

import numpy as np

from . import circuit, flow, mps, pod, readout
from .config import (CASE_THRESHOLDS, METHODS, ExperimentConfig, config_hash, offline_hash,
                     validate_config)
from .errors import ConfigError, FieldError, NumericalError, SnapshotFormatError
from .io_util import atomic_write_text

log = logging.getLogger("podreadout")

COMPONENTS = ("ux", "uy")

SWEEP_HEADER = (
    "config_hash,method,component,N,n_shot_total,n_b,seed,epsilon,"
    "e_proj,e_enc,e_sam_bound,kept_modes"
)
MEDIAN_HEADER = "config_hash,method,component,n_shot_total,median_epsilon"
PARAM_HEADER = (
    "config_hash,component,parameter,in_ensemble,n_b_case1,e_proj_case1,"
    "n_b_case2,e_proj_case2"
)
DEPTH_HEADER = "N,component,n_b,chi_list,two_qubit_gates,depth"


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return fmt(value)
    return "" if value is None else str(value)


def write_csv(path, header: str, rows) -> None:
    """header, then one line per dict row holding the header's columns: floats
    through fmt, bools as 0/1, None as an empty cell, anything else as str."""
    cols = header.split(",")
    lines = [",".join(_csv_cell(row[c]) for c in cols) for row in rows]
    atomic_write_text(path, "\n".join([header, *lines]) + "\n")


@functools.cache
def _solver_digest() -> str:
    """sha256 of flow.py's bytes: an edited solver never meets old states."""
    return hashlib.sha256(Path(flow.__file__).read_bytes()).hexdigest()


def cavity_field_key(re, nx, ny, tol, max_iters) -> str:
    """Store key of one cavity solve: a digest of the stored layout (psi, then
    omega) and of everything that decides the solve.

    The BLAS thread count is not in it, though fields at 64x64 and finer
    depend on it in the last bits: a stored field is byte-reproducible only
    at the thread count that wrote it (scripts/output_digests.py pins 1).
    """
    doc = ["cavity", "psi,omega", float(re), int(nx), int(ny), float(tol), int(max_iters),
           _solver_digest()]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _load_stored_state(path, nx, ny):
    """The stored (psi, omega) grids, or None when they must be solved (again)."""
    try:
        fields, _ = flow.read_snapshot_file(path)
    except FileNotFoundError:
        return None
    except (OSError, SnapshotFormatError) as exc:  # each names the file
        log.warning("unreadable field store file (%s); solving again", exc)
        return None
    grids = [(f.nx, f.ny) for f in fields]
    if grids != [(nx, ny)] * 2:
        log.warning(
            "field store file %s holds grids %s, expected two %dx%d; solving again",
            path, grids, nx, ny,
        )
        return None
    return fields[0].grid(), fields[1].grid()


class FieldCache:
    """The cavity field store: one .pods file (psi, then omega) per steady
    solve in store_dir, ladder points included, named by cavity_field_key.

    A missing or damaged solve starts from its ladder point's state, loaded
    or solved first, and is written.  Velocities are derived from psi as the
    solver derives them, so loaded and solved ones are bit-identical.
    Transient pairs are analytic and cost less to compute than to keep."""

    def __init__(self, store_dir):
        self.store_dir = store_dir

    def state(self, re, nx, ny, tol, max_iters):
        """The (psi, omega) grids of one steady solve."""
        path = os.path.join(self.store_dir,
                            cavity_field_key(re, nx, ny, tol, max_iters) + ".pods")
        state = _load_stored_state(path, nx, ny)
        if state is not None:
            log.info("cavity Re=%g on %dx%d loaded from store", re, nx, ny)
            return state
        below = flow.ladder_below(re)
        start = None if below is None else self.state(below, nx, ny, tol, max_iters)
        run = flow.solve_cavity_run(re, nx, ny, tol=tol, max_iters=max_iters, start=start)
        log.info("cavity Re=%g on %dx%d solved in %d iterations, final residual %.3e",
                 re, nx, ny, run.iterations, run.residuals[-1])
        os.makedirs(self.store_dir, exist_ok=True)
        flow.write_snapshot_file(map(flow.Field2D.from_grid, (run.psi, run.omega)), path)
        return run.psi, run.omega

    def cavity(self, re, nx, ny, tol, max_iters):
        """The (u_x, u_y) fields of one steady solve."""
        psi, _ = self.state(re, nx, ny, tol, max_iters)
        return flow.cavity_velocities(psi)


@dataclass(frozen=True)
class Problem:
    """The fields of one config's problem, whatever its kind.

    labels are the training parameters and target the held-out one; pair maps
    a parameter to its (u_x, u_y).  axis is the param-study sweep, or None
    when the snapshots have no parameter axis and exist at one grid only.
    digests holds the content digests of ingested snapshot files, else None.
    """

    labels: tuple
    target: object
    pair: Callable
    axis: tuple | None
    digests: dict | None = None

    def ensemble(self):
        """Training u_x fields and u_y fields, in label order."""
        pairs = [self.pair(p) for p in self.labels]
        return [p[0] for p in pairs], [p[1] for p in pairs]

    def targets(self, param=None) -> dict:
        """{"ux": ..., "uy": ...} readout.Target of param's pair's unit vectors,
        by default the held-out target's."""
        pair = self.pair(self.target if param is None else param)
        return {comp: readout.Target(pod.unit_vector(f, f"target {comp}"))
                for comp, f in zip(COMPONENTS, pair)}


def problem_of(cfg: ExperimentConfig, cache: FieldCache | None = None,
               no_axis_error: str | None = None) -> Problem:
    """The Problem a config describes; ingested snapshot files are read here.
    Cavity fields come from cache, by default the config's own <out_dir>/fields.

    no_axis_error, given by a study that needs a parameter axis, is the
    ConfigError a problem without one (ingested snapshots) raises before any
    file is read.
    """
    if cfg.problem == "ingested":
        if no_axis_error is not None:
            raise ConfigError(no_axis_error)
        (ux_all, ux_sha), (uy_all, uy_sha) = map(flow.read_snapshot_file,
                                                 (cfg.snapshot_ux, cfg.snapshot_uy))
        for path, fields in ((cfg.snapshot_ux, ux_all), (cfg.snapshot_uy, uy_all)):
            if (fields[0].nx, fields[0].ny) != (cfg.nx, cfg.ny):
                raise ConfigError(
                    f"{path} holds {fields[0].nx}x{fields[0].ny} snapshots, "
                    f"but the config grid is {cfg.nx}x{cfg.ny}"
                )
        if len(ux_all) != len(uy_all):
            raise ConfigError(
                f"ingested components disagree: {len(ux_all)} vs {len(uy_all)} snapshots"
            )
        if cfg.target_index >= len(ux_all):
            raise ConfigError(
                f"target_index {cfg.target_index} outside the {len(ux_all)} snapshots"
            )
        labels = tuple(k for k in range(len(ux_all)) if k != cfg.target_index)
        if not labels:
            raise ConfigError(
                f"the ingested files hold {len(ux_all)} snapshot, the target "
                f"(target_index {cfg.target_index}): none is left to train on"
            )
        return Problem(labels, cfg.target_index, lambda k: (ux_all[k], uy_all[k]), None,
                       {"ux": ux_sha, "uy": uy_sha})
    if cfg.problem == "cavity":
        if cache is None:
            cache = FieldCache(os.path.join(cfg.out_dir, "fields"))

        def pair(re):
            return cache.cavity(re, cfg.nx, cfg.ny, cfg.solver_tol, cfg.max_iters)
        labels, target = tuple(cfg.reynolds), cfg.target_reynolds
        # each Re and the midpoints to its neighbours, in the solver's range
        res = sorted(cfg.reynolds)
        half = min((b - a for a, b in zip(res, res[1:])), default=res[0]) / 2.0
        low, high = flow.REYNOLDS_RANGE
        axis = tuple(dict.fromkeys(
            v for re in res for v in (re - half, re, re + half) if low <= v <= high))
    else:
        def pair(step):
            return flow.transient_pair(step, cfg.period, cfg.nx, cfg.ny, cfg.transient_seed)
        first, last = cfg.window
        labels, target = tuple(range(first, last + 1)), cfg.target_step
        axis = tuple(range(first, last + cfg.period + 1))
    if cfg.param_sweep is not None:
        axis = cfg.param_sweep
    return Problem(labels, target, pair, axis)


def component_basis(prob: Problem, comp: str, proj_thr: float | None = None):
    """comp's POD basis of prob's training ensemble: n_b = m, or the smallest
    n_b whose projection estimator clears proj_thr.

    Each pair is made again and only comp's field kept; the fields go once
    the snapshot matrix exists and the matrix once it is factored, so only
    the basis outlives this call.
    """
    k = COMPONENTS.index(comp)
    try:
        mat = pod.build_snapshot_matrix([prob.pair(p)[k] for p in prob.labels])
    except FieldError as exc:
        raise FieldError(f"component {comp}: {exc}") from exc
    basis = pod.pod_decompose(mat)
    if proj_thr is None:
        return basis
    return basis.with_nb(pod.select_nb(basis.sigma, basis.m, proj_thr))


@dataclass
class OfflineComponent:
    basis: pod.PodBasisSet
    plan: mps.BondPlan
    approximants: list

    @property
    def e_proj_est(self) -> float:
        """The projection estimator at the basis's own n_b."""
        return pod.proj_error_estimator(self.basis.sigma, self.basis.m, self.basis.n_b)


def offline_component(basis, enc_thr, chi_cap) -> OfflineComponent:
    """The bond search of one velocity component's basis, at its n_b: the
    plan that brings the encoding estimator under enc_thr with every bond at
    most chi_cap."""
    plan, approximants = mps.search_bond_plan(basis, enc_thr, chi_cap)
    return OfflineComponent(basis, plan, approximants)


@dataclass
class OfflineResult:
    components: dict
    reused: bool


def _component_files(comp: str, n_b: int) -> list:
    """Artifact names of one component: its basis, then its n_b approximants
    (n_b 0: the basis alone)."""
    return [f"{comp}_basis.podb", *(f"{comp}_mps_{i:02d}.podm" for i in range(n_b))]


def _try_reuse(cfg, digests, manifest_path):
    """The OfflineResult manifest_path records, or None when the artifacts must
    be rebuilt: the manifest is missing or malformed (logged), it was written
    for other offline inputs (offline_hash of cfg and the snapshot files'
    digests), or a listed file is missing, unparsable (a basis of the older
    layout, which also held V and all m columns of U, among them) or
    changed.  Each file is read once: it is loaded, and the sha256 of the
    bytes loaded is compared with the manifest's."""
    try:
        manifest = json.loads(Path(manifest_path).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    components = {}
    try:
        if manifest.get("offline_hash") != offline_hash(cfg, digests):
            return None
        for comp in COMPONENTS:
            e = manifest["components"][comp]
            names = _component_files(comp, e["n_b"])
            plan = mps.BondPlan(tuple(e["chis"]), float(e["e_enc_est"]))
            loaded = []
            for name in names:
                load = pod.load_basis if name.endswith(".podb") else mps.load_mps
                try:
                    obj, digest = load(os.path.join(cfg.out_dir, name))
                except (FileNotFoundError, SnapshotFormatError):  # rebuilt like a changed file
                    return None
                if digest != e["files"].get(name):
                    return None
                loaded.append(obj)
            components[comp] = OfflineComponent(loaded[0], plan, loaded[1:])
    except (AttributeError, KeyError, TypeError, ValueError, FieldError) as exc:
        log.warning("malformed manifest %s (%s: %s); rebuilding",
                    manifest_path, type(exc).__name__, exc)
        return None
    return OfflineResult(components=components, reused=True)


def run_offline(cfg: ExperimentConfig, prob: Problem | None = None) -> OfflineResult:
    """Build (or reload) both components' bases and approximants of prob (problem_of(cfg)).

    Artifacts land in cfg.out_dir together with manifest.json recording the
    selected basis counts, bond plans, estimator values and the sha256 of
    each file's bytes as written.  A rerun whose offline hash and file hashes
    match loads everything back instead of recomputing.

    Pass 1 writes each component's basis in turn; pass 2 reads each back,
    searches it and writes its approximants, ux and then uy.  A failed
    search raises after both bases and the approximants of the components
    before it are written, and before the manifest.
    """
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    prob = problem_of(cfg) if prob is None else prob
    reused = _try_reuse(cfg, prob.digests, manifest_path)
    if reused is not None:
        log.info("offline artifacts reused from %s", out_dir)
        return reused

    manifest = {
        "offline_hash": offline_hash(cfg, prob.digests),
        "case": cfg.case,
        "thresholds": list(cfg.thresholds),
        "components": {},
    }
    if prob.digests is not None:
        manifest["snapshot_sha256"] = prob.digests
    proj_thr, enc_thr = cfg.thresholds
    basis_files = {comp: _component_files(comp, 0)[0] for comp in COMPONENTS}
    written = {}  # file name -> sha256 of the bytes written
    for comp, name in basis_files.items():  # pass 1, one component at a time
        written[name] = pod.save_basis(component_basis(prob, comp, proj_thr),
                                       os.path.join(out_dir, name))
    components = {}
    for comp in COMPONENTS:  # pass 2: each basis as later commands read it
        basis, _ = pod.load_basis(os.path.join(out_dir, basis_files[comp]))
        try:
            art = offline_component(basis, enc_thr, cfg.chi_cap)
        except NumericalError as exc:
            raise NumericalError(f"offline stage, component {comp}: {exc}") from exc
        components[comp] = art
        names = _component_files(comp, art.basis.n_b)
        for name, m in zip(names[1:], art.approximants):
            written[name] = mps.save_mps(m, os.path.join(out_dir, name))
        manifest["components"][comp] = {
            "n_b": art.basis.n_b,
            "chis": list(art.plan.chis),
            "e_proj_est": art.e_proj_est,
            "e_enc_est": art.plan.estimated_error,
            "files": {name: written[name] for name in names},
        }
    atomic_write_text(
        manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return OfflineResult(components=components, reused=False)


def _cell_seed(seed: int, comp_idx: int, method_idx: int, n_shot: int) -> int:
    ss = np.random.SeedSequence([int(seed), comp_idx, method_idx, int(n_shot)])
    return int(ss.generate_state(1)[0])


def harmonized_shots(requested: int, n_bs) -> int:
    """Largest shared budget <= requested divisible by every basis count, or
    their least common multiple when requested is below it."""
    l = math.lcm(*map(int, n_bs))
    return max((requested // l) * l, l)


def run_cell(cfg, offline, target, comp, method, n_shot, seed):
    """One readout of component comp's target, a readout.Target."""
    cell = _cell_seed(seed, COMPONENTS.index(comp), METHODS.index(method), n_shot)
    art = offline.components[comp]
    if method == "PODR":
        return readout.podr_readout(target, art.basis, art.approximants,
                                    harmonized_shots(n_shot, [art.basis.n_b]), cell,
                                    beta=cfg.beta)
    if method == "RSR":
        return readout.rsr_readout(target, n_shot, cell, sign_oracle=cfg.sign_oracle)
    return readout.fsr_readout(target, n_shot, cfg.fsr_cutoff, cell)


def readouts(cfg, offline, targets, budgets, seeds, keep):
    """Yield keep(comp, method, n_shot, seed, report) for every readout cell:
    per component, ux's and then uy's, product(cfg.methods, budgets, seeds).

    Each cell runs after its "PODR budget ... rounded" line; a failed cell
    raises in its place.  Each component pops its readout.Target from
    targets and drops it before the next component starts, and only keep's
    value of each report is yielded, so a report's 2^n-entry arrays outlive
    its cell only if keep holds them.
    """
    cells = list(itertools.product(cfg.methods, budgets, seeds))
    for comp in COMPONENTS:
        target = targets.pop(comp)
        n_b = offline.components[comp].basis.n_b
        for method, n_shot, seed in cells:
            shots = harmonized_shots(n_shot, [n_b]) if method == "PODR" else n_shot
            if shots != n_shot:
                log.info("PODR budget %d rounded to %d, a multiple of n_b=%d (%s)",
                         n_shot, shots, n_b, comp)
            yield keep(comp, method, n_shot, seed,
                       run_cell(cfg, offline, target, comp, method, n_shot, seed))


def _median(values) -> float:
    """np.median of values, without the numpy.ma import np.median makes."""
    v = sorted(values)
    mid = len(v) // 2
    return float(v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2)


def run_shot_sweep(cfg: ExperimentConfig, offline: OfflineResult,
                   prob: Problem | None = None):
    """Full factorial (method x shot budget x seed x component) readout sweep.

    Reads prob's targets (default problem_of(cfg)'s), writes sweep.csv (one row
    per cell) and sweep_medians.csv (per-method median curves) into cfg.out_dir;
    returns the sweep rows as dicts of scalars.
    """
    targets = (problem_of(cfg) if prob is None else prob).targets()
    h = config_hash(cfg)

    def row(comp, method, n_shot, seed, rep):
        return {
            "config_hash": h, "method": method, "component": comp, "N": cfg.grid_points,
            "n_shot_requested": n_shot, "n_shot_total": rep.n_shot_total,
            "n_b": rep.n_b or 0, "seed": seed, "epsilon": rep.epsilon, "e_proj": rep.e_proj,
            "e_enc": rep.e_enc, "e_sam_bound": rep.e_sam_bound, "kept_modes": rep.kept_modes,
        }

    rows = list(readouts(cfg, offline, targets, cfg.shot_grid, cfg.seeds, row))
    eps = {}
    for r in rows:
        eps.setdefault((r["component"], r["method"], r["n_shot_requested"]), []).append(
            r["epsilon"])
    medians = [
        {"config_hash": h, "method": method, "component": comp, "n_shot_total": n_shot,
         "median_epsilon": _median(eps[comp, method, n_shot])}
        for comp in COMPONENTS for method in cfg.methods for n_shot in cfg.shot_grid
    ]
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_csv(os.path.join(cfg.out_dir, "sweep.csv"), SWEEP_HEADER, rows)
    write_csv(os.path.join(cfg.out_dir, "sweep_medians.csv"), MEDIAN_HEADER, medians)
    return rows


def run_param_study(cfg: ExperimentConfig, cache: FieldCache | None = None):
    """Exact projection error across a parameter sweep at both case settings."""
    prob = problem_of(cfg, cache, no_axis_error=(
        "param-study needs a parameter axis; ingested snapshots have none"))
    bases = {comp: component_basis(prob, comp) for comp in COMPONENTS}
    h = config_hash(cfg)
    nbs = {
        comp: {case: pod.select_nb(basis.sigma, basis.m, thr[0])
               for case, thr in CASE_THRESHOLDS.items()}
        for comp, basis in bases.items()
    }
    rows = []
    for param in prob.axis:
        for comp, target in prob.targets(param).items():
            row = {"config_hash": h, "component": comp, "parameter": float(param),
                   "in_ensemble": param in prob.labels}
            for case, n_b in nbs[comp].items():
                row[f"n_b_{case}"] = n_b
                row[f"e_proj_{case}"] = pod.exact_projection_error(target.x, bases[comp], n_b)
            rows.append(row)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_csv(os.path.join(cfg.out_dir, "param_study.csv"), PARAM_HEADER, rows)
    return rows


def _depth_study_sides(sizes):
    """Grid side of each total size, a square; validate_config checks each grid."""
    if not sizes:
        raise ConfigError("depth-study needs at least one grid size, got none")
    sides = [math.isqrt(size) if isinstance(size, int) and size > 0 else 0 for size in sizes]
    for size, side in zip(sizes, sides):
        if side * side != size:
            raise ConfigError(f"grid size {size} is not a square number")
    return sides


def run_depth_study(cfg: ExperimentConfig, cache: FieldCache | None = None,
                    grid_sizes=None):
    """Circuit cost of the offline stage across grid sizes, at case-2 thresholds.

    For each total size N in grid_sizes (default cfg.grid_sizes) the ensemble
    is rebuilt on a sqrt(N) x sqrt(N) grid and each component run through
    component_basis and offline_component.
    Each row reports the costliest of the n_b approximants, the per-shot
    state-preparation upper bound; that is normally the n_b-th basis, though
    on coarse grids the greedy plan can leave the last basis cheaper than an
    earlier one.  Writes depth_study.csv into cfg.out_dir.
    """
    problem_of(cfg, cache, no_axis_error=(
        "depth-study re-solves the ensemble on each grid size; "
        "ingested snapshots exist at one grid only"))
    sizes = tuple(grid_sizes) if grid_sizes is not None else cfg.grid_sizes
    # each grid's config is checked (side, chi_cap, repeated sizes) before any solve
    grids = [validate_config(replace(cfg, nx=side, ny=side, grid_sizes=sizes))
             for side in _depth_study_sides(sizes)]
    proj_thr, enc_thr = CASE_THRESHOLDS["case2"]
    rows = []
    for size, grid in zip(sizes, grids):
        try:
            prob = problem_of(grid, cache)
            for comp in COMPONENTS:
                art = offline_component(component_basis(prob, comp, proj_thr), enc_thr,
                                        cfg.chi_cap)
                cost = max((circuit.circuit_cost(m) for m in art.approximants),
                           key=lambda c: c.depth)
                rows.append({
                    "N": size, "component": comp, "n_b": art.basis.n_b,
                    "chi_list": ";".join(str(c) for c in art.plan.chis),
                    "two_qubit_gates": cost.two_qubit_gate_count, "depth": cost.depth,
                })
        except NumericalError as exc:
            raise NumericalError(f"grid size {size}: {exc}") from exc
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_csv(os.path.join(cfg.out_dir, "depth_study.csv"), DEPTH_HEADER, rows)
    return rows
