"""The podr commands: load the config, run the lab, print one summary.

cli.main imports this module once the arguments parse, so numpy and the lab
load only for a command that runs.  run(args) returns the exit code; the
errors it raises are mapped to exit codes by cli.main.
"""

from __future__ import annotations

import dataclasses
import logging
import os

from . import flow, pipeline, visualize
from .config import ConfigError, load_config, validate_config

log = logging.getLogger("podreadout")


def _load(args):
    if not args.config:
        raise ConfigError("this command needs --config")
    cfg = load_config(args.config)
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    return validate_config(dataclasses.replace(cfg, **overrides))


def _check_shots(shots):
    if shots < 1:
        raise ConfigError(f"--shots must be a positive integer, got {shots}")
    return shots


def _cmd_solve(cfg, args):
    prob = pipeline.problem_of(cfg)
    ux, uy = prob.ensemble()
    tx, ty = prob.pair(prob.target)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, fields in (
        ("ensemble_ux", ux), ("ensemble_uy", uy), ("target_ux", [tx]), ("target_uy", [ty]),
    ):
        flow.write_snapshot_file(fields, os.path.join(cfg.out_dir, f"{name}.pods"))
    print(f"wrote {len(ux)} ensemble snapshots per component "
          f"(labels {prob.labels[0]}..{prob.labels[-1]}) and the target to {cfg.out_dir}")
    return 0


def _cmd_offline(cfg, args):
    result = pipeline.run_offline(cfg)
    for comp, art in result.components.items():
        print(
            f"{comp}: n_b={art.basis.n_b} chis={list(art.plan.chis)} "
            f"e_proj_est={art.e_proj_est:.3e} e_enc_est={art.plan.estimated_error:.3e}"
            + (" (reused)" if result.reused else "")
        )
    return 0


def _cmd_readout(cfg, args):
    shots = _check_shots(args.shots) if args.shots is not None else cfg.shot_grid[0]
    prob = pipeline.problem_of(cfg)
    offline = pipeline.run_offline(cfg, prob)

    def line(comp, method, n_shot, seed, rep):
        label = visualize.METHOD_LABELS.get(method, method)
        return f"{label:16s} {comp}: epsilon={rep.epsilon:.4e} (shots={rep.n_shot_total})"

    for text in pipeline.readouts(cfg, offline, prob.targets(), (shots,), cfg.seeds[:1], line):
        print(text)
    return 0


def _cmd_sweep(cfg, args):
    prob = pipeline.problem_of(cfg)
    rows = pipeline.run_shot_sweep(cfg, pipeline.run_offline(cfg, prob), prob)
    print(f"{len(rows)} sweep cells -> {os.path.join(cfg.out_dir, 'sweep.csv')}")
    return 0


def _cmd_param_study(cfg, args):
    rows = pipeline.run_param_study(cfg)
    print(f"{len(rows)} rows -> {os.path.join(cfg.out_dir, 'param_study.csv')}")
    return 0


def _cmd_depth_study(cfg, args):
    sizes = None
    if args.sizes is not None:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError as exc:
            raise ConfigError(f"--sizes must be comma-separated integers: {exc}") from exc
    rows = pipeline.run_depth_study(cfg, grid_sizes=sizes)
    for r in rows:
        print(f"N={r['N']:>6} {r['component']}: n_b={r['n_b']} depth={r['depth']}")
    return 0


def _cmd_visualize(cfg, args):
    requested = _check_shots(args.shots)
    prob = pipeline.problem_of(cfg)
    offline = pipeline.run_offline(cfg, prob)
    shots = pipeline.harmonized_shots(
        requested, [art.basis.n_b for art in offline.components.values()]
    )
    if shots != requested:
        log.info("shared budget adjusted from %d to %d", requested, shots)
    targets = prob.targets()
    # only the vectors: readouts pops each Target and frees it after its cells
    truth = {comp: target.x for comp, target in targets.items()}
    reports = {}
    for comp, method, rep in pipeline.readouts(
            cfg, offline, targets, (shots,), cfg.seeds[:1],
            lambda comp, method, n_shot, seed, rep: (comp, method, rep)):
        reports.setdefault(method, {})[comp] = rep
    written = visualize.emit_visual_comparison(cfg, reports, truth)
    print(f"wrote {len(written)} panel files under {cfg.out_dir}")
    return 0


def _cmd_ingest(args):
    inputs = args.inputs
    if len(inputs) == 1 and inputs[0].endswith(".pods") and not args.to:
        fields, _ = flow.read_snapshot_file(inputs[0])
        print(f"{inputs[0]}: {len(fields)} snapshots on "
              f"{fields[0].nx}x{fields[0].ny}")
        return 0
    if not args.to:
        raise ConfigError("CSV ingestion needs --to OUTPUT.pods")
    fields = [flow.read_snapshot_csv(p) for p in inputs]
    flow.write_snapshot_file(fields, args.to)
    print(f"wrote {len(fields)} snapshots to {args.to}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "offline": _cmd_offline,
    "readout": _cmd_readout,
    "sweep": _cmd_sweep,
    "param-study": _cmd_param_study,
    "depth-study": _cmd_depth_study,
    "visualize": _cmd_visualize,
}


def run(args) -> int:
    """Run the parsed command and return its exit code."""
    if args.command == "ingest":
        return _cmd_ingest(args)
    return _COMMANDS[args.command](_load(args), args)
