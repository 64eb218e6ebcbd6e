#!/usr/bin/env python3
"""podreadout benchmark: the real ``podr`` CLI driven as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's podr commands one after another, each in a
fresh child process (``perfbench/child.py`` -> ``podreadout.cli.main``), so
import, cold caches and peak memory count once per command.  The sequence
repeats until ``--seconds`` have passed (at least once).  Set-up writes the
seeded config, warms the interpreter with ``podr --help`` and, for a warm
workload, prebuilds the offline artifacts into an empty out dir; it is done
SETUP_REPEATS times and setup_s is the median.

``--trace 0`` prints the end-to-end metrics, medians over sequences: wall_s,
peak_rss_mb (of the sequence's largest command) and setup_s.  ``--trace 1``
alternates untraced sequences with sequences whose layer functions are all
wrapped (see tracer.py), and prints the per-layer metrics (medians over the
traced sequences), the tracing overhead (median traced minus median untraced
wall_s), the per-command times (offline_s, sweep_s, visualize_s,
depth_study_s, over the untraced sequences) and the command and check
failure ratios.  A plain run prints its per-command times and failure ratios
on ``metric`` lines too.

The end-to-end times, the per-command times and the tracing overhead are
normalised to host speed; raw_wall_s and the layer times a traced run takes
from its spans are not.  On a shared host the same sequence takes a third
longer in one minute than in the next, and every statistic of a run of raw
times moves with it.  So fixed calibration loops (calibrate.py, nothing from
podreadout) are timed right before and after every command and set-up step,
in a helper process, and the step's time is divided by the mean of the two
slowdowns beside it (loop time over its reference time): the seconds the step
would take with the host at its reference speed.  A change to the program
moves the normalised time as much as the raw one, while the host's drift
mostly cancels.  Each workload names the loops that track its commands.
raw_wall_s (the sequence's measured time) and host_slowdown (the median
slowdown) are reported beside the normalised times.

The last stdout line is one JSON object: correct, attempted (commands run),
failed (commands exiting non-zero) and metrics.  The lines before it give
the environment record, each check and every metric with its sample count.
Per-run records, and the spans of a run's first traced sequence, go to
.perfbench_out/results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
SETUP_REPEATS = 3
CALIBRATION_REPEATS = 5
COMMAND_LIMIT_S = 150  # a hung command is killed and counts as failed
COMMAND_METRICS = {"offline": "offline_s", "sweep": "sweep_s",
                   "visualize": "visualize_s", "depth-study": "depth_study_s"}


@dataclass
class Command:
    argv: tuple
    seconds: float
    rss_mib: float
    code: int
    stderr: str = ""
    norm_s: float = 0.0   # seconds at the reference host speed


@dataclass
class Sequence:
    commands: list
    checks: list = field(default_factory=list)

    @property
    def wall_s(self):
        return sum(c.norm_s for c in self.commands)

    @property
    def raw_wall_s(self):
        return sum(c.seconds for c in self.commands)

    def seconds(self, name):
        return sum(c.norm_s for c in self.commands if c.argv[0] == name)


class HostClock:
    """calibrate.py in a process of its own, timing the given loops on request."""

    def __init__(self, loops):
        self.samples = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), ",".join(loops)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True)

    def slowdown(self):
        """How much slower than its reference the host runs just now."""
        self.proc.stdin.write(f"{CALIBRATION_REPEATS}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibrate.py exited with {self.proc.wait()}")
        self.samples.append(float(line))
        return self.samples[-1]

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the helper already died; wait() reaps it
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def normalise(seconds, before, after):
    return seconds / ((before + after) / 2)


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_podr(argv, work, config_path=None, spans_path=None):
    """One child process; wall time from spawn to reaped exit, peak RSS from wait4."""
    cmd = [sys.executable, str(HERE / "child.py")]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    cmd.append("--")
    if config_path is not None:
        cmd += ["--config", str(config_path)]
    cmd += list(argv)
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(tuple(argv), seconds, usage.ru_maxrss / 1024.0, proc.returncode,
                   err_path.read_text(errors="replace")[-2000:])


def run_sequence(workload, config_path, out_dir, work, clock, trace_dir=None):
    """Run the workload's commands, each between two readings of ``clock``."""
    if workload.cold:
        shutil.rmtree(out_dir, ignore_errors=True)
    done = []
    before = clock.slowdown()
    for k, argv in enumerate(workload.commands):
        spans = trace_dir / f"cmd{k}.json" if trace_dir is not None else None
        cmd = run_podr(argv, work, config_path, spans)
        after = clock.slowdown()
        cmd.norm_s = normalise(cmd.seconds, before, after)
        done.append(cmd)
        before = after
    return Sequence(done)


def load_spans(trace_dir, n_commands):
    spans = []
    for k in range(n_commands):
        path = trace_dir / f"cmd{k}.json"
        if path.exists():
            spans.extend(dict(s, trace=k) for s in json.loads(path.read_text()))
    return spans


def cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return sizes


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(cfg, workload):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    grids = [f"{cfg['nx']}x{cfg['ny']}"]
    for argv in workload.commands:
        if argv[0] == "depth-study":
            grids += [f"N={n}" for n in argv[argv.index("--sizes") + 1].split(",")]
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "caches": cache_sizes(),
        "grids": grids,
    }


def end_to_end(sequences, setup_s):
    return {
        "wall_s": (statistics.median([s.wall_s for s in sequences]), "s"),
        "peak_rss_mb": (
            statistics.median([max(c.rss_mib for c in s.commands) for s in sequences]), "MiB"),
        "setup_s": (setup_s, "s"),
    }


def command_level(timed, names, all_checks, attempted, failed):
    """Per-command times and the failure ratios.

    Commands of a few seconds or less spread by 10-20% (interquartile range
    over ten runs on a shared 2-core machine), more than a bound can allow,
    so they are reported but not bounded; the bounded wall_s sums them.
    """
    out = {COMMAND_METRICS[name]: (statistics.median([s.seconds(name) for s in timed]), "s")
           for name in names}
    bad_checks = sum(not ok for _, ok, _ in all_checks)
    out["cmd_failed_ratio"] = (failed / attempted, "ratio")
    out["check_failed_ratio"] = (bad_checks / len(all_checks), "ratio")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "podreadout" / "cli.py").is_file():
        print(f"error: no podreadout sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work = OUT / "work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with HostClock(workload.calibration) as clock:
            return measure(args, workload, work, results_dir, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, work, results_dir, clock):
    out_dir = work / "out"
    config_path = work / "config.json"

    setup_times = []
    attempted = failed = 0
    for _ in range(SETUP_REPEATS):
        before = clock.slowdown()
        t0 = time.perf_counter()
        cfg = workloads.generate(workload, args.seed, str(out_dir))
        config_path.write_text(json.dumps(cfg, indent=1) + "\n")
        warm = run_podr(("--help",), work)
        if warm.code != 0:
            raise RuntimeError(f"podr --help failed: {warm.stderr}")
        if workload.prebuild:
            shutil.rmtree(out_dir, ignore_errors=True)
            pre = run_podr(("offline",), work, config_path)
            attempted += 1
            failed += int(pre.code != 0)
        seconds = time.perf_counter() - t0
        setup_times.append(normalise(seconds, before, clock.slowdown()))
    setup_s = statistics.median(setup_times)

    store = OUT / "sweep_digests.json"
    depth_study = any(argv[0] == "depth-study" for argv in workload.commands)

    def checked(seq):
        seq.checks = checks.run_checks(str(out_dir), cfg, str(store), depth_study)
        return seq

    # a traced run alternates untraced and traced sequences, one span dir each
    plain, traced, trace_dirs = [], [], []
    t_start = time.perf_counter()
    while not plain or time.perf_counter() - t_start < args.seconds:
        plain.append(checked(run_sequence(workload, config_path, out_dir, work, clock)))
        if args.trace:
            trace_dirs.append(work / f"spans{len(trace_dirs)}")
            trace_dirs[-1].mkdir()
            traced.append(checked(run_sequence(workload, config_path, out_dir, work,
                                               clock, trace_dirs[-1])))
    sequences = plain + traced

    attempted += sum(len(s.commands) for s in sequences)
    failed += sum(c.code != 0 for s in sequences for c in s.commands)
    all_checks = [c for s in sequences for c in s.checks]
    correct = failed == 0 and all(ok for _, ok, _ in all_checks)
    env = environment(cfg, workload)
    names = list(COMMAND_METRICS)
    if not args.trace:
        names = [name for name in names if any(a[0] == name for a in workload.commands)]
    # commands are timed on untraced sequences only
    cmd_level = command_level(plain, names, all_checks, attempted, failed)
    cmd_level["raw_wall_s"] = (statistics.median([s.raw_wall_s for s in plain]), "s")
    cmd_level["host_slowdown"] = (statistics.median(clock.samples), "ratio")
    n = len(plain)
    if args.trace:
        # counts repeat exactly across traced sequences; median_low keeps them whole
        per_seq = [layers.layer_metrics(load_spans(d, len(workload.commands)))
                   for d in trace_dirs]
        spans = load_spans(trace_dirs[0], len(workload.commands))  # kept with the record
        metrics = {name: (statistics.median_low([m[name][0] for m in per_seq]), unit)
                   for name, (_, unit) in per_seq[0].items()}
        wall_plain = statistics.median([s.wall_s for s in plain])
        overhead = statistics.median([s.wall_s for s in traced]) - wall_plain
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_ratio"] = (overhead / wall_plain, "ratio")
        metrics["trace.spans"] = (len(spans), "count")
        metrics.update(cmd_level)
        cmd_level = {}
    else:
        metrics = end_to_end(plain, setup_s)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{int(time.time())}"
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env, "config": cfg,
        "setup_s": {"median": setup_s, "samples": setup_times},
        "calibration": {"loops": workload.calibration, "slowdowns": clock.samples},
        "sequences": [
            {"wall_s": s.wall_s, "raw_wall_s": s.raw_wall_s,
             "commands": [{"argv": c.argv, "seconds": c.seconds, "norm_s": c.norm_s,
                           "rss_mib": c.rss_mib, "code": c.code,
                           "stderr": c.stderr if c.code else ""}
                          for c in s.commands],
             "checks": s.checks}
            for s in sequences
        ],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in {**metrics, **cmd_level}.items()},
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for name, ok, detail in all_checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for s in sequences:
        for c in s.commands:
            if c.code:
                print(f"command {' '.join(c.argv)} exited {c.code}: {c.stderr.strip()}")
    for name, (value, unit) in {**metrics, **cmd_level}.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
