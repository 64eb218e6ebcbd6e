"""Tests of the benchmark itself: inputs, wrappers and count stability.

    python3 -m pytest perfbench/tests -q

The traced tests run shrunken copies of the workloads (16x16 cavity, 32x32
transient) through the same child-process machinery as the benchmark.
"""

import dataclasses
import inspect
import json

import pytest

import layers
import run
import tracer
import workloads

TINY_CAVITY = dict(
    workloads.CAVITY_CASE1, nx=16, ny=16, reynolds=[100, 200, 300, 400],
    target_reynolds=250, shot_grid=[1000, 10000],
)
TINY_TRANSIENT = dict(
    workloads.TRANSIENT_LARGE, nx=32, ny=32, window=[0, 9], shot_grid=[1000, 10000],
)
TINY = {
    # `solve` is the one command that writes snapshots through flow's binding
    "cavity": dataclasses.replace(
        workloads.WORKLOADS["cavity-warm"], base=TINY_CAVITY, cold=True, prebuild=False,
        commands=(("solve",), ("offline",), ("sweep",), ("visualize", "--shots", "1000"))),
    "transient": dataclasses.replace(
        workloads.WORKLOADS["transient-large"], base=TINY_TRANSIENT,
        commands=(("offline",), ("sweep",), ("depth-study", "--sizes", "256,1024"))),
}

# Names other modules import by value; each must be traced where it is bound.
BY_VALUE = [
    ("circuit", "pod.build_snapshot_matrix"), ("circuit", "pod.pod_decompose"),
    ("circuit", "pod.select_nb"),
    ("flow", "io_util.atomic_write_bytes"), ("pod", "io_util.atomic_write_bytes"),
    ("mps", "io_util.atomic_write_bytes"),
    ("pipeline", "io_util.atomic_write_text"), ("pipeline", "io_util.sha256_file"),
    ("visualize", "io_util.atomic_write_text"),
    ("readout", "mps.contract"), ("readout", "pod.exact_projection_error"),
]


def test_seed_gives_same_inputs():
    for w in workloads.WORKLOADS.values():
        a = workloads.generate(w, 3, "out")
        assert a == workloads.generate(w, 3, "out")
        assert a["seeds"] != workloads.generate(w, 4, "out")["seeds"]
        assert len(set(a["seeds"])) == w.n_sweep_seeds
    cold = workloads.generate(workloads.WORKLOADS["cavity-cold"], 5, "out")
    warm = workloads.generate(workloads.WORKLOADS["cavity-warm"], 5, "out")
    assert cold == warm


def test_transient_target_must_be_held_out():
    w = workloads.WORKLOADS["transient-large"]
    workloads.check_held_out(workloads.generate(w, 0, "out"))
    for step in (10, 60, 119):  # residues 10, 10 and 19 lie in the window
        with pytest.raises(ValueError):
            workloads.check_held_out(dict(w.base, target_step=step))


def test_normalise_divides_out_host_speed():
    assert run.normalise(3.0, 1.0, 1.0) == 3.0
    # a host running at half speed doubles both the step and the loops around it
    assert run.normalise(6.0, 2.0, 2.0) == 3.0
    assert run.normalise(3.0, 1.0, 3.0) == 1.5


def test_host_clock_answers_and_stops():
    with run.HostClock(("interpreter", "arrays")) as clock:
        assert all(0.1 < clock.slowdown() < 10 for _ in range(2))
    assert len(clock.samples) == 2 and clock.proc.returncode == 0


def _bindings(package):
    return {
        (mod.__name__, attr): obj
        for mod in tracer.package_modules(package)
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }


def test_wrappers_restore_originals():
    import podreadout
    from podreadout import circuit, readout, visualize

    before = _bindings(podreadout)
    t = tracer.Tracer()
    patched = t.install(podreadout)
    try:
        assert ("podreadout.visualize", "atomic_write_text") in patched
        assert circuit.select_nb is not before[("podreadout.circuit", "select_nb")]
        assert readout.contract.__wrapped__ is before[("podreadout.readout", "contract")]
        visualize.fmt(1.5)
        assert [s[2:4] for s in t.spans] == [["pipeline.fmt", "visualize"]]
    finally:
        t.restore()
    after = _bindings(podreadout)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def _traced_run(kind, tmp_path):
    work = tmp_path / kind
    work.mkdir()
    trace_dir = work / "spans"
    trace_dir.mkdir()
    w = TINY[kind]
    cfg = workloads.generate(w, 0, str(work / "out"))
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg))
    with run.HostClock(w.calibration) as clock:
        seq = run.run_sequence(w, config_path, work / "out", work, clock, trace_dir)
    assert [c.code for c in seq.commands] == [0] * len(w.commands), seq.commands
    return run.load_spans(trace_dir, len(w.commands))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of each tiny workload: {kind: [spans, spans]}."""
    return {
        kind: [_traced_run(kind, tmp_path_factory.mktemp(f"{kind}{k}")) for k in range(2)]
        for kind in TINY
    }


def test_every_by_value_binding_records_calls(traced):
    sites = {(s["site"], s["name"]) for runs in traced.values() for s in runs[0]}
    missing = [b for b in BY_VALUE if b not in sites]
    assert not missing
    layers_seen = {s["name"].split(".")[0] for runs in traced.values() for s in runs[0]}
    assert layers_seen == set(tracer.LAYERS)


def test_layer_metrics_cover_the_benchmark_file(traced):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    derived = set(layers.layer_metrics(traced["cavity"][0]))
    assert derived <= names
    extra = names - derived
    assert extra == {"trace.overhead_s", "trace.overhead_ratio", "trace.spans",
                     "offline_s", "sweep_s", "visualize_s", "depth_study_s",
                     "cmd_failed_ratio", "check_failed_ratio", "raw_wall_s", "host_slowdown"}


def test_exact_counts_repeat(traced):
    for kind, (first, second) in traced.items():
        a, b = layers.layer_metrics(first), layers.layer_metrics(second)
        for name in layers.EXACT_COUNTS:
            assert a[name] == b[name], (kind, name)
    cavity = layers.layer_metrics(traced["cavity"][0])
    assert cavity["flow.iterations"][0] > 0
    assert cavity["pipeline.reuse_hits"][0] == 2  # sweep and visualize reuse offline
    transient = layers.layer_metrics(traced["transient"][0])
    assert transient["flow.solves"][0] == 0
    assert transient["circuit.cost_calls"][0] > 0
