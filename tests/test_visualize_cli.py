import builtins
import collections
import importlib
import inspect
import io
import json
import logging
import os
import pkgutil
import struct
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

import podreadout
from podreadout import flow, mps, pipeline, pod
from podreadout.cli import main
from podreadout.config import ExperimentConfig, load_config, validate_config
from podreadout.errors import NumericalError, SnapshotFormatError
from podreadout.flow import (
    SNAPSHOT_MAGIC,
    Field2D,
    read_snapshot_csv,
    read_snapshot_file,
    transient_pair,
    write_snapshot_file,
)
from podreadout.io_util import ARTIFACT_VERSION, atomic_write_text, write_artifact
from podreadout.mps import contract, tt_svd
from podreadout.pipeline import harmonized_shots, problem_of, run_offline
from podreadout.visualize import (
    _diverging_colors,
    emit_visual_comparison,
    stream_function,
    svg_heatmap,
    write_grid_csv,
)
from oracles import arrays_held
from test_scripts import EMPTY


def n_bs(offline):
    return [art.basis.n_b for art in offline.components.values()]


class TestStreamFunction:
    def test_uniform_flow_gives_linear_psi(self):
        nx, ny = 8, 16
        u = Field2D(nx, ny, np.ones(nx * ny))
        psi = stream_function(u)
        ys = np.linspace(0.0, 1.0, ny)
        for j in range(ny):
            assert psi.grid()[j] == pytest.approx(ys[j], abs=1e-14)

    def test_solid_rotation_quadratic_psi(self):
        nx = ny = 33
        ys = np.linspace(0.0, 1.0, ny)
        u = Field2D.from_grid(np.tile(-ys[:, None], (1, nx)))
        psi = stream_function(u)
        h = 1.0 / (ny - 1)
        expected = -(ys**2) / 2.0
        err = np.abs(psi.grid()[:, 0] - expected).max()
        assert err <= h**2  # trapezoid is exact on linear integrands

    def test_cavity_psi_derivative_recovers_ux(self, cavity_ensemble):
        # finite-difference oracle on the same grid
        ux = cavity_ensemble["ux"][0]
        psi = stream_function(ux).grid()
        g = ux.grid()
        ny = ux.ny
        dy = 1.0 / (ny - 1)
        dpsi_dy = (psi[2:, :] - psi[:-2, :]) / (2.0 * dy)
        err = np.abs(dpsi_dy - g[1:-1, :]).max()
        d2u = np.abs(np.diff(g, n=2, axis=0)).max() / dy**2
        assert err <= 5.0 * dy**2 * d2u


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    out = tmp_path_factory.mktemp("vis")
    cfg = ExperimentConfig(
        problem="transient", nx=32, ny=16, window=(0, 15), period=8,
        target_step=20, chi_cap=8, out_dir=str(out), seeds=(0,),
        shot_grid=(1000,),
    )
    return cfg, run_offline(cfg)


class TestPanels:

    def test_emit_and_reread_bitwise(self, tiny_setup):
        from podreadout.pipeline import run_cell

        cfg, offline = tiny_setup
        targets = problem_of(cfg).targets()
        shots = harmonized_shots(1000, n_bs(offline))
        reports = {
            m: {c: run_cell(cfg, offline, targets[c], c, m, shots, 0)
                for c in ("ux", "uy")}
            for m in cfg.methods
        }
        written = emit_visual_comparison(cfg, reports, {c: t.x for c, t in targets.items()})
        csvs = [p for p in written if p.endswith(".csv")]
        svgs = [p for p in written if p.endswith(".svg")]
        assert len(csvs) == len(svgs) == 4 * 3  # methods + truth, three panels
        for p in csvs:
            f = read_snapshot_csv(p)
            assert (f.nx, f.ny) == (32, 16)
        # written CSV grids parse back bitwise
        truth_ux = next(p for p in csvs if p.endswith("truth_ux.csv"))
        back = read_snapshot_csv(truth_ux)
        assert back.values.tobytes() == targets["ux"].x.tobytes()
        for p in svgs:
            assert open(p).readline().startswith("<svg")

    def test_podr_psi_close_to_truth_at_converged_budget(self, tiny_setup):
        from podreadout.pipeline import run_cell

        cfg, offline = tiny_setup
        target = problem_of(cfg).targets()["ux"]
        shots = harmonized_shots(10**6, n_bs(offline))
        rep = run_cell(cfg, offline, target, "ux", "PODR", shots, 0)
        psi_hat = stream_function(Field2D(cfg.nx, cfg.ny, rep.reconstruction)).grid()
        psi_true = stream_function(Field2D(cfg.nx, cfg.ny, target.x)).grid()
        bound = 2.0 * rep.epsilon * np.abs(target.x).max() * 1.0
        assert np.abs(psi_hat - psi_true).max() <= max(bound, 1e-12)


class TestSvg:
    def test_svg_contains_rects(self, tmp_path):
        f = Field2D(4, 4, np.linspace(-1, 1, 16))
        p = tmp_path / "x.svg"
        svg_heatmap(f, p, title="demo")
        text = p.read_text()
        assert text.count("<rect") == 16
        assert "demo" in text

    def test_grid_csv_roundtrip(self, tmp_path):
        f = Field2D(4, 2, np.random.default_rng(0).normal(size=8))
        p = tmp_path / "g.csv"
        write_grid_csv(f, p)
        assert read_snapshot_csv(p).values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_same_bytes_as_the_frozen_renderers(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(32, 32)) * 10.0 ** rng.integers(-8, 8)
        scale = np.abs(g).max()
        g.flat[:8] = [scale, -scale, 0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-17 * scale]
        for f in (Field2D(32, 32, g.reshape(-1)), Field2D(16, 64, g.reshape(-1)),
                  Field2D(16, 4, np.zeros(64)), Field2D(4, 16, np.full(64, -0.0))):
            svg_heatmap(f, tmp_path / "new.svg", title="PODR ux")
            frozen_svg_heatmap(f, tmp_path / "old.svg", title="PODR ux")
            assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()
            write_grid_csv(f, tmp_path / "new.csv")
            frozen_write_grid_csv(f, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_colors_match_the_frozen_color_map_and_clip(self):
        t = np.concatenate([
            np.random.default_rng(0).uniform(-1.5, 1.5, 4000),
            [-np.inf, -2.0, -1.0, -1 + 1e-16, -0.5, -1e-300, -0.0, 0.0, 1e-300, 0.5,
             1 - 1e-16, 1.0, 2.0, np.inf, np.nan],
            np.arange(-255, 256) / 255.0,
        ])
        assert _diverging_colors(t).tolist() == [frozen_diverging_color(v) for v in t]


def frozen_write_grid_csv(field, path):
    """write_grid_csv as first written, one pipeline.fmt call per value."""
    rows = [",".join(pipeline.fmt(v) for v in row) for row in field.grid()]
    atomic_write_text(path, "\n".join(rows) + "\n")


def frozen_diverging_color(t):
    """The per-pixel color map svg_heatmap first called."""
    t = max(-1.0, min(1.0, t))
    if t < 0:
        r, g, b = 1.0 + t, 1.0 + t, 1.0
    else:
        r, g, b = 1.0, 1.0 - t, 1.0 - t
    return f"#{int(255 * r):02x}{int(255 * g):02x}{int(255 * b):02x}"


def frozen_svg_heatmap(field, path, title=""):
    """svg_heatmap as first written, one color call and one f-string per pixel."""
    g = field.grid()
    scale = float(np.abs(g).max()) or 1.0
    cell = 8
    width, height = field.nx * cell, field.ny * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height + 20}" viewBox="0 0 {width} {height + 20}">',
        f'<text x="4" y="14" font-family="monospace" font-size="12">{title}</text>',
    ]
    for j in range(field.ny):
        y = 20 + (field.ny - 1 - j) * cell
        for i in range(field.nx):
            color = frozen_diverging_color(g[j, i] / scale)
            parts.append(
                f'<rect x="{i * cell}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{color}"/>'
            )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")


def write_config(tmp_path, **overrides):
    doc = dict(
        problem="transient", nx=32, ny=16, window=[0, 12], period=8,
        target_step=16, chi_cap=8, out_dir=str(tmp_path / "out"),
        shot_grid=[500, 1000], seeds=[0, 1],
    )
    doc.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return p


def write_problem_config(tmp_path, problem):
    """A small config of each problem kind; ingested reads 8 32x32 snapshots.

    The ingested config names a param_sweep, so param-study cannot fall back
    to the missing-sweep error, and has no transient window to borrow.
    """
    if problem == "cavity":
        return write_config(tmp_path, problem="cavity", nx=16, ny=16,
                            reynolds=[100, 200], target_reynolds=150)
    if problem == "transient":
        return write_config(tmp_path)
    pairs = [transient_pair(t, 8, 32, 32, seed=1) for t in range(8)]
    for k, comp in enumerate(("ux", "uy")):
        write_snapshot_file([p[k] for p in pairs], tmp_path / f"{comp}.pods")
    return write_config(tmp_path, problem="ingested", nx=32, ny=32, window=None,
                        target_step=None, param_sweep=[0, 3, 6],
                        snapshot_ux=str(tmp_path / "ux.pods"),
                        snapshot_uy=str(tmp_path / "uy.pods"), target_index=7)


def assert_config_error(tmp_path, capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(p.suffix == ".csv" for p in tmp_path.rglob("*"))


class TestCli:
    def test_offline_then_sweep(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["--config", str(cfg_path), "offline"]) == 0
        out = capsys.readouterr().out
        assert "n_b=" in out
        assert main(["--config", str(cfg_path), "sweep"]) == 0
        assert os.path.exists(tmp_path / "out" / "sweep.csv")

    def test_solve_writes_snapshot_files(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["--config", str(cfg_path), "solve"]) == 0
        ens, _ = read_snapshot_file(tmp_path / "out" / "ensemble_ux.pods")
        assert len(ens) == 13

    def test_readout_and_visualize(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["--config", str(cfg_path), "readout", "--shots", "1000"]) == 0
        out = capsys.readouterr().out
        assert "PODR" in out and "FSR (idealized)" in out
        assert main(["--config", str(cfg_path), "visualize", "--shots", "1000"]) == 0
        assert os.path.exists(tmp_path / "out" / "visual" / "PODR_psi.svg")

    def test_readout_leaves_sweep_and_manifest_alone(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "offline"]) == 0
        assert main(["--config", str(cfg_path), "sweep"]) == 0
        names = ("sweep.csv", "sweep_medians.csv", "manifest.json")
        before = {name: (out / name).read_bytes() for name in names}
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "readout", "--shots", "10000"]) == 0
        assert capsys.readouterr().out.count("epsilon=") == 2 * 3
        assert {name: (out / name).read_bytes() for name in names} == before
        assert main(["--config", str(cfg_path), "offline"]) == 0
        assert "(reused)" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, change, reused", [
        (["--seed", "5"], {}, True),
        ([], {"shot_grid": [2000]}, True),
        ([], {"target_step": 17}, True),
        ([], {"chi_cap": 16}, False),
        ([], {"reynolds": [100, 300]}, False),
    ], ids=["seed", "shot_grid", "target_step", "chi_cap", "reynolds"])
    def test_offline_reuse_is_keyed_on_the_offline_inputs(
        self, tmp_path, capsys, flags, change, reused
    ):
        """A change to a key only the readouts read reuses the artifacts and
        keeps manifest.json's bytes; a change to a key the offline stage reads
        rebuilds them."""
        base = {}
        if "reynolds" in change:
            base = dict(problem="cavity", nx=16, ny=16, reynolds=[100, 200],
                        target_reynolds=150)
        manifest = tmp_path / "out" / "manifest.json"
        assert main(["--config", str(write_config(tmp_path, **base)), "offline"]) == 0
        before = manifest.read_bytes()
        capsys.readouterr()
        cfg_path = write_config(tmp_path, **{**base, **change})
        assert main(["--config", str(cfg_path), *flags, "offline"]) == 0
        assert ("(reused)" in capsys.readouterr().out) is reused
        assert (manifest.read_bytes() == before) is reused

    def test_offline_rebuilds_bases_written_in_the_old_layout(self, tmp_path, capsys):
        """Bases written as sigma, all m columns of u and the m x m matrix v,
        under a manifest naming their digests, never parse: `podr offline`
        rebuilds them, exits 0 and writes the manifest it writes afresh."""
        cfg_path = write_config(tmp_path)
        out, manifest = tmp_path / "out", tmp_path / "out" / "manifest.json"
        assert main(["--config", str(cfg_path), "offline"]) == 0
        before = manifest.read_bytes()
        doc = json.loads(before)
        prob = problem_of(validate_config(load_config(str(cfg_path))))
        for k, comp in enumerate(pipeline.COMPONENTS):
            mat = pod.build_snapshot_matrix([prob.pair(p)[k] for p in prob.labels])
            u, sigma, vt = np.linalg.svd(mat, full_matrices=False)
            name = f"{comp}_basis.podb"
            doc["components"][comp]["files"][name] = write_artifact(
                out / name, pod.BASIS_MAGIC, (*mat.shape, doc["components"][comp]["n_b"]),
                (sigma, u.T, vt))
        manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "offline"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("n_b=") == 2 and "(reused)" not in captured.out
        assert "Traceback" not in captured.err
        assert manifest.read_bytes() == before
        for comp in pipeline.COMPONENTS:
            basis, _ = pod.load_basis(out / f"{comp}_basis.podb")
            assert basis.u.shape == (basis.n, basis.n_b)

    def test_param_study_command(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["--config", str(cfg_path), "param-study"]) == 0
        assert os.path.exists(tmp_path / "out" / "param_study.csv")

    def test_depth_study_command(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["--config", str(cfg_path), "depth-study",
                     "--sizes", "256,1024"]) == 0
        assert os.path.exists(tmp_path / "out" / "depth_study.csv")

    @pytest.mark.parametrize("sizes", ["512", "abc", None, "1296", "1024,1024"])
    def test_depth_study_bad_sizes_exit_code(self, tmp_path, capsys, sizes):
        # None: no --sizes, and the config's grid_sizes is empty; 1296 = 36^2,
        # a square whose side is not a power of two; 1024,1024 repeats a size
        cfg_path = write_config(tmp_path, **({} if sizes else {"grid_sizes": []}))
        argv = ["--config", str(cfg_path), "depth-study", *(["--sizes", sizes] if sizes else [])]
        assert_config_error(tmp_path, capsys, argv)

    def test_depth_study_empty_sizes_exit_code(self, tmp_path, capsys):
        # an empty flag is not the missing flag: the config's grid_sizes stay unused,
        # and no depth_study.csv is written
        cfg_path = write_config(tmp_path)
        assert_config_error(tmp_path, capsys, ["--config", str(cfg_path), "depth-study",
                                               "--sizes", ""])

    @pytest.mark.parametrize("sizes", ["1024,256", None])
    def test_depth_study_size_below_chi_cap_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, sizes
    ):
        # chi_cap 32 fits the 32x32 config grid, but no cut of N = 256 exceeds 2^4;
        # None: no --sizes, and the config's grid_sizes holds the same sizes
        cfg_path = write_config(tmp_path, nx=32, ny=32, chi_cap=32,
                                **({} if sizes else {"grid_sizes": [1024, 256]}))
        built, real = [], pipeline.component_basis
        monkeypatch.setattr(pipeline, "component_basis",
                            lambda prob, *args: built.append(prob) or real(prob, *args))
        argv = ["--config", str(cfg_path), "depth-study", *(["--sizes", sizes] if sizes else [])]
        assert_config_error(tmp_path, capsys, argv)
        assert built == []

    def test_chi_cap_above_the_maximal_cut_bond_exits_2(self, tmp_path, capsys):
        # a 16x16 grid has 2^8 entries, so no cut bond exceeds 2^4
        cfg_path = write_config(tmp_path, nx=16, ny=16, chi_cap=32)
        assert main(["--config", str(cfg_path), "offline"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: chi_cap 32 exceeds 16,"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("problem", [
        dict(problem="cavity", nx=16, ny=16, reynolds=[100, 200], target_reynolds=150), {},
    ], ids=["cavity", "transient"])
    def test_empty_param_sweep_exits_2(self, tmp_path, capsys, problem):
        cfg_path = write_config(tmp_path, param_sweep=[], **problem)
        assert main(["--config", str(cfg_path), "param-study"]) == 2
        assert "param_sweep must be a nonempty list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scalar_list_key_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, grid_sizes=1024)
        argv = ["--config", str(cfg_path), "depth-study"]
        assert_config_error(tmp_path, capsys, argv)

    def test_repeated_reynolds_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path, problem="cavity", nx=16, ny=16,
                                reynolds=[100, 100, 200], target_reynolds=150)
        solves = []
        monkeypatch.setattr(flow, "solve_cavity_run", lambda *a, **k: solves.append(a))
        assert main(["--config", str(cfg_path), "offline"]) == 2
        assert capsys.readouterr().err == "error: reynolds repeats a value: [100, 100, 200]\n"
        assert solves == [] and not (tmp_path / "out" / "fields").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"problem": "cavity"}))
        assert main(["--config", str(bad), "offline"]) == 2
        assert main(["offline"]) == 2  # missing --config

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, chi_cap=1, case="case2")
        assert main(["--config", str(cfg_path), "offline"]) == 3

    def test_ingest_roundtrip(self, tmp_path, capsys):
        grids = []
        for k in range(3):
            ux, _ = transient_pair(k, 8, 16, 8, seed=2)
            path = tmp_path / f"snap{k}.csv"
            rows = [",".join(f"{v:.17g}" for v in row) for row in ux.grid()]
            path.write_text("\n".join(rows) + "\n")
            grids.append(ux)
        out_pods = tmp_path / "joined.pods"
        assert main(["ingest", *[str(tmp_path / f"snap{k}.csv") for k in range(3)],
                     "--to", str(out_pods)]) == 0
        back, _ = read_snapshot_file(out_pods)
        assert len(back) == 3
        assert np.allclose(back[0].values, grids[0].values)
        assert main(["ingest", str(out_pods)]) == 0
        assert "3 snapshots" in capsys.readouterr().out

    def test_ingest_bad_file_exit_code(self, tmp_path):
        p = tmp_path / "x.pods"
        p.write_bytes(b"JUNKJUNK")
        assert main(["ingest", str(p)]) == 2

    def test_out_and_seed_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path)
        alt = tmp_path / "alt"
        assert main(["--config", str(cfg_path), "--out", str(alt), "--seed", "5",
                     "sweep"]) == 0
        assert os.path.exists(alt / "sweep.csv")
        lines = open(alt / "sweep.csv").read().splitlines()[1:]
        assert all(line.split(",")[6] == "5" for line in lines)


@pytest.mark.parametrize("config, argv", [
    pytest.param({}, ["--seed", "-1", "sweep"], id="seed-flag-negative"),
    pytest.param({"seeds": [-1]}, ["sweep"], id="seeds-key-negative"),
    pytest.param({"seeds": [0.5]}, ["sweep"], id="seeds-key-fraction"),
    pytest.param({"shot_grid": [1000.5, 2000]}, ["sweep"], id="shot-grid-key-fraction"),
    pytest.param({}, ["readout", "--shots", "-3"], id="readout-shots-negative"),
    pytest.param({}, ["readout", "--shots", "0"], id="readout-shots-zero"),
    pytest.param({}, ["visualize", "--shots", "-7"], id="visualize-shots-negative"),
    pytest.param({}, ["visualize", "--shots", "0"], id="visualize-shots-zero"),
])
def test_bad_seed_or_shots_exits_2_before_writing(tmp_path, capsys, config, argv):
    cfg_path = write_config(tmp_path, **config)
    assert_config_error(tmp_path, capsys, ["--config", str(cfg_path), *argv])
    assert not (tmp_path / "out").exists()


STUDIES = {"solve": ["solve"], "offline": ["offline"], "readout": ["readout"],
           "sweep": ["sweep"], "visualize": ["visualize", "--shots", "1000"],
           "param-study": ["param-study"],
           "depth-study": ["depth-study", "--sizes", "256,1024"]}


@pytest.mark.parametrize("study", STUDIES)
@pytest.mark.parametrize("problem", ["cavity", "transient", "ingested"])
def test_every_problem_runs_each_study_or_exits_2(tmp_path, capsys, problem, study):
    cfg_path = write_problem_config(tmp_path, problem)
    argv = ["--config", str(cfg_path), *STUDIES[study]]
    if problem == "ingested" and study in ("param-study", "depth-study"):
        # one grid and no parameter axis: neither study can run
        assert_config_error(tmp_path, capsys, argv)
    else:
        assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    ["solve"], ["offline"], ["sweep"], ["readout"], ["visualize"],
])
def test_missing_ingested_file_exits_2_naming_it(tmp_path, capsys, argv):
    cfg_path = write_problem_config(tmp_path, "ingested")
    missing = tmp_path / "uy.pods"
    missing.unlink()
    assert main(["--config", str(cfg_path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("command", ["sweep", "readout", "visualize"])
def test_ingested_command_reads_and_hashes_each_file_once(tmp_path, monkeypatch, command):
    """Each ingested file is read once, in order, and that read is its only
    hash: the command reuses the artifacts offline built from those digests."""
    cfg_path = write_problem_config(tmp_path, "ingested")
    assert main(["--config", str(cfg_path), "offline"]) == 0
    paths = [str(tmp_path / "ux.pods"), str(tmp_path / "uy.pods")]
    read, results = [], []
    real_read, real_offline = flow.read_snapshot_file, pipeline.run_offline
    monkeypatch.setattr(flow, "read_snapshot_file",
                        lambda path: read.append(str(path)) or real_read(path))
    monkeypatch.setattr(pipeline, "run_offline",
                        lambda *args: results.append(real_offline(*args)) or results[-1])
    assert main(["--config", str(cfg_path), command]) == 0
    assert read == paths
    assert [r.reused for r in results] == [True]


NO_AXIS = {
    "param-study": "param-study needs a parameter axis; ingested snapshots have none",
    "depth-study": "depth-study re-solves the ensemble on each grid size; "
                   "ingested snapshots exist at one grid only",
}


@pytest.mark.parametrize("study", NO_AXIS)
def test_ingested_study_refuses_before_any_read_or_hash(tmp_path, capsys, monkeypatch, study):
    """Nothing is read, so nothing is hashed: a read is the only hash."""
    cfg_path = write_problem_config(tmp_path, "ingested")
    read = []
    real_read = flow.read_snapshot_file
    monkeypatch.setattr(flow, "read_snapshot_file",
                        lambda path: read.append(str(path)) or real_read(path))
    assert main(["--config", str(cfg_path), *STUDIES[study]]) == 2
    assert capsys.readouterr().err == f"error: {NO_AXIS[study]}\n"
    assert read == []


@pytest.fixture(scope="module")
def cavity_32(tmp_path_factory):
    """A 32x32 cavity config (n_b = 3 for both components, so 1000- and
    10000-shot PODR cells are rounded) whose offline artifacts and target
    field are stored."""
    tmp_path = tmp_path_factory.mktemp("cavity_32")
    cfg_path = write_config(tmp_path, problem="cavity", nx=32, ny=32,
                            reynolds=[100, 200, 300, 400], target_reynolds=250,
                            chi_cap=16, shot_grid=[1000, 10000], seeds=[0, 1])
    assert main(["--config", str(cfg_path), "readout"]) == 0
    assert [e["n_b"] for e in json.loads(
        (tmp_path / "out" / "manifest.json").read_text())["components"].values()] == [3, 3]
    return cfg_path


@pytest.mark.parametrize("argv", [["offline"], ["sweep"], ["readout"],
                                  ["visualize", "--shots", "1000"]])
def test_verbose_stderr_is_the_serial_line_sequence(cavity_32, caplog, capsys, argv):
    """The PODR budget lines come ux then uy, and a second run gives the same
    -v lines and stdout."""
    caplog.set_level(logging.INFO, logger="podreadout")
    out = cavity_32.parent / "out"

    def run():
        if argv == ["offline"]:
            (out / "manifest.json").unlink()  # rebuild, from the stored fields
        caplog.clear()
        assert main(["-v", "--config", str(cavity_32), *argv]) == 0
        return ([f"{r.levelname} {r.getMessage()}" for r in caplog.records],
                capsys.readouterr().out)

    first = run()
    if argv[0] in ("sweep", "readout"):
        comps = [line[-3:-1] for line in first[0] if "PODR budget" in line]
        assert comps and comps == ["ux"] * (len(comps) // 2) + ["uy"] * (len(comps) // 2)
    assert run() == first


@pytest.mark.parametrize("argv", [["offline"], ["sweep"], ["readout"],
                                  ["visualize", "--shots", "1000"], ["param-study"]],
                         ids=["offline", "sweep", "readout", "visualize", "param-study"])
def test_no_command_starts_a_thread(cavity_32, monkeypatch, argv):
    """Every stage runs on the calling thread: with threading.Thread patched to
    raise, each command exits 0, offline rebuilding its artifacts."""
    out = cavity_32.parent / "out"
    assert main(["--config", str(cavity_32), "offline"]) == 0  # artifacts in place
    if argv == ["offline"]:
        (out / "manifest.json").unlink()  # rebuild, from the stored fields

    def no_thread(*args, **kwargs):
        raise AssertionError(f"podr {argv[0]} started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    assert main(["--config", str(cavity_32), *argv]) == 0
    assert (out / "manifest.json").exists()


def test_visualize_frees_ux_target_before_uy_cells_start(cavity_32, monkeypatch):
    """podr visualize keeps only the truth vectors: ux's Target is gone by the
    time uy's first readout cell starts."""
    assert main(["--config", str(cavity_32), "offline"]) == 0  # artifacts in place
    ux, ux_alive, real = [], [], pipeline.run_cell

    def run_cell(cfg, offline, target, comp, *cell):
        if comp == "ux" and not ux:
            ux.append(weakref.ref(target))
        if comp == "uy" and not ux_alive:
            ux_alive.append(ux[0]() is not None)
        return real(cfg, offline, target, comp, *cell)

    monkeypatch.setattr(pipeline, "run_cell", run_cell)
    assert main(["--config", str(cavity_32), "visualize", "--shots", "1000"]) == 0
    assert ux_alive == [False]


@pytest.mark.parametrize("failing, named", [(("uy",), "uy"), (("ux", "uy"), "ux")])
def test_offline_raises_the_first_failing_component(tmp_path, capsys, monkeypatch,
                                                    failing, named):
    """As in a ux-then-uy loop: both bases (pass 1) and ux's approximants are
    written before uy's failure is raised, and no manifest is written."""
    cfg_path = write_config(tmp_path)
    bases = {}  # component -> the basis pass 2 read back
    real_load, real_component = pod.load_basis, pipeline.offline_component

    def load(path):
        basis, digest = real_load(path)
        bases[os.path.basename(path).split("_")[0]] = basis
        return basis, digest

    def component(basis, *args):
        comp = next(c for c, b in bases.items() if b is basis)
        if comp in failing:
            raise NumericalError(f"no plan for {comp}")
        return real_component(basis, *args)

    monkeypatch.setattr(pod, "load_basis", load)
    monkeypatch.setattr(pipeline, "offline_component", component)
    assert main(["--config", str(cfg_path), "offline"]) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: offline stage, component {named}: no plan for {named}\n")
    out = tmp_path / "out"
    written = sorted(p.name for p in out.iterdir())
    expected = ["ux_basis.podb", "uy_basis.podb"]
    if named == "uy":
        expected += pipeline._component_files("ux", bases["ux"].n_b)[1:]
    assert written == sorted(expected)


def test_sweep_leaves_only_cores_on_the_approximants(tmp_path, monkeypatch):
    """After an in-process sweep on stored artifacts, the approximants its
    PODR cells read hold their cores and no 2^n-entry array."""
    cfg_path = write_config(tmp_path)
    assert main(["--config", str(cfg_path), "offline"]) == 0
    results, real = [], pipeline.run_offline
    monkeypatch.setattr(pipeline, "run_offline",
                        lambda *args: results.append(real(*args)) or results[-1])
    assert main(["--config", str(cfg_path), "sweep"]) == 0
    [offline] = results
    assert offline.reused
    for art in offline.components.values():
        for i, (a, chi) in enumerate(zip(art.approximants, art.plan.chis)):
            assert sorted(map(id, arrays_held(a))) == sorted(map(id, a.cores))
            assert contract(a).tobytes() == contract(tt_svd(art.basis.u[:, i], chi)).tobytes()


@pytest.mark.parametrize("command", ["offline", "sweep", "visualize"])
def test_ingested_grid_mismatch_exits_2_naming_file_and_grids(tmp_path, capsys, command):
    pairs = [transient_pair(t, 8, 32, 16, seed=1) for t in range(4)]
    for k, comp in enumerate(("ux", "uy")):
        write_snapshot_file([p[k] for p in pairs], tmp_path / f"{comp}.pods")
    cfg_path = write_config(tmp_path, problem="ingested", nx=64, ny=64, window=None,
                            target_step=None, snapshot_ux=str(tmp_path / "ux.pods"),
                            snapshot_uy=str(tmp_path / "uy.pods"), target_index=3)
    assert main(["--config", str(cfg_path), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "ux.pods") in err
    assert "32x16" in err and "64x64" in err
    assert not any(p.suffix == ".csv" for p in tmp_path.rglob("*"))


@pytest.mark.parametrize("command", ["offline", "solve", "sweep"])
def test_ingested_target_only_exits_2_naming_the_count(tmp_path, capsys, command):
    # the one snapshot is the target, so the training set is empty
    pair = transient_pair(0, 8, 32, 32, seed=1)
    for k, comp in enumerate(("ux", "uy")):
        write_snapshot_file([pair[k]], tmp_path / f"{comp}.pods")
    cfg_path = write_config(tmp_path, problem="ingested", nx=32, ny=32, window=None,
                            target_step=None, snapshot_ux=str(tmp_path / "ux.pods"),
                            snapshot_uy=str(tmp_path / "uy.pods"), target_index=0)
    assert main(["--config", str(cfg_path), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1 snapshot" in err
    assert not any((tmp_path / "out").rglob("*.*"))


@pytest.mark.parametrize("name", ["gone.pods", "gone.csv"])
def test_ingest_missing_file_exits_2_naming_it(tmp_path, capsys, name):
    missing = tmp_path / name
    argv = ["ingest", str(missing)] + (["--to", str(tmp_path / "x.pods")]
                                       if name.endswith(".csv") else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_ingest_into_a_missing_directory_exits_2_naming_it(tmp_path, capsys):
    ux, _ = transient_pair(0, 8, 16, 8, seed=2)
    write_grid_csv(ux, tmp_path / "a.csv")
    missing = tmp_path / "missing_dir"
    assert main(["ingest", str(tmp_path / "a.csv"), "--to", str(missing / "x.pods")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing / "x.pods") in err
    assert ".tmp-" not in err
    assert not missing.exists()


def test_out_under_a_regular_file_exits_2_naming_it(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    blocker = tmp_path / "some.csv"
    blocker.write_text("not a directory\n")
    out = blocker / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "offline"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert blocker.read_text() == "not a directory\n"


def test_empty_out_exits_2_and_writes_nothing(tmp_path, capsys):
    """An empty --out overrides out_dir, which validation refuses; it does not
    fall back to the config's out_dir."""
    cfg_path = write_config(tmp_path)
    assert main(["--config", str(cfg_path), "--out", "", "solve"]) == 2
    assert capsys.readouterr().err == "error: out_dir must be a path, got ''\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("rerun", ["run_offline", "sweep"])
def test_reuse_reads_each_artifact_once(tmp_path, monkeypatch, rerun):
    """A run that reuses stored artifacts opens each .podb and .podm file for
    reading exactly once: loading it gives the digest it is checked against."""
    cfg_path = write_config(tmp_path)
    assert main(["--config", str(cfg_path), "offline"]) == 0
    names = [p.name for p in (tmp_path / "out").iterdir() if p.suffix in (".podb", ".podm")]
    reads = collections.Counter()
    real_open = builtins.open  # io.open too, which pathlib calls

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode and str(file).endswith((".podb", ".podm")):
            reads[os.path.basename(str(file))] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    if rerun == "sweep":
        assert main(["--config", str(cfg_path), "sweep"]) == 0
    else:
        assert run_offline(validate_config(load_config(str(cfg_path)))).reused
    assert reads == collections.Counter(names)


@pytest.mark.parametrize("form", ["csv", "pods"])
def test_ingest_of_a_non_finite_value_exits_2_naming_it(tmp_path, capsys, form):
    grid = np.ones((8, 16))
    grid.flat[44] = np.nan
    if form == "csv":
        bad = tmp_path / "nan.csv"
        np.savetxt(bad, grid, delimiter=",")
        argv, where = ["ingest", str(bad), "--to", str(tmp_path / "x.pods")], f"{bad}: "
    else:
        # Field2D refuses a NaN, so snapshot 1's payload is written by hand
        bad = tmp_path / "nan.pods"
        bad.write_bytes(SNAPSHOT_MAGIC + struct.pack("<IIII", ARTIFACT_VERSION, 2, 16, 8)
                        + np.concatenate([np.ones(128), grid.ravel()]).astype("<f8").tobytes())
        argv, where = ["ingest", str(bad)], f"{bad}: snapshot 1: "
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {where}non-finite value at flat index 44\n"
    assert not (tmp_path / "x.pods").exists()


@pytest.mark.parametrize("data, why", [
    (b"NOPE0000000000000000", "bad magic b'NOPE', expected b'PODS'"),
    (SNAPSHOT_MAGIC + b"\x01\x00", "truncated header: 6 bytes, need 20"),
    (SNAPSHOT_MAGIC + struct.pack("<IIII", ARTIFACT_VERSION, 1, 16, 16) + bytes(8),
     "truncated payload: expected 2048 bytes, found 8"),
], ids=["magic", "header", "payload"])
def test_ingest_of_a_malformed_pods_exits_2_naming_the_file(tmp_path, capsys, data, why):
    bad = tmp_path / "bad.pods"
    bad.write_bytes(data)
    assert main(["ingest", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {why}\n"


@pytest.mark.parametrize("load, name", [(pod.load_basis, "x.podb"), (mps.load_mps, "x.podm")])
def test_a_malformed_artifact_is_named_in_its_error(tmp_path, load, name):
    """Header and payload errors of .podb and .podm files name the file."""
    x = np.random.default_rng(3).normal(size=(64, 4))
    good = tmp_path / name
    if name.endswith(".podb"):
        pod.save_basis(pod.pod_decompose(x), good)
    else:
        mps.save_mps(tt_svd(x[:, 0], 2), good)
    data = good.read_bytes()
    for broken in (b"XXXX" + data[4:], data[:10], data[:-8]):
        good.write_bytes(broken)
        with pytest.raises(SnapshotFormatError) as info:
            load(good)
        assert str(info.value).startswith(f"{good}: ")


def test_ingest_of_an_empty_csv_exits_2_naming_it(tmp_path, capsys, recwarn):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["ingest", str(empty), "--to", str(tmp_path / "x.pods")]) == 2
    assert capsys.readouterr().err == f"error: {empty}: the file holds no values\n"
    assert [str(w.message) for w in recwarn] == []
    assert not (tmp_path / "x.pods").exists()


def test_ingested_target_with_an_infinite_norm_names_the_target(tmp_path, capsys, recwarn):
    cfg_path = write_problem_config(tmp_path, "ingested")
    fields, _ = read_snapshot_file(tmp_path / "ux.pods")
    # the target's (index 7) squared entries overflow, so its norm is infinite
    fields[7] = Field2D(32, 32, fields[7].values * 1e200)
    write_snapshot_file(fields, tmp_path / "ux.pods")
    assert main(["--config", str(cfg_path), "readout"]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: target ux: infinite norm, cannot normalize\n"
    assert [str(w.message) for w in recwarn] == []


def test_ingest_of_an_empty_snapshot_file_exits_2_naming_it(tmp_path, capsys):
    empty = tmp_path / "empty.pods"
    empty.write_bytes(SNAPSHOT_MAGIC + struct.pack("<IIII", ARTIFACT_VERSION, 0, 32, 32))
    assert main(["ingest", str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(empty) in err and "no snapshots" in err


NO_SCIPY_SCRIPT = """
import sys
from podreadout.cli import main
for command in ("offline", "sweep"):
    if main(["--config", sys.argv[1], command]) != 0:
        sys.exit(f"podr {command} failed")
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0].startswith("scipy")))
print("numpy.ma imported:", "numpy.ma" in sys.modules)
"""


def test_cavity_offline_and_sweep_import_no_scipy(tmp_path):
    cfg_path = write_config(tmp_path, problem="cavity", nx=16, ny=16,
                            reynolds=[100, 200, 300, 400], target_reynolds=250)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(podreadout.__file__)))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(cfg_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(tmp_path / "out" / "sweep.csv")
    assert proc.stdout.splitlines()[-2:] == ["scipy modules: []", "numpy.ma imported: False"]


PARSE_ONLY_SCRIPT = """
import contextlib, hashlib, io, json, sys
from podreadout.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                  hashlib.sha256(err.getvalue().encode()).hexdigest(),
                  sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "podreadout"))]))
"""
# exit code and sha256 of stdout and stderr at 80 columns, as printed before
# main deferred loading the command handlers
PARSE_ONLY_OUTPUT = {
    "--help": (0, "b53462785aaea81aa5a05db2eee8e60932109adb61539696e8cd4d7ab8efb3e3", EMPTY),
    "sweep --help": (0, "8ffa6fc322cb1d5c645e9ca80f0aaf3a188879153eb0e2f0379915136a5b9f03",
                     EMPTY),
    "--bogus": (2, EMPTY, "ab0bdf490cf6991564be847db520d70b0d0b67a96e05127e754ae49f462ebc3b"),
}


@pytest.mark.parametrize("argv", sorted(PARSE_ONLY_OUTPUT))
def test_help_and_usage_errors_load_neither_numpy_nor_the_lab(argv):
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.dirname(os.path.dirname(podreadout.__file__)))
    proc = subprocess.run([sys.executable, "-c", PARSE_ONLY_SCRIPT, *argv.split()], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, out, err, modules = json.loads(proc.stdout)
    assert modules == ["podreadout", "podreadout.cli", "podreadout.errors"]
    assert (code, out, err) == PARSE_ONLY_OUTPUT[argv]


def public_code(package):
    """{name: code object} of every public function, method and property
    defined in the package's modules (dataclass dunders are not public)."""
    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                # a property's getter, a cached_property's or classmethod's function,
                # or the function itself
                fn = (getattr(member, "fget", None) or getattr(member, "func", None)
                      or getattr(member, "__func__", member))
                if not attr.startswith("_") and inspect.isfunction(fn):
                    found[".".join(filter(None, (info.name, name, attr)))] = fn.__code__
    return found


def test_every_public_function_in_src_is_run_by_a_command(tmp_path):
    """src/ holds only what a command runs: every subcommand on a tiny config of
    each problem kind, plus both forms of ingest, calls each public function."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    runs = []
    for problem in ("transient", "cavity", "ingested"):
        (tmp_path / problem).mkdir()
        cfg_path = write_problem_config(tmp_path / problem, problem)
        for study, argv in STUDIES.items():
            if study == "depth-study":
                argv = ["depth-study", "--sizes", "256"]
            blocked = problem == "ingested" and study in ("param-study", "depth-study")
            runs.append((["--config", str(cfg_path), *argv], 2 if blocked else 0))
    ux, _ = transient_pair(0, 8, 16, 8, seed=2)
    write_grid_csv(ux, tmp_path / "a.csv")
    pods = str(tmp_path / "a.pods")
    runs += [(["ingest", str(tmp_path / "a.csv"), "--to", pods], 0), (["ingest", pods], 0)]

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in runs]
    unreached = sorted(name for name, code in public_code(podreadout).items()
                       if code not in called)
    assert unreached == []
