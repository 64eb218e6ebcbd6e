"""The on-disk cavity field store behind FieldCache (``<out_dir>/fields``)."""

import logging
import os
import shutil

import numpy as np
import pytest

from podreadout import flow, pipeline
from podreadout.cli import main
from podreadout.flow import Field2D, read_snapshot_file, write_snapshot_file
from podreadout.pipeline import FieldCache, cavity_field_key
from test_visualize_cli import write_problem_config

SOLVE = (100.0, 16, 16, 1e-6, 400_000, 1.0)  # re, nx, ny, tol, max_iters, lid


@pytest.fixture
def solves(monkeypatch):
    """Reynolds numbers of the cavity solves actually run."""
    calls = []
    real = flow.solve_cavity_run

    def spy(re, *args, **kwargs):
        calls.append(re)
        return real(re, *args, **kwargs)

    monkeypatch.setattr(flow, "solve_cavity_run", spy)
    return calls


def test_fresh_cache_loads_instead_of_solving(tmp_path, solves, caplog):
    store = str(tmp_path / "fields")
    caplog.set_level(logging.INFO, logger="podreadout")
    solved = FieldCache(store).cavity(*SOLVE)
    assert solves == [100.0]
    assert "solved in" in caplog.text and "final residual" in caplog.text
    caplog.clear()
    loaded = FieldCache(store).cavity(*SOLVE)
    assert solves == [100.0]
    assert "loaded from store" in caplog.text
    for a, b in zip(solved, loaded):
        assert (a.nx, a.ny) == (b.nx, b.ny)
        assert a.values.tobytes() == b.values.tobytes()


def test_sweep_bytes_match_between_store_miss_and_hit(tmp_path, solves):
    cfg_path = write_problem_config(tmp_path, "cavity")
    miss, hit = tmp_path / "miss", tmp_path / "hit"
    assert main(["--config", str(cfg_path), "--out", str(miss), "sweep"]) == 0
    assert sorted(solves) == [100, 150, 200]
    hit.mkdir()
    shutil.copytree(miss / "fields", hit / "fields")
    assert main(["--config", str(cfg_path), "--out", str(hit), "sweep"]) == 0
    assert len(solves) == 3
    for name in ("sweep.csv", "sweep_medians.csv", "manifest.json"):
        assert (miss / name).read_bytes() == (hit / name).read_bytes()


def test_key_changes_with_each_input(monkeypatch):
    base = cavity_field_key(*SOLVE)
    assert cavity_field_key(100, 16, 16, 1e-6, 400_000, 1) == base
    variants = [
        (200.0, 16, 16, 1e-6, 400_000, 1.0),
        (100.0, 32, 16, 1e-6, 400_000, 1.0),
        (100.0, 16, 32, 1e-6, 400_000, 1.0),
        (100.0, 16, 16, 1e-7, 400_000, 1.0),
        (100.0, 16, 16, 1e-6, 300_000, 1.0),
        (100.0, 16, 16, 1e-6, 400_000, 0.5),
    ]
    keys = {cavity_field_key(*v) for v in variants}
    assert len(keys) == len(variants) and base not in keys
    monkeypatch.setattr(pipeline, "_solver_digest", lambda: "edited solver")
    assert cavity_field_key(*SOLVE) != base


def _truncate(path, good):
    path.write_bytes(good[:-8])


def _bad_magic(path, good):
    path.write_bytes(b"JUNK" + good[4:])


def _non_finite(path, good):
    path.write_bytes(good[:20] + np.array([np.nan]).astype("<f8").tobytes() + good[28:])


def _three_fields(path, good):
    ux, uy = read_snapshot_file(path)
    write_snapshot_file([ux, uy, ux], path)


def _other_grid(path, good):
    f = Field2D(32, 8, np.zeros(256))
    write_snapshot_file([f, f], path)


def _empty(path, good):
    path.write_bytes(good[:8] + (0).to_bytes(4, "little") + good[12:20])


@pytest.mark.parametrize("damage", [_truncate, _bad_magic, _non_finite,
                                    _three_fields, _other_grid, _empty])
def test_damaged_store_file_is_solved_again(tmp_path, solves, caplog, damage):
    store = tmp_path / "fields"
    solved = FieldCache(str(store)).cavity(*SOLVE)
    (path,) = store.iterdir()
    damage(path, path.read_bytes())
    caplog.set_level(logging.WARNING, logger="podreadout")
    again = FieldCache(str(store)).cavity(*SOLVE)
    assert len(solves) == 2
    assert str(path) in caplog.text and "solving again" in caplog.text
    stored = read_snapshot_file(path)
    for a, b, c in zip(solved, again, stored):
        assert (b.nx, b.ny) == (c.nx, c.ny) == (16, 16)
        assert a.values.tobytes() == b.values.tobytes() == c.values.tobytes()


@pytest.mark.parametrize("problem", ["transient", "ingested"])
def test_non_cavity_runs_leave_no_store(tmp_path, problem):
    cfg_path = write_problem_config(tmp_path, problem)
    for command in (["offline"], ["sweep"], ["visualize", "--shots", "1000"]):
        assert main(["--config", str(cfg_path), *command]) == 0
    if problem == "transient":
        assert main(["--config", str(cfg_path), "param-study"]) == 0
    assert os.path.exists(tmp_path / "out" / "sweep.csv")
    assert not os.path.exists(tmp_path / "out" / "fields")


def test_solve_fills_the_store_for_offline_and_sweep(tmp_path, monkeypatch):
    cfg_path = write_problem_config(tmp_path, "cavity")
    assert main(["--config", str(cfg_path), "solve"]) == 0
    assert len(os.listdir(tmp_path / "out" / "fields")) == 3
    assert len(read_snapshot_file(tmp_path / "out" / "ensemble_ux.pods")) == 2

    def no_solve(*args, **kwargs):
        raise AssertionError("cavity solved again after podr solve")

    monkeypatch.setattr(flow, "solve_cavity_run", no_solve)
    assert main(["--config", str(cfg_path), "offline"]) == 0
    assert main(["--config", str(cfg_path), "sweep"]) == 0
