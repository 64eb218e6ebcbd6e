"""The on-disk cavity field store behind FieldCache (``<out_dir>/fields``)."""

import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import podreadout
from podreadout import flow, pipeline
from podreadout.cli import main
from podreadout.errors import FieldError
from podreadout.flow import Field2D, read_snapshot_file, write_snapshot_file
from podreadout.pipeline import FieldCache, cavity_field_key

from test_visualize_cli import write_config, write_problem_config

SOLVE = (100.0, 16, 16, 1e-6, 400_000)  # re, nx, ny, tol, max_iters


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


def test_key_changes_with_each_input(monkeypatch, tmp_path):
    base = cavity_field_key(*SOLVE)
    assert cavity_field_key(100, 16, 16, 1e-6, 400_000) == base
    variants = [
        (200.0, 16, 16, 1e-6, 400_000),
        (100.0, 32, 16, 1e-6, 400_000),
        (100.0, 16, 32, 1e-6, 400_000),
        (100.0, 16, 16, 1e-7, 400_000),
        (100.0, 16, 16, 1e-6, 300_000),
    ]
    keys = {cavity_field_key(*v) for v in variants}
    assert len(keys) == len(variants) and base not in keys

    # the key follows flow.py's bytes, wherever the file lies: a copy keeps
    # the key, and a copy with one byte edited changes it
    source = Path(flow.__file__).read_bytes()
    copy = tmp_path / "flow.py"
    monkeypatch.setattr(flow, "__file__", str(copy))
    try:
        for edited, same in ((source, True), (source[:-1] + b"#", False)):
            copy.write_bytes(edited)
            pipeline._solver_digest.cache_clear()
            assert (cavity_field_key(*SOLVE) == base) is same
    finally:
        monkeypatch.undo()
        pipeline._solver_digest.cache_clear()
    assert cavity_field_key(*SOLVE) == base
    monkeypatch.setattr(pipeline, "_solver_digest", lambda: "edited solver")
    assert cavity_field_key(*SOLVE) != base


def test_store_holds_every_solve_state_ladder_points_included(tmp_path, solves):
    cache = FieldCache(str(tmp_path))
    ux, uy = cache.cavity(250.0, *SOLVE[1:])
    assert solves == [100, 200, 250.0]
    assert len(os.listdir(tmp_path)) == 3
    run = flow.solve_cavity_run(250.0, *SOLVE[1:3], start=cache.state(200, *SOLVE[1:]))
    key = cavity_field_key(250.0, *SOLVE[1:])
    (psi, omega), _ = read_snapshot_file(tmp_path / f"{key}.pods")
    assert psi.grid().tobytes() == run.psi.tobytes()
    assert omega.grid().tobytes() == run.omega.tobytes()
    assert ux.values.tobytes() == run.u_x.values.tobytes()
    assert uy.values.tobytes() == run.u_y.values.tobytes()


def test_out_of_range_reynolds_solves_nothing(tmp_path, solves):
    with pytest.raises(FieldError, match="outside supported range"):
        FieldCache(str(tmp_path)).cavity(5250.0, *SOLVE[1:])
    assert solves == [] and not os.listdir(tmp_path)


def test_out_of_range_reynolds_in_config_exits_2_before_any_solve(tmp_path, solves, capsys):
    cfg_path = write_config(tmp_path, problem="cavity", nx=16, ny=16,
                            reynolds=[100, 6000], target_reynolds=250)
    assert main(["--config", str(cfg_path), "offline"]) == 2
    assert "reynolds 6000 outside supported range" in capsys.readouterr().err
    assert solves == []
    fields = tmp_path / "out" / "fields"
    assert not fields.exists() or not os.listdir(fields)


def _truncate(path, good):
    path.write_bytes(good[:-8])


def _bad_magic(path, good):
    path.write_bytes(b"JUNK" + good[4:])


def _non_finite(path, good):
    path.write_bytes(good[:20] + np.array([np.nan]).astype("<f8").tobytes() + good[28:])


def _three_fields(path, good):
    (psi, omega), _ = read_snapshot_file(path)
    write_snapshot_file([psi, omega, psi], path)


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
    good = path.read_bytes()
    damage(path, good)
    caplog.set_level(logging.WARNING, logger="podreadout")
    again = FieldCache(str(store)).cavity(*SOLVE)
    assert len(solves) == 2
    assert caplog.text.count(str(path)) == 1 and "solving again" in caplog.text
    assert path.read_bytes() == good
    for a, b in zip(solved, again):
        assert (b.nx, b.ny) == (16, 16)
        assert a.values.tobytes() == b.values.tobytes()


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
    assert len(read_snapshot_file(tmp_path / "out" / "ensemble_ux.pods")[0]) == 2

    def no_solve(*args, **kwargs):
        raise AssertionError("cavity solved again after podr solve")

    monkeypatch.setattr(flow, "solve_cavity_run", no_solve)
    assert main(["--config", str(cfg_path), "offline"]) == 0
    assert main(["--config", str(cfg_path), "sweep"]) == 0


COUNT_SCRIPT = """
import json, sys
from podreadout import flow
from podreadout.cli import main
steps, solves = [0], []
step, solve = flow._newton_step, flow.solve_cavity_run

def counted_step(*args):
    steps[0] += 1
    return step(*args)

def recorded_solve(re, *args, **kwargs):
    run = solve(re, *args, **kwargs)
    solves.append([re, run.iterations])
    return run

flow._newton_step, flow.solve_cavity_run = counted_step, recorded_solve
code = main(sys.argv[1:])
print(json.dumps({"exit": code, "steps": steps[0], "solves": solves}))
"""


def newton_steps_in_new_process(cfg_path, command):
    """Exit code, Newton steps and [Re, iterations] solves of one podr command
    run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(podreadout.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_SCRIPT, "--config", str(cfg_path), command],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_sweep_after_offline_solves_only_the_target(tmp_path):
    # the target Re=250 starts from Re=200, a ladder point but no training Re
    cfg_path = write_config(tmp_path, problem="cavity", nx=16, ny=16,
                            reynolds=[100, 300], target_reynolds=250)
    offline = newton_steps_in_new_process(cfg_path, "offline")
    assert offline["exit"] == 0
    assert sorted(re for re, _ in offline["solves"]) == [100, 200, 300]
    sweep = newton_steps_in_new_process(cfg_path, "sweep")
    assert sweep["exit"] == 0
    assert len(sweep["solves"]) == 1 and sweep["solves"][0][0] == 250
    assert sweep["steps"] == sweep["solves"][0][1] > 0
    again = newton_steps_in_new_process(cfg_path, "sweep")
    assert again == {"exit": 0, "steps": 0, "solves": []}
