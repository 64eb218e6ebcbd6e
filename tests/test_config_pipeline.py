import dataclasses
import importlib.util
import json
import logging
import os
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from podreadout import flow, mps, pipeline, pod, readout
from podreadout.cli import main
from podreadout.config import (
    CASE_THRESHOLDS,
    ExperimentConfig,
    config_from_dict,
    config_hash,
    load_config,
    offline_hash,
)
from podreadout.errors import ConfigError, NumericalError
from podreadout.flow import transient_pair, write_snapshot_file
from podreadout.pipeline import (
    harmonized_shots,
    problem_of,
    run_depth_study,
    run_offline,
    run_param_study,
    run_shot_sweep,
)
from podreadout.pod import unit_vector


def transient_config(out_dir, **overrides):
    base = dict(
        problem="transient",
        nx=32,
        ny=16,
        case="case1",
        window=(0, 20),
        period=10,
        target_step=25,
        transient_seed=7,
        shot_grid=(1_000, 10_000),
        seeds=(0, 1),
        out_dir=str(out_dir),
        chi_cap=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_case_thresholds(self):
        assert CASE_THRESHOLDS["case1"] == (5e-3, 5e-3)
        assert CASE_THRESHOLDS["case2"] == (1e-3, 1e-3)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"problem": "cavity", "nx": 64, "ny": 64, "bogus": 1})

    def test_target_must_stay_out_of_ensemble(self):
        with pytest.raises(ConfigError, match="out of the ensemble"):
            config_from_dict(
                dict(problem="cavity", nx=64, ny=64, reynolds=[100, 200],
                     target_reynolds=200)
            )

    def test_transient_target_outside_window(self):
        with pytest.raises(ConfigError, match="out of the window"):
            config_from_dict(
                dict(problem="transient", nx=32, ny=16, window=[0, 20],
                     target_step=10)
            )

    @pytest.mark.parametrize("key,value,named", [
        ("reynolds", [100, 6000], "6000"),
        ("reynolds", [0.5, 200], "0.5"),
        ("target_reynolds", 5001, "5001"),
        ("param_sweep", [100, 7000], "7000"),
        ("reynolds", [100, "200"], "'200'"),
    ])
    def test_reynolds_outside_the_solver_range_rejected(self, key, value, named):
        doc = dict(problem="cavity", nx=16, ny=16, reynolds=[100, 200],
                   target_reynolds=150)
        doc[key] = value
        with pytest.raises(ConfigError, match=f"{key}: reynolds {named}"):
            config_from_dict(doc)

    @pytest.mark.parametrize("key,value", [
        ("methods", ["RSR", "RSR"]), ("shot_grid", [500, 500]), ("seeds", [0, 0, 1]),
        ("reynolds", [100, 100, 200]), ("param_sweep", [100, 300, 100]),
        ("grid_sizes", [1024, 1024]),
    ])
    def test_repeated_list_value_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        doc = dict(problem="cavity", nx=16, ny=16, reynolds=[100, 200], target_reynolds=150,
                   out_dir=str(tmp_path / "out"))
        doc[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "offline"]) == 2
        assert capsys.readouterr().err == f"error: {key} repeats a value: {value!r}\n"
        assert not (tmp_path / "out").exists()

    def test_grid_must_be_pow2(self):
        with pytest.raises(ConfigError, match="powers of two"):
            config_from_dict(dict(problem="cavity", nx=48, ny=64,
                                  reynolds=[100], target_reynolds=200))

    def test_load_config_roundtrip(self, tmp_path):
        doc = dict(problem="cavity", nx=64, ny=64, reynolds=[100, 200],
                   target_reynolds=150, methods=["PODR"])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        cfg = load_config(p)
        assert cfg.methods == ("PODR",)
        assert cfg.thresholds == (5e-3, 5e-3)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_hash_ignores_out_dir(self, tmp_path):
        a = transient_config(tmp_path / "a")
        b = dataclasses.replace(a, out_dir=str(tmp_path / "b"))
        c = dataclasses.replace(a, period=11)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_beta_and_cutoff_validation(self, tmp_path):
        doc = dict(problem="transient", nx=32, ny=16, window=[0, 20],
                   target_step=25, out_dir=str(tmp_path))
        with pytest.raises(ConfigError, match="beta"):
            config_from_dict({**doc, "beta": 1.5})
        with pytest.raises(ConfigError, match="fsr_cutoff"):
            config_from_dict({**doc, "fsr_cutoff": 0.0})

    def test_shipped_and_benchmark_configs_validate(self, monkeypatch):
        root = Path(__file__).resolve().parents[1]
        shipped = sorted((root / "configs").glob("*.json"))
        assert shipped and all(load_config(path) for path in shipped)
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", root / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        for w in workloads.WORKLOADS.values():
            config_from_dict(workloads.generate(w, 1, "out"))

    def test_shipped_config_hashes_stay_put(self):
        # the config hash keys every CSV row and the offline hash every stored
        # offline artifact; validation never converts a value
        root = Path(__file__).resolve().parents[1] / "configs"
        transient = load_config(root / "transient_case1.json")
        cavity = load_config(root / "cavity_case1.json")
        assert config_hash(transient) == "24891e84d97cbb3f"
        assert config_hash(cavity) == "126312a1de4e157a"
        assert offline_hash(transient, None) == "e1e020b4b14f0d09"
        assert offline_hash(cavity, None) == "748bfcb810878dea"

    def test_config_naming_lid_speed_exits_2_as_unknown_key(self, tmp_path, capsys):
        # the solver's lid has unit speed: the Reynolds number alone sets the flow
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TRANSIENT_DOC, "lid_speed": 1.0,
                                    "out_dir": str(tmp_path / "out")}))
        assert main(["--config", str(path), "offline"]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['lid_speed']\n"
        assert not (tmp_path / "out").exists()


TRANSIENT_DOC = dict(problem="transient", nx=16, ny=16, window=[0, 5], period=8,
                     target_step=7, chi_cap=8, shot_grid=[500], seeds=[0])
INGESTED_DOC = dict(problem="ingested", nx=16, ny=16, snapshot_ux="ux.pods",
                    snapshot_uy="uy.pods", target_index=2, shot_grid=[500], seeds=[0])
BAD_VALUES = [
    (TRANSIENT_DOC, "period", "8", "offline"),
    (TRANSIENT_DOC, "beta", "2", "offline"),
    (TRANSIENT_DOC, "solver_tol", "x", "offline"),
    (TRANSIENT_DOC, "max_iters", "x", "offline"),
    (TRANSIENT_DOC, "fsr_cutoff", None, "sweep"),
    (TRANSIENT_DOC, "case", ["case1"], "offline"),
    (TRANSIENT_DOC, "transient_seed", -1, "offline"),
    (TRANSIENT_DOC, "window", [0, "5"], "offline"),
    (TRANSIENT_DOC, "window", [-3, 5], "offline"),
    (TRANSIENT_DOC, "param_sweep", ["a"], "param-study"),
    (TRANSIENT_DOC, "sign_oracle", "no", "offline"),
    (TRANSIENT_DOC, "chi_cap", True, "offline"),
    (INGESTED_DOC, "target_index", "2", "offline"),
    (INGESTED_DOC, "target_index", 2.5, "offline"),
    # json.loads reads NaN, Infinity and -Infinity; json.dumps writes them back
    *[(TRANSIENT_DOC, key, value, "sweep")
      for key in ("beta", "solver_tol", "fsr_cutoff")
      for value in (float("nan"), float("inf"), float("-inf"))],
]


@pytest.mark.parametrize("base, key, value, command", BAD_VALUES,
                         ids=[f"{key}={value!r}" for _, key, value, _ in BAD_VALUES])
def test_wrongly_typed_value_exits_2_naming_key_and_value(
    tmp_path, capsys, base, key, value, command
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, key: value, "out_dir": str(tmp_path / "out")}))
    assert main(["--config", str(path), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and repr(value) in err, err
    assert not (tmp_path / "out").exists()


class TestShotHelpers:
    def test_podr_shots_rounds_down(self):
        assert harmonized_shots(10_000, [5]) == 10_000
        assert harmonized_shots(10_000, [7]) == 9_996
        assert harmonized_shots(3, [7]) == 7

    def test_harmonized_shots_uses_lcm(self):
        assert harmonized_shots(10_000, [5, 7]) == 9_975
        assert harmonized_shots(10, [6, 4]) == 12


class TestOffline:
    def test_offline_persists_and_reuses(self, tmp_path):
        cfg = transient_config(tmp_path / "out")
        first = run_offline(cfg)
        assert not first.reused
        manifest_path = os.path.join(cfg.out_dir, "manifest.json")
        manifest_bytes = open(manifest_path, "rb").read()
        mtimes = {
            name: os.stat(os.path.join(cfg.out_dir, name)).st_mtime_ns
            for name in os.listdir(cfg.out_dir)
        }
        second = run_offline(cfg)
        assert second.reused
        assert open(manifest_path, "rb").read() == manifest_bytes
        for name, t in mtimes.items():
            assert os.stat(os.path.join(cfg.out_dir, name)).st_mtime_ns == t
        for comp in ("ux", "uy"):
            a, b = first.components[comp], second.components[comp]
            assert a.basis.n_b == b.basis.n_b
            assert a.plan.chis == b.plan.chis
            assert np.array_equal(a.basis.u, b.basis.u)
            recorded = json.loads(manifest_bytes)["components"][comp]["e_proj_est"]
            assert a.e_proj_est == b.e_proj_est == recorded

    def test_manifest_reports_thresholds_met(self, tmp_path):
        cfg = transient_config(tmp_path / "out")
        run_offline(cfg)
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        proj_thr, enc_thr = cfg.thresholds
        for comp in ("ux", "uy"):
            entry = manifest["components"][comp]
            assert entry["e_proj_est"] <= proj_thr
            assert entry["e_enc_est"] <= enc_thr

    def test_changed_config_recomputes(self, tmp_path):
        cfg = transient_config(tmp_path / "out")
        run_offline(cfg)
        changed = dataclasses.replace(cfg, transient_seed=8)
        res = run_offline(changed)
        assert not res.reused

    @pytest.mark.parametrize("shape", ["list", "ux-without-n_b"])
    def test_malformed_manifest_rebuilds_with_a_warning(self, tmp_path, caplog, shape):
        cfg = transient_config(tmp_path / "out")
        run_offline(cfg)
        path = Path(cfg.out_dir) / "manifest.json"
        good = path.read_bytes()
        manifest = json.loads(good)
        if shape == "list":
            manifest = []
        else:
            del manifest["components"]["ux"]["n_b"]
        path.write_text(json.dumps(manifest))
        with caplog.at_level(logging.WARNING, logger="podreadout"):
            assert not run_offline(cfg).reused
        assert "malformed manifest" in caplog.text
        assert path.read_bytes() == good
        assert run_offline(cfg).reused

    @pytest.mark.parametrize("change", ["flipped", "truncated", "deleted"])
    def test_changed_artifact_rebuilds(self, tmp_path, caplog, change):
        """A listed file whose bytes changed, that no longer parses or that is
        gone is rebuilt without a warning, into the same manifest bytes."""
        cfg = transient_config(tmp_path / "out")
        run_offline(cfg)
        out = Path(cfg.out_dir)
        good = (out / "manifest.json").read_bytes()
        if change == "flipped":
            path = out / "uy_mps_00.podm"
            data = bytearray(path.read_bytes())
            data[-8] ^= 1  # the last value's lowest mantissa byte
            path.write_bytes(bytes(data))
        elif change == "truncated":
            path = out / "ux_basis.podb"
            path.write_bytes(path.read_bytes()[:-8])
        else:
            n_b = json.loads(good)["components"]["ux"]["n_b"]
            (out / f"ux_mps_{n_b - 1:02d}.podm").unlink()
        with caplog.at_level(logging.WARNING, logger="podreadout"):
            assert not run_offline(cfg).reused
        assert caplog.records == []
        assert (out / "manifest.json").read_bytes() == good
        assert run_offline(cfg).reused

    def test_both_bases_before_any_bond_search(self, tmp_path, monkeypatch):
        calls = []
        for mod, name in ((pod, "pod_decompose"), (mps, "search_bond_plan")):
            def spy(*args, _real=getattr(mod, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(mod, name, spy)
        run_offline(transient_config(tmp_path / "out"))
        assert calls == ["pod_decompose"] * 2 + ["search_bond_plan"] * 2

    @pytest.mark.parametrize("problem", ["transient", "cavity"])
    def test_no_svd_beside_the_other_components_data(self, tmp_path, monkeypatch, problem):
        """While run_offline factors one component's snapshot matrix, no array
        of the other component's snapshot matrix or basis is alive."""
        cfg = transient_config(tmp_path / "out")
        if problem == "cavity":
            cfg = config_from_dict(dict(problem="cavity", nx=16, ny=16, reynolds=[100, 200],
                                        target_reynolds=150, out_dir=str(tmp_path / "out")))
        refs = {comp: [] for comp in pipeline.COMPONENTS}  # weakrefs to each one's arrays
        built, alive = [], []
        real_build, real_decompose = pod.build_snapshot_matrix, pod.pod_decompose

        def build(fields):
            mat = real_build(fields)
            built.append(weakref.ref(mat))  # components are built in COMPONENTS order
            refs[pipeline.COMPONENTS[len(built) - 1]].append(built[-1])
            return mat

        def decompose(mat):
            comp = next(c for c, rs in refs.items() if any(r() is mat for r in rs))
            alive.append((comp, [r() for c, rs in refs.items() if c != comp for r in rs
                                 if r() is not None]))
            basis = real_decompose(mat)
            refs[comp] += [weakref.ref(a) for a in (basis.u, basis.sigma)]
            return basis

        monkeypatch.setattr(pod, "build_snapshot_matrix", build)
        monkeypatch.setattr(pod, "pod_decompose", decompose)
        assert not run_offline(cfg).reused
        assert [(comp, len(arrays)) for comp, arrays in alive] == [("ux", 0), ("uy", 0)]

    def test_unreachable_threshold_names_stage(self, tmp_path):
        cfg = transient_config(tmp_path / "out", chi_cap=1, case="case2")
        with pytest.raises(NumericalError, match="offline stage, component"):
            run_offline(cfg)

    def test_ingested_problem_roundtrip(self, tmp_path):
        pairs = [transient_pair(t, 5, 32, 16, seed=1) for t in range(8)]
        ux_path = tmp_path / "ux.pods"
        uy_path = tmp_path / "uy.pods"
        write_snapshot_file([p[0] for p in pairs], ux_path)
        write_snapshot_file([p[1] for p in pairs], uy_path)
        cfg = ExperimentConfig(
            problem="ingested", nx=32, ny=16, snapshot_ux=str(ux_path),
            snapshot_uy=str(uy_path), target_index=7, chi_cap=8,
            out_dir=str(tmp_path / "out"), shot_grid=(1000,), seeds=(0,),
        )
        prob = problem_of(cfg)
        ux, uy = prob.ensemble()
        assert len(ux) == 7 and 7 not in prob.labels
        res = run_offline(cfg)
        assert set(res.components) == {"ux", "uy"}


    def test_ingested_reuse_follows_file_content(self, tmp_path):
        paths = (tmp_path / "ux.pods", tmp_path / "uy.pods")

        def ingest(seed):
            pairs = [transient_pair(t, 5, 32, 16, seed=seed) for t in range(8)]
            for k, path in enumerate(paths):
                write_snapshot_file([p[k] for p in pairs], path)

        ingest(seed=1)
        cfg = ExperimentConfig(
            problem="ingested", nx=32, ny=16, snapshot_ux=str(paths[0]),
            snapshot_uy=str(paths[1]), target_index=7, chi_cap=8,
            out_dir=str(tmp_path / "out"), shot_grid=(1000,), seeds=(0,),
        )
        first = run_offline(cfg)
        assert run_offline(cfg).reused
        ingest(seed=2)  # same paths, new snapshots
        second = run_offline(cfg)
        assert not second.reused
        assert not np.array_equal(
            first.components["ux"].basis.u, second.components["ux"].basis.u
        )
        assert run_offline(cfg).reused

    def test_ingested_files_hashed_once_per_offline(self, tmp_path, monkeypatch):
        """Each ingested file is read once per offline, in order; that read is
        its only hash."""
        paths = [str(tmp_path / f"{comp}.pods") for comp in ("ux", "uy")]

        def ingest(seed):
            pairs = [transient_pair(t, 5, 32, 16, seed=seed) for t in range(8)]
            for k, path in enumerate(paths):
                write_snapshot_file([p[k] for p in pairs], path)

        cfg = ExperimentConfig(
            problem="ingested", nx=32, ny=16, snapshot_ux=paths[0],
            snapshot_uy=paths[1], target_index=7, chi_cap=8,
            out_dir=str(tmp_path / "out"), shot_grid=(1000,), seeds=(0,),
        )
        read = []
        read_snapshot_file = flow.read_snapshot_file

        def spy(path):
            read.append(str(path))
            return read_snapshot_file(path)

        monkeypatch.setattr(flow, "read_snapshot_file", spy)
        # built, reused, then rebuilt from files rewritten in place
        for seed, reused in ((1, False), (1, True), (2, False)):
            ingest(seed)
            read.clear()
            assert run_offline(cfg).reused is reused
            assert read == paths


class TestSweep:
    def test_sweep_csv_schema_and_determinism(self, tmp_path):
        cfg = transient_config(tmp_path / "out")
        offline = run_offline(cfg)
        rows = run_shot_sweep(cfg, offline)
        assert len(rows) == 2 * 3 * 2 * 2  # comps x methods x budgets x seeds
        sweep_path = os.path.join(cfg.out_dir, "sweep.csv")
        med_path = os.path.join(cfg.out_dir, "sweep_medians.csv")
        first = open(sweep_path, "rb").read()
        first_med = open(med_path, "rb").read()
        header = first.decode().splitlines()[0]
        assert header == (
            "config_hash,method,component,N,n_shot_total,n_b,seed,epsilon,"
            "e_proj,e_enc,e_sam_bound,kept_modes"
        )
        h = config_hash(cfg)
        for line in first.decode().splitlines()[1:]:
            assert line.startswith(h + ",")
        run_shot_sweep(cfg, offline)
        assert open(sweep_path, "rb").read() == first
        assert open(med_path, "rb").read() == first_med

    def test_each_target_prepared_once_with_the_bytes_of_fresh_ones(
        self, tmp_path, monkeypatch
    ):
        def sweep_bytes(out):
            cfg = transient_config(out)
            run_shot_sweep(cfg, run_offline(cfg))
            return open(os.path.join(cfg.out_dir, "sweep.csv"), "rb").read()

        offline = run_offline(transient_config(tmp_path / "once"))
        n_bs = [art.basis.n_b for art in offline.components.values()]
        calls = {"fft": 0, "contract": 0, "stack": 0}
        fft, contract, stack = np.fft.fft, readout.contract, np.stack

        def counted(name, fn, only_from=None):
            def spy(*args, **kwargs):
                if only_from is None or sys._getframe(1).f_globals["__name__"] == only_from:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        with monkeypatch.context() as m:
            m.setattr(np.fft, "fft", counted("fft", fft))
            m.setattr(readout, "contract", counted("contract", contract))
            m.setattr(np, "stack", counted("stack", stack, readout.__name__))
            once = sweep_bytes(tmp_path / "once")
        assert calls == {"fft": 2, "contract": sum(n_bs), "stack": 2}

        run_cell = pipeline.run_cell

        def fresh_target(cfg, offline, target, *args):
            return run_cell(cfg, offline, readout.Target(target.x), *args)

        monkeypatch.setattr(pipeline, "run_cell", fresh_target)
        assert sweep_bytes(tmp_path / "fresh") == once

    def test_ux_target_is_freed_before_uy_cells_start(self, tmp_path, monkeypatch):
        """The readouts run ux's cells, then uy's: ux's Target (and what it
        keeps of its readouts) is gone by the time uy's first cell starts."""
        cfg = transient_config(tmp_path / "out")
        offline = run_offline(cfg)
        targets = problem_of(cfg).targets()
        ux = weakref.ref(targets["ux"])
        ux_alive, real = [], pipeline.run_cell

        def run_cell(cfg, offline, target, comp, *cell):
            if comp == "uy" and not ux_alive:
                ux_alive.append(ux() is not None)
            return real(cfg, offline, target, comp, *cell)

        monkeypatch.setattr(pipeline, "run_cell", run_cell)
        cells = list(pipeline.readouts(cfg, offline, targets, cfg.shot_grid, cfg.seeds,
                                       lambda comp, *cell: comp))
        assert cells == ["ux"] * (len(cells) // 2) + ["uy"] * (len(cells) // 2)
        assert ux_alive == [False] and targets == {}

    def test_rows_hold_scalars_only(self, tmp_path):
        # a readout report holds N-entry arrays; the sweep must not keep them
        cfg = transient_config(tmp_path / "out")
        rows = run_shot_sweep(cfg, run_offline(cfg))
        assert rows and all(
            not isinstance(v, np.ndarray) for row in rows for v in row.values()
        )
        assert all("report" not in row for row in rows)

    def test_podr_budget_rounded_to_nb_multiple(self, tmp_path):
        cfg = transient_config(tmp_path / "out", shot_grid=(1001,), seeds=(0,))
        offline = run_offline(cfg)
        n_b = offline.components["ux"].basis.n_b
        rows = run_shot_sweep(cfg, offline)
        podr_rows = [r for r in rows if r["method"] == "PODR"]
        for r in podr_rows:
            nb = offline.components[r["component"]].basis.n_b
            assert r["n_shot_total"] == (1001 // nb) * nb

    @pytest.mark.parametrize("requested", [2, 1000])
    def test_podr_budget_log_names_the_budget_it_rounded_to(self, tmp_path, caplog, requested):
        # 2 is below every n_b, so harmonized_shots raises it to n_b
        cfg = transient_config(tmp_path / "out", methods=("PODR",), shot_grid=(requested,),
                               seeds=(0,))
        offline = run_offline(cfg)
        with caplog.at_level(logging.INFO, logger="podreadout"):
            run_shot_sweep(cfg, offline)
        for comp, art in offline.components.items():
            n_b = art.basis.n_b
            shots = harmonized_shots(requested, [n_b])
            assert shots != requested
            assert (f"PODR budget {requested} rounded to {shots}, a multiple of n_b={n_b} "
                    f"({comp})") in caplog.text

    def test_duplicate_budgets_repeat_their_rows(self, tmp_path):
        def sweep(out, shot_grid):
            cfg = transient_config(tmp_path / out, shot_grid=shot_grid)
            run_shot_sweep(cfg, run_offline(cfg))
            # drop the config hash column, which differs between the grids
            return {
                name: [line.split(",", 1)[1] for line in
                       open(os.path.join(cfg.out_dir, name)).read().splitlines()[1:]]
                for name in ("sweep.csv", "sweep_medians.csv")
            }

        once = sweep("once", (1_000,))
        twice = sweep("twice", (1_000, 1_000))
        # sweep.csv holds one line per seed (two), the medians one per budget
        for name, k in (("sweep.csv", 2), ("sweep_medians.csv", 1)):
            groups = [once[name][i:i + k] for i in range(0, len(once[name]), k)]
            assert twice[name] == [line for g in groups for line in g + g]

    @pytest.mark.parametrize("seeds", [(0, 1, 2), (0, 1, 2, 3)])
    def test_medians_are_np_median_byte_for_byte(self, tmp_path, seeds):
        # an odd and an even seed count: the middle value, or the mean of two
        cfg = transient_config(tmp_path / "out", seeds=seeds)
        rows = run_shot_sweep(cfg, run_offline(cfg))
        want = [pipeline.MEDIAN_HEADER]
        for comp in pipeline.COMPONENTS:
            for method in cfg.methods:
                for budget in cfg.shot_grid:
                    eps = [r["epsilon"] for r in rows if (r["component"], r["method"],
                           r["n_shot_requested"]) == (comp, method, budget)]
                    assert len(eps) == len(seeds)
                    want.append(f"{config_hash(cfg)},{method},{comp},{budget},"
                                f"{pipeline.fmt(float(np.median(eps)))}")
        got = Path(cfg.out_dir, "sweep_medians.csv").read_text()
        assert got == "\n".join(want) + "\n"

    def test_median_epsilon_non_increasing_for_podr(self, tmp_path):
        cfg = transient_config(
            tmp_path / "out", shot_grid=(1_000, 10_000, 100_000),
            seeds=(0, 1, 2, 3, 4),
        )
        offline = run_offline(cfg)
        rows = run_shot_sweep(cfg, offline)
        for comp in ("ux", "uy"):
            meds = []
            for budget in cfg.shot_grid:
                eps = [r["epsilon"] for r in rows
                       if r["method"] == "PODR" and r["component"] == comp
                       and r["n_shot_requested"] == budget]
                meds.append(np.median(eps))
            assert all(a >= b - 1e-12 for a, b in zip(meds, meds[1:]))


class TestParamStudy:
    def test_transient_study_covers_window_and_beyond(self, tmp_path):
        cfg = transient_config(tmp_path / "out")
        rows = run_param_study(cfg)
        params = sorted({r["parameter"] for r in rows})
        assert params[0] == 0 and params[-1] == 30
        in_flags = {r["parameter"]: r["in_ensemble"] for r in rows}
        assert in_flags[5] and not in_flags[25]
        csv_path = os.path.join(cfg.out_dir, "param_study.csv")
        assert os.path.exists(csv_path)
        # every requested parameter shows up for both components
        for comp in ("ux", "uy"):
            got = [r for r in rows if r["component"] == comp]
            assert len(got) == len(params)

    def test_post_window_steps_stay_representable(self, tmp_path):
        # exact periodicity means later steps project like in-window ones
        cfg = transient_config(tmp_path / "out")
        rows = run_param_study(cfg)
        post = [r for r in rows if r["component"] == "ux" and r["parameter"] > 20]
        assert post
        assert all(r["e_proj_case1"] <= 5 * 5e-3 for r in post)

    def test_default_cavity_sweep_has_midpoints(self, tmp_path):
        cfg = ExperimentConfig(
            problem="cavity", nx=64, ny=64, reynolds=(100.0, 200.0, 300.0),
            target_reynolds=250.0, out_dir=str(tmp_path),
        )
        sweep = problem_of(cfg).axis
        assert sweep == (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0)


class TestProblem:
    def test_param_sweep_replaces_the_default_axis(self, tmp_path):
        cfg = transient_config(tmp_path / "out")
        prob = problem_of(cfg)
        assert prob.labels == tuple(range(0, 21)) and prob.target == 25
        assert prob.axis == tuple(range(0, 31))
        swept = dataclasses.replace(cfg, param_sweep=(3, 7))
        assert problem_of(swept).axis == (3, 7)

    def test_ingested_has_no_axis_even_with_a_param_sweep(self, tmp_path):
        pairs = [transient_pair(t, 8, 32, 16, seed=1) for t in range(4)]
        for k, comp in enumerate(("ux", "uy")):
            write_snapshot_file([p[k] for p in pairs], tmp_path / f"{comp}.pods")
        cfg = ExperimentConfig(
            problem="ingested", nx=32, ny=16, snapshot_ux=str(tmp_path / "ux.pods"),
            snapshot_uy=str(tmp_path / "uy.pods"), target_index=1, param_sweep=(0, 2),
            out_dir=str(tmp_path / "out"),
        )
        prob = problem_of(cfg)
        assert prob.axis is None and prob.labels == (0, 2, 3) and prob.target == 1
        assert prob.pair(2)[1].values.tobytes() == pairs[2][1].values.tobytes()
        with pytest.raises(ConfigError, match="param-study needs a parameter axis"):
            run_param_study(cfg)
        with pytest.raises(ConfigError, match="ingested snapshots exist at one grid"):
            run_depth_study(cfg)


class TestDepthStudyOffline:
    def test_row_at_own_grid_matches_offline_manifest(self, tmp_path):
        # both commands run offline_component: same n_b and bond plan
        cfg = transient_config(tmp_path / "out", nx=32, ny=32, case="case2")
        run_offline(cfg)
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        rows = run_depth_study(cfg, grid_sizes=[cfg.grid_points])
        for row in rows:
            entry = manifest["components"][row["component"]]
            assert row["n_b"] == entry["n_b"]
            assert row["chi_list"] == ";".join(str(c) for c in entry["chis"])
        assert {r["component"] for r in rows} == {"ux", "uy"}


class TestDeskTransientWindow:
    def test_offline_completes_with_moderate_basis_count(self, tmp_path):
        # the desk-scale analog of a long training window and a later target
        cfg = ExperimentConfig(
            problem="transient", nx=64, ny=32, case="case1", window=(600, 700),
            period=50, target_step=720, chi_cap=16,
            out_dir=str(tmp_path / "out"), shot_grid=(1000,), seeds=(0,),
        )
        res = run_offline(cfg)
        for comp in ("ux", "uy"):
            assert res.components[comp].basis.n_b <= 25


class TestCavityStudies:
    def test_snapshot_matrix_shape_and_labels(self, cavity_bases, cavity_case1_config, cache):
        assert cavity_bases["ux"]["matrix"].shape == (4096, 10)
        assert problem_of(cavity_case1_config, cache).labels == tuple(range(100, 1001, 100))

    def test_podr_crosses_percent_level_before_1e6_shots(self, sweep_case1):
        from conftest import median_curve

        curve = dict(median_curve(sweep_case1, "PODR", "ux"))
        assert curve[10**6] < 1e-2

    def test_midway_target_projects_like_other_midpoints(
        self, param_rows, cavity_bases, cavity_target
    ):
        from podreadout.pod import exact_projection_error, select_nb

        basis = cavity_bases["ux"]["basis"]
        n_b1 = select_nb(basis.sigma, basis.m, 5e-3)
        x = unit_vector(cavity_target["ux"], "target ux")
        target_err = exact_projection_error(x, basis, n_b1)
        nearby = [
            r["e_proj_case1"]
            for r in param_rows
            if r["component"] == "ux" and not r["in_ensemble"]
            and 800 <= r["parameter"] <= 1100 and r["parameter"] != 950
        ]
        assert nearby
        assert target_err <= 3.0 * max(nearby)
