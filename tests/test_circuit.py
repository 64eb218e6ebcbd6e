import numpy as np
import pytest

from podreadout.circuit import (
    block_depth,
    block_two_qubit_count,
    circuit_cost,
    cost_model,
    staircase_layout,
)
from podreadout.config import ExperimentConfig
from podreadout.errors import ConfigError, FieldError
from podreadout.mps import tt_svd
from podreadout.pipeline import run_depth_study

from oracles import affine_fit_r2, bond_dims


def random_mps(n, chi, seed=0):
    x = np.random.default_rng(seed).normal(size=2**n)
    return tt_svd(x, chi)


class TestLayout:
    def test_product_state_gives_single_qubit_blocks(self):
        e0 = np.zeros(16)
        e0[0] = 1.0
        layout = staircase_layout(tt_svd(e0, 4))
        assert [qs for _, qs in layout] == [(0,), (1,), (2,), (3,)]

    def test_chi2_chain_gives_two_qubit_blocks(self):
        layout = staircase_layout(random_mps(4, 2, seed=1))
        assert all(len(qs) == 2 for _, qs in layout)
        # staircase: consecutive blocks overlap
        for (_, a), (_, b) in zip(layout, layout[1:]):
            assert set(a) & set(b)

    def test_chi16_core_gets_five_qubits(self):
        m = random_mps(10, 16, seed=2)
        layout = staircase_layout(m)
        widths = [len(qs) for _, qs in layout]
        assert max(widths) == 5  # ceil(log2 16) + 1

    def test_blocks_tile_the_register(self):
        for n, chi in ((6, 4), (8, 2), (5, 8)):
            m = random_mps(n, chi, seed=n)
            layout = staircase_layout(m)
            union = set()
            for _, qs in layout:
                union |= set(qs)
            assert union == set(range(n))
            bonds = bond_dims(m)
            for k in range(len(layout) - 1):
                overlap = len(set(layout[k][1]) & set(layout[k + 1][1]))
                assert overlap >= int(np.ceil(np.log2(bonds[k])))


class TestCostModel:
    def test_block_counts(self):
        assert block_two_qubit_count(1) == 0
        assert block_two_qubit_count(2) == 3
        assert block_two_qubit_count(3) == 42  # ceil(0.75 * (64 - 8))
        assert block_two_qubit_count(5) == 744

    def test_two_qubit_override_below_generic_formula(self):
        for w in (1, 2):
            generic = int(np.ceil(0.75 * (4**w - 2**w)))
            assert block_two_qubit_count(w) <= generic

    def test_depth_folds_single_qubit_layers(self):
        assert block_depth(1) == 3
        assert block_depth(2) == 12

    def test_cost_of_product_state(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        cost = circuit_cost(tt_svd(e0, 2))
        assert cost.two_qubit_gate_count == 0
        assert cost.depth == 9
        assert cost.per_core_qubit_counts == (1, 1, 1)

    def test_parallelism_bound(self):
        for n, chi in ((8, 4), (10, 8)):
            cost = circuit_cost(random_mps(n, chi, seed=3))
            assert cost.depth >= cost.two_qubit_gate_count / (n // 2)

    def test_depth_affine_in_qubits_at_fixed_chi(self):
        ns = [10, 12, 14, 16]
        depths = [circuit_cost(random_mps(n, 16, seed=n)).depth for n in ns]
        assert affine_fit_r2(ns, depths) >= 0.999
        # doubling N (n -> n+1) adds exactly one interior max-width block
        d17 = circuit_cost(random_mps(17, 16, seed=17)).depth
        assert d17 - depths[-1] == block_depth(5)

    def test_depth_monotone_in_chi_and_qubits(self):
        x = np.random.default_rng(5).normal(size=2**10)
        depths = [cost_model(staircase_layout(tt_svd(x, chi))).depth
                  for chi in (1, 2, 4, 8, 16)]
        assert all(a <= b for a, b in zip(depths, depths[1:]))
        d_small = circuit_cost(random_mps(8, 8, seed=6)).depth
        d_large = circuit_cost(random_mps(12, 8, seed=6)).depth
        assert d_small <= d_large

    def test_empty_layout_rejected(self):
        with pytest.raises(FieldError):
            cost_model([])


def depth_config(out_dir):
    return ExperimentConfig(
        problem="transient", nx=32, ny=32, window=(0, 11), period=10,
        target_step=15, transient_seed=3, chi_cap=16, out_dir=str(out_dir),
    )


class TestDepthStudy:
    def test_synthetic_study_emits_rows_and_csv(self, tmp_path):
        cfg = depth_config(tmp_path)
        rows = run_depth_study(cfg, grid_sizes=[256, 1024])
        assert {r["N"] for r in rows} == {256, 1024}
        assert {r["component"] for r in rows} == {"ux", "uy"}
        text = (tmp_path / "depth_study.csv").read_text().splitlines()
        assert text[0] == "N,component,n_b,chi_list,two_qubit_gates,depth"
        assert len(text) == 1 + len(rows)
        for comp in ("ux", "uy"):
            nbs = [r["n_b"] for r in rows if r["component"] == comp]
            assert max(nbs) - min(nbs) <= 2

    def test_rejects_non_square_sizes(self, tmp_path):
        with pytest.raises(ConfigError, match="grid size 512"):
            run_depth_study(depth_config(tmp_path), grid_sizes=[1024, 512])
        assert not (tmp_path / "depth_study.csv").exists()
