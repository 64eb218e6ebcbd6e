import math

import numpy as np
import pytest

from podreadout import readout
from podreadout.errors import FieldError
from podreadout.flow import Field2D
from podreadout.mps import contract, tt_svd
from podreadout.pod import PodBasisSet, build_snapshot_matrix, pod_decompose
from podreadout.readout import (
    Target,
    coefficient_from_counts,
    fsr_readout,
    podr_readout,
    rsr_readout,
    sample_coefficient,
)

from oracles import arrays_held, error_budget_check, noise_free_podr


def small_problem(n=256, m=6, n_b=4, seed=0, chi=4):
    rng = np.random.default_rng(seed)
    fields = [Field2D(n, 1, rng.normal(size=n)) for _ in range(m)]
    s = build_snapshot_matrix(fields)
    basis = pod_decompose(s).with_nb(n_b)
    apx = [tt_svd(basis.u[:, i], chi) for i in range(n_b)]
    # a unit target correlated with the ensemble
    x = s @ rng.normal(size=m)
    x /= np.linalg.norm(x)
    return basis, apx, x


def podr_p0(monkeypatch, x, u):
    """Ancilla |0> probability podr_readout hands to the sampler for x against u."""
    seen = []

    def spy(p0, n_shot_basis, rng_seed):
        seen.append(p0)
        return 0.0

    monkeypatch.setattr(readout, "sample_coefficient", spy)
    basis = PodBasisSet(u=u[:, None], sigma=np.ones(1), n_b=1)
    podr_readout(Target(x), basis, [tt_svd(u, 2)], 1, seed=0)
    return seen[0]


def expected_frequencies(monkeypatch):
    """Make RSR and FSR read their exact distribution instead of sampling it."""
    monkeypatch.setattr(readout, "_frequencies", lambda p, n_shot_total, seed: p)


class TestHadamardP0:
    """The Hadamard-test probability (1 + <x, u>)/2 inside podr_readout."""

    def test_identical_states(self, monkeypatch):
        x = np.ones(4) / 2.0
        assert podr_p0(monkeypatch, x, x) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_states(self, monkeypatch):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        u = np.array([0.0, 1.0, 0.0, 0.0])
        assert podr_p0(monkeypatch, x, u) == pytest.approx(0.5, abs=1e-15)

    def test_overlap_arithmetic(self, monkeypatch):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        u = np.array([0.6, 0.8, 0.0, 0.0])
        assert podr_p0(monkeypatch, x, u) == pytest.approx(0.8, abs=1e-15)

    def test_norm_deviation_rejected(self):
        with pytest.raises(FieldError, match="unit norm"):
            Target(np.array([1.0, 1e-3, 0.0, 0.0]))


class TestSampleCoefficient:
    def test_degenerate_p0_one(self):
        for seed in range(5):
            assert sample_coefficient(1.0, 100, seed) == 1.0

    def test_counts_arithmetic(self):
        assert coefficient_from_counts(75, 100) == pytest.approx(0.5, abs=1e-15)

    def test_seed_determinism(self):
        a = sample_coefficient(0.7, 1000, [3, 1])
        b = sample_coefficient(0.7, 1000, [3, 1])
        assert a == b

    def test_binomial_moments(self):
        # oracle: binomial mean 2 p0 - 1 with per-sample std 2 sqrt(p0 q0 / n)
        p0, shots = 0.8, 10**6
        draws = np.array([sample_coefficient(p0, shots, s) for s in range(100)])
        tol = 3.0 * (2.0 * math.sqrt(p0 * (1 - p0) / shots))
        assert abs(draws.mean() - 0.6) <= tol

    def test_unbiased_and_variance_law(self):
        p0, shots, n_seeds = 0.63, 2000, 300
        draws = np.array([sample_coefficient(p0, shots, s) for s in range(n_seeds)])
        expected_var = 4.0 * p0 * (1 - p0) / shots
        stderr = math.sqrt(expected_var / n_seeds)
        assert abs(draws.mean() - (2 * p0 - 1)) <= 4 * stderr
        assert expected_var / 1.5 <= draws.var(ddof=1) <= expected_var * 1.5


class TestPodrReadout:
    def test_exact_recovery_in_analytic_mode(self):
        basis, _, _ = small_problem(n_b=6)
        basis = basis.with_nb(6)
        apx = [tt_svd(basis.u[:, i], 16) for i in range(6)]
        rng = np.random.default_rng(5)
        x = basis.u @ rng.normal(size=6)
        x /= np.linalg.norm(x)
        epsilon, _, _ = noise_free_podr(Target(x), basis, apx)
        assert epsilon <= 1e-10

    def test_budget_divisibility_enforced(self):
        basis, apx, x = small_problem()
        with pytest.raises(FieldError, match="divisible"):
            podr_readout(Target(x), basis, apx, 1001, seed=0)

    def test_approximant_count_enforced(self):
        basis, apx, x = small_problem()
        with pytest.raises(FieldError, match="approximants"):
            podr_readout(Target(x), basis, apx[:-1], 1000, seed=0)

    def test_analytic_epsilon_matches_dense_expansion(self):
        # oracle: expand the residual directly in the augmented basis
        basis, apx, x = small_problem(chi=2)
        epsilon, e_proj, e_enc = noise_free_podr(Target(x), basis, apx)
        n_b = basis.n_b
        un = basis.u[:, :n_b]
        overlaps = np.array([float(x @ contract(a)) for a in apx])
        recon = un @ overlaps
        direct = np.linalg.norm(x - recon)
        assert epsilon == pytest.approx(direct, abs=1e-12)
        floor = math.sqrt(e_proj**2 + e_enc**2)
        assert epsilon == pytest.approx(floor, abs=1e-10)

    def test_podr_terms_leave_only_cores_on_the_approximants(self):
        basis, apx, x = small_problem(chi=4)
        for a in apx:
            a.resume = None  # as search_bond_plan and load_mps leave them
        fresh = [contract(tt_svd(basis.u[:, i], 4)).tobytes() for i in range(basis.n_b)]
        Target(x).podr_terms(basis, apx)
        for a, want in zip(apx, fresh):
            assert sorted(map(id, arrays_held(a))) == sorted(map(id, a.cores))
            assert contract(a).tobytes() == want

    def test_shot_bookkeeping(self):
        basis, apx, x = small_problem()
        rep = podr_readout(Target(x), basis, apx, 4000, seed=1)
        assert rep.n_shot_total == 4000
        assert rep.n_b == 4

    def test_seed_determinism(self):
        basis, apx, x = small_problem()
        a = podr_readout(Target(x), basis, apx, 4000, seed=9)
        b = podr_readout(Target(x), basis, apx, 4000, seed=9)
        assert a.reconstruction.tobytes() == b.reconstruction.tobytes()


class TestRsrReadout:
    def test_uniform_state_analytic(self, monkeypatch):
        x = np.full(4, 0.5)
        expected_frequencies(monkeypatch)
        rep = rsr_readout(Target(x), 100, seed=0)
        assert np.allclose(rep.reconstruction, 0.5, atol=1e-15)
        assert rep.epsilon <= 1e-15

    def test_point_mass_exact_with_sign_oracle(self):
        x = np.zeros(8)
        x[3] = 1.0
        rep = rsr_readout(Target(x), 1, seed=4)
        assert rep.epsilon == 0.0

    def test_negative_point_mass_needs_sign_oracle(self):
        x = np.zeros(8)
        x[3] = -1.0
        with_oracle = rsr_readout(Target(x), 10, seed=4, sign_oracle=True)
        without = rsr_readout(Target(x), 10, seed=4, sign_oracle=False)
        assert with_oracle.epsilon == 0.0
        assert without.epsilon == pytest.approx(2.0)

    def test_error_shrinks_with_shots(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=256)
        x /= np.linalg.norm(x)
        eps = [
            np.median([rsr_readout(Target(x), n, seed=s).epsilon for s in range(5)])
            for n in (10**3, 10**5)
        ]
        assert eps[1] < eps[0]


class TestFsrReadout:
    def test_constant_state_single_mode(self, monkeypatch):
        x = np.full(16, 0.25)
        rep = fsr_readout(Target(x), 10**4, cutoff=0.01, seed=0)
        assert rep.kept_modes == 1
        assert rep.epsilon <= 0.05
        expected_frequencies(monkeypatch)
        exact = fsr_readout(Target(x), 10**4, cutoff=0.01, seed=0)
        assert exact.epsilon <= 1e-12

    def test_single_fourier_mode_analytic(self, monkeypatch):
        n = 64
        k = 5
        x = np.cos(2 * np.pi * k * np.arange(n) / n)
        x /= np.linalg.norm(x)
        expected_frequencies(monkeypatch)
        rep = fsr_readout(Target(x), 100, cutoff=0.1, seed=0)
        assert rep.epsilon <= 1e-12
        assert rep.kept_modes == 2  # the +-k pair of a real mode

    def test_cutoff_validation(self):
        with pytest.raises(FieldError):
            fsr_readout(Target(np.ones(4) / 2.0), 100, cutoff=1.5, seed=0)

    def test_kept_modes_grow_with_budget(self):
        rng = np.random.default_rng(12)
        smooth = np.cumsum(rng.normal(size=256))
        smooth /= np.linalg.norm(smooth)
        lo = fsr_readout(Target(smooth), 10**3, cutoff=1e-4, seed=1)
        hi = fsr_readout(Target(smooth), 10**6, cutoff=1e-4, seed=1)
        assert hi.kept_modes >= lo.kept_modes
        assert hi.epsilon <= lo.epsilon


class TestErrorBudget:
    def test_analytic_mode_always_within_budget(self):
        basis, apx, x = small_problem()
        epsilon, e_proj, e_enc = noise_free_podr(Target(x), basis, apx)
        assert epsilon <= e_proj + e_enc

    def test_rsr_and_fsr_reports_carry_no_budget_terms(self):
        target = Target(np.ones(4) / 2.0)
        for rep in (rsr_readout(target, 10, seed=0),
                    fsr_readout(target, 10, cutoff=0.01, seed=0)):
            assert (rep.n_b, rep.e_proj, rep.e_enc, rep.e_sam_bound) == (None,) * 4

    def test_podr_report_carries_the_budget_terms(self):
        basis, apx, x = small_problem()
        rep = podr_readout(Target(x), basis, apx, 4000, seed=0, beta=3.0)
        assert rep.e_sam_bound == 3.0 * math.sqrt(4 / 1000)
        assert min(rep.e_proj, rep.e_enc) >= 0.0

    def test_coverage_beta2_and_beta4(self):
        basis, apx, x = small_problem(chi=4)
        checks2, checks4 = [], []
        for seed in range(200):
            rep = podr_readout(Target(x), basis, apx, 2000, seed=seed, beta=2.0)
            checks2.append(error_budget_check(rep))
            checks4.append(error_budget_check(rep, beta=4.0))
        assert np.mean(checks2) >= 0.75
        assert np.mean(checks4) >= 0.93
