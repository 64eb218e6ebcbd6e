import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podreadout.errors import BondSearchError, FieldError, SnapshotFormatError
from podreadout import mps
from podreadout.flow import Field2D
from podreadout.mps import (
    BondPlan,
    MpsVector,
    contract,
    from_lsb_flat,
    load_mps,
    save_mps,
    search_bond_plan,
    to_lsb_flat,
    tt_svd,
)
from podreadout.pod import PodBasisSet, build_snapshot_matrix, pod_decompose

from oracles import arrays_held, bond_dims, enc_error_estimator, validate_mps


def schmidt_truncation_fidelity(x, chi):
    """Independent oracle: dense sequential rank-chi projection per cut."""
    v = x / np.linalg.norm(x)
    n = v.size.bit_length() - 1
    cur = to_lsb_flat(v, n)
    for k in range(1, n):
        mat = cur.reshape(2**k, -1)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        keep = min(chi, max(1, int(np.sum(s > s[0] * 1e-14))))
        cur = ((u[:, :keep] * s[:keep]) @ vt[:keep]).reshape(-1)
    w = from_lsb_flat(cur, n)
    w = w / np.linalg.norm(w)
    return abs(float(v @ w))


def random_basis(n, m, seed, n_b=None):
    rng = np.random.default_rng(seed)
    fields = [Field2D(n, 1, rng.normal(size=n)) for _ in range(m)]
    basis = pod_decompose(build_snapshot_matrix(fields))
    return basis.with_nb(n_b or m)


class TestBitOrdering:
    def test_lsb_flat_is_bit_reversal(self):
        x = np.arange(8.0)
        y = to_lsb_flat(x, 3)
        # index b1 + 2 b2 + 4 b3 lands at C-order position b1*4 + b2*2 + b3
        perm = [int(f"{i:03b}"[::-1], 2) for i in range(8)]
        assert np.array_equal(y, x[perm])

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**31))
    def test_roundtrip(self, n, seed):
        x = np.random.default_rng(seed).normal(size=2**n)
        assert np.array_equal(from_lsb_flat(to_lsb_flat(x, n), n), x)


class TestTtSvd:
    def test_basis_state_is_product_state(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        m = tt_svd(e0, chi_max=4)
        assert bond_dims(m) == (1, 1)
        assert np.array_equal(contract(m), e0)

    def test_full_bond_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=64)
        m = tt_svd(x, chi_max=8)
        assert np.linalg.norm(contract(m) - x / np.linalg.norm(x)) <= 1e-10

    def test_truncation_fidelity_matches_schmidt_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.normal(size=64)
            m = tt_svd(x, chi_max=2)
            fid = abs(float((x / np.linalg.norm(x)) @ contract(m)))
            assert fid == pytest.approx(schmidt_truncation_fidelity(x, 2), abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 7),
        chi=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(0, 2**31),
    )
    def test_contraction_unit_norm_and_bond_caps(self, n, chi, seed):
        x = np.random.default_rng(seed).normal(size=2**n)
        m = tt_svd(x, chi_max=chi)
        validate_mps(m, chi)
        for k, bond in enumerate(bond_dims(m)):
            assert bond <= min(chi, 2 ** (k + 1), 2 ** (n - k - 1))

    def test_rejects_bad_inputs(self):
        with pytest.raises(FieldError):
            tt_svd(np.zeros(8), 2)
        with pytest.raises(FieldError):
            tt_svd(np.ones(6), 2)
        with pytest.raises(FieldError):
            tt_svd(np.ones(8), 0)


def smooth_vector(n, seed):
    x = np.linspace(0.0, 1.0, 2**n)
    rng = np.random.default_rng(seed)
    return sum(rng.normal() * np.cos(np.pi * k * x) / (1 + k) ** 2 for k in range(12))


def svd_cuts(monkeypatch, n):
    """Record the cut index of every np.linalg.svd call.

    Cut k splits a matrix of 2^(n-k-1) columns.  tt_svd hands a wide one to
    the SVD as its transpose, a Fortran-order view whose rows are the cut's
    columns; a tall or square one goes in as the C-order matrix itself.
    """
    cuts = []
    real = np.linalg.svd

    def spy(mat, *args, **kwargs):
        cols = mat.shape[1] if mat.flags.c_contiguous else mat.shape[0]
        cuts.append(n - 1 - (cols.bit_length() - 1))
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return cuts


class TestCutSvd:
    @pytest.mark.parametrize("shape", [(2, 1024), (8, 128), (32, 64), (16, 16),
                                       (64, 32), (128, 8)])
    def test_matches_numpy_svd(self, shape):
        # wide shapes go through the transpose, tall and square ones do not
        mat = np.random.default_rng(sum(shape)).normal(size=shape)
        u, s, vt = mps._svd(mat)
        q = min(shape)
        assert u.shape == (shape[0], q) and s.shape == (q,) and vt.shape == (q, shape[1])
        want = np.linalg.svd(mat, compute_uv=False)
        assert np.all(np.abs(s - want) <= 1e-14 * want)
        assert np.allclose((u * s) @ vt, mat, rtol=0, atol=1e-13 * want[0])
        assert np.allclose(u.T @ u, np.eye(q), rtol=0, atol=1e-14 * q)
        assert np.allclose(vt @ vt.T, np.eye(q), rtol=0, atol=1e-14 * q)


class TestResumedTtSvd:
    @pytest.mark.parametrize("kind", ["random", "smooth"])
    def test_same_bytes_as_fresh_sweep(self, kind):
        n = 10
        for chi in range(1, 17):
            x = (np.random.default_rng(chi).normal(size=2**n) if kind == "random"
                 else smooth_vector(n, chi))
            fresh = tt_svd(x, 2 * chi)
            resumed = tt_svd(x, 2 * chi, resume=tt_svd(x, chi).resume)
            assert [c.tobytes() for c in resumed.cores] == [c.tobytes() for c in fresh.cores]
            assert contract(resumed).tobytes() == contract(fresh).tobytes()
            assert resumed.resume.cut == fresh.resume.cut

    def test_skips_the_cuts_the_smaller_cap_kept(self, monkeypatch):
        n = 10
        x = np.random.default_rng(5).normal(size=2**n)
        cuts = svd_cuts(monkeypatch, n)
        start = tt_svd(x, 8)
        assert cuts == list(range(n - 1))
        assert start.resume.cut == 3  # bonds 2, 4, 8 fit under 8; cut 3 has rank 16
        cuts.clear()
        tt_svd(x, 16, resume=start.resume)
        # cut 3 reuses the factorization the chi 8 sweep made there
        assert cuts == list(range(4, n - 1))

    def test_rank_cutoff_below_cap_runs_no_svd(self, monkeypatch):
        # a sum of two product states has rank at most 2 at every cut
        n = 10
        rng = np.random.default_rng(6)
        x = np.zeros(2**n)
        for _ in range(2):
            term = np.ones(1)
            for _ in range(n):
                term = np.kron(term, rng.normal(size=2))
            x += term
        start = tt_svd(x, 4)
        assert max(bond_dims(start)) == 2
        assert start.resume.cut == n - 1
        cuts = svd_cuts(monkeypatch, n)
        resumed = tt_svd(x, 8, resume=start.resume)
        assert cuts == []
        fresh = tt_svd(x, 8)
        assert [c.tobytes() for c in resumed.cores] == [c.tobytes() for c in fresh.cores]
        assert contract(resumed).tobytes() == contract(fresh).tobytes()

    def test_rejects_a_state_from_a_larger_cap(self):
        x = np.random.default_rng(7).normal(size=64)
        with pytest.raises(FieldError):
            tt_svd(x, 2, resume=tt_svd(x, 4).resume)


def frozen_svd(mat):
    """mps._svd as the frozen sweep below calls it."""
    if mat.shape[1] > mat.shape[0]:
        u, s, vt = np.linalg.svd(mat.T, full_matrices=False)
        return vt.T, s, u.T
    return np.linalg.svd(mat, full_matrices=False)


def frozen_contract(cores, n):
    """The tensordot contraction as first written, kept as an oracle."""
    t = cores[0].reshape(2, -1)
    for core in cores[1:]:
        t = np.tensordot(t, core, axes=([t.ndim - 1], [0]))
    flat = t.reshape(-1)
    flat = flat / np.linalg.norm(flat)
    return from_lsb_flat(flat, n)


def frozen_tt_svd(x, chi_max, resume=None):
    """The tt_svd sweep as first written, kept as an oracle: (cores, dense,
    resume state).  It copies each carry three times; tt_svd must give the
    same bytes with one write."""
    n = x.size.bit_length() - 1
    factors = None
    if resume is None:
        start, cores, carry = 0, [], to_lsb_flat(x / np.linalg.norm(x), n)
    else:
        start, cores, factors = resume.cut, list(resume.cores), resume.factors
    left = cores[-1].shape[2] if cores else 1
    state = None
    for k in range(start, n - 1):
        u, s, vt = factors or frozen_svd(carry.reshape(left * 2, -1))
        factors = None
        keep = max(1, int(np.sum(s > s[0] * 1e-14)))
        if keep > chi_max and state is None:
            state = mps._SweepState(k, chi_max, list(cores), (u, s, vt))
        keep = min(keep, chi_max)
        u = u[:, :keep]
        s = s[:keep]
        vt = vt[:keep]
        flips = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(keep)])
        flips[flips == 0.0] = 1.0
        u = u * flips
        vt = vt * flips[:, None]
        cores.append(u.reshape(left, 2, keep))
        carry = s[:, None] * vt
        left = keep
    if len(cores) < n:
        last = carry.reshape(left, 2, 1)
        cores.append(last / np.linalg.norm(last))
    if state is None:
        state = mps._SweepState(n - 1, chi_max, list(cores), None)
    return cores, frozen_contract(cores, n), state


def pinned_vector(kind, n, seed):
    """A length-2^n vector: random, smooth, low-rank (a sum of two product
    states) or sparse (three nonzero entries, so cuts have exactly zero
    singular values)."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=2**n)
    if kind == "smooth":
        return smooth_vector(n, seed)
    if kind == "low-rank":
        x = np.zeros(2**n)
        for _ in range(2):
            term = np.ones(1)
            for _ in range(n):
                term = np.kron(term, rng.normal(size=2))
            x += term
        return x
    x = np.zeros(2**n)
    x[rng.choice(2**n, size=min(3, 2**n), replace=False)] = rng.normal(size=min(3, 2**n))
    return x


def array_bytes(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


def assert_same_sweep(got, cores, dense, state):
    assert array_bytes(got.cores) == array_bytes(cores)
    assert contract(got).tobytes() == dense.tobytes()
    assert (got.resume.cut, got.resume.chi_max) == (state.cut, state.chi_max)
    assert array_bytes(got.resume.cores) == array_bytes(state.cores)
    assert (got.resume.factors is None) == (state.factors is None)
    if state.factors is not None:
        assert array_bytes(got.resume.factors) == array_bytes(state.factors)


class TestFrozenKernels:
    @pytest.mark.parametrize("kind", ["random", "smooth", "low-rank", "sparse"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_same_bytes_as_the_frozen_sweep(self, kind, n):
        x = pinned_vector(kind, n, seed=n)
        for chi in range(1, 33):
            want = frozen_tt_svd(x, chi)
            got = tt_svd(x, chi)
            assert_same_sweep(got, *want)
            # resumed under a doubled cap, from either side's state
            resumed = frozen_tt_svd(x, 2 * chi, resume=want[2])
            assert_same_sweep(tt_svd(x, 2 * chi, resume=got.resume), *resumed)
            assert_same_sweep(tt_svd(x, 2 * chi, resume=want[2]), *resumed)

    def test_sparse_vector_meets_exactly_zero_singular_values(self, monkeypatch):
        spectra = []
        real = np.linalg.svd

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            spectra.append(result[1])
            return result

        monkeypatch.setattr(np.linalg, "svd", spy)
        tt_svd(pinned_vector("sparse", 10, seed=10), 32)
        # the cuts have rank 3 at most; most of them factor to exact zeros beyond
        assert sum(bool(np.any(s == 0.0)) for s in spectra) >= 5

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_contraction_same_bytes_as_tensordot(self, n):
        # loaded cores are C-order copies; swept ones keep the SVD's layout
        x = np.random.default_rng(n).normal(size=2**n)
        for chi in (1, 3, 8, 32):
            cores = tt_svd(x, chi).cores
            for layout in (cores, [np.asfortranarray(c) for c in cores],
                           [c.copy() for c in cores]):
                assert (contract(MpsVector(n_qubits=n, cores=layout)).tobytes()
                        == frozen_contract(layout, n).tobytes())


class TestContract:
    def test_product_state_e5(self):
        e5 = np.zeros(8)
        e5[5] = 1.0
        assert np.array_equal(contract(tt_svd(e5, 8)), e5)

    def test_contract_computes_on_each_call(self):
        # nothing is kept on the MpsVector: each call returns a new array
        # with the same bytes
        m = tt_svd(np.random.default_rng(1).normal(size=16), 4)
        first = contract(m)
        assert contract(m) is not first
        assert contract(m).tobytes() == first.tobytes()
        assert set(vars(m)) == {"n_qubits", "cores", "resume"}

    def test_contract_recomputes_after_cache_drop(self):
        # there is no cache to drop: contract recomputes from the cores, so
        # swept cores and a copy of them (as a load gives) contract alike
        m = tt_svd(np.random.default_rng(2).normal(size=16), 4)
        dense = contract(m).copy()
        loaded = MpsVector(m.n_qubits, [c.copy() for c in m.cores])
        assert np.allclose(contract(m), dense, atol=1e-14)
        assert contract(loaded).tobytes() == dense.tobytes()


class TestEncErrorEstimator:
    def test_exact_approximants_give_zero(self):
        basis = random_basis(64, 4, seed=7, n_b=3)
        apx = [tt_svd(basis.u[:, i], 8) for i in range(3)]
        assert enc_error_estimator(basis, apx) <= 1e-12

    def test_single_basis_algebra(self):
        basis = random_basis(64, 3, seed=8, n_b=1)
        delta = 1e-3
        u1 = basis.u[:, 0]
        w = basis.u[:, 1]
        tilted = (1.0 - delta) * u1 + np.sqrt(1.0 - (1.0 - delta) ** 2) * w
        apx = tt_svd(tilted, 8)  # bond 8 is every cut's full rank at n = 6
        expected = basis.sigma[0] ** 2 / basis.m * delta
        assert enc_error_estimator(basis, [apx]) == pytest.approx(expected, rel=1e-10)

    def test_matches_naive_triple_loop(self):
        basis = random_basis(64, 5, seed=9, n_b=4)
        apx = [tt_svd(basis.u[:, i], 2) for i in range(4)]
        total = 0.0
        for i in range(4):
            term = basis.sigma[i] ** 2 / basis.m
            for j in range(4):
                term -= (
                    basis.sigma[j] ** 2 / basis.m
                    * float(contract(apx[i]) @ basis.u[:, j])
                )
            total += abs(term) ** 2
        assert enc_error_estimator(basis, apx) == pytest.approx(
            np.sqrt(total), abs=1e-12
        )

    def test_dimension_mismatch(self):
        basis = random_basis(64, 3, seed=10)
        apx = [tt_svd(np.random.default_rng(0).normal(size=32), 2)]
        with pytest.raises(FieldError):
            enc_error_estimator(basis, apx)


def reference_search(basis, threshold, chi_cap):
    """The bond search as first written, kept as an oracle.

    Every trial restacks all approximants and evaluates the full estimator,
    and every compression is a fresh sweep.
    """
    n_b = basis.n_b
    cache = {}

    def compress(i, chi):
        key = (i, chi)
        if key not in cache:
            cache[key] = mps.tt_svd(basis.u[:, i], chi)
        return cache[key]

    chis = [1] * n_b
    approx = [compress(i, 1) for i in range(n_b)]
    est = enc_error_estimator(basis, approx)
    while est > threshold:
        best = None
        for i in range(n_b):
            if chis[i] >= chi_cap:
                continue
            trial = compress(i, chis[i] * 2)
            candidate = list(approx)
            candidate[i] = trial
            e = enc_error_estimator(basis, candidate)
            if best is None or e < best[0]:
                best = (e, i, trial)
        if best is None:
            raise BondSearchError("unreachable", best_estimator=est, plan=tuple(chis))
        est, i, trial = best
        chis[i] *= 2
        approx[i] = trial
    return BondPlan(chis=tuple(chis), estimated_error=est), approx


def compression_order(search, basis, threshold, chi_cap):
    """(basis index, cap) of every tt_svd call one search makes, in order."""
    columns = [basis.u[:, i].ctypes.data for i in range(basis.m)]
    calls = []
    real = mps.tt_svd

    def spy(x, chi_max, **kwargs):
        calls.append((columns.index(x.ctypes.data), chi_max))
        return real(x, chi_max, **kwargs)

    with mock.patch.object(mps, "tt_svd", spy):
        try:
            search(basis, threshold, chi_cap)
        except BondSearchError:
            pass
    return calls


def mixed_basis(n, m, kind, seed, n_b):
    """POD basis of m columns of length 2^n: random, smooth or near-low-rank."""
    rng = np.random.default_rng(seed)
    size = 2**n
    if kind == "random":
        cols = rng.normal(size=(m, size))
    elif kind == "smooth":
        x = np.linspace(0.0, 1.0, size)
        cols = [
            sum(rng.normal() * np.sin(np.pi * (k + 1) * x + rng.uniform(0.0, 6.0))
                for k in range(4))
            for _ in range(m)
        ]
    else:
        half = 2 ** (n // 2)
        cols = [
            (rng.normal(size=(half, 2)) @ rng.normal(size=(2, size // half))).reshape(-1)
            + 1e-3 * rng.normal(size=size)
            for _ in range(m)
        ]
    fields = [Field2D(size, 1, c) for c in cols]
    return pod_decompose(build_snapshot_matrix(fields)).with_nb(n_b)


def core_bytes(approx):
    return [[c.tobytes() for c in a.cores] for a in approx]


class TestBondSearch:
    @settings(max_examples=250, deadline=None)
    @given(
        n=st.integers(6, 11),
        m=st.integers(2, 7),
        kind=st.sampled_from(["random", "smooth", "low-rank"]),
        seed=st.integers(0, 2**31),
        nb_frac=st.floats(0.0, 1.0),
        cap_exp=st.integers(0, 5),
        thr_decades=st.floats(0.0, 8.0),
    )
    def test_same_result_as_reference_search(
        self, n, m, kind, seed, nb_frac, cap_exp, thr_decades
    ):
        n_b = 1 + int(nb_frac * (m - 1))
        basis = mixed_basis(n, m, kind, seed, n_b)
        chi_cap = 2 ** min(cap_exp, n // 2)
        # thresholds from "met at the start" down to unreachable
        start = enc_error_estimator(basis, [tt_svd(basis.u[:, i], 1) for i in range(n_b)])
        threshold = max(start, 1e-300) * 10.0 ** (1.0 - thr_decades)
        try:
            want, want_apx = reference_search(basis, threshold, chi_cap)
        except BondSearchError as ref_err:
            with pytest.raises(BondSearchError) as err:
                search_bond_plan(basis, threshold, chi_cap)
            assert err.value.plan == ref_err.plan
            assert err.value.best_estimator.hex() == ref_err.best_estimator.hex()
            return
        plan, apx = search_bond_plan(basis, threshold, chi_cap)
        assert plan.chis == want.chis
        assert plan.estimated_error.hex() == want.estimated_error.hex()
        assert core_bytes(apx) == core_bytes(want_apx)
        assert all(a.resume is None for a in apx)

    @pytest.mark.parametrize("kind,drop", [("random", 0.9), ("smooth", 1e-3),
                                           ("low-rank", 1e-3)])
    def test_same_compressions_in_the_same_order(self, kind, drop):
        # one tt_svd call per compression, so perfbench's call count still
        # counts compressions
        basis = mixed_basis(10, 5, kind, 3, 4)
        start = enc_error_estimator(basis, [tt_svd(basis.u[:, i], 1) for i in range(4)])
        want = compression_order(reference_search, basis, start * drop, 16)
        assert compression_order(search_bond_plan, basis, start * drop, 16) == want

    def test_ties_go_to_the_lowest_index(self):
        # two-entry pairs have bond 4 at most: once every basis is exact the
        # trials leave the estimate unchanged and tie, so the lowest index
        # doubles first and its compression comes first
        n = 8
        u = np.zeros((2**n, 4))
        for k, a in enumerate((1, 8, 64, 5)):
            b = a ^ 0x5A
            u[[a, 2**n - 1 - a, b, 2**n - 1 - b], k] = (0.37 + k, 0.91 / (k + 1), 0.13, 0.29)
        u /= np.linalg.norm(u, axis=0)
        basis = PodBasisSet(u=u, sigma=np.array([3.0, 2.0, 1.5, 1.0]), n_b=4)
        order = compression_order(search_bond_plan, basis, 1e-300, 16)
        assert order == compression_order(reference_search, basis, 1e-300, 16)
        assert order[-4:] == [(0, 16), (1, 16), (2, 16), (3, 16)]

    @pytest.mark.parametrize("kind,drop", [("random", 0.9), ("smooth", 1e-3),
                                           ("low-rank", 1e-3)])
    def test_each_compression_is_contracted_once(self, kind, drop):
        """The starting plan's included; the estimate is the estimator's value
        for the approximants returned, bit for bit."""
        basis = mixed_basis(10, 5, kind, 3, 4)
        start = enc_error_estimator(basis, [tt_svd(basis.u[:, i], 1) for i in range(4)])
        compressions, contractions = [], []

        def count(calls, real):
            def spy(*args, **kwargs):
                calls.append(None)
                return real(*args, **kwargs)
            return spy

        with mock.patch.object(mps, "tt_svd", count(compressions, mps.tt_svd)), \
                mock.patch.object(mps, "contract", count(contractions, mps.contract)):
            plan, apx = search_bond_plan(basis, start * drop, 16)
        assert sum(int(np.log2(c)) for c in plan.chis) > 1  # several doublings
        assert len(contractions) == len(compressions)  # the starting plan's included
        assert plan.estimated_error.hex() == enc_error_estimator(basis, apx).hex()

    @pytest.mark.parametrize("kind,drop", [("random", 0.9), ("smooth", 1e-3),
                                           ("low-rank", 1e-3)])
    def test_approximants_leave_without_dense_and_contract_to_fresh_bytes(self, kind, drop):
        basis = mixed_basis(10, 5, kind, 3, 4)
        start = enc_error_estimator(basis, [tt_svd(basis.u[:, i], 1) for i in range(4)])
        plan, apx = search_bond_plan(basis, start * drop, 16)
        for i, (a, chi) in enumerate(zip(apx, plan.chis)):
            assert sorted(map(id, arrays_held(a))) == sorted(map(id, a.cores))
            assert contract(a).tobytes() == contract(tt_svd(basis.u[:, i], chi)).tobytes()

    def test_huge_threshold_keeps_all_chis_one(self):
        basis = random_basis(64, 4, seed=11, n_b=3)
        plan, apx = search_bond_plan(basis, threshold=10.0, chi_cap=8)
        assert plan.chis == (1, 1, 1)
        assert len(apx) == 3

    def test_unreachable_threshold_reports_best(self):
        basis = random_basis(64, 4, seed=12, n_b=4)
        with pytest.raises(BondSearchError) as err:
            search_bond_plan(basis, threshold=1e-300, chi_cap=2)
        assert err.value.best_estimator > 0
        assert err.value.plan == (2, 2, 2, 2)

    def test_plan_chis_are_powers_of_two(self):
        basis = random_basis(64, 4, seed=13, n_b=4)
        plan, apx = search_bond_plan(basis, threshold=1e-4, chi_cap=8)
        for chi, m in zip(plan.chis, apx):
            assert chi == 2 ** int(np.log2(chi))
            assert max(bond_dims(m), default=1) <= chi
        assert plan.estimated_error <= 1e-4

    def test_chi_cap_validation(self):
        basis = random_basis(64, 3, seed=14)
        with pytest.raises(FieldError):
            search_bond_plan(basis, 1e-3, chi_cap=3)
        with pytest.raises(FieldError):
            search_bond_plan(basis, 1e-3, chi_cap=16)  # above 2^(n//2) for n=6

    def test_bond_plan_type_rejects_non_pow2(self):
        with pytest.raises(FieldError):
            BondPlan(chis=(3,), estimated_error=0.0)

    def test_cavity_case1_plan(self, offline_case1):
        # the reference run met the same threshold with every chi <= 16
        art = offline_case1.components["ux"]
        assert art.plan.estimated_error <= 5e-3
        assert all(chi <= 16 for chi in art.plan.chis)


class TestTruncationMonotonicity:
    def test_self_overlap_defect_non_increasing_in_chi(
        self, cavity_bases, offline_case1
    ):
        # Schmidt-optimality quantity: the basis's own truncation defect
        # <u_i, u_i - approx_i> = 1 - fidelity, which doubling chi improves
        basis = cavity_bases["ux"]["basis"]
        n_b = offline_case1.components["ux"].basis.n_b
        for i in (0, n_b - 1):
            defects = []
            for chi in (1, 2, 4, 8, 16):
                ut = contract(tt_svd(basis.u[:, i], chi))
                defects.append(abs(float(basis.u[:, i] @ (basis.u[:, i] - ut))))
            assert all(
                b <= a + 1e-10 for a, b in zip(defects, defects[1:])
            ), f"basis {i}: {defects}"

    def test_target_overlap_defect_mostly_shrinks(
        self, cavity_bases, cavity_target, offline_case1
    ):
        # against an arbitrary state the error vector also rotates, so
        # |<x, eps_i>| can tick up between neighboring chis; check the
        # decade-scale trend instead of strict per-step monotonicity
        basis = cavity_bases["ux"]["basis"]
        n_b = offline_case1.components["ux"].basis.n_b
        x = cavity_target["ux"].values / np.linalg.norm(cavity_target["ux"].values)
        for i in (0, n_b - 1):
            defects = [
                abs(float(x @ (basis.u[:, i] - contract(tt_svd(basis.u[:, i], chi)))))
                for chi in (1, 4, 16)
            ]
            assert defects[2] < defects[1] < defects[0]

    def test_leading_basis_decay_soft_check(self, cavity_bases, cavity_target):
        # data-dependent exponential-decay check; warn instead of failing
        basis = cavity_bases["ux"]["basis"]
        x = cavity_target["ux"].values / np.linalg.norm(cavity_target["ux"].values)
        chis = np.array([1, 2, 4, 8])
        defects = np.array(
            [
                max(abs(float(x @ (basis.u[:, 0] - contract(tt_svd(basis.u[:, 0], chi))))),
                    1e-16)
                for chi in chis
            ]
        )
        coef = np.polyfit(chis, np.log(defects), 1)
        pred = np.polyval(coef, chis)
        ss_res = float(np.sum((np.log(defects) - pred) ** 2))
        ss_tot = float(np.sum((np.log(defects) - np.log(defects).mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        if not (coef[0] < 0 and r2 >= 0.8):
            warnings.warn(
                f"leading-basis decay fit soft-failed: slope={coef[0]:.3g} r2={r2:.3f}"
            )


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        x = np.random.default_rng(3).normal(size=64)
        m = tt_svd(x, 4)
        path = tmp_path / "m.podm"
        written = save_mps(m, path)
        back, digest = load_mps(path)
        assert digest == written == hashlib.sha256(path.read_bytes()).hexdigest()
        assert back.n_qubits == m.n_qubits
        for a, b in zip(m.cores, back.cores):
            assert a.tobytes() == b.tobytes()
        assert np.allclose(contract(back), contract(m), atol=1e-14)

    def test_bad_magic_and_truncation(self, tmp_path):
        p = tmp_path / "bad.podm"
        p.write_bytes(b"ABCD" + b"\x00" * 12)
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            load_mps(p)
        x = np.random.default_rng(4).normal(size=16)
        good = tmp_path / "good.podm"
        save_mps(tt_svd(x, 2), good)
        data = good.read_bytes()
        good.write_bytes(data[:-4])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_mps(good)
