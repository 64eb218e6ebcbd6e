import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podreadout.errors import FieldError, SnapshotFormatError
from podreadout.flow import Field2D
from podreadout.io_util import write_artifact
from podreadout.pod import (
    BASIS_MAGIC,
    PodBasisSet,
    build_snapshot_matrix,
    exact_projection_error,
    load_basis,
    pod_decompose,
    proj_error_estimator,
    save_basis,
    select_nb,
    unit_vector,
)


def random_matrix(n, m, seed):
    rng = np.random.default_rng(seed)
    fields = [Field2D(n, 1, rng.normal(size=n)) for _ in range(m)]
    return build_snapshot_matrix(fields)


class TestBuild:
    def test_all_ones_column(self):
        s = build_snapshot_matrix([Field2D(2, 2, np.ones(4))])
        assert np.allclose(s[:, 0], 0.5, atol=0, rtol=0)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2**31))
    def test_columns_unit_norm(self, m, seed):
        rng = np.random.default_rng(seed)
        fields = [Field2D(4, 4, rng.normal(size=16) * 10.0**rng.integers(-3, 4))
                  for _ in range(m)]
        s = build_snapshot_matrix(fields)
        assert np.abs(np.linalg.norm(s, axis=0) - 1.0).max() <= 1e-12

    def test_zero_snapshot_names_index(self):
        fields = [Field2D(2, 2, np.ones(4)), Field2D(2, 2, np.zeros(4))]
        with pytest.raises(FieldError, match="snapshot 1: zero norm"):
            build_snapshot_matrix(fields)

    def test_overflowing_norm_names_index(self, recwarn):
        fields = [Field2D(2, 2, np.ones(4)), Field2D(2, 2, np.full(4, 1e200))]
        with pytest.raises(FieldError, match="snapshot 1: infinite norm"):
            build_snapshot_matrix(fields)
        assert [str(w.message) for w in recwarn] == []  # no overflow warning first

    @pytest.mark.parametrize("scale,what", [(0.0, "zero"), (1e200, "infinite")])
    def test_unit_vector_refusal_is_the_only_message(self, recwarn, scale, what):
        # the norm of 1e200 overflows; numpy's RuntimeWarning must not precede the refusal
        with pytest.raises(FieldError, match=f"^target ux: {what} norm, cannot normalize$"):
            unit_vector(Field2D(2, 2, np.full(4, scale)), "target ux")
        assert [str(w.message) for w in recwarn] == []

    def test_mixed_shapes_rejected(self):
        fields = [Field2D(2, 2, np.ones(4)), Field2D(4, 2, np.ones(8))]
        with pytest.raises(FieldError, match="snapshot 1"):
            build_snapshot_matrix(fields)

    def test_order_preserved_and_m_lt_n(self):
        rng = np.random.default_rng(1)
        vals = [rng.normal(size=8) for _ in range(3)]
        s = build_snapshot_matrix([Field2D(8, 1, v) for v in vals])
        for j, v in enumerate(vals):
            assert np.allclose(s[:, j], v / np.linalg.norm(v))
        with pytest.raises(FieldError, match="more grid points than snapshots"):
            build_snapshot_matrix([Field2D(2, 1, np.ones(2))] * 2)


def frozen_build(fields):
    """build_snapshot_matrix as first written (C-order), kept as an oracle."""
    fields = list(fields)
    data = np.empty((fields[0].nx * fields[0].ny, len(fields)))
    for k, f in enumerate(fields):
        data[:, k] = unit_vector(f, f"snapshot {k}")
    return data


def frozen_decompose(s):
    """pod_decompose as first written (one Python pass per column), kept as
    an oracle: (u, sigma)."""
    u, sigma, _ = np.linalg.svd(s, full_matrices=False)
    for i in range(u.shape[1]):
        lead = u[np.argmax(np.abs(u[:, i])), i]
        if lead < 0.0:
            u[:, i] = -u[:, i]
    return u, sigma


def snapshot_fields(kind, n, m, seed):
    """m snapshots of n points: random, smooth, low-rank (rank 2 plus noise)
    or repeated (two distinct snapshots, so the matrix has rank 2)."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    if kind == "random":
        cols = rng.normal(size=(m, n))
    elif kind == "smooth":
        cols = [sum(rng.normal() * np.cos(np.pi * k * x + rng.uniform(0.0, 6.0)) / (1 + k)
                    for k in range(6)) for _ in range(m)]
    elif kind == "low-rank":
        cols = rng.normal(size=(m, 2)) @ rng.normal(size=(2, n)) + 1e-6 * rng.normal(size=(m, n))
    else:
        pair = rng.normal(size=(2, n))
        cols = [pair[k % 2] * (1 + k) for k in range(m)]
    return [Field2D(n, 1, c) for c in cols]


class TestFrozenKernels:
    @pytest.mark.parametrize("kind", ["random", "smooth", "low-rank", "repeated"])
    @pytest.mark.parametrize("n,m", [(2, 1), (8, 3), (64, 7), (1024, 10), (4096, 12)])
    def test_same_bytes_as_the_frozen_build_and_decompose(self, kind, n, m):
        fields = snapshot_fields(kind, n, m, seed=n + m)
        s = build_snapshot_matrix(fields)
        want = frozen_build(fields)
        assert s.shape == want.shape and s.tobytes() == want.tobytes()
        basis = pod_decompose(s)
        got = (basis.u, basis.sigma)
        assert [(a.shape, a.tobytes()) for a in got] == [
            (a.shape, a.tobytes()) for a in frozen_decompose(want)]

    def test_wide_matrix_same_bytes_as_the_frozen_decompose(self):
        # more columns than rows: fewer singular vectors than snapshots
        s = np.random.default_rng(3).normal(size=(4, 6))
        basis = pod_decompose(s.copy())
        assert [a.tobytes() for a in (basis.u, basis.sigma)] == [
            a.tobytes() for a in frozen_decompose(s.copy())]


class TestDecompose:
    def test_duplicate_columns_rank_deficient(self):
        f = Field2D(8, 1, np.arange(1.0, 9.0))
        s = build_snapshot_matrix([f, f])
        basis = pod_decompose(s)
        assert basis.sigma[1] <= 1e-12

    def test_orthonormal_columns_give_unit_sigma(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(32, 4)))
        fields = [Field2D(32, 1, q[:, j]) for j in range(4)]
        basis = pod_decompose(build_snapshot_matrix(fields))
        assert np.allclose(basis.sigma, 1.0, atol=1e-12)

    def test_reconstruction_residual(self):
        # the bases span the snapshots, and the snapshots' coefficients in
        # them have the singular values as row norms: u.T @ s = diag(sigma) v.T
        s = random_matrix(64, 5, seed=11)
        b = pod_decompose(s)
        coeffs = b.u.T @ s
        assert np.linalg.norm(b.u @ coeffs - s) <= 1e-10
        assert np.abs(np.linalg.norm(coeffs, axis=1) - b.sigma).max() <= 1e-10

    def test_sign_convention_largest_entry_positive(self):
        s = random_matrix(32, 4, seed=5)
        b = pod_decompose(s)
        for i in range(b.m):
            col = b.u[:, i]
            assert col[np.argmax(np.abs(col))] > 0

    def test_orthonormality(self):
        s = random_matrix(50, 6, seed=9)
        b = pod_decompose(s)
        assert np.abs(b.u.T @ b.u - np.eye(6)).max() <= 1e-10
        v = (s.T @ b.u) / b.sigma  # the right singular vectors the bases imply
        assert np.abs(v.T @ v - np.eye(6)).max() <= 1e-10

    def test_sigma_sorted(self):
        b = pod_decompose(random_matrix(40, 5, seed=2))
        assert np.all(np.diff(b.sigma) <= 0)


class TestEstimator:
    def test_full_basis_gives_zero(self):
        assert proj_error_estimator(np.array([3.0, 2.0, 1.0]), 3, 3) == 0.0

    def test_two_sigma_arithmetic(self):
        # sqrt(1^2 / 2)
        got = proj_error_estimator(np.array([2.0, 1.0]), 2, 1)
        assert got == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_monotone_in_nb(self):
        sigma = np.array([5.0, 3.0, 2.0, 0.5, 0.1])
        vals = [proj_error_estimator(sigma, 5, k) for k in range(1, 6)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), m=st.integers(2, 8))
    def test_estimator_equals_mean_training_residual(self, seed, m):
        # oracle: average the squared per-column projection residuals
        s = random_matrix(64, m, seed=seed)
        b = pod_decompose(s)
        for n_b in range(1, m + 1):
            est = proj_error_estimator(b.sigma, m, n_b)
            mean_sq = np.mean(
                [exact_projection_error(s[:, j], b, n_b) ** 2 for j in range(m)]
            )
            assert abs(est**2 - mean_sq) <= 1e-10


class TestSelectNb:
    def test_minimality(self):
        sigma = np.array([2.0, 1.0, 0.5])
        full = proj_error_estimator(sigma, 3, 1)
        assert select_nb(sigma, 3, full + 1e-9) == 1

    def test_zero_tail_only_at_m(self):
        sigma = np.array([2.0, 1.0, 0.5])
        assert select_nb(sigma, 3, 1e-300) == 3

    def test_threshold_must_be_positive(self):
        with pytest.raises(FieldError):
            select_nb(np.array([1.0]), 1, 0.0)


class TestExactProjection:
    def test_basis_vector_has_zero_residual(self):
        b = pod_decompose(random_matrix(32, 4, seed=21))
        assert exact_projection_error(b.u[:, 0], b, 2) <= 1e-12

    def test_orthogonal_vector_keeps_full_norm(self):
        b = pod_decompose(random_matrix(32, 4, seed=22))
        rng = np.random.default_rng(0)
        x = rng.normal(size=32)
        x -= b.u @ (b.u.T @ x)
        x /= np.linalg.norm(x)
        assert exact_projection_error(x, b, 4) == pytest.approx(1.0, abs=1e-10)

    def test_matches_coefficient_sum_oracle(self):
        s = random_matrix(64, 6, seed=23)
        b = pod_decompose(s)
        for j in range(s.shape[1]):
            x = s[:, j]
            for n_b in (1, 3, 6):
                coeffs = b.u.T @ x
                resid_span = np.sum(coeffs[n_b:] ** 2)
                # the part orthogonal to all m bases
                resid_perp = np.linalg.norm(x - b.u @ coeffs) ** 2
                oracle = np.sqrt(resid_span + resid_perp)
                assert exact_projection_error(x, b, n_b) == pytest.approx(
                    oracle, abs=1e-12
                )

    def test_dimension_mismatch(self):
        b = pod_decompose(random_matrix(32, 4, seed=2))
        with pytest.raises(FieldError):
            exact_projection_error(np.ones(16), b, 2)


class TestParseval:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_unit_vector_energy_splits(self, seed):
        b = pod_decompose(random_matrix(48, 5, seed=17))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=48)
        x /= np.linalg.norm(x)
        coeffs_sq = np.sum((b.u.T @ x) ** 2)
        assert coeffs_sq + exact_projection_error(x, b, 5) ** 2 == pytest.approx(
            1.0, abs=1e-10
        )


class TestCavityEnsemble:
    def test_nb_at_reference_threshold(self, cavity_bases):
        # the reference setting reached n_b=5 here; desk scale must stay <= 10
        s = cavity_bases["ux"]["matrix"]
        basis = cavity_bases["ux"]["basis"]
        n_b = select_nb(basis.sigma, s.shape[1], 5e-3)
        assert n_b <= 10

    def test_log_projection_error_linear_in_nb(self, cavity_bases, cavity_target):
        basis = cavity_bases["ux"]["basis"]
        x = cavity_target["ux"].values / np.linalg.norm(cavity_target["ux"].values)
        errs = np.array([exact_projection_error(x, basis, k) for k in range(1, 6)])
        ks = np.arange(1, 6)
        coef = np.polyfit(ks, np.log(errs), 1)
        pred = np.polyval(coef, ks)
        ss_res = np.sum((np.log(errs) - pred) ** 2)
        ss_tot = np.sum((np.log(errs) - np.log(errs).mean()) ** 2)
        assert 1.0 - ss_res / ss_tot >= 0.9
        assert coef[0] < 0


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        """All m singular values and the n_b selected columns, bit for bit,
        with u C-ordered: an F-order u changes the bond search's last bits."""
        b = pod_decompose(random_matrix(32, 4, seed=33)).with_nb(2)
        path = tmp_path / "basis.podb"
        written = save_basis(b, path)
        back, digest = load_basis(path)
        assert digest == written == hashlib.sha256(path.read_bytes()).hexdigest()
        assert path.stat().st_size == 20 + 8 * (4 + 32 * 2)
        assert (back.n, back.m, back.n_b) == (32, 4, 2)
        assert back.sigma.tobytes() == b.sigma.tobytes()
        assert back.u.shape == (32, 2) and back.u.flags.c_contiguous
        assert back.u.tobytes() == np.ascontiguousarray(b.u[:, :2]).tobytes()

    def test_a_loaded_basis_refuses_a_count_above_its_columns(self, tmp_path):
        b = pod_decompose(random_matrix(32, 4, seed=33)).with_nb(2)
        save_basis(b, tmp_path / "basis.podb")
        back, _ = load_basis(tmp_path / "basis.podb")
        assert back.with_nb(1).n_b == 1
        with pytest.raises(FieldError, match=r"n_b=3 outside \[1, 2\]"):
            back.with_nb(3)
        with pytest.raises(FieldError, match=r"n_b=3 outside \[1, 2\]"):
            exact_projection_error(back.u[:, 0], back, 3)

    @pytest.mark.parametrize("n, m, n_b", [(8, 3, 0), (8, 3, 4), (4, 4, 2), (4, 5, 2)],
                             ids=["n_b-zero", "n_b-above-m", "m-equals-n", "m-above-n"])
    def test_a_header_outside_its_bounds_is_refused_naming_the_file(self, tmp_path, n, m, n_b):
        # the payload has the size the header implies, so only the bounds refuse it
        path = tmp_path / "bad.podb"
        write_artifact(path, BASIS_MAGIC, (n, m, n_b), (np.ones(m), np.ones((n_b, n))))
        with pytest.raises(SnapshotFormatError) as info:
            load_basis(path)
        assert str(info.value) == (
            f"{path}: header n={n}, m={m}, n_b={n_b}: need 1 <= n_b <= m < n")

    def test_an_old_layout_file_never_parses(self, tmp_path):
        """A file written as sigma, all m columns of u and the m x m matrix v
        is refused, so reuse rebuilds it."""
        b = pod_decompose(random_matrix(32, 4, seed=33)).with_nb(2)
        path = tmp_path / "basis.podb"
        write_artifact(path, BASIS_MAGIC, (32, 4, 2), (b.sigma, b.u.T, np.eye(4)))
        with pytest.raises(SnapshotFormatError, match=f"^{path}: basis payload of 1184 bytes"):
            load_basis(path)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.podb"
        p.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            load_basis(p)

    def test_with_nb_bounds(self):
        b = pod_decompose(random_matrix(16, 3, seed=1))
        with pytest.raises(FieldError):
            b.with_nb(0)
        with pytest.raises(FieldError):
            b.with_nb(4)
