import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import podreadout
from podreadout.cli import main
from podreadout.errors import ConvergenceError, FieldError, SnapshotFormatError
from podreadout.flow import (
    Field2D,
    ladder_below,
    read_snapshot_csv,
    read_snapshot_file,
    solve_cavity_run,
    transient_pair,
    write_snapshot_file,
)
from podreadout.pipeline import FieldCache

from oracles import divergence_interior
from test_visualize_cli import write_problem_config

TOL = 1e-6

SOLVE_SCRIPT = """
import hashlib, sys
from podreadout.pipeline import FieldCache
cache = FieldCache(sys.argv[1])
for re in sys.argv[2:]:
    ux, uy = cache.cavity(float(re), 32, 32, 1e-6, 400_000)
psi, omega = cache.state(float(re), 32, 32, 1e-6, 400_000)
print(hashlib.sha256(b"".join(a.tobytes() for a in (ux.values, uy.values, psi, omega))).hexdigest())
"""


def solve_in_new_process(store, reynolds, blas_threads=1):
    """Digest of the 32x32 velocities and state of the last of the given
    solves, run through a FieldCache on store in a new interpreter with the
    given number of OpenBLAS threads."""
    src = os.path.dirname(os.path.dirname(podreadout.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE_SCRIPT, str(store), *map(str, reynolds)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return proc.stdout.strip()


class TestField2D:
    def test_length_must_match(self):
        with pytest.raises(FieldError, match="expected 16"):
            Field2D(4, 4, np.zeros(15))

    def test_rejects_non_finite_with_index(self):
        vals = np.zeros(16)
        vals[7] = np.nan
        with pytest.raises(FieldError, match="flat index 7"):
            Field2D(4, 4, vals)

    def test_grid_roundtrip(self):
        arr = np.arange(12.0).reshape(3, 4)
        f = Field2D.from_grid(arr)
        assert f.nx == 4 and f.ny == 3
        assert np.array_equal(f.grid(), arr)
        # row-major, x fastest
        assert f.values[1] == arr[0, 1]
        assert f.values[4] == arr[1, 0]


@pytest.fixture(scope="module")
def run64(cache):
    # shares the session cache key used by the ensemble fixtures
    ux, uy = cache.cavity(100.0, 64, 64, TOL, 400_000)
    return ux, uy


class TestCavity:

    def test_lid_velocity_exact_on_interior_top_nodes(self, run64):
        ux, _ = run64
        top = ux.grid()[-1]
        assert np.all(top[1:-1] == 1.0)

    def test_walls_no_slip(self, run64):
        ux, uy = run64
        u, v = ux.grid(), uy.grid()
        assert np.all(u[0, :] == 0.0) and np.all(u[:, 0] == 0.0) and np.all(u[:, -1] == 0.0)
        assert np.all(v[0, :] == 0.0) and np.all(v[-1, :] == 0.0)
        assert np.all(v[:, 0] == 0.0) and np.all(v[:, -1] == 0.0)

    def test_discrete_divergence_below_ten_tol(self, run64):
        ux, uy = run64
        assert np.abs(divergence_interior(ux, uy)).max() <= 10 * TOL

    def test_determinism_bitwise(self):
        a = solve_cavity_run(150.0, 32, 32, tol=1e-5)
        b = solve_cavity_run(150.0, 32, 32, tol=1e-5)
        assert np.array_equal(a.u_x.values, b.u_x.values)
        assert np.array_equal(a.u_y.values, b.u_y.values)

    def test_residual_tail_monotone(self, tmp_path):
        # a Newton solve from its ladder start takes a handful of steps: its
        # residual falls at each
        start = FieldCache(str(tmp_path)).state(300.0, 32, 32, 1e-6, 400_000)
        run = solve_cavity_run(400.0, 32, 32, tol=1e-6, start=start)
        tail = run.residuals
        assert len(tail) >= 2 and np.all(tail[1:] < tail[:-1])
        assert run.residuals[-1] <= 1e-6

    def test_non_convergence_carries_residual(self):
        # Newton from rest needs about five steps to reach 1e-6
        with pytest.raises(ConvergenceError) as err:
            solve_cavity_run(100.0, 32, 32, tol=1e-6, max_iters=2)
        assert err.value.iterations == 2
        assert err.value.residual > 1e-6

    def test_result_does_not_depend_on_earlier_solves(self, tmp_path):
        # Re=250 starts from the ladder point Re=200 either way
        assert (solve_in_new_process(tmp_path / "one", [250])
                == solve_in_new_process(tmp_path / "five", [100, 200, 300, 400, 250]))

    def test_same_bytes_under_one_and_two_blas_threads(self, tmp_path):
        assert (solve_in_new_process(tmp_path / "one", [250], 1)
                == solve_in_new_process(tmp_path / "two", [250], 2))

    def test_ladder_rule(self):
        assert [ladder_below(re) for re in (1.0, 100.0, 100.5, 250.0, 300.0, 950.0)] == [
            None, None, 100, 200, 200, 900]
        for re in (0.5, 5000.5):
            with pytest.raises(FieldError, match="outside supported range"):
                ladder_below(re)

    @pytest.fixture
    def singular(self, monkeypatch):
        def solve(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", solve)

    def test_singular_block_is_a_convergence_error(self, singular):
        with pytest.raises(ConvergenceError, match="singular Jacobian block") as err:
            solve_cavity_run(100.0, 32, 32)
        assert err.value.iterations == 0
        assert err.value.residual > 0

    def test_singular_block_exits_3(self, singular, tmp_path, capsys):
        cfg_path = write_problem_config(tmp_path, "cavity")
        assert main(["--config", str(cfg_path), "offline"]) == 3
        assert "singular Jacobian block" in capsys.readouterr().err

    def test_rejects_bad_inputs(self):
        with pytest.raises(FieldError):
            solve_cavity_run(0.5, 32, 32)
        with pytest.raises(FieldError):
            solve_cavity_run(100.0, 48, 48)  # not a power of two

    @pytest.mark.slow
    def test_centerline_matches_fine_grid_oracle(self, cache, oracle_256):
        # self-convergence study: restrict the 256^2 run to coarse nodes
        fine_ux = oracle_256[0]

        def centerline(field):
            g = field.grid()
            xs = np.linspace(0.0, 1.0, field.nx)
            return np.array([np.interp(0.5, xs, row) for row in g])

        y_fine = np.linspace(0.0, 1.0, 256)
        c_fine = centerline(fine_ux)
        errs = {}
        for n in (32, 64):
            ux, _ = cache.cavity(100.0, n, n, TOL, 400_000)
            y_n = np.linspace(0.0, 1.0, n)
            ref = np.interp(y_n, y_fine, c_fine)
            errs[n] = np.linalg.norm(centerline(ux) - ref) / np.linalg.norm(ref)
        assert errs[64] <= 0.05
        # halving h should at least halve the error (first order or better)
        assert errs[32] / errs[64] >= 2.0


class TestTransient:
    def test_exact_periodicity(self):
        a10, b10 = transient_pair(10, 50, 32, 16, seed=3)
        a60, b60 = transient_pair(60, 50, 32, 16, seed=3)
        assert np.array_equal(a10.values, a60.values)
        assert np.array_equal(b10.values, b60.values)

    def test_divergence_free_to_roundoff(self):
        for step in (0, 7, 31):
            ux, uy = transient_pair(step, 50, 64, 32, seed=5)
            assert np.abs(divergence_interior(ux, uy)).max() <= 1e-12

    def test_seed_determinism(self):
        s1 = [transient_pair(t, 50, 32, 32, seed=7) for t in range(60)]
        s2 = [transient_pair(t, 50, 32, 32, seed=7) for t in range(60)]
        for (a1, b1), (a2, b2) in zip(s1, s2):
            assert np.array_equal(a1.values, a2.values)
            assert np.array_equal(b1.values, b2.values)
        other = transient_pair(0, 50, 32, 32, seed=8)
        assert not np.array_equal(s1[0][0].values, other[0].values)

    def test_preconditions(self):
        with pytest.raises(FieldError):
            transient_pair(0, 1, 32, 32, seed=0)
        with pytest.raises(FieldError):
            transient_pair(-1, 20, 32, 32, seed=0)


class TestSnapshotFiles:
    def test_zero_field_roundtrip(self, tmp_path):
        path = tmp_path / "zeros.pods"
        fields = [Field2D(4, 4, np.zeros(16))]
        written = write_snapshot_file(fields, path)
        back, digest = read_snapshot_file(path)
        assert digest == written == hashlib.sha256(path.read_bytes()).hexdigest()
        assert len(back) == 1
        assert np.array_equal(back[0].values, fields[0].values)

    def test_cavity_ensemble_roundtrips_bitwise(self, tmp_path, cavity_ensemble):
        path = tmp_path / "ens.pods"
        write_snapshot_file(cavity_ensemble["ux"], path)
        back, _ = read_snapshot_file(path)
        for orig, rt in zip(cavity_ensemble["ux"], back):
            assert orig.values.tobytes() == rt.values.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        count=st.integers(1, 4),
        nx=st.sampled_from([2, 4, 8]),
        ny=st.sampled_from([2, 4, 8]),
        seed=st.integers(0, 2**31),
    )
    def test_roundtrip_random(self, tmp_path_factory, count, nx, ny, seed):
        rng = np.random.default_rng(seed)
        fields = [Field2D(nx, ny, rng.normal(size=nx * ny)) for _ in range(count)]
        path = tmp_path_factory.mktemp("rt") / "f.pods"
        write_snapshot_file(fields, path)
        back, _ = read_snapshot_file(path)
        assert all(
            np.array_equal(a.values, b.values) for a, b in zip(fields, back)
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pods"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            read_snapshot_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.pods"
        write_snapshot_file([Field2D(4, 4, np.ones(16))], path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(SnapshotFormatError, match="truncated payload"):
            read_snapshot_file(path)

    def test_dimension_mismatch_on_write(self, tmp_path):
        fields = [Field2D(4, 4, np.ones(16)), Field2D(4, 2, np.ones(8))]
        with pytest.raises(SnapshotFormatError, match="dimension mismatch"):
            write_snapshot_file(fields, tmp_path / "x.pods")

    def test_non_finite_payload_names_snapshot_index(self, tmp_path):
        path = tmp_path / "nan.pods"
        write_snapshot_file([Field2D(2, 2, np.ones(4))] * 3, path)
        data = bytearray(path.read_bytes())
        # corrupt one value inside the second snapshot
        data[20 + 8 * 5:20 + 8 * 6] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="snapshot 1"):
            read_snapshot_file(path)

    def test_csv_import(self, tmp_path):
        arr = np.arange(8.0).reshape(2, 4)
        p = tmp_path / "snap.csv"
        p.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in arr) + "\n")
        f = read_snapshot_csv(p)
        assert f.nx == 4 and f.ny == 2
        assert np.array_equal(f.grid(), arr)

    def test_csv_import_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\nc,d\n")
        with pytest.raises(SnapshotFormatError):
            read_snapshot_csv(p)
