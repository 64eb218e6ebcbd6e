"""2D incompressible-flow snapshot generation and snapshot file I/O.

Three sources of velocity fields live here:

* a steady lid-driven cavity solver (vorticity-streamfunction form,
  second-order central differences, red-black SOR for the Poisson solve,
  pseudo-time marching to steady state),
* a synthetic time-periodic ensemble built from an analytic stream
  function (four traveling vortex modes), and
* a binary/CSV ingestion path for externally computed snapshots.

Grids are node-based on the unit square: x_i = i/(nx-1), y_j = j/(ny-1).
Flattened fields are row-major with x fastest, so values[j*nx + i] is the
node (x_i, y_j).  That ordering matches the x-bits-before-y-bits register
layout used by the encoding stage.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, FieldError, SnapshotFormatError
from .io_util import atomic_write_bytes

SNAPSHOT_MAGIC = b"PODS"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class Field2D:
    """A real scalar field on an nx-by-ny uniform grid.

    values is a 1D float64 array of length nx*ny, row-major with x fastest.
    All values must be finite; grid sizes only need to be powers of two
    once the field reaches the encoding stage, not here.
    """

    nx: int
    ny: int
    values: np.ndarray

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise FieldError(f"grid must be positive, got {self.nx}x{self.ny}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size != self.nx * self.ny:
            raise FieldError(
                f"expected {self.nx * self.ny} values for a {self.nx}x{self.ny} "
                f"grid, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise FieldError(f"non-finite value at flat index {bad}")
        object.__setattr__(self, "values", vals)

    def grid(self) -> np.ndarray:
        """Return a (ny, nx) view; row j holds the nodes at y_j."""
        return self.values.reshape(self.ny, self.nx)

    @classmethod
    def from_grid(cls, arr) -> "Field2D":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise FieldError(f"expected a 2D array, got shape {a.shape}")
        return cls(nx=a.shape[1], ny=a.shape[0], values=a.reshape(-1).copy())


def _is_pow2(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


@dataclass
class CavityRun:
    """Full solver output: velocity fields plus convergence diagnostics."""

    u_x: Field2D
    u_y: Field2D
    psi: np.ndarray
    omega: np.ndarray
    residuals: np.ndarray
    iterations: int


def _interp_axis(arr: np.ndarray, n_dst: int, axis: int) -> np.ndarray:
    """Linear interpolation from one node grid to another along one axis."""
    n_src = arr.shape[axis]
    src = np.linspace(0.0, 1.0, n_src)
    dst = np.linspace(0.0, 1.0, n_dst)
    idx = np.clip(np.searchsorted(src, dst) - 1, 0, n_src - 2)
    w = (dst - src[idx]) / (src[idx + 1] - src[idx])
    a = np.moveaxis(arr, axis, 0)
    out = a[idx] * (1.0 - w)[:, None] + a[idx + 1] * w[:, None]
    return np.moveaxis(out, 0, axis)


def _prolong(field: np.ndarray, ny: int, nx: int) -> np.ndarray:
    return _interp_axis(_interp_axis(field, ny, 0), nx, 1)


def _interior_blocks(ny, nx):
    """Checkerboard slices for red-black SOR: (rows, cols, row+-1, col+-1)."""
    blocks = []
    for j0, i0 in ((1, 1), (2, 2), (1, 2), (2, 1)):
        blocks.append((
            slice(j0, ny - 1, 2), slice(i0, nx - 1, 2),
            slice(j0 - 1, ny - 2, 2), slice(j0 + 1, ny, 2),
            slice(i0 - 1, nx - 2, 2), slice(i0 + 1, nx, 2),
        ))
    return blocks


def _sor_sweep(psi, rhs, cx, cy, inv_denom, w, blocks):
    """One red-black SOR sweep for lap(psi) = -rhs on the interior."""
    for rows, cols, rows_m, rows_p, cols_m, cols_p in blocks:
        p = psi[rows, cols]
        gs = (
            cx * (psi[rows, cols_m] + psi[rows, cols_p])
            + cy * (psi[rows_m, cols] + psi[rows_p, cols])
            + rhs[rows, cols]
        ) * inv_denom
        psi[rows, cols] = p + w * (gs - p)


def _march(re, nx, ny, tol, max_iters, lid, psi0=None, omega0=None, sor_sweeps=2):
    dx = 1.0 / (nx - 1)
    dy = 1.0 / (ny - 1)
    nu = 1.0 / re
    dt_diff = 0.5 * dx * dx * dy * dy / (nu * (dx * dx + dy * dy))
    dt_adv = min(dx, dy) / max(abs(lid), 1e-12)
    # transient overshoots shrink the stability margin once the cell
    # Reynolds number gets large (coarse grid, high Re)
    cell_re = re * abs(lid) * max(dx, dy)
    safety = 0.8 if cell_re <= 20.0 else 0.4
    dt = safety * min(dt_diff, dt_adv)

    psi = np.zeros((ny, nx)) if psi0 is None else psi0.copy()
    omega = np.zeros((ny, nx)) if omega0 is None else omega0.copy()
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0

    cx = 1.0 / (dx * dx)
    cy = 1.0 / (dy * dy)
    inv_denom = 1.0 / (2.0 * (cx + cy))
    # SOR factor for the 5-point Laplacian on this grid
    rho_j = (math.cos(math.pi / (nx - 1)) + (dx / dy) ** 2 * math.cos(math.pi / (ny - 1))) / (
        1.0 + (dx / dy) ** 2
    )
    w_sor = 2.0 / (1.0 + math.sqrt(max(1.0 - rho_j * rho_j, 0.0)))
    blocks = _interior_blocks(ny, nx)

    residuals = np.empty(max_iters)
    it = 0
    for it in range(1, max_iters + 1):
        # a couple of warm-started sweeps per pseudo-step track the slowly
        # drifting vorticity closely enough; psi converges jointly with omega
        for _ in range(sor_sweeps):
            _sor_sweep(psi, omega, cx, cy, inv_denom, w_sor, blocks)

        # wall vorticity (Thom), lid moves along the top row
        omega[0, :] = 2.0 * (psi[0, :] - psi[1, :]) * cy
        omega[-1, :] = 2.0 * (psi[-1, :] - psi[-2, :]) * cy - 2.0 * lid / dy
        omega[:, 0] = 2.0 * (psi[:, 0] - psi[:, 1]) * cx
        omega[:, -1] = 2.0 * (psi[:, -1] - psi[:, -2]) * cx

        u = (psi[2:, 1:-1] - psi[:-2, 1:-1]) / (2.0 * dy)
        v = -(psi[1:-1, 2:] - psi[1:-1, :-2]) / (2.0 * dx)
        dwdx = (omega[1:-1, 2:] - omega[1:-1, :-2]) / (2.0 * dx)
        dwdy = (omega[2:, 1:-1] - omega[:-2, 1:-1]) / (2.0 * dy)
        lap = (omega[1:-1, 2:] - 2.0 * omega[1:-1, 1:-1] + omega[1:-1, :-2]) * cx + (
            omega[2:, 1:-1] - 2.0 * omega[1:-1, 1:-1] + omega[:-2, 1:-1]
        ) * cy
        rate = nu * lap - (u * dwdx + v * dwdy)
        omega[1:-1, 1:-1] += dt * rate

        res = float(np.abs(rate).max())
        residuals[it - 1] = res
        if not math.isfinite(res):
            raise ConvergenceError(
                f"cavity solve diverged at Re={re} on {nx}x{ny} (iteration {it})",
                residual=res,
                iterations=it,
            )
        if res <= tol:
            break
    else:
        raise ConvergenceError(
            f"cavity solve did not reach tol={tol:g} within {max_iters} iterations "
            f"(final residual {residuals[max_iters - 1]:.3e})",
            residual=float(residuals[max_iters - 1]),
            iterations=max_iters,
        )
    return psi, omega, residuals[:it].copy(), it


def solve_cavity_run(
    re: float,
    nx: int,
    ny: int,
    tol: float = 1e-6,
    max_iters: int = 400_000,
    lid_speed: float = 1.0,
    encode_bound: bool = True,
) -> CavityRun:
    """Solve the steady lid-driven cavity and keep the diagnostics.

    Grids of 128 nodes or more per side are warm-started from a solve at
    half resolution (grid sequencing); the final march still satisfies the
    requested residual tolerance on the target grid.  Deterministic for
    fixed inputs.
    """
    if not (1.0 <= re <= 5000.0):
        raise FieldError(f"reynolds {re} outside supported range [1, 5000]")
    if nx < 16 or ny < 16:
        raise FieldError(f"grid {nx}x{ny} too coarse, need at least 16 nodes per side")
    if tol <= 0:
        raise FieldError("tol must be positive")
    if encode_bound and not (_is_pow2(nx) and _is_pow2(ny)):
        raise FieldError(
            f"grid {nx}x{ny} is not a power of two per side; pass "
            "encode_bound=False for grids that will not be encoded"
        )

    psi0 = omega0 = None
    if nx >= 128 and ny >= 128 and nx % 2 == 0 and ny % 2 == 0:
        coarse = solve_cavity_run(
            re, nx // 2, ny // 2, tol=tol, max_iters=max_iters,
            lid_speed=lid_speed, encode_bound=False,
        )
        psi0 = _prolong(coarse.psi, ny, nx)
        omega0 = _prolong(coarse.omega, ny, nx)
        psi0[0, :] = psi0[-1, :] = 0.0
        psi0[:, 0] = psi0[:, -1] = 0.0

    psi, omega, residuals, iters = _march(re, nx, ny, tol, max_iters, lid_speed, psi0, omega0)

    dx = 1.0 / (nx - 1)
    dy = 1.0 / (ny - 1)
    u = np.zeros((ny, nx))
    v = np.zeros((ny, nx))
    u[1:-1, 1:-1] = (psi[2:, 1:-1] - psi[:-2, 1:-1]) / (2.0 * dy)
    v[1:-1, 1:-1] = -(psi[1:-1, 2:] - psi[1:-1, :-2]) / (2.0 * dx)
    u[-1, 1:-1] = lid_speed  # lid value at interior top nodes; corners stay no-slip
    return CavityRun(
        u_x=Field2D.from_grid(u),
        u_y=Field2D.from_grid(v),
        psi=psi,
        omega=omega,
        residuals=residuals,
        iterations=iters,
    )


# Traveling-vortex surrogate: fixed irrational wavenumbers in x keep the
# spatial frequencies incommensurate; integer windings share one period.
_MODE_FREQ_X = (math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(7.0))
_MODE_FREQ_Y = (1, 2, 3, 2)
_MODE_WINDING = (1, 2, 3, 5)


def _transient_modes(seed: int):
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.1, 0.3, size=4)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
    return amps, phases


def transient_pair(step: int, period: int, nx: int, ny: int, seed: int):
    """One synthetic velocity snapshot (u_x, u_y) at the given time step.

    The stream function is evaluated on a one-node ghost ring so all node
    velocities are central differences of sampled psi; the interior discrete
    divergence then cancels to round-off.  Phases depend on step mod period
    only, which makes the sequence exactly periodic, bit for bit.
    """
    if period < 2:
        raise FieldError("period must be at least 2")
    if step < 0:
        raise FieldError("step must be nonnegative")
    amps, phases = _transient_modes(seed)
    tau = (step % period) / period

    dx = 1.0 / (nx - 1)
    dy = 1.0 / (ny - 1)
    x = (np.arange(-1, nx + 1) * dx)[None, :]
    y = (np.arange(-1, ny + 1) * dy)[:, None]
    psi = np.zeros((ny + 2, nx + 2))
    for k in range(4):
        psi += (
            amps[k]
            * np.sin(2.0 * math.pi * _MODE_FREQ_X[k] * x
                     - 2.0 * math.pi * _MODE_WINDING[k] * tau
                     + phases[k])
            * np.sin(math.pi * _MODE_FREQ_Y[k] * y)
        )
    u = (psi[2:, 1:-1] - psi[:-2, 1:-1]) / (2.0 * dy)
    v = -(psi[1:-1, 2:] - psi[1:-1, :-2]) / (2.0 * dx)
    return Field2D.from_grid(u), Field2D.from_grid(v)


def write_snapshot_file(fields, path) -> None:
    """Write fields to the binary snapshot format (little-endian).

    Layout: magic "PODS", version u32, count u32, nx u32, ny u32, then
    count*nx*ny float64 values, snapshots concatenated in order.
    """
    fields = list(fields)
    if not fields:
        raise SnapshotFormatError("refusing to write an empty snapshot file")
    nx, ny = fields[0].nx, fields[0].ny
    for k, f in enumerate(fields):
        if (f.nx, f.ny) != (nx, ny):
            raise SnapshotFormatError(
                f"dimension mismatch: snapshot {k} is {f.nx}x{f.ny}, expected {nx}x{ny}"
            )
    header = SNAPSHOT_MAGIC + struct.pack("<IIII", SNAPSHOT_VERSION, len(fields), nx, ny)
    payload = np.concatenate([f.values for f in fields]).astype("<f8").tobytes()
    atomic_write_bytes(path, header + payload)


def read_snapshot_file(path):
    """Read a binary snapshot file back into a list of Field2D."""
    data = Path(path).read_bytes()
    if len(data) < 20:
        raise SnapshotFormatError(f"truncated header: {len(data)} bytes, need 20")
    if data[:4] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"bad magic {data[:4]!r}, expected {SNAPSHOT_MAGIC!r}")
    version, count, nx, ny = struct.unpack("<IIII", data[4:20])
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version}")
    expected = 20 + count * nx * ny * 8
    if len(data) != expected:
        raise SnapshotFormatError(
            f"truncated payload: expected {expected} bytes, found {len(data)}"
        )
    raw = np.frombuffer(data, dtype="<f8", offset=20)
    fields = []
    for k in range(count):
        chunk = raw[k * nx * ny:(k + 1) * nx * ny].copy()
        try:
            fields.append(Field2D(nx=nx, ny=ny, values=chunk))
        except FieldError as exc:
            raise FieldError(f"snapshot {k}: {exc}") from exc
    return fields


def read_snapshot_csv(path) -> Field2D:
    """Read one snapshot from a CSV file laid out as ny rows by nx columns."""
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: not a numeric CSV grid ({exc})") from exc
    try:
        return Field2D.from_grid(arr)
    except FieldError as exc:
        raise FieldError(f"{path}: {exc}") from exc


def divergence_interior(u_x: Field2D, u_y: Field2D) -> np.ndarray:
    """Central-difference divergence at interior nodes, shape (ny-2, nx-2)."""
    if (u_x.nx, u_x.ny) != (u_y.nx, u_y.ny):
        raise FieldError("velocity components live on different grids")
    dx = 1.0 / (u_x.nx - 1)
    dy = 1.0 / (u_x.ny - 1)
    u = u_x.grid()
    v = u_y.grid()
    return (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * dx) + (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * dy)

