"""2D incompressible-flow snapshot generation and snapshot file I/O.

Three sources of velocity fields live here:

* a steady lid-driven cavity solver (vorticity-streamfunction form,
  second-order central differences, Thom wall vorticity) that runs Newton's
  method with block-tridiagonal elimination on the discrete steady
  equations, continued in Reynolds number along a fixed ladder (ladder_below),
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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FieldError, SnapshotFormatError
from .io_util import read_artifact, write_artifact

SNAPSHOT_MAGIC = b"PODS"
REYNOLDS_RANGE = (1.0, 5000.0)  # the Reynolds numbers the cavity solver accepts


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
    """Full solver output: (ny, nx) psi and omega grids, velocities, diagnostics.

    residuals[k] is the residual after k Newton steps; iterations counts the
    steps of this solve alone, not those of the solve it started from.
    """

    psi: np.ndarray
    omega: np.ndarray
    u_x: Field2D
    u_y: Field2D
    residuals: np.ndarray
    iterations: int


def _check_reynolds(re):
    low, high = REYNOLDS_RANGE
    if not (low <= re <= high):
        raise FieldError(f"reynolds {re} outside supported range [{low:g}, {high:g}]")


def ladder_below(re):
    """The Reynolds number a solve at re starts from: the largest multiple of
    100 below re, or None (rest) at re <= 100.  Raises FieldError outside
    the solver's range [1, 5000], so no ladder is walked for such an re."""
    _check_reynolds(re)
    return 100 * (math.ceil(re / 100) - 1) if re > 100 else None


def _velocity(psi, dx, dy):
    """Central differences u = psi_y, v = -psi_x inside psi's outer ring."""
    return ((psi[2:, 1:-1] - psi[:-2, 1:-1]) / (2.0 * dy),
            -(psi[1:-1, 2:] - psi[1:-1, :-2]) / (2.0 * dx))


def cavity_velocities(psi):
    """(u_x, u_y) of a cavity stream-function grid: the solver's central
    differences inside, no slip on the walls and the unit lid speed on the
    interior top nodes (the corners stay no-slip)."""
    ny, nx = psi.shape
    u, v = (np.pad(w, 1) for w in _velocity(psi, 1.0 / (nx - 1), 1.0 / (ny - 1)))
    u[-1, 1:-1] = 1.0
    return Field2D.from_grid(u), Field2D.from_grid(v)


def _residuals(psi, omega, nu, dx, dy):
    """Set the Thom wall vorticity (the unit-speed lid on the top row); return
    the interior Poisson and transport residuals, velocities and vorticity
    gradients."""
    cx, cy = 1.0 / (dx * dx), 1.0 / (dy * dy)
    omega[0, :] = -2.0 * psi[1, :] * cy
    omega[-1, :] = -2.0 * psi[-2, :] * cy - 2.0 / dy
    omega[:, 0] = -2.0 * psi[:, 1] * cx
    omega[:, -1] = -2.0 * psi[:, -2] * cx

    def lap(f):
        c = 2.0 * f[1:-1, 1:-1]
        return (f[1:-1, 2:] - c + f[1:-1, :-2]) * cx + (f[2:, 1:-1] - c + f[:-2, 1:-1]) * cy

    u, v = _velocity(psi, dx, dy)
    wx = (omega[1:-1, 2:] - omega[1:-1, :-2]) / (2.0 * dx)
    wy = (omega[2:, 1:-1] - omega[:-2, 1:-1]) / (2.0 * dy)
    return lap(psi) + omega[1:-1, 1:-1], nu * lap(omega) - (u * wx + v * wy), u, v, wx, wy


def _newton_step(f_poisson, f_transport, u, v, wx, wy, nu, dx, dy, store):
    """Solve J delta = F for the interior (psi, omega) by block-Thomas elimination.

    One interior row's psi and omega form one block of unknowns, so J is block
    tridiagonal; the Thom wall terms fold into the diagonal blocks.  store
    (rows, 2m, 2m) receives the eliminated upper blocks."""
    n, m = f_poisson.shape
    cx, cy = 1.0 / (dx * dx), 1.0 / (dy * dy)
    # derivatives of the transport residual by the neighbours' omega and psi
    w_west, w_east = nu * cx + u / (2.0 * dx), nu * cx - u / (2.0 * dx)
    w_south, w_north = nu * cy + v / (2.0 * dy), nu * cy - v / (2.0 * dy)
    p_west, p_east = -wy / (2.0 * dx), wy / (2.0 * dx)
    p_south, p_north = wx / (2.0 * dy), -wx / (2.0 * dy)
    p_diag = np.zeros((n, m))  # through the wall vorticity beside each wall
    p_diag[:, 0] -= 2.0 * cx * w_west[:, 0]
    p_diag[:, -1] -= 2.0 * cx * w_east[:, -1]
    p_diag[0, :] -= 2.0 * cy * w_south[0, :]
    p_diag[-1, :] -= 2.0 * cy * w_north[-1, :]

    i = np.arange(m)
    t = m + i  # transport rows and omega columns of a block
    fixed = np.zeros((2 * m, 2 * m))  # the entries every diagonal block shares
    fixed[i, i] = -2.0 * (cx + cy)
    fixed[i[:-1], i[1:]] = fixed[i[1:], i[:-1]] = cx
    fixed[i, t] = 1.0
    fixed[t, t] = -2.0 * nu * (cx + cy)

    r = np.concatenate([f_poisson, f_transport], axis=1)
    for j in range(n):
        a = fixed.copy()
        a[t, i] = p_diag[j]
        a[t[1:], i[:-1]] = p_west[j, 1:]
        a[t[:-1], i[1:]] = p_east[j, :-1]
        a[t[1:], t[:-1]] = w_west[j, 1:]
        a[t[:-1], t[1:]] = w_east[j, :-1]
        if j:
            c, g = store[j - 1], r[j - 1]
            a[:m] -= cy * c[:m]
            a[m:] -= p_south[j][:, None] * c[:m] + w_south[j][:, None] * c[m:]
            r[j, :m] -= cy * g[:m]
            r[j, m:] -= p_south[j] * g[:m] + w_south[j] * g[m:]
        # [upper block | right-hand side]; the last row's upper block would
        # couple to the lid row, which holds no unknowns, and goes unused
        b = np.zeros((2 * m, 2 * m + 1))
        b[i, i] = cy
        b[t, i] = p_north[j]
        b[t, t] = w_north[j]
        b[:, -1] = r[j]
        x = np.linalg.solve(a, b)
        store[j] = x[:, :-1]
        r[j] = x[:, -1]
    for j in range(n - 2, -1, -1):
        r[j] -= store[j] @ r[j + 1]
    return r[:, :m], r[:, m:]


def _newton(re, nx, ny, tol, max_iters, start):
    """Newton iteration from start (None: rest) until the residual is <= tol."""
    dx, dy, nu = 1.0 / (nx - 1), 1.0 / (ny - 1), 1.0 / re
    psi, omega = np.zeros((2, ny, nx)) if start is None else np.copy(start)
    store = np.empty((ny - 2, 2 * (nx - 2), 2 * (nx - 2)))
    residuals = []
    for it in range(max_iters + 1):
        f_poisson, f_transport, u, v, wx, wy = _residuals(psi, omega, nu, dx, dy)
        res = float(max(np.abs(f_poisson).max(), np.abs(f_transport).max()))
        residuals.append(res)
        if res <= tol:
            return psi, omega, np.array(residuals)
        if not math.isfinite(res):
            why = "diverged"
        elif it == max_iters:
            why = f"did not reach tol={tol:g} within {max_iters} Newton steps"
        else:
            try:
                d_psi, d_omega = _newton_step(
                    f_poisson, f_transport, u, v, wx, wy, nu, dx, dy, store)
            except np.linalg.LinAlgError:
                why = f"met a singular Jacobian block in Newton step {it + 1}"
            else:
                psi[1:-1, 1:-1] -= d_psi
                omega[1:-1, 1:-1] -= d_omega
                continue
        raise ConvergenceError(
            f"cavity solve at Re={re} on {nx}x{ny} {why} (residual {res:.3e})", res, it)


def solve_cavity_run(
    re: float,
    nx: int,
    ny: int,
    tol: float = 1e-6,
    max_iters: int = 400_000,
    start=None,
) -> CavityRun:
    """Solve the steady lid-driven cavity and keep the diagnostics.

    The cavity is the unit square under a lid of unit speed, so re is the
    flow's Reynolds number (nu = 1/re).  Newton's method on the discrete
    steady equations, stopped once the largest interior residual is at most
    tol; max_iters bounds the Newton steps.  start is the (psi, omega) pair
    of (ny, nx) grids to begin from, normally the solution at
    ladder_below(re) with the same other arguments; None begins from rest.
    The result is a pure function of the arguments, bit for bit.
    """
    _check_reynolds(re)
    if nx < 16 or ny < 16:
        raise FieldError(f"grid {nx}x{ny} too coarse, need at least 16 nodes per side")
    if tol <= 0:
        raise FieldError("tol must be positive")
    if not (_is_pow2(nx) and _is_pow2(ny)):
        raise FieldError(f"grid {nx}x{ny} is not a power of two per side")

    psi, omega, residuals = _newton(re, nx, ny, tol, max_iters, start)
    u_x, u_y = cavity_velocities(psi)
    return CavityRun(psi=psi, omega=omega, u_x=u_x, u_y=u_y,
                     residuals=residuals, iterations=len(residuals) - 1)


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
    u, v = _velocity(psi, dx, dy)
    return Field2D.from_grid(u), Field2D.from_grid(v)


def write_snapshot_file(fields, path) -> str:
    """Write fields to the binary snapshot format: magic "PODS", header
    fields count, nx, ny, then count*nx*ny float64 values, snapshots
    concatenated in order.  Returns the sha256 of the bytes written."""
    fields = list(fields)
    if not fields:
        raise SnapshotFormatError("refusing to write an empty snapshot file")
    nx, ny = fields[0].nx, fields[0].ny
    for k, f in enumerate(fields):
        if (f.nx, f.ny) != (nx, ny):
            raise SnapshotFormatError(
                f"dimension mismatch: snapshot {k} is {f.nx}x{f.ny}, expected {nx}x{ny}"
            )
    return write_artifact(path, SNAPSHOT_MAGIC, (len(fields), nx, ny),
                          [f.values for f in fields])


def _snapshots(header, payload):
    count, nx, ny = header
    if count == 0:
        raise SnapshotFormatError("the file holds no snapshots")
    expected = count * nx * ny * 8
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"truncated payload: expected {expected} bytes, found {len(payload)}"
        )
    raw = np.frombuffer(payload, dtype="<f8")
    fields = []
    for k in range(count):
        chunk = raw[k * nx * ny:(k + 1) * nx * ny].copy()
        try:
            fields.append(Field2D(nx=nx, ny=ny, values=chunk))
        except FieldError as exc:
            raise SnapshotFormatError(f"snapshot {k}: {exc}") from exc
    return fields


def read_snapshot_file(path):
    """(list of Field2D, sha256 of the bytes read) of a binary snapshot file."""
    return read_artifact(path, SNAPSHOT_MAGIC, 3, _snapshots)


def read_snapshot_csv(path) -> Field2D:
    """Read one snapshot from a CSV file laid out as ny rows by nx columns."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file is refused below
        try:
            arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise SnapshotFormatError(f"{path}: not a numeric CSV grid ({exc})") from exc
    if arr.size == 0:
        raise SnapshotFormatError(f"{path}: the file holds no values")
    try:
        return Field2D.from_grid(arr)
    except FieldError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from exc

