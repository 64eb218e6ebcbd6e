"""Snapshot matrix assembly, SVD-based basis extraction, and error estimators.

unit_vector is the one normalization, of snapshots and readout targets alike;
build_snapshot_matrix stacks unit vectors as the columns of a plain
column-major (n, m) array and is the one check of a snapshot matrix (Field2D
keeps values finite).
Its left singular vectors are the spatial bases; the tail of the singular
spectrum drives both the truncation estimator and the basis count choice.
A basis file keeps all m singular values, which the estimators read, but
only the n_b selected modes, the columns every later stage reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FieldError, SnapshotFormatError
from .io_util import read_artifact, write_artifact

BASIS_MAGIC = b"PODB"


@dataclass(frozen=True)
class PodBasisSet:
    """Left singular vectors and all m singular values of a snapshot matrix,
    plus the selected basis count n_b.

    u has orthonormal columns (the spatial bases) and sigma is non-increasing.
    pod_decompose keeps all m columns of u and sets n_b = m, which select_nb
    narrows; a loaded basis holds only its first n_b columns, C-ordered, so
    no n_b above them can be selected.
    """

    u: np.ndarray
    sigma: np.ndarray
    n_b: int

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.sigma.shape[0]

    @property
    def modes(self) -> np.ndarray:
        """The n_b selected bases, u[:, :n_b]: all of u for a loaded basis."""
        return self.u[:, :self.n_b]

    def with_nb(self, n_b: int) -> "PodBasisSet":
        if not (1 <= n_b <= self.u.shape[1]):
            raise FieldError(f"n_b={n_b} outside [1, {self.u.shape[1]}]")
        return replace(self, n_b=n_b)


def unit_vector(field, name: str) -> np.ndarray:
    """field's values over their L2 norm; name says whose norm is refused."""
    with np.errstate(over="ignore"):  # an overflowing norm is refused here
        nrm = np.linalg.norm(field.values)
    if nrm in (0.0, np.inf):
        raise FieldError(f"{name}: {'zero' if nrm == 0.0 else 'infinite'} norm, "
                         "cannot normalize")
    return field.values / nrm


def build_snapshot_matrix(fields) -> np.ndarray:
    """Flatten fields row-major, normalize each to unit L2, keep order: an
    (n, m) array with m < n."""
    fields = list(fields)
    if not fields:
        raise FieldError("no snapshots given")
    shape = (fields[0].nx, fields[0].ny)
    n, m = shape[0] * shape[1], len(fields)
    if m >= n:
        raise FieldError(f"need more grid points than snapshots, got n={n}, m={m}")
    data = np.empty((n, m), order="F")  # contiguous columns, LAPACK's own layout
    for k, f in enumerate(fields):
        if (f.nx, f.ny) != shape:
            raise FieldError(
                f"snapshot {k} is {f.nx}x{f.ny}, expected {shape[0]}x{shape[1]}"
            )
        data[:, k] = unit_vector(f, f"snapshot {k}")
    return data


def pod_decompose(s: np.ndarray) -> PodBasisSet:
    """Thin SVD with a fixed sign convention.

    Each left singular vector is flipped so its largest-magnitude entry is
    positive (ties broken by lowest index).  The right singular vectors are
    dropped: no stage reads them.
    """
    n, m = s.shape
    try:
        u, sigma, _ = np.linalg.svd(s, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FieldError(f"SVD failed on {n}x{m} snapshot matrix: {exc}") from exc
    signs = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    u *= signs  # a sign flip is exact, so this equals negating the flipped columns
    return PodBasisSet(u=u, sigma=sigma, n_b=m)


def proj_error_estimator(sigma, m: int, n_b: int) -> float:
    """sqrt of the mean discarded energy: sqrt(sum_{i>n_b} sigma_i^2 / m)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (m,):
        raise FieldError(f"expected {m} singular values, got {sigma.shape}")
    if not (1 <= n_b <= m):
        raise FieldError(f"n_b={n_b} outside [1, {m}]")
    return float(np.sqrt(np.sum(sigma[n_b:] ** 2) / m))


def select_nb(sigma, m: int, threshold: float) -> int:
    """Smallest n_b whose estimator falls to the threshold (m if none)."""
    if threshold <= 0:
        raise FieldError("threshold must be positive")
    for n_b in range(1, m + 1):
        if proj_error_estimator(sigma, m, n_b) <= threshold:
            return n_b
    return m


def exact_projection_error(x, basis: PodBasisSet, n_b: int | None = None) -> float:
    """L2 residual of x after orthogonal projection onto the first n_b bases
    (by default the basis's own n_b)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (basis.n,):
        raise FieldError(f"vector length {x.shape} does not match basis length {basis.n}")
    un = (basis if n_b is None else basis.with_nb(n_b)).modes
    return float(np.linalg.norm(x - un @ (un.T @ x)))


def save_basis(basis: PodBasisSet, path) -> str:
    """Persist: magic, header fields n, m, n_b, then sigma (all m values) and
    the n_b selected columns of u, column-major.  Returns the sha256 of the
    bytes written."""
    # modes.T in C order is u[:, :n_b] column-major
    return write_artifact(path, BASIS_MAGIC, (basis.n, basis.m, basis.n_b),
                          (basis.sigma, basis.modes.T))


def _basis(header, payload):
    n, m, n_b = header
    if not 1 <= n_b <= m < n:
        raise SnapshotFormatError(f"header n={n}, m={m}, n_b={n_b}: need 1 <= n_b <= m < n")
    expected = 8 * (m + n * n_b)
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"basis payload of {len(payload)} bytes, expected {expected} for n={n}, n_b={n_b}")
    raw = np.frombuffer(payload, dtype="<f8")
    sigma = raw[:m].copy()
    # C order: an F-order u changes the last bits of the bond search's estimates
    u = raw[m:].reshape((n, n_b), order="F").copy(order="C")
    return PodBasisSet(u=u, sigma=sigma, n_b=n_b)


def load_basis(path):
    """(PodBasisSet, sha256 of the bytes read) of a basis file."""
    return read_artifact(path, BASIS_MAGIC, 3, _basis)
