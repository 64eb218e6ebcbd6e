"""Tensor-train compression of basis vectors and the bond-dimension search.

A length-2^n vector is factored into n cores of shape (left, 2, right) by a
left-to-right sweep of truncated SVDs.  Core k carries bit k of the flat
index with bit 1 least significant, which matches the row-major x-fastest
grid flattening: the x bits occupy the first cores, the y bits the last.

The encoding-error estimator weighs per-basis overlap defects by the mean
squared snapshot amplitudes sigma_i^2 / m; the search doubles one bond at a
time (powers of two only, as the qubit register forces) until the estimate
clears the requested threshold.

The search does that ascent incrementally.  Each compression, the starting
plan's included, is contracted once, for its overlap row <approx_i, u_j>;
the estimate is a function of the n_b x n_b matrix of those rows, and a
trial doubling is scored by swapping its row into the current matrix, so
the accepted trial's score is the new estimate.
Each sweep remembers the first cut its cap truncated, together with that
cut's factorization, so the doubled compression resumes there without
factoring it again: every earlier cut is the same under chi and 2 chi.
An MpsVector holds only its cores: contract() computes the dense vector on
demand and keeps nothing, so no 2^n-entry array outlives its use.

A wide cut (more columns than rows, as in the first half of the sweep) is
factored as the SVD of its transpose.  numpy hands a wide C-order matrix to
LAPACK's slow path; its transpose is a tall Fortran-order one, about 2-3x
faster at the sweep's shapes.  Each cut writes its carry once, in C order,
so the next cut's reshape is a view, and contract() chains np.dot over each
core's (left, 2 right) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BondSearchError, FieldError, SnapshotFormatError
from .io_util import read_artifact, write_artifact
from .pod import PodBasisSet

MPS_MAGIC = b"PODM"

_RANK_CUTOFF = 1e-14  # relative threshold below which singular values count as zero


def _n_qubits(length: int) -> int:
    n = length.bit_length() - 1
    if length < 2 or (1 << n) != length:
        raise FieldError(f"length {length} is not a power of two >= 2")
    return n


def to_lsb_flat(x: np.ndarray, n: int) -> np.ndarray:
    """Reorder so that a C-order (2,)*n reshape has bit 1 on the first axis."""
    return np.ascontiguousarray(x.reshape((2,) * n, order="F")).reshape(-1)


def from_lsb_flat(y: np.ndarray, n: int) -> np.ndarray:
    return y.reshape((2,) * n).reshape(-1, order="F")


def _svd(mat):
    """Thin SVD (u, s, vt) of mat; a wide mat is factored through its transpose."""
    if mat.shape[1] > mat.shape[0]:
        u, s, vt = np.linalg.svd(mat.T, full_matrices=False)
        return vt.T, s, u.T
    return np.linalg.svd(mat, full_matrices=False)


@dataclass(frozen=True)
class _SweepState:
    """A sweep under cap chi_max as it entered cut, the first cut it truncated.

    cores are the cores left of that cut and factors the untruncated
    (u, s, vt) of the matrix the cut splits (about as large as that matrix).
    When no cut was truncated, cut is n - 1, cores are all n cores and
    factors is None.
    """

    cut: int
    chi_max: int
    cores: list
    factors: tuple | None


@dataclass
class MpsVector:
    """Tensor-train form of a unit vector.

    cores[k] has shape (left_k, 2, right_k) with left_0 = right_{n-1} = 1;
    contract() gives the dense unit-norm vector, computed afresh on each call.
    resume, when set, lets tt_svd continue this sweep under a larger cap.
    """

    n_qubits: int
    cores: list
    resume: _SweepState | None = field(default=None, repr=False, compare=False)


def tt_svd(x, chi_max: int, resume: _SweepState | None = None) -> MpsVector:
    """Left-to-right truncated-SVD sweep; contraction is renormalized.

    Sign-canonical: each core column keeps its largest-magnitude entry
    positive, with the compensating flip pushed into the carry matrix, so
    the contraction always reproduces x/||x|| (up to truncation loss) with
    no global sign flip.

    resume is the .resume of an earlier sweep of the same x under a cap no
    larger than chi_max.  Every cut before its first truncated cut keeps its
    full rank under either cap, so the sweep restarts at that cut, with the
    factorization the earlier sweep made there, and gives the same bytes as a
    fresh one.  The result records its own resume state.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise FieldError(f"expected a vector, got shape {x.shape}")
    n = _n_qubits(x.size)
    if chi_max < 1:
        raise FieldError("chi_max must be at least 1")
    factors = None
    if resume is None:
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            raise FieldError("cannot compress the zero vector")
        start, cores, carry = 0, [], to_lsb_flat(x / norm_x, n)
    elif resume.chi_max > chi_max:
        raise FieldError(f"cannot resume a chi_max {resume.chi_max} sweep under {chi_max}")
    else:
        start, cores, factors = resume.cut, list(resume.cores), resume.factors

    left = cores[-1].shape[2] if cores else 1
    state = None
    for k in range(start, n - 1):
        u, s, vt = factors or _svd(carry.reshape(left * 2, -1))
        factors = None
        keep = max(1, np.count_nonzero(s > s[0] * _RANK_CUTOFF))
        if keep > chi_max and state is None:
            state = _SweepState(k, chi_max, list(cores), (u, s, vt))
        keep = min(keep, chi_max)
        u = u[:, :keep]
        flips = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(keep)])
        flips[flips == 0.0] = 1.0
        cores.append((u * flips).reshape(left, 2, keep))
        # one C-order write; (s * flips) * vt is s * (flips * vt) bit for bit
        carry = np.multiply((s[:keep] * flips)[:, None], vt[:keep],
                            out=np.empty((keep, vt.shape[1])))
        left = keep
    if len(cores) < n:
        last = carry.reshape(left, 2, 1)
        last = last / np.linalg.norm(last)  # earlier cores are left-orthogonal
        cores.append(last)
    if state is None:
        state = _SweepState(n - 1, chi_max, list(cores), None)

    return MpsVector(n_qubits=n, cores=cores, resume=state)


def contract(m: MpsVector) -> np.ndarray:
    """Dense unit-norm contraction, a new array on each call."""
    t = m.cores[0].reshape(2, -1)
    for core in m.cores[1:]:  # the product np.tensordot would form, without its overhead
        t = np.dot(t, core.reshape(core.shape[0], -1)).reshape(-1, core.shape[2])
    flat = t.reshape(-1)
    flat = flat / np.linalg.norm(flat)
    return from_lsb_flat(flat, m.n_qubits)


@dataclass(frozen=True)
class BondPlan:
    """Chosen per-basis bond caps (powers of two) and the final estimate."""

    chis: tuple
    estimated_error: float

    def __post_init__(self):
        for chi in self.chis:
            if chi < 1 or (chi & (chi - 1)) != 0:
                raise FieldError(f"bond dimension {chi} is not a power of two")


def _overlap_row(a: MpsVector, u) -> np.ndarray:
    """<a, u_j> for each column u_j of u, from one contraction of a: one row
    of the overlap matrix _estimate reads."""
    dense = contract(a)
    if dense.size != u.shape[0]:
        raise FieldError(
            f"approximant length {dense.size} does not match basis length {u.shape[0]}")
    return dense @ u


def _estimate(overlaps, s) -> float:
    """The encoding-error estimator, a weighted overlap-defect norm over the
    selected bases, from its overlap matrix overlaps[i, j] = <approx_i, u_j>:

        sqrt( sum_i | s_i - sum_j s_j <approx_i, u_j> |^2 ),  s_i = sigma_i^2 / m.
    """
    return float(np.sqrt(np.sum((s - overlaps @ s) ** 2)))


def search_bond_plan(basis: PodBasisSet, threshold: float, chi_cap: int):
    """Greedy power-of-two ascent of the per-basis bond caps.

    All bonds start at 1.  Each round recompresses one candidate basis at a
    doubled cap and keeps the doubling that lowers the estimator the most
    (ties go to the lowest basis index), stopping when the estimate clears
    the threshold.  Raises BondSearchError with the best estimate reached
    if every basis is already at chi_cap.

    Every compression is contracted once, for its overlap row: the starting
    plan's n_b rows give the starting estimate, and a trial is scored by
    swapping its row into the current overlap matrix, so the accepted
    trial's score is the new estimate.  The bases are basis.modes, all of u
    for a loaded basis.  A doubling resumes the sweep of the current
    approximant, which then drops its resume state.  The approximants
    returned hold only their cores.
    """
    if threshold <= 0:
        raise FieldError("threshold must be positive")
    n = _n_qubits(basis.n)
    if chi_cap < 1 or (chi_cap & (chi_cap - 1)) != 0:
        raise FieldError(f"chi_cap {chi_cap} is not a power of two")
    if chi_cap > 2 ** (n // 2):
        raise FieldError(f"chi_cap {chi_cap} exceeds the maximal cut bond 2^{n // 2}")

    n_b = basis.n_b
    u = basis.modes
    s = basis.sigma[:n_b] ** 2 / basis.m
    chis = [1] * n_b
    approx = [tt_svd(u[:, i], 1) for i in range(n_b)]
    # every row comes from the same one-row product, so equal approximants
    # score equal and ties still go to the lowest index
    rows = np.stack([_overlap_row(a, u) for a in approx])  # rows[i, j] = <approx_i, u_j>
    est = _estimate(rows, s)
    trials = [None] * n_b  # (compression at 2 chis[i], its overlap row)
    while est > threshold:
        best = None
        for i in range(n_b):
            if chis[i] >= chi_cap:
                continue
            if trials[i] is None:
                trial = tt_svd(u[:, i], chis[i] * 2, resume=approx[i].resume)
                approx[i].resume = None
                trials[i] = (trial, _overlap_row(trial, u))
            candidate = rows.copy()
            candidate[i] = trials[i][1]
            e = _estimate(candidate, s)
            if best is None or e < best[0]:
                best = (e, i)
        if best is None:
            raise BondSearchError(
                f"encoding threshold {threshold:g} unreachable at chi_cap {chi_cap} "
                f"(best estimator {est:.3e})",
                best_estimator=est,
                plan=tuple(chis),
            )
        est, i = best
        chis[i] *= 2
        approx[i], rows[i] = trials[i]
        trials[i] = None
    for a in approx:
        a.resume = None
    return BondPlan(chis=tuple(chis), estimated_error=est), approx


def save_mps(m: MpsVector, path) -> str:
    """Persist: magic, header fields n_qubits and core count, then per core
    its left and right bonds (u32) and its float64 payload.  Returns the
    sha256 of the bytes written."""
    arrays = []
    for core in m.cores:
        arrays += [np.array(core.shape[::2], dtype=np.uint32), core]
    return write_artifact(path, MPS_MAGIC, (m.n_qubits, len(m.cores)), arrays)


def _mps(header, payload):
    n_qubits, n_cores = header
    pos = 0
    cores = []
    for k in range(n_cores):
        if pos + 8 > len(payload):
            raise SnapshotFormatError(f"truncated MPS at core {k} header")
        left, right = map(int, np.frombuffer(payload, "<u4", 2, pos))
        pos += 8
        nbytes = left * 2 * right * 8
        if pos + nbytes > len(payload):
            raise SnapshotFormatError(f"truncated MPS at core {k} payload")
        core = np.frombuffer(payload, "<f8", nbytes // 8, pos).reshape(left, 2, right)
        cores.append(core.copy())
        pos += nbytes
    if pos != len(payload):
        raise SnapshotFormatError(f"{len(payload) - pos} trailing bytes in MPS file")
    return MpsVector(n_qubits=n_qubits, cores=cores)


def load_mps(path):
    """(MpsVector, sha256 of the bytes read) of an MPS file."""
    return read_artifact(path, MPS_MAGIC, 2, _mps)
