"""Shot-sampled readout of a classically known solution state.

Three protocols over the same unit vector x:

* PODR: ancilla statistics of a Hadamard test against each compressed
  basis give the overlap; the solution is rebuilt from the exact bases.
* RSR: Z-basis sampling of all amplitudes, magnitudes from counts, signs
  from the truth when the sign oracle is on (baseline best case).
* FSR (idealized): sampling in the Fourier basis of the flat register,
  keeping modes whose estimated probability clears a cutoff, phases taken
  from the exact spectrum.

Every sampler is deterministic given its integer seed; the per-basis
streams inside PODR split off the seed by basis index, and RSR and FSR share
one frequency sampler.  A PODR report carries the terms of its error
budget E_proj + E_enc + E_sam.

Each protocol takes x as a Target.  A Target checks x's norm once and
computes what does not depend on the shots or the seed on first use, then
keeps it: PODR's overlaps and exact E_proj and E_enc, RSR's probabilities,
FSR's spectrum probabilities and phases.  A sweep prepares each target once
and hands it to every cell, which then only samples and rebuilds; the
expressions are the ones a fresh Target evaluates, so the results are the
same bits.  PODR's overlaps contract the approximants once, through
mps.contract, and drop the dense vectors: a Target keeps its n_b overlaps,
and no approximant carries a 2^n-entry array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FieldError
from .mps import contract
from .pod import PodBasisSet, exact_projection_error

_NORM_TOL = 1e-8


@dataclass(frozen=True)
class ReadoutReport:
    """One readout.  A PODR report also carries n_b and its error budget's
    terms (exact E_proj and E_enc, the sampling bound); RSR and FSR leave them None."""

    n_shot_total: int
    reconstruction: np.ndarray
    epsilon: float
    kept_modes: int | None = None
    n_b: int | None = None
    e_proj: float | None = None
    e_enc: float | None = None
    e_sam_bound: float | None = None


class Target:
    """A unit state x and the shot-independent quantities of its readouts.

    Each quantity is computed the first time a readout asks for it.  PODR's
    terms are kept for one (basis, approximants) pair, matched by identity.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if abs(np.linalg.norm(x) - 1.0) > _NORM_TOL:
            raise FieldError(f"x deviates from unit norm by more than {_NORM_TOL:g}")
        self.x = x
        self._podr = None  # (basis, approximants, overlaps, e_proj, e_enc)

    def podr_terms(self, basis: PodBasisSet, approximants):
        """(overlaps <approx_i, x>, exact E_proj, exact E_enc) for n_b = basis.n_b."""
        kept = self._podr
        if kept is None or kept[0] is not basis or kept[1] is not approximants:
            x = self.x
            dense = np.stack([contract(a) for a in approximants])
            if dense.shape[1] != x.size:
                raise FieldError("approximants do not match the state length")
            overlaps = dense @ x
            e_proj = exact_projection_error(x, basis)
            e_enc = float(np.linalg.norm(basis.modes.T @ x - overlaps))
            self._podr = kept = (basis, approximants, overlaps, e_proj, e_enc)
        return kept[2:]

    @cached_property
    def probabilities(self) -> np.ndarray:
        """|x_j|^2, renormalised: RSR's Z-basis distribution."""
        p = self.x * self.x
        return p / p.sum()

    @cached_property
    def spectrum(self):
        """(probabilities, phases) of the unitary DFT of x, FSR's distribution."""
        spectrum = np.fft.fft(self.x) / math.sqrt(self.x.size)
        q = np.abs(spectrum) ** 2
        q = q / q.sum()
        mags = np.abs(spectrum)
        phases = np.where(mags > 0.0, spectrum / np.where(mags > 0.0, mags, 1.0), 1.0 + 0.0j)
        return q, phases


def coefficient_from_counts(z0: int, n_shot_basis: int) -> float:
    """Estimated coefficient 2 * z0 / n - 1 from ancilla zero counts."""
    return 2.0 * z0 / n_shot_basis - 1.0


def sample_coefficient(p0: float, n_shot_basis: int, rng_seed) -> float:
    """Draw binomial zero counts at probability p0 and convert."""
    if not (0.0 <= p0 <= 1.0):
        raise FieldError(f"p0={p0} outside [0, 1]")
    if n_shot_basis < 1:
        raise FieldError("need at least one shot")
    rng = np.random.default_rng(rng_seed)
    z0 = int(rng.binomial(n_shot_basis, p0))
    return coefficient_from_counts(z0, n_shot_basis)


def _sampling_bound(beta: float, n_b: int, n_shot_total: int) -> float:
    """PODR's Chebyshev-style sampling term beta * sqrt(n_b / shots_per_basis)."""
    return beta * math.sqrt(n_b / (n_shot_total // n_b))


def _frequencies(p: np.ndarray, n_shot_total: int, seed: int) -> np.ndarray:
    """Frequencies of n_shot_total draws from p."""
    if n_shot_total < 1:
        raise FieldError("need at least one shot")
    return np.random.default_rng([seed]).multinomial(n_shot_total, p) / n_shot_total


def podr_readout(
    target: Target,
    basis: PodBasisSet,
    approximants,
    n_shot_total: int,
    seed: int,
    beta: float = 2.0,
) -> ReadoutReport:
    """Estimate the first n_b coefficients and rebuild with the exact bases.

    The shot budget must divide evenly across the bases.  The report
    carries the exact projection and encoding errors of this x and the
    sampling bound beta * sqrt(n_b / shots_per_basis).
    """
    n_b = basis.n_b
    if len(approximants) != n_b:
        raise FieldError(f"{len(approximants)} approximants for n_b={n_b}")
    if n_shot_total % n_b != 0:
        raise FieldError(f"shot budget {n_shot_total} is not divisible by n_b={n_b}")
    n_shot_basis = n_shot_total // n_b

    overlaps, e_proj, e_enc = target.podr_terms(basis, approximants)
    p0s = np.clip(0.5 * (1.0 + overlaps), 0.0, 1.0)
    coeffs = np.array(
        [sample_coefficient(p0s[i], n_shot_basis, [seed, i]) for i in range(n_b)]
    )

    recon = basis.modes @ coeffs
    return ReadoutReport(
        n_shot_total=n_shot_total,
        reconstruction=recon,
        epsilon=float(np.linalg.norm(target.x - recon)),
        n_b=n_b,
        e_proj=e_proj,
        e_enc=e_enc,
        e_sam_bound=_sampling_bound(beta, n_b, n_shot_total),
    )


def rsr_readout(
    target: Target,
    n_shot_total: int,
    seed: int,
    sign_oracle: bool = True,
) -> ReadoutReport:
    """Sample grid indices from |x_j|^2 and estimate magnitudes from counts.

    Z-basis sampling cannot see signs, so by default they come from the true
    state, which makes this baseline optimistic.
    """
    x = target.x
    mags = np.sqrt(_frequencies(target.probabilities, n_shot_total, seed))
    signs = np.where(x < 0.0, -1.0, 1.0) if sign_oracle else np.ones_like(x)
    recon = signs * mags
    return ReadoutReport(
        n_shot_total=n_shot_total,
        reconstruction=recon,
        epsilon=float(np.linalg.norm(x - recon)),
    )


def fsr_readout(
    target: Target,
    n_shot_total: int,
    cutoff: float,
    seed: int,
) -> ReadoutReport:
    """Idealized Fourier-space baseline.

    Samples the unitary-DFT spectrum of x, keeps modes whose estimated
    probability exceeds the cutoff, assigns them sqrt(probability) with
    exact phases, and inverse-transforms.  Reported as "FSR (idealized)" in
    human-readable output; the method tag stays FSR.
    """
    x = target.x
    if not (0.0 < cutoff < 1.0):
        raise FieldError(f"cutoff {cutoff} outside (0, 1)")
    n_pts = x.size
    q, phases = target.spectrum
    q_hat = _frequencies(q, n_shot_total, seed)
    keep = q_hat > cutoff
    kept_spectrum = np.zeros(n_pts, dtype=np.complex128)
    kept_spectrum[keep] = np.sqrt(q_hat[keep]) * phases[keep]
    recon = np.real(np.fft.ifft(kept_spectrum) * math.sqrt(n_pts))
    return ReadoutReport(
        n_shot_total=n_shot_total,
        reconstruction=recon,
        epsilon=float(np.linalg.norm(x - recon)),
        kept_modes=int(keep.sum()),
    )

