"""Checks and reference values that only tests use.

No podr command needs these, so they live beside the tests instead of in
the package: the encoding-error estimator of a list of approximants, the
noise-free PODR readout, PODR's error-budget check, the line fit that judges
depth scaling, the interior divergence of a velocity pair, the structural
checks of a tensor train and the arrays an object holds.
"""

import types

import numpy as np

from podreadout.errors import FieldError
from podreadout.mps import _estimate, _overlap_row, contract
from podreadout.readout import _sampling_bound


def enc_error_estimator(basis, approximants) -> float:
    """The encoding-error estimator of approximants of the first
    len(approximants) bases, from the overlap rows mps.search_bond_plan
    scores with: its estimate for the approximants it returns, bit for bit."""
    n_b = len(approximants)
    if n_b == 0 or n_b > basis.u.shape[1]:
        raise FieldError(f"{n_b} approximants for a basis set of {basis.u.shape[1]} bases")
    u = basis.u[:, :n_b]
    rows = np.stack([_overlap_row(a, u) for a in approximants])
    return _estimate(rows, basis.sigma[:n_b] ** 2 / basis.m)


def noise_free_podr(target, basis, approximants):
    """(epsilon, exact E_proj, exact E_enc) of PODR with every overlap known
    exactly: the infinite-shot limit of readout.podr_readout."""
    overlaps, e_proj, e_enc = target.podr_terms(basis, approximants)
    recon = basis.modes @ overlaps
    return float(np.linalg.norm(target.x - recon)), e_proj, e_enc


def error_budget_check(report, beta=None) -> bool:
    """Does a PODR report's epsilon respect e_proj + e_enc + the sampling
    bound, at beta when given, else the report's own e_sam_bound?"""
    if beta is None:
        bound = report.e_sam_bound
    else:
        bound = _sampling_bound(beta, report.n_b, report.n_shot_total)
    return report.epsilon <= report.e_proj + report.e_enc + bound


def affine_fit_r2(xs, ys) -> float:
    """R^2 of the least-squares line through (xs, ys)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    coef = np.polyfit(xs, ys, 1)
    pred = np.polyval(coef, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def divergence_interior(u_x, u_y) -> np.ndarray:
    """Central-difference divergence at interior nodes, shape (ny-2, nx-2)."""
    if (u_x.nx, u_x.ny) != (u_y.nx, u_y.ny):
        raise FieldError("velocity components live on different grids")
    dx = 1.0 / (u_x.nx - 1)
    dy = 1.0 / (u_x.ny - 1)
    u = u_x.grid()
    v = u_y.grid()
    return (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * dx) + (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * dy)


def bond_dims(m) -> tuple:
    """The n - 1 inner bond dimensions of a tensor train."""
    return tuple(core.shape[2] for core in m.cores[:-1])


def validate_mps(m, chi_max: int) -> None:
    """Check bond wiring, the chi cap, and the per-cut dimension bound."""
    n = m.n_qubits
    if len(m.cores) != n:
        raise FieldError(f"{len(m.cores)} cores for {n} qubits")
    if m.cores[0].shape[0] != 1 or m.cores[-1].shape[2] != 1:
        raise FieldError("chain must start and end with bond dimension 1")
    for k in range(n - 1):
        r = m.cores[k].shape[2]
        if r != m.cores[k + 1].shape[0]:
            raise FieldError(f"bond mismatch between cores {k} and {k + 1}")
        if r > chi_max:
            raise FieldError(f"bond {k} exceeds chi_max {chi_max}")
        if r > min(2 ** (k + 1), 2 ** (n - k - 1)):
            raise FieldError(f"bond {k} exceeds the cut dimension bound")
    if abs(np.linalg.norm(contract(m)) - 1.0) > 1e-10:
        raise FieldError("contraction is not unit norm")


def arrays_held(obj) -> list:
    """Every numpy array obj refers to through lists, tuples, dicts and
    instance attributes (not through arrays, classes, modules or functions),
    each once."""
    seen, found, stack = set(), [], [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif hasattr(o, "__dict__"):
            stack.extend(vars(o).values())
    return found
