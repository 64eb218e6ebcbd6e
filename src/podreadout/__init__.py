"""Desk-scale lab for basis-projected readout of grid-encoded PDE solutions.

Offline: snapshot ensembles, SVD bases, tensor-train compression with an
estimator-driven bond search.  Online: simulated Hadamard-test coefficient
extraction under shot noise with real-space and Fourier-space baselines,
reconstruction, and a three-term error budget.
"""

from .circuit import CircuitCost, circuit_cost, cost_model, staircase_layout
from .config import ExperimentConfig, config_from_dict, config_hash, load_config
from .errors import (
    BondSearchError,
    ConfigError,
    ConvergenceError,
    FieldError,
    NumericalError,
    PodrError,
    SnapshotFormatError,
)
from .flow import (
    Field2D,
    read_snapshot_csv,
    read_snapshot_file,
    solve_cavity_run,
    transient_pair,
    write_snapshot_file,
)
from .mps import (
    BondPlan,
    MpsVector,
    contract,
    enc_error_estimator,
    load_mps,
    save_mps,
    search_bond_plan,
    tt_svd,
)
from .pod import (
    PodBasisSet,
    SnapshotMatrix,
    build_snapshot_matrix,
    exact_projection_error,
    load_basis,
    pod_decompose,
    proj_error_estimator,
    save_basis,
    select_nb,
)
from .readout import (
    ErrorBudget,
    ReadoutReport,
    error_budget_check,
    fsr_readout,
    podr_readout,
    rsr_readout,
    sample_coefficient,
)
from .visualize import emit_visual_comparison, stream_function

__all__ = [name for name in dir() if not name.startswith("_")]
