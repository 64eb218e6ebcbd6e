"""Staircase layout of MPS cores and a closed-form elementary-gate cost model.

Each core becomes one unitary block on ceil(log2(chi_core)) + 1 contiguous
qubits, chi_core being the larger of its two bonds.  Costs count CNOTs per
block from a quantum-Shannon-style bound, with the known tight value for
two-qubit blocks, and fold single-qubit layers at three per CNOT.  Absolute
depths are model-defined; only the scaling in the register size is meant to
be compared against anything external.

The module only prices circuits; the depth study that runs the offline
stage across grid sizes is pipeline.run_depth_study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FieldError
from .mps import MpsVector


@dataclass(frozen=True)
class CircuitCost:
    n_qubits: int
    per_core_qubit_counts: tuple
    two_qubit_gate_count: int
    depth: int


def staircase_layout(m: MpsVector):
    """One (core_index, qubit_tuple) block per core, staircase-ordered.

    Qubit k carries bit k of the flat grid index (x bits low, then y bits).
    Block k is anchored at qubit k and shifted left at the register end so
    it stays inside the chain; consecutive blocks overlap on the qubits
    that carry the shared bond.
    """
    n = m.n_qubits
    layout = []
    for k, core in enumerate(m.cores):
        chi_core = max(core.shape[0], core.shape[2])
        width = _block_width(chi_core)
        start = min(k, n - width)
        layout.append((k, tuple(range(start, start + width))))
    return layout


def _block_width(chi_core: int) -> int:
    return int(math.ceil(math.log2(chi_core))) + 1 if chi_core > 1 else 1


def block_two_qubit_count(width: int) -> int:
    """CNOTs to synthesize one width-qubit unitary under the model."""
    if width < 1:
        raise FieldError(f"block width {width} invalid")
    if width == 1:
        return 0
    if width == 2:
        return 3  # tight two-qubit bound; the generic formula would give 9
    return math.ceil(0.75 * (4**width - 2**width))


def block_depth(width: int) -> int:
    # 3 single-qubit layers fold around every CNOT; a lone qubit still
    # needs its 3 Euler layers
    g = block_two_qubit_count(width)
    return 4 * g if width >= 2 else 3


def cost_model(layout) -> CircuitCost:
    """Deterministic cost of a staircase layout; blocks run serially."""
    if not layout:
        raise FieldError("empty layout")
    widths = [len(qubits) for _, qubits in layout]
    n_qubits = 1 + max(q for _, qubits in layout for q in qubits)
    two = sum(block_two_qubit_count(w) for w in widths)
    depth = sum(block_depth(w) for w in widths)
    return CircuitCost(
        n_qubits=n_qubits,
        per_core_qubit_counts=tuple(widths),
        two_qubit_gate_count=two,
        depth=depth,
    )


def circuit_cost(m: MpsVector) -> CircuitCost:
    return cost_model(staircase_layout(m))

