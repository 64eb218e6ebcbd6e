"""Desk-scale lab for basis-projected readout of grid-encoded PDE solutions.

Offline: snapshot ensembles, SVD bases, tensor-train compression with an
estimator-driven bond search.  Online: simulated Hadamard-test coefficient
extraction under shot noise with real-space and Fourier-space baselines,
reconstruction, and a three-term error budget.
"""
