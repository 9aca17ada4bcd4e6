"""Geometric phases and topological invariants of a driven two-site spin qubit.

A qubit tunnels between two sites while a circularly polarized field, with
an independent phase offset at each site, drives its spin.  This package
builds the model Hamiltonians, diagonalizes them, and computes the
geometric quantities of the bands (loop phases, curvature, Chern numbers,
the cyclic-evolution phase split) in both the adiabatic and the driven
regime, each by a closed form and by an independent numerical route.
"""

from .errors import (
    AmbiguousMatch,
    DegenerateGap,
    DrivenSpinError,
    NonConverged,
    NotHermitian,
    OnTransition,
    UnsupportedPhase,
    ValidationError,
    ZeroFrequency,
)
from .evolution import (
    PhaseBreakdown,
    dynamical_phase_quadrature,
    extract_phases,
    floquet_residual,
    propagator_exact,
    propagator_rk4,
)
from .geometry import (
    ChernReport,
    aa_phase_closed,
    berry_phase_closed,
    berry_phase_wilson,
    chern_closed,
    chern_lattice,
    circular_distance,
    curvature_closed,
    curvature_numeric,
    fold_phase,
    lattice_flux,
    rotating_sz_expectation,
    wilson_loop_phase,
)
from .phasescan import (
    PhaseClass,
    PhaseDiagramCell,
    classify_point,
    scan_diagram,
)
from .qmodel import (
    LABELS,
    DriveConfig,
    StateLabel,
    build_hamiltonian,
    build_rotating_hamiltonian,
    spin_site_operators,
)
from .spectra import (
    EigenSystem,
    LabeledSpectrum,
    closed_form_adiabatic_energies,
    closed_form_quasienergies,
    eigensystem,
    eigh_stack,
    label_eigenstates,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousMatch",
    "ChernReport",
    "DegenerateGap",
    "DriveConfig",
    "DrivenSpinError",
    "EigenSystem",
    "LABELS",
    "LabeledSpectrum",
    "NonConverged",
    "NotHermitian",
    "OnTransition",
    "PhaseBreakdown",
    "PhaseClass",
    "PhaseDiagramCell",
    "StateLabel",
    "UnsupportedPhase",
    "ValidationError",
    "ZeroFrequency",
    "aa_phase_closed",
    "berry_phase_closed",
    "berry_phase_wilson",
    "build_hamiltonian",
    "build_rotating_hamiltonian",
    "chern_closed",
    "chern_lattice",
    "circular_distance",
    "classify_point",
    "closed_form_adiabatic_energies",
    "closed_form_quasienergies",
    "curvature_closed",
    "curvature_numeric",
    "dynamical_phase_quadrature",
    "eigensystem",
    "eigh_stack",
    "extract_phases",
    "floquet_residual",
    "fold_phase",
    "label_eigenstates",
    "lattice_flux",
    "propagator_exact",
    "propagator_rk4",
    "rotating_sz_expectation",
    "scan_diagram",
    "spin_site_operators",
    "wilson_loop_phase",
]
