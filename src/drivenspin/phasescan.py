"""Topological phase classification and the (B, Omega) phase diagram.

A point is classified by which m2 sectors carry a non-vanishing Chern
number; within one sector the two m1 bands always carry opposite signs, so
the class stores the common magnitudes as a pair (c_plus, c_minus).  The
four possible classes are (0,0), (Z,Z), (0,Z) and (Z,0); the last is
unreachable for positive physical parameters, since |Delta_-| < Delta_+
always.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DrivenSpinError
from .geometry import (
    _is_topological,
    _sector_parameters,
    _transition_distance,
    chern_lattice,
)
from .qmodel import DriveConfig, StateLabel

DEFAULT_LATTICE_RESOLUTION = 100


@dataclass(frozen=True)
class PhaseClass:
    """|c1| of the m2 = +1 bands and of the m2 = -1 bands."""

    c_plus: int
    c_minus: int

    def __post_init__(self):
        if self.c_plus not in (0, 1) or self.c_minus not in (0, 1):
            raise ValueError(f"class entries must be 0 or 1, got {self}")

    def render(self) -> str:
        return f"({'Z' if self.c_plus else '0'},{'Z' if self.c_minus else '0'})"


@dataclass(frozen=True)
class PhaseDiagramCell:
    """One cell of the phase diagram scan.

    ``phase`` is None when the cell could not be classified; ``error`` then
    carries the taxonomy name (OnTransition on a boundary, DegenerateGap
    from the lattice route).
    """

    b: float
    omega: float
    phase: PhaseClass | None
    method: str
    boundary_distance: float
    error: str | None = None


def _boundary_distance(cfg: DriveConfig) -> float:
    """Distance to the nearest transition line of the active branch."""
    x_plus, x_minus = _sector_parameters(cfg, "nonadiabatic")
    return min(_transition_distance(x_plus), _transition_distance(x_minus))


def classify_point(cfg: DriveConfig, method: str = "closed") -> PhaseClass:
    """Topological class of one parameter point.

    Parameters
    ----------
    cfg : DriveConfig
        Point to classify; phi_l - phi_r must be 0 or pi.
    method : {'closed', 'lattice'}
        Closed-form step functions, or full lattice Chern numbers of the
        cyclic-state bands (identical away from the boundaries).

    Raises
    ------
    OnTransition
        Closed method, a sector parameter on its transition line |x| = 1.
    DegenerateGap
        Lattice method, a grid point with unresolved bands.
    """
    if method == "closed":
        x_plus, x_minus = _sector_parameters(cfg, "nonadiabatic")
        return PhaseClass(
            c_plus=1 if _is_topological(x_plus) else 0,
            c_minus=1 if _is_topological(x_minus) else 0,
        )
    if method == "lattice":
        report = chern_lattice(
            cfg,
            n_theta=DEFAULT_LATTICE_RESOLUTION,
            n_phi=DEFAULT_LATTICE_RESOLUTION,
            regime="nonadiabatic",
        )
        mags = {}
        for m2 in (+1, -1):
            up = report.c1[StateLabel(+1, m2)]
            dn = report.c1[StateLabel(-1, m2)]
            if up + dn != 0 or abs(up) > 1:
                raise DrivenSpinError(
                    f"unexpected lattice invariants in m2={m2:+d} sector: {up}, {dn}"
                )
            mags[m2] = abs(up)
        return PhaseClass(c_plus=mags[+1], c_minus=mags[-1])
    raise ValueError(f"method must be 'closed' or 'lattice', got {method!r}")


def _scan_cell(b, omega, t_lr, phi, method):
    cfg = DriveConfig(b=b, theta=0.0, phi_l=0.0, phi_r=-phi, omega=omega, t_lr=t_lr)
    dist = _boundary_distance(cfg)
    phase = error = None
    try:
        phase = classify_point(cfg, method=method)
    except DrivenSpinError as exc:
        error = type(exc).__name__
    return PhaseDiagramCell(
        b=b, omega=omega, phase=phase, method=method, boundary_distance=dist, error=error
    )


def scan_diagram(
    b_range: tuple[float, float],
    omega_range: tuple[float, float],
    t_lr: float,
    phi: float,
    n_b: int,
    n_omega: int,
    method: str = "closed",
    n_workers: int = 1,
) -> list[PhaseDiagramCell]:
    """Classify a cell-centered grid over (B, Omega).

    Cells are centered inside their intervals, so B = 0 (where the
    dimensionless ratios diverge) is never sampled even when the range
    starts at zero.  Per-cell failures are recorded in the cell, never
    raised; the scan always completes.

    Returns the cells in row-major order (B outer, Omega inner),
    independent of ``n_workers``.
    """
    if n_b < 2 or n_omega < 2:
        raise ValueError("n_b and n_omega must both be at least 2")
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    b_lo, b_hi = map(float, b_range)
    w_lo, w_hi = map(float, omega_range)
    if b_hi < b_lo or w_hi < w_lo:
        raise ValueError("ranges must be increasing")
    if b_lo < 0.0 or w_lo < 0.0:
        raise ValueError("ranges must be non-negative")
    # Validate phi once; per-cell errors are recorded, a bad branch is not.
    DriveConfig(b=1.0, theta=0.0, phi_l=0.0, phi_r=-phi, t_lr=t_lr).phase_branch()
    bs = b_lo + (np.arange(n_b) + 0.5) * (b_hi - b_lo) / n_b
    ws = w_lo + (np.arange(n_omega) + 0.5) * (w_hi - w_lo) / n_omega
    tasks = [(float(b), float(w)) for b in bs for w in ws]
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            cells = list(
                pool.map(lambda bw: _scan_cell(bw[0], bw[1], t_lr, phi, method), tasks)
            )
    else:
        cells = [_scan_cell(b, w, t_lr, phi, method) for b, w in tasks]
    return cells
