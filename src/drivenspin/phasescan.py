"""Topological phase classification and the (B, Omega) phase diagram.

A point is classified by which m2 sectors carry a non-vanishing Chern
number; within one sector the two m1 bands always carry opposite signs, so
the class stores the common magnitudes as a pair (c_plus, c_minus).  The
four possible classes are (0,0), (Z,Z), (0,Z) and (Z,0); the last is
unreachable for positive physical parameters, since |Delta_-| < Delta_+
always.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DrivenSpinError
from .geometry import _is_topological, _sector_masks, _transition_distance, chern_lattice
from .qmodel import DriveConfig, StateLabel, _require_int, _sector_ratios
from .spectra import _sector_parameters

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


class PhaseDiagramCell(NamedTuple):
    """One cell of the phase diagram scan.

    ``phase`` is None when the cell could not be classified; ``error`` then
    carries the taxonomy name (OnTransition on a boundary, DegenerateGap
    from the lattice route).
    """

    b: float
    omega: float
    phase: PhaseClass | None
    boundary_distance: float
    error: str | None = None


#: The four classes, indexed by 2 c_plus + c_minus.
_PHASES = tuple(PhaseClass(c_plus, c_minus) for c_plus in (0, 1) for c_minus in (0, 1))


def _boundary_distance(x_plus, x_minus):
    """Distance of sector parameters (floats or arrays) to the nearest transition line."""
    return np.minimum(_transition_distance(x_plus), _transition_distance(x_minus))


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
        return _PHASES[2 * _is_topological(x_plus) + _is_topological(x_minus)]
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
        return _PHASES[2 * mags[+1] + mags[-1]]
    raise ValueError(f"method must be 'closed' or 'lattice', got {method!r}")


def _scan_cell(b, omega, t_lr, phi, method):
    """One cell, classified on its own by ``classify_point``.

    ``scan_diagram`` uses it for every lattice cell; closed cells come from
    the array pass of ``_scan_closed``, which gives the same cell.
    """
    cfg = DriveConfig(b=b, theta=0.0, phi_l=0.0, phi_r=-phi, omega=omega, t_lr=t_lr)
    dist = float(_boundary_distance(*_sector_parameters(cfg, "nonadiabatic")))
    phase = error = None
    try:
        phase = classify_point(cfg, method=method)
    except DrivenSpinError as exc:
        error = type(exc).__name__
    return PhaseDiagramCell(b, omega, phase, dist, error)


def _scan_closed(b_cells, omega_cells, t_lr: float, in_phase: bool):
    """Closed-form (codes, distances, errors) columns of the cells, in one array pass.

    For valid parameters each cell is the one ``_scan_cell`` gives: a cell
    within TRANSITION_TOL of a transition line records OnTransition, and a
    sector parameter that overflows is inf, as Python's float division gives.
    """
    with np.errstate(over="ignore"):
        x_plus, x_minus = _sector_ratios(b_cells, omega_cells, t_lr, in_phase)
    on_plus, top_plus = _sector_masks(x_plus)
    on_minus, top_minus = _sector_masks(x_minus)
    codes = np.where(on_plus | on_minus, len(_PHASES), 2 * top_plus + top_minus)
    return codes, _boundary_distance(x_plus, x_minus), ["OnTransition"]


def _centres(lo: float, hi: float, n: int) -> np.ndarray:
    """Cell centres lo + (i + 0.5) (hi - lo) / n, the width taken first where that overflows."""
    i = np.arange(n) + 0.5
    with np.errstate(over="ignore"):
        span = i * (hi - lo)
        return lo + np.where(np.isfinite(span), span / n, i * ((hi - lo) / n))


def _scan_columns(b_range, omega_range, t_lr, phi, n_b, n_omega, method):
    """The grid of ``scan_diagram`` as columns (b, omega, code, distance, errors).

    b, omega and distance are float64 arrays of the cells in row-major
    order.  A cell's code indexes ``_PHASES``; a cell with no class has code
    ``len(_PHASES) + k`` and failed with the error named ``errors[k]``.
    """
    n_b, n_omega = _require_int("n_b", n_b), _require_int("n_omega", n_omega)
    if n_b < 2 or n_omega < 2:
        raise ValueError("n_b and n_omega must both be at least 2")
    b_lo, b_hi = map(float, b_range)
    w_lo, w_hi = map(float, omega_range)
    if b_hi < b_lo or w_hi < w_lo:
        raise ValueError("ranges must be increasing")
    if b_lo < 0.0 or w_lo < 0.0:
        raise ValueError("ranges must be non-negative")
    # Validate phi once; per-cell errors are recorded, a bad branch is not.
    base = DriveConfig(b=1.0, theta=0.0, phi_l=0.0, phi_r=-phi, t_lr=t_lr)
    in_phase = base.phase_branch() == 0.0
    bs, ws = _centres(b_lo, b_hi, n_b), _centres(w_lo, w_hi, n_omega)
    # Finite ranges give finite centres, a non-finite range none, and b <= 0
    # rows are a prefix: the first cell is invalid if any is, and raises so.
    DriveConfig(b=bs[0], theta=0.0, phi_l=0.0, phi_r=-phi, omega=ws[0], t_lr=t_lr)
    b, omega = np.repeat(bs, ws.size), np.tile(ws, bs.size)
    if method == "closed":
        return b, omega, *_scan_closed(b, omega, base.t_lr, in_phase)
    cells = [_scan_cell(*bw, t_lr, phi, method) for bw in zip(b.tolist(), omega.tolist())]
    errors = list(dict.fromkeys(c.error for c in cells if c.phase is None))
    outcomes = [*_PHASES, *errors]  # a PhaseClass equals no error name
    codes = np.array([outcomes.index(c.phase or c.error) for c in cells])
    return b, omega, codes, np.array([c.boundary_distance for c in cells]), errors


def scan_diagram(
    b_range: tuple[float, float],
    omega_range: tuple[float, float],
    t_lr: float,
    phi: float,
    n_b: int,
    n_omega: int,
    method: str = "closed",
) -> list[PhaseDiagramCell]:
    """Classify a cell-centered grid over (B, Omega).

    Cells are centered inside their intervals, so B = 0 (where the
    dimensionless ratios diverge) is never sampled even when the range
    starts at zero.  Per-cell failures are recorded in the cell, never
    raised; the scan always completes.  Invalid parameters raise
    ValueError: a non-integer n_b or n_omega by its name, a count below 2,
    a bad range, or as the first invalid cell's DriveConfig does.

    The closed method classifies the whole grid in one array pass
    (``_scan_closed``); the lattice method computes one ``chern_lattice``
    per cell through ``_scan_cell``.  ``phase-diagram`` renders the same
    grid from its columns, without building the cells.

    Returns the cells in row-major order (B outer, Omega inner).
    """
    b, omega, codes, distances, errors = _scan_columns(
        b_range, omega_range, t_lr, phi, n_b, n_omega, method
    )
    codes = codes.tolist()
    phases = [*_PHASES, *[None] * len(errors)]
    names = [None] * len(_PHASES) + list(errors)
    return list(map(
        PhaseDiagramCell,
        b.tolist(),
        omega.tolist(),
        map(phases.__getitem__, codes),
        distances.tolist(),
        map(names.__getitem__, codes),
    ))
