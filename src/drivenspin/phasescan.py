"""Topological phase classification and the (B, Omega) phase diagram.

A point is classified by which m2 sectors carry a non-vanishing Chern
number; within one sector the two m1 bands always carry opposite signs, so
the class stores the common magnitudes as a pair (c_plus, c_minus).  The
four possible classes are (0,0), (Z,Z), (0,Z) and (Z,0); the last is
unreachable for positive physical parameters, since |Delta_-| < Delta_+
always.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DrivenSpinError, ValidationError
from .geometry import (
    _is_topological,
    _sector_masks,
    _strip_chern,
    _transition_distance,
    chern_lattice,
)
from .qmodel import LABELS, DriveConfig, _require_int, _sector_ratios
from .spectra import _sector_parameters

DEFAULT_LATTICE_RESOLUTION = 100


@dataclass(frozen=True)
class PhaseClass:
    """|c1| of the m2 = +1 bands and of the m2 = -1 bands."""

    c_plus: int
    c_minus: int

    def __post_init__(self):
        if self.c_plus not in (0, 1) or self.c_minus not in (0, 1):
            raise ValidationError(f"class entries must be 0 or 1, got {self}")

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
        c1 = np.array([report.c1[lab] for lab in LABELS])
        code = int(_lattice_codes(c1))
        if code < 0:
            raise DrivenSpinError(f"unexpected lattice invariants {c1.tolist()} in LABELS order")
        return _PHASES[code]
    raise ValidationError(f"method must be 'closed' or 'lattice', got {method!r}")


def _lattice_codes(c1):
    """Class codes (indices into ``_PHASES``) of lattice Chern numbers c1 (..., 4),
    LABELS order: 2 |c1(+1, +1)| + |c1(+1, -1)|, or -1 where the two m1 bands of
    an m2 sector do not cancel or exceed 1 in magnitude."""
    up, dn = c1[..., :2], c1[..., 2:]  # m1 = +1 and m1 = -1, each m2 = +1, -1
    ok = np.all((up + dn == 0) & (np.abs(up) <= 1), axis=-1)
    return np.where(ok, 2 * np.abs(up[..., 0]) + np.abs(up[..., 1]), -1)


def _scan_cell(b, omega, t_lr, phi, method):
    """One cell, classified on its own by ``classify_point``: the per-cell
    reference that the tests hold both array scans to."""
    cfg = DriveConfig(b=b, theta=0.0, phi_l=0.0, phi_r=-phi, omega=omega, t_lr=t_lr)
    dist = float(_boundary_distance(*_sector_parameters(cfg, "nonadiabatic")))
    phase = error = None
    try:
        phase = classify_point(cfg, method=method)
    except DrivenSpinError as exc:
        error = type(exc).__name__
    return PhaseDiagramCell(b, omega, phase, dist, error)


def _scan_closed(x_plus, x_minus):
    """Closed-form (codes, errors) of the cells with sector parameters x_plus,
    x_minus: a cell within TRANSITION_TOL of a transition line records
    OnTransition, as ``_scan_cell`` does."""
    on_plus, top_plus = _sector_masks(x_plus)
    on_minus, top_minus = _sector_masks(x_minus)
    return np.where(on_plus | on_minus, len(_PHASES), 2 * top_plus + top_minus), ["OnTransition"]


#: Cells of one block of the lattice scan, classified from one eigensolve of
#: their _LATTICE_BLOCK * DEFAULT_LATTICE_RESOLUTION rotating-frame
#: Hamiltonians.  A block peaks at 7.8 MiB (tracemalloc), a third of the
#: 400x400 adiabatic ``chern``'s; blocks of 32 to 128 cells took as long.
_LATTICE_BLOCK = 64


def _scan_lattice(b, omega, base):
    """Lattice (codes, errors) of the cells, in blocks of _LATTICE_BLOCK cells.

    Each block is one call of ``chern_lattice``'s strip kernel on drive
    ``base`` at the block's b and omega, which codes each cell's first
    failing check from the block's one eigensolve and builds its error
    there.  A cell records the name of that error, or else of the
    DrivenSpinError that classify_point raises for invariants that do not
    cancel.  Error names are listed in row-major order of first appearance.
    """
    codes, errors = np.empty(len(b), dtype=int), {}
    for start in range(0, len(b), _LATTICE_BLOCK):
        block = slice(start, start + _LATTICE_BLOCK)
        cfg = copy.copy(base)  # a block of drives, unvalidated
        cfg.__dict__.update(b=b[block, None], omega=omega[block, None])
        c1, _, failures = _strip_chern(cfg, DEFAULT_LATTICE_RESOLUTION, DEFAULT_LATTICE_RESOLUTION)
        codes[block] = _lattice_codes(c1)
        for i in np.flatnonzero(codes[block] < 0):
            name = type(failures.get((i,), DrivenSpinError())).__name__
            codes[start + i] = len(_PHASES) + errors.setdefault(name, len(errors))
    return codes, list(errors)


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
        raise ValidationError("n_b and n_omega must both be at least 2")
    b_lo, b_hi = map(float, b_range)
    w_lo, w_hi = map(float, omega_range)
    if b_hi < b_lo or w_hi < w_lo:
        raise ValidationError("ranges must be increasing")
    if b_lo < 0.0 or w_lo < 0.0:
        raise ValidationError("ranges must be non-negative")
    # Validate phi once; per-cell errors are recorded, a bad branch is not.
    base = DriveConfig(b=1.0, theta=0.0, phi_l=0.0, phi_r=-phi, t_lr=t_lr)
    in_phase = base.phase_branch() == 0.0
    bs, ws = _centres(b_lo, b_hi, n_b), _centres(w_lo, w_hi, n_omega)
    # Finite ranges give finite centres, a non-finite range none, and b <= 0
    # rows are a prefix: the first cell is invalid if any is, and raises so.
    DriveConfig(b=bs[0], theta=0.0, phi_l=0.0, phi_r=-phi, omega=ws[0], t_lr=t_lr)
    b, omega = np.repeat(bs, ws.size), np.tile(ws, bs.size)
    # a sector parameter that overflows is inf, as Python's float division gives
    with np.errstate(over="ignore"):
        x_plus, x_minus = _sector_ratios(b, omega, base.t_lr, in_phase)
    if method == "closed":
        codes, errors = _scan_closed(x_plus, x_minus)
    elif method == "lattice":
        codes, errors = _scan_lattice(b, omega, base)
    else:
        raise ValidationError(f"method must be 'closed' or 'lattice', got {method!r}")
    return b, omega, codes, _boundary_distance(x_plus, x_minus), errors


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
    ValidationError: a non-integer n_b or n_omega by its name, a count below 2,
    a bad range, or as the first invalid cell's DriveConfig does.

    The closed method classifies the whole grid in one array pass
    (``_scan_closed``).  The lattice method runs ``chern_lattice``'s
    nonadiabatic strip kernel on blocks of _LATTICE_BLOCK cells, each from
    one eigensolve (``_scan_lattice``), and reads a failing cell's error
    name from the kernel's code of its first failing check, with no cell
    solved again, so every cell and error name is the per-cell route's.
    Either way the boundary distances are one array expression.
    ``phase-diagram`` renders the same grid from its columns, without
    building the cells.

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
