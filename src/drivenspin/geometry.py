"""Geometric phases, curvature and Chern numbers of the driven two-site qubit.

Everything numerical here is built from two gauge-invariant primitives:

* ``wilson_loop_phase`` -- the phase of a product of normalized overlaps of
  band states around a closed loop (the discrete holonomy);
* ``lattice_flux`` -- the plaquette field strength summed over a grid that
  covers the parameter sphere, whose total is an exact multiple of 2 pi.

Orientation convention: loops run in the direction of increasing drive
phase varphi, and each plaquette is traversed varphi-edge first.  With this
choice the in-phase (phi = 0) adiabatic Chern number of band (m1, m2)
equals +m1, and every closed-form curvature and invariant below uses the
same orientation, so closed and numerical routes agree sign for sign.

Every closed-form invariant depends on the field only through one sector
parameter x per m2 sector: 0 or m2 lam (adiabatic), mu or Delta_m2 (cyclic),
in phase or anti-phase.  A sector is topological iff |x| < 1.

Closed forms and lattice numerics are deliberately independent code paths:
the lattice routines never evaluate a closed-form curvature or phase, only
closed-form *energies* for band labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DegenerateGap, NonConverged, OnTransition
from .qmodel import (
    LABELS,
    SZ_TOTAL_DIAG,
    DriveConfig,
    StateLabel,
    _lab_hamiltonian,
    _rotating_hamiltonian,
)
from .spectra import (
    DEGENERACY_FACTOR,
    _closed_energy_table,
    band_order,
    eigh_stack,
)

REGIMES = ("adiabatic", "nonadiabatic")

#: Below this value of sqrt(1 + x^2 - 2 x cos(theta)) a closed-form branch
#: sits on a band touching and the corresponding quantity is undefined.
ROOT_TOL = 1e-9

#: Transition detection tolerance for the closed-form Chern numbers.
TRANSITION_TOL = 1e-9

#: A Wilson-loop result is rejected when one further grid doubling would
#: still move it by more than this.
WILSON_CONV_TOL = 1e-6

DEFAULT_WILSON_STEPS = 512


def fold_phase(x: float) -> float:
    """Fold an angle to the principal range (-pi, pi]."""
    y = (x + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if y == -math.pi else y


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles modulo 2 pi."""
    return abs(fold_phase(a - b))


def _require_regime(regime: str) -> None:
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")


def _sector_parameters(cfg: DriveConfig, regime: str) -> tuple[float, float]:
    """Sector parameters (x_+, x_-) of the m2 = +1 and m2 = -1 bands."""
    in_phase = cfg.phase_branch() == 0.0
    if regime == "nonadiabatic":
        return (cfg.mu, cfg.mu) if in_phase else (cfg.delta(+1), cfg.delta(-1))
    _require_regime(regime)
    return (0.0, 0.0) if in_phase else (cfg.lam, -cfg.lam)


def _transition_distance(x: float) -> float:
    """Distance of a sector parameter from the transition |x| = 1."""
    return abs(abs(x) - 1.0)


def _is_topological(x: float) -> bool:
    """Whether the sector with parameter x is topological, i.e. |x| < 1.

    Raises OnTransition within TRANSITION_TOL of |x| = 1, where the
    invariant is undefined.
    """
    if _transition_distance(x) <= TRANSITION_TOL:
        raise OnTransition(f"|x| = {abs(x)} is on the transition line |x| = 1")
    return abs(x) < 1.0


# ---------------------------------------------------------------------------
# gauge-invariant primitives
# ---------------------------------------------------------------------------


def wilson_loop_phase(states: np.ndarray) -> float:
    """Geometric phase of a closed discrete loop of states.

    Parameters
    ----------
    states : ndarray, shape (n, dim) or (n, dim, nbands)
        One state per loop point; the loop closes from the last point back
        to the first.  Any per-point phase choice gives the same answer.

    Returns
    -------
    float or ndarray
        -arg of the product of successive overlaps, folded to (-pi, pi];
        one value per trailing band when a band axis is present.
    """
    states = np.asarray(states)
    nxt = np.roll(states, -1, axis=0)
    links = np.einsum("ki...,ki...->k...", np.conj(states), nxt)
    if np.min(np.abs(links)) < 0.5:
        raise NonConverged(
            "a loop overlap dropped below 0.5; the loop is under-resolved "
            "or crosses a band degeneracy"
        )
    total = -np.sum(np.angle(links), axis=0)
    if np.ndim(total) == 0:
        return fold_phase(float(total))
    return np.array([fold_phase(float(t)) for t in total])


def lattice_flux(states: np.ndarray) -> np.ndarray:
    """Total plaquette flux / 2 pi of a band-state grid covering the sphere.

    Parameters
    ----------
    states : ndarray, shape (n_theta, n_phi, dim) or (..., dim, nbands)
        Band states on the (theta, varphi) grid.  Rows 0 and n_theta - 1
        must hold the pole states (identical along the row up to phase);
        columns wrap around in varphi.

    Returns
    -------
    float or ndarray
        Sum over plaquettes of the principal-valued plaquette phase,
        divided by 2 pi.  For a resolved non-degenerate band this is an
        integer up to floating-point roundoff.
    """
    states = np.asarray(states)
    # links along varphi (wrapping) and along theta
    links_p = np.einsum(
        "ijk...,ijk...->ij...", np.conj(states), np.roll(states, -1, axis=1)
    )
    links_t = np.einsum(
        "ijk...,ijk...->ij...", np.conj(states[:-1]), states[1:]
    )
    if min(np.min(np.abs(links_p)), np.min(np.abs(links_t))) < 1e-12:
        raise NonConverged("vanishing link overlap; grid hits a band degeneracy")
    # varphi-first orientation: u(i,j) -> u(i,j+1) -> u(i+1,j+1) -> u(i+1,j)
    plaq = (
        links_p[:-1]
        * np.roll(links_t, -1, axis=1)
        * np.conj(links_p[1:])
        * np.conj(links_t)
    )
    return np.sum(np.angle(plaq), axis=(0, 1)) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# labeled band states on parameter grids
# ---------------------------------------------------------------------------


def _pole_rows(thetas) -> np.ndarray:
    """Rows sitting exactly at a pole of the parameter sphere.

    Detection is by the float values 0.0 and pi itself, not by sin(theta),
    which is ~1e-16 rather than zero at the floating-point pi.
    """
    thetas = np.asarray(thetas, dtype=float)
    return (thetas == 0.0) | (thetas == math.pi)


def _check_and_order(values, closed, b, where):
    """Gap and closed-form-residual checks for a grid of spectra.

    ``values`` has shape (..., 4) ascending, ``closed`` the matching
    closed-form table (LABELS order).  Returns (order array, min_gap).
    """
    gaps = np.diff(values, axis=-1)
    min_gap = float(np.min(gaps))
    if min_gap < DEGENERACY_FACTOR * b:
        flat = np.unravel_index(int(np.argmin(np.min(gaps, axis=-1))), gaps.shape[:-1])
        raise DegenerateGap(
            f"eigenvalue gap {min_gap:.3e} below {DEGENERACY_FACTOR * b:.1e} "
            f"at grid point {where(flat)}"
        )
    residual = float(np.max(np.abs(values - np.sort(closed, axis=-1))))
    if residual > 1e-8 * b:
        raise NonConverged(
            f"numerical spectrum deviates from closed form by {residual:.3e}"
        )
    return band_order(closed), min_gap


def _adiabatic_band_states(cfg, thetas, phis):
    """Labeled instantaneous eigenstates on a (theta, varphi) grid.

    Returns (states, min_gap) with states shaped
    (n_theta, n_phi, 4 components, 4 labels), labels in LABELS order.
    Rows at exact poles reuse the varphi = 0 state across the row.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    h = _lab_hamiltonian(
        cfg.b, thetas[:, None], cfg.phi_l, cfg.phi_r, cfg.t_lr, phis[None, :]
    )
    values, vectors = eigh_stack(h)
    closed = _closed_energy_table(cfg, "adiabatic", thetas)  # (n_theta, 4)
    order, min_gap = _check_and_order(
        values,
        closed[:, None, :],
        cfg.b,
        lambda ix: f"theta={thetas[ix[0]]:.6f}, varphi={phis[ix[1]]:.6f}",
    )
    states = np.take_along_axis(vectors, order[:, :, None, :], axis=-1)
    for i in np.nonzero(_pole_rows(thetas))[0]:
        states[i] = states[i, 0]
    return states, min_gap


def _rotating_band_vectors(cfg, thetas):
    """Labeled rotating-frame eigenvectors per theta row.

    Returns (vectors, min_gap) with vectors shaped (n_theta, 4, 4 labels).
    """
    thetas = np.asarray(thetas, dtype=float)
    h = _rotating_hamiltonian(cfg.b, thetas, cfg.phi_l, cfg.phi_r, cfg.t_lr, cfg.omega)
    values, vectors = eigh_stack(h)
    closed = _closed_energy_table(cfg, "rotating", thetas)
    order, min_gap = _check_and_order(
        values, closed, cfg.b, lambda ix: f"theta={thetas[ix[0]]:.6f}"
    )
    return np.take_along_axis(vectors, order[:, None, :], axis=-1), min_gap


def _rotating_band_states(cfg, thetas, phis):
    """Cyclic-state family u(theta, varphi) = exp(-i varphi Sz_total) psi(theta)."""
    vectors, min_gap = _rotating_band_vectors(cfg, thetas)
    phases = np.exp(-1j * np.asarray(phis, float)[:, None] * SZ_TOTAL_DIAG)
    states = phases[None, :, :, None] * vectors[:, None, :, :]
    for i in np.nonzero(_pole_rows(thetas))[0]:
        states[i] = vectors[i][None, :, :]
    return states, min_gap


# ---------------------------------------------------------------------------
# Berry phase: Wilson loop and closed forms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _wilson_band_phases(cfg: DriveConfig, n_steps: int):
    """Richardson-extrapolated Wilson-loop phases of all four bands.

    The raw loop converges as O(1/n^2); phases are evaluated on nested
    grids of n_steps/2, n_steps and 2*n_steps points (sharing one
    diagonalization pass over the finest grid) and extrapolated pairwise.
    Returns {label: (phase, convergence_gap)} where convergence_gap is the
    circular distance between the two extrapolated values.
    """
    n_fine = 2 * n_steps
    phis = 2.0 * math.pi * np.arange(n_fine) / n_fine
    states, _ = _adiabatic_band_states(cfg, np.array([cfg.theta]), phis)
    loop = states[0]  # (n_fine, 4 components, 4 labels)

    def raw(stride):
        return wilson_loop_phase(loop[::stride])

    g_half, g_base, g_fine = raw(4), raw(2), raw(1)

    def richardson(lo, hi):
        return np.array(
            [fold_phase(h + fold_phase(h - l) / 3.0) for l, h in zip(lo, hi)]
        )

    r_low = richardson(g_half, g_base)
    r_high = richardson(g_base, g_fine)
    return {
        LABELS[k]: (float(r_high[k]), circular_distance(r_high[k], r_low[k]))
        for k in range(4)
    }


def berry_phase_wilson(
    cfg: DriveConfig,
    theta: float,
    label: StateLabel,
    n_steps: int = DEFAULT_WILSON_STEPS,
) -> float:
    """Geometric phase of one band around the constant-theta drive loop.

    The loop product of instantaneous-eigenstate overlaps is evaluated for
    varphi from 0 to 2 pi; the result is gauge invariant and needs no
    phase-smoothing of the eigenvectors.

    Parameters
    ----------
    cfg : DriveConfig
        Drive parameters; ``cfg.theta`` is ignored in favor of ``theta``.
    theta : float
        Polar angle of the loop, in [0, pi].
    label : StateLabel
        Which band to transport.
    n_steps : int
        Base loop resolution; must be even and at least 64.

    Raises
    ------
    DegenerateGap
        If the four bands are not cleanly separated along the loop.
    NonConverged
        If doubling the resolution would still move the extrapolated
        result by more than WILSON_CONV_TOL.
    """
    if n_steps < 64 or n_steps % 2:
        raise ValueError(f"n_steps must be even and >= 64, got {n_steps}")
    phases = _wilson_band_phases(replace(cfg, theta=float(theta)), int(n_steps))
    value, gap = phases[StateLabel(*label)]
    if gap > WILSON_CONV_TOL:
        raise NonConverged(
            f"Wilson loop changed by {gap:.2e} under grid doubling "
            f"(tolerance {WILSON_CONV_TOL:.0e}); increase n_steps"
        )
    return value


def berry_phase_closed(cfg: DriveConfig, theta: float, label: StateLabel) -> float:
    """Closed-form adiabatic geometric phase, folded to (-pi, pi].

    pi (m1 (x - cos(theta)) + f) / f with f = sqrt(1 + x^2 - 2 x cos(theta)):
    pi (1 - m1 cos(theta)) in phase (x = 0), independent of the tunneling,
    and renormalized by f anti-phase (x = m2 lam).
    """
    m1, m2 = StateLabel(*label)
    x = _sector_parameters(cfg, "adiabatic")[0 if m2 > 0 else 1]
    c = math.cos(theta)
    f = math.sqrt(max(1.0 + x * x - 2.0 * x * c, 0.0))
    if f <= ROOT_TOL:
        raise DegenerateGap(
            f"band touching: f = {f:.3e} for label {tuple(label)} at theta={theta}"
        )
    return fold_phase(math.pi * (m1 * (x - c) + f) / f)


def rotating_sz_expectation(cfg: DriveConfig, label: StateLabel) -> float:
    """<Sz_total> of the labeled rotating-frame eigenvector.

    This is the cyclic-state connection coefficient: 2 pi times this value
    is the numerical route to ``aa_phase_closed``.
    """
    vectors, _ = _rotating_band_vectors(cfg, np.array([cfg.theta]))
    vec = vectors[0, :, LABELS.index(StateLabel(*label))]
    return float(np.real(np.vdot(vec, SZ_TOTAL_DIAG * vec)))


def aa_phase_closed(cfg: DriveConfig, label: StateLabel) -> float:
    """Closed-form cyclic (Aharonov-Anandan) geometric phase at cfg.theta.

    Equals 2 pi <Sz_total> of the labeled rotating-frame eigenvector.  Note
    the adiabatic limit: at omega = 0 this differs from
    ``berry_phase_closed`` by exactly pi (mod 2 pi) -- the loop-based phase
    carries the extra sign of a 2 pi spin rotation, the cyclic-state
    connection does not.  Both values are reported by the toolkit; neither
    is silently shifted.
    """
    m1, m2 = StateLabel(*label)
    x = _sector_parameters(cfg, "nonadiabatic")[0 if m2 > 0 else 1]
    c = math.cos(cfg.theta)
    den = math.sqrt(max(1.0 + x * x - 2.0 * x * c, 0.0))
    if den <= ROOT_TOL:
        raise DegenerateGap(
            f"band touching: denominator {den:.3e} for label {tuple(label)}"
        )
    return fold_phase(m1 * math.pi * (x - c) / den)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureSample:
    """Curvature density (coefficient of d varphi wedge d theta) at one point."""

    theta: float
    value: float
    label: StateLabel
    regime: str


def curvature_closed(
    cfg: DriveConfig, theta: float, label: StateLabel, regime: str
) -> CurvatureSample:
    """Closed-form curvature density of one band.

    All four branches share the shape
    m1 (sin(theta)/2) (1 - x cos(theta)) / (1 + x^2 - 2 x cos(theta))^(3/2)
    with x the sector parameter of the band (see the module docstring).
    """
    m1, m2 = StateLabel(*label)
    x = _sector_parameters(cfg, regime)[0 if m2 > 0 else 1]
    c = math.cos(theta)
    d = 1.0 + x * x - 2.0 * x * c
    if math.sqrt(max(d, 0.0)) <= ROOT_TOL:
        raise DegenerateGap(f"band touching at theta={theta} for label {tuple(label)}")
    value = m1 * 0.5 * math.sin(theta) * (1.0 - x * c) / d**1.5
    return CurvatureSample(theta=float(theta), value=value, label=StateLabel(*label), regime=regime)


def curvature_numeric(
    cfg: DriveConfig,
    theta: float,
    varphi: float,
    label: StateLabel,
    regime: str,
    h: float = 1e-3,
) -> CurvatureSample:
    """Plaquette field strength around an h x h cell centered at (theta, varphi).

    The four corner states come from the grid band-state builders, which
    diagonalize each corner independently; the cell phase is gauge
    invariant and converges to ``curvature_closed`` as O(h^2).
    Cells centered at the poles reach slightly outside [0, pi], where the
    Hamiltonian family extends smoothly.
    """
    label = StateLabel(*label)
    th = np.array([theta - h / 2.0, theta + h / 2.0])
    ph = np.array([varphi - h / 2.0, varphi + h / 2.0])
    _require_regime(regime)
    builder = _adiabatic_band_states if regime == "adiabatic" else _rotating_band_states
    states, _ = builder(cfg, th, ph)
    corner = states[..., LABELS.index(label)]
    u00, u01 = corner[0, 0], corner[0, 1]
    u10, u11 = corner[1, 0], corner[1, 1]
    plaq = (
        np.vdot(u00, u01) * np.vdot(u01, u11) * np.vdot(u11, u10) * np.vdot(u10, u00)
    )
    value = float(np.angle(plaq) / (h * h))
    return CurvatureSample(theta=float(theta), value=value, label=label, regime=regime)


# ---------------------------------------------------------------------------
# Chern numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChernReport:
    """Lattice Chern numbers of all four bands plus grid diagnostics."""

    c1: dict[StateLabel, int]
    n_theta: int
    n_phi: int
    min_gap: float
    regime: str

    def band_sum(self) -> int:
        return sum(self.c1.values())


def chern_lattice(
    cfg: DriveConfig,
    n_theta: int = 100,
    n_phi: int = 100,
    regime: str = "adiabatic",
) -> ChernReport:
    """First Chern numbers of all four bands by the lattice plaquette method.

    The (theta, varphi) grid includes the exact poles (where the band state
    is varphi independent) so the sphere closes without an offset; interior
    link variables then cancel pairwise and the total plaquette flux is an
    exact multiple of 2 pi.  One diagonalization pass serves all four
    bands, so they are always computed together.

    Parameters
    ----------
    cfg : DriveConfig
        Drive parameters; cfg.theta is ignored (theta is integrated over).
    n_theta, n_phi : int
        Grid resolution, at least 20 each.  Even n_theta avoids placing a
        grid row on the equator, where anti-phase bands cross.
    regime : {'adiabatic', 'nonadiabatic'}
        Instantaneous eigenstates of the lab Hamiltonian, or rotating-frame
        eigenvectors carried around the loop by the drive rotation.

    Raises
    ------
    DegenerateGap
        Some grid point has an unresolved band gap; for the anti-phase
        branch this is the signature of the topological transition.
    NonConverged
        The flux total failed to snap to an integer within 1e-9.
    """
    if n_theta < 20 or n_phi < 20:
        raise ValueError("n_theta and n_phi must both be at least 20")
    _require_regime(regime)
    thetas = np.linspace(0.0, math.pi, int(n_theta))
    phis = 2.0 * math.pi * np.arange(int(n_phi)) / int(n_phi)
    builder = _adiabatic_band_states if regime == "adiabatic" else _rotating_band_states
    states, min_gap = builder(cfg, thetas, phis)
    flux = lattice_flux(states)
    c1 = {}
    for k, lab in enumerate(LABELS):
        rounded = round(float(flux[k]))
        if abs(flux[k] - rounded) > 1e-9:
            raise NonConverged(
                f"flux total {flux[k]!r} for band {tuple(lab)} is not an "
                "integer to 1e-9; refine the grid"
            )
        c1[lab] = int(rounded)
    return ChernReport(
        c1=c1, n_theta=int(n_theta), n_phi=int(n_phi), min_gap=min_gap, regime=regime
    )


def chern_closed(cfg: DriveConfig, label: StateLabel, regime: str) -> int:
    """Closed-form first Chern number of one band.

    Adiabatic: m1 on the in-phase branch, m1 * step(1 - lam) on the
    anti-phase branch.  Cyclic: m1 * step(1 - mu) in phase,
    m1 * step(1 - |Delta_m2|) anti-phase.

    Raises
    ------
    OnTransition
        If the relevant transition parameter sits within TRANSITION_TOL of
        its critical value (the step function is undefined there); for the
        adiabatic branches this includes lam = 1, where bands touch.
    """
    m1, m2 = StateLabel(*label)
    x = _sector_parameters(cfg, regime)[0 if m2 > 0 else 1]
    if regime == "adiabatic":
        # The adiabatic bands touch at lam = 1 on both branches, also where x = 0.
        _is_topological(cfg.lam)
    return m1 if _is_topological(x) else 0
