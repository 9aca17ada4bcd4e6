"""Geometric phases, curvature and Chern numbers of the driven two-site qubit.

Every numerical route here multiplies gauge-invariant band-state overlaps,
and reduces them with one of:

* ``wilson_loop_phase`` -- the phase of a product of normalized overlaps of
  band states around a closed loop (the discrete holonomy);
* ``lattice_flux`` -- the plaquette field strength summed over a grid that
  covers the parameter sphere, whose total is an exact multiple of 2 pi.

Orientation convention: loops run in the direction of increasing drive
phase varphi, and each plaquette is traversed varphi-edge first.  With this
choice the in-phase (phi = 0) adiabatic Chern number of band (m1, m2)
equals +m1, and every closed-form curvature and invariant below uses the
same orientation, so closed and numerical routes agree sign for sign.

Every closed form depends on the field only through one sector parameter
x per m2 sector: 0 or m2 lam (adiabatic), mu or Delta_m2 (cyclic), in phase
or anti-phase.  The phases and curvature, like the closed-form energies,
read x and the root 1 + x^2 - 2 x cos(theta) from one kernel,
``spectra._sector_roots``.  A sector is topological iff |x| < 1.

Closed forms and lattice numerics are deliberately independent code paths:
the lattice routines never evaluate a closed-form curvature or phase, only
closed-form *energies* for band labeling.

The family is covariant under U = exp(-i varphi Sz_total), H(theta,
varphi) = U H(theta, 0) U^dag, so the eigenstates around a constant-theta
loop are the labelled ones v at varphi = 0 carried by U, as the cyclic-state
family carries the rotating-frame ones.  Each link of an n-point loop is then
<v|U(2 pi / n)|v>, and the loop phase tends to 2 pi <Sz_total> - pi of v:
the solid angle, and the pi of the spin rotation's U(2 pi) = -1, which a
loop carries and the cyclic connection does not.  The CLI ``berry``
column reads that limit, and ``berry_phase_wilson``, which diagonalizes
every point of its loop and carries nothing, is the check on it.  The
lattice flux telescopes to the pole rows: ``chern_lattice``'s c1 of a band
equals <Sz_total> of its labelled south-pole (theta = pi) state minus that
of its north-pole state.  The labels come from the closed-form energies, so the
lattice route reads the closed-form energy order at the poles;
``test_chern_is_the_pole_sz_difference`` pins the identity.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    AmbiguousMatch, DegenerateGap, DrivenSpinError, NonConverged, OnTransition, ValidationError
)
from .qmodel import (
    LABELS,
    SZ_TOTAL_DIAG,
    DriveConfig,
    StateLabel,
    _lab_hamiltonian,
    _require_int,
    _rotating_hamiltonian,
)
from .spectra import (
    _label_bands,
    _label_codes,
    _label_error,
    _require_regime,
    _root_codes,
    _sector_parameters,
    _sector_roots,
    eigh_stack,
)

#: Transition detection tolerance for the closed-form Chern numbers.
TRANSITION_TOL = 1e-9

#: A Wilson-loop result is rejected when one further grid doubling would
#: still move it by more than this.
WILSON_CONV_TOL = 1e-6

DEFAULT_WILSON_STEPS = 512

#: A link overlap below this magnitude means the grid hits a band degeneracy.
LINK_TOL = 1e-12
_VANISHING_LINK = "vanishing link overlap; grid hits a band degeneracy"

#: A lattice flux total must lie within this distance of an integer.
FLUX_TOL = 1e-9


def fold_phase(x):
    """Fold an angle, a float (to a float) or an array, to (-pi, pi]; inf to nan.
    An array folds bit for bit as each float does, as np.mod rounds as % does."""
    if np.isscalar(x):
        y = (float(x) + math.pi) % (2.0 * math.pi) - math.pi
        return math.pi if y == -math.pi else y
    with np.errstate(invalid="ignore"):  # np.mod of inf is nan, as Python's % is
        y = np.mod(np.add(x, math.pi), 2.0 * math.pi) - math.pi
    return np.where(y == -math.pi, math.pi, y)


def circular_distance(a, b):
    """Distance between two angles, floats or arrays, modulo 2 pi."""
    return abs(fold_phase(np.subtract(a, b)))


def _transition_distance(x):
    """Distance of a sector parameter (float or array) from the transition |x| = 1."""
    return abs(abs(x) - 1.0)


def _sector_masks(x):
    """(on_transition, topological) of a sector parameter, a float or an array.

    A sector is on its transition within TRANSITION_TOL of |x| = 1, where
    the invariant is undefined, and topological where |x| < 1.
    """
    return _transition_distance(x) <= TRANSITION_TOL, abs(x) < 1.0


def _is_topological(x: float) -> bool:
    """Whether the sector with parameter x is topological, i.e. |x| < 1.

    Raises OnTransition within TRANSITION_TOL of |x| = 1, where the
    invariant is undefined.
    """
    on_transition, topological = _sector_masks(x)
    if on_transition:
        raise OnTransition(f"|x| = {abs(x)} is on the transition line |x| = 1")
    return topological


def _band_roots(cfg: DriveConfig, regime: str, theta: float, label):
    """(k, roots): one band's LABELS index and ``_sector_roots`` at a float
    theta, after raising the failure that the band's code names."""
    k = LABELS.index(StateLabel(*label))
    roots = _sector_roots(cfg, regime, theta)
    code = _root_codes(roots[3][k])
    if code == 1:
        raise DegenerateGap(f"band touching at theta={theta} for label {tuple(label)}")
    if code == 2:
        raise NonConverged(f"closed form overflows at |x| = {abs(float(roots[1][k]))}")
    return k, roots


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
    if states.ndim < 2 or states.size == 0:
        raise ValidationError(
            f"states need at least 1 loop point of 1 component, got shape {states.shape}"
        )
    nxt = np.roll(states, -1, axis=0)
    links = np.einsum("ki...,ki...->k...", np.conj(states), nxt)
    if not np.min(np.abs(links)) >= 0.5:  # nan included
        raise NonConverged(
            "a loop overlap dropped below 0.5; the loop is under-resolved "
            "or crosses a band degeneracy"
        )
    return fold_phase(-np.sum(np.angle(links), axis=0))


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
    if states.ndim < 3 or states.shape[0] < 2 or states.shape[1] < 1:
        raise ValidationError(
            f"states need at least 2 theta rows and 1 varphi column, got shape {states.shape}"
        )
    conj = np.conj(states)
    # links along varphi, the wrapping one from the last column apart, and along theta
    links_p = np.concatenate(
        [
            np.einsum("ijk...,ijk...->ij...", conj[:, :-1], states[:, 1:]),
            np.einsum("ik...,ik...->i...", conj[:, -1], states[:, 0])[:, None],
        ],
        axis=1,
    )
    links_t = np.einsum("ijk...,ijk...->ij...", conj[:-1], states[1:])
    plaq = _plaquettes(links_p, links_t, np.roll(links_t, -1, axis=1))
    return np.sum(np.angle(plaq), axis=(0, 1)) / (2.0 * math.pi)


def _plaquettes(links_p, links_t, links_t_next):
    """Varphi-first plaquette products u(i,j) -> u(i,j+1) -> u(i+1,j+1) -> u(i+1,j).

    ``links_p`` are the varphi links of every row; ``links_t`` and
    ``links_t_next`` the theta links of columns j and j + 1.  A vanishing
    varphi link or column-j theta link raises NonConverged.
    """
    if not (np.min(np.abs(links_p)) >= LINK_TOL and np.min(np.abs(links_t)) >= LINK_TOL):
        raise NonConverged(_VANISHING_LINK)
    return links_p[:-1] * links_t_next * np.conj(links_p[1:]) * np.conj(links_t)


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


def _adiabatic_band_states(cfg, thetas, phis):
    """Labeled instantaneous eigenstates on a (theta, varphi) grid.

    Returns (states, min_gap) with states shaped
    (n_theta, n_phi, 4 components, 4 labels), labels in LABELS order.
    Rows at exact poles reuse the varphi = 0 state across the row.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    h = _lab_hamiltonian(cfg, thetas[:, None], phis[None, :])
    values, vectors = eigh_stack(h)
    order, min_gap = _label_bands(
        cfg,
        "adiabatic",
        values,
        thetas[:, None],
        lambda ix: f"theta={thetas[ix[0]]:.6f}, varphi={phis[ix[1]]:.6f}",
    )
    states = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    for i in np.nonzero(_pole_rows(thetas))[0]:
        states[i] = states[i, 0]
    return states, min_gap


def _rotating_band_vectors(cfg, thetas):
    """Labeled rotating-frame eigenvectors per theta row.

    Returns (vectors, min_gap) with vectors shaped (n_theta, 4, 4 labels).
    """
    thetas = np.asarray(thetas, dtype=float)
    h = _rotating_hamiltonian(cfg, thetas)
    values, vectors = eigh_stack(h)
    order, min_gap = _label_bands(
        cfg, "rotating", values, thetas, lambda ix: f"theta={thetas[ix[0]]:.6f}"
    )
    return np.take_along_axis(vectors, order[..., None, :], axis=-1), min_gap


def _rotating_band_states(cfg, thetas, phis):
    """Cyclic-state family u(theta, varphi) = exp(-i varphi Sz_total) psi(theta);
    pole rows keep psi across the row."""
    vectors, min_gap = _rotating_band_vectors(cfg, thetas)
    phases = np.exp(-1j * np.asarray(phis, float)[:, None] * SZ_TOTAL_DIAG)
    states = phases[None, :, :, None] * vectors[:, None, :, :]
    for i in np.nonzero(_pole_rows(thetas))[0]:
        states[i] = vectors[i][None, :, :]
    return states, min_gap


def _strip_links(vectors, thetas, n_phi: int):
    """Links of the first two varphi columns of the nonadiabatic Chern grid:
    (varphi links of every row, theta links of column 0, of column 1), each
    (..., n_theta or n_theta - 1, 4 labels), of labelled rotating-frame
    vectors psi (..., n_theta, 4, 4 labels).  Column 0 holds psi, column 1
    psi carried by exp(-i (2 pi / n_phi) Sz_total), and pole rows psi in both,
    as ``_rotating_band_states`` builds them; leading axes are a block of cells.
    """
    carried = np.exp(-1j * (2.0 * math.pi / n_phi) * SZ_TOTAL_DIAG)[:, None] * vectors
    poles = _pole_rows(thetas)
    carried[..., poles, :, :] = vectors[..., poles, :, :]
    conj, conj_carried, rows = np.conj(vectors), np.conj(carried), "...kl,...kl->...l"
    return (
        np.einsum(rows, conj, carried),
        np.einsum(rows, conj[..., :-1, :, :], vectors[..., 1:, :, :]),
        np.einsum(rows, conj_carried[..., :-1, :, :], carried[..., 1:, :, :]),
    )


def _strip_flux(links, n_phi: int):
    """Flux / 2 pi (..., 4 labels) of the n_phi-column nonadiabatic grid from the
    ``_strip_links`` of its first two columns: the grid is covariant under the
    drive rotation, so every plaquette of a theta row has its strip plaquette's
    value, and the grid sums n_phi strips."""
    plaq = _plaquettes(*(np.moveaxis(link, -2, 0) for link in links))  # theta rows first
    return n_phi * np.sum(np.angle(plaq), axis=0) / (2.0 * math.pi)


def _strip_chern(cfg, n_theta: int, n_phi: int):
    """Nonadiabatic strip Chern numbers of one drive, or of a block of drives
    whose cfg.b and cfg.omega are (cells, 1) arrays (unvalidated), from one
    eigensolve of their n_theta rotating-frame rows.

    Returns (c1, min_gap, failures): the snapped flux (..., 4 labels), nan
    where a cell failed, the smallest gaps (...,), and by cell index (() for
    one drive) the DrivenSpinError of each failed cell's first failing check:
    its code 1 to 3 of ``_label_codes``, 4 for a link that ``_plaquettes``
    refuses or 5 for a flux that ``_flux_error`` names, built from these
    arrays, so that no row is solved or labelled again.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    values, vectors = eigh_stack(_rotating_hamiltonian(cfg, thetas))
    order, gaps, residual, codes = _label_codes(cfg, "rotating", values, thetas, values.ndim - 2)
    links = _strip_links(np.take_along_axis(vectors, order[..., None, :], axis=-1), thetas, n_phi)
    vanishing = ~(np.minimum(*(np.abs(link).min(axis=(-2, -1)) for link in links[:2])) >= LINK_TOL)
    codes = np.where((codes == 0) & vanishing, 4, codes)
    ok = codes == 0
    flux = np.full(ok.shape + (4,), np.nan)
    if ok.any():  # links of all-pass cells keep their shape: one drive's strip is (n_theta, 4)
        flux[ok] = _strip_flux(links if ok.all() else [link[ok] for link in links], n_phi)
    c1 = np.round(flux)
    codes = np.where(ok & ~(np.abs(flux - c1) <= FLUX_TOL).all(axis=-1), 5, codes)
    c1[codes != 0] = np.nan
    b, where = np.reshape(cfg.b, codes.shape), lambda ix: f"theta={thetas[ix[0]]:.6f}"
    failures = {
        i: (NonConverged(_VANISHING_LINK) if codes[i] == 4
            else _flux_error(flux[i]) if codes[i] == 5
            else _label_error(codes[i], b[i], gaps[i], residual[i], where))
        for i in map(tuple, np.argwhere(codes))
    }
    return c1, gaps.min(axis=-1), failures


# ---------------------------------------------------------------------------
# Berry phase: Wilson loop and closed forms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _wilson_band_phases(cfg: DriveConfig, n_steps: int):
    """Richardson-extrapolated Wilson-loop (phases, convergence gaps), each
    (4,), of the four bands around the loop at cfg.theta, or the
    DrivenSpinError its computation raised: the cache keeps a failure too,
    so a failing loop is solved once for all its bands.

    The loop is diagonalized at every point of its finest ring, 2 * n_steps
    points in one labelled solve, and carries no state.  The raw loop
    converges as O(1/n^2); its phases on the nested rings of n_steps / 2,
    n_steps and 2 * n_steps points (every fourth, every second and every
    point) are extrapolated pairwise.  The convergence gap is the circular
    distance between the two extrapolated values.
    """
    phis = 2.0 * math.pi * np.arange(2 * n_steps) / (2 * n_steps)
    try:
        ring = _adiabatic_band_states(cfg, np.array([cfg.theta]), phis)[0][0]
        g = np.stack([wilson_loop_phase(ring[::m]) for m in (4, 2, 1)])
    except DrivenSpinError as exc:
        return exc
    r_low, r_high = fold_phase(g[1:] + fold_phase(g[1:] - g[:-1]) / 3.0)  # pairwise
    return r_high, circular_distance(r_high, r_low)


def berry_phase_wilson(
    cfg: DriveConfig,
    theta: float,
    label: StateLabel,
    n_steps: int = DEFAULT_WILSON_STEPS,
) -> float:
    """Geometric phase of one band around the constant-theta drive loop.

    The loop product of instantaneous-eigenstate overlaps runs over varphi
    from 0 to 2 pi and is gauge invariant.  Every loop point is diagonalized
    and labelled, with no use of the drive's rotation covariance, so this
    is an independent check on the CLI ``berry`` column's rule,
    2 pi <Sz_total> - pi.  It is one band of the cached
    ``_wilson_band_phases``, so the other bands of a solved loop are free.

    Parameters
    ----------
    cfg : DriveConfig
        Drive parameters; ``cfg.theta`` is ignored in favor of ``theta``.
    theta : float
        Polar angle of the loop, in [0, pi].
    label : StateLabel
        Which band to transport.
    n_steps : int
        Base loop resolution; an even integer of at least 64.

    Raises
    ------
    DegenerateGap
        If the four bands are not cleanly separated along the loop.
    NonConverged
        If doubling the resolution would still move the extrapolated
        result by more than WILSON_CONV_TOL, or a loop overlap drops
        below 0.5.
    UnsupportedPhase
        Away from the phi in {0, pi} branches, before the bands are labelled.
    """
    # n_steps is checked before the cache, which would take 64.0 for 64
    if _require_int("n_steps", n_steps) < 64 or n_steps % 2:
        raise ValidationError(f"n_steps must be even and >= 64, got {n_steps}")
    phases = _wilson_band_phases(replace(cfg, theta=float(theta)), int(n_steps))
    if isinstance(phases, DrivenSpinError):
        raise copy.copy(phases)  # a fresh error per call, as if solved again
    value, gap = (float(a[LABELS.index(StateLabel(*label))]) for a in phases)
    if gap > WILSON_CONV_TOL:
        raise NonConverged(f"Wilson loop changed by {gap:.2e} under grid doubling "
                           f"(tolerance {WILSON_CONV_TOL:.0e}); increase n_steps")
    return value


def _closed_phases(regime: str, m1, x, c, d):
    """(phases, code): the regime's closed-form geometric phases
    (``berry_phase_closed`` or ``aa_phase_closed``) of the bands of
    ``_sector_roots``' output, and their ``_root_codes``; a failing cell's
    phase is a placeholder."""
    code = _root_codes(d)
    ok = code == 0
    swing, f = m1 * (np.where(ok, x, 0.0) - c), np.sqrt(np.where(ok, d, 1.0))
    return fold_phase(np.pi * (swing + f if regime == "adiabatic" else swing) / f), code


def berry_phase_closed(cfg: DriveConfig, theta: float, label: StateLabel) -> float:
    """Closed-form adiabatic geometric phase, folded to (-pi, pi].

    pi (m1 (x - cos(theta)) + f) / f with f = sqrt(1 + x^2 - 2 x cos(theta)):
    pi (1 - m1 cos(theta)) in phase (x = 0), independent of the tunneling,
    and renormalized by f anti-phase (x = m2 lam).
    """
    k, roots = _band_roots(cfg, "adiabatic", theta, label)
    return float(_closed_phases("adiabatic", *roots)[0][k])


def rotating_sz_expectation(cfg: DriveConfig, label: StateLabel) -> float:
    """<Sz_total> of the labeled rotating-frame eigenvector.

    This is the cyclic-state connection coefficient: 2 pi times this value
    is the numerical route to ``aa_phase_closed``.  The CLI ``berry``
    column is 2 pi <Sz_total> of each row's labelled eigenvector in both
    regimes: this one when nonadiabatic, and the adiabatic one at
    varphi = 0, less a loop's pi, when adiabatic.
    """
    vectors, _ = _rotating_band_vectors(cfg, np.array([cfg.theta]))
    return _sz_total(vectors[0, :, LABELS.index(StateLabel(*label))])


def _sz_total(v):
    """<Sz_total> of state vectors (..., 4), a float for one, rounded as ``np.vdot`` rounds."""
    sz = np.real(np.conj(v)[..., None, :] @ (SZ_TOTAL_DIAG * v)[..., :, None])[..., 0, 0]
    return float(sz) if sz.ndim == 0 else sz


def aa_phase_closed(cfg: DriveConfig, label: StateLabel) -> float:
    """Closed-form cyclic (Aharonov-Anandan) geometric phase at cfg.theta.

    Equals 2 pi <Sz_total> of the labeled rotating-frame eigenvector.  Note
    the adiabatic limit: at omega = 0 this differs from
    ``berry_phase_closed`` by exactly pi (mod 2 pi) -- the loop-based phase
    carries the extra sign of a 2 pi spin rotation, the cyclic-state
    connection does not.  Both values are reported by the toolkit; neither
    is silently shifted.
    """
    k, roots = _band_roots(cfg, "nonadiabatic", cfg.theta, label)
    return float(_closed_phases("nonadiabatic", *roots)[0][k])


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def curvature_closed(
    cfg: DriveConfig, theta: float, label: StateLabel, regime: str
) -> float:
    """Closed-form curvature density of one band (coefficient of d varphi ^ d theta).

    All four branches share the shape
    m1 (sin(theta)/2) (1 - x cos(theta)) / (1 + x^2 - 2 x cos(theta))^(3/2)
    with x the sector parameter of the band (see the module docstring).
    """
    k, roots = _band_roots(cfg, regime, theta, label)
    m1, x, c, d = (float(a[k]) for a in np.broadcast_arrays(*roots))
    with np.errstate(over="ignore"):
        den = np.float64(d) ** 1.5
    if not np.isfinite(den):
        raise NonConverged(f"closed-form curvature overflows at |x| = {abs(x)}")
    return float(m1 * 0.5 * math.sin(theta) * (1.0 - x * c) / den)


def curvature_numeric(
    cfg: DriveConfig,
    theta: float,
    varphi: float,
    label: StateLabel,
    regime: str,
    h: float = 1e-3,
) -> float:
    """Plaquette field strength around an h x h cell centered at (theta, varphi).

    The cell phase is the Wilson loop over the (theta, varphi) corners
    00 -> 01 -> 11 -> 10, varphi edge first as in ``lattice_flux``, whose
    states the grid band-state builders diagonalize independently.  It
    converges to ``curvature_closed`` as O(h^2); a cell too coarse for its
    overlaps raises NonConverged.  Cells centered at the poles reach
    slightly outside [0, pi], where the Hamiltonian family extends smoothly.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValidationError(f"h must be finite and > 0, got {h}")
    th = np.array([theta - h / 2.0, theta + h / 2.0])
    ph = np.array([varphi - h / 2.0, varphi + h / 2.0])
    _require_regime(regime)
    builder = _adiabatic_band_states if regime == "adiabatic" else _rotating_band_states
    states, _ = builder(cfg, th, ph)
    corner = states[..., LABELS.index(StateLabel(*label))]
    return -wilson_loop_phase(corner[[0, 0, 1, 1], [0, 1, 1, 0]]) / (h * h)


# ---------------------------------------------------------------------------
# Chern numbers
# ---------------------------------------------------------------------------


#: Theta rows of one block of the adiabatic Chern grid.  Blocks share their last row
#: with the next block, so each plaquette is summed once, and at most
#: _CHERN_BLOCK + 1 rows of states are held at a time.
_CHERN_BLOCK = 64


def _failure_rank(exc) -> tuple:
    """Sort key of a block's failure: the least is what one whole-grid pass raises.

    A pass labels the whole grid before it sums any flux, and it names the
    smallest gap before the largest closed-form deviation.  Ties keep the
    earlier block, which holds the whole grid's first worst point.
    """
    if isinstance(exc, DegenerateGap):
        return (0, exc.gap)
    if isinstance(exc, AmbiguousMatch):
        return (1, -exc.residual)
    return (2, 0.0)


@dataclass(frozen=True)
class ChernReport:
    """Lattice Chern numbers of all four bands and the smallest band gap on the grid."""

    c1: dict[StateLabel, int]
    min_gap: float

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

    The adiabatic grid is built, labelled and summed in blocks of
    _CHERN_BLOCK theta rows that share their boundary rows, so memory does
    not grow with n_theta.  The nonadiabatic grid is covariant under the
    drive rotation, so every plaquette of a theta row has the same value;
    it is summed as n_phi times one strip of plaquettes by ``_strip_chern``,
    the kernel that the lattice phase diagram runs on blocks of drives.
    Either way ``c1``, ``min_gap`` and the error raised, message included,
    are those of one pass over the whole grid; the flux differs from that
    pass only in its last bits.

    Parameters
    ----------
    cfg : DriveConfig
        Drive parameters; cfg.theta is ignored (theta is integrated over).
    n_theta, n_phi : int
        Grid resolution, integers of at least 20 each.  Even n_theta avoids placing a
        grid row on the equator, where anti-phase bands cross.  A
        nonadiabatic grid is covariant under the drive rotation, so its
        ``c1``, ``min_gap`` and error name do not depend on n_phi.
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
    UnsupportedPhase
        Away from the phi in {0, pi} branches, before any grid is built.
    """
    n_theta, n_phi = _require_int("n_theta", n_theta), _require_int("n_phi", n_phi)
    if n_theta < 20 or n_phi < 20:
        raise ValidationError("n_theta and n_phi must both be at least 20")
    _require_regime(regime)
    cfg.phase_branch()  # an off-branch drive is refused before any grid is built
    if regime == "nonadiabatic":
        c1, min_gap, failures = _strip_chern(cfg, n_theta, n_phi)
        if failures:
            raise failures[()]
    else:
        thetas = np.linspace(0.0, math.pi, n_theta)
        phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        flux, min_gap, failures = 0.0, math.inf, []
        for start in range(0, len(thetas) - 1, _CHERN_BLOCK):
            block = thetas[start : start + _CHERN_BLOCK + 1]
            try:
                states, gap = _adiabatic_band_states(cfg, block, phis)
            except (DegenerateGap, AmbiguousMatch) as exc:
                failures.append(exc)
                continue
            min_gap = min(min_gap, gap)
            if not failures:
                try:
                    flux = flux + lattice_flux(states)
                except NonConverged as exc:
                    failures.append(exc)
        if failures:
            raise min(failures, key=_failure_rank)
        if (error := _flux_error(flux)) is not None:
            raise error
        c1 = np.round(flux)
    return ChernReport(c1=dict(zip(LABELS, map(int, c1))), min_gap=float(min_gap))


def _flux_error(flux):
    """NonConverged naming the first band of a grid's flux (4 labels) off an integer, or None."""
    off = np.flatnonzero(~(np.abs(flux - np.round(flux)) <= FLUX_TOL))
    if off.size:
        return NonConverged(
            f"flux total {flux[off[0]]!r} for band {tuple(LABELS[off[0]])} is not an "
            "integer to 1e-9; refine the grid"
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
