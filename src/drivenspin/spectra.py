"""Hermitian diagonalization, closed-form energies and band labeling.

The eigensolver ``eigh_stack`` takes a whole stack of 4x4 problems at once,
by site-exchange sector blocks or by LAPACK; it reads no closed form, so it
stays an independent route to the spectra.  The one band-labeling rule,
``_label_codes``, names the bands of a stack of spectra by (m1, m2) and codes
the first failing check of each cell, whichever leading axes the caller
takes as cells; ``_label_bands`` is its raising one-cell case.
Every closed form, here and in ``geometry``, reads its sector parameter x
and root from one kernel, ``_sector_roots``, on a float or an array of theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import AmbiguousMatch, DegenerateGap, NonConverged, NotHermitian, ValidationError
from .qmodel import LABELS, DriveConfig, StateLabel, _sector_ratios

HERMITICITY_TOL = 1e-12

REGIMES = ("adiabatic", "nonadiabatic")

#: Band labeling is refused when the smallest eigenvalue gap drops below
#: DEGENERACY_FACTOR * b; near-degenerate bands permute silently otherwise.
DEGENERACY_FACTOR = 1e-6

#: Band labeling is refused when some numerical energy lies more than
#: RESIDUAL_FACTOR * b from its sorted closed-form energy (AmbiguousMatch).
RESIDUAL_FACTOR = 1e-8

#: Below this value of sqrt(1 + x^2 - 2 x cos(theta)) a closed-form branch
#: sits on a band touching and the corresponding quantity is undefined.
ROOT_TOL = 1e-9

#: m1 and m2 of the four labels, in LABELS order.
_M1, _M2 = np.array(LABELS).T


def _require_finite(h: np.ndarray) -> None:
    """Raise NonConverged if any matrix entry is NaN or infinite."""
    if not np.all(np.isfinite(h)):
        raise NonConverged("matrix has non-finite entries; nothing to diagonalize")


def require_hermitian(h: np.ndarray) -> None:
    """Raise NotHermitian unless max|H - H^dag| <= HERMITICITY_TOL * max|H|."""
    h = np.asarray(h)
    defect = np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2))))
    bound = HERMITICITY_TOL * max(np.max(np.abs(h)), 1e-300)
    if defect > bound:
        raise NotHermitian(
            f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e} * max|H| = {bound:.3e}"
        )


def eigh_stack(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a stack of 4x4 complex Hermitian matrices.

    A stack of at least _SECTOR_MIN matrices that commutes with a site
    exchange, by the check of ``_sector_eigh``, is solved as two 2x2 sector
    blocks per matrix.  Every other stack, one-matrix solves among them,
    goes to LAPACK ``eigh`` in one call.  Each eigenvector is then gauged so
    its largest-magnitude component is real positive, which makes the output
    a deterministic function of the input.  Either route solves the matrix
    it is given and reads no closed form, so it stays an independent route
    to the spectra.

    Parameters
    ----------
    h : ndarray, shape (..., 4, 4)
        Hermitian input; hermiticity is the caller's responsibility here
        (the public ``eigensystem`` checks it).  Both routes read only the
        lower triangle and the real part of the diagonal.

    Returns
    -------
    values : ndarray, shape (..., 4)
        Eigenvalues in ascending order.
    vectors : ndarray, shape (..., 4, 4)
        Orthonormal eigenvectors as columns, column k belonging to value k,
        each gauged so its largest-magnitude component is real positive.

    Raises
    ------
    NonConverged
        If the input has non-finite entries or LAPACK fails to converge.
    """
    hm = np.asarray(h, dtype=complex)
    if hm.shape[-2:] != (4, 4):
        raise ValidationError(f"expected trailing shape (4, 4), got {hm.shape}")
    _require_finite(hm)
    if hm.size >= 16 * _SECTOR_MIN:
        stack = hm.reshape(-1, 4, 4)
        values, vectors = np.empty(stack.shape[:-1]), np.empty(stack.shape, dtype=complex)
        # if one chunk does not commute, the whole stack goes to LAPACK
        chunks = [slice(i, i + _SECTOR_CHUNK) for i in range(0, len(stack), _SECTOR_CHUNK)]
        if all(_sector_eigh(stack[c], values[c], vectors[c]) for c in chunks):
            return values.reshape(hm.shape[:-1]), vectors.reshape(hm.shape)
    try:
        values, vectors = np.linalg.eigh(hm)
    except np.linalg.LinAlgError as exc:
        raise NonConverged(f"LAPACK eigh failed: {exc}") from exc
    _gauge(vectors)
    return values, vectors


def _gauge(vectors):
    """Make the largest-magnitude component of each column real positive, in
    place; of equal magnitudes the first wins.  It has modulus >= 1/2 in a
    unit vector, so the division is safe."""
    idx = np.argmax(np.abs(vectors), axis=-2)
    lead = np.take_along_axis(vectors, idx[..., None, :], axis=-2)
    vectors *= np.conj(lead) / np.abs(lead)


#: Smallest stack that ``eigh_stack`` solves by sector blocks.  The sector
#: solve costs some 40 array operations whatever the stack size, so below
#: this measured crossover one LAPACK call is faster.
_SECTOR_MIN = 64

#: Matrices per sector solve: a chunk's temporaries, 128 KiB an array, stay
#: in cache (the measured optimum; a 26,000-matrix stack takes 0.6x as long
#: as in one piece).
_SECTOR_CHUNK = 2048

#: A matrix counts as commuting with a site exchange when the part its
#: sector blocks drop is at most this multiple of max|H|: roundoff.
_SECTOR_TOL = 8.0 * np.finfo(float).eps

# flat positions of the lower triangle, row by row: h00 h10 h11 h20 ... h33
_LOWER = np.flatnonzero(np.tri(4, dtype=bool))


def _sector_eigh(hm, values, vectors):
    """Write the eigenpairs of a stack hm (n, 4, 4) that commutes with a site
    exchange into values (n, 4) and vectors (n, 4, 4), gauged as
    ``eigh_stack`` returns them, and return True; return False, writing
    nothing, if the stack does not commute.

    The exchange is P = tau_x (x) S, with S = 1 in phase and sigma_z
    anti-phase.  In site blocks H = [[A, C^dag], [C, D]] commutes with P
    iff D = S A S and C = S C^dag S; the P = p sector then holds the 2x2
    block A + p C^dag S on the vectors (u, p S u) / sqrt(2).  The blocks
    are those of H's P-symmetric part, and a stack is refused unless the
    dropped part of every matrix is within _SECTOR_TOL * max|H|, max|H|
    taken over the real and imaginary parts.  Each matrix is scaled by the
    power of two that takes max|H| into [1/2, 1), as LAPACK ``zheevd``
    scales, so no intermediate overflows.
    """
    n = len(hm)
    low = np.take(hm.reshape(n, 16), _LOWER, axis=-1)
    amax = np.max(np.abs(low.view(float)), axis=-1)
    expo = np.clip(np.frexp(amax)[1], -1021, 1024)
    low *= np.ldexp(1.0, -expo)[:, None]
    amax = np.ldexp(amax, -expo)
    h00, h10, h11, h20, h21, h22, h30, h31, h32, h33 = low.T
    h00, h11, h22, h33 = h00.real, h11.real, h22.real, h33.real
    # twice the dropped part, entry by entry
    common = np.maximum.reduce(
        [np.abs(h00 - h22), np.abs(h11 - h33), 2.0 * np.abs(h20.imag), 2.0 * np.abs(h31.imag)]
    )
    for s in (1.0, -1.0):
        dropped = np.maximum(common, np.abs(h10 - s * h32))
        np.maximum(dropped, np.abs(np.conj(h21) - s * h30), out=dropped)
        if np.all(dropped <= 2.0 * _SECTOR_TOL * amax):
            break
    else:
        return False
    # the blocks [[alpha, conj(gamma)], [gamma, delta]] of p = +1, -1 (last axis)
    p = np.array([1.0, -1.0])
    alpha = (0.5 * (h00 + h22))[:, None] + p * h20.real[:, None]
    delta = (0.5 * (h11 + h33))[:, None] + p * (s * h31.real)[:, None]
    gamma = (0.5 * (h10 + s * h32))[:, None] + p * (0.5 * (np.conj(h21) + s * h30))[:, None]
    half, mid, mag = 0.5 * (alpha - delta), 0.5 * (alpha + delta), np.abs(gamma)
    r = np.hypot(half, mag)
    # The levels mid -/+ r have the unit vectors (-conj(w) y, x) and (x, w y),
    # w = gamma / |gamma|, where (x, y) is (g, |gamma|) / hypot(g, |gamma|),
    # g = |half| + r, or its swap where half < 0: no cancellation either way.
    g = np.abs(half) + r
    g[g == 0.0] = 1.0  # g = 0 only where gamma = 0: then (x, y) is (1, 0)
    norm = math.sqrt(2.0) * np.hypot(g, mag)  # sqrt(2) of (u, p S u) / sqrt(2)
    x, y = np.where(half >= 0.0, g, mag) / norm, np.where(half >= 0.0, mag, g) / norm
    # w in real arithmetic: a complex division by a subnormal |gamma| overflows
    w = np.ones_like(gamma)
    np.divide(gamma.real, mag, out=w.real, where=mag > 0.0)
    np.divide(gamma.imag, mag, out=w.imag, where=mag > 0.0)
    # rows 0 and 1 of the columns lo+, lo-, hi+, hi-, merged into ascending order
    levels = np.concatenate([mid - r, mid + r], axis=-1)
    order = np.argsort(levels, axis=-1, kind="stable")
    top = np.empty((n, 2, 4), dtype=complex)
    top[:, 0, :2], top[:, 0, 2:] = -np.conj(w) * y, x
    top[:, 1, :2], top[:, 1, 2:] = x, w * y
    top = np.take_along_axis(top, order[:, None, :], axis=-1)
    _gauge(top)  # rows 2 and 3 are +-rows 0 and 1, so these are the leads
    sign = np.array([[1.0], [s]]) * np.tile(p, 2)[order][:, None, :]
    np.concatenate([top, top * sign], axis=1, out=vectors)
    with np.errstate(over="ignore"):  # a spectrum wider than the float range is inf
        np.ldexp(np.take_along_axis(levels, order, axis=-1), expo[:, None], out=values)
    return True


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues with orthonormal eigenvectors of a 4x4 Hermitian."""

    values: np.ndarray
    vectors: np.ndarray


def eigensystem(h: np.ndarray) -> EigenSystem:
    """Diagonalize one Hermitian 4x4 matrix.

    Raises
    ------
    NonConverged
        If the matrix has non-finite entries.
    NotHermitian
        If the hermiticity defect exceeds HERMITICITY_TOL * max|H|.
    """
    h = np.asarray(h, dtype=complex)
    _require_finite(h)
    require_hermitian(h)
    values, vectors = eigh_stack(h)
    return EigenSystem(values=values, vectors=vectors)


def closed_form_adiabatic_energies(cfg: DriveConfig, label: StateLabel) -> float:
    """Instantaneous energy of one band, closed form.

    For in-phase drives (phi branch 0) the energy is -b/2 (m1 + m2 lam),
    independent of theta; for the anti-phase branch it is
    -m1 b/2 sqrt(1 + lam^2 - 2 m2 lam cos(theta)).

    Raises UnsupportedPhase away from the two branches, and NonConverged
    where any of the four closed forms overflows to inf or nan.
    """
    return _closed_energy_table(cfg, "adiabatic")[LABELS.index(StateLabel(*label))]


def closed_form_quasienergies(cfg: DriveConfig, label: StateLabel) -> float:
    """Rotating-frame eigenvalue (quasienergy) of one band, closed form.

    At omega = 0 this reduces to ``closed_form_adiabatic_energies``; it
    raises as that does.
    """
    return _closed_energy_table(cfg, "rotating")[LABELS.index(StateLabel(*label))]


def _require_regime(regime: str) -> None:
    if regime not in REGIMES:
        raise ValidationError(f"regime must be one of {REGIMES}, got {regime!r}")


def _sector_parameters(cfg: DriveConfig, regime: str) -> tuple[float, float]:
    """Sector parameters (x_+, x_-) of the m2 = +1 and m2 = -1 bands:
    ``_sector_ratios`` at cfg.omega, or at omega = 0 in the adiabatic regime."""
    in_phase = cfg.phase_branch() == 0.0
    _require_regime(regime)
    omega = cfg.omega if regime == "nonadiabatic" else 0.0
    return _sector_ratios(cfg.b, omega, cfg.t_lr, in_phase)


def _sector_roots(cfg: DriveConfig, regime: str, theta):
    """The closed-form kernel: (m1, x, cos(theta), d) of the four bands in
    LABELS order at theta, a float or an array; m1 is (4,), x the shape of
    cfg.b (a float, or an array that broadcasts against theta) + (4,),
    cos(theta) theta.shape + (1,), and d = 1 + x^2 - 2 x cos(theta) their
    broadcast.  ``_root_codes`` names where d fails."""
    x = np.where(_M2 > 0, *np.asarray(_sector_parameters(cfg, regime))[..., None])
    c = np.cos(np.asarray(theta, dtype=float))[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        return _M1, x, c, 1.0 + x * x - 2.0 * x * c


def _root_codes(d):
    """Failure code of each root d of ``_sector_roots``: 1 where sqrt(d) <= ROOT_TOL,
    a band touching (DegenerateGap), 2 where d overflows (NonConverged), else 0."""
    with np.errstate(invalid="ignore"):
        return np.where(np.sqrt(np.maximum(d, 0.0)) <= ROOT_TOL, 1, 2 * ~np.isfinite(d))


def _closed_energy_table(cfg: DriveConfig, regime: str, theta=None) -> np.ndarray:
    """Closed-form energies for all four labels (LABELS order).

    Band (m1, m2) has -m1 b/2 sqrt(d) (see ``_sector_roots``), less m2 t_lr
    for in-phase quasienergies, except in-phase adiabatic -b/2 (m1 + m2 lam),
    which that form at x = 0 rounds differently.  Raises NonConverged
    where an entry overflows to inf or nan.  ``theta``, a float or an array,
    overrides cfg.theta; the result has shape theta.shape + (4,).
    """
    out = _closed_energies(cfg, regime, cfg.theta if theta is None else theta)
    if not np.all(np.isfinite(out)):
        raise NonConverged("closed-form energies overflow to inf or nan")
    return out


def _closed_energies(cfg: DriveConfig, regime: str, theta) -> np.ndarray:
    """``_closed_energy_table`` at theta without its finiteness check: an entry
    that overflows is inf or nan.  A rotating table also takes a block of
    drives, cfg.b and cfg.omega arrays that broadcast against theta; it then
    has their broadcast shape + (4,)."""
    in_phase = cfg.phase_branch() == 0.0
    if regime not in ("adiabatic", "rotating"):
        raise ValidationError(f"regime must be 'adiabatic' or 'rotating', got {regime!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        if regime == "adiabatic" and in_phase:
            return np.broadcast_to(-0.5 * cfg.b * (_M1 + _M2 * cfg.lam), np.shape(theta) + (4,))
        d = _sector_roots(cfg, "adiabatic" if regime == "adiabatic" else "nonadiabatic", theta)[3]
        out = -0.5 * _M1 * np.asarray(cfg.b)[..., None] * np.sqrt(d)
        if regime == "rotating" and in_phase:
            out = out - _M2 * cfg.t_lr
    return out


@dataclass(frozen=True)
class LabeledSpectrum:
    """Numerical eigenpairs bound to their (m1, m2) labels."""

    states: dict[StateLabel, tuple[float, np.ndarray]]

    def energy(self, label: StateLabel) -> float:
        return self.states[StateLabel(*label)][0]

    def vector(self, label: StateLabel) -> np.ndarray:
        return self.states[StateLabel(*label)][1]


def label_eigenstates(
    es: EigenSystem, cfg: DriveConfig, regime: str = "adiabatic"
) -> LabeledSpectrum:
    """Name the four numerical eigenpairs by (m1, m2), by the rule of ``_label_codes``.

    Parameters
    ----------
    es : EigenSystem
        Output of ``eigensystem`` for the matching Hamiltonian.
    cfg : DriveConfig
        Parameters the Hamiltonian was built from.
    regime : {'adiabatic', 'rotating'}
        Which closed-form table the labels refer to.

    Raises
    ------
    DegenerateGap
        If the smallest numerical gap is below DEGENERACY_FACTOR * b;
        labels permute freely near degeneracy points.
    NonConverged
        If the closed-form energies overflow.
    AmbiguousMatch
        If some state is more than RESIDUAL_FACTOR * b from its closed-form energy.
    UnsupportedPhase
        Away from the phi in {0, pi} branches.
    """
    order, _ = _label_bands(cfg, regime, es.values, cfg.theta)
    states = {
        lab: (float(es.values[order[k]]), es.vectors[:, order[k]].copy())
        for k, lab in enumerate(LABELS)
    }
    return LabeledSpectrum(states=states)


def _label_codes(cfg, regime, values, theta, cells: int):
    """The band-labelling rule, over a stack of spectra whose first ``cells`` axes are cells.

    ``values`` (..., 4), ascending, are matched against
    ``_closed_energies(cfg, regime, theta)``, which broadcast against them.
    A cell is labelled when its gaps are at least DEGENERACY_FACTOR * b (one
    wider than the float range is inf, resolved) and its closed forms finite
    and within RESIDUAL_FACTOR * b of its sorted values; any other bijection
    then misplaces some label by more than the gap allows.  An off-branch
    drive raises UnsupportedPhase first.  Returns (order, gaps, residual,
    codes): order[..., k] is the column of label k; gaps and residual (...,)
    are each spectrum's smallest gap and largest deviation from its sorted
    closed energies, nan where those overflow; codes (the cells' shape) are
    0 for a labelled cell, else its first failing check: 1 gap (DegenerateGap),
    2 overflow (NonConverged), as in ``_root_codes``, then 3 residual.
    """
    closed = _closed_energies(cfg, regime, theta)
    ref = np.sort(closed, axis=-1)
    # band by band: numpy's loops over a last axis of 4 take several times as long
    with np.errstate(over="ignore", invalid="ignore"):  # a spectrum overflowing to inf - inf
        gaps = reduce(np.minimum, [values[..., k + 1] - values[..., k] for k in range(3)])
        deviation = reduce(np.maximum, [abs(values[..., k] - ref[..., k]) for k in range(4)])
    finite = reduce(np.logical_and, [np.isfinite(ref[..., k]) for k in range(4)])
    residual = np.where(finite, deviation, np.nan)
    rows = tuple(range(cells, gaps.ndim))  # reduced with keepdims, so that b broadcasts
    unresolved = gaps.min(axis=rows, keepdims=True) < DEGENERACY_FACTOR * cfg.b
    overflow = np.isnan(residual).any(axis=rows, keepdims=True)
    off = residual.max(axis=rows, keepdims=True) > RESIDUAL_FACTOR * cfg.b
    codes = np.where(unresolved, 1, np.where(overflow, 2, 3 * off)).reshape(gaps.shape[:cells])
    return band_order(closed), gaps, residual, codes


def _label_error(code, b, gaps, residual, where=None):
    """The error of one cell's failing ``_label_codes`` code, from its gaps, residual and b,
    ``where`` naming its smallest gap's index; it carries that gap and its largest residual."""
    gap, worst = float(np.min(gaps)), float(np.max(residual))
    if code == 1:
        message = f"eigenvalue gap {gap:.3e} below {DEGENERACY_FACTOR * b:.1e}"
        if where is not None:
            message += f" at grid point {where(np.unravel_index(np.argmin(gaps), np.shape(gaps)))}"
        error = DegenerateGap(message)
    elif code == 2:
        error = NonConverged("closed-form energies overflow to inf or nan")
    else:
        error = AmbiguousMatch(
            f"numerical spectrum deviates from closed form by {worst:.3e}, above 1e-8 * b"
        )
    error.gap, error.residual = gap, worst
    return error


def _label_bands(cfg, regime, values, theta, where=None):
    """``_label_codes`` with the whole stack one cell: (order, min_gap), or its error raised."""
    order, gaps, residual, code = _label_codes(cfg, regime, values, theta, 0)
    if code:
        raise _label_error(code, cfg.b, gaps, residual, where)
    return order, float(np.min(gaps))


def band_order(closed_values: np.ndarray) -> np.ndarray:
    """Position of each label's band in the ascending spectrum.

    ``closed_values`` is a length-4 array in LABELS order; the result maps
    label index -> column index of the ascending-sorted eigensystem.  It is
    the match of ``_label_codes``; energy tables, which must also cross
    band touchings, use it directly.
    """
    return np.argsort(np.argsort(closed_values, kind="stable"), kind="stable")
