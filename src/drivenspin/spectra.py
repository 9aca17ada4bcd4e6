"""Hermitian diagonalization, closed-form energies and band labeling.

The eigensolver is LAPACK ``eigh`` (through numpy) applied to a whole
stack of 4x4 problems at once, followed by a deterministic gauge fix; it
reads no closed form, so it stays an independent route to the spectra.

The one band-labeling rule, ``_label_bands``, lives here too; it names one
spectrum or a grid of spectra by (m1, m2).  Every closed form, here and in
``geometry``, reads its sector parameter x from ``_sector_parameters``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMatch, DegenerateGap, NonConverged, NotHermitian
from .qmodel import LABELS, DriveConfig, StateLabel

HERMITICITY_TOL = 1e-12

REGIMES = ("adiabatic", "nonadiabatic")

#: Band labeling is refused when the smallest eigenvalue gap drops below
#: DEGENERACY_FACTOR * b; near-degenerate bands permute silently otherwise.
DEGENERACY_FACTOR = 1e-6


def _require_finite(h: np.ndarray) -> None:
    """Raise NonConverged if any matrix entry is NaN or infinite."""
    if not np.all(np.isfinite(h)):
        raise NonConverged("matrix has non-finite entries; nothing to diagonalize")


def require_hermitian(h: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Raise NotHermitian unless max|H - H^dag| <= tol * max|H|."""
    h = np.asarray(h)
    defect = np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2))))
    scale = max(np.max(np.abs(h)), 1e-300)
    if defect > tol * scale:
        raise NotHermitian(
            f"hermiticity defect {defect:.3e} exceeds {tol:.1e} * max|H| = {tol * scale:.3e}"
        )


def eigh_stack(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a stack of 4x4 complex Hermitian matrices.

    LAPACK ``eigh`` diagonalizes the whole stack in one call; each
    eigenvector is then gauged so its largest-magnitude component is real
    positive, which makes the output a deterministic function of the input.

    Parameters
    ----------
    h : ndarray, shape (..., 4, 4)
        Hermitian input; hermiticity is the caller's responsibility here
        (the public ``eigensystem`` checks it).

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
        raise ValueError(f"expected trailing shape (4, 4), got {hm.shape}")
    _require_finite(hm)
    try:
        values, vectors = np.linalg.eigh(hm)
    except np.linalg.LinAlgError as exc:
        raise NonConverged(f"LAPACK eigh failed: {exc}") from exc
    # Gauge fix: largest-magnitude component of each column real positive
    # (it has modulus >= 1/2 in a unit vector, so the division is safe).
    idx = np.argmax(np.abs(vectors), axis=-2)
    lead = np.take_along_axis(vectors, idx[..., None, :], axis=-2)
    return values, vectors * (np.conj(lead) / np.abs(lead))


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues with orthonormal eigenvectors of a 4x4 Hermitian."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def gap_min(self) -> float:
        """Smallest separation between adjacent (sorted) eigenvalues."""
        return float(np.min(np.diff(self.values)))


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
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")


def _sector_parameters(cfg: DriveConfig, regime: str) -> tuple[float, float]:
    """Sector parameters (x_+, x_-) of the m2 = +1 and m2 = -1 bands."""
    in_phase = cfg.phase_branch() == 0.0
    if regime == "nonadiabatic":
        return (cfg.mu, cfg.mu) if in_phase else (cfg.delta(+1), cfg.delta(-1))
    _require_regime(regime)
    return (0.0, 0.0) if in_phase else (cfg.lam, -cfg.lam)


def _closed_energy_table(cfg: DriveConfig, regime: str, theta=None) -> np.ndarray:
    """Closed-form energies for all four labels (LABELS order).

    Band (m1, m2) has -m1 b/2 sqrt(1 + x^2 - 2 x cos(theta)), less m2 t_lr
    for in-phase quasienergies, except in-phase adiabatic -b/2 (m1 + m2 lam),
    which that form at x = 0 rounds differently.  Raises NonConverged
    where an entry overflows to inf or nan.

    ``theta`` overrides cfg.theta when sweeping a grid; it may be an array,
    in which case the result has shape theta.shape + (4,).
    """
    in_phase = cfg.phase_branch() == 0.0
    if regime not in ("adiabatic", "rotating"):
        raise ValueError(f"regime must be 'adiabatic' or 'rotating', got {regime!r}")
    xs = _sector_parameters(cfg, "adiabatic" if regime == "adiabatic" else "nonadiabatic")
    th = cfg.theta if theta is None else theta
    c = np.cos(th)
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy's pow overflows to inf where Python's float ** raises
        roots = [np.sqrt(1.0 + x**2 - 2.0 * x * c) for x in map(np.float64, xs)]
    cols = []
    for m1, m2 in LABELS:
        if regime == "adiabatic" and in_phase:
            cols.append(np.broadcast_to(-0.5 * cfg.b * (m1 + m2 * cfg.lam), np.shape(c)))
        else:
            col = -0.5 * m1 * cfg.b * roots[0 if m2 > 0 else 1]
            cols.append(col - m2 * cfg.t_lr if regime == "rotating" and in_phase else col)
    out = np.stack([np.asarray(col, dtype=float) for col in cols], axis=-1)
    if not np.all(np.isfinite(out)):
        raise NonConverged("closed-form energies overflow to inf or nan")
    return out if np.ndim(th) else out.reshape(4)


@dataclass(frozen=True)
class LabeledSpectrum:
    """Numerical eigenpairs bound to their (m1, m2) labels."""

    states: dict[StateLabel, tuple[float, np.ndarray]]
    gap_min: float

    def energy(self, label: StateLabel) -> float:
        return self.states[StateLabel(*label)][0]

    def vector(self, label: StateLabel) -> np.ndarray:
        return self.states[StateLabel(*label)][1]


def label_eigenstates(
    es: EigenSystem, cfg: DriveConfig, regime: str = "adiabatic"
) -> LabeledSpectrum:
    """Name the four numerical eigenpairs by (m1, m2), by the rule of ``_label_bands``.

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
        If some state is more than 1e-8 * b from its closed-form energy.
    UnsupportedPhase
        Away from the phi in {0, pi} branches.
    """
    order, gap_min = _label_bands(cfg, regime, es.values)
    states = {
        lab: (float(es.values[order[k]]), es.vectors[:, order[k]].copy())
        for k, lab in enumerate(LABELS)
    }
    return LabeledSpectrum(states=states, gap_min=gap_min)


def _label_bands(cfg, regime, values, theta=None, where=None):
    """The band-labeling rule, for one spectrum or a stack of spectra.

    ``values`` (..., 4), ascending, are matched against
    ``_closed_energy_table(cfg, regime, theta)``, which must broadcast
    against them.  Bands must be resolved (gap at least
    DEGENERACY_FACTOR * b) and the closed forms finite and within 1e-8 * b
    of the sorted values; any other bijection then misplaces some label by
    more than the gap allows, so the sort-order match is the only one.
    ``where`` names a stack index in messages.

    Returns (order, min_gap); order[..., k] is the column of label k.
    """
    gaps = np.diff(values, axis=-1)
    min_gap = float(np.min(gaps))
    if min_gap < DEGENERACY_FACTOR * cfg.b:
        message = f"eigenvalue gap {min_gap:.3e} below {DEGENERACY_FACTOR * cfg.b:.1e}"
        if where is not None:
            ix = np.unravel_index(int(np.argmin(np.min(gaps, axis=-1))), gaps.shape[:-1])
            message += f" at grid point {where(ix)}"
        raise DegenerateGap(message)
    closed = _closed_energy_table(cfg, regime, theta)
    residual = float(np.max(np.abs(values - np.sort(closed, axis=-1))))
    if residual > 1e-8 * cfg.b:
        raise AmbiguousMatch(
            f"numerical spectrum deviates from closed form by {residual:.3e}, "
            "above 1e-8 * b"
        )
    return band_order(closed), min_gap


def band_order(closed_values: np.ndarray) -> np.ndarray:
    """Position of each label's band in the ascending spectrum.

    ``closed_values`` is a length-4 array in LABELS order; the result maps
    label index -> column index of the ascending-sorted eigensystem.  It is
    the match of ``_label_bands``; energy tables, which must also cross
    band touchings, use it directly.
    """
    return np.argsort(np.argsort(closed_values, kind="stable"), kind="stable")
