"""Hermitian diagonalization, closed-form energies and band labeling.

The eigensolver is LAPACK ``eigh`` (through numpy) applied to a whole
stack of 4x4 problems at once, followed by a deterministic gauge fix; it
reads no closed form, so it stays an independent route to the spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import AmbiguousMatch, DegenerateGap, NonConverged, NotHermitian
from .qmodel import LABELS, DriveConfig, StateLabel

HERMITICITY_TOL = 1e-12

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

    Raises UnsupportedPhase away from the two branches.
    """
    return _closed_energy_table(cfg, "adiabatic")[LABELS.index(StateLabel(*label))]


def closed_form_quasienergies(cfg: DriveConfig, label: StateLabel) -> float:
    """Rotating-frame eigenvalue (quasienergy) of one band, closed form.

    At omega = 0 this reduces to ``closed_form_adiabatic_energies``.
    """
    return _closed_energy_table(cfg, "rotating")[LABELS.index(StateLabel(*label))]


def _closed_energy_table(cfg: DriveConfig, regime: str, theta=None) -> np.ndarray:
    """Closed-form energies for all four labels (LABELS order).

    ``theta`` overrides cfg.theta when sweeping a grid; it may be an array,
    in which case the result has shape theta.shape + (4,).
    """
    branch = cfg.phase_branch()
    th = cfg.theta if theta is None else theta
    c = np.cos(th)
    cols = []
    if regime == "adiabatic":
        lam = cfg.lam
        for m1, m2 in LABELS:
            if branch == 0.0:
                cols.append(np.broadcast_to(-0.5 * cfg.b * (m1 + m2 * lam), np.shape(c)))
            else:
                cols.append(-0.5 * m1 * cfg.b * np.sqrt(1.0 + lam**2 - 2.0 * m2 * lam * c))
    elif regime == "rotating":
        for m1, m2 in LABELS:
            if branch == 0.0:
                mu = cfg.mu
                root = np.sqrt(1.0 + mu**2 - 2.0 * mu * c)
                cols.append(-0.5 * m1 * cfg.b * root - m2 * cfg.t_lr)
            else:
                d = cfg.delta(m2)
                cols.append(-0.5 * m1 * cfg.b * np.sqrt(1.0 + d**2 - 2.0 * d * c))
    else:
        raise ValueError(f"regime must be 'adiabatic' or 'rotating', got {regime!r}")
    out = np.stack([np.asarray(col, dtype=float) for col in cols], axis=-1)
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
    """Name the four numerical eigenpairs by (m1, m2).

    The bijective assignment minimizing the total |E_numeric - E_closed| is
    found by enumerating all 24 permutations; with valid inputs it is also
    the sort-order match.

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
    AmbiguousMatch
        If two assignments tie, or the best assignment leaves a residual
        above 1e-8 * b for some state.
    UnsupportedPhase
        Away from the phi in {0, pi} branches.
    """
    closed = _closed_energy_table(cfg, regime)
    gap_min = es.gap_min
    if gap_min < DEGENERACY_FACTOR * cfg.b:
        raise DegenerateGap(
            f"minimal eigenvalue gap {gap_min:.3e} below threshold "
            f"{DEGENERACY_FACTOR * cfg.b:.3e}; labeling is ill-defined"
        )
    best_cost = math.inf
    second = math.inf
    best: tuple[int, ...] | None = None
    for perm in permutations(range(4)):
        cost = sum(abs(es.values[perm[k]] - closed[k]) for k in range(4))
        if cost < best_cost:
            second = best_cost
            best_cost = cost
            best = perm
        elif cost < second:
            second = cost
    assert best is not None
    if second - best_cost < 1e-12 * cfg.b:
        raise AmbiguousMatch(
            f"two label assignments tie within {1e-12 * cfg.b:.1e} "
            f"(costs {best_cost:.3e} / {second:.3e})"
        )
    residual = max(abs(es.values[best[k]] - closed[k]) for k in range(4))
    if residual > 1e-8 * cfg.b:
        raise AmbiguousMatch(
            f"best assignment residual {residual:.3e} exceeds 1e-8 * b; "
            "numerical and closed-form spectra disagree"
        )
    states = {
        LABELS[k]: (float(es.values[best[k]]), es.vectors[:, best[k]].copy())
        for k in range(4)
    }
    return LabeledSpectrum(states=states, gap_min=gap_min)


def band_order(closed_values: np.ndarray) -> np.ndarray:
    """Position of each label's band in the ascending spectrum.

    ``closed_values`` is a length-4 array in LABELS order; the result maps
    label index -> column index of the ascending-sorted eigensystem.  Used
    by grid sweeps, where closed and numerical values agree to 1e-10 and
    the sort-order match equals the assignment-problem optimum.
    """
    return np.argsort(np.argsort(closed_values, kind="stable"), kind="stable")
