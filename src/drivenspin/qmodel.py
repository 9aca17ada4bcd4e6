"""Single-particle basis, spin/site operators and the driven Hamiltonians.

The Hilbert space is the single-particle sector of a qubit hopping between
two sites, with basis ordered |L up>, |L dn>, |R up>, |R dn> (site-major).
Spin operators follow the S = sigma/2 convention, acting on the spin factor
of their own site block and vanishing on the other site.

The drive is a circularly polarized field parametrized on a sphere: the
static part is B cos(theta) along z, the rotating part B sin(theta) in the
xy plane with site-dependent phase s + phi_i.  The phase argument ``s``
stands for Omega*t, so one builder serves both the physical time evolution
(s = Omega*t) and the adiabatic parameter loop (s = varphi).  Both builders
read the drive from one ``DriveConfig``, a theta grid aside; the frame
co-rotating at cfg.omega is, at omega = 0, the adiabatic Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedPhase, ValidationError

# Tolerance for recognizing phi_l - phi_r as one of the closed-form branches.
PHASE_BRANCH_TOL = 1e-9


class _StateLabelBase(NamedTuple):
    m1: int
    m2: int


class StateLabel(_StateLabelBase):
    """Band label (m1, m2), both entries +1 or -1.

    m1 tracks the spin-like character of the band (sign of the field-aligned
    component), m2 the bonding/antibonding site character.
    """

    __slots__ = ()

    def __new__(cls, m1, m2):
        m1 = int(m1)
        m2 = int(m2)
        if m1 not in (-1, 1) or m2 not in (-1, 1):
            raise ValidationError(f"state label entries must be +1 or -1, got ({m1}, {m2})")
        return super().__new__(cls, m1, m2)

    def __str__(self):
        return f"m1{'+' if self.m1 > 0 else '-'}_m2{'+' if self.m2 > 0 else '-'}"


#: The four band labels in a fixed canonical order.
LABELS = (
    StateLabel(+1, +1),
    StateLabel(+1, -1),
    StateLabel(-1, +1),
    StateLabel(-1, -1),
)


def _sector_ratios(b, omega, t_lr, in_phase: bool):
    """Cyclic sector parameters (x_+, x_-) of the m2 = +1 and m2 = -1 bands.

    In phase both are mu = omega / b; anti-phase they are
    Delta_m2 = (omega + 2 m2 t_lr) / b.  Plain arithmetic, so floats give
    floats and arrays broadcast elementwise; an array caller that may
    overflow wraps the call in ``np.errstate(over="ignore")``.
    """
    if in_phase:
        mu = omega / b
        return mu, mu
    return (omega + 2.0 * t_lr) / b, (omega - 2.0 * t_lr) / b


def _require_int(name: str, value) -> int:
    """``value`` as an int; a ValidationError naming it unless it is an integer."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DriveConfig:
    """All physical parameters of the drive.

    Parameters
    ----------
    b : float
        Field magnitude, energy units; must be > 0.
    theta : float
        Polar angle of the field, radians, in [0, pi].
    phi_l, phi_r : float
        Drive phase offsets at the left/right site, radians.
    omega : float
        Drive angular frequency (hbar = 1); must be >= 0.
    t_lr : float
        Tunneling amplitude between the sites; must be >= 0.

    The dimensionless ratios lam = 2 t_lr / b, mu = omega / b and
    delta(m2) = (omega + 2 m2 t_lr) / b are derived properties, never stored.

    Every field is stored as a Python float.  The constructor converts all
    six fields, then refuses the first non-finite one in declaration order,
    then b <= 0, theta outside [0, pi], omega < 0 and t_lr < 0, in that
    order, each with a ValidationError naming the field; ``dataclasses.replace``
    validates the same way.
    """

    b: float
    theta: float
    phi_l: float = 0.0
    phi_r: float = 0.0
    omega: float = 0.0
    t_lr: float = 0.0

    # hand-written: the generated __init__ with a __post_init__ costs 2.5x as much
    def __init__(self, b, theta, phi_l=0.0, phi_r=0.0, omega=0.0, t_lr=0.0):
        fields = self.__dict__  # written directly: the dataclass is frozen
        fields["b"] = b = float(b)
        fields["theta"] = theta = float(theta)
        fields["phi_l"] = phi_l = float(phi_l)
        fields["phi_r"] = phi_r = float(phi_r)
        fields["omega"] = omega = float(omega)
        fields["t_lr"] = t_lr = float(t_lr)
        # one test for all six: a non-finite field makes the sum non-finite, and
        # finite fields whose sum overflows pass the loop
        if not math.isfinite(b + theta + phi_l + phi_r + omega + t_lr):
            for name, value in fields.items():
                if not math.isfinite(value):
                    raise ValidationError(f"{name} must be finite, got {value}")
        if b <= 0.0:
            raise ValidationError(f"b must be > 0, got {b}")
        if not 0.0 <= theta <= math.pi:
            raise ValidationError(f"theta must lie in [0, pi], got {theta}")
        if omega < 0.0:
            raise ValidationError(f"omega must be >= 0, got {omega}")
        if t_lr < 0.0:
            raise ValidationError(f"t_lr must be >= 0, got {t_lr}")

    @property
    def lam(self) -> float:
        """Tunneling ratio 2 t_lr / b."""
        return 2.0 * self.t_lr / self.b

    @property
    def mu(self) -> float:
        """Frequency ratio omega / b."""
        return _sector_ratios(self.b, self.omega, self.t_lr, in_phase=True)[0]

    def delta(self, m2: int) -> float:
        """Shifted frequency ratio (omega + 2 m2 t_lr) / b."""
        if m2 not in (-1, 1):
            raise ValidationError(f"m2 must be +1 or -1, got {m2}")
        return _sector_ratios(self.b, self.omega, self.t_lr, in_phase=False)[0 if m2 > 0 else 1]

    @property
    def phi_diff(self) -> float:
        """Site phase difference phi_l - phi_r."""
        return self.phi_l - self.phi_r

    def phase_branch(self) -> float:
        """Return 0.0 or pi according to phi_l - phi_r (mod 2 pi).

        Raises
        ------
        UnsupportedPhase
            If the phase difference is not within PHASE_BRANCH_TOL of either
            branch; the closed forms are only available for these two.
        """
        r = self.phi_diff % (2.0 * math.pi)
        if min(r, 2.0 * math.pi - r) <= PHASE_BRANCH_TOL:
            return 0.0
        if abs(r - math.pi) <= PHASE_BRANCH_TOL:
            return math.pi
        raise UnsupportedPhase(
            f"phi_l - phi_r = {self.phi_diff} is neither 0 nor pi (mod 2 pi)"
        )


def _embed(block: np.ndarray, site: int) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    k = 2 * site
    out[k : k + 2, k : k + 2] = block
    return out


_SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
_SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)

_OPS = {
    "Sx_L": _embed(_SX, 0),
    "Sy_L": _embed(_SY, 0),
    "Sz_L": _embed(_SZ, 0),
    "Sx_R": _embed(_SX, 1),
    "Sy_R": _embed(_SY, 1),
    "Sz_R": _embed(_SZ, 1),
    "Hop": np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2)),
}
_OPS["Sz_total"] = _OPS["Sz_L"] + _OPS["Sz_R"]

#: Diagonal of Sz_total; handy for building the co-rotating transformation.
SZ_TOTAL_DIAG = np.diag(_OPS["Sz_total"]).real.copy()


def spin_site_operators() -> dict[str, np.ndarray]:
    """Return the per-site spin operators, the hop operator and Sz_total.

    All returned matrices are Hermitian, freshly allocated 4x4 complex
    arrays on the basis |L up>, |L dn>, |R up>, |R dn>.  The hop operator
    connects |L sigma> and |R sigma> with unit amplitude.
    """
    return {name: op.copy() for name, op in _OPS.items()}


def _lab_hamiltonian(cfg: DriveConfig, theta=None, s=0.0) -> np.ndarray:
    """Lab-frame Hamiltonian of drive ``cfg``, broadcast over ``theta`` and ``s``.

    ``theta``, cfg.theta if None, may be a grid and is not validated:
    geometry routines probe theta slightly outside [0, pi] when centering
    cells at the poles.  The trigonometric factors are taken on theta's and
    s's own shapes and broadcast only where they enter ``h``.  A block of
    drives, cfg.b (and cfg.omega, for ``_rotating_hamiltonian``) arrays that
    broadcast against theta, gives the broadcast grid of Hamiltonians.
    """
    theta = np.asarray(cfg.theta if theta is None else theta, dtype=float)
    s = np.asarray(s, dtype=float)
    shape = np.broadcast_shapes(theta.shape, s.shape, np.shape(cfg.b))
    h = np.zeros(shape + (4, 4), dtype=complex)
    dz = 0.5 * cfg.b * np.cos(theta)
    h[..., 0, 0] = dz
    h[..., 1, 1] = -dz
    h[..., 2, 2] = dz
    h[..., 3, 3] = -dz
    flip = 0.5 * cfg.b * np.sin(theta)
    left = flip * np.exp(-1j * (s + cfg.phi_l))
    right = flip * np.exp(-1j * (s + cfg.phi_r))
    h[..., 0, 1] = left
    h[..., 1, 0] = np.conj(left)
    h[..., 2, 3] = right
    h[..., 3, 2] = np.conj(right)
    h[..., 0, 2] = cfg.t_lr
    h[..., 2, 0] = cfg.t_lr
    h[..., 1, 3] = cfg.t_lr
    h[..., 3, 1] = cfg.t_lr
    return h


def _rotating_hamiltonian(cfg: DriveConfig, theta=None) -> np.ndarray:
    """Hamiltonian in the frame co-rotating at cfg.omega, broadcast over ``theta``:
    the lab frame at s = 0 less omega Sz_total, so at omega = 0 the adiabatic one."""
    h = _lab_hamiltonian(cfg, theta)
    shift = 0.5 * cfg.omega
    h[..., 0, 0] -= shift
    h[..., 1, 1] += shift
    h[..., 2, 2] -= shift
    h[..., 3, 3] += shift
    return h


def build_hamiltonian(cfg: DriveConfig, s: float) -> np.ndarray:
    """Lab-frame Hamiltonian H(s) at drive phase ``s``.

    The result is Hermitian and 2 pi periodic in s; its spectrum is
    independent of s (a joint shift of the drive phases is a frame choice).
    """
    if not math.isfinite(s):
        raise ValidationError(f"s must be finite, got {s}")
    return _lab_hamiltonian(cfg, s=float(s))


def build_rotating_hamiltonian(cfg: DriveConfig) -> np.ndarray:
    """Time-independent Hamiltonian in the frame co-rotating with the drive.

    Equals ``build_hamiltonian(cfg, 0)`` with the static field reduced by
    omega on the Sz parts; for omega = 0 the two builders coincide.
    """
    return _rotating_hamiltonian(cfg)


def rotation_about_z(angle: float) -> np.ndarray:
    """Unitary exp(-i * angle * Sz_total); diagonal in the site-major basis."""
    return np.diag(np.exp(-1j * float(angle) * SZ_TOTAL_DIAG))
