"""Time evolution over one drive period and phase extraction.

The drive admits an exact propagator: in the co-rotating frame the
Hamiltonian is static, so U(t) = R(t) exp(-i H_rot t) with R(t) the frame
rotation generated by Sz_total.  ``evolve`` diagonalizes H_rot once, in a
``CyclicSystem``.  An explicit Runge-Kutta integration of the
time-dependent Schroedinger equation serves as the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonConverged, ZeroFrequency
from .geometry import fold_phase
from .qmodel import (
    SZ_TOTAL_DIAG,
    DriveConfig,
    StateLabel,
    _lab_hamiltonian,
    build_rotating_hamiltonian,
    rotation_about_z,
)
from .spectra import EigenSystem, LabeledSpectrum, eigensystem, label_eigenstates


@dataclass(frozen=True)
class PhaseBreakdown:
    """Total, dynamical and geometric phase over one drive period."""

    total: float
    dynamical: float
    geometric: float
    period: float

    def __post_init__(self):
        gap = abs(fold_phase(self.geometric - (self.total - self.dynamical)))
        if gap > 1e-10:
            raise ValueError(
                f"geometric != total - dynamical (mod 2 pi), defect {gap:.3e}"
            )


def _require_driven(cfg: DriveConfig) -> float:
    if cfg.omega <= 0.0:
        raise ZeroFrequency("time evolution over a drive period needs omega > 0")
    return 2.0 * math.pi / cfg.omega


@dataclass(frozen=True)
class CyclicSystem:
    """A drive configuration with its rotating-frame Hamiltonian diagonalized.

    Build it with ``CyclicSystem.of(cfg)``.  The (m1, m2) labels are
    assigned on first use, so ``propagator`` also works off the phi in
    {0, pi} branches and at degenerate points, where labeling fails.
    """

    cfg: DriveConfig
    period: float
    eig: EigenSystem

    @classmethod
    def of(cls, cfg: DriveConfig) -> CyclicSystem:
        period = _require_driven(cfg)
        return cls(cfg, period, eigensystem(build_rotating_hamiltonian(cfg)))

    @cached_property
    def labeled(self) -> LabeledSpectrum:
        return label_eigenstates(self.eig, self.cfg, regime="rotating")

    def propagator(self, t: float) -> np.ndarray:
        """U(t) = R(t) exp(-i H_rot t); see ``propagator_exact``."""
        phases = np.exp(-1j * self.eig.values * float(t))
        return rotation_about_z(self.cfg.omega * float(t)) @ (
            (self.eig.vectors * phases) @ self.eig.vectors.conj().T
        )

    def phases(self, label: StateLabel) -> PhaseBreakdown:
        """Phase breakdown over one period; see ``extract_phases``."""
        vec = self.labeled.vector(label)
        psi_t = self.propagator(self.period) @ vec
        total = float(np.angle(np.vdot(vec, psi_t)))
        sz = float(np.real(np.vdot(vec, SZ_TOTAL_DIAG * vec)))
        energy = self.labeled.energy(label)
        dynamical = fold_phase(-self.period * (energy + self.cfg.omega * sz))
        geometric = fold_phase(total - dynamical)
        return PhaseBreakdown(
            total=fold_phase(total),
            dynamical=dynamical,
            geometric=geometric,
            period=self.period,
        )

    def dynamical_quadrature(self, label: StateLabel, n_panels: int = 10_000) -> float:
        """Quadrature of the dynamical phase; see ``dynamical_phase_quadrature``."""
        vec = self.labeled.vector(label)
        n = int(n_panels)
        if n < 2 or n % 2:
            raise ValueError(f"n_panels must be even and >= 2, got {n}")
        cfg, es = self.cfg, self.eig
        times = np.linspace(0.0, self.period, n + 1)
        # psi(t) = R(omega t) V exp(-i E t) V^H psi(0), vectorized over t
        coeff = es.vectors.conj().T @ vec
        rot_frame = es.vectors @ (np.exp(-1j * np.outer(times, es.values)) * coeff).T
        psi = np.exp(-1j * np.outer(cfg.omega * times, SZ_TOTAL_DIAG)) * rot_frame.T
        hs = _lab_hamiltonian(
            cfg.b, cfg.theta, cfg.phi_l, cfg.phi_r, cfg.t_lr, cfg.omega * times
        )
        expval = np.real(np.einsum("ti,tij,tj->t", np.conj(psi), hs, psi))
        weights = np.ones(n + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        integral = (self.period / n) / 3.0 * float(np.dot(weights, expval))
        return -integral

    def floquet_residual(self, label: StateLabel) -> float:
        """Distance from a Floquet state; see ``floquet_residual``."""
        vec = self.labeled.vector(label)
        psi_t = self.propagator(self.period) @ vec
        eigval = np.vdot(vec, psi_t)
        return float(np.linalg.norm(psi_t - eigval * vec))


def propagator_exact(cfg: DriveConfig, t: float) -> np.ndarray:
    """Exact propagator of the driven Hamiltonian from time 0 to t.

    Built as R(t) exp(-i H_rot t); the matrix exponential is evaluated by
    spectral decomposition of the static rotating-frame Hamiltonian, so the
    result is unitary to roundoff.
    """
    return CyclicSystem.of(cfg).propagator(t)


def propagator_rk4(
    cfg: DriveConfig, t: float, n_steps: int, return_drift: bool = False
):
    """Classical 4th-order integration of i dU/dt = H(t) U from identity.

    Independent of the rotating-frame route: the lab Hamiltonian is
    evaluated on the fly at each stage.  The raw endpoint is polished back
    onto the unitary group by polar decomposition; the size of that
    correction is available via ``return_drift``.

    Parameters
    ----------
    cfg : DriveConfig
        Drive parameters, omega > 0.
    t : float
        Final time.
    n_steps : int
        Number of RK4 steps, at least 1000; global error is O(n_steps^-4).
    return_drift : bool
        If true, also return the norm of the re-unitarization correction.

    Raises NonConverged if the transfer-matrix product overflows.
    """
    _require_driven(cfg)
    n = int(n_steps)
    if n < 1000:
        raise ValueError(f"n_steps must be at least 1000, got {n}")
    dt = float(t) / n
    # Hamiltonians at every half-step, built in one vectorized pass.
    times = 0.5 * dt * np.arange(2 * n + 1)
    hs = _lab_hamiltonian(
        cfg.b, cfg.theta, cfg.phi_l, cfg.phi_r, cfg.t_lr, cfg.omega * times
    )
    h0, h1, h2 = hs[0:-1:2], hs[1::2], hs[2::2]
    # The equation is linear, so the classical RK4 update is a per-step
    # transfer matrix M_k acting on U; all M_k are built batched and then
    # multiplied in step order (pairwise, which preserves the ordering).
    k1 = -1j * h0
    k2 = -1j * (h1 + 0.5 * dt * np.matmul(h1, k1))
    k3 = -1j * (h1 + 0.5 * dt * np.matmul(h1, k2))
    k4 = -1j * (h2 + dt * np.matmul(h2, k3))
    m = np.eye(4, dtype=complex) + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # Steps far too coarse for ||H|| t overflow; reported as NonConverged below.
    with np.errstate(over="ignore", invalid="ignore"):
        while m.shape[0] > 1:
            half = m.shape[0] // 2
            paired = np.matmul(m[1 : 2 * half : 2], m[0 : 2 * half : 2])
            m = paired if m.shape[0] % 2 == 0 else np.concatenate([paired, m[-1:]])
    u = m[0]
    if not np.all(np.isfinite(u)):
        raise NonConverged(f"RK4 transfer product overflowed: {n} steps over t = {t:.3e}")
    # polar projection onto the closest unitary
    w, _, vh = np.linalg.svd(u)
    unitary = w @ vh
    if return_drift:
        return unitary, float(np.linalg.norm(unitary - u))
    return unitary


def extract_phases(cfg: DriveConfig, label: StateLabel) -> PhaseBreakdown:
    """Total, dynamical and geometric phase of a cyclic state over one period.

    The cyclic states are the labeled rotating-frame eigenvectors: after
    one period they return to themselves up to a phase.  The dynamical part
    is -T (E_n + omega <Sz_total>), which equals the time integral of the
    instantaneous energy expectation (the integrand is constant); the
    geometric part is the remainder mod 2 pi.

    Note that the geometric phase extracted this way exceeds
    ``geometry.aa_phase_closed`` by exactly pi (mod 2 pi): the frame
    rotation over a full period is -1 on the half-spin sector, and that
    sign lands in the total phase.  Both conventions are reported by the
    toolkit; neither is shifted to match the other.
    """
    return CyclicSystem.of(cfg).phases(label)


def dynamical_phase_quadrature(
    cfg: DriveConfig, label: StateLabel, n_panels: int = 10_000
) -> float:
    """Dynamical phase by composite-Simpson quadrature of <psi(t)|H(t)|psi(t)>.

    The trajectory psi(t) comes from the exact propagator and H(t) from the
    lab-frame builder, so this is an independent route to the closed-form
    dynamical phase used by ``extract_phases`` (folded comparison).
    """
    return CyclicSystem.of(cfg).dynamical_quadrature(label, n_panels)


def floquet_residual(cfg: DriveConfig, label: StateLabel) -> float:
    """How far the labeled rotating-frame eigenvector is from a Floquet state.

    Returns |U(T) psi - <psi|U(T) psi> psi|, which vanishes when psi is an
    eigenvector of the one-period propagator.
    """
    return CyclicSystem.of(cfg).floquet_residual(label)
