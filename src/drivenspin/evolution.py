"""Time evolution over one drive period and phase extraction.

The drive admits an exact propagator: in the co-rotating frame the
Hamiltonian is static, so U(t) = R(t) exp(-i H_rot t) with R(t) the frame
rotation generated by Sz_total.  ``evolve`` diagonalizes H_rot once, in a
``CyclicSystem``.  An explicit Runge-Kutta integration of the
time-dependent Schroedinger equation serves as the independent check.

The same rotation carries the lab Hamiltonian along the drive,
H(t) = R(t) H(0) R(t)^H, and conjugation commutes with the RK4 stage
polynomial, so step k of the integration has the transfer matrix
M_k = R(t_k) M_0 R(t_k)^H.  The N-step product therefore telescopes to
R(t) (R(-dt) M_0)^N: ``propagator_rk4`` builds the first step's M_0 from
three lab Hamiltonians and takes the power by repeated squaring.  It still
integrates N steps of size t/N, with RK4's O(N^-4) error, and never reads
H_rot's eigensystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonConverged, ZeroFrequency
from .geometry import _sz_total, fold_phase
from .qmodel import (
    DriveConfig,
    StateLabel,
    _lab_hamiltonian,
    _require_int,
    build_rotating_hamiltonian,
    rotation_about_z,
)
from .spectra import EigenSystem, LabeledSpectrum, eigensystem, label_eigenstates

#: Largest re-unitarization correction (drift) an RK4 endpoint may need.
#: Resolved drive periods drift by about 1e-8 at 1000 steps; a step near
#: RK4's stability limit drifts by O(1).
RK4_DRIFT_TOL = 1e-6


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
        with np.errstate(over="ignore", invalid="ignore"):
            phases = np.exp(-1j * self.eig.values * float(t))
        if not np.all(np.isfinite(phases)):
            raise NonConverged(f"spectral phases E t overflow at t = {float(t):.3e}")
        return rotation_about_z(self.cfg.omega * float(t)) @ (
            (self.eig.vectors * phases) @ self.eig.vectors.conj().T
        )

    def phases(self, label: StateLabel) -> PhaseBreakdown:
        """Phase breakdown over one period; see ``extract_phases``."""
        vec = self.labeled.vector(label)
        psi_t = self.propagator(self.period) @ vec
        total = float(np.angle(np.vdot(vec, psi_t)))
        sz = _sz_total(vec)
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
        """Co-rotating quadrature of the dynamical phase; see ``dynamical_phase_quadrature``."""
        vec = self.labeled.vector(label)
        n = _require_int("n_panels", n_panels)
        if n < 2 or n % 2:
            raise ValueError(f"n_panels must be even and >= 2, got {n}")
        es = self.eig
        times = np.linspace(0.0, self.period, n + 1)
        # psi_rot(t) = V a(t) with a(t) = exp(-i E t) V^H psi(0), so the
        # integrand <psi_rot|H(0)|psi_rot> is a^H G a with G = V^H H(0) V
        a = np.exp(-1j * np.outer(es.values, times))
        a *= (es.vectors.conj().T @ vec)[:, None]
        ga = es.vectors.conj().T @ _lab_hamiltonian(self.cfg) @ es.vectors @ a
        ga *= np.conj(a, out=a)
        expval = ga.sum(axis=0).real
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
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return CyclicSystem.of(cfg).propagator(t)


def _rk4_product(cfg: DriveConfig, t: float, n: int) -> np.ndarray:
    """Raw product M_{n-1} ... M_0 of n classical RK4 transfer matrices over [0, t].

    The equation is linear, so each RK4 step is a transfer matrix acting on
    U.  M_0 is built from the lab Hamiltonian at the first step's start,
    middle and end; the product telescopes to R(t) (R(-dt) M_0)^n (see the
    module docstring).  Steps far too coarse for ||H|| t overflow: callers
    run this under an errstate that lets them through, and test the result.
    """
    dt = float(t) / n
    h0, h1, h2 = _lab_hamiltonian(cfg, s=cfg.omega * np.array([0.0, 0.5 * dt, dt]))
    k1 = -1j * h0
    k2 = -1j * (h1 + 0.5 * dt * (h1 @ k1))
    k3 = -1j * (h1 + 0.5 * dt * (h1 @ k2))
    k4 = -1j * (h2 + dt * (h2 @ k3))
    m0 = np.eye(4) + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    step = rotation_about_z(-cfg.omega * dt) @ m0
    return rotation_about_z(cfg.omega * float(t)) @ np.linalg.matrix_power(step, n)


def propagator_rk4(
    cfg: DriveConfig, t: float, n_steps: int, return_drift: bool = False
):
    """Classical 4th-order integration of i dU/dt = H(t) U from identity.

    Independent of the rotating-frame route: n_steps steps of size
    t / n_steps, whose product is built from the first step's transfer
    matrix and the drive rotation (see the module docstring).  The raw
    endpoint is polished back onto the unitary group by polar
    decomposition; the size of that correction (the drift) is available via
    ``return_drift``.

    Parameters
    ----------
    cfg : DriveConfig
        Drive parameters, omega > 0.
    t : float
        Final time.
    n_steps : int
        Number of RK4 steps, at least 1000; global error is O(n_steps^-4).
    return_drift : bool
        If true, also return the drift.

    Raises NonConverged if the transfer-matrix product or its drift
    overflows, or if the drift exceeds RK4_DRIFT_TOL: the steps are then
    too coarse to resolve t.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _require_driven(cfg)
    n = _require_int("n_steps", n_steps)
    if n < 1000:
        raise ValueError(f"n_steps must be at least 1000, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        u = _rk4_product(cfg, t, n)
    if not np.all(np.isfinite(u)):
        raise NonConverged(f"RK4 transfer product overflowed: {n} steps over t = {t:.3e}")
    # polar projection onto the closest unitary
    w, _, vh = np.linalg.svd(u)
    unitary = w @ vh
    with np.errstate(over="ignore"):
        drift = float(np.linalg.norm(unitary - u))
    if not math.isfinite(drift):
        raise NonConverged(f"RK4 endpoint too large to measure its drift: t = {t:.3e}")
    if drift > RK4_DRIFT_TOL:
        raise NonConverged(
            f"RK4 endpoint drifted {drift:.2e} off the unitary group (tolerance "
            f"{RK4_DRIFT_TOL:.0e}); {n} steps cannot resolve t = {t:.3e}, use more steps"
        )
    return (unitary, drift) if return_drift else unitary


def _rk4_error_estimate(cfg: DriveConfig, t: float, n: int) -> float:
    """Step-doubling estimate of the error of an n-step ``propagator_rk4`` endpoint.

    RK4's global error is O(n^-4), so the raw products U_n and U_2n at n
    and 2n steps give the error of U_n as 16/15 max|U_n - U_2n|, entry by
    entry (Hairer, Norsett and Wanner, *Solving ODEs I*, II.4).  Takes the
    arguments of a ``propagator_rk4`` call that succeeded; an overflowing
    product gives inf or nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.max(np.abs(_rk4_product(cfg, t, n) - _rk4_product(cfg, t, 2 * n)))
    return 16.0 / 15.0 * float(gap)


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

    The exact trajectory is psi(t) = R(t) psi_rot(t) and the lab Hamiltonian
    is covariant, H(t) = R(t) H(0) R(t)^H, so the integrand is
    <psi_rot(t)|H(0)|psi_rot(t)>, with H(0) from the lab-frame builder: an
    independent route to the closed-form dynamical phase used by
    ``extract_phases`` (folded comparison).
    """
    return CyclicSystem.of(cfg).dynamical_quadrature(label, n_panels)


def floquet_residual(cfg: DriveConfig, label: StateLabel) -> float:
    """How far the labeled rotating-frame eigenvector is from a Floquet state.

    Returns |U(T) psi - <psi|U(T) psi> psi|, which vanishes when psi is an
    eigenvector of the one-period propagator.
    """
    return CyclicSystem.of(cfg).floquet_residual(label)
