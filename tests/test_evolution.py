import math

import numpy as np
import pytest

from drivenspin import (
    DriveConfig,
    LABELS,
    StateLabel,
    ZeroFrequency,
    aa_phase_closed,
    build_rotating_hamiltonian,
    circular_distance,
    closed_form_quasienergies,
    dynamical_phase_quadrature,
    eigensystem,
    extract_phases,
    floquet_residual,
    fold_phase,
    label_eigenstates,
    propagator_exact,
    propagator_rk4,
)
from drivenspin import spectra
from drivenspin.cli import main
from drivenspin.evolution import PhaseBreakdown
from drivenspin.qmodel import spin_site_operators


def random_driven_config(rng):
    return DriveConfig(
        b=rng.uniform(0.5, 3.0),
        theta=rng.uniform(0.1, math.pi - 0.1),
        phi_r=-math.pi if rng.integers(2) else 0.0,
        omega=rng.uniform(0.4, 4.0),
        t_lr=rng.uniform(0.05, 1.5),
    )


class TestPropagatorExact:
    def test_identity_at_t0(self):
        cfg = DriveConfig(b=2.0, theta=1.0, omega=1.5, t_lr=0.6)
        assert np.max(np.abs(propagator_exact(cfg, 0.0) - np.eye(4))) < 1e-14

    def test_unitarity(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            cfg = random_driven_config(rng)
            u = propagator_exact(cfg, rng.uniform(0, 10))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_zero_frequency_rejected(self):
        cfg = DriveConfig(b=2.0, theta=1.0, omega=0.0)
        with pytest.raises(ZeroFrequency):
            propagator_exact(cfg, 1.0)

    def test_solves_schroedinger(self):
        # finite-difference check of i dU/dt = H(t) U at a random instant
        from drivenspin import build_hamiltonian

        cfg = DriveConfig(b=1.7, theta=0.9, phi_r=-math.pi, omega=2.1, t_lr=0.8)
        t, eps = 0.83, 1e-6
        du = (propagator_exact(cfg, t + eps) - propagator_exact(cfg, t - eps)) / (2 * eps)
        rhs = -1j * build_hamiltonian(cfg, cfg.omega * t) @ propagator_exact(cfg, t)
        assert np.max(np.abs(du - rhs)) < 1e-6


class TestPropagatorRK4:
    def test_identity_at_t0(self):
        cfg = DriveConfig(b=2.0, theta=1.0, omega=1.5, t_lr=0.6)
        assert np.max(np.abs(propagator_rk4(cfg, 0.0, 1000) - np.eye(4))) < 1e-14

    def test_agrees_with_exact(self):
        rng = np.random.default_rng(32)
        for _ in range(3):
            cfg = random_driven_config(rng)
            period = 2 * math.pi / cfg.omega
            u_rk4, drift = propagator_rk4(cfg, period, 20_000, return_drift=True)
            dev = np.max(np.abs(u_rk4 - propagator_exact(cfg, period)))
            assert dev < 1e-10
            assert drift < 1e-10

    def test_fourth_order_convergence(self):
        cfg = DriveConfig(b=2.0, theta=1.0, phi_r=-math.pi, omega=1.9, t_lr=0.7)
        period = 2 * math.pi / cfg.omega
        exact = propagator_exact(cfg, period)
        e1 = np.max(np.abs(propagator_rk4(cfg, period, 1000) - exact))
        e2 = np.max(np.abs(propagator_rk4(cfg, period, 2000) - exact))
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_theta0_analytic_solution(self):
        # at theta=0 the Hamiltonian is static: a z rotation times a hop
        # rotation, U = exp(-i b t Sz_total) (cos(t_lr t) - i sin(t_lr t) Hop)
        cfg = DriveConfig(b=2.0, theta=0.0, omega=1.3, t_lr=0.8)
        ops = spin_site_operators()
        t = 0.9
        analytic = np.diag(np.exp(-1j * cfg.b * t * np.diag(ops["Sz_total"]))) @ (
            math.cos(cfg.t_lr * t) * np.eye(4) - 1j * math.sin(cfg.t_lr * t) * ops["Hop"]
        )
        u = propagator_rk4(cfg, t, 5000)
        assert np.max(np.abs(u - analytic)) < 1e-11

    def test_rejects_few_steps(self):
        cfg = DriveConfig(b=2.0, theta=1.0, omega=1.5)
        with pytest.raises(ValueError):
            propagator_rk4(cfg, 1.0, 100)


class TestExtractPhases:
    def test_cyclic_state(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            cfg = random_driven_config(rng)
            try:
                breakdown = extract_phases(cfg, StateLabel(1, -1))
            except Exception:
                continue
            labeled = label_eigenstates(
                eigensystem(build_rotating_hamiltonian(cfg)), cfg, regime="rotating"
            )
            vec = labeled.vector(StateLabel(1, -1))
            psi_t = propagator_exact(cfg, breakdown.period) @ vec
            assert abs(abs(np.vdot(vec, psi_t)) - 1.0) < 1e-10

    def test_geometric_offset_pi_from_cyclic_closed_form(self):
        for omega in (0.7, 1.5, 3.1):
            for t_lr in (0.2, 1.0):
                for phi_r in (0.0, -math.pi):
                    cfg = DriveConfig(
                        b=2.0, theta=1.0, phi_r=phi_r, omega=omega, t_lr=t_lr
                    )
                    for lab in LABELS:
                        breakdown = extract_phases(cfg, lab)
                        aa = aa_phase_closed(cfg, lab)
                        assert (
                            circular_distance(breakdown.geometric - aa, math.pi) < 1e-6
                        )

    def test_dynamical_vs_quadrature(self):
        rng = np.random.default_rng(34)
        for _ in range(4):
            cfg = random_driven_config(rng)
            for lab in (StateLabel(1, 1), StateLabel(-1, -1)):
                breakdown = extract_phases(cfg, lab)
                quad = dynamical_phase_quadrature(cfg, lab, n_panels=10_000)
                assert circular_distance(fold_phase(quad), breakdown.dynamical) < 1e-8

    def test_floquet_residual(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            cfg = random_driven_config(rng)
            for lab in LABELS:
                assert floquet_residual(cfg, lab) < 1e-10

    def test_quasienergy_from_propagator_eigenvalue(self):
        # -arg of the one-period eigenvalue, lifted by the half-spin sign,
        # reproduces the quasienergy mod omega
        rng = np.random.default_rng(36)
        for _ in range(5):
            cfg = random_driven_config(rng)
            period = 2 * math.pi / cfg.omega
            labeled = label_eigenstates(
                eigensystem(build_rotating_hamiltonian(cfg)), cfg, regime="rotating"
            )
            u = propagator_exact(cfg, period)
            for lab in LABELS:
                vec = labeled.vector(lab)
                eigval = np.vdot(vec, u @ vec)
                quasi = (-np.angle(eigval) + math.pi) / period
                expected = closed_form_quasienergies(cfg, lab)
                assert (
                    abs(fold_phase((quasi - expected) * period)) < 1e-8
                )

    def test_zero_frequency_rejected(self):
        with pytest.raises(ZeroFrequency):
            extract_phases(DriveConfig(b=2.0, theta=1.0), StateLabel(1, 1))

    def test_breakdown_identity_enforced(self):
        with pytest.raises(ValueError):
            PhaseBreakdown(total=1.0, dynamical=0.2, geometric=0.3, period=1.0)


def test_evolve_diagonalizes_once(monkeypatch, capsys):
    calls = []
    eigh_stack = spectra.eigh_stack

    def counting_eigh_stack(h):
        calls.append(np.shape(h))
        return eigh_stack(h)

    monkeypatch.setattr(spectra, "eigh_stack", counting_eigh_stack)
    argv = "evolve --b 2 --theta pi/3 --phi pi --omega 1.5 --t-lr 1 --m1 1 --m2 -1"
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert calls == [(4, 4)]
