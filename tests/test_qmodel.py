import dataclasses
import functools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenspin import DriveConfig, StateLabel, UnsupportedPhase
from drivenspin.qmodel import (
    SZ_TOTAL_DIAG,
    _lab_hamiltonian,
    build_hamiltonian,
    build_rotating_hamiltonian,
    rotation_about_z,
    spin_site_operators,
)

RNG = np.random.default_rng(20240811)

#: The fields of a DriveConfig, in declaration order, and a valid drive.
FIELDS = ("b", "theta", "phi_l", "phi_r", "omega", "t_lr")
VALID = dict(b=2.0, theta=1.0, phi_l=0.5, phi_r=-0.5, omega=1.5, t_lr=0.7)


def random_config(rng, omega_max=4.0):
    return DriveConfig(
        b=rng.uniform(0.5, 4.0),
        theta=rng.uniform(0.0, math.pi),
        phi_l=rng.uniform(-math.pi, math.pi),
        phi_r=rng.uniform(-math.pi, math.pi),
        omega=rng.uniform(0.0, omega_max),
        t_lr=rng.uniform(0.0, 2.0),
    )


class TestStateLabel:
    def test_valid(self):
        lab = StateLabel(+1, -1)
        assert lab.m1 == 1 and lab.m2 == -1
        assert str(lab) == "m1+_m2-"

    @pytest.mark.parametrize("bad", [(0, 1), (1, 2), (-2, -1), (1, 0)])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            StateLabel(*bad)


class TestDriveConfig:
    def test_derived_ratios(self):
        cfg = DriveConfig(b=2.0, theta=0.3, omega=1.5, t_lr=1.0)
        assert cfg.lam == 1.0
        assert cfg.mu == 0.75
        assert cfg.delta(+1) == 1.75
        assert cfg.delta(-1) == -0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"b": 0.0, "theta": 0.1},
            {"b": -1.0, "theta": 0.1},
            {"b": 1.0, "theta": -0.1},
            {"b": 1.0, "theta": 3.2},
            {"b": 1.0, "theta": 0.1, "omega": -0.5},
            {"b": 1.0, "theta": 0.1, "t_lr": -0.5},
            {"b": math.nan, "theta": 0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DriveConfig(**kwargs)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_field_message(self, field, value):
        kwargs = {**VALID, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            DriveConfig(**kwargs)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("b", 0.0, "b must be > 0, got 0.0"),
            ("b", -0.0, "b must be > 0, got -0.0"),
            ("b", -1, "b must be > 0, got -1.0"),
            ("theta", -0.1, "theta must lie in [0, pi], got -0.1"),
            ("theta", 3.2, "theta must lie in [0, pi], got 3.2"),
            ("theta", math.nextafter(math.pi, 4.0),
             f"theta must lie in [0, pi], got {math.nextafter(math.pi, 4.0)}"),
            ("omega", -0.5, "omega must be >= 0, got -0.5"),
            ("t_lr", -5e-324, "t_lr must be >= 0, got -5e-324"),
        ],
    )
    def test_range_message(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DriveConfig(**{**VALID, field: value})

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.dictionaries(
        st.sampled_from(FIELDS),
        st.sampled_from([math.inf, -math.inf, math.nan, -1.0, 4.0, 0.0]),
        min_size=2,
    ))
    def test_first_bad_field_is_named(self, bad):
        """Every field's finiteness is checked, in declaration order, before
        the range checks of b, theta, omega and t_lr, in that order."""
        kwargs = {**VALID, **bad}
        non_finite = [f for f in FIELDS if not math.isfinite(kwargs[f])]
        out_of_range = [f for f, ok in (
            ("b", kwargs["b"] > 0.0),
            ("theta", 0.0 <= kwargs["theta"] <= math.pi),
            ("omega", kwargs["omega"] >= 0.0),
            ("t_lr", kwargs["t_lr"] >= 0.0),
        ) if not ok]
        first = (non_finite + out_of_range + [None])[0]
        if first is None:
            assert DriveConfig(**kwargs) == DriveConfig(*(kwargs[f] for f in FIELDS))
            return
        with pytest.raises(ValueError, match=f"^{first} must "):
            DriveConfig(**kwargs)

    def test_finite_fields_whose_sum_overflows_are_valid(self):
        cfg = DriveConfig(b=1.7e308, theta=math.pi, phi_l=1.7e308, phi_r=1.7e308,
                          omega=1.7e308, t_lr=1.7e308)
        assert cfg.t_lr == 1.7e308

    @pytest.mark.parametrize("value", [1, True, np.int64(1), np.float64(1.0), np.float32(1.0)])
    def test_numbers_become_python_floats(self, value):
        cfg = DriveConfig(value, value, value, value, value, value)
        assert [type(getattr(cfg, f)) for f in FIELDS] == [float] * 6
        assert cfg == DriveConfig(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_dataclass_behaviour(self):
        cfg = DriveConfig(b=2, theta=0.3, phi_r=-math.pi, omega=np.float64(1.5), t_lr=1)
        assert [f.name for f in dataclasses.fields(cfg)] == list(FIELDS)
        assert repr(cfg) == (
            "DriveConfig(b=2.0, theta=0.3, phi_l=0.0, phi_r=-3.141592653589793,"
            " omega=1.5, t_lr=1.0)"
        )
        twin = DriveConfig(2.0, 0.3, 0.0, -math.pi, 1.5, 1.0)
        assert cfg == twin and hash(cfg) == hash(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.b = 3.0
        # replace re-validates and converts, like the constructor
        moved = dataclasses.replace(cfg, theta=np.int64(1))
        assert type(moved.theta) is float and moved.theta == 1.0
        with pytest.raises(ValueError, match=r"^t_lr must be >= 0, got -1.0$"):
            dataclasses.replace(cfg, t_lr=-1)
        # a pickle round trip gives an equal drive with the same field types
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and hash(back) == hash(cfg) and repr(back) == repr(cfg)
        # equal drives are one lru_cache key
        calls = []

        @functools.lru_cache(maxsize=None)
        def solve(drive):
            calls.append(drive)
            return drive.b

        assert solve(cfg) == solve(twin) == solve(back) == 2.0
        assert calls == [cfg]

    def test_phase_branch(self):
        assert DriveConfig(b=1, theta=0).phase_branch() == 0.0
        assert DriveConfig(b=1, theta=0, phi_r=-math.pi).phase_branch() == math.pi
        assert DriveConfig(b=1, theta=0, phi_l=math.pi).phase_branch() == math.pi
        # joint shifts and 2 pi wraps do not change the branch
        assert (
            DriveConfig(b=1, theta=0, phi_l=0.7, phi_r=0.7 + 3 * math.pi).phase_branch()
            == math.pi
        )
        with pytest.raises(UnsupportedPhase):
            DriveConfig(b=1, theta=0, phi_r=0.5).phase_branch()


class TestOperators:
    def test_su2_commutators_per_site(self):
        ops = spin_site_operators()
        comm = ops["Sx_L"] @ ops["Sy_L"] - ops["Sy_L"] @ ops["Sx_L"]
        assert np.array_equal(comm, 1j * ops["Sz_L"])
        cross = ops["Sx_L"] @ ops["Sy_R"] - ops["Sy_R"] @ ops["Sx_L"]
        assert np.array_equal(cross, np.zeros((4, 4)))

    def test_sz_total_eigenvalues(self):
        ops = spin_site_operators()
        vals = np.sort(np.linalg.eigvalsh(ops["Sz_total"]))
        assert np.allclose(vals, [-0.5, -0.5, 0.5, 0.5], atol=1e-15)
        assert np.array_equal(ops["Sz_total"], ops["Sz_L"] + ops["Sz_R"])

    def test_hop_squared_is_identity(self):
        hop = spin_site_operators()["Hop"]
        assert np.array_equal(hop @ hop, np.eye(4, dtype=complex))

    def test_all_hermitian(self):
        for name, op in spin_site_operators().items():
            assert np.max(np.abs(op - op.conj().T)) == 0.0, name


class TestLabHamiltonian:
    def test_theta0_is_diagonal(self):
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=0.0)
        for s in (0.0, 1.3, -4.0):
            h = build_hamiltonian(cfg, s)
            assert np.allclose(h, np.diag([1.0, -1.0, 1.0, -1.0]), atol=1e-15)

    def test_entry_structure(self):
        cfg = DriveConfig(b=1.4, theta=0.8, phi_l=0.3, phi_r=-0.9, t_lr=0.45)
        s = 0.7
        h = build_hamiltonian(cfg, s)
        dz = 0.5 * cfg.b * math.cos(cfg.theta)
        assert np.allclose(np.diag(h), [dz, -dz, dz, -dz])
        flip = 0.5 * cfg.b * math.sin(cfg.theta)
        assert h[0, 1] == pytest.approx(flip * np.exp(-1j * (s + cfg.phi_l)))
        assert h[2, 3] == pytest.approx(flip * np.exp(-1j * (s + cfg.phi_r)))
        assert h[0, 2] == h[1, 3] == cfg.t_lr
        assert np.max(np.abs(h - h.conj().T)) < 1e-15

    def test_eq_phi_pi_eigenvalues_equator(self):
        # b=2, theta=pi/2, anti-phase, t_lr=1: closed form gives
        # +-(b/2) sqrt(1 + lam^2) = +-sqrt(2), each doubly degenerate.
        cfg = DriveConfig(b=2.0, theta=math.pi / 2, phi_l=0.0, phi_r=math.pi, t_lr=1.0)
        vals = np.linalg.eigvalsh(build_hamiltonian(cfg, 0.0))
        r2 = math.sqrt(2.0)
        assert np.allclose(vals, [-r2, -r2, r2, r2], atol=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            cfg = random_config(rng)
            s = rng.uniform(-7, 7)
            d = build_hamiltonian(cfg, s + 2 * math.pi) - build_hamiltonian(cfg, s)
            assert np.max(np.abs(d)) < 1e-14

    def test_spectrum_independent_of_s(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            cfg = random_config(rng)
            ref = np.linalg.eigvalsh(build_hamiltonian(cfg, 0.0))
            for s in rng.uniform(-7, 7, size=3):
                vals = np.linalg.eigvalsh(build_hamiltonian(cfg, s))
                assert np.max(np.abs(vals - ref)) < 1e-12 * cfg.b

    def test_rotation_covariance(self):
        # H(theta, varphi) = R H(theta, 0) R^dag with R = exp(-i varphi Sz_total),
        # over 2000 draws.  They differ by rounding in exp(-i (varphi + phi_l)):
        # 5.0e-16 b at worst on these draws, 9.8e-16 b with angles up to 10.
        rng = np.random.default_rng(7)
        for _ in range(200):
            cfg = random_config(rng)
            thetas = rng.uniform(0.0, math.pi, 10)
            varphis = rng.uniform(0.0, 2 * math.pi, 10)
            r = np.exp(-1j * varphis[:, None] * SZ_TOTAL_DIAG)
            rotated = r[:, :, None] * _lab_hamiltonian(cfg, thetas) * np.conj(r[:, None, :])
            d = _lab_hamiltonian(cfg, thetas, varphis) - rotated
            assert np.max(np.abs(d)) < 1e-14 * cfg.b

    def test_loop_points_are_rotations_of_varphi_zero(self):
        # The adiabatic Wilson loop carries its varphi = 0 eigenstates around
        # by U = exp(-i varphi Sz_total), which needs H(theta, varphi) =
        # U H(theta, 0) U^dag on the drives the CLI builds (phi_l = 0,
        # phi_r = 0 or -pi), t_lr = 0 included, for loop angles in [0, 2 pi).
        # 4.3e-16 max|H| at worst on 3000 such draws (three seeds); the
        # rounding of exp(-i (varphi + phi_l)) grows with |varphi + phi_l|.
        rng = np.random.default_rng(21)
        for i in range(400):
            cfg = DriveConfig(b=rng.uniform(0.5, 4.0), theta=0.0, phi_r=(0.0, -math.pi)[i % 2],
                              t_lr=0.0 if i % 4 < 2 else rng.uniform(0.0, 2.0))
            thetas = np.append(rng.uniform(0.0, math.pi, 10), [0.0, math.pi])
            varphis = rng.uniform(0.0, 2 * math.pi, 12)
            u = np.exp(-1j * varphis[:, None] * SZ_TOTAL_DIAG)
            h0 = _lab_hamiltonian(cfg, thetas)
            rotated = u[:, :, None] * h0 * np.conj(u[:, None, :])
            d = np.max(np.abs(_lab_hamiltonian(cfg, thetas, varphis) - rotated), axis=(-2, -1))
            assert np.all(d <= 1e-15 * np.max(np.abs(h0), axis=(-2, -1)))


class TestRotatingHamiltonian:
    def test_omega_zero_matches_lab(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            cfg = random_config(rng, omega_max=0.0)
            d = build_rotating_hamiltonian(cfg) - build_hamiltonian(cfg, 0.0)
            assert np.max(np.abs(d)) == 0.0

    def test_frame_equivalence(self):
        # U^dag(t) H(t) U(t) - Omega Sz_total = H_rot for random parameters
        rng = np.random.default_rng(6)
        sz5 = spin_site_operators()["Sz_total"]
        for _ in range(10):
            cfg = random_config(rng)
            t = rng.uniform(0.0, 9.0)
            u = rotation_about_z(cfg.omega * t)
            lhs = u.conj().T @ build_hamiltonian(cfg, cfg.omega * t) @ u - cfg.omega * sz5
            rhs = build_rotating_hamiltonian(cfg)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * cfg.b

    def test_spin_block_example(self):
        # b=2, theta=pi/2, omega=3, decoupled sites: eigenvalues
        # +-(b/2) sqrt(1 + mu^2) = +-sqrt(3.25), each doubly degenerate.
        cfg = DriveConfig(b=2.0, theta=math.pi / 2, omega=3.0, t_lr=0.0)
        vals = np.linalg.eigvalsh(build_rotating_hamiltonian(cfg))
        r = math.sqrt(3.25)
        assert np.allclose(vals, [-r, -r, r, r], atol=1e-12)
