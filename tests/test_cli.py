import argparse
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenspin import (
    LABELS,
    DriveConfig,
    DrivenSpinError,
    NonConverged,
    PhaseClass,
    StateLabel,
    ValidationError,
    aa_phase_closed,
    berry_phase_closed,
    berry_phase_wilson,
    build_hamiltonian,
    build_rotating_hamiltonian,
    chern_lattice,
    circular_distance,
    classify_point,
    cli,
    curvature_numeric,
    dynamical_phase_quadrature,
    eigensystem,
    eigh_stack,
    fold_phase,
    geometry,
    label_eigenstates,
    lattice_flux,
    propagator_exact,
    propagator_rk4,
    rotating_sz_expectation,
    scan_diagram,
    wilson_loop_phase,
)
from drivenspin.cli import MAX_GRID_POINTS, main, parse_angle
from drivenspin.evolution import RK4_DRIFT_TOL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1.25", 1.25),
            ("pi", math.pi),
            ("PI", math.pi),
            ("-pi", -math.pi),
            ("pi/2", math.pi / 2),
            ("2pi/5", 2 * math.pi / 5),
            ("0.5pi", math.pi / 2),
            ("2*pi/3", 2 * math.pi / 3),
            ("-3pi/4", -3 * math.pi / 4),
        ],
    )
    def test_valid(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize("text", ["two pi", "pi/", "pp", "1.2.3", "pi/0"])
    def test_invalid(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle(text)


class TestSpectrum:
    def test_anti_phase_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--b", "2", "--t-lr", "1", "--phi", "pi", "--theta-steps", "200",
        )
        assert code == 0
        doc = json.loads(out)
        rows = doc["results"]["rows"]
        assert len(rows) == 200
        cols = doc["results"]["columns"]
        i_cl = cols.index("closed_m1+_m2+")
        i_num = cols.index("num_m1+_m2+")
        # the (+1, +1) branch touches zero at theta = 0 when lam = 1
        assert rows[0][0] == 0.0
        assert abs(rows[0][i_cl]) < 1e-15
        assert abs(rows[0][i_num]) < 1e-12

    def test_in_phase_flat_curves(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--b", "2", "--t-lr", "1", "--theta-steps", "40"
        )
        assert code == 0
        doc = json.loads(out)
        cols = doc["results"]["columns"]
        rows = np.array(doc["results"]["rows"], dtype=float)
        closed = rows[:, [cols.index(f"closed_m1{a}_m2{b}") for a in "+-" for b in "+-"]]
        assert np.allclose(closed, np.broadcast_to([-2.0, 0.0, 2.0, 0.0], closed.shape)[
            :, [0, 1, 2, 3]
        ] * 0 + np.array([-2.0, 0.0, 0.0, 2.0]), atol=1e-12)

    def test_validation_error_exit_2(self, capsys):
        for argv, message in (
            ("evolve --b 2 --theta 4.0 --omega 1", "theta must lie in [0, pi], got 4.0"),
            ("phase-diagram --b-min -1 --b-max 1", "ranges must be non-negative"),
        ):
            code, _, err = run_cli(capsys, *argv.split())
            assert code == 2
            record = json.loads(err)
            assert record["error"] == {"name": "ValidationError", "message": message}


class TestErrors:
    def test_transition_surfaces_taxonomy_name(self, capsys):
        code, _, err = run_cli(
            capsys, "chern", "--b", "2", "--t-lr", "1", "--phi", "pi",
            "--n-theta", "40", "--n-phi", "40",
        )
        assert code == 3
        record = json.loads(err)
        assert record["error"]["name"] == "DegenerateGap"

    def test_unsupported_phase(self, capsys):
        # refused before computing: at the default --t-lr 0 the bands are
        # degenerate, and that failure must not be named instead
        for argv in (
            "spectrum --b 2 --phi 0.3",
            "berry --b 2 --phi pi/2",
            "chern --b 2 --phi 0.3",
            "chern --b 2 --phi 0.3 --omega 1.5 --regime nonadiabatic",
            "evolve --b 2 --theta 1 --omega 1.5 --phi 0.3",
        ):
            code, out, err = run_cli(capsys, *argv.split())
            assert (code, out) == (3, ""), argv
            assert json.loads(err)["error"]["name"] == "UnsupportedPhase", argv

    @pytest.mark.filterwarnings("error")
    def test_rk4_overflow_is_computational_failure(self, capsys):
        # omega = 1e-9 stretches the period to ~6e9 over a fixed 2000 RK4
        # steps; the transfer product overflows
        code, out, err = run_cli(
            capsys, "evolve", "--b", "2", "--theta", "1", "--omega", "1e-9",
            "--t-lr", "0.3",
        )
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["name"] == "NonConverged"

    @pytest.mark.parametrize(
        "drive,codes",
        [
            # E t overflows in the exact propagator, the RK4 stages overflow
            (["--b", "1e308", "--theta", "1", "--omega", "1", "--t-lr", "1e308"], {3}),
            # the unstable RK4 endpoint (~1e264) is finite, its drift norm is not
            (["--b", "1880", "--theta", "1", "--omega", "1", "--t-lr", "0.3"], {3}),
            # 2000 RK4 steps are too coarse here too
            (["--b", "7435.899713322316", "--theta", "2.0477539069550894",
              "--t-lr", "0.024547226558940705", "--phi", "pi",
              "--omega", "7.628014810968127"], {3}),
        ],
    )
    def test_evolve_overflow_named_without_warning(self, capsys, drive, codes):
        code, out, err = run_cli(capsys, "evolve", *drive)
        assert code in codes
        if code:
            assert out == ""
            assert json.loads(err)["error"]["name"] == "NonConverged"

    def test_unresolved_rk4_period_is_computational_failure(self, capsys):
        # 2000 steps sit near RK4's stability limit: the endpoint decays
        # instead of staying unitary, so its drift is far above the tolerance
        code, out, err = run_cli(
            capsys, "evolve", "--b", "7435.899713322316", "--theta", "2.0477539069550894",
            "--t-lr", "0.024547226558940705", "--phi", "pi", "--omega", "7.628014810968127",
        )
        assert code == 3 and out == ""
        record = json.loads(err)["error"]
        assert record["name"] == "NonConverged"
        assert "more steps" in record["message"]

    @pytest.mark.parametrize(
        "argv,name",
        [
            # closed-form tables that overflow (inf or nan) used to crash;
            # where the bands are unresolved too, the gap check comes first
            ("evolve --b 1e-300 --theta 1 --omega 1e10 --t-lr 1", "NonConverged"),
            ("chern --b 1e-300 --omega 1e10 --t-lr 1 --regime nonadiabatic",
             "NonConverged"),
            ("spectrum --b 1e-100 --omega 1e100 --regime rotating --theta-steps 3",
             "NonConverged"),
            ("spectrum --b 1e-100 --t-lr 1e100 --phi pi --theta-steps 3",
             "NonConverged"),
            ("evolve --b 1e-100 --theta 1 --t-lr 1e100 --phi pi --omega 1",
             "NonConverged"),
            ("chern --b 1e-100 --t-lr 1e100 --phi pi --regime nonadiabatic",
             "DegenerateGap"),
            ("evolve --b 1e-100 --theta 1 --omega 1e100", "DegenerateGap"),
        ],
    )
    def test_overflowing_closed_forms_are_named_failures(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["name"] == name

    @pytest.mark.parametrize(
        "argv,code,name",
        [
            # spectra wider than the float range: their gaps are inf, not a warning
            ("chern --b 1.5e308 --omega 1.5e308 --regime nonadiabatic", 3, "DegenerateGap"),
            ("berry --b 1.5e308 --omega 1.5e308 --regime nonadiabatic --theta-steps 2",
             0, None),
            ("chern --b 1.7e308 --t-lr 1e308 --phi pi", 3, "NonConverged"),
            # a spectrum that overflows to inf - inf: its gaps are nan, not a warning
            ("chern --regime nonadiabatic --b 1.3482e308 --omega 4.494e307 --t-lr 1.79e308"
             " --phi pi", 3, "NonConverged"),
            ("phase-diagram --b-min 1e308 --b-max 1.7e308 --omega-min 1e308"
             " --omega-max 1.7e308 --n-b 2 --n-omega 2 --method lattice", 0, None),
            # a finite range has finite cell centres; the sector parameter may overflow
            ("phase-diagram --b-max 1.7e308 --n-b 3", 0, None),
            ("phase-diagram --omega-max 1.7e308 --n-omega 3", 3, "NonConverged"),
            ("phase-diagram --b-max inf", 2, "ValidationError"),
        ],
    )
    def test_overflowing_inputs_print_only_their_record(self, capsys, argv, code, name):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out, err = run_cli(capsys, *argv.split())
        assert (got, caught) == (code, [])
        if name is None:
            assert err == "" and json.loads(out)
        else:
            assert out == "" and json.loads(err)["error"]["name"] == name

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_cell_is_named(self, capsys, fmt):
        # omega / b overflows from the second cell on: a trivial sector whose
        # boundary distance is inf, so the document is refused at that cell
        code, out, err = run_cli(
            capsys, "--format", fmt, "phase-diagram", "--omega-max", "1.7e308",
            "--n-omega", "3", "--n-b", "3", "--b-max", "1",
        )
        assert code == 3 and out == ""
        record = json.loads(err)["error"]
        assert record["name"] == "NonConverged"
        assert record["message"] == (
            "the result holds the non-finite value inf in column 'boundary_distance' at row 1"
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_first_cell_is_named(self, capsys, fmt):
        # at the default b range omega / b overflows from the first cell on
        code, out, err = run_cli(
            capsys, "--format", fmt, "phase-diagram", "--omega-max", "1.7e308", "--n-omega", "3"
        )
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "name": "NonConverged",
            "message": "the result holds the non-finite value inf in column"
            " 'boundary_distance' at row 0",
        }

    def test_overflowing_closed_forms_fail_berry_rows(self, capsys):
        # in phase the quasienergies -m1 b/2 sqrt(d) - m2 t_lr overflow only
        # where sqrt(d) is large, towards theta = pi: those rows fail alone
        argv = ("berry --b 1e308 --omega 1.7e308 --t-lr 1e308 --regime nonadiabatic"
                " --theta-steps 9").split()
        want = [None] * 3 + ["NonConverged"] * 6
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert [row[-1] for row in json.loads(out)["results"]["rows"]] == want
        code, out, err = run_cli(capsys, "--format", "csv", *argv)
        assert (code, err) == (0, "")
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == [
            name or "" for name in want
        ]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "drive",
        [
            # Delta_+- = (omega +- 2 t_lr) / b overflow anti-phase
            "--b 1e-300 --t-lr 1e10 --phi pi --omega 1",
            # mu = omega / b overflows in phase; the bands stay resolved
            "--b 1e-300 --omega 1e10 --t-lr 1",
            # the same with decoupled sites: every row also fails the gap
            # check, which comes first, so the refusal reads only whether
            # the closed energies are finite
            "--b 1e-300 --omega 1e10 --t-lr 0",
        ],
    )
    def test_berry_refuses_once_where_no_row_has_closed_energies(
        self, capsys, eigh_calls, fmt, drive
    ):
        """Where the closed energies overflow on every row, berry refuses as
        spectrum does, after its one sweep."""
        argv = f"--format {fmt} berry {drive} --regime nonadiabatic --theta-steps 3"
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == {
            "name": "NonConverged", "message": "closed-form energies overflow to inf or nan"
        }
        assert eigh_calls == [(3, 4, 4)]
        spectrum = f"spectrum {drive} --regime rotating --theta-steps 3"
        assert run_cli(capsys, "--format", fmt, *spectrum.split()) == (3, out, err)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one_rejected(self, capsys, value):
        code, out, err = run_cli(
            capsys, "--threads", value, "phase-diagram", "--n-b", "2", "--n-omega", "2"
        )
        assert code == 2 and out == ""
        assert "--threads" in err

    @pytest.mark.parametrize(
        "argv",
        ["spectrum --b 2 --phi pi/0", "evolve --b 2 --theta 0pi/0 --omega 1"],
    )
    def test_zero_divisor_angle_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2 and out == ""
        # usage errors end in the same JSON error record as every other failure
        record = json.loads(err.splitlines()[-1])["error"]
        assert record["name"] == "ValidationError"
        assert "zero divisor" in record["message"]

    @pytest.mark.parametrize("text", ["-pi", "-3*pi"])
    def test_negative_pi_literal_is_a_value(self, capsys, text):
        code, out, _ = run_cli(
            capsys, "spectrum", "--b", "2", "--phi", text, "--theta-steps", "2"
        )
        assert code == 0
        assert json.loads(out)["params"]["phi"] == parse_angle(text)

    @pytest.mark.parametrize("command", ["spectrum", "berry"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_theta_steps_below_one_rejected(self, capsys, command, value):
        code, out, err = run_cli(capsys, command, "--b", "2", "--theta-steps", value)
        assert code == 2 and out == ""
        assert "--theta-steps" in err

    @pytest.mark.parametrize(
        "drive",
        [
            "--omega 1",  # DegenerateGap if the handler ran
            "--omega 0",  # ZeroFrequency
            "--omega 1 --phi 0.3",  # UnsupportedPhase
            "--omega 1 --t-lr 0.3",  # propagator_rk4's own check
        ],
    )
    def test_rk4_steps_below_1000_refused_before_any_handler(
        self, capsys, monkeypatch, drive
    ):
        def handler(args):
            raise AssertionError("handler reached")

        monkeypatch.setattr(cli, "cmd_evolve", handler)
        code, out, err = run_cli(
            capsys, "evolve", "--b", "2", "--theta", "1", *drive.split(),
            "--rk4-steps", "999",
        )
        assert code == 2 and out == ""
        record = json.loads(err.splitlines()[-1])["error"]
        assert record == {
            "name": "ValidationError",
            "message": "argument --rk4-steps: must be at least 1000, got 999",
        }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "drive",
        [
            # the closed-form energy tables overflow to +-inf
            ["--b", "1e308", "--t-lr", "1e308"],
            ["--b", "1e-300", "--t-lr", "1e10"],
        ],
    )
    def test_non_finite_document_refused(self, capsys, tmp_path, fmt, drive):
        path = tmp_path / "out.txt"
        code, out, err = run_cli(
            capsys, "--format", fmt, "--out", str(path), "spectrum", *drive,
            "--theta-steps", "3",
        )
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["name"] == "NonConverged"
        assert not path.exists()
        code, out, err = run_cli(capsys, "spectrum", *drive, "--theta-steps", "3")
        assert code == 3 and out == ""


    @pytest.mark.parametrize(
        "argv,flag,at_cap",
        [
            ("spectrum --b 2 --theta-steps {}", "--theta-steps", (MAX_GRID_POINTS,)),
            ("chern --b 2 --n-theta {} --n-phi {}", "--n-theta * --n-phi", (1024, 1024)),
            ("evolve --b 2 --theta 1 --omega 1 --rk4-steps {}", "--rk4-steps",
             (MAX_GRID_POINTS,)),
            ("phase-diagram --n-b {} --n-omega {}", "--n-b * --n-omega", (1024, 1024)),
            ("berry --b 2 --theta-steps {}", "--theta-steps", (MAX_GRID_POINTS,)),
            ("berry --b 2 --regime nonadiabatic --theta-steps {}", "--theta-steps",
             (MAX_GRID_POINTS,)),
            # 104 cells of 100x100 lattice sites are 1,040,000 points
            ("phase-diagram --method lattice --n-b {} --n-omega 1",
             "--n-b * --n-omega * 100**2", (104,)),
            ("phase-diagram --method lattice --n-b 1 --n-omega {}",
             "--n-b * --n-omega * 100**2", (104,)),
        ],
    )
    def test_grid_above_cap_refused_before_any_handler(
        self, capsys, monkeypatch, argv, flag, at_cap
    ):
        class Reached(Exception):
            pass

        def handler(args):
            raise Reached

        for name in ("cmd_spectrum", "cmd_berry", "cmd_chern", "cmd_evolve",
                     "cmd_phase_diagram"):
            monkeypatch.setattr(cli, name, handler)
        # at the cap the command reaches its handler; one more unit is refused
        with pytest.raises(Reached):
            main(argv.format(*at_cap).split())
        above = (at_cap[0] + 1, *at_cap[1:])
        code, out, err = run_cli(capsys, *argv.format(*above).split())
        assert code == 2 and out == ""
        record = json.loads(err.splitlines()[-1])["error"]
        assert record["name"] == "ValidationError"
        assert f"argument {flag}:" in record["message"]

    @pytest.mark.parametrize("target", ["no-such-dir/out.json", "a-directory"])
    def test_unwritable_out_is_validation_error(self, capsys, tmp_path, target):
        (tmp_path / "a-directory").mkdir()
        path = str(tmp_path / target)
        code, out, err = run_cli(
            capsys, "--out", path, "spectrum", "--b", "2", "--theta-steps", "3"
        )
        assert code == 2 and out == ""
        record = json.loads(err)
        assert record["error"]["name"] == "ValidationError"
        assert path in record["error"]["message"]


def test_a_fault_is_not_a_validation_error(monkeypatch):
    """Only a ValidationError exits 2: a ValueError raised inside a
    computation, such as numpy's, is a fault of the program and escapes."""
    def broken(h):
        raise ValueError("cannot reshape array of size 3 into shape (2,2)")

    monkeypatch.setattr(cli, "eigh_stack", broken)
    with pytest.raises(ValueError, match="cannot reshape") as raised:
        main("spectrum --b 2 --theta-steps 3".split())
    assert not isinstance(raised.value, ValidationError)


_CFG = DriveConfig(b=1.0, theta=0.5, omega=1.0, t_lr=0.4)
_ARGUMENT_CHECKS = {
    "b": lambda: DriveConfig(b=0.0, theta=0.0),
    "finite": lambda: DriveConfig(b=1.0, theta=math.nan),
    "label": lambda: StateLabel(2, 1),
    "m2": lambda: _CFG.delta(0),
    "s": lambda: build_hamiltonian(_CFG, math.inf),
    "shape": lambda: eigh_stack(np.zeros((3, 3))),
    "regime": lambda: chern_lattice(_CFG, regime="rotating"),
    "n_theta": lambda: chern_lattice(_CFG, n_theta=10),
    "integer": lambda: chern_lattice(_CFG, n_theta=20.0),
    "n_steps": lambda: berry_phase_wilson(_CFG, 0.5, LABELS[0], n_steps=63),
    "h": lambda: curvature_numeric(_CFG, 0.5, 0.0, LABELS[0], "adiabatic", h=0.0),
    "loop": lambda: wilson_loop_phase(np.zeros(3)),
    "grid": lambda: lattice_flux(np.zeros((1, 2, 4))),
    "n_b": lambda: scan_diagram((0, 1), (0, 1), 1.0, math.pi, 1, 2),
    "range": lambda: scan_diagram((1, 0), (0, 1), 1.0, math.pi, 2, 2),
    "method": lambda: classify_point(_CFG, method="full"),
    "class": lambda: PhaseClass(2, 0),
    "t": lambda: propagator_exact(_CFG, math.inf),
    "rk4_steps": lambda: propagator_rk4(_CFG, 1.0, n_steps=10),
    "n_panels": lambda: dynamical_phase_quadrature(_CFG, LABELS[0], n_panels=3),
}


@pytest.mark.parametrize("check", list(_ARGUMENT_CHECKS))
def test_argument_checks_raise_validation_error(check):
    with pytest.raises(ValidationError):
        _ARGUMENT_CHECKS[check]()


class TestDeterminismAndRoundTrip:
    def test_byte_identical_repeats(self, capsys):
        argv = [
            "phase-diagram", "--b-min", "0", "--b-max", "6", "--omega-min", "0",
            "--omega-max", "6", "--n-b", "12", "--n-omega", "12",
        ]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1.encode() == out2.encode()

    def test_json_roundtrip_exact_params(self, capsys):
        argv = [
            "evolve", "--b", "2.7182818284590452", "--theta", "pi/3",
            "--phi", "pi", "--omega", "1.33333333333333331", "--t-lr", "0.1",
        ]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert float(doc["params"]["b"]) == 2.7182818284590452
        assert float(doc["params"]["theta"]) == math.pi / 3
        assert float(doc["params"]["phi"]) == math.pi
        assert float(doc["params"]["omega"]) == 1.33333333333333331
        assert float(doc["params"]["t_lr"]) == 0.1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "--format", "csv", "--out", str(target),
            "spectrum", "--b", "2", "--t-lr", "0.5", "--theta-steps", "10",
        )
        assert code == 0 and out == ""
        text = target.read_text()
        header = text.splitlines()[0].split(",")
        assert header[0] == "theta"
        assert "num_m1+_m2+" in header and "closed_m1-_m2-" in header
        assert len(text.splitlines()) == 11


class TestBerry:
    def test_adiabatic_closed_matches_wilson(self, capsys):
        # even step count: an odd, symmetric sweep would sample the equator,
        # where the anti-phase bands cross
        code, out, _ = run_cli(
            capsys, "berry", "--b", "2", "--t-lr", "0.6", "--phi", "pi",
            "--theta-steps", "8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["failed_rows"] == 0
        assert doc["diagnostics"]["max_circular_difference"] < 1e-5

    def test_equator_row_error_captured(self, capsys):
        # an odd symmetric sweep hits theta = pi/2 exactly; that row is
        # reported with its taxonomy name instead of aborting the table
        code, out, _ = run_cli(
            capsys, "berry", "--b", "2", "--t-lr", "0.6", "--phi", "pi",
            "--theta-steps", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["failed_rows"] == 1
        cols = doc["results"]["columns"]
        errs = [row[cols.index("error")] for row in doc["results"]["rows"]]
        assert errs[3] == "DegenerateGap"

    def test_gap_opens_above_transition(self, capsys):
        # coverage of the phase circle: below the transition the folded
        # curve fills it, above it leaves a wide arc empty
        def coverage(t_lr):
            code, out, _ = run_cli(
                capsys, "berry", "--b", "2", "--t-lr", str(t_lr), "--phi", "pi",
                "--theta-steps", "60",
            )
            assert code == 0
            doc = json.loads(out)
            cols = doc["results"]["columns"]
            vals = [row[cols.index("closed_m1+_m2+")] for row in doc["results"]["rows"]]
            angles = np.sort(np.mod(vals, 2 * math.pi))
            gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
            return float(np.max(gaps))

        assert coverage(0.6) < 0.5
        assert coverage(1.2) > 2.0

    def test_nonadiabatic_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "berry", "--b", "2", "--t-lr", "1", "--phi", "pi",
            "--omega", "1.5", "--regime", "nonadiabatic", "--theta-steps", "9",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["max_circular_difference"] < 1e-8

    def test_nonadiabatic_degenerate_row_captured(self, capsys):
        # sqrt(1 + mu^2) = lam: two in-phase rotating levels cross at theta = pi/2
        code, out, _ = run_cli(
            capsys, "berry", "--b", "2", "--omega", "1.5", "--t-lr", "1.25",
            "--regime", "nonadiabatic", "--theta-min", "0", "--theta-max", "pi",
            "--theta-steps", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["failed_rows"] == 1
        rows = doc["results"]["rows"]
        assert [row[-1] for row in rows] == [None, None, "DegenerateGap", None, None]
        assert rows[2][1:-1] == [None] * 12
        assert all(None not in row[1:-1] for row in rows[:2] + rows[3:])


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the stacks given to geometry.eigh_stack and cli.eigh_stack,
    in call order."""
    calls = []
    eigh_stack = geometry.eigh_stack

    def counting_eigh_stack(h):
        calls.append(np.shape(h))
        return eigh_stack(h)

    for module in (geometry, cli):
        monkeypatch.setattr(module, "eigh_stack", counting_eigh_stack)
    return calls


def test_berry_nonadiabatic_diagonalizes_once(eigh_calls, capsys):
    calls = eigh_calls
    argv = "berry --b 2 --t-lr 1 --phi pi --omega 1.5 --regime nonadiabatic"
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert calls == [(50, 4, 4)]


def test_berry_adiabatic_diagonalizes_once(eigh_calls, capsys):
    """The adiabatic sweep is the rotating frame of a drive at rest: one
    stack of rows, as the nonadiabatic one."""
    assert main("berry --b 2 --t-lr 0.6 --phi pi".split()) == 0
    capsys.readouterr()
    assert eigh_calls == [(50, 4, 4)]


def test_berry_adiabatic_solves_each_row_once(eigh_calls, capsys):
    """A sweep with a failing row is solved once, as a passing one is, and
    labelled once with each row a cell; failing rows are not solved again."""
    assert main("berry --b 2 --t-lr 0.6 --phi pi --theta-steps 7".split()) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["failed_rows"] == 1
    assert eigh_calls == [(7, 4, 4)]
    eigh_calls.clear()
    # decoupled sites: every row is a DegenerateGap
    assert main("berry --b 2 --t-lr 0 --theta-steps 3".split()) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert [row[-1] for row in rows] == ["DegenerateGap"] * 3
    assert eigh_calls == [(3, 4, 4)]


@pytest.mark.parametrize("n_steps", ["512", "63", "32"])
def test_berry_n_steps_refused_before_the_sweep(eigh_calls, capsys, n_steps):
    """berry has no loop resolution to tune, so --n-steps is an unknown
    argument at any value, refused before any eigensolve."""
    code, out, err = run_cli(capsys, "berry", "--b", "2", "--t-lr", "0.6", "--n-steps", n_steps)
    assert (code, out, eigh_calls) == (2, "", [])
    assert json.loads(err.splitlines()[-1])["error"] == {
        "name": "ValidationError",
        "message": f"unrecognized arguments: --n-steps {n_steps}",
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("regime", ["adiabatic", "nonadiabatic"])
@pytest.mark.parametrize(
    "bounds,flag,value",
    [
        ("--theta-min inf", "--theta-min", "inf"),
        ("--theta-max inf --theta-steps 1", "--theta-max", "inf"),
        ("--theta-min -1.7e308 --theta-max 1.7e308", "--theta-min", "-1.7e+308"),
        ("--theta-max nan", "--theta-max", "nan"),
        ("--theta-max 4", "--theta-max", "4.0"),
        ("--theta-min -1", "--theta-min", "-1.0"),
    ],
)
def test_berry_theta_range_refused_before_the_sweep(eigh_calls, capsys, regime, bounds,
                                                     flag, value):
    code, out, err = run_cli(
        capsys, "berry", "--b", "2", "--t-lr", "0.6", "--omega", "1.5", "--regime", regime,
        *bounds.split(),
    )
    assert (code, out, eigh_calls) == (2, "", [])
    assert err.count("\n") == 1 and json.loads(err)["error"] == {
        "name": "ValidationError",
        "message": f"argument {flag}: must lie in [0, pi], got {value}",
    }


def _per_band_berry_row(cfg0, theta, adiabatic=False):
    """A berry row from one labelled eigensolve per band: 2 pi <Sz_total> of
    the rotating-frame eigenvector, or, adiabatic, 2 pi <Sz_total> - pi of
    the labelled eigenstate at varphi = 0."""
    cfg = replace(cfg0, theta=theta)
    row, err = [theta], None
    for lab in LABELS:
        try:
            if adiabatic:
                v = geometry._adiabatic_band_states(cfg, np.array([theta]), [0.0])[0][0, 0]
                sz = geometry._sz_total(v[:, LABELS.index(lab)])
                numeric = fold_phase(2.0 * math.pi * sz - math.pi)
                closed = berry_phase_closed(cfg, theta, lab)
            else:
                numeric = fold_phase(2.0 * math.pi * rotating_sz_expectation(cfg, lab))
                closed = aa_phase_closed(cfg, lab)
            row += [numeric, closed, circular_distance(numeric, closed)]
        except DrivenSpinError as exc:
            err = type(exc).__name__
            row += [None, None, None]
    return row + [err]


@st.composite
def nonadiabatic_sweeps(draw):
    """(argv, drive, thetas) of a nonadiabatic berry sweep; some in-phase
    draws put a level crossing on the theta = pi/2 row."""
    b, omega = draw(st.floats(0.3, 5.0)), draw(st.floats(0.0, 4.0))
    crossing = 0.5 * math.hypot(b, omega)  # sqrt(1 + mu^2) = lam
    t_lr = draw(st.one_of(st.floats(0.0, 3.0), st.just(crossing)))
    phi = draw(st.sampled_from([0.0, math.pi]))
    lo = draw(st.sampled_from([0.0, 0.02]))
    hi = draw(st.sampled_from([math.pi, 3.1]))
    n = draw(st.sampled_from([1, 2, 3, 5, 7]))
    argv = [
        "berry", "--b", repr(b), "--omega", repr(omega), "--t-lr", repr(t_lr),
        "--phi", repr(phi), "--regime", "nonadiabatic", "--theta-steps", str(n),
        "--theta-min", repr(lo), "--theta-max", repr(hi),
    ]
    drive = DriveConfig(b=b, theta=0.0, phi_r=-phi, omega=omega, t_lr=t_lr)
    return argv, drive, np.linspace(lo, hi, n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(nonadiabatic_sweeps())
def test_berry_nonadiabatic_matches_per_band_route(sweep):
    """The one-sweep table equals a per-band eigensolve, number for number,
    with the same error name in each failing row."""
    argv, drive, thetas = sweep
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    rows = json.loads(out.getvalue())["results"]["rows"]
    assert rows == [_per_band_berry_row(drive, float(th)) for th in thetas]


def test_berry_failing_sweep_solves_each_row_once(eigh_calls, capsys):
    """A sweep with a failing row is solved once, and the CSV is byte for
    byte the per-band route's."""
    calls = eigh_calls
    argv = (
        "--format csv berry --b 2 --omega 1.5 --t-lr 1.25 --regime nonadiabatic"
        " --theta-min 0 --theta-max pi --theta-steps 5"
    )
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert calls == [(5, 4, 4)]
    drive = DriveConfig(b=2.0, theta=0.0, phi_r=-0.0, omega=1.5, t_lr=1.25)
    rows = [_per_band_berry_row(drive, float(th)) for th in np.linspace(0.0, math.pi, 5)]
    assert [row[-1] for row in rows] == [None, None, "DegenerateGap", None, None]
    lines = out.splitlines()[:1] + [",".join(map(cli._fmt, row)) for row in rows]
    assert out == "\n".join(lines) + "\n"


def _seeded_berry_drives(n):
    """berry flags of n seeded drives over both branches and regimes."""
    rng = np.random.default_rng(2005)
    drives = []
    for _ in range(n):
        b, t_lr, omega = math.exp(rng.uniform(-1.0, 1.5)), rng.uniform(0, 3), rng.uniform(0, 4)
        drive = f"--b {b!r} --t-lr {t_lr!r} --phi {('0', 'pi')[rng.integers(2)]}"
        if rng.random() < 0.5:
            drive += f" --omega {omega!r} --regime nonadiabatic"
        drives.append(drive)
    return drives


@pytest.mark.parametrize("drive,fails", [
    # anti-phase bands cross where cos(theta) = omega / b: at the equator,
    # which an odd sweep hits, for a drive at rest in either regime
    ("--b 2 --t-lr 0.6 --phi pi", True),
    ("--b 2 --t-lr 0.6 --phi pi --regime nonadiabatic", True),
    # decoupled sites: every row fails
    ("--b 2 --t-lr 0", True),
    ("--b 2 --t-lr 0 --omega 1.5 --regime nonadiabatic", True),
    # sqrt(1 + mu^2) = lam: two in-phase rotating levels cross at theta = pi/2
    ("--b 2 --omega 1.5 --t-lr 1.25 --regime nonadiabatic --theta-min 0 --theta-max pi", True),
    *((drive, None) for drive in _seeded_berry_drives(8)),
])
def test_berry_rows_match_their_own_labelled_solve(drive, fails):
    """Each row of a sweep of 7, 63, 64 or 65 rows (the sector solve takes 64
    and more) is what labelling that row alone gives: the error that
    label_eigenstates raises for its one-matrix eigensystem, or else numbers
    within 1e-12 (circular) of 2 pi <Sz_total> of its labelled vectors, less
    pi adiabatic."""
    failing = []
    for n in (7, 63, 64, 65):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["berry", *drive.split(), "--theta-steps", str(n)]) == 0
        doc = json.loads(out.getvalue())
        p = doc["params"]
        cfg = DriveConfig(b=p["b"], theta=0.0, phi_r=-p["phi"], omega=p["omega"], t_lr=p["t_lr"])
        adiabatic = p["regime"] == "adiabatic"
        assert len(doc["results"]["rows"]) == n
        for row in doc["results"]["rows"]:
            cell = replace(cfg, theta=row[0])
            h = build_hamiltonian(cell, 0.0) if adiabatic else build_rotating_hamiltonian(cell)
            try:
                labelled = label_eigenstates(
                    eigensystem(h), cell, "adiabatic" if adiabatic else "rotating"
                )
            except DrivenSpinError as exc:
                assert row[-1] == type(exc).__name__
                assert row[1:-1] == [None] * 12
                failing.append(row[-1])
                continue
            assert row[-1] is None
            for k, lab in enumerate(LABELS):
                sz = geometry._sz_total(labelled.vector(lab))
                want = fold_phase(2.0 * math.pi * sz - (math.pi if adiabatic else 0.0))
                assert circular_distance(row[1 + 3 * k], want) <= 1e-12
    if fails is not None:
        assert bool(failing) == fails


@st.composite
def adiabatic_sweeps(draw):
    """(argv, drive, thetas) of an adiabatic berry sweep; draws include
    decoupled sites (t_lr = 0) and lam = 1 (t_lr = b/2), both failing."""
    b = draw(st.floats(0.3, 5.0))
    t_lr = draw(st.one_of(st.floats(0.0, 3.0), st.just(0.0), st.just(b / 2)))
    phi = draw(st.sampled_from([0.0, math.pi]))
    lo = draw(st.sampled_from([0.0, 0.02, math.pi / 2]))
    hi = draw(st.sampled_from([math.pi, 3.1, math.pi / 2]))
    n = draw(st.integers(1, 5))
    argv = [
        "berry", "--b", repr(b), "--t-lr", repr(t_lr), "--phi", repr(phi),
        "--theta-steps", str(n), "--theta-min", repr(lo), "--theta-max", repr(hi),
    ]
    drive = DriveConfig(b=b, theta=0.0, phi_r=-phi, t_lr=t_lr)
    return argv, drive, np.linspace(lo, hi, n)


def test_berry_adiabatic_matches_per_band_route():
    """The one-sweep table equals a per-band eigensolve, number for number,
    with the same error name in each failing row."""
    failing = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(adiabatic_sweeps())
    def check(sweep):
        argv, drive, thetas = sweep
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        rows = json.loads(out.getvalue())["results"]["rows"]
        assert rows == [_per_band_berry_row(drive, float(th), adiabatic=True) for th in thetas]
        failing.extend(row[-1] for row in rows if row[-1] is not None)

    check()
    assert len(failing) >= 10


@pytest.mark.parametrize("drive", [
    "--t-lr 1.2 --phi pi", "--t-lr 1 --phi pi --omega 1.5 --regime nonadiabatic"
])
def test_berry_numeric_column_reads_no_closed_phase(monkeypatch, drive):
    """Shifting every closed-form phase moves the closed_* and circdiff_*
    columns and leaves the num_* columns bit for bit as they were."""
    argv = ["berry", "--b", "2", *drive.split()]

    def columns():
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        doc = json.loads(out.getvalue(), parse_float=str)["results"]  # texts keep every bit
        return {name: [row[j] for row in doc["rows"]] for j, name in enumerate(doc["columns"])}

    want = columns()
    closed_phases = geometry._closed_phases

    def shifted(*args):
        phases, code = closed_phases(*args)
        return fold_phase(phases + 0.25), code

    monkeypatch.setattr(geometry, "_closed_phases", shifted)
    got = columns()
    assert got.keys() == want.keys() and got["error"] == want["error"] == [None] * 50
    for name in want:
        stem = name.split("_")[0]
        if stem in ("num", "theta"):
            assert got[name] == want[name], name
        elif stem in ("closed", "circdiff"):
            assert all(g != w for g, w in zip(got[name], want[name])), name


class TestChern:
    def test_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "chern", "--b", "2", "--t-lr", "1", "--phi", "pi",
            "--omega", "1.5", "--regime", "nonadiabatic",
            "--n-theta", "50", "--n-phi", "50",
        )
        assert code == 0
        doc = json.loads(out)
        rows = {row[0]: (row[1], row[2]) for row in doc["results"]["rows"]}
        assert rows["m1+_m2+"] == (0, 0)
        assert rows["m1+_m2-"] == (1, 1)
        assert rows["m1-_m2-"] == (-1, -1)
        assert doc["diagnostics"]["band_sum"] == 0

    def test_csv_label_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "csv", "chern", "--b", "2", "--t-lr", "0.6",
            "--phi", "pi", "--n-theta", "40", "--n-phi", "40",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,closed,lattice"
        assert lines[1].startswith("m1+_m2+,")


class TestPhaseDiagram:
    def test_accessible_classes(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase-diagram", "--n-b", "20", "--n-omega", "20",
        )
        assert code == 0
        doc = json.loads(out)
        counts = doc["diagnostics"]["class_counts"]
        assert set(counts) >= {"(0,0)", "(0,Z)", "(Z,Z)"}
        assert "(Z,0)" not in counts

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_lattice_document_is_its_scan(self, capsys, fmt):
        """Each row of a lattice document is its scan cell, field for field;
        two of the four cells sit on a transition line and fail."""
        grid = ("0.5", "1.5", "2.5", "3.5", "2", "2", "1")
        errors = _document_errors(capsys, fmt, "lattice", "pi", grid)
        assert errors == ["DegenerateGap", None, None, "DegenerateGap"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "phi,grid,on_lines",
        [
            # b = omega at centres 0.25, 0.75, ..., 3.75: mu = 1 on the diagonal
            ("0", ("0", "4", "0", "4", "8", "8", "0.5"), 8),
            # Delta_m2 = +-1 where omega = b -+ 1, on both sides of the diagonal
            ("pi", ("0", "4", "0", "4", "8", "8", "0.5"), 14),
            ("pi", ("0", "7.3", "0", "5.1", "37", "53", "1.1"), 0),
        ],
    )
    def test_closed_document_is_its_scan(self, capsys, fmt, phi, grid, on_lines):
        """Each row of a closed document, rendered from the scan's columns, is
        its ``scan_diagram`` cell, OnTransition cells included."""
        errors = _document_errors(capsys, fmt, "closed", phi, grid)
        assert errors.count("OnTransition") == on_lines
        assert set(errors) <= {None, "OnTransition"}


def _document_errors(capsys, fmt, method, phi, grid) -> list:
    """Assert that the ``phase-diagram`` document of ``grid`` (b_min, b_max,
    omega_min, omega_max, n_b, n_omega, t_lr) is its ``scan_diagram`` cells,
    row for row and field for field; return the error column."""
    b_lo, b_hi, w_lo, w_hi, n_b, n_omega, t_lr = grid
    code, out, _ = run_cli(
        capsys, "--format", fmt, "phase-diagram", "--b-min", b_lo, "--b-max", b_hi,
        "--omega-min", w_lo, "--omega-max", w_hi, "--n-b", n_b, "--n-omega", n_omega,
        "--t-lr", t_lr, "--phi", phi, "--method", method,
    )
    assert code == 0
    cells = scan_diagram((float(b_lo), float(b_hi)), (float(w_lo), float(w_hi)),
                         float(t_lr), parse_angle(phi), int(n_b), int(n_omega), method=method)
    want = [
        [c.b, c.omega, c.phase and c.phase.render(), c.phase and c.phase.c_plus,
         c.phase and c.phase.c_minus, c.boundary_distance, c.error]
        for c in cells
    ]
    if fmt == "json":
        rows = json.loads(out)["results"]["rows"]
    else:
        header, *lines = out.splitlines()
        assert header == "b,omega,class,c_plus,c_minus,boundary_distance,error"
        types = (float, float, str, int, int, float, str)
        rows = [[t(v) if v else None for t, v in zip(types, csv_cells(line))]
                for line in lines]
    assert rows == want
    return [row[-1] for row in rows]


def test_diagram_document_is_rendered_in_blocks(tmp_path):
    """A 200x200 closed JSON diagram peaks at 12 MiB traced; rendering its
    whole table at once, one text per cell, peaks at 24 MiB."""
    argv = ["--out", str(tmp_path / "d.json"), "phase-diagram", "--n-b", "200", "--n-omega", "200"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


#: The rows of a table rendered at a time while the property test runs.
_TEST_BLOCK = 4

#: Kinds of table cells; equal values of different types share a kind.
_CELL_KINDS = (
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
    st.sampled_from([0, 1, True, False, None, np.int64(1), np.bool_(True)]),
    st.integers(),
    st.text(st.sampled_from('a"\\,()\u00e9\u03c0\U0001f600\n') | st.characters(codec="utf-8")),
    st.sampled_from([0.0, -0.0, 1.5]).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
_CELLS = st.one_of(_CELL_KINDS)


@st.composite
def documents(draw):
    """(results, rows, diagnostics): a table with its rows, or a record (rows
    None), some with inf, -inf or nan in place of a cell."""
    diagnostics = draw(st.dictionaries(st.text(max_size=3), _CELLS, max_size=2))
    if draw(st.booleans()):
        keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
        record = {key: draw(_CELLS) for key in keys}
        return record, None, diagnostics
    n_rows = draw(st.sampled_from([1, _TEST_BLOCK - 1, _TEST_BLOCK, _TEST_BLOCK + 1]))
    n_cols = draw(st.integers(1, 4))
    kinds = [draw(st.sampled_from([_CELLS, *_CELL_KINDS])) for _ in range(n_cols)]
    columns = [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    bad = st.sampled_from([math.inf, -math.inf, math.nan, np.float64(-math.inf)])
    for i, j, value in draw(st.lists(st.tuples(
        st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), bad), max_size=2
    )):
        columns[j][i] = value
    header = [f"c{j}" for j in range(n_cols)]
    return (header, columns), [list(row) for row in zip(*columns)], diagnostics


def _row_rule(fmt, results, rows, diagnostics) -> str:
    """A document as rendered before tables were columns: value by value, row by row.

    A table's first non-finite cell, in row order, is refused by its column
    name and row number."""
    for r, row in enumerate(rows or []):
        for name, value in zip(results[0], row):
            try:
                cli._json_dumps(value)
            except NonConverged as exc:
                raise NonConverged(f"{exc} in column {name!r} at row {r}") from None
    if fmt == "json":
        doc = {
            "schema_version": cli.SCHEMA_VERSION,
            "params": {"command": "table"},
            "results": results if rows is None else {"columns": results[0], "rows": rows},
            "diagnostics": diagnostics,
        }
        return cli._json_dumps(doc) + "\n"
    header, rows = (
        (["key", "value"], [*results.items(), *diagnostics.items()]) if rows is None
        else (results[0], rows)
    )
    return "\n".join([",".join(header), *(",".join(map(cli._fmt, row)) for row in rows)]) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["json", "csv"]), st.booleans(), documents())
def test_documents_match_the_row_rule(fmt, to_file, document):
    """Block-wise column rendering writes the text the row rule does, across
    block edges; where the row rule raises NonConverged it raises the same
    error and writes nothing."""
    results, rows, diagnostics = document
    try:
        want = _row_rule(fmt, results, rows, diagnostics)
    except NonConverged as exc:
        want = exc
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(cli, "_BLOCK_ROWS", _TEST_BLOCK)
        path = os.path.join(tmp, "doc")
        args = argparse.Namespace(format=fmt, out=path if to_file else None, command="table")
        with redirect_stdout(out):
            if isinstance(want, NonConverged):
                with pytest.raises(NonConverged) as raised:
                    cli._emit(args, results, diagnostics)
                assert str(raised.value) == str(want)
                assert out.getvalue() == "" and not os.path.exists(path)
                return
            cli._emit(args, results, diagnostics)
        if to_file:
            assert out.getvalue() == ""
            with open(path, "rb") as fh:
                assert fh.read() == want.encode("utf-8")
        else:
            assert out.getvalue() == want


#: Floats at the edges of the float64 range, signed zeros among them.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def array_tables(draw):
    """(results, rows, diagnostics) of a table whose columns are float64
    arrays, ``cli._Coded`` columns or lists of floats, with inf, -inf or nan
    at random cells.  A coded column's values may hold non-finite values that
    no row uses."""
    diagnostics = draw(st.dictionaries(st.text(max_size=3), _CELLS, max_size=2))
    n_rows = draw(st.sampled_from(
        [1, _TEST_BLOCK - 1, _TEST_BLOCK, _TEST_BLOCK + 1, 3 * _TEST_BLOCK + 2]
    ))
    n_cols = draw(st.integers(1, 4))
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
    bad = st.sampled_from([math.inf, -math.inf, math.nan])
    columns = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["array", "array", "coded", "list"]))
        if kind == "coded":
            values = draw(st.lists(_CELLS | bad, min_size=1, max_size=5))
            codes = draw(st.lists(st.integers(0, len(values) - 1),
                                  min_size=n_rows, max_size=n_rows))
            columns.append(cli._Coded(np.array(codes), values))
        else:
            values = draw(st.lists(floats, min_size=n_rows, max_size=n_rows))
            columns.append(np.array(values, dtype=np.float64) if kind == "array" else values)
    for i, j, value in draw(st.lists(st.tuples(
        st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), bad), max_size=3
    )):
        if not isinstance(columns[j], cli._Coded):
            columns[j][i] = value
    header = [f"c{j}" for j in range(n_cols)]
    return (header, columns), [list(row) for row in zip(*columns)], diagnostics


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["json", "csv"]), array_tables())
def test_array_columns_match_the_row_rule(fmt, document):
    """Float64 array and coded columns render the text the row rule does,
    across block edges, and refuse a document at its first non-finite cell
    in row order, by column name and row."""
    results, rows, diagnostics = document
    try:
        want = _row_rule(fmt, results, rows, diagnostics)
    except NonConverged as exc:
        want = exc
    out = io.StringIO()
    args = argparse.Namespace(format=fmt, out=None, command="table")
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
        mp.setattr(cli, "_BLOCK_ROWS", _TEST_BLOCK)
        if isinstance(want, NonConverged):
            with pytest.raises(NonConverged) as raised:
                cli._emit(args, results, diagnostics)
            assert str(raised.value) == str(want)
            assert out.getvalue() == ""
            return
        cli._emit(args, results, diagnostics)
    assert out.getvalue() == want


_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e))


@st.composite
def cli_argv(draw):
    """Valid argv for any subcommand, magnitudes log-uniform over 1e-300..1e300."""
    command = draw(
        st.sampled_from(["spectrum", "berry", "chern", "evolve", "phase-diagram"])
    )
    phi = draw(st.sampled_from(["0", "pi", "2pi", "-pi", "pi/1", "3pi/0"]))
    if command == "phase-diagram":
        b_lo, b_hi = sorted([draw(_MAGNITUDE), draw(_MAGNITUDE)], key=float)
        w_lo, w_hi = sorted([draw(_MAGNITUDE), draw(_MAGNITUDE)], key=float)
        return [
            command, "--b-min", b_lo, "--b-max", b_hi, "--omega-min", w_lo,
            "--omega-max", w_hi, "--n-b", "2", "--n-omega", "2",
            "--t-lr", draw(_MAGNITUDE), "--phi", phi,
            "--method", draw(st.sampled_from(["closed", "lattice"])),
        ]
    argv = [
        command, "--b", draw(_MAGNITUDE), "--t-lr", draw(_MAGNITUDE),
        "--omega", draw(_MAGNITUDE), "--phi", phi,
    ]
    if command == "spectrum":
        regime = draw(st.sampled_from(["adiabatic", "rotating"]))
        steps = draw(st.integers(1, 4))
        return argv + ["--regime", regime, "--theta-steps", str(steps)]
    if command == "evolve":
        theta = draw(st.floats(0.0, math.pi))
        m1, m2 = draw(st.sampled_from(["1", "-1"])), draw(st.sampled_from(["1", "-1"]))
        return argv + [
            "--theta", repr(theta), "--m1", m1, "--m2", m2, "--rk4-steps", "1000"
        ]
    argv += ["--regime", draw(st.sampled_from(["adiabatic", "nonadiabatic"]))]
    if command == "berry":
        steps = draw(st.integers(1, 3))
        return argv + ["--theta-steps", str(steps)]
    return argv + ["--n-theta", "20", "--n-phi", "20"]


def csv_cells(line: str) -> list[str]:
    """Cells of one CSV line; a class literal such as (0,Z) keeps its comma."""
    return re.split(r",(?![^(]*\))", line)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["json", "csv"]), cli_argv())
def test_exit_code_contract(fmt, argv):
    """Exit 0 with a document, or 2/3 with only a JSON error record.

    A CSV document has as many cells in each row as in its header.  Any raw
    numpy warning fails the test too (warnings are errors here).
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--format", fmt, *argv])
    assert code in (0, 2, 3)
    if code == 0 and argv[0] == "evolve":  # an accepted RK4 period is resolved
        drift = re.search(r'rk4_reunitarization_norm"?[:,] ?([^,}\n]+)', out.getvalue())
        assert float(drift.group(1)) <= RK4_DRIFT_TOL
    if code == 0 and fmt == "json":
        json.loads(out.getvalue())
    elif code == 0:
        header, *rows = out.getvalue().splitlines()
        assert rows and all(len(csv_cells(row)) == len(csv_cells(header)) for row in rows)
    else:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue().splitlines()[-1])["error"]["name"]
