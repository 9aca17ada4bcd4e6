import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenspin.cli import main, parse_angle


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

    @pytest.mark.parametrize("text", ["two pi", "pi/", "pp", "1.2.3"])
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
        code, _, err = run_cli(
            capsys, "evolve", "--b", "2", "--theta", "4.0", "--omega", "1"
        )
        assert code == 2
        record = json.loads(err)
        assert record["error"]["name"] == "ValidationError"


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
        code, _, err = run_cli(capsys, "spectrum", "--b", "2", "--phi", "0.3")
        assert code == 3
        assert json.loads(err)["error"]["name"] == "UnsupportedPhase"
        code, _, err = run_cli(capsys, "berry", "--b", "2", "--phi", "pi/2")
        assert code == 3
        assert json.loads(err)["error"]["name"] == "UnsupportedPhase"

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
            # 2000 RK4 steps are too coarse here too; how far the endpoint
            # decays or grows depends on the BLAS, so either outcome is valid
            (["--b", "7435.899713322316", "--theta", "2.0477539069550894",
              "--t-lr", "0.024547226558940705", "--phi", "pi",
              "--omega", "7.628014810968127"], {0, 3}),
        ],
    )
    def test_evolve_overflow_named_without_warning(self, capsys, drive, codes):
        code, out, err = run_cli(capsys, "evolve", *drive)
        assert code in codes
        if code:
            assert out == ""
            assert json.loads(err)["error"]["name"] == "NonConverged"

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

    def test_overflowing_closed_forms_fail_berry_rows(self, capsys):
        # mu = omega / b overflows; the bands stay resolved, so labeling refuses
        code, out, _ = run_cli(
            capsys, "berry", "--b", "1e-300", "--omega", "1e10", "--t-lr", "1",
            "--regime", "nonadiabatic", "--theta-steps", "3",
        )
        assert code == 0
        assert [row[-1] for row in json.loads(out)["results"]["rows"]] == [
            "NonConverged"
        ] * 3

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one_rejected(self, capsys, value):
        code, out, err = run_cli(
            capsys, "--threads", value, "phase-diagram", "--n-b", "2", "--n-omega", "2"
        )
        assert code == 2 and out == ""
        assert "--threads" in err

    @pytest.mark.parametrize("command", ["spectrum", "berry"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_theta_steps_below_one_rejected(self, capsys, command, value):
        code, out, err = run_cli(capsys, command, "--b", "2", "--theta-steps", value)
        assert code == 2 and out == ""
        assert "--theta-steps" in err

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
            "--theta-steps", "8", "--n-steps", "128",
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
            "--theta-steps", "7", "--n-steps", "128",
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
                "--theta-steps", "60", "--n-steps", "128",
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


_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e))


@st.composite
def cli_argv(draw):
    """Valid argv for any subcommand, magnitudes log-uniform over 1e-300..1e300."""
    command = draw(
        st.sampled_from(["spectrum", "berry", "chern", "evolve", "phase-diagram"])
    )
    phi = draw(st.sampled_from(["0", "pi"]))
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
        return argv + ["--theta-steps", str(steps), "--n-steps", "64"]
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
    if code == 0 and fmt == "json":
        json.loads(out.getvalue())
    elif code == 0:
        header, *rows = out.getvalue().splitlines()
        assert rows and all(len(csv_cells(row)) == len(csv_cells(header)) for row in rows)
    else:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue().splitlines()[-1])["error"]["name"]
