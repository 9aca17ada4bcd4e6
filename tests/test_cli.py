import json
import math

import numpy as np
import pytest

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
