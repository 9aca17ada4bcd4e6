"""Golden numeric outputs of the README CLI examples.

Each README command is rerun and its JSON document compared with the copy
under ``tests/golden/``: integers, strings, booleans, nulls, error names
and document structure must match exactly, floats within GOLDEN_ATOL.
The nonadiabatic ``berry`` table, the phase diagram (the README's CSV
``--out`` form) and ``evolve`` (a ``key,value`` record) are also written
as CSV through ``--out`` and compared cell by cell, as is the in-phase
phase diagram, which is not a README command.
Numbers are compared, not bytes, because last-bit float differences
(BLAS threading, eigensolver rounding) are expected and harmless.  The
closed phase diagrams run no eigensolver, so their CSV, and the README
diagram's JSON, are also compared byte for byte.

Regenerate the goldens of an intended change of results with

    PYTHONPATH=src python tests/test_golden.py NAME ...

where each NAME is a key of GOLDENS (``chern``, ``phase_diagram_lattice``,
...) and names that golden's .json and .csv files; with no NAME every
golden is written.  Record only what the change moves: on another host the
eigensolver may round the last bits of the others differently.  Say in
CHANGES.md why the numbers moved.
"""

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from drivenspin.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_ATOL = 1e-9

README_COMMANDS = {
    "spectrum": ["spectrum", "--b", "2", "--t-lr", "1", "--phi", "pi", "--theta-steps", "200"],
    "berry_adiabatic": ["berry", "--b", "2", "--t-lr", "1.2", "--phi", "pi", "--theta-steps", "50"],
    "berry_nonadiabatic": [
        "berry", "--b", "2", "--t-lr", "1", "--phi", "pi", "--omega", "1.5",
        "--regime", "nonadiabatic",
    ],
    "chern": [
        "chern", "--b", "2", "--t-lr", "1", "--phi", "pi", "--omega", "1.5",
        "--regime", "nonadiabatic",
    ],
    "evolve": [
        "evolve", "--b", "2", "--theta", "pi/3", "--phi", "pi", "--omega", "1.5",
        "--t-lr", "1", "--m1", "1", "--m2", "-1",
    ],
    "phase_diagram": ["phase-diagram", "--t-lr", "1", "--phi", "pi"],
}
#: CSV-only goldens of commands that are not README examples.
EXTRA_CSV_COMMANDS = {
    "phase_diagram_in_phase": ["phase-diagram", "--t-lr", "1", "--phi", "0"],
}
CSV_COMMANDS = {**README_COMMANDS, **EXTRA_CSV_COMMANDS}
CSV_GOLDENS = ("berry_nonadiabatic", "evolve", "phase_diagram", "phase_diagram_in_phase")
#: The lattice phase diagram, as JSON and CSV.  Its classes are integers and
#: its distances closed-form arithmetic, so it is compared byte for byte only.
LATTICE_DIAGRAM = [
    "phase-diagram", "--method", "lattice", "--t-lr", "1", "--phi", "pi",
    "--n-b", "10", "--n-omega", "10",
]

#: Every golden by name: (command, the formats of its files).
GOLDENS = {
    **{name: (argv, ("json", "csv") if name in CSV_GOLDENS else ("json",))
       for name, argv in README_COMMANDS.items()},
    **{name: (argv, ("csv",)) for name, argv in EXTRA_CSV_COMMANDS.items()},
    "phase_diagram_lattice": (LATTICE_DIAGRAM, ("json", "csv")),
}


def run_text(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


def run_json(argv) -> dict:
    return json.loads(run_text(argv))


def run_csv(argv, path) -> str:
    """CSV document written to ``path`` through --out, as in the README."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--format", "csv", "--out", str(path), *argv])
    assert code == 0 and buf.getvalue() == "", f"{argv} exited {code}"
    return path.read_text()


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def csv_cells(text: str) -> list[list]:
    """Rows of parsed cells; a class literal such as (0,Z) keeps its comma."""
    return [[_cell(c) for c in re.split(r",(?![^(]*\))", line)] for line in text.splitlines()]


def assert_matches(got, want, path="$"):
    """Exact match except floats, which agree within GOLDEN_ATOL."""
    if isinstance(want, dict):
        assert isinstance(got, dict), f"{path}: expected object"
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list), f"{path}: expected array"
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        # .17g renders integral floats without a point, so a float field may
        # parse as int on one side; only int-vs-int is compared exactly.
        assert isinstance(got, (int, float)) and not isinstance(got, bool), (
            f"{path}: expected a number, got {got!r}"
        )
        if isinstance(got, int) and isinstance(want, int):
            assert got == want, f"{path}: {got} != {want}"
        else:
            assert abs(got - want) <= GOLDEN_ATOL, f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_example_matches_golden(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert_matches(run_json(README_COMMANDS[name]), want)


@pytest.mark.parametrize("name", CSV_GOLDENS)
def test_readme_example_csv_matches_golden(name, tmp_path):
    want = csv_cells((GOLDEN_DIR / f"{name}.csv").read_text())
    got = csv_cells(run_csv(CSV_COMMANDS[name], tmp_path / f"{name}.csv"))
    assert_matches(got, want)


@pytest.mark.parametrize("name", ["phase_diagram", "phase_diagram_in_phase"])
def test_closed_phase_diagram_csv_is_byte_identical(name, tmp_path):
    want = (GOLDEN_DIR / f"{name}.csv").read_text()
    assert run_csv(CSV_COMMANDS[name], tmp_path / f"{name}.csv") == want


def test_closed_phase_diagram_json_is_byte_identical():
    assert run_text(README_COMMANDS["phase_diagram"]) == (
        GOLDEN_DIR / "phase_diagram.json"
    ).read_text()


def test_lattice_phase_diagram_json_is_byte_identical():
    assert run_text(LATTICE_DIAGRAM) == (GOLDEN_DIR / "phase_diagram_lattice.json").read_text()


def test_lattice_phase_diagram_csv_is_byte_identical(tmp_path):
    want = (GOLDEN_DIR / "phase_diagram_lattice.csv").read_text()
    assert run_csv(LATTICE_DIAGRAM, tmp_path / "phase_diagram_lattice.csv") == want


@pytest.mark.parametrize("name", ["berry_adiabatic", "berry_nonadiabatic", "spectrum"])
def test_closed_columns_are_bit_identical(name):
    """The theta and closed-form columns equal the golden ones bit for bit.

    The goldens were recorded by a per-row scalar evaluation of each closed
    form, so they are an independent reference for the array kernel; only
    the numerical columns may drift, within GOLDEN_ATOL.
    """
    doc = run_text(README_COMMANDS[name])
    # numbers kept as their 17-digit texts, which round-trip every bit, sign of zero included
    want, got = (
        json.loads(text, parse_float=str, parse_int=str)["results"]
        for text in ((GOLDEN_DIR / f"{name}.json").read_text(), doc)
    )
    assert got["columns"] == want["columns"]
    keep = [j for j, col in enumerate(want["columns"])
            if col == "theta" or col.startswith("closed_")]
    assert len(keep) == 5 and len(want["rows"]) > 1
    assert [[row[j] for j in keep] for row in got["rows"]] == [
        [row[j] for j in keep] for row in want["rows"]
    ]


def test_csv_cells_parse_each_kind():
    assert csv_cells("b,class,n\n0.5,(0,Z),3\n1e-05,,x") == [
        ["b", "class", "n"], [0.5, "(0,Z)", 3], [1e-05, "", "x"]
    ]


def test_comparison_is_strict_where_it_must_be():
    doc = {"a": [1, 0.5, "x", None, True]}
    assert_matches({"a": [1, 0.5 + 1e-10, "x", None, True]}, doc)
    for bad in (
        {"a": [2, 0.5, "x", None, True]},
        {"a": [1, 0.5 + 1e-8, "x", None, True]},
        {"a": [1, 0.5, "y", None, True]},
        {"a": [1, 0.5, "x", 0.0, True]},
        {"a": [1, 0.5, "x", None, False]},
        {"a": [1, 0.5, "x", None]},
        {"b": [1, 0.5, "x", None, True]},
    ):
        with pytest.raises(AssertionError):
            assert_matches(bad, doc)


def record(names, directory=GOLDEN_DIR) -> list[Path]:
    """Write the files of the named goldens, or of all GOLDENS if ``names`` is
    empty, into ``directory``; return their paths."""
    unknown = [name for name in names if name not in GOLDENS]
    if unknown:
        sys.exit(f"unknown golden {', '.join(unknown)}; the goldens are {', '.join(GOLDENS)}")
    paths = []
    for name in names or GOLDENS:
        argv, formats = GOLDENS[name]
        for fmt in formats:
            paths.append(directory / f"{name}.{fmt}")
            if fmt == "json":
                paths[-1].write_text(run_text(argv))
            else:
                run_csv(argv, paths[-1])
    return paths


def test_record_writes_only_the_named_goldens(tmp_path):
    assert record(["phase_diagram_lattice", "chern"], tmp_path) == [
        tmp_path / "phase_diagram_lattice.json",
        tmp_path / "phase_diagram_lattice.csv",
        tmp_path / "chern.json",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chern.json", "phase_diagram_lattice.csv", "phase_diagram_lattice.json"
    ]
    for path in tmp_path.iterdir():
        if path.name != "chern.json":  # floats may move in their last bits
            assert path.read_text() == (GOLDEN_DIR / path.name).read_text()
    assert_matches(json.loads((tmp_path / "chern.json").read_text()),
                   json.loads((GOLDEN_DIR / "chern.json").read_text()))
    with pytest.raises(SystemExit, match="unknown golden berry"):
        record(["berry"], tmp_path)


def test_every_golden_file_is_recorded():
    recorded = {f"{name}.{fmt}" for name, (_, formats) in GOLDENS.items() for fmt in formats}
    assert recorded == {path.name for path in GOLDEN_DIR.iterdir()}


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for path in record(sys.argv[1:]):
        print(f"wrote {path}")
