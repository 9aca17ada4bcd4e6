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

    The goldens are recorded through the CLI, so their closed columns are the
    array kernel's own output: this pins the kernel against drift, it is not
    an independent reference.  Their accuracy is checked against 50-digit
    arithmetic when they move (CHANGES.md).  Only the numerical columns may
    drift, within GOLDEN_ATOL.
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


def _leaves(doc) -> list:
    """The keys and values of a parsed document, depth first."""
    if isinstance(doc, dict):
        return [leaf for pair in doc.items() for part in pair for leaf in _leaves(part)]
    if isinstance(doc, list):
        return [leaf for item in doc for leaf in _leaves(item)]
    return [doc]


def moved(old: str, new: str, fmt: str) -> str:
    """What rewriting a golden's ``old`` text as ``new`` moved: the count of numeric
    cells that changed, and their largest absolute and relative move, relative to
    the larger magnitude; or that some other cell or the structure changed."""
    leaves = [_leaves(json.loads(t) if fmt == "json" else csv_cells(t)) for t in (old, new)]
    pairs = [(a, b) for a, b in zip(*leaves) if a != b]
    if len(leaves[0]) != len(leaves[1]) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for pair in pairs for v in pair
    ):
        return "structure or non-numeric cells changed"
    if not pairs:
        return "nothing moved"
    steps = [(abs(b - a), abs(b - a) / max(abs(a), abs(b))) for a, b in pairs]
    return (f"{len(pairs)} of {len(leaves[0])} cells moved, all numeric, by at most "
            f"{max(s[0] for s in steps):.3g} absolute and {max(s[1] for s in steps):.3g} relative")


def record(names, directory=GOLDEN_DIR) -> list[Path]:
    """Write the files of the named goldens, or of all GOLDENS if ``names`` is
    empty, into ``directory``; return their paths.  For each file it rewrites it
    prints what ``moved``."""
    unknown = [name for name in names if name not in GOLDENS]
    if unknown:
        sys.exit(f"unknown golden {', '.join(unknown)}; the goldens are {', '.join(GOLDENS)}")
    paths = []
    for name in names or GOLDENS:
        argv, formats = GOLDENS[name]
        for fmt in formats:
            path = directory / f"{name}.{fmt}"
            old = path.read_text() if path.exists() else None
            if fmt == "json":
                path.write_text(run_text(argv))
            else:
                run_csv(argv, path)
            if old is not None:
                print(f"{path.name}: {moved(old, path.read_text(), fmt)}")
            paths.append(path)
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


def test_record_reports_what_moved(tmp_path, capsys):
    """Rewriting a copy with one perturbed number reports that one cell and its move."""
    name = "phase_diagram_lattice"
    doc = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    doc["results"]["rows"][1][5] += 0.5  # a boundary_distance, 2.666666666666667
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    (tmp_path / f"{name}.csv").write_text((GOLDEN_DIR / f"{name}.csv").read_text())
    record([name], tmp_path)
    assert capsys.readouterr().out.splitlines() == [
        f"{name}.json: 1 of {len(_leaves(doc))} cells moved, all numeric, "
        "by at most 0.5 absolute and 0.158 relative",
        f"{name}.csv: nothing moved",
    ]


@pytest.mark.parametrize("old, new, report", [
    ('{"a": [1, 0.5]}', '{"a": [1, 0.25]}', "1 of 3 cells moved, all numeric, by at most "
                                            "0.25 absolute and 0.5 relative"),
    ('{"a": [1, 0.5]}', '{"a": [1, 0.5]}', "nothing moved"),
    ('{"a": [1, 0.5]}', '{"a": [1, 0.5, 2]}', "structure or non-numeric cells changed"),
    ('{"a": [1, "x"]}', '{"a": [1, "y"]}', "structure or non-numeric cells changed"),
    ('{"a": [0]}', '{"b": [0]}', "structure or non-numeric cells changed"),
])
def test_moved_names_numeric_moves_only(old, new, report):
    assert moved(old, new, "json") == report


def test_every_golden_file_is_recorded():
    recorded = {f"{name}.{fmt}" for name, (_, formats) in GOLDENS.items() for fmt in formats}
    assert recorded == {path.name for path in GOLDEN_DIR.iterdir()}


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for path in record(sys.argv[1:]):
        print(f"wrote {path}")
