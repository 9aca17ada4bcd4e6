"""Golden numeric outputs of the README CLI examples.

Each README command is rerun and its JSON document compared with the copy
under ``tests/golden/``: integers, strings, booleans, nulls, error names
and document structure must match exactly, floats within GOLDEN_ATOL.
The phase diagram, in the README's CSV ``--out`` form, and ``evolve``, as
a ``key,value`` record, are compared as CSV too, cell by cell.
Numbers are compared, not bytes, because last-bit float differences
(BLAS threading, eigensolver rounding) are expected and harmless.

Regenerate after an intended change of results with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md why the numbers moved.
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
CSV_GOLDENS = ("evolve", "phase_diagram")


def run_json(argv) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, f"{argv} exited {code}"
    return json.loads(buf.getvalue())


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
    got = csv_cells(run_csv(README_COMMANDS[name], tmp_path / f"{name}.csv"))
    assert_matches(got, want)


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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in README_COMMANDS.items():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN_DIR / f"{name}.json").write_text(buf.getvalue())
        print(f"wrote {GOLDEN_DIR / name}.json")
    for name in CSV_GOLDENS:
        run_csv(README_COMMANDS[name], GOLDEN_DIR / f"{name}.csv")
        print(f"wrote {GOLDEN_DIR / name}.csv")
