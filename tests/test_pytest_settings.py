"""The pytest settings in pyproject.toml keep property-test failures readable."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_prints_its_falsifying_example(tmp_path):
    # warnings are errors in this suite; hypothesis's failure report must
    # still reach the output instead of ending the run in INTERNALERROR
    test_file = tmp_path / "test_property.py"
    test_file.write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings
            from hypothesis import strategies as st

            @settings(max_examples=20, derandomize=True, database=None)
            @given(st.integers())
            def test_small(n):
                assert n < 5
            """
        )
    )
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", str(test_file),
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert run.returncode == 1, output
