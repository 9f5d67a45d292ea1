"""Golden outputs: CLI bytes compared with committed files.

The determinism tests compare two runs of the same code; these compare
against bytes written once, so a refactor that changes any output fails
here. Reports are compared with `metadata.generated_at` blanked.

Regenerate (only for a deliberate output change) with
`PYTHONPATH=src python tests/test_golden.py`.
"""
import os
import re
import shutil
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from fdematel.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

#: golden file -> CLI arguments. Run in order, in a directory holding
#: survey_small.json and table5.csv; the diagrams read run-table5.json.
CASES = {
    "reproduce.txt": ["reproduce"],
    "run-survey-per-expert.json": ["run", "survey_small.json", "--mode", "per-expert"],
    "run-survey-aggregate.json": ["run", "survey_small.json", "--mode", "aggregate"],
    "run-table5.json": ["run", "table5.csv"],
    "run-table5-zero-diagonal.json": ["run", "table5.csv", "--zero-diagonal"],
    "diagram-table5.svg": ["diagram", "run-table5.json", "--format", "svg"],
    "diagram-table5.dot": ["diagram", "run-table5.json", "--format", "dot"],
    "diagram-table5.json": ["diagram", "run-table5.json", "--format", "json"],
}

_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')


def produce() -> dict:
    """Run every case in the current directory; file name -> output bytes."""
    shutil.copy(DATA / "survey_small.json", "survey_small.json")
    table5 = resources.files("fdematel").joinpath("data", "table5.csv").read_bytes()
    Path("table5.csv").write_bytes(table5)
    outputs = {}
    for name, args in CASES.items():
        assert main([*args, "--output", name]) == 0, name
        outputs[name] = _GENERATED_AT.sub(b'"generated_at": ""', Path(name).read_bytes())
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("golden"))
    try:
        yield produce()
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, data in produce().items():
            (GOLDEN / name).write_bytes(data)
