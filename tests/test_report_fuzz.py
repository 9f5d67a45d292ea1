"""Property-based fuzzing of the report loader behind `fdematel diagram`.

Every input must either draw or exit with MalformedDocument's code; a
traceback out of the loader is a bug. The inputs go through the CLI,
because the loader is the CLI's read, decode and scores_from_report.
"""
import copy
import json
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdematel.cli import main  # noqa: E402
from fdematel.errors import MalformedDocument  # noqa: E402
from test_survey_fuzz import json_values  # noqa: E402

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden" / "run-survey-per-expert.json").read_text(encoding="utf-8")
)
FORMATS = ("json", "svg", "dot")

FUZZ = settings(max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("report-fuzz")


def draws_or_fails_typed(workdir: Path, raw, fmt: str) -> int:
    path = workdir / "report.json"
    if isinstance(raw, bytes):
        path.write_bytes(raw)
    else:
        path.write_text(raw if isinstance(raw, str) else json.dumps(raw), encoding="utf-8")
    code = main(["diagram", str(path), "--format", fmt, "--output", str(workdir / "out")])
    assert code in (0, MalformedDocument.exit_code)
    return code


@st.composite
def golden_mutations(draw):
    """A golden `run` report with one to three values replaced, deleted or
    duplicated at random places, biased toward the score records."""
    doc = copy.deepcopy(GOLDEN)
    for _ in range(draw(st.integers(1, 3))):
        scores = doc.get("scores")
        node = scores if isinstance(scores, list) and draw(st.booleans()) else doc
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)) > 0:
            key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1))
            child = node[key]
            if not isinstance(child, (dict, list)) or not child:
                break
            node = child
        if not isinstance(node, (dict, list)) or not node:
            continue
        key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1))
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            node[key] = draw(json_values | st.sampled_from(["Cause", "Effect", "nan", "1e308", 1e308, -1e308]))
        elif action == "delete":
            del node[key]
        elif isinstance(node, list):
            node.append(copy.deepcopy(node[key]))
    return doc


@FUZZ
@given(raw=golden_mutations(), fmt=st.sampled_from(FORMATS))
def test_golden_report_mutations_draw_or_fail_typed(workdir, raw, fmt):
    draws_or_fails_typed(workdir, raw, fmt)


@FUZZ
@given(raw=st.text(max_size=40) | st.binary(max_size=40) | json_values, fmt=st.sampled_from(FORMATS))
def test_arbitrary_text_draws_or_fails_typed(workdir, raw, fmt):
    draws_or_fails_typed(workdir, raw, fmt)


def test_golden_report_draws(workdir):
    for fmt in FORMATS:
        assert draws_or_fails_typed(workdir, GOLDEN, fmt) == 0
        assert (workdir / "out").stat().st_size > 0
