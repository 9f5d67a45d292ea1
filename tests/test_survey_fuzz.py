"""Property-based fuzzing of the survey parser.

Every input must either parse or raise an FdematelError; a TypeError,
KeyError or IndexError escaping parse_survey is a bug. Documents that parse
must survive serialize_survey unchanged.
"""
import copy
import json
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdematel import LinguisticTerm, parse_survey, serialize_survey  # noqa: E402
from fdematel.errors import FdematelError  # noqa: E402

SMALL = json.loads((Path(__file__).parent / "data" / "survey_small.json").read_text(encoding="utf-8"))
IDS = ["S1", "S2", "S3"]
LABELS = [t.value for t in LinguisticTerm]
TRIPLES = [(0.0, 0.0, 0.25), (0.0, 0.25, 0.5), (0.25, 0.5, 0.75), (0.5, 0.75, 1.0), (0.75, 1.0, 1.0)]

FUZZ = settings(max_examples=120, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])

#: Any JSON value, unhashable ones included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def rarely_junk(good):
    """Mostly `good`, one draw in six any JSON value."""
    return st.integers(0, 5).flatmap(lambda roll: json_values if roll == 0 else good)


factor_ids = rarely_junk(st.sampled_from(IDS + ["S9"]))
labels = rarely_junk(st.sampled_from(LABELS + ["Medium  Effect", " NO EFFECT ", "cosmic effect"]))


def parses_or_fails_typed(raw) -> None:
    text = raw if isinstance(raw, (str, bytes)) else json.dumps(raw)
    try:
        doc = parse_survey(text)
    except FdematelError:
        return
    assert parse_survey(serialize_survey(doc)) == doc


@st.composite
def scales(draw):
    """None, a custom scale over a subset of the terms (often lacking a
    term the judgments use), or junk."""
    kind = draw(st.integers(0, 5))
    if kind < 3:
        return None
    if kind < 5:
        picked = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
        return {"terms": [dict(zip(("label", "l", "m", "r"), (LABELS[i], *TRIPLES[i]))) for i in picked]}
    return draw(json_values)


@st.composite
def surveys(draw):
    """Surveys of random judgments over three factors: duplicate, missing
    and self pairs, unknown factors and terms, and non-string fields."""
    factors = [{"id": fid, "name": f"factor {fid}"} for fid in IDS]
    if draw(st.integers(0, 5)) == 0:
        factors[draw(st.integers(0, 2))] = draw(st.dictionaries(st.sampled_from(["id", "name"]), json_values))
    experts = []
    for k in range(draw(st.integers(1, 3))):
        complete = [{"from": s, "to": t, "term": draw(st.sampled_from(LABELS))} for s in IDS for t in IDS if s != t]
        extra = st.fixed_dictionaries({"from": factor_ids, "to": factor_ids, "term": labels})
        judgments = draw(st.sampled_from([complete] * 3 + [complete[1:], []]))
        if draw(st.booleans()):
            judgments = judgments + draw(st.lists(extra, min_size=1, max_size=2))
        expert_id = draw(rarely_junk(st.sampled_from([f"e{k}"] * 3 + ["e0"])))
        experts.append({"id": expert_id, "judgments": judgments})
    doc = {"factors": factors, "experts": experts}
    scale = draw(scales())
    if scale is not None:
        doc["scale"] = scale
    return doc


@st.composite
def small_survey_mutations(draw):
    """tests/data/survey_small.json with one to three values replaced,
    deleted or duplicated at random places."""
    doc = copy.deepcopy(SMALL)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 4)) > 0:
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
            node[key] = draw(json_values | st.sampled_from(IDS + LABELS + ["S4"]))
        elif action == "delete":
            del node[key]
        elif isinstance(node, list):
            node.append(copy.deepcopy(node[key]))
    return doc


@FUZZ
@given(surveys())
def test_random_surveys_parse_or_fail_typed(raw):
    parses_or_fails_typed(raw)


@FUZZ
@given(small_survey_mutations())
def test_small_survey_mutations_parse_or_fail_typed(raw):
    parses_or_fails_typed(raw)


@FUZZ
@given(st.text(max_size=40) | st.binary(max_size=40) | json_values.map(json.dumps))
def test_arbitrary_text_parses_or_fails_typed(raw):
    parses_or_fails_typed(raw)


def test_small_survey_round_trips():
    doc = parse_survey(json.dumps(SMALL))
    assert parse_survey(serialize_survey(doc)) == doc
    assert [len(e.judgments) for e in doc.experts] == [12] * doc.k
