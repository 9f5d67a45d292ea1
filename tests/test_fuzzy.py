"""Fuzzy number and linguistic scale tests."""
import pytest

from fdematel import (
    DEFAULT_SCALE,
    LinguisticScale,
    LinguisticTerm,
    TriangularFuzzyNumber,
)
from fdematel.errors import InvalidFuzzyNumber, InvalidScale, UnknownTerm

T = TriangularFuzzyNumber

TABLE4 = {
    LinguisticTerm.NO_EFFECT: (0.0, 0.0, 0.25),
    LinguisticTerm.LITTLE_EFFECT: (0.0, 0.25, 0.5),
    LinguisticTerm.MEDIUM_EFFECT: (0.25, 0.5, 0.75),
    LinguisticTerm.HIGH_EFFECT: (0.5, 0.75, 1.0),
    LinguisticTerm.VERY_HIGH_EFFECT: (0.75, 1.0, 1.0),
}


def test_default_scale_matches_reference_table_exactly():
    assert len(DEFAULT_SCALE.entries) == 5
    for term, triple in TABLE4.items():
        assert DEFAULT_SCALE.triple_for(term).as_tuple() == triple


def test_term_lookup_examples():
    assert DEFAULT_SCALE.triple_for(LinguisticTerm.HIGH_EFFECT).as_tuple() == (0.5, 0.75, 1.0)
    assert DEFAULT_SCALE.triple_for(LinguisticTerm.NO_EFFECT).as_tuple() == (0.0, 0.0, 0.25)


def test_term_absent_from_custom_scale():
    four = LinguisticScale(
        tuple(
            (t, T(*TABLE4[t]))
            for t in list(LinguisticTerm)[:4]
        )
    )
    with pytest.raises(UnknownTerm):
        four.triple_for(LinguisticTerm.VERY_HIGH_EFFECT)


def test_from_label_is_case_insensitive():
    assert LinguisticTerm.from_label("Medium Effect") is LinguisticTerm.MEDIUM_EFFECT
    assert LinguisticTerm.from_label("VERY HIGH EFFECT") is LinguisticTerm.VERY_HIGH_EFFECT
    assert LinguisticTerm.from_label("  no effect ") is LinguisticTerm.NO_EFFECT
    with pytest.raises(UnknownTerm):
        LinguisticTerm.from_label("huge effect")


def test_invalid_triples_are_rejected():
    with pytest.raises(InvalidFuzzyNumber):
        T(0.5, 0.25, 1.0)
    with pytest.raises(InvalidFuzzyNumber):
        T(0.0, 0.5, 0.25)
    with pytest.raises(InvalidFuzzyNumber):
        T(0.0, float("nan"), 1.0)
    with pytest.raises(InvalidFuzzyNumber):
        T(0.0, 0.5, float("inf"))


def test_custom_scale_from_json():
    spec = {
        "terms": [
            {"label": "no effect", "l": 0, "m": 0.1, "r": 0.3},
            {"label": "medium effect", "l": 0.3, "m": 0.5, "r": 0.7},
            {"label": "very high effect", "l": 0.7, "m": 0.9, "r": 1.0},
        ]
    }
    scale = LinguisticScale.from_mapping(spec)
    assert scale.terms() == (
        LinguisticTerm.NO_EFFECT,
        LinguisticTerm.MEDIUM_EFFECT,
        LinguisticTerm.VERY_HIGH_EFFECT,
    )
    assert scale.triple_for(LinguisticTerm.MEDIUM_EFFECT).as_tuple() == (0.3, 0.5, 0.7)


def test_custom_scale_entries_are_reordered_to_term_order():
    scale = LinguisticScale.from_mapping(
        {
            "terms": [
                {"label": "high effect", "l": 0.5, "m": 0.75, "r": 1},
                {"label": "little effect", "l": 0, "m": 0.25, "r": 0.5},
            ]
        }
    )
    assert scale.terms() == (LinguisticTerm.LITTLE_EFFECT, LinguisticTerm.HIGH_EFFECT)


def test_custom_scale_validation():
    with pytest.raises(InvalidScale):
        # modes not strictly increasing
        LinguisticScale.from_mapping(
            {
                "terms": [
                    {"label": "no effect", "l": 0, "m": 0.5, "r": 0.6},
                    {"label": "little effect", "l": 0, "m": 0.5, "r": 0.7},
                ]
            }
        )
    with pytest.raises(InvalidFuzzyNumber):
        LinguisticScale.from_mapping({"terms": [{"label": "no effect", "l": 0.5, "m": 0.2, "r": 0.6}]})
    with pytest.raises(UnknownTerm):
        LinguisticScale.from_mapping({"terms": [{"label": "gigantic effect", "l": 0, "m": 0.5, "r": 1}]})
    with pytest.raises(InvalidScale):
        LinguisticScale.from_mapping({"levels": []})
    with pytest.raises(InvalidScale):
        LinguisticScale.from_mapping({"terms": []})
    with pytest.raises(InvalidScale):
        LinguisticScale.from_mapping(
            {
                "terms": [
                    {"label": "no effect", "l": 0, "m": 0.1, "r": 0.3},
                    {"label": "no effect", "l": 0, "m": 0.2, "r": 0.4},
                ]
            }
        )


def test_default_scale_modes_strictly_increase():
    modes = [tfn.m for _, tfn in DEFAULT_SCALE.entries]
    assert modes == sorted(modes)
    assert len(set(modes)) == len(modes)
