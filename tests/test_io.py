"""Survey/CSV parsing and embedded fixture tests."""
import json
import math

import numpy as np
import pytest

from fdematel import (
    DefuzzMode,
    DirectRelationMatrix,
    FactorCatalog,
    LinguisticTerm,
    defuzzify_matrix,
    load_case_study,
    parse_crisp_matrix,
    parse_survey,
    serialize_survey,
)
from fdematel.errors import (
    DuplicateJudgment,
    MalformedDocument,
    MissingJudgment,
    NegativeEntry,
    NonNumericField,
    NonSquare,
    SelfJudgment,
    UnknownFactor,
    UnknownTerm,
)

TERM_LABELS = [t.value for t in LinguisticTerm]


def survey_dict(n=2, experts=1, term="medium effect", scale=None):
    ids = [f"F{i + 1}" for i in range(n)]
    doc = {
        "factors": [{"id": fid, "name": f"factor {fid}"} for fid in ids],
        "experts": [
            {
                "id": f"e{k + 1}",
                "judgments": [
                    {"from": s, "to": t, "term": term}
                    for s in ids
                    for t in ids
                    if s != t
                ],
            }
            for k in range(experts)
        ],
    }
    if scale is not None:
        doc["scale"] = scale
    return doc


def test_parse_minimal_survey():
    doc = parse_survey(json.dumps(survey_dict()))
    assert doc.k == 1
    assert doc.catalog.n == 2
    assert doc.catalog.ids == ("F1", "F2")
    assert all(j.term is LinguisticTerm.MEDIUM_EFFECT for j in doc.experts[0].judgments)
    panel = doc.to_panel()
    direct = defuzzify_matrix(panel, DefuzzMode.PER_EXPERT_BNP)
    assert direct.entries == pytest.approx(np.array([[0, 0.5], [0.5, 0]]), abs=1e-9)


def test_parse_survey_accepts_bytes_and_mixed_case_terms():
    raw = survey_dict(term="Medium Effect")
    doc = parse_survey(json.dumps(raw).encode("utf-8"))
    assert all(j.term is LinguisticTerm.MEDIUM_EFFECT for j in doc.experts[0].judgments)


def test_duplicate_judgment_rejected():
    raw = survey_dict()
    raw["experts"][0]["judgments"].append({"from": "F1", "to": "F2", "term": "high effect"})
    with pytest.raises(DuplicateJudgment, match="e1"):
        parse_survey(json.dumps(raw))


def test_self_judgment_rejected():
    raw = survey_dict()
    raw["experts"][0]["judgments"][0]["to"] = raw["experts"][0]["judgments"][0]["from"]
    with pytest.raises(SelfJudgment):
        parse_survey(json.dumps(raw))


def test_unknown_factor_rejected():
    raw = survey_dict()
    raw["experts"][0]["judgments"][0]["from"] = "F9"
    with pytest.raises(UnknownFactor, match="F9"):
        parse_survey(json.dumps(raw))


def test_missing_judgment_rejected():
    raw = survey_dict(n=3)
    del raw["experts"][0]["judgments"][2]
    with pytest.raises(MissingJudgment, match="e1"):
        parse_survey(json.dumps(raw))


def test_unknown_term_rejected():
    raw = survey_dict(term="cosmic effect")
    with pytest.raises(UnknownTerm):
        parse_survey(json.dumps(raw))


def test_term_outside_custom_scale_rejected():
    scale = {
        "terms": [
            {"label": "no effect", "l": 0, "m": 0.1, "r": 0.2},
            {"label": "high effect", "l": 0.5, "m": 0.75, "r": 1},
        ]
    }
    raw = survey_dict(term="medium effect", scale=scale)
    with pytest.raises(UnknownTerm):
        parse_survey(json.dumps(raw))


def test_malformed_documents_rejected():
    with pytest.raises(MalformedDocument):
        parse_survey("{ not json")
    with pytest.raises(MalformedDocument):
        parse_survey(json.dumps(["not", "an", "object"]))
    with pytest.raises(MalformedDocument):
        parse_survey(json.dumps({"factors": [], "experts": []}))
    with pytest.raises(MalformedDocument):
        parse_survey(json.dumps({"factors": [{"id": "a"}, {"id": "a"}], "experts": []}))
    with pytest.raises(MalformedDocument):
        parse_survey(json.dumps({"factors": [{"id": "a"}, {"id": "b"}]}))
    bad_scale = survey_dict(scale={"terms": [{"label": "no effect", "l": 1, "m": 0.5, "r": 2}]})
    with pytest.raises(MalformedDocument):
        parse_survey(json.dumps(bad_scale))
    with pytest.raises(MalformedDocument):
        parse_survey(b"\xff\xfe\x00bad")
    list_endpoint = survey_dict()
    list_endpoint["experts"][0]["judgments"][0]["from"] = ["F1"]
    with pytest.raises(MalformedDocument):
        parse_survey(json.dumps(list_endpoint))
    numeric_endpoint = survey_dict()
    numeric_endpoint["experts"][0]["judgments"][0]["to"] = 2
    with pytest.raises(MalformedDocument):
        parse_survey(json.dumps(numeric_endpoint))
    with pytest.raises(MalformedDocument, match="at least one expert"):
        parse_survey(json.dumps(survey_dict(experts=0)))
    # JSON the decoder rejects with other exceptions than JSONDecodeError
    with pytest.raises(MalformedDocument):
        parse_survey("[" * 100_000)
    with pytest.raises(MalformedDocument):
        parse_survey('{"factors": [' + "1" * 5000 + "]}")
    huge = survey_dict(scale={"terms": [{"label": "no effect", "l": 10**400, "m": 1, "r": 2}]})
    with pytest.raises(MalformedDocument):
        parse_survey(json.dumps(huge))


def test_survey_round_trip():
    raw = survey_dict(n=3, experts=2, term="little effect")
    doc = parse_survey(json.dumps(raw))
    again = parse_survey(serialize_survey(doc))
    assert again == doc


def test_round_trip_canonicalizes_judgment_order():
    rng = np.random.default_rng(37)
    raw = survey_dict(n=4, experts=2)
    for expert in raw["experts"]:
        for j in expert["judgments"]:
            j["term"] = TERM_LABELS[int(rng.integers(0, 5))]
        rng.shuffle(expert["judgments"])
    doc = parse_survey(json.dumps(raw))
    again = parse_survey(serialize_survey(doc))
    assert again == doc
    for expert in doc.experts:
        pairs = [(j.from_id, j.to_id) for j in expert.judgments]
        assert pairs == sorted(pairs, key=lambda p: (int(p[0][1:]), int(p[1][1:])))


def test_judgment_view_indexes_like_its_iteration():
    raw = survey_dict(n=4, experts=2)
    rng = np.random.default_rng(47)
    for expert in raw["experts"]:
        for j in expert["judgments"]:
            j["term"] = TERM_LABELS[int(rng.integers(0, 5))]
    doc = parse_survey(json.dumps(raw))
    assert doc.terms.shape == (2, 4, 4) and doc.terms.dtype == np.int8
    assert (np.diagonal(doc.terms, axis1=1, axis2=2) == -1).all()
    for expert, given in zip(doc.experts, raw["experts"]):
        view = expert.judgments
        listed = list(view)
        assert len(view) == len(listed) == 12
        assert [view[i] for i in range(len(view))] == listed
        assert view[-1] == listed[-1]
        with pytest.raises(IndexError):
            view[12]
        want = {(j["from"], j["to"]): LinguisticTerm.from_label(j["term"]) for j in given["judgments"]}
        assert {(j.from_id, j.to_id): j.term for j in listed} == want


def test_round_trip_keeps_custom_scale():
    scale = {
        "terms": [
            {"label": "no effect", "l": 0, "m": 0.05, "r": 0.2},
            {"label": "medium effect", "l": 0.2, "m": 0.5, "r": 0.8},
            {"label": "very high effect", "l": 0.8, "m": 0.95, "r": 1},
        ]
    }
    raw = survey_dict(term="medium effect", scale=scale)
    doc = parse_survey(json.dumps(raw))
    assert doc.scale is not None
    again = parse_survey(serialize_survey(doc))
    assert again == doc


def test_random_survey_mutations_hit_the_right_error():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        experts = int(rng.integers(1, 4))
        raw = survey_dict(n=n, experts=experts)
        for expert in raw["experts"]:
            for j in expert["judgments"]:
                j["term"] = TERM_LABELS[int(rng.integers(0, 5))]
        parse_survey(json.dumps(raw))  # valid baseline

        kind = rng.integers(0, 4)
        victim = raw["experts"][int(rng.integers(0, experts))]["judgments"]
        slot = int(rng.integers(0, len(victim)))
        if kind == 0:
            del victim[slot]
            expected = MissingJudgment
        elif kind == 1:
            victim.append(dict(victim[slot]))
            expected = DuplicateJudgment
        elif kind == 2:
            victim[slot] = dict(victim[slot], to=victim[slot]["from"])
            expected = SelfJudgment
        else:
            victim[slot] = dict(victim[slot], term="no idea")
            expected = UnknownTerm
        with pytest.raises(expected):
            parse_survey(json.dumps(raw))


CSV_MINIMAL = "id,X1,X2\nX1,0,1\nX2,1,0\n"


def test_parse_crisp_matrix_minimal():
    direct = parse_crisp_matrix(CSV_MINIMAL)
    assert direct.entries == pytest.approx(np.array([[0, 1], [1, 0]]))
    assert direct.catalog.ids == ("X1", "X2")


def test_parse_crisp_matrix_errors():
    with pytest.raises(NegativeEntry):
        parse_crisp_matrix("id,X1,X2\nX1,0,-1\nX2,1,0\n")
    with pytest.raises(NonNumericField):
        parse_crisp_matrix("id,X1,X2\nX1,0,abc\nX2,1,0\n")
    with pytest.raises(NonNumericField):
        parse_crisp_matrix("id,X1,X2\nX1,0,nan\nX2,1,0\n")
    with pytest.raises(NonSquare):
        parse_crisp_matrix("id,X1,X2\nX1,0,1\n")
    with pytest.raises(NonSquare):
        parse_crisp_matrix("id,X1,X2\nX1,0,1,5\nX2,1,0\n")
    with pytest.raises(MalformedDocument):
        parse_crisp_matrix("factor,X1,X2\nX1,0,1\nX2,1,0\n")
    with pytest.raises(MalformedDocument):
        parse_crisp_matrix("id,X1,X2\nX2,0,1\nX1,1,0\n")
    with pytest.raises(MalformedDocument):
        parse_crisp_matrix("")
    with pytest.raises(MalformedDocument):
        parse_crisp_matrix("id,X1\nX1,0\n")
    with pytest.raises(MalformedDocument):  # past the csv module's field size limit
        parse_crisp_matrix("id,X1,X2\nX1,0," + "1" * 200_000 + "\nX2,1,0\n")


def test_crisp_text_faults_come_before_value_faults():
    # text faults are raised in row order, before any value fault
    with pytest.raises(NonNumericField, match="row 'X2', column 'X1': 'abc' is not a number"):
        parse_crisp_matrix("id,X1,X2\nX1,0,-1\nX2,abc,0\n")
    with pytest.raises(NonSquare, match="row 'X2' has 1 fields"):
        parse_crisp_matrix("id,X1,X2\nX1,nan,0\nX2,1\n")
    # value faults name the first bad cell in row-major order by factor ids
    catalog = FactorCatalog.from_ids(["a", "b"])
    with pytest.raises(NegativeEntry, match="row 'a', column 'b': negative influence -1.0"):
        DirectRelationMatrix(np.array([[0, -1], [np.nan, 0]]), catalog)
    with pytest.raises(NonNumericField, match="row 'a', column 'b': non-finite influence inf"):
        DirectRelationMatrix(np.array([[0, np.inf], [1, 0]]), catalog)
    with pytest.raises(NonNumericField, match="row 'X1', column 'X2': non-finite influence inf"):
        parse_crisp_matrix("id,X1,X2\nX1,0,1e400\nX2,-1,0\n")



def test_inputs_may_start_with_a_utf8_byte_order_mark():
    survey = json.dumps(survey_dict(n=3, term="high effect"))
    for parse, text in ((parse_crisp_matrix, CSV_MINIMAL), (parse_survey, survey)):
        bom = "\ufeff" + text
        for data in (bom, bom.encode("utf-8")):
            assert repr(parse(data)) == repr(parse(text)), (parse.__name__, type(data))
        with pytest.raises(MalformedDocument, match="not valid UTF-8"):
            parse(bom.encode("utf-8") + b"\xff")

def test_crisp_matrix_round_trip_grammar():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        ids = [f"C{i}" for i in range(n)]
        entries = np.round(rng.uniform(0, 20, size=(n, n)), 3)
        lines = ["id," + ",".join(ids)]
        for fid, row in zip(ids, entries):
            lines.append(fid + "," + ",".join(format(v, "g") for v in row))
        direct = parse_crisp_matrix("\n".join(lines) + "\n")
        assert direct.entries == pytest.approx(entries)
        assert direct.catalog.ids == tuple(ids)


def test_fixture_dimensions_and_ids(study):
    assert study.direct.n == 29
    assert study.direct.catalog.ids == tuple(f"X{i}" for i in range(1, 30))
    assert study.expected_total.shape == (29, 29)
    assert len(study.expected.scores) == 29


def test_fixture_spot_values(study):
    idx = {fid: i for i, fid in enumerate(study.direct.catalog.ids)}
    assert study.direct.entries[idx["X1"], idx["X1"]] == 9.7
    assert study.direct.entries[idx["X16"], idx["X20"]] == 20.93
    assert study.expected_total[idx["X16"], idx["X5"]] == 0.08
    x8 = study.expected.by_id("X8")
    assert (x8.r, x8.c, x8.prominence, x8.relation) == (1.619, 1.056, 2.675, 0.564)


def test_fixture_entry_range_and_dominant_row(study):
    entries = study.direct.entries
    assert entries.min() == 1.17
    assert entries.max() == 20.93
    idx = {fid: i for i, fid in enumerate(study.direct.catalog.ids)}
    assert entries[idx["X21"], idx["X18"]] == 1.17
    row_sums = [math.fsum(row) for row in entries]
    assert study.direct.catalog.ids[int(np.argmax(row_sums))] == "X16"


def test_fixture_loads_identically_each_time():
    a = load_case_study()
    b = load_case_study()
    assert (a.direct.entries == b.direct.entries).all()
    assert a.expected == b.expected


def test_fixture_matrix_parses_through_public_grammar(study):
    from importlib import resources

    text = resources.files("fdematel").joinpath("data", "table5.csv").read_text()
    direct = parse_crisp_matrix(text)
    assert (direct.entries == study.direct.entries).all()
