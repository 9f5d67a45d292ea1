"""Report assembly, diagram emitters, and CLI behavior."""
import json
import re
from importlib import resources

import numpy as np
import pytest

from fdematel import (
    DematelResult,
    DirectRelationMatrix,
    FactorCatalog,
    FactorScore,
    Group,
    analyze,
    build_report,
    emit_diagram,
    render_json,
)
from fdematel.cli import main
from fdematel.errors import MalformedDocument, NegativeEntry, SingularSystem, VerificationFailed
from fdematel.report import render_reproduction, run_reproduction, scores_from_report


@pytest.fixture(scope="module")
def fixture_report(study_module):
    return build_report(
        study_module.direct,
        input_path="table5.csv",
        input_format="crisp-csv",
        generated_at="2000-01-01T00:00:00+00:00",
    )


@pytest.fixture(scope="module")
def study_module():
    from fdematel import load_case_study

    return load_case_study()


def table5_text():
    return resources.files("fdematel").joinpath("data", "table5.csv").read_text()


def survey_text(terms=("high effect", "little effect")):
    ab, ba = terms
    return json.dumps(
        {
            "factors": [{"id": "F1", "name": "first"}, {"id": "F2", "name": "second"}],
            "experts": [
                {
                    "id": "e1",
                    "judgments": [
                        {"from": "F1", "to": "F2", "term": ab},
                        {"from": "F2", "to": "F1", "term": ba},
                    ],
                }
            ],
        }
    )


def test_report_scores_in_catalog_order(fixture_report, study_module):
    assert [s["id"] for s in fixture_report["scores"]] == list(study_module.direct.catalog.ids)
    assert fixture_report["metadata"]["scale_factor"] == pytest.approx(552.77)
    assert fixture_report["metadata"]["zero_diagonal"] is False
    assert fixture_report["csf"][0] == "X16"


def test_report_is_self_contained(fixture_report):
    rendered = json.loads(render_json(fixture_report))
    catalog = FactorCatalog.from_pairs([(f["id"], f["name"]) for f in rendered["factors"]])
    embedded = DirectRelationMatrix(np.array(rendered["matrices"]["direct"]), catalog)
    _, t, result = analyze(embedded)
    assert np.abs(t.entries - np.array(rendered["matrices"]["total"])).max() < 1e-9
    for s, rec in zip(result.scores, rendered["scores"]):
        assert abs(s.r - rec["r"]) < 1e-9
        assert abs(s.c - rec["c"]) < 1e-9
        assert abs(s.prominence - rec["prominence"]) < 1e-9
        assert abs(s.relation - rec["relation"]) < 1e-9
        assert s.group.value == rec["group"]


def test_render_is_deterministic_and_rounds_to_12_digits(fixture_report):
    text1 = render_json(fixture_report)
    text2 = render_json(fixture_report)
    assert text1 == text2
    assert json.loads(render_json({"v": 0.1234567890123456789}))["v"] == 0.123456789012


def test_scores_round_trip_through_report(fixture_report, study_module):
    rendered = json.loads(render_json(fixture_report))
    result = scores_from_report(rendered)
    _, _, recomputed = analyze(study_module.direct)
    for a, b in zip(result.scores, recomputed.scores):
        assert a.id == b.id
        assert a.group is b.group
        assert a.relation == pytest.approx(b.relation, abs=1e-9)


def test_diagram_json_uses_printed_scores(study_module):
    text = emit_diagram(study_module.expected_result(), "json")
    points = json.loads(text)
    assert len(points) == 29
    x16 = next(p for p in points if p["id"] == "X16")
    assert x16 == {
        "id": "X16",
        "name": "innovation itself (technical superiority)",
        "x": 3.18,
        "y": 1.026,
        "group": "Cause",
    }


def test_diagram_json_coordinates_equal_report_fields(fixture_report):
    rendered = json.loads(render_json(fixture_report))
    points = json.loads(emit_diagram(scores_from_report(rendered), "json"))
    by_id = {rec["id"]: rec for rec in rendered["scores"]}
    for p in points:
        assert p["x"] == by_id[p["id"]]["prominence"]
        assert p["y"] == by_id[p["id"]]["relation"]


def parse_svg_points(svg):
    circles = [float(m) for m in re.findall(r'<circle class="point"[^>]* cy="([-0-9.]+)"', svg)]
    zero = re.search(r'<line class="zero-line"[^>]* y1="([-0-9.]+)"', svg)
    labels = re.findall(r'<text class="point-label"', svg)
    return circles, (None if zero is None else float(zero.group(1))), labels


def test_svg_diagram_structure(study_module):
    svg = emit_diagram(study_module.expected_result(), "svg")
    assert svg.startswith("<svg")
    assert "svg" in svg and "version=\"1.1\"" in svg
    assert "<script" not in svg
    circles, zero_y, labels = parse_svg_points(svg)
    assert len(circles) == 29
    assert len(labels) == 29
    assert zero_y is not None
    # SVG y grows downward: cause-group points sit strictly above the zero line
    above = [cy for cy in circles if cy < zero_y]
    assert len(above) == 15


def test_svg_single_point_degenerate():
    lone = DematelResult(
        (
            FactorScore(
                id="A1",
                name="only factor",
                r=1.0,
                c=0.5,
                prominence=1.5,
                relation=0.5,
                group=Group.CAUSE,
            ),
        )
    )
    svg = emit_diagram(lone, "svg")
    circles, zero_y, labels = parse_svg_points(svg)
    assert len(circles) == 1 and len(labels) == 1
    assert zero_y is not None


def test_dot_diagram(study_module):
    dot = emit_diagram(study_module.expected_result(), "dot")
    assert dot.startswith("graph cause_effect_diagram {")
    assert dot.count("pos=") == 29
    assert '"X16" [pos="3.180000,1.026000!"' in dot
    assert emit_diagram(study_module.expected_result(), "dot") == dot


def test_unknown_diagram_format(study_module):
    with pytest.raises(ValueError):
        emit_diagram(study_module.expected_result(), "png")


def test_cli_run_on_fixture_csv(tmp_path, capsys):
    path = tmp_path / "table5.csv"
    path.write_text(table5_text())
    assert main(["run", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    by_id = {rec["id"]: rec for rec in report["scores"]}
    assert by_id["X16"]["relation"] > 0
    assert by_id["X21"]["relation"] < 0
    assert report["metadata"]["input_format"] == "crisp-csv"
    assert report["metadata"]["defuzzification_mode"] is None


def test_cli_run_zero_diagonal_changes_scale_factor(tmp_path, capsys):
    path = tmp_path / "table5.csv"
    path.write_text(table5_text())
    assert main(["run", str(path), "--zero-diagonal"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metadata"]["scale_factor"] == pytest.approx(533.8)
    assert report["metadata"]["zero_diagonal"] is True


def test_cli_run_on_survey(tmp_path, capsys):
    path = tmp_path / "survey.json"
    path.write_text(survey_text())
    assert main(["run", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metadata"]["input_format"] == "survey-json"
    assert report["metadata"]["defuzzification_mode"] == "per-expert"
    # A = [[0, 0.75], [0.25, 0]] -> s = 0.75
    assert report["metadata"]["scale_factor"] == pytest.approx(0.75)
    assert np.array(report["matrices"]["direct"]) == pytest.approx(
        np.array([[0, 0.75], [0.25, 0]])
    )


def test_cli_run_survey_aggregate_mode(tmp_path, capsys):
    path = tmp_path / "survey.json"
    path.write_text(survey_text())
    assert main(["run", str(path), "--mode", "aggregate"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metadata"]["defuzzification_mode"] == "aggregate"


def test_cli_uniform_survey_hits_singular_system(tmp_path, capsys):
    # all-identical judgments give equal row sums, the documented singular case
    path = tmp_path / "survey.json"
    path.write_text(survey_text(terms=("medium effect", "medium effect")))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == SingularSystem.exit_code
    assert "SingularSystem" in captured.err


def test_cli_negative_entry_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,X1,X2\nX1,0,-1\nX2,1,0\n")
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == NegativeEntry.exit_code
    assert "NegativeEntry" in captured.err
    assert "X1" in captured.err  # offending location named


def test_cli_unknown_extension_requires_format_flag(tmp_path, capsys):
    path = tmp_path / "matrix.txt"
    path.write_text(table5_text())
    code = main(["run", str(path)])
    assert code == MalformedDocument.exit_code
    capsys.readouterr()
    assert main(["run", str(path), "--input-format", "crisp"]) == 0
    capsys.readouterr()


def test_cli_reproduce_reports_pass(capsys):
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert "better diagonal treatment: verbatim" in out
    verbatim_block = out.split("[diagonal zeroed]")[0]
    assert "FAIL" not in verbatim_block


def test_cli_reproduce_zero_tolerance_fails_cells(capsys):
    assert main(["reproduce", "--tolerance", "0.0"]) == VerificationFailed.exit_code
    captured = capsys.readouterr()
    assert "cells over 0:" in captured.out
    assert "FAIL" in captured.out.split("[diagonal zeroed]")[0]
    assert "better diagonal treatment: verbatim" in captured.out  # full text still written
    assert "VerificationFailed" in captured.err


def test_reproduction_text_is_pure():
    a = render_reproduction(run_reproduction())
    b = render_reproduction(run_reproduction())
    assert a == b


def test_cli_diagram_from_report(tmp_path, capsys):
    csv_path = tmp_path / "table5.csv"
    csv_path.write_text(table5_text())
    report_path = tmp_path / "report.json"
    assert main(["run", str(csv_path), "--output", str(report_path)]) == 0
    capsys.readouterr()
    assert main(["diagram", str(report_path), "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    circles, zero_y, labels = parse_svg_points(svg)
    assert len(circles) == 29
    assert zero_y is not None

    assert main(["diagram", str(report_path)]) == 0
    points = json.loads(capsys.readouterr().out)
    report = json.loads(report_path.read_text())
    by_id = {rec["id"]: rec for rec in report["scores"]}
    for p in points:
        assert p["x"] == by_id[p["id"]]["prominence"]
        assert p["y"] == by_id[p["id"]]["relation"]


def test_cli_diagram_rejects_non_report(tmp_path, capsys, fixture_report):
    good = json.loads(render_json(fixture_report))

    def with_first_score(**fields):
        bad = json.loads(json.dumps(good))
        bad["scores"][0].update(fields)
        return json.dumps(bad)

    path = tmp_path / "junk.json"
    for text in (
        '{"hello": 1}',
        "{ not json",
        with_first_score(r="x"),
        with_first_score(group="Bogus"),
        with_first_score(id=5),
        json.dumps(dict(good, scores=[])),
    ):
        path.write_text(text)
        for fmt in ("json", "svg", "dot"):
            code = main(["diagram", str(path), "--format", fmt])
            assert code == MalformedDocument.exit_code, (text[:60], fmt)
    capsys.readouterr()


def test_cli_output_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    assert main(["reproduce", "--output", str(out)]) == 0
    capsys.readouterr()
    assert "better diagonal treatment" in out.read_text()
