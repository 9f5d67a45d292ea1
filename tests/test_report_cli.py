"""Report assembly, diagram emitters, and CLI behavior."""
import dataclasses
import json
import math
import re
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

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
from fdematel.errors import (
    MalformedDocument,
    NegativeEntry,
    NonNumericField,
    SingularSystem,
    VerificationFailed,
)
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


def survey_text(terms=("high effect", "little effect"), *more, scale=None):
    """Two-factor survey, one (F1->F2, F2->F1) pair of labels per expert,
    on the default scale or on scale's (label, (l, m, r)) entries."""
    doc = {"factors": [{"id": "F1", "name": "first"}, {"id": "F2", "name": "second"}]}
    if scale is not None:
        doc["scale"] = {"terms": [dict(label=label, l=l, m=m, r=r) for label, (l, m, r) in scale]}
    doc["experts"] = [
        {
            "id": f"e{k + 1}",
            "judgments": [
                {"from": "F1", "to": "F2", "term": ab},
                {"from": "F2", "to": "F1", "term": ba},
            ],
        }
        for k, (ab, ba) in enumerate((terms, *more))
    ]
    return json.dumps(doc)


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
    text = emit_diagram(study_module.expected, "json")
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
    svg = emit_diagram(study_module.expected, "svg")
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
    dot = emit_diagram(study_module.expected, "dot")
    assert dot.startswith("graph cause_effect_diagram {")
    assert dot.count("pos=") == 29
    assert '"X16" [pos="3.180000,1.026000!"' in dot
    assert emit_diagram(study_module.expected, "dot") == dot


def test_dot_and_svg_carry_any_id_and_name(tmp_path, capsys):
    names = ('say "hi" \\ bye', "ctl\x01 <&> new\nline", "lone \ud800 surrogate")
    ids = ('a"b', "back\\slash", "plain")
    result = DematelResult(
        tuple(
            FactorScore(id=i, name=n, r=1.0, c=0.5, prominence=1.5 + k, relation=0.5, group=Group.CAUSE)
            for k, (i, n) in enumerate(zip(ids, names))
        )
    )
    quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', emit_diagram(result, "dot"))
    fields = [re.sub(r"\\(.)", r"\1", q, flags=re.S) for q in quoted]
    nodes = [fields[k : k + 5] for k in range(0, len(fields), 5)]
    drawn = [n.replace("\ud800", "\ufffd") for n in names]  # UTF-8 cannot carry a lone surrogate
    assert [(node[0], node[2], node[4]) for node in nodes] == [(i, i, n) for i, n in zip(ids, drawn)]

    # the CLI writes both formats, to stdout and to a file, for a report
    # whose JSON holds the surrogate as an escape
    report = tmp_path / "report.json"
    records = [dict(dataclasses.asdict(s), group=s.group.value) for s in result.scores]
    report.write_text(json.dumps({"scores": records}))
    for fmt in ("dot", "svg"):
        assert main(["diagram", str(report), "--format", fmt]) == 0, fmt
        assert "lone \ufffd surrogate" in capsys.readouterr().out
        assert main(["diagram", str(report), "--format", fmt, "--output", str(tmp_path / "out")]) == 0, fmt
        assert "lone \ufffd surrogate" in (tmp_path / "out").read_text(encoding="utf-8")

    root = ElementTree.fromstring(emit_diagram(result, "svg"))
    svg = "{http://www.w3.org/2000/svg}"
    titles = [t.text for t in root.iter(f"{svg}title")]
    assert titles == ['say "hi" \\ bye', "ctl\ufffd <&> new\nline", "lone \ufffd surrogate"]
    assert [t.text for t in root.iter(f"{svg}text") if t.get("class") == "point-label"] == list(ids)


def test_unknown_diagram_format(study_module):
    with pytest.raises(ValueError):
        emit_diagram(study_module.expected, "png")


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


def test_cli_near_singular_matrix_hits_singular_system(tmp_path, capsys):
    # unequal row sums and no zero pivot, but kappa(I - D) is about 4e11
    path = tmp_path / "near.csv"
    path.write_text("id,A,B,C\nA,0,1,0\nB,0.99999999999,0,0\nC,0.3,0.3,0\n")
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


def test_cli_repeated_factor_id_exit_code(tmp_path, capsys):
    path = tmp_path / "repeated.csv"
    path.write_text("id,X1,X1\nX1,0,1\nX1,1,0\n")
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == MalformedDocument.exit_code == 40
    assert "MalformedDocument" in captured.err
    assert "X1" in captured.err  # the repeated id named


def test_cli_overflowing_row_sum_exit_code(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("id,X1,X2,X3\nX1,0,1e308,1e308\nX2,1,0,1\nX3,1,1,0\n")
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == NonNumericField.exit_code
    assert "NonNumericField" in captured.err


def test_cli_negative_zero_column_prints_positive_zero(tmp_path, capsys):
    # odd and even column lengths; the -0 column of A gives a -0 column of T
    for text in (
        "id,X1,X2,X3\nX1,0,1,-0\nX2,1,0,-0\nX3,3,1,-0\n",
        "id,X1,X2,X3,X4\nX1,0,1,-0,-0\nX2,1,0,-0,-0\nX3,3,1,-0,-0\nX4,3,1,-0,-0\n",
    ):
        path = tmp_path / "zeros.csv"
        path.write_text(text)
        assert main(["run", str(path)]) == 0
        scores = json.loads(capsys.readouterr().out)["scores"]
        assert [math.copysign(1.0, rec["c"]) for rec in scores] == [1.0] * len(scores)
        assert scores[-1]["c"] == 0.0



def test_cli_writes_subnormal_and_band_entries_as_the_rounded_float(tmp_path):
    # .12g text would print 9.99988867183e-321 and 1e+12 here
    out = tmp_path / "report.json"
    for text, first_row in (
        ("id,X1,X2\nX1,0,1e-320\nX2,1,0\n", ["0.0", "1e-320"]),
        ("id,X1,X2,X3\nX1,0,999999999999.5,1\nX2,1,0,2\nX3,2,1,0\n", ["0.0", "1000000000000.0", "1.0"]),
    ):
        path = tmp_path / "edge.csv"
        path.write_text(text)
        assert main(["run", str(path), "--output", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"), parse_float=str)
        assert report["matrices"]["direct"][0] == first_row


def test_cli_run_accepts_a_utf8_byte_order_mark(tmp_path):
    survey = (Path(__file__).parent / "data" / "survey_small.json").read_bytes()
    out = tmp_path / "report.json"
    for name, data in (("table5.csv", table5_text().encode("utf-8")), ("survey_small.json", survey)):
        reports = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / (prefix.hex() + name)
            path.write_bytes(prefix + data)
            assert main(["run", str(path), "--output", str(out)]) == 0, (name, prefix)
            report = json.loads(out.read_text(encoding="utf-8"))
            del report["metadata"]["input"], report["metadata"]["generated_at"]
            reports.append(report)
        assert reports[0] == reports[1], name


def test_cli_diagram_accepts_a_utf8_byte_order_mark(tmp_path):
    golden = Path(__file__).parent / "data" / "golden"
    report = (golden / "run-table5.json").read_bytes()
    out = tmp_path / "diagram"
    for fmt in ("dot", "svg", "json"):
        diagrams = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / (prefix.hex() + "report.json")
            path.write_bytes(prefix + report)
            assert main(["diagram", str(path), "--format", fmt, "--output", str(out)]) == 0, (fmt, prefix)
            diagrams.append(out.read_bytes())
        assert diagrams[0] == diagrams[1] == (golden / f"diagram-table5.{fmt}").read_bytes(), fmt


def assert_both_modes_exit_non_numeric(path, capsys):
    for mode in ("per-expert", "aggregate"):
        code = main(["run", str(path), "--mode", mode])
        err = capsys.readouterr().err
        assert code == NonNumericField.exit_code, mode
        assert "defuzzified value is not a finite float" in err, mode
        assert "column" not in err, mode


def test_cli_overflowing_cfcs_mean_exit_code(tmp_path, capsys):
    # two BNPs near 1.6e308 (and two left bounds of 1.5e308) overflow their sum
    path = tmp_path / "huge.json"
    scale = (("no effect", (0, 0, 1e308)), ("little effect", (1.5e308, 1.6e308, 1.7e308)))
    path.write_text(survey_text(*[("little effect", "little effect")] * 2, scale=scale))
    assert_both_modes_exit_non_numeric(path, capsys)


def test_cli_overflowing_cfcs_delta_exit_code(tmp_path, capsys):
    # a mixed panel's right - left overflows; two left bounds of -1.7e308
    # overflow the aggregate mean
    path = tmp_path / "wide.json"
    scale = (("no effect", (-1.7e308, 0, 0)), ("little effect", (0, 1, 1.7e308)))
    path.write_text(survey_text(("no effect", "no effect"), ("little effect", "no effect"), scale=scale))
    assert_both_modes_exit_non_numeric(path, capsys)


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

    def with_prominences(*values):
        bad = json.loads(json.dumps(good))
        for rec, value in zip(bad["scores"], values):
            rec["prominence"] = value
        return json.dumps(bad)

    path = tmp_path / "junk.json"
    for text in (
        '{"hello": 1}',
        "{ not json",
        with_first_score(r="x"),
        with_first_score(group="Bogus"),
        with_first_score(id=5),
        with_first_score(relation="nan"),
        with_first_score(prominence="inf"),
        with_first_score(r=float("-inf")),
        with_first_score(c=float("nan")),
        with_first_score(r=10**400),
        # finite scores whose padded SVG axis range is not
        with_prominences(1.7e308, -1.7e308),
        with_first_score(prominence=-1.79e308),
        with_prominences(*[1.7e308] * 29),
        with_prominences(*[1e17] * 29),
        json.dumps(dict(good, scores=[])),
        "[" * 100_000 + "]" * 100_000,
    ):
        path.write_text(text)
        for fmt in ("json", "svg", "dot"):
            code = main(["diagram", str(path), "--format", fmt])
            assert code == MalformedDocument.exit_code, (text[:60], fmt)
    capsys.readouterr()


def test_cli_reproduce_rejects_non_finite_or_negative_tolerance(capsys):
    for value in ("nan", "inf", "-inf", "-0.01", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--tolerance", value])
        assert exc.value.code == 2, value
        assert "--tolerance" in capsys.readouterr().err


def test_cli_output_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    assert main(["reproduce", "--output", str(out)]) == 0
    capsys.readouterr()
    assert "better diagonal treatment" in out.read_text()
