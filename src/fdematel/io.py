"""Survey and crisp-matrix parsing, plus the embedded 29-factor case study.

Survey documents must be total: every expert judges every ordered pair of
distinct factors exactly once. Partial surveys are rejected, not imputed.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import resources
from io import StringIO
from typing import Optional, Tuple, Union

import numpy as np

from .cfcs import FuzzyAssessmentPanel
from .engine import DematelResult, DirectRelationMatrix, FactorCatalog, FactorScore, Group
from .errors import (
    DuplicateJudgment,
    InvalidFuzzyNumber,
    InvalidScale,
    MalformedDocument,
    MissingJudgment,
    NegativeEntry,
    NonNumericField,
    NonSquare,
    SelfJudgment,
    UnknownFactor,
    UnknownTerm,
)
from .fuzzy import DEFAULT_SCALE, LinguisticScale, LinguisticTerm

TextSource = Union[str, bytes]


def _decode(data: TextSource, what: str) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"{what} is not valid UTF-8: {exc}") from None
    return data


@dataclass(frozen=True)
class Judgment:
    from_id: str
    to_id: str
    term: LinguisticTerm


@dataclass(frozen=True)
class ExpertResponses:
    expert_id: str
    judgments: Tuple[Judgment, ...]


@dataclass(frozen=True)
class SurveyDocument:
    """A parsed, fully validated expert survey.

    Judgments are stored row-major in catalog order, so two documents with
    the same content compare equal regardless of input ordering.
    """

    catalog: FactorCatalog
    scale: Optional[LinguisticScale]
    experts: Tuple[ExpertResponses, ...]

    @property
    def k(self) -> int:
        return len(self.experts)

    def effective_scale(self) -> LinguisticScale:
        return self.scale if self.scale is not None else DEFAULT_SCALE

    def to_panel(self) -> FuzzyAssessmentPanel:
        """Materialize the judgment grids as fuzzy numbers."""
        scale = self.effective_scale()
        n = self.catalog.n
        index = {fid: i for i, fid in enumerate(self.catalog.ids)}
        grids = []
        for expert in self.experts:
            grid = [[None] * n for _ in range(n)]
            for j in expert.judgments:
                grid[index[j.from_id]][index[j.to_id]] = scale.triple_for(j.term)
            grids.append(tuple(tuple(row) for row in grid))
        return FuzzyAssessmentPanel(catalog=self.catalog, grids=tuple(grids))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedDocument(message)


def parse_survey(data: TextSource) -> SurveyDocument:
    """Parse and validate a survey JSON document.

    Raises MalformedDocument for syntax/shape problems, UnknownFactor,
    SelfJudgment, DuplicateJudgment, UnknownTerm for bad judgments, and
    MissingJudgment when an expert's coverage is incomplete.
    """
    text = _decode(data, "survey document")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"survey document is not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "survey document must be a JSON object")
    _require(isinstance(doc.get("factors"), list), 'survey document needs a "factors" list')
    _require(isinstance(doc.get("experts"), list), 'survey document needs an "experts" list')
    _require(len(doc["experts"]) > 0, "a survey needs at least one expert")

    pairs = []
    for item in doc["factors"]:
        _require(
            isinstance(item, dict) and isinstance(item.get("id"), str),
            f"factor entry {item!r} must be an object with a string id",
        )
        name = item.get("name", item["id"])
        _require(isinstance(name, str), f"factor {item['id']!r} has a non-string name")
        pairs.append((item["id"], name))
    _require(len(pairs) >= 2, "a survey needs at least two factors")
    ids = [p[0] for p in pairs]
    _require(len(set(ids)) == len(ids), f"duplicate factor ids: {sorted({i for i in ids if ids.count(i) > 1})}")
    catalog = FactorCatalog.from_pairs(pairs)

    scale = None
    if doc.get("scale") is not None:
        try:
            scale = LinguisticScale.from_mapping(doc["scale"])
        except (InvalidScale, InvalidFuzzyNumber) as exc:
            raise MalformedDocument(f"invalid custom scale: {exc}") from None
    effective = scale if scale is not None else DEFAULT_SCALE
    known = set(catalog.ids)
    scale_terms = set(effective.terms())

    experts = []
    seen_experts = set()
    for entry in doc["experts"]:
        _require(
            isinstance(entry, dict) and isinstance(entry.get("id"), str),
            f"expert entry {entry!r} must be an object with a string id",
        )
        expert_id = entry["id"]
        _require(expert_id not in seen_experts, f"duplicate expert id {expert_id!r}")
        seen_experts.add(expert_id)
        _require(
            isinstance(entry.get("judgments"), list),
            f"expert {expert_id!r} needs a judgments list",
        )
        seen_pairs = {}
        judgments = []
        for j in entry["judgments"]:
            _require(
                isinstance(j, dict) and {"from", "to", "term"} <= set(j),
                f"judgment {j!r} of expert {expert_id!r} must carry from, to, term",
            )
            src, dst = j["from"], j["to"]
            if not (isinstance(src, str) and isinstance(dst, str)):
                raise MalformedDocument(f"judgment {j!r} of expert {expert_id!r} must name factors by string id")
            for fid in (src, dst):
                if fid not in known:
                    raise UnknownFactor(f"expert {expert_id!r} references unknown factor {fid!r}")
            if src == dst:
                raise SelfJudgment(f"expert {expert_id!r} judges {src!r} against itself")
            if (src, dst) in seen_pairs:
                raise DuplicateJudgment(f"expert {expert_id!r} rates ({src!r} -> {dst!r}) more than once")
            term = LinguisticTerm.from_label(j["term"])
            if term not in scale_terms:
                raise UnknownTerm(
                    f"expert {expert_id!r} uses term {j['term']!r} which the scale does not define"
                )
            seen_pairs[(src, dst)] = term
            judgments.append(Judgment(src, dst, term))
        expected = catalog.n * (catalog.n - 1)
        if len(judgments) != expected:
            missing = next(
                (s, t)
                for s in catalog.ids
                for t in catalog.ids
                if s != t and (s, t) not in seen_pairs
            )
            raise MissingJudgment(
                f"expert {expert_id!r} covers {len(judgments)} of {expected} pairs; "
                f"first missing: ({missing[0]} -> {missing[1]})"
            )
        order = {fid: i for i, fid in enumerate(catalog.ids)}
        judgments.sort(key=lambda jd: (order[jd.from_id], order[jd.to_id]))
        experts.append(ExpertResponses(expert_id, tuple(judgments)))

    return SurveyDocument(catalog=catalog, scale=scale, experts=tuple(experts))


def serialize_survey(doc: SurveyDocument) -> str:
    """Canonical JSON for a survey document; parse_survey inverts this."""
    payload = {
        "factors": [{"id": f.id, "name": f.name} for f in doc.catalog.factors],
    }
    if doc.scale is not None:
        payload["scale"] = doc.scale.to_mapping()
    payload["experts"] = [
        {
            "id": e.expert_id,
            "judgments": [
                {"from": j.from_id, "to": j.to_id, "term": j.term.value} for j in e.judgments
            ],
        }
        for e in doc.experts
    ]
    return json.dumps(payload, indent=2)


def parse_crisp_matrix(data: TextSource) -> DirectRelationMatrix:
    """Parse a crisp direct-relation matrix from CSV.

    Grammar: header "id,<f1>,...,<fN>", then exactly N data rows
    "<fi>,v1,...,vN" in header order; decimal point, UTF-8.
    """
    text = _decode(data, "matrix document")
    rows = [row for row in csv.reader(StringIO(text)) if row]
    if not rows:
        raise MalformedDocument("matrix document is empty")
    header = rows[0]
    if not header or header[0].strip() != "id":
        raise MalformedDocument('matrix header must start with an "id" cell')
    ids = [cell.strip() for cell in header[1:]]
    if len(ids) < 2:
        raise MalformedDocument("a direct-relation matrix needs at least two factors")
    if len(set(ids)) != len(ids):
        raise MalformedDocument("matrix header repeats a factor id")
    data_rows = rows[1:]
    if len(data_rows) != len(ids):
        raise NonSquare(f"matrix has {len(ids)} columns but {len(data_rows)} data rows")
    entries = np.zeros((len(ids), len(ids)))
    for i, row in enumerate(data_rows):
        label = row[0].strip()
        if label != ids[i]:
            raise MalformedDocument(
                f"row {i + 1} is labeled {label!r} but the header order expects {ids[i]!r}"
            )
        if len(row) - 1 != len(ids):
            raise NonSquare(f"row {label!r} has {len(row) - 1} fields, expected {len(ids)}")
        for j, field in enumerate(row[1:]):
            try:
                value = float(field)
            except ValueError:
                raise NonNumericField(f"row {label!r}, column {ids[j]!r}: {field!r} is not a number") from None
            if not np.isfinite(value):
                raise NonNumericField(f"row {label!r}, column {ids[j]!r}: {field!r} is not finite")
            if value < 0:
                raise NegativeEntry(f"row {label!r}, column {ids[j]!r}: negative influence {field}")
            entries[i, j] = value
    return DirectRelationMatrix(entries, FactorCatalog.from_ids(ids))


@dataclass(frozen=True)
class ExpectedScore:
    """Printed per-factor scores from the case study's score table."""

    id: str
    name: str
    r: float
    c: float
    prominence: float
    relation: float


@dataclass(frozen=True, eq=False)
class CaseStudyFixture:
    """The embedded 29-factor case study: inputs and expected outputs."""

    direct: DirectRelationMatrix
    expected_total: np.ndarray
    expected_scores: Tuple[ExpectedScore, ...]

    def expected_result(self) -> DematelResult:
        """The printed scores assembled as a DematelResult (group by printed
        relation sign), usable anywhere a computed result is."""
        scores = []
        for e in self.expected_scores:
            scores.append(
                FactorScore(
                    id=e.id,
                    name=e.name,
                    r=e.r,
                    c=e.c,
                    prominence=e.prominence,
                    relation=e.relation,
                    group=Group.CAUSE if e.relation > 0 else Group.EFFECT,
                )
            )
        return DematelResult(tuple(scores))


def _data_text(name: str) -> str:
    return resources.files("fdematel").joinpath("data", name).read_text(encoding="utf-8")


def _read_square_csv(name: str):
    rows = list(csv.reader(StringIO(_data_text(name))))
    ids = rows[0][1:]
    matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return ids, matrix


def load_case_study() -> CaseStudyFixture:
    """Load the embedded direct-relation, total-relation and score tables."""
    ids5, direct = _read_square_csv("table5.csv")
    ids6, total = _read_square_csv("table6.csv")
    scores = []
    for row in csv.DictReader(StringIO(_data_text("table7.csv"))):
        scores.append(
            ExpectedScore(
                id=row["id"],
                name=row["name"],
                r=float(row["r"]),
                c=float(row["c"]),
                prominence=float(row["prominence"]),
                relation=float(row["relation"]),
            )
        )
    assert ids5 == ids6 == [s.id for s in scores], "fixture tables disagree on factor order"
    catalog = FactorCatalog.from_pairs([(s.id, s.name) for s in scores])
    total.setflags(write=False)
    return CaseStudyFixture(
        direct=DirectRelationMatrix(direct, catalog),
        expected_total=total,
        expected_scores=tuple(scores),
    )
