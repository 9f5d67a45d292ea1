"""Survey and crisp-matrix parsing, plus the embedded 29-factor case study.

Survey documents must be total: every expert judges every ordered pair of
distinct factors exactly once. Partial surveys are rejected, not imputed.
"""
from __future__ import annotations

import csv
import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from io import StringIO
from typing import Optional, Tuple, Union

import numpy as np

from .cfcs import NO_JUDGMENT, FuzzyAssessmentPanel
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
    """UTF-8 text without its byte-order mark, which spreadsheet exports write."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"{what} is not valid UTF-8: {exc}") from None
    return data.removeprefix("\ufeff")


@dataclass(frozen=True)
class Judgment:
    from_id: str
    to_id: str
    term: LinguisticTerm


class JudgmentView(Sequence):
    """One expert's judgments, row-major in catalog order, read-only.

    A view over the expert's (N, N) slice of the term-code tensor:
    Judgment objects are made only when an item is read.
    """

    def __init__(self, ids: Tuple[str, ...], terms: Tuple[LinguisticTerm, ...], codes: np.ndarray):
        self._ids = ids
        self._terms = terms
        self._codes = codes

    def __len__(self) -> int:
        n = len(self._ids)
        return n * (n - 1)

    def __getitem__(self, index: int) -> Judgment:
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("judgment index out of range")
        i, j = divmod(index, len(self._ids) - 1)
        j += j >= i  # skip the diagonal
        return Judgment(self._ids[i], self._ids[j], self._terms[self._codes[i, j]])

    def __iter__(self):
        ids, terms = self._ids, self._terms
        for i, row in enumerate(self._codes.tolist()):
            for j, code in enumerate(row):
                if i != j:
                    yield Judgment(ids[i], ids[j], terms[code])

    def __eq__(self, other):
        if not isinstance(other, JudgmentView):
            return NotImplemented
        return tuple(self) == tuple(other)


@dataclass(frozen=True)
class ExpertResponses:
    expert_id: str
    judgments: JudgmentView


@dataclass(frozen=True, eq=False)
class SurveyDocument:
    """A parsed, fully validated expert survey.

    terms[k, i, j] is expert k's judgment of factor i on factor j, as an
    index into the effective scale's terms; the diagonal holds NO_JUDGMENT.
    The tensor is in catalog order, so two documents with the same content
    compare equal regardless of input ordering.
    """

    catalog: FactorCatalog
    scale: Optional[LinguisticScale]
    expert_ids: Tuple[str, ...]
    terms: np.ndarray

    @property
    def k(self) -> int:
        return len(self.expert_ids)

    @property
    def experts(self) -> Tuple[ExpertResponses, ...]:
        ids, terms = self.catalog.ids, self.effective_scale().terms()
        return tuple(
            ExpertResponses(expert_id, JudgmentView(ids, terms, codes))
            for expert_id, codes in zip(self.expert_ids, self.terms)
        )

    def effective_scale(self) -> LinguisticScale:
        return self.scale if self.scale is not None else DEFAULT_SCALE

    def to_panel(self) -> FuzzyAssessmentPanel:
        """The judgments as a fuzzy panel; it shares this document's tensor."""
        triples = tuple(tfn for _, tfn in self.effective_scale().entries)
        return FuzzyAssessmentPanel(catalog=self.catalog, triples=triples, terms=self.terms)

    def __eq__(self, other):
        if not isinstance(other, SurveyDocument):
            return NotImplemented
        return (self.catalog, self.scale, self.expert_ids) == (
            other.catalog,
            other.scale,
            other.expert_ids,
        ) and np.array_equal(self.terms, other.terms)


#: The byte of NO_JUDGMENT in the int8 tensor's buffer.
_NO_JUDGMENT_BYTE = NO_JUDGMENT & 0xFF


def _term_code(label, codes: dict, expert_id: str) -> int:
    """Code of a label not yet in codes (another spelling, or not a term
    at all); a spelling that resolves is added to codes."""
    term = LinguisticTerm.from_label(label)
    code = codes.get(term.value)
    if code is None:
        raise UnknownTerm(f"expert {expert_id!r} uses term {label!r} which the scale does not define")
    codes[label] = code
    return code


def parse_survey(data: TextSource) -> SurveyDocument:
    """Parse and validate a survey JSON document.

    Raises MalformedDocument for syntax/shape problems, UnknownFactor,
    SelfJudgment, DuplicateJudgment, UnknownTerm for bad judgments, and
    MissingJudgment when an expert's coverage is incomplete.
    """
    text = _decode(data, "survey document")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise MalformedDocument(f"survey document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedDocument("survey document must be a JSON object")
    if not isinstance(doc.get("factors"), list):
        raise MalformedDocument('survey document needs a "factors" list')
    if not isinstance(doc.get("experts"), list):
        raise MalformedDocument('survey document needs an "experts" list')
    if not doc["experts"]:
        raise MalformedDocument("a survey needs at least one expert")

    pairs = []
    for item in doc["factors"]:
        if not (isinstance(item, dict) and isinstance(item.get("id"), str)):
            raise MalformedDocument(f"factor entry {item!r} must be an object with a string id")
        name = item.get("name", item["id"])
        if not isinstance(name, str):
            raise MalformedDocument(f"factor {item['id']!r} has a non-string name")
        pairs.append((item["id"], name))
    if len(pairs) < 2:
        raise MalformedDocument("a survey needs at least two factors")
    ids = [p[0] for p in pairs]
    if len(set(ids)) != len(ids):
        raise MalformedDocument(f"duplicate factor ids: {sorted({i for i in ids if ids.count(i) > 1})}")
    catalog = FactorCatalog.from_pairs(pairs)

    scale = None
    if doc.get("scale") is not None:
        try:
            scale = LinguisticScale.from_mapping(doc["scale"])
        except (InvalidScale, InvalidFuzzyNumber) as exc:
            raise MalformedDocument(f"invalid custom scale: {exc}") from None
    effective = scale if scale is not None else DEFAULT_SCALE
    # label -> term code, seeded with the scale's own labels
    codes = {term.value: code for code, term in enumerate(effective.terms())}

    n = catalog.n
    expected = n * (n - 1)
    index = {fid: i for i, fid in enumerate(ids)}
    # the (K, N, N) int8 tensor, filled in place; unset cells keep NO_JUDGMENT
    tensor = bytearray([_NO_JUDGMENT_BYTE]) * (len(doc["experts"]) * n * n)
    expert_ids = []
    seen_experts = set()
    for k, entry in enumerate(doc["experts"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)):
            raise MalformedDocument(f"expert entry {entry!r} must be an object with a string id")
        expert_id = entry["id"]
        if expert_id in seen_experts:
            raise MalformedDocument(f"duplicate expert id {expert_id!r}")
        seen_experts.add(expert_id)
        if not isinstance(entry.get("judgments"), list):
            raise MalformedDocument(f"expert {expert_id!r} needs a judgments list")
        base = k * n * n
        for j in entry["judgments"]:
            if not (isinstance(j, dict) and "from" in j and "to" in j and "term" in j):
                raise MalformedDocument(f"judgment {j!r} of expert {expert_id!r} must carry from, to, term")
            src, dst = j["from"], j["to"]
            if not (isinstance(src, str) and isinstance(dst, str)):
                raise MalformedDocument(f"judgment {j!r} of expert {expert_id!r} must name factors by string id")
            row = index.get(src)
            if row is None:
                raise UnknownFactor(f"expert {expert_id!r} references unknown factor {src!r}")
            col = index.get(dst)
            if col is None:
                raise UnknownFactor(f"expert {expert_id!r} references unknown factor {dst!r}")
            if row == col:
                raise SelfJudgment(f"expert {expert_id!r} judges {src!r} against itself")
            cell = base + row * n + col
            if tensor[cell] != _NO_JUDGMENT_BYTE:
                raise DuplicateJudgment(f"expert {expert_id!r} rates ({src!r} -> {dst!r}) more than once")
            label = j["term"]
            try:
                code = codes[label]
            except (KeyError, TypeError):  # another spelling, or not a string
                code = _term_code(label, codes, expert_id)
            tensor[cell] = code
        covered = len(entry["judgments"])
        if covered != expected:
            missing = next(
                (s, t)
                for s in range(n)
                for t in range(n)
                if s != t and tensor[base + s * n + t] == _NO_JUDGMENT_BYTE
            )
            raise MissingJudgment(
                f"expert {expert_id!r} covers {covered} of {expected} pairs; "
                f"first missing: ({ids[missing[0]]} -> {ids[missing[1]]})"
            )
        expert_ids.append(expert_id)

    terms = np.frombuffer(bytes(tensor), dtype=np.int8).reshape(len(expert_ids), n, n)
    return SurveyDocument(catalog=catalog, scale=scale, expert_ids=tuple(expert_ids), terms=terms)


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
    try:
        rows = [row for row in csv.reader(StringIO(text)) if row]
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise MalformedDocument(f"matrix document is not valid CSV: {exc}") from None
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


@dataclass(frozen=True, eq=False)
class CaseStudyFixture:
    """The embedded 29-factor case study: inputs and expected outputs.

    expected holds the printed score table, grouped by printed relation
    sign, so it can stand anywhere a computed result can.
    """

    direct: DirectRelationMatrix
    expected_total: np.ndarray
    expected: DematelResult


def _data_text(name: str) -> str:
    return resources.files("fdematel").joinpath("data", name).read_text(encoding="utf-8")


def load_case_study() -> CaseStudyFixture:
    """Load the embedded direct-relation, total-relation and score tables."""
    direct = parse_crisp_matrix(_data_text("table5.csv"))
    total = parse_crisp_matrix(_data_text("table6.csv"))
    scores = []
    for row in csv.DictReader(StringIO(_data_text("table7.csv"))):
        values = {key: float(row[key]) for key in ("r", "c", "prominence", "relation")}
        group = Group.CAUSE if values["relation"] > 0 else Group.EFFECT
        scores.append(FactorScore(id=row["id"], name=row["name"], group=group, **values))
    ids = tuple(s.id for s in scores)
    assert direct.catalog.ids == total.catalog.ids == ids, "fixture tables disagree on factor order"
    catalog = FactorCatalog.from_pairs([(s.id, s.name) for s in scores])
    return CaseStudyFixture(
        direct=DirectRelationMatrix(direct.entries, catalog),
        expected_total=total.entries,
        expected=DematelResult(tuple(scores)),
    )
