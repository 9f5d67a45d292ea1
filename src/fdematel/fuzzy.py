"""Triangular fuzzy numbers and the five-term linguistic judgment scale.

All values are immutable; every operation is a pure function, so anything
here can be shared freely across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Tuple

from .errors import InvalidFuzzyNumber, InvalidScale, UnknownTerm


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """A fuzzy quantity (l, m, r): support bounds around a modal value m."""

    l: float
    m: float
    r: float

    def __post_init__(self):
        for v in (self.l, self.m, self.r):
            if not math.isfinite(v):
                raise InvalidFuzzyNumber(f"non-finite component in ({self.l}, {self.m}, {self.r})")
        if not (self.l <= self.m <= self.r):
            raise InvalidFuzzyNumber(f"components must satisfy l <= m <= r, got ({self.l}, {self.m}, {self.r})")

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.l, self.m, self.r)


class LinguisticTerm(Enum):
    """The five verbal effect judgments, weakest to strongest."""

    NO_EFFECT = "no effect"
    LITTLE_EFFECT = "little effect"
    MEDIUM_EFFECT = "medium effect"
    HIGH_EFFECT = "high effect"
    VERY_HIGH_EFFECT = "very high effect"

    @classmethod
    def from_label(cls, text: str) -> "LinguisticTerm":
        """Map a verbal label to its term, case-insensitively."""
        key = " ".join(str(text).split()).casefold()
        for term in cls:
            if term.value == key:
                return term
        raise UnknownTerm(f"unknown linguistic term {text!r}")


#: Default correspondence of verbal judgments to fuzzy triples.
DEFAULT_SCALE_TRIPLES = {
    LinguisticTerm.NO_EFFECT: (0.0, 0.0, 0.25),
    LinguisticTerm.LITTLE_EFFECT: (0.0, 0.25, 0.5),
    LinguisticTerm.MEDIUM_EFFECT: (0.25, 0.5, 0.75),
    LinguisticTerm.HIGH_EFFECT: (0.5, 0.75, 1.0),
    LinguisticTerm.VERY_HIGH_EFFECT: (0.75, 1.0, 1.0),
}

_TERM_ORDER = {term: i for i, term in enumerate(LinguisticTerm)}


@dataclass(frozen=True)
class LinguisticScale:
    """Ordered mapping of linguistic terms to triangular fuzzy numbers.

    Custom scales may cover a subset of the five terms, but the modes of the
    covered terms must be strictly increasing in term order.
    """

    entries: Tuple[Tuple[LinguisticTerm, TriangularFuzzyNumber], ...]

    def __post_init__(self):
        if not self.entries:
            raise InvalidScale("scale has no entries")
        seen = set()
        for term, tfn in self.entries:
            if not isinstance(term, LinguisticTerm):
                raise InvalidScale(f"scale key {term!r} is not a LinguisticTerm")
            if not isinstance(tfn, TriangularFuzzyNumber):
                raise InvalidScale(f"scale value for {term.value!r} is not a TriangularFuzzyNumber")
            if term in seen:
                raise InvalidScale(f"duplicate scale entry for {term.value!r}")
            seen.add(term)
        ordered = sorted(self.entries, key=lambda kv: _TERM_ORDER[kv[0]])
        if [kv[0] for kv in ordered] != [kv[0] for kv in self.entries]:
            object.__setattr__(self, "entries", tuple(ordered))
        modes = [tfn.m for _, tfn in self.entries]
        if any(b <= a for a, b in zip(modes, modes[1:])):
            raise InvalidScale(f"scale modes must be strictly increasing in term order, got {modes}")

    @classmethod
    def default(cls) -> "LinguisticScale":
        return cls(tuple((t, TriangularFuzzyNumber(*v)) for t, v in DEFAULT_SCALE_TRIPLES.items()))

    @classmethod
    def from_mapping(cls, spec: Mapping) -> "LinguisticScale":
        """Build a scale from a {"terms": [{"label", "l", "m", "r"}, ...]} object."""
        if not isinstance(spec, Mapping) or "terms" not in spec:
            raise InvalidScale('scale object must contain a "terms" list')
        raw = spec["terms"]
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise InvalidScale('"terms" must be a list of term objects')
        entries = []
        for item in raw:
            if not isinstance(item, Mapping) or not {"label", "l", "m", "r"} <= set(item):
                raise InvalidScale(f"scale term entry {item!r} must carry label, l, m, r")
            term = LinguisticTerm.from_label(item["label"])
            try:
                triple = (float(item["l"]), float(item["m"]), float(item["r"]))
            except (TypeError, ValueError, OverflowError):
                raise InvalidScale(f"non-numeric component in scale entry for {item['label']!r}") from None
            entries.append((term, TriangularFuzzyNumber(*triple)))
        return cls(tuple(entries))

    def terms(self) -> Tuple[LinguisticTerm, ...]:
        return tuple(t for t, _ in self.entries)

    def triple_for(self, term: LinguisticTerm) -> TriangularFuzzyNumber:
        for t, tfn in self.entries:
            if t is term:
                return tfn
        raise UnknownTerm(f"term {term.value!r} is absent from this scale")

    def to_mapping(self) -> dict:
        return {
            "terms": [
                {"label": term.value, "l": tfn.l, "m": tfn.m, "r": tfn.r}
                for term, tfn in self.entries
            ]
        }


DEFAULT_SCALE = LinguisticScale.default()
