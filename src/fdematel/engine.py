"""Crisp DEMATEL engine.

Pipeline: direct-relation matrix A -> normalized matrix D (divide by the
maximum row sum) -> total-relation matrix T = D(I - D)^-1 -> per-factor
influence scores -> cause/effect groups and critical success factors.

T is obtained by solving (I - D)^T X^T = D^T against an LU factorization
with partial pivoting, never by forming the inverse explicitly.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .errors import (
    KExceedsCauseGroup,
    NegativeEntry,
    NonNumericField,
    NonSquare,
    SingularSystem,
    ZeroMatrix,
)

#: An LU pivot below this magnitude marks (I - D) as singular. This happens
#: when all row sums of A are equal, which drives the spectral radius of D
#: to exactly 1.
SINGULAR_PIVOT_TOL = 1e-12

#: Classification threshold: a factor is a net cause only when its relation
#: score exceeds this, so exact zeros land in the effect group.
CAUSE_TIE_EPS = 1e-9

#: Relations inside this band are flagged near-neutral: the sign is within
#: the rounding noise of survey-derived inputs and should not be over-read.
NEAR_NEUTRAL_BAND = 0.05


@dataclass(frozen=True)
class Factor:
    id: str
    name: str


@dataclass(frozen=True)
class FactorCatalog:
    """Ordered factor list; the order is shared by every matrix in a run."""

    factors: Tuple[Factor, ...]

    def __post_init__(self):
        ids = [f.id for f in self.factors]
        if len(ids) < 2:
            raise ValueError("a factor catalog needs at least two factors")
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate factor ids: {dupes}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, str]]) -> "FactorCatalog":
        return cls(tuple(Factor(i, n) for i, n in pairs))

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "FactorCatalog":
        return cls(tuple(Factor(i, i) for i in ids))

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def ids(self) -> Tuple[str, ...]:
        return tuple(f.id for f in self.factors)


def _as_readonly_array(entries) -> np.ndarray:
    arr = np.array(entries, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DirectRelationMatrix:
    """Crisp square matrix A; entry (i, j) is the influence of i on j."""

    entries: np.ndarray
    catalog: FactorCatalog

    def __post_init__(self):
        arr = _as_readonly_array(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NonSquare(f"direct-relation matrix must be square, got shape {arr.shape}")
        if arr.shape[0] != self.catalog.n:
            raise NonSquare(
                f"matrix is {arr.shape[0]}x{arr.shape[1]} but the catalog lists {self.catalog.n} factors"
            )
        if not np.all(np.isfinite(arr)):
            raise NonNumericField("direct-relation matrix contains non-finite entries")
        if np.any(arr < 0):
            i, j = np.argwhere(arr < 0)[0]
            raise NegativeEntry(
                f"negative influence {arr[i, j]} at ({self.catalog.ids[i]}, {self.catalog.ids[j]})"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.catalog.n

    def with_zero_diagonal(self) -> "DirectRelationMatrix":
        """Copy with self-influence entries forced to zero."""
        arr = self.entries.copy()
        np.fill_diagonal(arr, 0.0)
        return DirectRelationMatrix(arr, self.catalog)

    def row_sums(self) -> Tuple[float, ...]:
        # exact sums, so the maximum is stable under factor reordering
        return tuple(math.fsum(row) for row in self.entries)


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """Matrix D = A / s where s is the maximum row sum of A."""

    entries: np.ndarray
    scale_factor: float = 1.0

    def __post_init__(self):
        arr = _as_readonly_array(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NonSquare(f"normalized matrix must be square, got shape {arr.shape}")
        if np.any(arr < 0) or np.any(arr > 1.0 + 1e-12):
            raise ValueError("normalized entries must lie in [0, 1]")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class TotalRelationMatrix:
    """Matrix T capturing direct plus all indirect influence paths."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_readonly_array(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NonSquare(f"total-relation matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonNumericField("total-relation matrix contains non-finite entries")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row_sums(self) -> Tuple[float, ...]:
        return tuple(math.fsum(row) for row in self.entries)

    def col_sums(self) -> Tuple[float, ...]:
        return tuple(math.fsum(col) for col in self.entries.T)


class Group(Enum):
    CAUSE = "Cause"
    EFFECT = "Effect"


class CsfRule(Enum):
    """How to extract critical success factors from a scored result."""

    CAUSE_GROUP = "cause-group"
    TOP_K_BY_PROMINENCE_WITHIN_CAUSE = "top-k-prominence"


@dataclass(frozen=True)
class FactorScore:
    id: str
    name: str
    r: float
    c: float
    prominence: float
    relation: float
    group: Group

    @property
    def near_neutral(self) -> bool:
        return abs(self.relation) < NEAR_NEUTRAL_BAND


@dataclass(frozen=True)
class DematelResult:
    """Per-factor scores in catalog order."""

    scores: Tuple[FactorScore, ...]

    def by_id(self, factor_id: str) -> FactorScore:
        for s in self.scores:
            if s.id == factor_id:
                return s
        raise KeyError(factor_id)


def normalize(a: DirectRelationMatrix) -> NormalizedMatrix:
    """Divide A by its maximum row sum.

    Raises ZeroMatrix when every entry is zero (the divisor would vanish).
    """
    sums = a.row_sums()
    s = max(sums)
    if s <= 0.0:
        raise ZeroMatrix("cannot normalize an all-zero direct-relation matrix")
    return NormalizedMatrix(a.entries / s, scale_factor=s)


def total_relation(d: NormalizedMatrix) -> TotalRelationMatrix:
    """Solve T = D(I - D)^-1 via an LU factorization of (I - D)^T.

    Raises SingularSystem when a pivot magnitude falls below
    SINGULAR_PIVOT_TOL, the operational signal that the spectral radius of
    D has reached 1.
    """
    n = d.n
    system = np.eye(n) - d.entries
    with warnings.catch_warnings():
        # scipy warns on exactly-zero pivots; we detect them ourselves below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(system.T)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < SINGULAR_PIVOT_TOL:
        raise SingularSystem(
            "I - D is numerically singular (spectral radius of D reached 1; "
            "this happens when all row sums of the direct-relation matrix are equal)"
        )
    t = lu_solve((lu, piv), d.entries.T).T
    return TotalRelationMatrix(t)


def compute_scores(t: TotalRelationMatrix, catalog: FactorCatalog) -> DematelResult:
    """Row/column sums of T and the derived prominence/relation scores.

    relation > CAUSE_TIE_EPS puts a factor in the cause group; anything
    else, including an exact zero, lands in the effect group.
    """
    if t.n != catalog.n:
        raise NonSquare(f"matrix is {t.n}x{t.n} but the catalog lists {catalog.n} factors")
    r = t.row_sums()
    c = t.col_sums()
    scores = []
    for i, factor in enumerate(catalog.factors):
        relation = r[i] - c[i]
        group = Group.CAUSE if relation > CAUSE_TIE_EPS else Group.EFFECT
        scores.append(
            FactorScore(
                id=factor.id,
                name=factor.name,
                r=r[i],
                c=c[i],
                prominence=r[i] + c[i],
                relation=relation,
                group=group,
            )
        )
    return DematelResult(tuple(scores))


def extract_csf(
    result: DematelResult,
    rule: CsfRule = CsfRule.CAUSE_GROUP,
    k: Optional[int] = None,
) -> Tuple[str, ...]:
    """Ordered ids of the critical success factors.

    CAUSE_GROUP returns every cause-group factor, strongest relation first.
    TOP_K_BY_PROMINENCE_WITHIN_CAUSE returns the k cause-group factors of
    largest prominence. Ties keep catalog order (sorted() is stable and the
    scores arrive in catalog order).
    """
    cause = [s for s in result.scores if s.group is Group.CAUSE]
    if rule is CsfRule.CAUSE_GROUP:
        return tuple(s.id for s in sorted(cause, key=lambda s: -s.relation))
    if rule is CsfRule.TOP_K_BY_PROMINENCE_WITHIN_CAUSE:
        if k is None:
            raise ValueError("the top-k rule requires k")
        if k > len(cause):
            raise KExceedsCauseGroup(f"k={k} exceeds the cause-group size {len(cause)}")
        ranked = sorted(cause, key=lambda s: -s.prominence)
        return tuple(s.id for s in ranked[:k])
    raise ValueError(f"unknown CSF rule {rule!r}")


def analyze(direct: DirectRelationMatrix) -> Tuple[NormalizedMatrix, TotalRelationMatrix, DematelResult]:
    """Run the full crisp pipeline on a direct-relation matrix."""
    d = normalize(direct)
    t = total_relation(d)
    return d, t, compute_scores(t, direct.catalog)
