"""CFCS defuzzification: fuzzy judgment panels to crisp influence values.

The per-cell procedure keeps a complete trace (standardized components,
normalized left/right scores, total score, per-expert BNP) so a reported
crisp value can always be audited step by step.

Standardization subtracts the panel minimum of the left bounds from all
three components; min/max run over the experts of one cell only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

import numpy as np

from .engine import DirectRelationMatrix, FactorCatalog
from .errors import EmptyPanel, MissingJudgment, RaggedPanel, UnknownTerm
from .fuzzy import TriangularFuzzyNumber, fuzzy_mean


@dataclass(frozen=True)
class ExpertTrace:
    """Intermediate values for one expert: standardized components (xl, xm,
    xr), normalized left/right scores (xls, xrs), total score x, and the
    crisp BNP."""

    xl: float
    xm: float
    xr: float
    xls: float
    xrs: float
    x: float
    bnp: float


@dataclass(frozen=True)
class CfcsTrace:
    """Full defuzzification record for one cell."""

    delta: float
    experts: Tuple[ExpertTrace, ...]
    crisp: float


def cfcs_cell(samples: Sequence[TriangularFuzzyNumber]) -> CfcsTrace:
    """Defuzzify one cell's expert panel, one judgment per expert.

    When every expert gave the identical point value (delta = 0) the crisp
    output is that value and all intermediate fields are zero by
    convention; unanimous point judgments are valid surveys, not errors.
    """
    if not samples:
        raise EmptyPanel("a cell panel needs at least one expert judgment")
    left = min(s.l for s in samples)
    right = max(s.r for s in samples)
    delta = right - left
    if delta == 0.0:
        zero = ExpertTrace(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return CfcsTrace(delta=0.0, experts=(zero,) * len(samples), crisp=left)
    traces = []
    for s in samples:
        xl = (s.l - left) / delta
        xm = (s.m - left) / delta
        xr = (s.r - left) / delta
        xls = xm / (1.0 + xm - xl)
        xrs = xr / (1.0 + xr - xm)
        x = (xls * (1.0 - xls) + xrs * xrs) / (1.0 - xls + xrs)
        bnp = left + x * delta
        traces.append(ExpertTrace(xl, xm, xr, xls, xrs, x, bnp))
    # fsum keeps the mean independent of expert order
    crisp = math.fsum(t.bnp for t in traces) / len(samples)
    return CfcsTrace(delta=delta, experts=tuple(traces), crisp=crisp)


class DefuzzMode(Enum):
    """Panel-to-matrix strategies.

    PER_EXPERT_BNP defuzzifies every expert's judgment and averages the
    BNPs (the default). AGGREGATE_THEN_DEFUZZIFY first averages the fuzzy
    judgments componentwise, then defuzzifies the single combined triple.
    """

    PER_EXPERT_BNP = "per-expert"
    AGGREGATE_THEN_DEFUZZIFY = "aggregate"


#: Term code of a cell that holds no judgment (the diagonal).
NO_JUDGMENT = -1


@dataclass(frozen=True, eq=False)
class FuzzyAssessmentPanel:
    """K experts' full N x N fuzzy judgments over a factor catalog.

    terms[k, i, j] is expert k's judgment of factor i on factor j, as an
    index into triples; a negative code (NO_JUDGMENT) marks a cell without
    one. Distinct fuzzy numbers are stored once, so a cell's judgments are
    a few small integers.
    """

    catalog: FactorCatalog
    triples: Tuple[TriangularFuzzyNumber, ...]
    terms: np.ndarray

    @property
    def k(self) -> int:
        return len(self.terms)

    @property
    def n(self) -> int:
        return self.catalog.n


def defuzzify_matrix(
    panel: FuzzyAssessmentPanel,
    mode: DefuzzMode = DefuzzMode.PER_EXPERT_BNP,
) -> DirectRelationMatrix:
    """Collapse a fuzzy assessment panel into a crisp direct-relation matrix.

    Every off-diagonal cell must carry a judgment from every expert;
    diagonal cells are 0 regardless of any judgments present.

    cfcs_cell runs once per distinct multiset of expert judgments, not once
    per cell: its result does not depend on expert order (min, max and an
    exact fsum), so cells whose sorted term codes agree get the same bits.
    """
    if panel.k < 1:
        raise EmptyPanel("assessment panel has no experts")
    n = panel.n
    terms = np.asarray(panel.terms)
    if terms.shape != (panel.k, n, n) or not np.issubdtype(terms.dtype, np.integer):
        raise RaggedPanel(
            f"term tensor is {terms.dtype} of shape {terms.shape}, expected integer codes of shape "
            f"({panel.k}, {n}, {n})"
        )
    off = ~np.eye(n, dtype=bool)
    cells = terms[:, off].T  # one row per off-diagonal cell, one column per expert
    missing = cells < 0
    if missing.any():
        cell, k = np.argwhere(missing)[0]
        i, j = np.argwhere(off)[cell]
        ids = panel.catalog.ids
        raise MissingJudgment(f"expert #{k + 1} gave no judgment for ({ids[i]}, {ids[j]})")
    triples = panel.triples
    if cells.max() >= len(triples):
        raise UnknownTerm(f"term code {cells.max()} is past the panel's {len(triples)} fuzzy numbers")
    # each cell's sorted codes as one raw-bytes key: np.unique over those is
    # about ten times faster than np.unique(axis=0), whose keys are records
    rows = np.ascontiguousarray(np.sort(cells, axis=1))
    keys = rows.view(np.dtype((np.void, rows.itemsize * panel.k))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    multisets = [[triples[c] for c in row] for row in rows[first].tolist()]
    if mode is DefuzzMode.PER_EXPERT_BNP:
        crisp = [cfcs_cell(samples).crisp for samples in multisets]
    elif mode is DefuzzMode.AGGREGATE_THEN_DEFUZZIFY:
        crisp = [cfcs_cell([fuzzy_mean(samples)]).crisp for samples in multisets]
    else:
        raise ValueError(f"unknown defuzzification mode {mode!r}")
    out = np.zeros((n, n))
    out[off] = np.asarray(crisp)[inverse.reshape(-1)]
    return DirectRelationMatrix(out, panel.catalog)
