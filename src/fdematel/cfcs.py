"""CFCS defuzzification: fuzzy judgment panels to crisp influence values.

One array function (_cfcs) holds the formula. It runs over many cell panels
at once for defuzzify_matrix and over a single panel for cfcs_cell, whose
complete trace (standardized components, normalized left/right scores,
total score, per-expert BNP) lets a reported crisp value be audited step by
step.

Standardization subtracts the panel minimum of the left bounds from all
three components; min/max run over the experts of one cell only.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

import numpy as np

from .engine import DirectRelationMatrix, FactorCatalog, exact_sums
from .errors import EmptyPanel, MissingJudgment, NonNumericField, RaggedPanel, UnknownTerm
from .fuzzy import TriangularFuzzyNumber


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


def _mean(values: np.ndarray) -> np.ndarray:
    """Correctly rounded column means of a (K, M) array; being exact sums,
    they do not depend on the order of the K rows."""
    try:
        return np.array(exact_sums(values, axis=0)) / len(values)
    except NonNumericField:
        raise NonNumericField("a cell's defuzzified value is not a finite float") from None


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # masked or raised below
def _cfcs(l: np.ndarray, m: np.ndarray, r: np.ndarray):
    """CFCS over (K, M) arrays: one row per expert, one column per panel.

    Returns delta and the crisp values, each of shape (M,), and the
    (7, K, M) stack of per-expert steps xl, xm, xr, xls, xrs, x, bnp.
    A panel whose experts all gave the same point (delta = 0) is a valid
    survey, not an error: its crisp value is that point, and its steps are
    zero by convention.
    """
    left = l.min(axis=0)
    delta = r.max(axis=0) - left
    xl = (l - left) / delta
    xm = (m - left) / delta
    xr = (r - left) / delta
    xls = xm / (1.0 + xm - xl)
    xrs = xr / (1.0 + xr - xm)
    x = (xls * (1.0 - xls) + xrs * xrs) / (1.0 - xls + xrs)
    bnp = left + x * delta
    point = delta == 0.0
    steps = np.where(point, 0.0, np.stack((xl, xm, xr, xls, xrs, x, bnp)))
    return delta, steps, np.where(point, left, _mean(steps[6]))


def cfcs_cell(samples: Sequence[TriangularFuzzyNumber]) -> CfcsTrace:
    """Defuzzify one cell's expert panel, one judgment per expert."""
    if not samples:
        raise EmptyPanel("a cell panel needs at least one expert judgment")
    delta, steps, crisp = _cfcs(*np.array([s.as_tuple() for s in samples]).T[:, :, None])
    experts = tuple(ExpertTrace(*row) for row in steps[:, :, 0].T.tolist())
    return CfcsTrace(delta=float(delta[0]), experts=experts, crisp=float(crisp[0]))


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

    The formula runs once per distinct multiset of expert judgments, not
    once per cell, all multisets in one array call: its result does not
    depend on expert order (min, max and an exact sum), so cells whose
    sorted term codes agree get the same bits.
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
    # (3, K, M): l, m and r of each expert's judgment in each distinct multiset
    lmr = np.array([t.as_tuple() for t in triples]).T[:, rows[first].T]
    if mode is DefuzzMode.PER_EXPERT_BNP:
        _, _, crisp = _cfcs(*lmr)
    elif mode is DefuzzMode.AGGREGATE_THEN_DEFUZZIFY:
        # the componentwise mean triples, as a panel of one expert each
        _, _, crisp = _cfcs(*_mean(np.hstack(lmr)).reshape(3, 1, -1))
    else:
        raise ValueError(f"unknown defuzzification mode {mode!r}")
    out = np.zeros((n, n))
    out[off] = crisp[inverse.reshape(-1)]
    return DirectRelationMatrix(out, panel.catalog)
