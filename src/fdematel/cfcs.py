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
from typing import Optional, Sequence, Tuple

import numpy as np

from .engine import DirectRelationMatrix, FactorCatalog
from .errors import EmptyPanel, MissingJudgment, RaggedPanel
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


def centroid(a: TriangularFuzzyNumber) -> float:
    """Centroid defuzzification, (l + m + r) / 3.

    Kept as the baseline CFCS is measured against: distinct fuzzy numbers
    with equal component sums collapse to the same centroid.
    """
    return (a.l + a.m + a.r) / 3.0


class DefuzzMode(Enum):
    """Panel-to-matrix strategies.

    PER_EXPERT_BNP defuzzifies every expert's judgment and averages the
    BNPs (the default). AGGREGATE_THEN_DEFUZZIFY first averages the fuzzy
    judgments componentwise, then defuzzifies the single combined triple.
    """

    PER_EXPERT_BNP = "per-expert"
    AGGREGATE_THEN_DEFUZZIFY = "aggregate"


#: grids[k][i][j]: expert k's judgment of factor i on factor j, or None
#: where no judgment exists (the diagonal).
Grid = Tuple[Tuple[Optional[TriangularFuzzyNumber], ...], ...]


@dataclass(frozen=True)
class FuzzyAssessmentPanel:
    """K experts' full N x N fuzzy judgment grids over a factor catalog."""

    catalog: FactorCatalog
    grids: Tuple[Grid, ...]

    @property
    def k(self) -> int:
        return len(self.grids)

    @property
    def n(self) -> int:
        return self.catalog.n


def defuzzify_matrix(
    panel: FuzzyAssessmentPanel,
    mode: DefuzzMode = DefuzzMode.PER_EXPERT_BNP,
) -> DirectRelationMatrix:
    """Collapse a fuzzy assessment panel into a crisp direct-relation matrix.

    Every off-diagonal cell must carry a judgment from every expert;
    diagonal cells are forced to 0 after defuzzification regardless of any
    samples present.
    """
    if panel.k < 1:
        raise EmptyPanel("assessment panel has no experts")
    n = panel.n
    for k, grid in enumerate(panel.grids):
        if len(grid) != n or any(len(row) != n for row in grid):
            shape = f"{len(grid)}x{max((len(r) for r in grid), default=0)}"
            raise RaggedPanel(f"expert #{k + 1} grid is {shape}, expected {n}x{n}")
    ids = panel.catalog.ids
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cell = []
            for k, grid in enumerate(panel.grids):
                sample = grid[i][j]
                if sample is None:
                    raise MissingJudgment(
                        f"expert #{k + 1} gave no judgment for ({ids[i]}, {ids[j]})"
                    )
                cell.append(sample)
            if mode is DefuzzMode.PER_EXPERT_BNP:
                out[i, j] = cfcs_cell(cell).crisp
            elif mode is DefuzzMode.AGGREGATE_THEN_DEFUZZIFY:
                out[i, j] = cfcs_cell([fuzzy_mean(cell)]).crisp
            else:
                raise ValueError(f"unknown defuzzification mode {mode!r}")
    return DirectRelationMatrix(out, panel.catalog)
