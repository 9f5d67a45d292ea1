"""Fuzzy DEMATEL: linguistic expert judgments to cause-effect factor analysis.

The pipeline: parse a survey (or a crisp matrix), defuzzify fuzzy judgment
panels into a direct-relation matrix, normalize it, solve for the
total-relation matrix, score every factor by prominence and relation, and
extract the critical success factors from the cause group.
"""
from ._version import __version__
from .cfcs import (
    DefuzzMode,
    FuzzyAssessmentPanel,
    cfcs_cell,
    defuzzify_matrix,
)
from .engine import (
    DematelResult,
    DirectRelationMatrix,
    FactorCatalog,
    FactorScore,
    Group,
    NormalizedMatrix,
    TotalRelationMatrix,
    analyze,
    compute_scores,
    extract_csf,
    normalize,
    total_relation,
)
from .fuzzy import (
    DEFAULT_SCALE,
    LinguisticScale,
    LinguisticTerm,
    TriangularFuzzyNumber,
    fuzzy_mean,
)
from .io import (
    SurveyDocument,
    load_case_study,
    parse_crisp_matrix,
    parse_survey,
    serialize_survey,
)
from .diagram import emit_diagram
from .report import build_report, render_json, render_reproduction, run_reproduction

__all__ = [
    "__version__",
    "DEFAULT_SCALE",
    "DefuzzMode",
    "DematelResult",
    "DirectRelationMatrix",
    "FactorCatalog",
    "FactorScore",
    "FuzzyAssessmentPanel",
    "Group",
    "LinguisticScale",
    "LinguisticTerm",
    "NormalizedMatrix",
    "SurveyDocument",
    "TotalRelationMatrix",
    "TriangularFuzzyNumber",
    "analyze",
    "build_report",
    "cfcs_cell",
    "compute_scores",
    "defuzzify_matrix",
    "emit_diagram",
    "extract_csf",
    "fuzzy_mean",
    "load_case_study",
    "normalize",
    "parse_crisp_matrix",
    "parse_survey",
    "render_json",
    "render_reproduction",
    "run_reproduction",
    "serialize_survey",
    "total_relation",
]
