"""Defuzzification tests: engine vs the independent step-by-step oracle."""
import math

import numpy as np
import pytest

from fdematel import (
    DefuzzMode,
    FactorCatalog,
    FuzzyAssessmentPanel,
    TriangularFuzzyNumber,
    cfcs_cell,
    defuzzify_matrix,
)
from fdematel.cfcs import NO_JUDGMENT
from fdematel.errors import EmptyPanel, MissingJudgment, RaggedPanel, UnknownTerm

from cfcs_oracle import centroid_of, cfcs_steps
from conftest import random_panel, random_tfn

T = TriangularFuzzyNumber


def assert_matches_oracle(samples):
    """cfcs_cell equals the oracle bit for bit, step by step."""
    trace = cfcs_cell([T(*s) for s in samples])
    expected = cfcs_steps(samples)
    assert trace.delta == expected["delta"]
    assert trace.crisp == expected["crisp"]
    assert len(trace.experts) == len(expected["experts"])
    for got, want in zip(trace.experts, expected["experts"]):
        assert (got.xl, got.xm, got.xr, got.xls, got.xrs, got.x, got.bnp) == want


def test_single_symmetric_triangle_yields_its_mode():
    trace = cfcs_cell([T(0.25, 0.5, 0.75)])
    assert trace.crisp == pytest.approx(0.5, abs=1e-9)
    assert_matches_oracle([(0.25, 0.5, 0.75)])


def test_two_expert_example():
    trace = cfcs_cell([T(0, 0.25, 0.5), T(0.5, 0.75, 1)])
    assert trace.experts[0].bnp == pytest.approx(0.26666666666666666, abs=1e-9)
    assert trace.experts[1].bnp == pytest.approx(0.7333333333333333, abs=1e-9)
    assert trace.crisp == pytest.approx(0.5, abs=1e-9)
    assert_matches_oracle([(0, 0.25, 0.5), (0.5, 0.75, 1)])


def test_degenerate_point_panel():
    trace = cfcs_cell([T(0.4, 0.4, 0.4)] * 3)
    assert trace.crisp == 0.4
    assert trace.delta == 0.0
    for e in trace.experts:
        assert (e.xl, e.xm, e.xr, e.xls, e.xrs, e.x, e.bnp) == (0,) * 7


def test_empty_panel_rejected():
    with pytest.raises(EmptyPanel):
        cfcs_cell(())
    with pytest.raises(EmptyPanel):
        cfcs_cell([])


def test_discrimination_over_centroid():
    skewed = (0, 0.25, 0.95)
    symmetric = (0.1, 0.4, 0.7)
    assert centroid_of(skewed) == pytest.approx(0.4)
    assert centroid_of(symmetric) == pytest.approx(0.4)
    a = cfcs_cell([T(*skewed)]).crisp
    b = cfcs_cell([T(*symmetric)]).crisp
    assert a == pytest.approx(0.34488636363636365, abs=1e-9)
    assert b == pytest.approx(0.4, abs=1e-9)
    assert abs(a - b) > 0.05


def test_random_panels_match_oracle():
    rng = np.random.default_rng(101)
    for _ in range(300):
        samples = [t.as_tuple() for t in random_panel(rng, lo=-2.0, hi=5.0)]
        assert_matches_oracle(samples)


def test_trace_fields_stay_in_bounds():
    rng = np.random.default_rng(103)
    for _ in range(300):
        panel = random_panel(rng, lo=-3.0, hi=3.0)
        trace = cfcs_cell(panel)
        assert trace.delta >= 0
        lo = min(t.l for t in panel)
        hi = max(t.r for t in panel)
        assert lo - 1e-12 <= trace.crisp <= hi + 1e-12
        for e in trace.experts:
            for field in (e.xl, e.xm, e.xr, e.xls, e.xrs, e.x):
                assert -1e-12 <= field <= 1 + 1e-12


def test_symmetric_triangles_are_fixed_points():
    rng = np.random.default_rng(107)
    for _ in range(100):
        m = float(rng.uniform(-2, 2))
        half = float(rng.uniform(0.01, 3))
        trace = cfcs_cell([T(m - half, m, m + half)])
        assert trace.crisp == pytest.approx(m, abs=1e-9)


def test_translation_equivariance():
    rng = np.random.default_rng(109)
    for _ in range(100):
        panel = random_panel(rng)
        shift = float(rng.uniform(-10, 10))
        base = cfcs_cell(panel).crisp
        moved = cfcs_cell([T(t.l + shift, t.m + shift, t.r + shift) for t in panel]).crisp
        assert moved == pytest.approx(base + shift, abs=1e-9)


def test_positive_scaling_equivariance():
    rng = np.random.default_rng(113)
    for _ in range(100):
        panel = random_panel(rng)
        s = float(rng.uniform(0.01, 50))
        base = cfcs_cell(panel).crisp
        scaled = cfcs_cell([T(t.l * s, t.m * s, t.r * s) for t in panel]).crisp
        assert scaled == pytest.approx(base * s, rel=1e-9)


def test_expert_order_does_not_change_crisp():
    rng = np.random.default_rng(127)
    for _ in range(100):
        panel = random_panel(rng, k=int(rng.integers(2, 8)))
        base = cfcs_cell(panel).crisp
        order = rng.permutation(len(panel))
        shuffled = cfcs_cell([panel[i] for i in order]).crisp
        assert shuffled == base  # bit-identical, the mean is order-exact


def two_factor_catalog():
    return FactorCatalog.from_ids(["F1", "F2"])


def codes(*experts):
    """Term-code tensor from per-expert nested lists; None is NO_JUDGMENT."""
    return np.array(
        [[[NO_JUDGMENT if c is None else c for c in row] for row in grid] for grid in experts],
        dtype=np.int8,
    )


def reference_defuzzify(triples, terms, mode):
    """Per-cell loop over the independent oracle: the reference that
    defuzzify_matrix must match byte for byte. Aggregate mode takes the
    mean triple as math.fsum / K per component."""
    k, n, _ = terms.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cell = [triples[terms[e, i, j]].as_tuple() for e in range(k)]
            if mode is DefuzzMode.AGGREGATE_THEN_DEFUZZIFY:
                cell = [tuple(math.fsum(s[c] for s in cell) / k for c in range(3))]
            out[i, j] = cfcs_steps(cell)["crisp"]
    return out


def random_palette(rng):
    """Distinct triples, some of them points (delta = 0 when a cell's
    experts all pick the same point)."""
    palette = []
    while len(palette) < int(rng.integers(1, 9)):
        tfn = random_tfn(rng, lo=0.0, hi=3.0)
        if rng.random() < 0.2:
            tfn = T(tfn.m, tfn.m, tfn.m)
        if tfn not in palette:
            palette.append(tfn)
    return tuple(palette)


def random_terms(rng, palette_size, k, n):
    terms = rng.integers(0, palette_size, size=(k, n, n)).astype(np.int8)
    idx = np.arange(n)
    terms[:, idx, idx] = NO_JUDGMENT
    return terms


def test_defuzzify_matrix_is_bit_identical_to_the_per_cell_loop():
    rng = np.random.default_rng(137)
    for trial in range(60):
        triples = random_palette(rng)
        k = 1 if trial % 6 == 0 else int(rng.integers(1, 13))
        n = int(rng.integers(2, 8))
        terms = random_terms(rng, len(triples), k, n)
        catalog = FactorCatalog.from_ids([f"F{i}" for i in range(n)])
        shuffled = terms[rng.permutation(k)]
        for mode in DefuzzMode:
            want = reference_defuzzify(triples, terms, mode).tobytes()
            got = defuzzify_matrix(FuzzyAssessmentPanel(catalog, triples, terms), mode)
            assert got.entries.tobytes() == want
            permuted = defuzzify_matrix(FuzzyAssessmentPanel(catalog, triples, shuffled), mode)
            assert permuted.entries.tobytes() == want


def test_defuzzify_matrix_matches_the_oracle():
    rng = np.random.default_rng(139)
    for _ in range(20):
        triples = random_palette(rng)
        k, n = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        terms = random_terms(rng, len(triples), k, n)
        catalog = FactorCatalog.from_ids([f"F{i}" for i in range(n)])
        panel = FuzzyAssessmentPanel(catalog, triples, terms)
        per_expert = defuzzify_matrix(panel, DefuzzMode.PER_EXPERT_BNP).entries
        aggregate = defuzzify_matrix(panel, DefuzzMode.AGGREGATE_THEN_DEFUZZIFY).entries
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                cell = [triples[c].as_tuple() for c in terms[:, i, j]]
                mean = tuple(sum(s[c] for s in cell) / k for c in range(3))
                assert per_expert[i, j] == pytest.approx(cfcs_steps(cell)["crisp"], abs=1e-12)
                assert aggregate[i, j] == pytest.approx(cfcs_steps([mean])["crisp"], abs=1e-12)


def test_defuzzify_single_expert_matrix():
    medium = T(0.25, 0.5, 0.75)
    panel = FuzzyAssessmentPanel(
        catalog=two_factor_catalog(),
        triples=(medium,),
        terms=codes([[None, 0], [0, None]]),
    )
    for mode in DefuzzMode:
        direct = defuzzify_matrix(panel, mode)
        assert direct.entries == pytest.approx(np.array([[0, 0.5], [0.5, 0]]), abs=1e-9)


def test_defuzzify_two_expert_matrix():
    panel = FuzzyAssessmentPanel(
        catalog=two_factor_catalog(),
        triples=(T(0, 0.25, 0.5), T(0.4, 0.4, 0.4), T(0.5, 0.75, 1)),
        terms=codes([[None, 0], [1, None]], [[None, 2], [1, None]]),
    )
    direct = defuzzify_matrix(panel, DefuzzMode.PER_EXPERT_BNP)
    assert direct.entries == pytest.approx(np.array([[0, 0.5], [0.4, 0]]), abs=1e-9)
    # the aggregate path averages the fuzzy triples first; same crisp here
    combined = defuzzify_matrix(panel, DefuzzMode.AGGREGATE_THEN_DEFUZZIFY)
    assert combined.entries == pytest.approx(np.array([[0, 0.5], [0.4, 0]]), abs=1e-9)


def test_aggregate_mode_defuzzifies_the_mean_triple():
    rng = np.random.default_rng(131)
    a, b = random_tfn(rng), random_tfn(rng)
    panel = FuzzyAssessmentPanel(
        catalog=two_factor_catalog(),
        triples=(a, b),
        terms=codes([[None, 0], [0, None]], [[None, 1], [1, None]]),
    )
    direct = defuzzify_matrix(panel, DefuzzMode.AGGREGATE_THEN_DEFUZZIFY)
    mean = tuple((x + y) / 2 for x, y in zip(a.as_tuple(), b.as_tuple()))
    assert direct.entries[0, 1] == pytest.approx(cfcs_steps([mean])["crisp"], abs=1e-9)


def test_aggregate_mode_of_identical_experts_is_that_triple():
    rng = np.random.default_rng(13)
    for k in (1, 2, 7, 50):
        a = random_tfn(rng)
        panel = FuzzyAssessmentPanel(
            catalog=two_factor_catalog(),
            triples=(a,),
            terms=codes(*[[[None, 0], [0, None]]] * k),
        )
        direct = defuzzify_matrix(panel, DefuzzMode.AGGREGATE_THEN_DEFUZZIFY).entries
        want = cfcs_steps([a.as_tuple()])["crisp"]
        assert direct[0, 1] == pytest.approx(want, abs=1e-12, rel=0)
        assert direct[1, 0] == pytest.approx(want, abs=1e-12, rel=0)


def test_missing_judgment_is_located():
    panel = FuzzyAssessmentPanel(
        catalog=two_factor_catalog(),
        triples=(T(0, 0.25, 0.5), T(0.4, 0.4, 0.4), T(0.5, 0.75, 1)),
        terms=codes([[None, 0], [1, None]], [[None, 2], [None, None]]),
    )
    with pytest.raises(MissingJudgment, match=r"expert #2.*F2.*F1"):
        defuzzify_matrix(panel)


def test_ragged_grid_rejected():
    panel = FuzzyAssessmentPanel(
        catalog=two_factor_catalog(),
        triples=(T(0, 0.25, 0.5),),
        terms=codes([[None, 0]]),
    )
    with pytest.raises(RaggedPanel):
        defuzzify_matrix(panel)


def test_term_code_past_the_triples_rejected():
    panel = FuzzyAssessmentPanel(
        catalog=two_factor_catalog(),
        triples=(T(0, 0.25, 0.5),),
        terms=codes([[None, 0], [1, None]]),
    )
    with pytest.raises(UnknownTerm):
        defuzzify_matrix(panel)


def test_panel_without_experts_rejected():
    panel = FuzzyAssessmentPanel(
        catalog=two_factor_catalog(),
        triples=(T(0, 0.25, 0.5),),
        terms=np.zeros((0, 2, 2), dtype=np.int8),
    )
    with pytest.raises(EmptyPanel):
        defuzzify_matrix(panel)


def test_diagonal_samples_are_ignored():
    medium = T(0.25, 0.5, 0.75)
    strong = T(0.75, 1, 1)
    panel = FuzzyAssessmentPanel(
        catalog=two_factor_catalog(),
        triples=(medium, strong),
        terms=codes([[1, 0], [0, 1]]),
    )
    direct = defuzzify_matrix(panel)
    assert direct.entries[0, 0] == 0.0
    assert direct.entries[1, 1] == 0.0
