"""DEMATEL engine tests: normalization, total relations, scores, CSFs."""
import math

import numpy as np
import pytest

from fdematel import (
    CsfRule,
    DematelResult,
    DirectRelationMatrix,
    FactorCatalog,
    FactorScore,
    Group,
    NormalizedMatrix,
    analyze,
    compute_scores,
    extract_csf,
    normalize,
    total_relation,
)
from fdematel.errors import (
    KExceedsCauseGroup,
    NegativeEntry,
    NonSquare,
    SingularSystem,
    ZeroMatrix,
)


def drm(entries, ids=None):
    entries = np.asarray(entries, dtype=float)
    if ids is None:
        ids = [f"F{i + 1}" for i in range(entries.shape[0])]
    return DirectRelationMatrix(entries, FactorCatalog.from_ids(ids))


def random_direct(rng, n=None):
    if n is None:
        n = int(rng.integers(2, 13))
    return drm(rng.uniform(0.0, 10.0, size=(n, n)))


def test_direct_matrix_validation():
    with pytest.raises(NegativeEntry):
        drm([[0, -1], [1, 0]])
    with pytest.raises(NonSquare):
        DirectRelationMatrix(np.zeros((2, 3)), FactorCatalog.from_ids(["a", "b"]))
    with pytest.raises(NonSquare):
        DirectRelationMatrix(np.zeros((3, 3)), FactorCatalog.from_ids(["a", "b"]))
    with pytest.raises(ValueError):
        FactorCatalog.from_ids(["a"])
    with pytest.raises(ValueError):
        FactorCatalog.from_ids(["a", "a"])


def test_matrices_are_read_only():
    a = drm([[0, 2], [4, 0]])
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_normalize_examples():
    d = normalize(drm([[0, 2], [4, 0]]))
    assert d.scale_factor == 4.0
    assert d.entries == pytest.approx(np.array([[0, 0.5], [1, 0]]))

    d = normalize(drm([[0, 1], [1, 0]]))
    assert d.scale_factor == 1.0
    assert d.entries == pytest.approx(np.array([[0, 1], [1, 0]]))

    with pytest.raises(ZeroMatrix):
        normalize(drm([[0, 0], [0, 0]]))


def test_normalize_fixture_scale_factor(study):
    # independent summation oracle: add the printed rows one float at a time
    sums = [math.fsum(row) for row in study.direct.entries]
    d = normalize(study.direct)
    assert d.scale_factor == max(sums)
    assert study.direct.catalog.ids[int(np.argmax(sums))] == "X16"
    assert d.scale_factor == pytest.approx(552.77, abs=1e-9)


def test_normalized_matrix_bounds():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = normalize(random_direct(rng))
        assert d.entries.min() >= 0
        assert d.entries.max() <= 1 + 1e-12
        row_sums = [math.fsum(row) for row in d.entries]
        assert max(row_sums) == pytest.approx(1.0, abs=1e-12)
        assert all(s <= 1 + 1e-12 for s in row_sums)


def test_total_relation_of_zero_is_zero():
    t = total_relation(NormalizedMatrix(np.zeros((3, 3))))
    assert t.entries == pytest.approx(np.zeros((3, 3)), abs=0)


def test_total_relation_worked_example():
    d = NormalizedMatrix(np.array([[0, 0.5], [0.5, 0]]))
    t = total_relation(d)
    expected = np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
    assert t.entries == pytest.approx(expected, abs=1e-12)
    # fixed point: T = D + D T
    assert t.entries == pytest.approx(d.entries + d.entries @ t.entries, abs=1e-12)


def test_singular_system_detected():
    # equal row sums normalize to spectral radius 1
    with pytest.raises(SingularSystem):
        total_relation(normalize(drm([[0, 0.5], [0.5, 0]])))
    with pytest.raises(SingularSystem):
        total_relation(normalize(drm(np.ones((4, 4)))))


def test_fixed_point_identity_on_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = normalize(random_direct(rng))
        # shrink away from radius 1 so the solve is well posed
        d = NormalizedMatrix(d.entries * 0.9, scale_factor=d.scale_factor)
        t = total_relation(d)
        residual = np.abs(t.entries - (d.entries + d.entries @ t.entries)).max()
        assert residual < 1e-10


def test_scores_on_worked_example():
    catalog = FactorCatalog.from_ids(["F1", "F2"])
    d = NormalizedMatrix(np.array([[0, 0.5], [0.5, 0]]))
    result = compute_scores(total_relation(d), catalog)
    assert [s.r for s in result.scores] == pytest.approx([1, 1], abs=1e-12)
    assert [s.c for s in result.scores] == pytest.approx([1, 1], abs=1e-12)
    assert [s.relation for s in result.scores] == pytest.approx([0, 0], abs=1e-12)
    # zero relation is not a cause: ties fall to the effect group
    assert all(s.group is Group.EFFECT for s in result.scores)
    assert all(s.near_neutral for s in result.scores)


def test_fixture_scores(study):
    _, _, result = analyze(study.direct)
    x16 = result.by_id("X16")
    assert x16.r == pytest.approx(2.102746, abs=1e-6)
    assert x16.c == pytest.approx(1.076308, abs=1e-6)
    assert x16.prominence == pytest.approx(3.179054, abs=1e-6)
    assert x16.relation == pytest.approx(1.026439, abs=1e-6)
    assert x16.group is Group.CAUSE
    x21 = result.by_id("X21")
    assert x21.r == pytest.approx(0.271454, abs=1e-6)
    assert x21.relation == pytest.approx(-0.707680, abs=1e-6)
    assert x21.group is Group.EFFECT


def test_grand_sum_balance():
    rng = np.random.default_rng(17)
    for _ in range(50):
        _, _, result = analyze(random_direct(rng))
        total_r = math.fsum(s.r for s in result.scores)
        total_c = math.fsum(s.c for s in result.scores)
        assert abs(total_r - total_c) < 1e-9


def test_symmetric_input_gives_symmetric_total_and_zero_relations():
    # n = 2 is excluded: a zero-diagonal symmetric 2x2 has equal row sums,
    # which is exactly the documented singular case
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        half = rng.uniform(0, 5, size=(n, n))
        sym = half + half.T
        np.fill_diagonal(sym, 0.0)
        d, t, result = analyze(drm(sym))
        assert np.abs(t.entries - t.entries.T).max() < 1e-10
        assert max(abs(s.relation) for s in result.scores) < 1e-9


def test_pipeline_scale_invariance():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a = random_direct(rng)
        s = float(rng.uniform(0.001, 1000))
        base = analyze(a)[2]
        scaled = analyze(drm(a.entries * s, ids=a.catalog.ids))[2]
        for x, y in zip(base.scores, scaled.scores):
            assert abs(x.r - y.r) < 1e-12
            assert abs(x.c - y.c) < 1e-12
            assert abs(x.prominence - y.prominence) < 1e-12
            assert abs(x.relation - y.relation) < 1e-12


def test_power_of_two_scaling_is_bit_identical():
    rng = np.random.default_rng(29)
    a = random_direct(rng, n=8)
    d_base, t_base, _ = analyze(a)
    d_scaled, t_scaled, _ = analyze(drm(a.entries * 1024.0, ids=a.catalog.ids))
    assert (d_base.entries == d_scaled.entries).all()
    assert (t_base.entries == t_scaled.entries).all()


def test_permutation_equivariance():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = random_direct(rng)
        n = a.n
        perm = rng.permutation(n)
        permuted = drm(
            a.entries[np.ix_(perm, perm)],
            ids=[a.catalog.ids[i] for i in perm],
        )
        base = analyze(a)[2]
        other = analyze(permuted)[2]
        for fid in a.catalog.ids:
            x, y = base.by_id(fid), other.by_id(fid)
            assert abs(x.r - y.r) < 1e-12
            assert abs(x.c - y.c) < 1e-12
            assert abs(x.relation - y.relation) < 1e-12
            assert x.group is y.group


def test_csf_default_rule_on_fixture(study):
    _, _, result = analyze(study.direct)
    csf = extract_csf(result)
    assert len(csf) == 15
    assert csf[:5] == ("X16", "X8", "X9", "X7", "X1")
    assert set(csf) == {
        "X1", "X2", "X7", "X8", "X9", "X11", "X12", "X14", "X15",
        "X16", "X17", "X18", "X19", "X22", "X28",
    }
    relations = [result.by_id(f).relation for f in csf]
    assert relations == sorted(relations, reverse=True)


def test_csf_on_printed_scores(study):
    # extraction over the expected score table gives the same leaders
    result = study.expected_result()
    csf = extract_csf(result)
    assert len(csf) == 15
    assert csf[:5] == ("X16", "X8", "X9", "X7", "X1")
    assert extract_csf(result, CsfRule.TOP_K_BY_PROMINENCE_WITHIN_CAUSE, k=1) == ("X16",)


def test_csf_top_k_rule_on_fixture(study):
    _, _, result = analyze(study.direct)
    assert extract_csf(result, CsfRule.TOP_K_BY_PROMINENCE_WITHIN_CAUSE, k=1) == ("X16",)
    top3 = extract_csf(result, CsfRule.TOP_K_BY_PROMINENCE_WITHIN_CAUSE, k=3)
    prominences = [result.by_id(f).prominence for f in top3]
    assert prominences == sorted(prominences, reverse=True)
    with pytest.raises(KExceedsCauseGroup):
        extract_csf(result, CsfRule.TOP_K_BY_PROMINENCE_WITHIN_CAUSE, k=16)
    with pytest.raises(ValueError):
        extract_csf(result, CsfRule.TOP_K_BY_PROMINENCE_WITHIN_CAUSE)


def make_score(fid, relation, prominence=1.0):
    return FactorScore(
        id=fid,
        name=fid,
        r=(prominence + relation) / 2,
        c=(prominence - relation) / 2,
        prominence=prominence,
        relation=relation,
        group=Group.CAUSE if relation > 1e-9 else Group.EFFECT,
    )


def test_csf_with_no_causes_is_empty():
    result = DematelResult((make_score("a", -0.2), make_score("b", -0.1)))
    assert extract_csf(result) == ()


def test_csf_ties_keep_catalog_order():
    result = DematelResult(
        (
            make_score("a", 0.5, prominence=2.0),
            make_score("b", 0.5, prominence=2.0),
            make_score("c", 0.7, prominence=1.0),
        )
    )
    assert extract_csf(result) == ("c", "a", "b")
    top = extract_csf(result, CsfRule.TOP_K_BY_PROMINENCE_WITHIN_CAUSE, k=2)
    assert top == ("a", "b")


def test_near_neutral_band_on_fixture(study):
    _, _, result = analyze(study.direct)
    flagged = {s.id for s in result.scores if s.near_neutral}
    assert {"X2", "X3", "X6", "X19", "X14"} <= flagged
    assert flagged == {"X2", "X3", "X4", "X6", "X14", "X19", "X23"}


def test_fixture_argmax_argmin(study):
    _, _, result = analyze(study.direct)
    assert max(result.scores, key=lambda s: s.relation).id == "X16"
    assert min(result.scores, key=lambda s: s.relation).id == "X21"
    assert max(result.scores, key=lambda s: s.prominence).id == "X16"
