"""DEMATEL engine tests: normalization, total relations, scores, CSFs."""
import math

import numpy as np
import pytest

from fdematel import (
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
from fdematel.engine import _two_sum_tree, exact_sums
from fdematel.errors import (
    MalformedDocument,
    NegativeEntry,
    NonNumericField,
    NonSquare,
    SingularSystem,
    ZeroMatrix,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only test_exact_sums_match_fsum_oracle needs it
    st = None


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
    with pytest.raises(MalformedDocument):
        FactorCatalog.from_ids(["a"])
    with pytest.raises(MalformedDocument):
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
    for bad in ([[-0.1, 0.2], [0.1, 0]], [[0.5, 1.5], [0.1, 0]], [[np.nan, 0.2], [0.1, 0]]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            NormalizedMatrix(np.array(bad))


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


def near_singular(eps):
    # max row sum 1 and det(I - A) = eps, so ||T||_inf is about 2 / eps
    return drm([[0, 1, 0], [1 - eps, 0, 0], [0.3, 0.3, 0]])


def test_near_singular_system_detected():
    # no pivot is exactly zero, but T would be about 2e11
    with pytest.raises(SingularSystem):
        analyze(near_singular(1e-11))
    # kappa about 4e9: still trusted, and T is still a fixed point
    d, t, _ = analyze(near_singular(1e-9))
    assert np.abs(t.entries).sum(axis=1).max() == pytest.approx(2e9, rel=1e-3)
    residual = t.entries - d.entries - d.entries @ t.entries
    assert np.abs(residual).max() < 1e-6 * np.abs(t.entries).max()


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


def test_sums_are_bitwise_permutation_equivariant():
    # magnitudes spread over eight decades, so plain np.sum rounds
    # differently once the factors are reordered; fsum must not
    rng = np.random.default_rng(7)
    n = 40
    entries = rng.uniform(0, 1, (n, n)) * 10.0 ** rng.integers(-6, 3, (n, n))
    ids = [f"F{i + 1}" for i in range(n)]
    a = drm(entries, ids)
    scale = normalize(a).scale_factor
    base = compute_scores(TotalRelationMatrix(entries), a.catalog).scores
    moved = set()  # the plain np.sum results that some reordering changed
    for _ in range(10):
        perm = rng.permutation(n)
        permuted = entries[np.ix_(perm, perm)]
        pa = drm(permuted, [ids[i] for i in perm])
        assert normalize(pa).scale_factor == scale
        other = compute_scores(TotalRelationMatrix(permuted), pa.catalog).scores
        assert [s.r for s in other] == [base[i].r for i in perm]
        assert [s.c for s in other] == [base[i].c for i in perm]
        if np.sum(permuted, axis=1).max() != np.sum(entries, axis=1).max():
            moved.add("max row sum")
        for axis in (0, 1):
            if (np.sum(permuted, axis=axis) != np.sum(entries, axis=axis)[perm]).any():
                moved.add(axis)
    assert moved == {"max row sum", 0, 1}


def fsum_bits(entries, axis):
    """The oracle: math.fsum per row (axis=1) or column (axis=0), as bytes."""
    lines = entries.T if axis == 0 else entries
    return np.array([math.fsum(line) for line in lines]).tobytes()


def test_exact_sums_round_halfway_cases_like_fsum():
    # 1 + 2**-53 lies halfway between 1 and the next float; 2**-106 more
    # tips it up. A TwoSum tree whose errors round to 2**-53 lands on the
    # tie, and only the certificate sends such lines to fsum.
    u = 2.0**-53
    lines = [
        [1.0, u],
        [1.0, u, u * u],
        [u * u, u, 1.0],
        [1.0, u, -u * u],
        [1.0, u, u * u, 0.0],
        [-1.0, -u, -u * u],
        [1.0 + 2 * u, u],
        [3.0, 3.0, u * 4, u * u * 4],
    ]
    for line in lines:
        for scale in (1.0, 2.0**-1000, 2.0**900):
            x = np.array([line]) * scale
            assert np.array(exact_sums(x, axis=1)).tobytes() == fsum_bits(x, 1), (line, scale)
            assert np.array(exact_sums(x.T, axis=0)).tobytes() == fsum_bits(x.T, 0), (line, scale)


def test_zero_sums_are_positive_zero_like_fsum():
    # math.fsum never returns -0.0; a tree over -0.0 terms would
    for n in (1, 2, 3, 4):
        for axis in (0, 1):
            sums = exact_sums(np.full((n, n), -0.0), axis)
            assert [math.copysign(1.0, s) for s in sums] == [1.0] * n


def test_overflowing_row_sum_is_a_typed_error():
    with pytest.raises(NonNumericField, match="row 0"):
        normalize(drm([[0, 1e308, 1e308], [1, 0, 1], [1, 1, 0]]))
    with pytest.raises(NonNumericField, match="column 2"):
        exact_sums(np.array([[1.0, 0.0, 1e308], [0.0, 1.0, 1e308]]), axis=0)


def test_tree_certifies_every_sum_of_crisp_matrices():
    # built like perfbench/gen.crisp_matrix (N=600, 0-4 scale, four
    # decimals), with and without the sensitivity workload's noise: every
    # sum of A and T must be certified, so math.fsum never runs
    rng = np.random.default_rng(11)
    for zero_diagonal in (False, True):
        a = np.round(rng.uniform(0.0, 4.0, size=(600, 600)), 4)
        if zero_diagonal:
            np.fill_diagonal(a, 0.0)
        for entries in (a, a * rng.uniform(0.9, 1.1, size=a.shape)):
            direct = drm(entries)
            t = analyze(direct)[1].entries
            for m in (direct.entries, t):
                for terms in (m, m.T):
                    assert _two_sum_tree(terms)[1].all()


def finite_bits(rng, shape):
    """Random bit patterns as floats; a non-finite one or one over 1e306 (so
    that a sum of 65 terms cannot overflow) is replaced by a normal draw."""
    x = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    return np.where(np.abs(x) <= 1e306, x, rng.standard_normal(shape))


#: Value families for the fsum oracle test; each builds a matrix from a seed.
SUM_VALUES = {
    # any finite float up to 1e306, so that no sum of 65 terms overflows
    "bits": lambda rng, shape: finite_bits(rng, shape),
    "decades": lambda rng, shape: rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape),
    "subnormal": lambda rng, shape: rng.integers(-(2**52), 2**52, shape) * 2.0**-1074,
    "zeros": lambda rng, shape: rng.choice([0.0, -0.0], shape),
    "crisp": lambda rng, shape: np.round(rng.uniform(0.0, 4.0, shape), 4),
    "halfway": lambda rng, shape: rng.choice([1.0, -1.0, 2.0**-53, -(2.0**-53), 2.0**-106], shape)
    * 2.0 ** int(rng.integers(-900, 900)),
}


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_exact_sums_match_fsum_oracle():
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        shape=st.tuples(st.just(1), st.integers(1, 65)) | st.integers(2, 40).map(lambda n: (n, n)),
        kind=st.sampled_from(sorted(SUM_VALUES)),
        seed=st.integers(0, 2**32 - 1),
        cancel=st.booleans(),
        negative_zero_lines=st.integers(0, 3),
    )
    def check(shape, kind, seed, cancel, negative_zero_lines):
        rng = np.random.default_rng(seed)
        x = SUM_VALUES[kind](rng, shape).astype(float)
        if cancel and shape[1] >= 3:
            # rows of the form [x, -x, y], shuffled
            half = (shape[1] - 1) // 2
            x[:, half : 2 * half] = -x[:, :half]
            x = x[:, rng.permutation(shape[1])]
        for _ in range(negative_zero_lines):
            if rng.integers(2):
                x[rng.integers(shape[0])] = -0.0
            else:
                x[:, rng.integers(shape[1])] = -0.0
        for axis in (0, 1):
            assert np.array(exact_sums(x, axis)).tobytes() == fsum_bits(x, axis), (kind, axis)

    check()


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
    result = study.expected
    csf = extract_csf(result)
    assert len(csf) == 15
    assert csf[:5] == ("X16", "X8", "X9", "X7", "X1")


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
