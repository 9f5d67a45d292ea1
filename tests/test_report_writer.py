"""The report writer against its oracle.

The oracle is json.dumps(oracle_numbers(obj), indent=2), where
oracle_numbers is canonical_numbers with ndarrays taken through .tolist():
the writer must give exactly its bytes.
"""
import json
import math

import numpy as np
import pytest

from fdematel import build_report, load_case_study, render_json
from fdematel.report import canonical_numbers

try:
    from hypothesis import Phase, given, settings
    from hypothesis import strategies as st
except ImportError:  # only test_writer_matches_oracle needs it
    st = None


def oracle_numbers(obj):
    if isinstance(obj, np.ndarray):
        return canonical_numbers(obj.tolist())
    if isinstance(obj, dict):
        return {k: oracle_numbers(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_numbers(v) for v in obj]
    return canonical_numbers(obj)


def oracle(obj) -> str:
    return json.dumps(oracle_numbers(obj), indent=2)


def finite_bits(rng, shape):
    x = rng.integers(0, 2**64, shape, dtype=np.uint64).view(float)
    return np.where(np.isfinite(x), x, 1.5)


def near(values, rng, shape):
    """values, with random signs, moved by up to 3 ulps either way."""
    x = rng.choice(values, shape) * rng.choice([1.0, -1.0], shape)
    return (x.view(np.int64) + rng.integers(-3, 4, shape)).view(float)


def near_integers(rng, shape):
    """Integers below 1e11 times (1 ± δ), passed through near: values
    around the point where .12g drops ".0"."""
    k = np.floor(10.0 ** rng.uniform(0, 11, shape))
    delta = rng.choice([0.0, 1e-10, 1e-11, 6e-12, 5e-12, 4.99e-12, 1e-12, 1e-13], shape)
    return near((k * (1 + rng.choice([1.0, -1.0], shape) * delta)).ravel(), rng, shape)


VALUES = {
    "bits": finite_bits,
    "decades": lambda rng, shape: rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape),
    # log-uniform: the fewer significant bits, the likelier .12g and repr differ
    "subnormal": lambda rng, shape: (rng.integers(1, 2**52, shape) >> rng.integers(0, 52, shape))
    * rng.choice([2.0**-1074, -(2.0**-1074)], shape),
    "zeros": lambda rng, shape: rng.choice([0.0, -0.0], shape),
    "integers": lambda rng, shape: rng.integers(-(2**53), 2**53, shape) // 10.0 ** rng.integers(0, 17, shape),
    "near-integers": near_integers,
    "crisp": lambda rng, shape: np.round(rng.uniform(0.0, 4.0, shape), 4),
    # below 1e12, where %g already turns to exponents after rounding
    "g-band": lambda rng, shape: near([1e11, 999999999999.4, 999999999999.5, 999999999999.9999], rng, shape),
    "large": lambda rng, shape: near([1e12, 1e15, 1e16, 1e17], rng, shape),
    "small": lambda rng, shape: near([2.2250738585072014e-308, 1e-4], rng, shape),
}

#: Characters json.dumps escapes, and neighbours of them it leaves alone.
SPECIAL_CHARS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "é", "中", " ", "\ud800", "\udfff", "\U0001f600"]


def mixed(rng, kinds, shape):
    """Each element drawn from one of the families in kinds."""
    families = [VALUES[k](rng, shape).astype(float) for k in kinds]
    return np.choose(rng.integers(len(kinds), size=shape), families)


def report_like(ids, names, matrices, values):
    """A dict shaped like a build_report result."""
    scores = [
        {
            "id": i,
            "name": n,
            "r": values[0, k],
            "c": values[1, k],
            "prominence": values[2, k],
            "relation": values[3, k],
            "group": "Cause",
            "near_neutral": False,
            "is_csf": k % 2 == 0,
        }
        for k, (i, n) in enumerate(zip(ids, names))
    ]
    return {
        "metadata": {"tool": "fdematel", "input": names[0], "zero_diagonal": True, "scale_factor": values[4, 0]},
        "factors": [{"id": i, "name": n} for i, n in zip(ids, names)],
        "matrices": dict(zip(("direct", "normalized", "total"), matrices)),
        "scores": scores,
        "csf": ids[::2],
    }


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_writer_matches_oracle():
    text = st.text(st.characters(codec=None, exclude_categories=()) | st.sampled_from(SPECIAL_CHARS), max_size=8)

    # the matrices come from a drawn seed, which shrinking cannot simplify
    @settings(max_examples=100, deadline=None, database=None, phases=[Phase.generate])
    @given(
        n=st.integers(2, 40),
        kinds=st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        ids=st.lists(text, min_size=1, max_size=40),
        names=st.lists(text, min_size=1, max_size=40),
    )
    def check(n, kinds, seed, ids, names):
        rng = np.random.default_rng(seed)
        matrices = [mixed(rng, kinds, (n, n)) for _ in range(3)]
        ids = [ids[k % len(ids)] for k in range(n)]
        names = [names[k % len(names)] for k in range(n)]
        report = report_like(ids, names, matrices, mixed(rng, kinds, (5, n)))
        assert render_json(report) == oracle(report)
        assert render_json(matrices[0]) == oracle(matrices[0])

    check()


def test_writer_takes_the_exact_form_where_g_text_differs():
    explicit = [
        1e-320,
        5e-324,
        2.2250738585072014e-308,
        999999999999.4,
        999999999999.5,
        1e12,
        float(np.nextafter(1e16, 0)),
        1e16,
        -0.0,
        # near-integers: .12g can print them as an integer, without ".0"
        2.9999999999996,
        0.99999999999996,
        12345.0000000001,
        3.00000000001,
        # integers moved by 1 to 3 ulps either way
        *(np.array([[1.0], [3.0], [1e10]]).view(np.int64) + [-3, -2, -1, 1, 2, 3]).view(float).ravel().tolist(),
    ]
    others = [0.0, 0.25, 3.0, -3.0, 1e10, 99999999999.0, 1e-5, 123456789012.0, math.nan, math.inf, -math.inf]
    for value in explicit + [-v for v in explicit] + others:
        m = np.array([[value, 0.1, 2.0], [1.0, 0.5, 0.0], [7.0, 8.0, 1e-300]])
        report = {"matrices": {"direct": m, "total": m.T.copy()}}
        assert render_json(report) == oracle(report), value
    special = (1e-320, 999999999999.5, -0.0, 99999999999.0, 2.9999999999996)
    texts = [render_json(np.array([[x, 1.0]])).split()[2] for x in special]
    assert texts == ["1e-320,", "1000000000000.0,", "-0.0,", "99999999999.0,", "3.0,"]


def test_report_matrices_are_read_only_arrays():
    report = build_report(load_case_study().direct, zero_diagonal=True, generated_at="")
    for m in report["matrices"].values():
        assert isinstance(m, np.ndarray) and not m.flags.writeable
    assert render_json(report) == oracle(report)
