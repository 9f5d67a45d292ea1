"""Output checks for every benchmark op, independent of the repo's tests.

Reports round numbers to 12 significant digits, so comparisons of report
values use a relative tolerance of 1e-9. Every check raises CheckFailed
with a message naming what disagreed.
"""
from __future__ import annotations

import re

import numpy as np

from gen import TERM_TRIPLES

REL_TOL = 1e-9
#: A factor is a net cause only when its relation exceeds this (the
#: documented DEMATEL tie rule: exact zeros are effects).
CAUSE_EPS = 1e-9

_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')


class CheckFailed(Exception):
    pass


def _close(actual, expected, what: str, rel: float = REL_TOL) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        raise CheckFailed(f"{what}: shape {actual.shape} != {expected.shape}")
    err = np.abs(actual - expected)
    limit = rel * np.maximum(np.abs(expected), np.abs(actual))
    bad = err > limit
    if bad.any():
        at = np.unravel_index(int(np.argmax(np.where(bad, err, -1.0))), err.shape)
        raise CheckFailed(f"{what}: {actual[at]!r} != {expected[at]!r} at {tuple(int(x) for x in at)}")


def check_analysis(direct, normalized, scale_factor, total, r, c, relation, groups, csf, ids, rows=None):
    """Check one DEMATEL result against its own direct-relation matrix.

    rows restricts the matrix checks (normalized, fixed-point residual) to
    those rows, all when None. The temporaries then stay a few rows wide,
    which keeps the checker's memory small next to the program's.
    """
    a = np.asarray(direct, dtype=float)
    d = np.asarray(normalized, dtype=float)
    t = np.asarray(total, dtype=float)
    _close(scale_factor, a.sum(axis=1).max(), "scale factor vs max row sum of direct")
    sel = slice(None) if rows is None else np.asarray(rows)
    t_rows = t[sel]
    _close(d[sel], a[sel] / scale_factor, "normalized vs direct / scale factor")
    residual = np.abs(t_rows - d[sel] - d[sel] @ t).sum(axis=1).max()
    bound = REL_TOL * (1.0 + np.abs(t_rows).sum(axis=1).max())
    if not residual <= bound:
        raise CheckFailed(f"fixed-point residual |T - D - D.T|inf = {residual:.3e} exceeds {bound:.3e}")
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    _close(r, t.sum(axis=1), "r vs row sums of T")
    _close(c, t.sum(axis=0), "c vs column sums of T")
    rel = np.asarray(relation, dtype=float)
    if np.any(np.abs(rel - (r - c)) > REL_TOL * (np.abs(r) + np.abs(c))):
        raise CheckFailed("relation differs from r - c")
    expected_groups = ["Cause" if x > CAUSE_EPS else "Effect" for x in rel.tolist()]
    if list(groups) != expected_groups:
        raise CheckFailed("cause/effect groups disagree with the relation signs")
    cause = [i for i, g in enumerate(expected_groups) if g == "Cause"]
    expected_csf = [ids[i] for i in sorted(cause, key=lambda i: -rel[i])]
    if list(csf) != expected_csf:
        raise CheckFailed("CSF list is not the cause group ordered by relation")


def check_report(report: dict, spot=None, crisp=None) -> None:
    """Check a `fdematel run` report.

    spot: [[i, j, [term codes]], ...] cells whose direct value must equal
    the scalar CFCS of those expert terms. crisp: the CSV matrix the report
    was made from with --zero-diagonal.
    """
    from fdematel.cfcs import cfcs_cell
    from fdematel.fuzzy import TriangularFuzzyNumber

    m = report["matrices"]
    direct = np.array(m["direct"], dtype=float)
    scores = report["scores"]
    ids = [f["id"] for f in report["factors"]]
    if [s["id"] for s in scores] != ids or direct.shape != (len(ids), len(ids)):
        raise CheckFailed("report factors, scores and matrices disagree in size or order")
    check_analysis(
        direct,
        m["normalized"],
        report["metadata"]["scale_factor"],
        m["total"],
        [s["r"] for s in scores],
        [s["c"] for s in scores],
        [s["relation"] for s in scores],
        [s["group"] for s in scores],
        report["csf"],
        ids,
    )
    for i, j, terms in spot or ():
        expected = cfcs_cell([TriangularFuzzyNumber(*TERM_TRIPLES[t]) for t in terms]).crisp
        _close(direct[i, j], expected, f"direct[{ids[i]}][{ids[j]}] vs scalar cfcs_cell")
    if crisp is not None:
        expected = np.array(crisp, dtype=float)
        np.fill_diagonal(expected, 0.0)
        if not np.array_equal(direct, expected):
            bad = np.argwhere(direct != expected)[0]
            raise CheckFailed(f"direct differs from the zero-diagonal CSV at {tuple(int(x) for x in bad)}")


def check_svg(text: str, n: int) -> None:
    points = text.count('<circle class="point"')
    if points != n:
        raise CheckFailed(f"SVG has {points} points, expected {n}")


def check_reproduce(text: str) -> None:
    """`fdematel reproduce` must name the printed diagonal as the better
    treatment and give every verdict of that section as PASS. (The zeroed
    treatment is printed for comparison and is expected to deviate.)"""
    match = re.search(r"^better diagonal treatment: (\w+)", text, re.MULTILINE)
    if match is None or match.group(1) != "verbatim":
        raise CheckFailed("reproduce does not name the printed diagonal as the better treatment")
    section = text.split("[diagonal as printed]", 1)[1].split("\n[", 1)[0]
    verdicts = [line.rsplit("->", 1)[1].strip() for line in section.splitlines() if "->" in line]
    if len(verdicts) < 7 or any(v != "PASS" for v in verdicts):
        raise CheckFailed(f"reproduce verdicts for the printed diagonal are not all PASS: {verdicts}")


def check_same_report(first: bytes, second: bytes) -> None:
    """Two reports of one input must be byte-identical apart from generated_at."""
    if _GENERATED_AT.sub(b"", first) != _GENERATED_AT.sub(b"", second):
        raise CheckFailed("two runs of the same input gave different report bytes")
