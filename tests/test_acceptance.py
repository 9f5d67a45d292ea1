"""Acceptance suite: one test per exit criterion, each printing a pass line.

Criterion 6's series oracle runs to depth 220 rather than 60: at max row
sum 0.9 the Neumann tail after k terms is bounded by 0.9^(k+1)/0.1, so 60
terms can only certify ~1.7e-2 while the stated 1e-8 needs at least 197
terms. The tolerance is kept as stated and the depth follows from it.
"""
import json
import math
import os
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import fdematel
from fdematel import (
    DirectRelationMatrix,
    FactorCatalog,
    Group,
    NormalizedMatrix,
    TriangularFuzzyNumber,
    analyze,
    cfcs_cell,
    load_case_study,
    total_relation,
)

from cfcs_oracle import cfcs_steps, centroid_of
from conftest import random_panel

T = TriangularFuzzyNumber

TOTAL_CELL_TOL = 0.015
SCORE_RC_TOL = 0.03
SCORE_PROM_REL_TOL = 0.05
SERIES_TERMS = 220  # smallest k with 0.9**(k+1)/0.1 < 1e-9 is 197; margin added


def report(line):
    print(f"ACCEPTANCE {line}")


@pytest.fixture(scope="module")
def verbatim_run():
    fixture = load_case_study()
    start = time.perf_counter()
    d, t, result = analyze(fixture.direct)
    elapsed = time.perf_counter() - start
    return fixture, d, t, result, elapsed


def test_criterion_1_total_relation_table(verbatim_run):
    fixture, d, t, result, elapsed = verbatim_run
    dev = np.abs(t.entries - fixture.expected_total)
    zeroed_dev = np.abs(
        analyze(fixture.direct.with_zero_diagonal())[1].entries - fixture.expected_total
    )
    # the verbatim diagonal is the better treatment; all 841 cells in band
    assert dev.max() <= zeroed_dev.max()
    assert dev.shape == (29, 29)
    assert (dev <= TOTAL_CELL_TOL).all(), f"worst deviation {dev.max():.6f}"
    assert elapsed < 1.0
    report(
        f"criterion 1 (total-relation table, 841 cells within {TOTAL_CELL_TOL}; "
        f"max dev {dev.max():.6f}, {elapsed * 1000:.1f} ms): PASS"
    )


def test_criterion_2_score_table(verbatim_run):
    fixture, _, _, result, _ = verbatim_run
    printed = {e.id: e for e in fixture.expected.scores}
    for s in result.scores:
        p = printed[s.id]
        assert abs(s.r - p.r) <= SCORE_RC_TOL, s.id
        assert abs(s.c - p.c) <= SCORE_RC_TOL, s.id
        assert abs(s.prominence - p.prominence) <= SCORE_PROM_REL_TOL, s.id
        assert abs(s.relation - p.relation) <= SCORE_PROM_REL_TOL, s.id
        if abs(p.relation) >= 0.05:
            assert math.copysign(1, s.relation) == math.copysign(1, p.relation), s.id
    for fid in ("X2", "X3", "X6", "X19", "X14"):
        assert result.by_id(fid).near_neutral, fid
    report("criterion 2 (score table within tolerance, signs and neutral flags): PASS")


def test_criterion_3_ordering_claims(verbatim_run):
    fixture, _, _, result, _ = verbatim_run
    assert max(result.scores, key=lambda s: s.relation).id == "X16"
    assert min(result.scores, key=lambda s: s.relation).id == "X21"
    top = max(result.scores, key=lambda s: s.prominence)
    assert top.id == "X16"
    assert top.prominence == pytest.approx(3.18, abs=SCORE_PROM_REL_TOL)
    report("criterion 3 (relation argmax X16, argmin X21, prominence argmax X16): PASS")


def test_criterion_4_cause_group_census(verbatim_run):
    fixture, _, _, result, _ = verbatim_run
    computed = [s.id for s in result.scores if s.group is Group.CAUSE]
    printed = [e.id for e in fixture.expected.scores if e.relation > 0]
    assert computed == printed
    assert len(computed) == 15
    report("criterion 4 (cause group census, 15 factors): PASS")


def test_criterion_5_cfcs_oracle_suite():
    cases = [
        [(0.25, 0.5, 0.75)],
        [(0, 0.25, 0.5), (0.5, 0.75, 1)],
        [(0.4, 0.4, 0.4)] * 3,
    ]
    for samples in cases:
        oracle = cfcs_steps(samples)
        trace = cfcs_cell([T(*s) for s in samples])
        assert trace.crisp == pytest.approx(oracle["crisp"], abs=1e-9)
        for got, want in zip(trace.experts, oracle["experts"]):
            assert (got.xl, got.xm, got.xr, got.xls, got.xrs, got.x, got.bnp) == pytest.approx(
                want, abs=1e-9
            )
    assert cfcs_steps(cases[0])["crisp"] == pytest.approx(0.5, abs=1e-9)
    k2 = cfcs_steps(cases[1])
    assert k2["experts"][0][6] == pytest.approx(0.2666666667, abs=1e-9)
    assert k2["experts"][1][6] == pytest.approx(0.7333333333, abs=1e-9)
    assert k2["crisp"] == pytest.approx(0.5, abs=1e-9)
    assert cfcs_steps(cases[2])["crisp"] == 0.4

    skewed, symmetric = (0, 0.25, 0.95), (0.1, 0.4, 0.7)
    assert centroid_of(skewed) == pytest.approx(0.4)
    assert centroid_of(symmetric) == pytest.approx(0.4)
    a = cfcs_cell([T(*skewed)]).crisp
    b = cfcs_cell([T(*symmetric)]).crisp
    assert a == pytest.approx(cfcs_steps([skewed])["crisp"], abs=1e-9)
    assert round(a, 5) == 0.34489
    assert b == pytest.approx(0.4, abs=1e-9)
    assert abs(a - b) > 0.05
    report("criterion 5 (CFCS engine matches the independent oracle to 1e-9): PASS")


def truncated_series(d, terms):
    total = np.zeros_like(d)
    power = np.eye(d.shape[0])
    for _ in range(terms):
        power = power @ d
        total += power
    return total


def test_criterion_6_matrix_property_suite():
    rng = np.random.default_rng(2024)
    worst_fixed = worst_series = worst_balance = worst_sym = worst_scale = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 13))
        raw = rng.uniform(0.0, 1.0, size=(n, n))
        d_entries = 0.9 * raw / max(math.fsum(row) for row in raw)
        d = NormalizedMatrix(d_entries)
        t = total_relation(d)
        fixed = np.abs(t.entries - (d.entries + d.entries @ t.entries)).max()
        series = np.abs(t.entries - truncated_series(d.entries, SERIES_TERMS)).max()
        worst_fixed = max(worst_fixed, fixed)
        worst_series = max(worst_series, series)
        assert fixed < 1e-10
        assert series < 1e-8

        a = DirectRelationMatrix(raw * 10.0, FactorCatalog.from_ids([f"F{i}" for i in range(n)]))
        _, _, result = analyze(a)
        balance = abs(math.fsum(s.r for s in result.scores) - math.fsum(s.c for s in result.scores))
        worst_balance = max(worst_balance, balance)
        assert balance < 1e-9

        sym_raw = (raw + raw.T) / 2  # diagonal kept so row sums stay distinct
        _, _, sym_result = analyze(
            DirectRelationMatrix(sym_raw, FactorCatalog.from_ids([f"F{i}" for i in range(n)]))
        )
        sym_dev = max(abs(s.relation) for s in sym_result.scores)
        worst_sym = max(worst_sym, sym_dev)
        assert sym_dev < 1e-9

        s = float(rng.uniform(0.001, 1000.0))
        _, _, scaled = analyze(
            DirectRelationMatrix(raw * 10.0 * s, FactorCatalog.from_ids([f"F{i}" for i in range(n)]))
        )
        scale_dev = max(
            max(abs(x.r - y.r), abs(x.c - y.c), abs(x.prominence - y.prominence), abs(x.relation - y.relation))
            for x, y in zip(result.scores, scaled.scores)
        )
        worst_scale = max(worst_scale, scale_dev)
        assert scale_dev <= 1e-12
    report(
        "criterion 6 (200 random matrices; fixed point "
        f"{worst_fixed:.2e}, series {worst_series:.2e}, balance {worst_balance:.2e}, "
        f"symmetric {worst_sym:.2e}, scaling {worst_scale:.2e}): PASS"
    )


def test_criterion_7_equivariance_suite():
    rng = np.random.default_rng(4096)
    for _ in range(100):
        panel = random_panel(rng)
        shift = float(rng.uniform(-5, 5))
        factor = float(rng.uniform(0.01, 20))
        base = cfcs_cell(panel).crisp
        shifted = cfcs_cell([T(p.l + shift, p.m + shift, p.r + shift) for p in panel]).crisp
        scaled = cfcs_cell([T(p.l * factor, p.m * factor, p.r * factor) for p in panel]).crisp
        assert shifted == pytest.approx(base + shift, abs=1e-9)
        assert scaled == pytest.approx(base * factor, rel=1e-9)

    for _ in range(100):
        panel = random_panel(rng, k=int(rng.integers(2, 8)))
        base = cfcs_cell(panel).crisp
        order = rng.permutation(len(panel))
        assert cfcs_cell([panel[i] for i in order]).crisp == base  # exact

    for _ in range(40):
        n = int(rng.integers(2, 13))
        entries = rng.uniform(0, 10, size=(n, n))
        ids = [f"F{i}" for i in range(n)]
        base = analyze(DirectRelationMatrix(entries, FactorCatalog.from_ids(ids)))[2]
        perm = rng.permutation(n)
        other = analyze(
            DirectRelationMatrix(entries[np.ix_(perm, perm)], FactorCatalog.from_ids([ids[i] for i in perm]))
        )[2]
        for fid in ids:
            x, y = base.by_id(fid), other.by_id(fid)
            # LU pivoting reorders the arithmetic, so equality is to float
            # noise; group labels must agree exactly
            assert abs(x.r - y.r) < 1e-12
            assert abs(x.c - y.c) < 1e-12
            assert abs(x.prominence - y.prominence) < 1e-12
            assert abs(x.relation - y.relation) < 1e-12
            assert x.group is y.group
    report("criterion 7 (translation/scaling 1e-9, expert permutation exact, factor permutation): PASS")


def run_python(*args):
    # the child imports the same fdematel as this process, installed or not
    src = str(Path(fdematel.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli(*args):
    return run_python("-m", "fdematel", *args)


def test_import_loads_no_scipy():
    # numpy's LAPACK makes the one solve; scipy is not a dependency
    code = "import sys, fdematel, fdematel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_python("-c", code).stdout.decode().strip() == "[]"


def test_criterion_8_determinism(tmp_path):
    first = run_cli("reproduce").stdout
    second = run_cli("reproduce").stdout
    assert first == second and first

    table5 = resources.files("fdematel").joinpath("data", "table5.csv").read_text()
    path = tmp_path / "table5.csv"
    path.write_text(table5)
    rep1 = json.loads(run_cli("run", str(path)).stdout)
    rep2 = json.loads(run_cli("run", str(path)).stdout)
    rep1["metadata"].pop("generated_at")
    rep2["metadata"].pop("generated_at")
    assert rep1 == rep2

    raw1 = run_cli("run", str(path)).stdout.decode()
    raw2 = run_cli("run", str(path)).stdout.decode()
    strip = lambda text: re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)
    assert strip(raw1) == strip(raw2)
    report("criterion 8 (byte-identical reproduce; run identical modulo timestamp): PASS")
