"""Machine-readable analysis reports and the case-study verification.

Reports are plain dicts rendered to JSON with numbers canonicalized to 12
significant digits, so identical inputs yield byte-identical output (the
generation timestamp lives in metadata and is the only varying field).
"""
from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from ._version import __version__
from .engine import (
    CsfRule,
    DematelResult,
    DirectRelationMatrix,
    FactorScore,
    Group,
    analyze,
    extract_csf,
)
from .io import CaseStudyFixture, load_case_study

#: Verification tolerances for the embedded case study. The printed
#: total-relation table carries 2 decimals and the direct-relation table
#: its own rounding, hence the loose bands.
TOTAL_CELL_TOL = 0.015
SCORE_RC_TOL = 0.03
SCORE_PROM_REL_TOL = 0.05
SIGN_CHECK_MIN = 0.05


def canonical_numbers(obj):
    """Recursively round floats to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, dict):
        return {k: canonical_numbers(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_numbers(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return canonical_numbers(obj.tolist())
    return obj


def render_json(obj) -> str:
    return json.dumps(canonical_numbers(obj), indent=2)


def _score_record(s: FactorScore, csf: set) -> dict:
    return {
        "id": s.id,
        "name": s.name,
        "r": s.r,
        "c": s.c,
        "prominence": s.prominence,
        "relation": s.relation,
        "group": s.group.value,
        "near_neutral": s.near_neutral,
        "is_csf": s.id in csf,
    }


def build_report(
    direct: DirectRelationMatrix,
    input_path: str = "",
    input_format: str = "crisp-csv",
    defuzz_mode: Optional[str] = None,
    zero_diagonal: bool = False,
    generated_at: Optional[str] = None,
) -> dict:
    """Run the full pipeline and assemble the analysis report.

    The embedded "direct" matrix is the one that entered normalization
    (after optional diagonal zeroing), so the report is self-contained:
    re-running the engine on it reproduces the embedded results.
    """
    a = direct.with_zero_diagonal() if zero_diagonal else direct
    d, t, result = analyze(a)
    csf = list(extract_csf(result))
    csf_ids = set(csf)
    if generated_at is None:
        generated_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {
        "metadata": {
            "tool": "fdematel",
            "version": __version__,
            "input": input_path,
            "input_format": input_format,
            "defuzzification_mode": defuzz_mode,
            "zero_diagonal": zero_diagonal,
            "scale_factor": d.scale_factor,
            "csf_rule": CsfRule.CAUSE_GROUP.value,
            "generated_at": generated_at,
        },
        "factors": [{"id": f.id, "name": f.name} for f in a.catalog.factors],
        "matrices": {
            "direct": a.entries.tolist(),
            "normalized": d.entries.tolist(),
            "total": t.entries.tolist(),
        },
        "scores": [_score_record(s, csf_ids) for s in result.scores],
        "csf": csf,
    }


def scores_from_report(report: dict) -> DematelResult:
    """Rebuild a DematelResult from a report's score records.

    Raises KeyError, TypeError or ValueError when the report is malformed.
    """
    if not report["scores"]:
        raise ValueError("the report lists no scores")
    scores = []
    for rec in report["scores"]:
        if not (isinstance(rec["id"], str) and isinstance(rec["name"], str)):
            raise TypeError(f"score record {rec!r} needs a string id and name")
        scores.append(
            FactorScore(
                id=rec["id"],
                name=rec["name"],
                r=float(rec["r"]),
                c=float(rec["c"]),
                prominence=float(rec["prominence"]),
                relation=float(rec["relation"]),
                group=Group(rec["group"]),
            )
        )
    return DematelResult(tuple(scores))


def _verify_treatment(fixture: CaseStudyFixture, zero_diagonal: bool, cell_tol: float) -> dict:
    """Compare one diagonal treatment against the printed tables."""
    a = fixture.direct.with_zero_diagonal() if zero_diagonal else fixture.direct
    d, t, result = analyze(a)
    ids = a.catalog.ids
    dev = np.abs(t.entries - fixture.expected_total)
    worst = np.unravel_index(int(np.argmax(dev)), dev.shape)
    printed = {e.id: e for e in fixture.expected_scores}
    r_dev = max(abs(s.r - printed[s.id].r) for s in result.scores)
    c_dev = max(abs(s.c - printed[s.id].c) for s in result.scores)
    prom_dev = max(abs(s.prominence - printed[s.id].prominence) for s in result.scores)
    rel_dev = max(abs(s.relation - printed[s.id].relation) for s in result.scores)
    sign_mismatches = [
        s.id
        for s in result.scores
        if abs(printed[s.id].relation) >= SIGN_CHECK_MIN
        and math.copysign(1, s.relation) != math.copysign(1, printed[s.id].relation)
    ]
    printed_neutral = [e.id for e in fixture.expected_scores if abs(e.relation) < SIGN_CHECK_MIN]
    unflagged_neutral = [fid for fid in printed_neutral if not result.by_id(fid).near_neutral]
    cause_ids = [s.id for s in result.scores if s.group is Group.CAUSE]
    printed_cause = [e.id for e in fixture.expected_scores if e.relation > 0]
    by_relation = max(result.scores, key=lambda s: s.relation).id
    by_relation_min = min(result.scores, key=lambda s: s.relation).id
    by_prominence = max(result.scores, key=lambda s: s.prominence).id
    cells_over = int((dev > cell_tol).sum())
    return {
        "zero_diagonal": zero_diagonal,
        "scale_factor": d.scale_factor,
        "max_row_id": ids[int(np.argmax([sum(row) for row in a.entries]))],
        "total_max_dev": float(dev.max()),
        "total_worst_cell": (ids[worst[0]], ids[worst[1]]),
        "total_cells_over": cells_over,
        "cell_tol": cell_tol,
        "r_dev": r_dev,
        "c_dev": c_dev,
        "prom_dev": prom_dev,
        "rel_dev": rel_dev,
        "sign_mismatches": sign_mismatches,
        "unflagged_neutral": unflagged_neutral,
        "cause_ids": cause_ids,
        "printed_cause": printed_cause,
        "argmax_relation": by_relation,
        "argmin_relation": by_relation_min,
        "argmax_prominence": by_prominence,
        "scores": result.scores,
        # verdict per check, in printed order
        "passed": {
            "total-relation": cells_over == 0,
            "R/C scores": r_dev <= SCORE_RC_TOL and c_dev <= SCORE_RC_TOL,
            "R+C/R-C scores": prom_dev <= SCORE_PROM_REL_TOL and rel_dev <= SCORE_PROM_REL_TOL,
            "relation signs": not sign_mismatches,
            "near-neutral flags": not unflagged_neutral,
            "cause group": cause_ids == printed_cause,
            "ordering": (by_relation, by_relation_min, by_prominence) == ("X16", "X21", "X16"),
        },
    }


def run_reproduction(cell_tol: float = TOTAL_CELL_TOL) -> dict:
    """Verify the embedded case study under both diagonal treatments."""
    fixture = load_case_study()
    verbatim = _verify_treatment(fixture, zero_diagonal=False, cell_tol=cell_tol)
    zeroed = _verify_treatment(fixture, zero_diagonal=True, cell_tol=cell_tol)
    better = verbatim if verbatim["total_max_dev"] <= zeroed["total_max_dev"] else zeroed
    return {
        "fixture": fixture,
        "verbatim": verbatim,
        "zeroed": zeroed,
        "better": "verbatim" if better is verbatim else "zeroed",
        "better_outcome": better,
    }


def _passfail(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _render_treatment(out: dict, printed: dict, lines: list) -> None:
    ok = out["passed"]
    lines.append(f"scale factor s = {out['scale_factor']:.6f} (max row sum, row {out['max_row_id']})")
    wi, wj = out["total_worst_cell"]
    lines.append(
        f"total-relation matrix vs printed table: max |dev| = {out['total_max_dev']:.6f} "
        f"at ({wi},{wj}); cells over {out['cell_tol']:g}: {out['total_cells_over']} "
        f"-> {_passfail(ok['total-relation'])}"
    )
    lines.append(
        f"scores vs printed table: max |R dev| = {out['r_dev']:.6f}, max |C dev| = {out['c_dev']:.6f} "
        f"(tol {SCORE_RC_TOL:g}) -> {_passfail(ok['R/C scores'])}"
    )
    lines.append(
        f"                         max |R+C dev| = {out['prom_dev']:.6f}, max |R-C dev| = {out['rel_dev']:.6f} "
        f"(tol {SCORE_PROM_REL_TOL:g}) -> {_passfail(ok['R+C/R-C scores'])}"
    )
    lines.append(
        f"relation signs (printed |R-C| >= {SIGN_CHECK_MIN:g}): "
        f"{len(out['sign_mismatches'])} mismatches -> {_passfail(ok['relation signs'])}"
    )
    lines.append(
        f"near-neutral flags on rounding-band factors: "
        f"{'all set' if not out['unflagged_neutral'] else 'missing ' + ','.join(out['unflagged_neutral'])} "
        f"-> {_passfail(ok['near-neutral flags'])}"
    )
    lines.append(
        f"cause group: {len(out['cause_ids'])} factors, printed positive: {len(out['printed_cause'])} "
        f"-> {_passfail(ok['cause group'])}"
    )
    lines.append(
        f"ordering: max relation {out['argmax_relation']}, min relation {out['argmin_relation']}, "
        f"max prominence {out['argmax_prominence']} -> {_passfail(ok['ordering'])}"
    )
    lines.append("")
    header = (
        f"{'id':<5}{'R comp':>9}{'R prn':>8}{'C comp':>9}{'C prn':>8}"
        f"{'R+C comp':>10}{'R+C prn':>9}{'R-C comp':>10}{'R-C prn':>9}  group   flags"
    )
    lines.append(header)
    for s in out["scores"]:
        p = printed[s.id]
        flag = "near-neutral" if s.near_neutral else ""
        lines.append(
            f"{s.id:<5}{s.r:>9.4f}{p.r:>8.3f}{s.c:>9.4f}{p.c:>8.3f}"
            f"{s.prominence:>10.4f}{p.prominence:>9.3f}{s.relation:>10.4f}{p.relation:>9.3f}"
            f"  {s.group.value:<7} {flag}"
        )


def render_reproduction(outcome: dict) -> str:
    """Deterministic text body for the verification report."""
    fixture = outcome["fixture"]
    printed = {e.id: e for e in fixture.expected_scores}
    lines = []
    lines.append("fuzzy DEMATEL verification against the embedded 29-factor case study")
    lines.append("=" * 72)
    for key, title in (("verbatim", "diagonal as printed"), ("zeroed", "diagonal zeroed")):
        lines.append("")
        lines.append(f"[{title}]")
        _render_treatment(outcome[key], printed, lines)
    lines.append("")
    lines.append(
        f"better diagonal treatment: {outcome['better']} "
        f"(max total-relation deviation {outcome['verbatim']['total_max_dev']:.6f} verbatim "
        f"vs {outcome['zeroed']['total_max_dev']:.6f} zeroed)"
    )
    lines.append("")
    return "\n".join(lines)
