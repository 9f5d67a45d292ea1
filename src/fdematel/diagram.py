"""Cause-effect diagram emitters: JSON records, static SVG, Graphviz DOT.

Convention: x is prominence (r + c), y is relation (r - c); the horizontal
zero line separates the cause group (above) from the effect group (below).
"""
from __future__ import annotations

import math
import re
from typing import Tuple

from .engine import DematelResult, Group
from .report import render_json

SVG_WIDTH = 880
SVG_HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 40
MARGIN_TOP = 40
MARGIN_BOTTOM = 60

CAUSE_COLOR = "#2166ac"
EFFECT_COLOR = "#b2182b"


def diagram_points(result: DematelResult) -> list:
    return [
        {"id": s.id, "name": s.name, "x": s.prominence, "y": s.relation, "group": s.group.value}
        for s in result.scores
    ]


def emit_diagram(result: DematelResult, fmt: str = "json") -> str:
    """Render the cause-effect scatter in the requested format."""
    kind = fmt.strip().lower()
    if kind == "json":
        return render_json(diagram_points(result))
    if kind == "svg":
        return _svg(result)
    if kind == "dot":
        return _dot(result)
    raise ValueError(f"unknown diagram format {fmt!r} (expected svg, dot or json)")


def _axis_range(values, always_include_zero=False):
    lo, hi = min(values), max(values)
    if always_include_zero:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    span = hi - lo
    pad = 0.05 * span if span > 0 else 1.0
    lo, hi = lo - pad, hi + pad
    # the plot divides by hi - lo and puts a tick at (lo + hi) / 2; past
    # 2**53 the unit pad of a zero span rounds away, and hi - lo is 0
    if not (0 < hi - lo < math.inf and math.isfinite(lo + hi)):
        raise ValueError(f"scores from {min(values)} to {max(values)} give the plot no finite, nonzero axis range")
    return lo, hi


def plot_ranges(result: DematelResult) -> Tuple[float, float, float, float]:
    """The SVG plot's padded axis ranges, (x_lo, x_hi, y_lo, y_hi).

    Raises ValueError when the scores are too large for the ranges to have
    a finite, nonzero width.
    """
    x_lo, x_hi = _axis_range([s.prominence for s in result.scores])
    y_lo, y_hi = _axis_range([s.relation for s in result.scores], always_include_zero=True)
    return x_lo, x_hi, y_lo, y_hi


def _svg(result: DematelResult) -> str:
    points = diagram_points(result)
    x_lo, x_hi, y_lo, y_hi = plot_ranges(result)
    plot_w = SVG_WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = SVG_HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v):
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        # SVG y grows downward
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    zero_y = sy(0.0)
    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>')
    out.append(
        f'<rect class="frame" x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    out.append(
        f'<line class="zero-line" x1="{MARGIN_LEFT}" y1="{zero_y:.2f}" '
        f'x2="{MARGIN_LEFT + plot_w}" y2="{zero_y:.2f}" '
        f'stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{SVG_HEIGHT - 18}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">prominence (r + c)</text>'
    )
    out.append(
        f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.2f})">relation (r - c)</text>'
    )
    for v in (x_lo, (x_lo + x_hi) / 2, x_hi):
        out.append(
            f'<text x="{sx(v):.2f}" y="{MARGIN_TOP + plot_h + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{v:.2f}</text>'
        )
    for v in (y_lo, 0.0, y_hi):
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{sy(v) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.2f}</text>'
        )
    for p in points:
        color = CAUSE_COLOR if p["group"] == Group.CAUSE.value else EFFECT_COLOR
        cx, cy = sx(p["x"]), sy(p["y"])
        out.append(
            f'<circle class="point" cx="{cx:.2f}" cy="{cy:.2f}" r="4" '
            f'fill="{color}" fill-opacity="0.85"><title>{_esc(p["name"])}</title></circle>'
        )
        out.append(
            f'<text class="point-label" x="{cx + 6:.2f}" y="{cy - 5:.2f}" '
            f'font-family="sans-serif" font-size="10">{_esc(p["id"])}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


#: Lone surrogates, which a report's JSON can carry as \ud800 escapes. UTF-8
#: cannot encode them, so the SVG and DOT writers both replace them.
_SURROGATES = "\ud800-\udfff"
_LONE_SURROGATE = re.compile(f"[{_SURROGATES}]")
#: Characters XML 1.0 forbids in a document, escaped or not.
_XML_FORBIDDEN = re.compile(f"[\x00-\x08\x0b\x0c\x0e-\x1f{_SURROGATES}\ufffe\uffff]")


def _esc(text: str) -> str:
    """SVG text content; a character XML cannot carry becomes U+FFFD."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _XML_FORBIDDEN.sub("\ufffd", text)


def _dot_quote(text: str) -> str:
    """A DOT quoted string, with backslashes and double quotes escaped and a
    lone surrogate replaced by U+FFFD."""
    text = _LONE_SURROGATE.sub("\ufffd", text)
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(result: DematelResult) -> str:
    out = []
    out.append("graph cause_effect_diagram {")
    out.append('  // x = prominence (r + c), y = relation (r - c)')
    out.append("  layout=neato;")
    out.append('  node [shape=point, width=0.1];')
    for p in diagram_points(result):
        color = CAUSE_COLOR if p["group"] == Group.CAUSE.value else EFFECT_COLOR
        node = _dot_quote(p["id"])
        out.append(
            f'  {node} [pos="{p["x"]:.6f},{p["y"]:.6f}!", xlabel={node}, '
            f'color="{color}", tooltip={_dot_quote(p["name"])}];'
        )
    out.append("}")
    return "\n".join(out) + "\n"
