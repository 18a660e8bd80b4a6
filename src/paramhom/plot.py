"""Hand-built SVG rendering of diagram documents.

Points live in the (birth, death) half-plane above the diagonal.  Each mark
is a dot with one diagonal tick showing the decoration pair: the tick
points right when the left end is open (birth just after the value) and
left when it is closed, up when the right end is closed (death at the
value) and down when it is open.  Infinite coordinates sit in gutter bands
along the left and top edges.  Output bytes depend only on the entries, in
document order of dimensions and type codes.
"""

from __future__ import annotations

import math

from .diagrams import BehaviorType, Decoration
from .io import parse_real

__all__ = ["render_svg"]

SIZE = 520
MARGIN = 56
GUTTER = 30
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _clamp(v: float) -> float:
    """v clamped to [-1e307, 1e307], so every difference taken stays finite."""
    return min(max(v, -1e307), 1e307)


def _value_range(entries) -> tuple[float, float]:
    """Bounds lo < hi of the finite values, padded, with hi - lo finite."""
    finite = [_clamp(parse_real(e[key])) for e in entries for key in ("birth", "death")
              if math.isfinite(parse_real(e[key]))]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    pad = 0.08 * (hi - lo) if lo < hi else max(0.5, math.ulp(lo))
    return lo - pad, hi + pad


def render_svg(entries: list[dict]) -> str:
    lo, hi = _value_range(entries)
    inner = SIZE - 2 * MARGIN          # full plot box
    span = inner - GUTTER              # finite part after the gutters

    def sx(v: float) -> float:
        if v == -math.inf:
            return MARGIN + GUTTER / 2
        return MARGIN + GUTTER + (_clamp(v) - lo) / (hi - lo) * span

    def sy(v: float) -> float:
        if v == math.inf:
            return MARGIN + GUTTER / 2
        return SIZE - MARGIN - (_clamp(v) - lo) / (hi - lo) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{inner}" height="{inner}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
        # gutter separators for the two infinities
        f'<line x1="{MARGIN + GUTTER}" y1="{MARGIN}" x2="{MARGIN + GUTTER}" '
        f'y2="{SIZE - MARGIN}" stroke="#bbb" stroke-dasharray="4 3"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN + GUTTER}" x2="{SIZE - MARGIN}" '
        f'y2="{MARGIN + GUTTER}" stroke="#bbb" stroke-dasharray="4 3"/>',
        f'<line x1="{_fmt(sx(lo))}" y1="{_fmt(sy(lo))}" x2="{_fmt(sx(hi))}" '
        f'y2="{_fmt(sy(hi))}" stroke="#999"/>',
        f'<text x="{SIZE / 2}" y="{SIZE - 14}" text-anchor="middle" '
        f'font-size="13">birth</text>',
        f'<text x="16" y="{SIZE / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {SIZE / 2})">death</text>',
        f'<text x="{_fmt(sx(lo))}" y="{SIZE - MARGIN + 16}" text-anchor="middle" '
        f'font-size="11">{_fmt(lo)}</text>',
        f'<text x="{_fmt(sx(hi))}" y="{SIZE - MARGIN + 16}" text-anchor="middle" '
        f'font-size="11">{_fmt(hi)}</text>',
        f'<text x="{MARGIN - 8}" y="{_fmt(sy(lo) + 4)}" text-anchor="end" '
        f'font-size="11">{_fmt(lo)}</text>',
        f'<text x="{MARGIN - 8}" y="{_fmt(sy(hi) + 4)}" text-anchor="end" '
        f'font-size="11">{_fmt(hi)}</text>',
        f'<text x="{MARGIN + GUTTER / 2}" y="{SIZE - MARGIN + 16}" '
        f'text-anchor="middle" font-size="11">-&#8734;</text>',
        f'<text x="{MARGIN - 8}" y="{MARGIN + GUTTER / 2 + 4}" text-anchor="end" '
        f'font-size="11">&#8734;</text>',
    ]

    dims = sorted({e["dim"] for e in entries})
    for row, dim in enumerate(dims):
        color = PALETTE[dim % len(PALETTE)]
        y = MARGIN + 16 + 16 * row
        parts.append(f'<rect x="{MARGIN + GUTTER + 10}" y="{y - 8}" width="9" '
                     f'height="9" fill="{color}"/>')
        parts.append(f'<text x="{MARGIN + GUTTER + 24}" y="{y}" '
                     f'font-size="12">H{dim}</text>')

    tick = 8.0
    for e in entries:
        btype = BehaviorType(e["type"])
        pdec, qdec = btype.decorations
        x = sx(parse_real(e["birth"]))
        y = sy(parse_real(e["death"]))
        dx = tick if pdec is Decoration.PLUS else -tick
        dy = -tick if qdec is Decoration.PLUS else tick
        color = PALETTE[e["dim"] % len(PALETTE)]
        parts.append(f'<g class="mark {btype.value}">')
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(x + dx)}" '
                     f'y2="{_fmt(y + dy)}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.2" '
                     f'fill="{color}"/>')
        if e["multiplicity"] > 1:
            parts.append(f'<text x="{_fmt(x + 6)}" y="{_fmt(y + 12)}" '
                         f'font-size="10" fill="{color}">&#215;'
                         f'{e["multiplicity"]}</text>')
        parts.append('</g>')

    parts.append('</svg>')
    return "\n".join(parts) + "\n"
