"""Minimal byte-stable SVG emission for Cerf diagrams and slice grids.

No plotting dependency: figures are assembled from polylines, circles,
and rects with fixed formatting so identical inputs give identical bytes.
"""

from __future__ import annotations

from .discriminant import CerfTrace, SliceGrid, nearest_pairs

WIDTH = 640
HEIGHT = 480
MARGIN = 40

EVENT_COLORS = {
    "birth": "#2a9d2a",
    "death": "#d62728",
    "crossing": "#1f77b4",
    "maxwell": "#9467bd",
    "unresolved": "#7f7f7f",
}

INDEX_COLORS = ["#1f77b4", "#d62728", "#2ca02c"]


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _scale(lo: float, hi: float, span: int):
    if hi <= lo:
        hi = lo + 1.0
    def to_px(v: float) -> float:
        return MARGIN + (v - lo) / (hi - lo) * span
    return to_px


def cerf_svg(trace: CerfTrace) -> str:
    """Critical-value curves against the path parameter, events marked."""
    points = []  # (s, value, index)
    for s, rep in zip(trace.s_values, trace.samples):
        if rep is None:
            continue
        for p in rep.points:
            points.append((float(s), float(p.value.mid()), p.index))
    values = [v for _, v, _ in points] or [0.0]
    sx = _scale(0.0, 1.0, WIDTH - 2 * MARGIN)
    sy = _scale(min(values), max(values), HEIGHT - 2 * MARGIN)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # curves: chain per-step values by nearest predecessor
    chains: list[list[tuple[float, float, int]]] = []
    prev: list[tuple[float, float, int]] = []
    prev_chain: list[int] = []
    for s, rep in zip(trace.s_values, trace.samples):
        if rep is None:
            prev, prev_chain = [], []
            continue
        cur = [(float(s), float(p.value.mid()), p.index) for p in rep.points]
        cur_chain = [-1] * len(cur)
        for i, j in nearest_pairs(prev, cur, lambda a, b: abs(a[1] - b[1])):
            chains[prev_chain[i]].append(cur[j])
            cur_chain[j] = prev_chain[i]
        for j, pt in enumerate(cur):
            if cur_chain[j] < 0:
                chains.append([pt])
                cur_chain[j] = len(chains) - 1
        prev, prev_chain = cur, cur_chain
    for chain in chains:
        if len(chain) < 2:
            continue
        color = INDEX_COLORS[chain[0][2] % len(INDEX_COLORS)]
        pts = " ".join(f"{_fmt(sx(s))},{_fmt(HEIGHT - sy(v))}"
                       for s, v, _ in chain)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.2"/>')
    for e in trace.events:
        cx = sx(float(e.s))
        vals = e.data.get("values")
        cy = HEIGHT - sy(float(vals[0])) if vals else HEIGHT / 2
        color = EVENT_COLORS.get(e.kind, "#000000")
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="5" '
                     f'fill="none" stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def slice_svg(grid: SliceGrid) -> str:
    """Fiber-count heatmap of a (lambda, t) slice."""
    n = grid.grid
    cell_w = (WIDTH - 2 * MARGIN) / n
    cell_h = (HEIGHT - 2 * MARGIN) / n
    max_count = max((c for row in grid.root_counts for c in row), default=1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for i, row in enumerate(grid.root_counts):
        for j, count in enumerate(row):
            shade = 255 - int(200 * count / max(max_count, 1))
            x = MARGIN + j * cell_w
            y = HEIGHT - MARGIN - (i + 1) * cell_h
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w)}" '
                f'height="{_fmt(cell_h)}" '
                f'fill="rgb({shade},{shade},255)"/>')
            if grid.disc_signs and grid.disc_signs[i][j] == 0:
                parts.append(
                    f'<rect x="{_fmt(x)}" y="{_fmt(y)}" '
                    f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" '
                    f'fill="none" stroke="#d62728" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
