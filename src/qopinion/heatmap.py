"""Minimal SVG heatmap for fallacy-flag rasters.

Presentation only: structure (one ``rect`` of class ``cell`` per grid
point, plus a legend) is stable, exact pixel output is not pinned.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from .analysis import SweepResult

_CELL_PX = 8  # side of one raster cell, in pixels
_COLORS = {
    (False, False): "#eeeeee",
    (True, False): "#d95f02",
    (False, True): "#1b9e77",
    (True, True): "#7570b3",
}
_LEGEND = [
    ((False, False), "no fallacy"),
    ((True, False), "fallacy on b only"),
    ((False, True), "fallacy on a only"),
    ((True, True), "fallacy on both"),
]


def fallacy_heatmap_svg(sweep: SweepResult, n_theta: int, n_theta_a: int) -> str:
    """Render the row-major sweep raster as an SVG document string."""
    if len(sweep) != n_theta * n_theta_a:
        raise ValueError(
            f"expected {n_theta * n_theta_a} cells, got {len(sweep)}"
        )
    legend_h = 18 * len(_LEGEND) + 10
    width = n_theta_a * _CELL_PX + 20
    height = n_theta * _CELL_PX + legend_h + 20
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="10" y="12" font-size="10">fallacy map '
        f"(rows: theta, cols: theta_a)</text>",
    ]
    pairs = zip(sweep.fallacy_b.ravel().tolist(), sweep.fallacy_a.ravel().tolist())
    fills = [_COLORS[pair] for pair in pairs]
    heads = [f'<rect class="cell" x="{10 + col * _CELL_PX}" y="' for col in range(n_theta_a)]
    for row in range(n_theta):
        tail = f'{16 + row * _CELL_PX}" width="{_CELL_PX}" height="{_CELL_PX}" fill="'
        row_fills = fills[row * n_theta_a:(row + 1) * n_theta_a]
        parts.extend(f'{head}{tail}{fill}"/>' for head, fill in zip(heads, row_fills))
    y0 = 16 + n_theta * _CELL_PX + 12
    for i, (flags, label) in enumerate(_LEGEND):
        y = y0 + i * 18
        parts.append(
            f'<rect class="legend" x="10" y="{y}" width="12" height="12" '
            f'fill="{_COLORS[flags]}"/>'
        )
        parts.append(
            f'<text x="28" y="{y + 10}" font-size="10">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
