"""Minimal SVG heatmap for fallacy-flag rasters.

Presentation only: structure (one ``rect`` of class ``cell`` per grid
point, plus a legend) is stable, exact pixel output is not pinned.
"""

from __future__ import annotations

from collections.abc import Iterator

from .analysis import SweepResult

_CELL_PX = 8  # side of one raster cell, in pixels
# (fallacy_b, fallacy_a) flags, fill and label of each legend entry, in order.
# The labels go into the SVG as they are: none holds a character that XML
# would need escaped.
_LEGEND = [
    ((False, False), "#eeeeee", "no fallacy"),
    ((True, False), "#d95f02", "fallacy on b only"),
    ((False, True), "#1b9e77", "fallacy on a only"),
    ((True, True), "#7570b3", "fallacy on both"),
]
_COLORS = {flags: fill for flags, fill, _ in _LEGEND}  # a cell's fill by its flags


def fallacy_heatmap_svg(sweep: SweepResult, n_theta: int, n_theta_a: int) -> str:
    """Render the row-major sweep raster as an SVG document string."""
    if len(sweep) != n_theta * n_theta_a:
        raise ValueError(
            f"expected {n_theta * n_theta_a} cells, got {len(sweep)}"
        )
    return "".join(fallacy_heatmap_rows(sweep, 0, n_theta))


def fallacy_heatmap_rows(block: SweepResult, lo: int, n_theta: int) -> Iterator[str]:
    """The pieces of :func:`fallacy_heatmap_svg`'s document, one per theta
    row, for a block whose first row is row ``lo`` of an ``n_theta``-row
    raster: after the preamble if it starts the raster, before the legend if
    it ends it.  A raster's blocks written in order give the whole document."""
    n_rows, n_theta_a = block.fallacy_b.shape
    if lo == 0:
        legend_h = 18 * len(_LEGEND) + 10
        width = n_theta_a * _CELL_PX + 20
        height = n_theta * _CELL_PX + legend_h + 20
        yield (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
            f'<text x="10" y="12" font-size="10">fallacy map '
            f"(rows: theta, cols: theta_a)</text>\n"
        )
    heads = [f'<rect class="cell" x="{10 + col * _CELL_PX}" y="' for col in range(n_theta_a)]
    rows = zip(block.fallacy_b.tolist(), block.fallacy_a.tolist())
    for row, (fallacy_b, fallacy_a) in enumerate(rows, lo):
        tail = f'{16 + row * _CELL_PX}" width="{_CELL_PX}" height="{_CELL_PX}" fill="'
        pairs = zip(fallacy_b, fallacy_a)
        yield "".join(
            f'{head}{tail}{_COLORS[pair]}"/>\n' for head, pair in zip(heads, pairs)
        )
    if lo + n_rows == n_theta:
        y0 = 16 + n_theta * _CELL_PX + 12
        for i, (_, fill, label) in enumerate(_LEGEND):
            y = y0 + i * 18
            yield (
                f'<rect class="legend" x="10" y="{y}" width="12" height="12" '
                f'fill="{fill}"/>\n'
                f'<text x="28" y="{y + 10}" font-size="10">{label}</text>\n'
            )
        yield "</svg>\n"
