"""Tiny hand-rolled SVG emitters for line plots and heatmap grids."""

from __future__ import annotations

from .data import atomic_write

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def line_plot(series, title: str, path, x_label: str, y_label: str):
    """series: list of (label, [(x, y), ...]) pairs; y is clamped for display."""
    width, height, pad = 560, 360, 48
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        raise ValueError("line_plot needs at least one point")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 10}" text-anchor="middle" font-size="11">{x_label}</text>',
        f'<text x="14" y="{height / 2}" font-size="11" transform="rotate(-90 14 {height / 2})" text-anchor="middle">{y_label}</text>',
    ]
    for i, (label, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.4" fill="{color}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * i + 10}" font-size="11" fill="{color}">{label}</text>')
    parts.append(f'<text x="{pad - 4}" y="{height - pad + 4}" text-anchor="end" font-size="10">{y0:.3g}</text>')
    parts.append(f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="10">{y1:.3g}</text>')
    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("\n".join(parts))


def grid_heatmap(matrix, title: str, path):
    """Grayscale cell grid; rows are output channels, columns input channels."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if not rows or not cols:
        raise ValueError("grid_heatmap needs a non-empty matrix")
    cell = max(2, min(16, 480 // max(rows, cols)))
    width, height, top = cols * cell + 2, rows * cell + 28, 24
    flat = [v for row in matrix for v in row]
    vmax = max(flat) or 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="16" text-anchor="middle" font-size="12">{title}</text>',
    ]
    for r, row in enumerate(matrix):
        for c, v in enumerate(row):
            shade = int(255 * (1 - v / vmax))
            parts.append(
                f'<rect x="{c * cell + 1}" y="{top + r * cell}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},{shade})"/>')
    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("\n".join(parts))
