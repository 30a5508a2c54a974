"""Minimal hand-rolled SVG line plots (no plotting dependency)."""

from __future__ import annotations

import math


def line_plot_svg(xs, ys, title: str, xlabel: str, ylabel: str) -> str:
    """Polyline-and-axes log-log plot of one curve; points with x or y <= 0
    are left out, and a curve with none left is drawn as a flat line."""
    pts = [(math.log10(x), math.log10(y)) for x, y in zip(map(float, xs), map(float, ys))
           if x > 0 and y > 0]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 0.0)]
    x0 = min(p[0] for p in pts)
    x1 = max(p[0] for p in pts)
    y0 = min(p[1] for p in pts)
    y1 = max(p[1] for p in pts)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    width, height, pad = 640, 420, 50

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
    ]
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
    parts += [
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.0f})">{ylabel}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
