"""SVG pictures of segment families and trees.

Output is plain SVG 1.1 built by string assembly with fixed two-decimal
coordinates and a fixed palette, so the same input always produces the
same bytes — the tests diff renders directly.  Every number drawn is at
least 46, so none prints as -0.00.  Families are drawn on a circle
(convex position is all that matters combinatorially) with an optional
alternating path overlaid; trees are drawn in layers below a root.
"""

from __future__ import annotations

import math

from .duality import AlternatingPath, SegmentFamily, _range_issues
from .trees import Tree, _check_count, _rooted, centroids

_BG = "#ffffff"
_RIM = "#d9dde4"
_CHORD = "#8892a6"
_PATH = "#c0392b"
_DOT = "#1f2937"
_NODE_FILL = "#e2e8f0"
_NODE_EDGE = "#334155"
_TEXT = "#111827"


def _header(width: float, height: float) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">\n'
        f'<rect width="{width:.2f}" height="{height:.2f}" fill="{_BG}"/>\n'
    )


# one chord, and one endpoint dot with its label
_CHORD_LINE = (
    '<line x1="%s" y1="%s" x2="%s" y2="%s" '
    f'stroke="{_CHORD}" stroke-width="2"/>\n'
)
_DOT_LABEL = (
    f'<circle cx="%s" cy="%s" r="4" fill="{_DOT}"/>\n'
    '<text x="%.2f" y="%.2f" font-family="monospace" '
    f'font-size="13" fill="{_TEXT}" text-anchor="middle" '
    'dominant-baseline="central">%d</text>\n'
)


def render_segments(s: SegmentFamily, path: AlternatingPath | None = None) -> str:
    """Draw the family's endpoints on a circle with one chord per segment,
    plus the alternating path as a polyline when given, once each of its
    endpoint labels is one of the family's.  Each coordinate is formatted
    once, by one ``%`` over every x and one over every y."""
    if path is not None:
        issues = _range_issues(path.endpoints, 2 * s.n)
        if issues:
            raise ValueError(issues[0])
    size = 640.0
    cx = cy = size / 2
    radius = 250.0
    label_radius = radius + 24
    count = 2 * s.n
    angles = [-math.pi / 2 + 2 * math.pi * i / count for i in range(count)]
    coss = list(map(math.cos, angles))
    sins = list(map(math.sin, angles))
    xs = ("%.2f " * count % tuple([cx + radius * c for c in coss])).split()
    ys = ("%.2f " * count % tuple([cy + radius * c for c in sins])).split()

    parts = [_header(size, size)]
    parts.append(
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" '
        f'fill="none" stroke="{_RIM}" stroke-width="1"/>\n'
    )
    parts += [_CHORD_LINE % (xs[a], ys[a], xs[b], ys[b]) for a, b in s.pairs]
    if path is not None:
        pts = " ".join(f"{xs[e]},{ys[e]}" for e in path.endpoints)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{_PATH}" '
            'stroke-width="3.5" stroke-linejoin="round" opacity="0.85"/>\n'
        )
        e0 = path.endpoints[0]
        parts.append(
            f'<circle cx="{xs[e0]}" cy="{ys[e0]}" r="7" fill="none" '
            f'stroke="{_PATH}" stroke-width="2"/>\n'
        )
    parts += [
        _DOT_LABEL
        % (xs[i], ys[i], cx + label_radius * coss[i], cy + label_radius * sins[i], i)
        for i in range(count)
    ]
    parts.append("</svg>\n")
    return "".join(parts)


def render_tree(t: Tree, root: int | None = None) -> str:
    """Draw the tree in layers below ``root`` (default: its first
    centroid); leaves claim horizontal slots left to right, inner vertices
    sit over the middle of their children."""
    if root is None:
        root = min(centroids(t))
    _check_count(root, "root", 0, t.vertex_count - 1)

    order, parent = _rooted(t, root)
    depth = [0] * t.vertex_count
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1

    x = [0.0] * t.vertex_count
    next_slot = 0
    for v in reversed(order):
        kids = [w for w in t.adjacency[v] if parent[w] == v]
        if not kids:
            x[v] = float(next_slot)
            next_slot += 1
        else:
            x[v] = sum(x[w] for w in kids) / len(kids)

    step_x, step_y, margin = 64.0, 76.0, 48.0
    width = margin * 2 + step_x * max(next_slot - 1, 0)
    height = margin * 2 + step_y * max(depth)
    xs = [f"{margin + c * step_x:.2f}" for c in x]
    ys = [f"{margin + d * step_y:.2f}" for d in depth]

    parts = [_header(width, height)]
    parts += [_CHORD_LINE % (xs[a], ys[a], xs[b], ys[b]) for a, b in t.edges]
    for v, (px, py) in enumerate(zip(xs, ys)):
        parts.append(
            f'<circle cx="{px}" cy="{py}" r="12" '
            f'fill="{_NODE_FILL}" stroke="{_NODE_EDGE}" stroke-width="1.5"/>\n'
            f'<text x="{px}" y="{py}" font-family="monospace" '
            f'font-size="11" fill="{_TEXT}" text-anchor="middle" '
            f'dominant-baseline="central">{v}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
