"""Level-curve extraction by marching squares and SVG rendering.

Each component's interface is approximated by the level curve u = delta.
Crossing points are placed by linear interpolation along grid edges.  All
cells are classified at once with numpy by the four corner bits of
values >= delta; only the cells the level crosses are visited, and each takes
its segments from one case table.  The two ambiguous saddle cases are
resolved with the cell-center average: each has a table row for a center
inside and one for a center outside.  Crossings are computed once per grid
edge, so segments sharing an edge reference the identical point and chain
into polylines without any coordinate matching tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, SystemState

__all__ = [
    "ContourSet",
    "check_delta",
    "extract_contours",
    "extract_field_contours",
    "render_svg",
    "render_tiled_svg",
    "contours_to_csv",
]

COMPONENT_COLORS = {1: "red", 2: "blue", 3: "green"}


@dataclass
class ContourSet:
    """Per-component polylines (lists of (k, 2) vertex arrays) at one threshold."""

    delta: float
    polylines: dict[int, list[np.ndarray]] = field(default_factory=lambda: {1: [], 2: [], 3: []})


# segment endpoints per marching-squares case, as edges of cell (j, i) given
# by offsets: bottom (h, j, i), top (h, j+1, i), left (v, j, i), right
# (v, j, i+1).  The case code holds the corner bits 1 bottom-left,
# 2 bottom-right, 4 top-right and 8 top-left.  The saddles 5 and 10 pair
# their edges by the cell-center average: their rows hold the pairing for a
# center inside, rows 21 and 26 (case + 16) the pairing for a center outside.
_B, _T, _L, _R = ("h", 0, 0), ("h", 1, 0), ("v", 0, 0), ("v", 0, 1)
_CASES = {
    1: [(_L, _B)], 2: [(_B, _R)], 3: [(_L, _R)], 4: [(_R, _T)],
    6: [(_B, _T)], 7: [(_L, _T)], 8: [(_T, _L)], 9: [(_B, _T)],
    11: [(_R, _T)], 12: [(_R, _L)], 13: [(_B, _R)], 14: [(_L, _B)],
    5: [(_B, _R), (_T, _L)], 21: [(_L, _B), (_R, _T)],
    10: [(_L, _B), (_R, _T)], 26: [(_B, _R), (_T, _L)],
}


def _segments_and_points(grid: Grid, f: np.ndarray):
    """Segments as (edge_key_a, edge_key_b) in cell scan order, and the crossings.

    Inside means f >= 0.  Edge keys are ('h', j, i) for the edge from node
    (j, i) to (j, i+1) and ('v', j, i) for the edge from (j, i) to (j+1, i);
    `points` maps each key the level crosses to its interpolated (x, y).
    Only the cells the level crosses are visited, row by row.
    """
    xs, ys = grid.xs(), grid.ys()
    inside = f >= 0.0

    j, i = np.nonzero(inside[:, :-1] != inside[:, 1:])
    t = f[j, i] / (f[j, i] - f[j, i + 1])
    x = xs[i] + t * (xs[i + 1] - xs[i])
    points = {
        ("h", a, b): p for a, b, p in zip(j.tolist(), i.tolist(), zip(x.tolist(), ys[j].tolist()))
    }
    j, i = np.nonzero(inside[:-1, :] != inside[1:, :])
    t = f[j, i] / (f[j, i] - f[j + 1, i])
    y = ys[j] + t * (ys[j + 1] - ys[j])
    points.update({
        ("v", a, b): p for a, b, p in zip(j.tolist(), i.tolist(), zip(xs[i].tolist(), y.tolist()))
    })

    bit = inside.astype(np.uint8)
    case = bit[:-1, :-1] | bit[:-1, 1:] << 1 | bit[1:, 1:] << 2 | bit[1:, :-1] << 3
    cells = np.nonzero((case > 0) & (case < 15))
    j, i = np.nonzero((case == 5) | (case == 10))
    center = 0.25 * (f[j, i] + f[j, i + 1] + f[j + 1, i] + f[j + 1, i + 1])
    outside = ~(center >= 0.0)
    case[j[outside], i[outside]] += 16

    segments = []
    for j, i, c in zip(*(a.tolist() for a in cells), case[cells].tolist()):
        for (ka, ja, ia), (kb, jb, ib) in _CASES[c]:
            segments.append(((ka, j + ja, i + ia), (kb, j + jb, i + ib)))
    return segments, points


def _chain(segments: list[tuple]) -> list[list]:
    """Join segments sharing edge keys into open or closed key paths."""
    adjacency: dict[tuple, list[int]] = {}
    for s, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append(s)
        adjacency.setdefault(b, []).append(s)

    used = [False] * len(segments)
    paths = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        path = [a, b]
        # grow forward from the tail, then backward from the head
        for endpoint_side in (True, False):
            while True:
                tip = path[-1] if endpoint_side else path[0]
                nxt = next((s for s in adjacency[tip] if not used[s]), None)
                if nxt is None:
                    break
                used[nxt] = True
                pa, pb = segments[nxt]
                new = pb if pa == tip else pa
                if endpoint_side:
                    path.append(new)
                else:
                    path.insert(0, new)
        paths.append(path)
    return paths


def extract_field_contours(grid: Grid, values: np.ndarray, delta: float) -> list[np.ndarray]:
    """Polylines of the level curve {values = delta} on the grid."""
    f = values - delta
    segments, points = _segments_and_points(grid, f)
    polylines = []
    for path in _chain(segments):
        closed = path[0] == path[-1] and len(path) > 2
        verts = np.array([points[k] for k in path])
        if closed and not np.array_equal(verts[0], verts[-1]):
            verts = np.vstack([verts, verts[:1]])
        polylines.append(verts)
    return polylines


def check_delta(delta: float) -> None:
    """ValueError unless the contour threshold delta is positive and finite."""
    if not 0.0 < delta < np.inf:
        raise ValueError(f"contour threshold delta must be positive and finite, got {delta}")


def extract_contours(state: SystemState, delta: float) -> ContourSet:
    """Marching-squares level curves of each component at threshold delta."""
    check_delta(delta)
    cs = ContourSet(delta=delta)
    for k, comp in enumerate(state.components, start=1):
        cs.polylines[k] = extract_field_contours(state.grid, comp.values, delta)
    return cs


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _svg_path(poly: np.ndarray, flip: float) -> str:
    parts = []
    for n, (x, y) in enumerate(poly):
        cmd = "M" if n == 0 else "L"
        parts.append(f"{cmd} {_fmt(x)} {_fmt(flip - y)}")
    return " ".join(parts)


def _frame_and_paths(contours: ContourSet, grid: Grid) -> list[str]:
    """The domain frame `<rect>` and one `<path>` per component polyline, in domain units."""
    w = grid.x_max - grid.x_min
    h = grid.y_max - grid.y_min
    flip = grid.y_min + grid.y_max  # svg y axis points down
    stroke = _fmt(0.008 * min(w, h))
    lines = [
        f'<rect x="{_fmt(grid.x_min)}" y="{_fmt(grid.y_min)}" width="{_fmt(w)}" '
        f'height="{_fmt(h)}" fill="white" stroke="black" stroke-width="{stroke}"/>'
    ]
    for k in (1, 2, 3):
        color = COMPONENT_COLORS[k]
        for poly in contours.polylines[k]:
            lines.append(
                f'<path d="{_svg_path(poly, flip)}" fill="none" '
                f'stroke="{color}" stroke-width="{stroke}"/>'
            )
    return lines


def render_svg(contours: ContourSet, grid: Grid, size: int = 640) -> str:
    """One SVG with the domain frame and red/blue/green component polylines."""
    w = grid.x_max - grid.x_min
    h = grid.y_max - grid.y_min
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{int(round(size * h / w))}" '
        f'viewBox="{_fmt(grid.x_min)} {_fmt(grid.y_min)} {_fmt(w)} {_fmt(h)}">',
        *_frame_and_paths(contours, grid),
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def render_tiled_svg(
    entries: list[tuple[str, ContourSet]],
    grid: Grid,
    ncols: int = 3,
    tile: int = 220,
) -> str:
    """Tile several contour plots (label, contours) into one sheet, row-major."""
    w = grid.x_max - grid.x_min
    h = grid.y_max - grid.y_min
    margin = 0.15 * tile
    nrows = (len(entries) + ncols - 1) // ncols
    width = ncols * tile + (ncols + 1) * margin
    height = nrows * (tile + margin * 1.6) + margin
    scale = tile / w
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]
    for n, (label, contours) in enumerate(entries):
        r, c = divmod(n, ncols)
        tx = margin + c * (tile + margin) - scale * grid.x_min
        ty = margin + r * (tile + margin * 1.6) - scale * grid.y_min
        lines.append(f'<g transform="translate({_fmt(tx)} {_fmt(ty)}) scale({_fmt(scale)})">')
        lines.extend(_frame_and_paths(contours, grid))
        lines.append("</g>")
        label_x = margin + c * (tile + margin)
        label_y = margin + r * (tile + margin * 1.6) + tile * (h / w) + 0.55 * margin
        lines.append(
            f'<text x="{_fmt(label_x)}" y="{_fmt(label_y)}" '
            f'font-family="monospace" font-size="{_fmt(0.5 * margin)}">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def contours_to_csv(contours: ContourSet, path) -> None:
    """Write `component,polyline_id,x,y` vertex rows."""
    with open(path, "w", newline="") as fh:
        fh.write("component,polyline_id,x,y\n")
        for k in (1, 2, 3):
            for pid, poly in enumerate(contours.polylines[k]):
                for x, y in poly:
                    fh.write(f"{k},{pid},{x:.17g},{y:.17g}\n")
