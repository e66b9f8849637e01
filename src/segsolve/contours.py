"""Level-curve extraction by marching squares and SVG rendering.

Each component's interface is approximated by the level curve u = delta.
Crossing points are placed by linear interpolation along grid edges, cells
fully above or below the level produce nothing, and the two ambiguous saddle
cases are resolved with the cell-center average.  Crossings are computed once
per grid edge, so segments sharing an edge reference the identical point and
chain into polylines without any coordinate matching tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, SystemState

__all__ = [
    "ContourSet",
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


def _edge_points(grid: Grid, f: np.ndarray):
    """Crossing coordinates on horizontal and vertical grid edges.

    Inside means f >= 0.  Returns dicts keyed by ('h', j, i) / ('v', j, i)
    mapping to the interpolated (x, y) crossing.
    """
    xs, ys = grid.xs(), grid.ys()
    inside = f >= 0.0
    points: dict[tuple, tuple[float, float]] = {}

    hcross = inside[:, :-1] != inside[:, 1:]
    for j, i in zip(*np.nonzero(hcross)):
        fa, fb = f[j, i], f[j, i + 1]
        t = fa / (fa - fb)
        points[("h", int(j), int(i))] = (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])

    vcross = inside[:-1, :] != inside[1:, :]
    for j, i in zip(*np.nonzero(vcross)):
        fa, fb = f[j, i], f[j + 1, i]
        t = fa / (fa - fb)
        points[("v", int(j), int(i))] = (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))

    return inside, points


# segment endpoints per marching-squares case, as cell-edge names;
# cases 5 and 10 are saddles handled separately
_CASES = {
    1: [("left", "bottom")],
    2: [("bottom", "right")],
    3: [("left", "right")],
    4: [("right", "top")],
    6: [("bottom", "top")],
    7: [("left", "top")],
    8: [("top", "left")],
    9: [("bottom", "top")],
    11: [("right", "top")],
    12: [("right", "left")],
    13: [("bottom", "right")],
    14: [("left", "bottom")],
}


def _cell_edges(j: int, i: int) -> dict[str, tuple]:
    return {
        "bottom": ("h", j, i),
        "top": ("h", j + 1, i),
        "left": ("v", j, i),
        "right": ("v", j, i + 1),
    }


def _cell_segments(grid: Grid, f: np.ndarray, inside: np.ndarray):
    """Yield segments as (edge_key_a, edge_key_b) in cell scan order."""
    ny, nx = grid.shape
    for j in range(ny - 1):
        for i in range(nx - 1):
            case = (
                int(inside[j, i])
                | int(inside[j, i + 1]) << 1
                | int(inside[j + 1, i + 1]) << 2
                | int(inside[j + 1, i]) << 3
            )
            if case in (0, 15):
                continue
            edges = _cell_edges(j, i)
            if case in (5, 10):
                center = 0.25 * (f[j, i] + f[j, i + 1] + f[j + 1, i] + f[j + 1, i + 1])
                center_inside = center >= 0.0
                if case == 5:  # bl and tr inside
                    names = (
                        [("bottom", "right"), ("top", "left")]
                        if center_inside
                        else [("left", "bottom"), ("right", "top")]
                    )
                else:  # br and tl inside
                    names = (
                        [("left", "bottom"), ("right", "top")]
                        if center_inside
                        else [("bottom", "right"), ("top", "left")]
                    )
            else:
                names = _CASES[case]
            for a, b in names:
                yield edges[a], edges[b]


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
    inside, points = _edge_points(grid, f)
    segments = list(_cell_segments(grid, f, inside))
    polylines = []
    for path in _chain(segments):
        closed = path[0] == path[-1] and len(path) > 2
        verts = np.array([points[k] for k in path])
        if closed and not np.array_equal(verts[0], verts[-1]):
            verts = np.vstack([verts, verts[:1]])
        polylines.append(verts)
    return polylines


def extract_contours(state: SystemState, delta: float) -> ContourSet:
    """Marching-squares level curves of each component at threshold delta."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
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
