"""Unit-square component meshes and the grid topology built from them.

Every component lives on the reference square [0, 1]^2 and exposes the same
boundary trace (``n_per_side`` equal segments per side), so any two
components can be glued face to face on a uniform grid of unit cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

SIDES = ("L", "R", "B", "T")
OBSTACLE_TAG = "O"
TAGS = SIDES + (OBSTACLE_TAG,)

# coordinate that varies along each side, and the fixed coordinate level
_SIDE_AXIS = {"L": 1, "R": 1, "B": 0, "T": 0}
_SIDE_LEVEL = {"L": 0.0, "R": 1.0, "B": 0.0, "T": 1.0}

GEOM_TOL = 1e-12


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    ab, ac = b - a, c - a
    return 0.5 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])


@dataclass
class ComponentMesh:
    """Triangulation of the unit square, minus an optional obstacle.

    Boundary edges carry a tag: L/R/B/T for the four outer sides, O for
    obstacle walls.  ``side_trace[side]`` lists the boundary-edge indices of
    that side ordered along it; all four traces share the same breakpoints.
    """

    vertices: np.ndarray             # (n_v, 2)
    triangles: np.ndarray            # (n_t, 3) int, counter-clockwise
    boundary_edges: np.ndarray       # (n_b, 2) int vertex pairs
    boundary_tags: tuple             # one tag per boundary edge
    side_trace: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.boundary_edges = np.asarray(self.boundary_edges, dtype=np.int64).reshape(-1, 2)
        self.boundary_tags = tuple(self.boundary_tags)
        self._validate()
        self.side_trace = {s: self._trace(s) for s in SIDES}
        self._check_traces()

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def _validate(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if len(self.boundary_tags) != self.boundary_edges.shape[0]:
            raise MeshError("one tag required per boundary edge")
        for t in self.boundary_tags:
            if t not in TAGS:
                raise MeshError(f"unknown boundary tag {t!r}")
        n_v = self.n_vertices
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= n_v):
            raise MeshError("triangle vertex index out of range")
        if self.boundary_edges.size and (
            self.boundary_edges.min() < 0 or self.boundary_edges.max() >= n_v
        ):
            raise MeshError("boundary edge vertex index out of range")
        areas = triangle_areas(self.vertices, self.triangles)
        if np.any(areas <= GEOM_TOL):
            raise MeshError("non-positive area triangle")
        for b, (edge, tag) in enumerate(zip(self.boundary_edges, self.boundary_tags)):
            if tag == OBSTACLE_TAG:
                continue
            axis = 1 - _SIDE_AXIS[tag]
            level = _SIDE_LEVEL[tag]
            xy = self.vertices[edge]
            if np.max(np.abs(xy[:, axis] - level)) > GEOM_TOL:
                raise MeshError(f"boundary edge {b} tagged {tag} is off its side line")

    def _trace(self, side: str) -> list:
        axis = _SIDE_AXIS[side]
        idx = [b for b, t in enumerate(self.boundary_tags) if t == side]
        lo = [min(self.vertices[self.boundary_edges[b], axis]) for b in idx]
        return [b for _, b in sorted(zip(lo, idx))]

    def _check_traces(self):
        ref = None
        for side in SIDES:
            bp = self.side_breakpoints(side)
            if bp.size < 2 or abs(bp[0]) > GEOM_TOL or abs(bp[-1] - 1.0) > GEOM_TOL:
                raise MeshError(f"side {side} trace does not span [0, 1]")
            if np.any(np.diff(bp) <= GEOM_TOL):
                raise MeshError(f"side {side} trace has a gap or overlap")
            if ref is None:
                ref = bp
            elif ref.size != bp.size or np.max(np.abs(ref - bp)) > GEOM_TOL:
                raise MeshError("side traces do not share a common partition")

    def side_breakpoints(self, side: str) -> np.ndarray:
        """Sorted 1D partition points of one side, including 0 and 1."""
        axis = _SIDE_AXIS[side]
        trace = self._trace(side) if not hasattr(self, "side_trace") else self.side_trace[side]
        if not trace:
            raise MeshError(f"side {side} has no boundary edges")
        pts = [np.sort(self.vertices[self.boundary_edges[b], axis]) for b in trace]
        bp = [pts[0][0]]
        for lo, hi in pts:
            if abs(lo - bp[-1]) > GEOM_TOL:
                raise MeshError(f"side {side} trace has a gap at {bp[-1]:g}")
            bp.append(hi)
        return np.asarray(bp)


def generate_empty_mesh(n_per_side: int) -> ComponentMesh:
    """Structured triangulation of the unit square, n_per_side segments per side."""
    n = int(n_per_side)
    if n < 2:
        raise ValueError("n_per_side must be at least 2")
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def v(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    edges, tags = [], []
    for i in range(n):
        edges.append((v(i, 0), v(i + 1, 0)))
        tags.append("B")
    for j in range(n):
        edges.append((v(n, j), v(n, j + 1)))
        tags.append("R")
    for i in range(n):
        edges.append((v(i + 1, n), v(i, n)))
        tags.append("T")
    for j in range(n):
        edges.append((v(0, j + 1), v(0, j)))
        tags.append("L")
    return ComponentMesh(vertices, np.array(tris), np.array(edges), tuple(tags))


def _outer_ring(n: int) -> np.ndarray:
    """4n points counter-clockwise around the unit square, starting at (0, 0)."""
    t = np.arange(n) / n
    bottom = np.column_stack([t, np.zeros(n)])
    right = np.column_stack([np.ones(n), t])
    top = np.column_stack([1.0 - t, np.ones(n)])
    left = np.column_stack([np.zeros(n), 1.0 - t])
    return np.vstack([bottom, right, top, left])


def generate_obstacle_mesh(n_per_side: int, shape: str, half_width: float) -> ComponentMesh:
    """Unit square minus a centered obstacle (``square`` or polygonal ``circle``).

    The outer boundary trace is identical to ``generate_empty_mesh``'s for the
    same ``n_per_side``; obstacle walls are tagged O.
    """
    n = int(n_per_side)
    if n < 2:
        raise ValueError("n_per_side must be at least 2")
    if shape not in ("square", "circle"):
        raise ValueError(f"unknown obstacle shape {shape!r}")
    hw = float(half_width)
    if not 0.0 < hw < 0.5:
        raise ValueError("obstacle must lie strictly inside the unit square")

    outer = _outer_ring(n)
    center = np.array([0.5, 0.5])
    d = outer - center
    if shape == "square":
        scale = hw / np.max(np.abs(d), axis=1)
    else:
        scale = hw / np.linalg.norm(d, axis=1)
    inner = center + scale[:, None] * d

    n_ring = 4 * n
    n_layers = max(1, int(round(n * (0.5 - hw))))
    fracs = np.linspace(0.0, 1.0, n_layers + 1)
    rings = inner[None, :, :] + fracs[:, None, None] * (outer - inner)[None, :, :]
    vertices = rings.reshape(-1, 2)

    def v(layer, k):
        return layer * n_ring + (k % n_ring)

    tris = []
    for l in range(n_layers):
        for k in range(n_ring):
            a, a2 = v(l, k), v(l, k + 1)
            b, b2 = v(l + 1, k), v(l + 1, k + 1)
            tris.append((a, b, b2))
            tris.append((a, b2, a2))

    edges, tags = [], []
    side_of = ["B"] * n + ["R"] * n + ["T"] * n + ["L"] * n
    for k in range(n_ring):
        edges.append((v(n_layers, k), v(n_layers, k + 1)))
        tags.append(side_of[k])
    for k in range(n_ring):
        edges.append((v(0, k), v(0, k + 1)))
        tags.append(OBSTACLE_TAG)
    return ComponentMesh(vertices, np.array(tris), np.array(edges), tuple(tags))


def build_component_meshes(cfg) -> dict:
    """Mesh of each component named in ``cfg.components``, at ``cfg.n_per_side``
    segments per side with the configured obstacle half widths."""
    meshes = {}
    for name in cfg.components:
        if name == "empty":
            meshes[name] = generate_empty_mesh(cfg.n_per_side)
        elif name == "square":
            meshes[name] = generate_obstacle_mesh(cfg.n_per_side, "square", cfg.square_half_width)
        elif name == "circle":
            meshes[name] = generate_obstacle_mesh(cfg.n_per_side, "circle", cfg.circle_half_width)
        else:
            raise ValueError(
                f"unknown component {name!r}; supported components are "
                "'empty', 'square' and 'circle'"
            )
    return meshes


# --- grid configuration ----------------------------------------------------


@dataclass
class SideBC:
    """Boundary condition of one global side: prescribed velocity or outflow."""

    kind: str                              # "dirichlet" | "neumann"
    velocity: Optional[Callable] = None    # xy (n, 2) -> (n, 2), global coords

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "dirichlet" and self.velocity is None:
            raise ValueError("dirichlet side requires a velocity function")


@dataclass
class GridConfig:
    """A cols-by-rows array of unit components covering [0, cols] x [0, rows]."""

    rows: int
    cols: int
    cell_component: list          # [row][col] -> component name, row 0 at bottom
    viscosity: float
    bc: Mapping                   # side -> SideBC for all four global sides
    forcing: Optional[Callable] = None   # xy (n, 2) -> (n, 2) body force

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must be at least 1x1")
        if self.viscosity <= 0.0:
            raise ValueError("viscosity must be positive")
        if len(self.cell_component) != self.rows or any(
            len(r) != self.cols for r in self.cell_component
        ):
            raise ValueError("cell_component must be rows x cols")
        for side in SIDES:
            if side not in self.bc:
                raise ValueError(f"missing boundary condition for side {side}")
        if not any(self.bc[s].kind == "dirichlet" for s in SIDES):
            raise ValueError("at least one global side must be Dirichlet")

    @property
    def n_subdomains(self) -> int:
        return self.rows * self.cols

    def component_name(self, m: int) -> str:
        return self.cell_component[m // self.cols][m % self.cols]

    def cell_origin(self, m: int) -> np.ndarray:
        return np.array([float(m % self.cols), float(m // self.cols)])

    def subdomain(self, col: int, row: int) -> int:
        return row * self.cols + col

    def validate_components(self, registry: Mapping) -> None:
        for row in self.cell_component:
            for name in row:
                if name not in registry:
                    raise KeyError(f"component {name!r} not in registry")


def match_side_faces(mesh_m: ComponentMesh, mesh_n: ComponentMesh, orientation: str) -> list:
    """Pair the facing boundary edges of two adjacent components.

    Horizontal interfaces pair m's R side with n's L side, vertical ones
    m's T side with n's B side.  Pairs are ordered along the interface.
    """
    if orientation == "H":
        side_m, side_n = "R", "L"
    elif orientation == "V":
        side_m, side_n = "T", "B"
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    bp_m = mesh_m.side_breakpoints(side_m)
    bp_n = mesh_n.side_breakpoints(side_n)
    if bp_m.size != bp_n.size or np.max(np.abs(bp_m - bp_n)) > GEOM_TOL:
        raise MeshError("interface trace mismatch between adjacent components")
    return list(zip(mesh_m.side_trace[side_m], mesh_n.side_trace[side_n]))


def interface_topology(grid: GridConfig) -> list:
    """(m, n, orientation) of every subdomain interface of a grid.

    Horizontal interfaces come first, row by row, then vertical ones.  Face
    pairing is a property of the component configuration, matched once
    when its interface blocks are assembled, so global assembly needs only
    this topology.
    """
    horizontal = [
        (grid.subdomain(col, row), grid.subdomain(col + 1, row), "H")
        for row in range(grid.rows)
        for col in range(grid.cols - 1)
    ]
    return horizontal + [
        (grid.subdomain(col, row), grid.subdomain(col, row + 1), "V")
        for row in range(grid.rows - 1)
        for col in range(grid.cols)
    ]
