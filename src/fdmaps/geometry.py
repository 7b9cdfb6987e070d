"""Triangle meshes of planar domains: unit disk and rectangles.

Meshes are immutable after construction. The disk mesh is a hexagon fan
refined by quadrisection with new boundary midpoints projected radially
onto the unit circle; rectangles are structured grids split along a fixed
diagonal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

MAX_DISK_LEVEL = 10


@dataclass(frozen=True)
class Mesh:
    nodes: np.ndarray            # complex, shape (n,)
    triangles: np.ndarray        # int, shape (m, 3), positively oriented
    boundary_nodes: np.ndarray   # int, sorted
    refinement_level: int
    kind: str                    # "disk" | "rect"
    areas: np.ndarray = field(default=None, repr=False)
    # appended-node -> (parent_a, parent_b) edge of the coarser mesh; empty
    # for base meshes.  Enables prolongation of nodal fields.
    parent_edges: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.areas is None:
            object.__setattr__(self, "areas", signed_areas(self.nodes, self.triangles))
        if self.parent_edges is None:
            object.__setattr__(self, "parent_edges", np.zeros((0, 2), dtype=np.int64))
        for arr in (self.nodes, self.triangles, self.boundary_nodes,
                    self.areas, self.parent_edges):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def total_area(self) -> float:
        return float(np.sum(self.areas))

    def centroids(self) -> np.ndarray:
        return self.nodes[self.triangles].mean(axis=1)

    def is_boundary(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = True
        return mask

    def to_json(self) -> dict:
        return {
            "nodes": [[float(z.real), float(z.imag)] for z in self.nodes],
            "triangles": [[int(a), int(b), int(c)] for a, b, c in self.triangles],
            "boundary": [int(i) for i in self.boundary_nodes],
            "level": int(self.refinement_level),
            "kind": self.kind,
            "parent_edges": [[int(a), int(b)] for a, b in self.parent_edges],
        }

    @staticmethod
    def from_json(doc: dict) -> "Mesh":
        nodes = np.array([complex(x, y) for x, y in doc["nodes"]])
        tris = np.array(doc["triangles"], dtype=np.int64)
        bnd = np.array(doc["boundary"], dtype=np.int64)
        # optional: files written before parent edges were saved lack it
        parents = np.array(doc.get("parent_edges", []), dtype=np.int64).reshape(-1, 2)
        return Mesh(nodes, tris, bnd, int(doc["level"]), doc.get("kind", "disk"),
                    parent_edges=parents)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @staticmethod
    def load(path) -> "Mesh":
        with open(path) as fh:
            return Mesh.from_json(json.load(fh))


def signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    z = nodes[triangles]
    e1 = z[:, 1] - z[:, 0]
    e2 = z[:, 2] - z[:, 0]
    return 0.5 * (np.conj(e1) * e2).imag


def boundary_edges(triangles: np.ndarray):
    """Edges that belong to exactly one triangle, as a set of sorted pairs."""
    count = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(min(a, b)), int(max(a, b)))
            count[key] = count.get(key, 0) + 1
    return {e for e, c in count.items() if c == 1}


def refine_mesh(mesh: Mesh) -> Mesh:
    """Quadrisect every triangle; disk boundary midpoints go radially to |z|=1."""
    nodes = list(mesh.nodes)
    bset = boundary_edges(mesh.triangles)
    on_boundary = set(int(i) for i in mesh.boundary_nodes)
    midpoint = {}
    parent_edges = []

    def mid(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        if key in midpoint:
            return midpoint[key]
        z = 0.5 * (nodes[a] + nodes[b])
        if mesh.kind == "disk" and key in bset:
            z = z / abs(z)
        idx = len(nodes)
        nodes.append(z)
        midpoint[key] = idx
        parent_edges.append(key)
        if key in bset:
            on_boundary.add(idx)
        return idx

    tris = []
    for a, b, c in mesh.triangles:
        a, b, c = int(a), int(b), int(c)
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)])

    return Mesh(
        nodes=np.array(nodes),
        triangles=np.array(tris, dtype=np.int64),
        boundary_nodes=np.array(sorted(on_boundary), dtype=np.int64),
        refinement_level=mesh.refinement_level + 1,
        kind=mesh.kind,
        parent_edges=np.array(parent_edges, dtype=np.int64).reshape(-1, 2),
    )


def build_disk_mesh(refinement_level: int) -> Mesh:
    """Hexagon fan inscribed in the unit circle, quadrisected `level` times."""
    if not (0 <= refinement_level <= MAX_DISK_LEVEL):
        raise ConfigurationError(
            f"disk refinement level must be in [0, {MAX_DISK_LEVEL}], got {refinement_level}"
        )
    rim = np.exp(1j * np.pi * np.arange(6) / 3.0)
    nodes = np.concatenate([[0.0 + 0.0j], rim])
    tris = np.array([(0, k + 1, (k + 1) % 6 + 1) for k in range(6)], dtype=np.int64)
    mesh = Mesh(nodes, tris, np.arange(1, 7, dtype=np.int64), 0, "disk")
    for _ in range(refinement_level):
        mesh = refine_mesh(mesh)
    return mesh


def build_rect_mesh(nx: int, ny: int, corner_lo: complex, corner_hi: complex) -> Mesh:
    """nx-by-ny grid of cells, each split into two triangles along one diagonal."""
    corner_lo = complex(corner_lo)
    corner_hi = complex(corner_hi)
    if nx < 1 or ny < 1:
        raise ConfigurationError("nx and ny must be >= 1")
    if not (corner_hi.real > corner_lo.real and corner_hi.imag > corner_lo.imag):
        raise ConfigurationError("degenerate rectangle: corner_hi must exceed corner_lo")
    xs = np.linspace(corner_lo.real, corner_hi.real, nx + 1)
    ys = np.linspace(corner_lo.imag, corner_hi.imag, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = (X + 1j * Y).ravel()

    def nid(i, j):  # column i, row j
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    bnd = [nid(i, j) for j in range(ny + 1) for i in range(nx + 1)
           if i in (0, nx) or j in (0, ny)]
    return Mesh(nodes, np.array(tris, dtype=np.int64),
                np.array(sorted(bnd), dtype=np.int64), 0, "rect")
