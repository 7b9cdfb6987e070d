"""Triangle meshes of planar domains: unit disk and rectangles.

Meshes are immutable after construction. The disk mesh is a hexagon fan
refined by quadrisection with new boundary midpoints projected radially
onto the unit circle; rectangles are structured grids split along a fixed
diagonal.

All constructions are array operations. Refinement finds the unique edges
with one `np.unique` over sorted edge pairs and numbers the midpoints in the
order their edges are first met, triangle by triangle, so node order,
`parent_edges` and boundary nodes are fixed by the coarse triangle list.
An edge used by one triangle only is a boundary edge.

Per-triangle quantities (signed areas, centroids, and downstream the
Wirtinger fields and Hopf factors) are built over blocks of `BLOCK_ROWS`
triangles and written into a preallocated output, so building one holds
the output and one block's temporaries, never a whole-mesh (m, 3) array.
Every formula is elementwise per triangle, so the bits do not depend on
the block size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

MAX_DISK_LEVEL = 10

# Triangles per block of every per-triangle kernel, rows per block of the CSV
# writer, about this many quadrature points per block of a convergence sweep
# (blocks hold whole triangles), twice the points of the mollifier's complex
# temporary, and the distinct values a selection bin keeps.
BLOCK_ROWS = 8192


def blocks(n: int):
    """Consecutive slices of at most BLOCK_ROWS rows that cover range(n)."""
    step = BLOCK_ROWS
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


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

    def centroids(self, tris: slice = slice(None)) -> np.ndarray:
        """Centroids of the triangles `tris`, by default of all of them."""
        triangles = self.triangles[tris]
        out = np.empty(len(triangles), dtype=complex)
        for b in blocks(len(triangles)):
            out[b] = self.nodes[triangles[b]].mean(axis=1)
        return out

    def is_boundary(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = True
        return mask

    def to_json(self) -> dict:
        return {
            "nodes": np.column_stack([self.nodes.real, self.nodes.imag]).tolist(),
            "triangles": self.triangles.tolist(),
            "boundary": self.boundary_nodes.tolist(),
            "level": int(self.refinement_level),
            "kind": self.kind,
            "parent_edges": self.parent_edges.tolist(),
        }

    @staticmethod
    def from_json(doc: dict) -> "Mesh":
        # (n, 2) float rows viewed as complex keep every bit, signed zeros too
        nodes = np.array(doc["nodes"], dtype=float).reshape(-1, 2).view(complex).ravel()
        tris = np.array(doc["triangles"], dtype=np.int64).reshape(-1, 3)
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
    out = np.empty(len(triangles))
    for b in blocks(len(triangles)):
        z = nodes[triangles[b]]
        e1 = z[:, 1] - z[:, 0]
        e2 = z[:, 2] - z[:, 0]
        out[b] = 0.5 * (np.conj(e1) * e2).imag
    return out


def _edge_table(triangles: np.ndarray):
    """Unique undirected edges of a triangle list, in order of first occurrence.

    The 3m directed edges are read triangle by triangle as (a, b), (b, c),
    (c, a).  Returns the unique edges as sorted pairs, numbered by first
    occurrence, the number of each of the 3m edges in that numbering, and how
    many triangles share each unique edge.
    """
    tri = np.asarray(triangles, dtype=np.int64)
    edges = np.stack([tri, np.roll(tri, -1, axis=1)], axis=2).reshape(-1, 2)
    edges.sort(axis=1)
    # one integer key per edge sorts like the pair (lo, hi), and much faster
    base = int(tri.max()) + 1 if tri.size else 1
    _, first, inverse, counts = np.unique(edges[:, 0] * base + edges[:, 1],
                                          return_index=True, return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return edges[first[order]], rank[inverse], counts[order]


def boundary_edges(triangles: np.ndarray):
    """Edges that belong to exactly one triangle, as a set of sorted pairs."""
    unique, _, counts = _edge_table(triangles)
    a, b = unique[counts == 1].T.tolist()
    return set(zip(a, b))


def refine_mesh(mesh: Mesh) -> Mesh:
    """Quadrisect every triangle; disk boundary midpoints go radially to |z|=1.

    Midpoints are appended after the coarse nodes in the order their edges
    are first met, triangle by triangle, and `parent_edges` lists those edges.
    """
    unique, mid, counts = _edge_table(mesh.triangles)
    n = mesh.n_nodes
    on_boundary = counts == 1
    z = 0.5 * (mesh.nodes[unique[:, 0]] + mesh.nodes[unique[:, 1]])
    if mesh.kind == "disk":
        rim = z[on_boundary]
        # np.hypot rounds as abs() of a complex scalar does; np.abs on a
        # complex array may differ in the last bit
        z[on_boundary] = rim / np.hypot(rim.real, rim.imag)
    a, b, c = mesh.triangles.T
    mab, mbc, mca = (n + mid).reshape(-1, 3).T
    tris = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca], axis=1)
    return Mesh(
        nodes=np.concatenate([mesh.nodes, z]),
        triangles=tris.reshape(-1, 3),
        # the coarse boundary is sorted and below n, so this is the sorted union
        boundary_nodes=np.concatenate([mesh.boundary_nodes, n + np.flatnonzero(on_boundary)]),
        refinement_level=mesh.refinement_level + 1,
        kind=mesh.kind,
        parent_edges=unique,
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

    # lower-left node of every cell, row by row; each cell splits along a-c
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    j, i = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    bnd = np.flatnonzero((i == 0) | (i == nx) | (j == 0) | (j == ny))
    return Mesh(nodes, tris.astype(np.int64), bnd.astype(np.int64), 0, "rect")
