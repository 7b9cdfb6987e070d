import json

import numpy as np
import pytest

from fdmaps import build_disk_mesh, build_rect_mesh, refine_mesh
from fdmaps.errors import ConfigurationError
from fdmaps.fields import sample_analytic
from fdmaps.geometry import Mesh, boundary_edges, signed_areas
from fdmaps.minimize import prolong


def test_disk_base_mesh_is_hexagon_fan():
    mesh = build_disk_mesh(0)
    assert mesh.n_nodes == 7
    assert mesh.n_triangles == 6
    # hexagon area = 3*sqrt(3)/2
    assert mesh.total_area == pytest.approx(3.0 * np.sqrt(3.0) / 2.0)


def test_disk_area_converges_to_pi():
    errors = []
    for level in range(2, 6):
        mesh = build_disk_mesh(level)
        errors.append(abs(mesh.total_area - np.pi))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3 * np.pi


def test_signed_areas_positive(disk4):
    areas = signed_areas(disk4.nodes, disk4.triangles)
    assert np.all(areas > 0)
    assert areas == pytest.approx(disk4.areas)


def test_boundary_nodes_on_unit_circle(disk4):
    radii = np.abs(disk4.nodes[disk4.boundary_nodes])
    assert radii == pytest.approx(np.ones_like(radii))
    # no interior node may sit on the circle
    interior = np.setdiff1d(np.arange(disk4.n_nodes), disk4.boundary_nodes)
    assert np.all(np.abs(disk4.nodes[interior]) < 1.0 - 1e-12)


def test_boundary_edges_form_single_cycle(disk4):
    edges = boundary_edges(disk4.triangles)
    # each boundary node appears in exactly two boundary edges
    counts = {}
    for a, b in edges:
        counts[a] = counts.get(a, 0) + 1
        counts[b] = counts.get(b, 0) + 1
    assert set(counts.values()) == {2}
    assert sorted(counts) == sorted(disk4.boundary_nodes.tolist())


def test_refinement_quadruples_triangles(disk3):
    fine = refine_mesh(disk3)
    assert fine.n_triangles == 4 * disk3.n_triangles
    assert fine.refinement_level == disk3.refinement_level + 1
    assert fine.parent_edges is not None


def test_refinement_preserves_coarse_nodes(disk3):
    fine = refine_mesh(disk3)
    assert np.allclose(fine.nodes[: disk3.n_nodes], disk3.nodes)


def test_rect_mesh_counts_and_area():
    mesh = build_rect_mesh(4, 3, 0.0, 2.0 + 1.0j)
    assert mesh.n_nodes == 5 * 4
    assert mesh.n_triangles == 2 * 4 * 3
    assert mesh.total_area == pytest.approx(2.0)
    assert mesh.kind == "rect"


def test_rect_mesh_rejects_degenerate_box():
    with pytest.raises(ConfigurationError):
        build_rect_mesh(4, 4, 1.0 + 1.0j, 1.0 + 2.0j)
    with pytest.raises(ConfigurationError):
        build_rect_mesh(0, 4, 0.0, 1.0 + 1.0j)


def test_disk_level_cap():
    with pytest.raises(ConfigurationError):
        build_disk_mesh(11)
    with pytest.raises(ConfigurationError):
        build_disk_mesh(-1)


def test_mesh_json_round_trip(tmp_path, disk3):
    path = tmp_path / "mesh.json"
    disk3.save(path)
    loaded = Mesh.load(path)
    assert np.allclose(loaded.nodes, disk3.nodes)
    assert np.array_equal(loaded.triangles, disk3.triangles)
    assert np.array_equal(loaded.boundary_nodes, disk3.boundary_nodes)
    assert loaded.kind == disk3.kind
    assert loaded.refinement_level == disk3.refinement_level
    assert np.array_equal(loaded.parent_edges, disk3.parent_edges)
    # file is plain JSON
    with open(path) as fh:
        json.load(fh)
    # a reloaded refinement still accepts prolongation from its parent
    fine_path = tmp_path / "fine.json"
    refine_mesh(disk3).save(fine_path)
    fine = Mesh.load(fine_path)
    coarse = sample_analytic(disk3, "affine", 1.0, 0.25)
    prolonged = prolong(coarse, fine)
    assert np.allclose(prolonged.values[:disk3.n_nodes], coarse.values)
    # files written without parent edges still load
    doc = disk3.to_json()
    del doc["parent_edges"]
    assert Mesh.from_json(doc).parent_edges.shape == (0, 2)


def test_centroids_inside_hull(disk4):
    c = disk4.centroids()
    assert np.all(np.abs(c) < 1.0)
    assert len(c) == disk4.n_triangles
