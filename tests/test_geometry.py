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
    # triangle areas that underflow to 0 or overflow to inf (or nan, where
    # a side overflows): every area must be finite and > 0
    for lo, hi in ((0.0, 1e-200 + 1e-200j), (0.0, 1e300 + 1e300j),
                   (-1e308 - 1e308j, 1e308 + 1e308j)):
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            build_rect_mesh(4, 4, lo, hi)
    assert build_rect_mesh(4, 4, 0.0, 1e-150 + 1e-150j).total_area == pytest.approx(1e-300)


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


def test_areas_and_centroids_do_not_depend_on_the_block(disk4, unit_square_16,
                                                         triangle_block):
    for mesh in (disk4, unit_square_16, build_disk_mesh(3)):
        z = mesh.nodes[mesh.triangles]
        e1, e2 = z[:, 1] - z[:, 0], z[:, 2] - z[:, 0]
        areas = 0.5 * (np.conj(e1) * e2).imag
        assert np.array_equal(signed_areas(mesh.nodes, mesh.triangles), areas)
        assert np.array_equal(mesh.areas, areas)
        assert np.array_equal(mesh.centroids(), z.mean(axis=1))
        assert np.array_equal(mesh.centroids(slice(5, 12)), z[5:12].mean(axis=1))


def _dict_refine_mesh(mesh):
    """Reference: quadrisection with a dict of edge midpoints, one triangle at a time."""
    nodes = list(mesh.nodes)
    count = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(min(a, b)), int(max(a, b)))
            count[key] = count.get(key, 0) + 1
    bset = {e for e, c in count.items() if c == 1}
    on_boundary = set(int(i) for i in mesh.boundary_nodes)
    midpoint, parent_edges, tris = {}, [], []

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            z = 0.5 * (nodes[a] + nodes[b])
            if mesh.kind == "disk" and key in bset:
                z = z / abs(z)
            midpoint[key] = len(nodes)
            nodes.append(z)
            parent_edges.append(key)
            if key in bset:
                on_boundary.add(midpoint[key])
        return midpoint[key]

    for a, b, c in mesh.triangles.tolist():
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)])
    return (np.array(nodes), np.array(tris), np.array(sorted(on_boundary)),
            np.array(parent_edges).reshape(-1, 2), bset)


@pytest.mark.parametrize("coarse", [build_disk_mesh(level) for level in range(4)]
                         + [refine_mesh(build_rect_mesh(3, 2, 0.0, 2.0 + 1.0j))],
                         ids=["disk0", "disk1", "disk2", "disk3", "rect3x2_refined"])
def test_refine_mesh_matches_dict_reference(coarse):
    nodes, tris, bnd, parents, bset = _dict_refine_mesh(coarse)
    fine = refine_mesh(coarse)
    assert np.array_equal(fine.triangles, tris)
    assert np.array_equal(fine.boundary_nodes, bnd)
    assert np.array_equal(fine.parent_edges, parents)
    assert np.max(np.abs(fine.nodes - nodes)) <= 1e-15
    assert boundary_edges(coarse.triangles) == bset


def test_rect_mesh_literal_arrays():
    mesh = build_rect_mesh(3, 2, 0.0, 3.0 + 2.0j)
    assert np.array_equal(mesh.triangles, [
        [0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5], [2, 3, 7], [2, 7, 6],
        [4, 5, 9], [4, 9, 8], [5, 6, 10], [5, 10, 9], [6, 7, 11], [6, 11, 10]])
    assert np.array_equal(mesh.boundary_nodes, [0, 1, 2, 3, 4, 7, 8, 9, 10, 11])
    assert mesh.triangles.dtype == mesh.boundary_nodes.dtype == np.int64
    assert np.all(mesh.areas == 0.5)


@pytest.mark.parametrize("mesh", [build_disk_mesh(3), refine_mesh(build_rect_mesh(3, 2, -1.0, 1.0j))],
                         ids=["disk3", "rect3x2_refined"])
def test_mesh_json_bytes_match_element_wise_writer(tmp_path, mesh):
    reference = {
        "nodes": [[float(z.real), float(z.imag)] for z in mesh.nodes],
        "triangles": [[int(a), int(b), int(c)] for a, b, c in mesh.triangles],
        "boundary": [int(i) for i in mesh.boundary_nodes],
        "level": int(mesh.refinement_level),
        "kind": mesh.kind,
        "parent_edges": [[int(a), int(b)] for a, b in mesh.parent_edges],
    }
    path = tmp_path / "mesh.json"
    mesh.save(path)
    assert path.read_bytes() == json.dumps(reference).encode()
    loaded = Mesh.load(path)
    assert np.array_equal(loaded.nodes, np.array([complex(x, y) for x, y in reference["nodes"]]))
    assert loaded.triangles.dtype == np.int64
