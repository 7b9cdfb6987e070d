from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fdmaps import geometry
from fdmaps.errors import ConfigurationError
from fdmaps.fields import (AnalyticMap, MappingField, analytic_affine, analytic_oscillation,
                           analytic_radial_stretch, derived_to_csv, distinct_real_parts,
                           distortions, sample_analytic, wirtinger_derivatives,
                           write_columns)


def test_affine_derivatives_exact(disk3):
    m = sample_analytic(disk3, "affine", 1.0, 1.0 / 3.0)
    d = wirtinger_derivatives(m)
    assert np.allclose(d.fz, 1.0)
    assert np.allclose(d.fzbar, 1.0 / 3.0)
    jac, khs, kop, mu = distortions(d.fz, d.fzbar)
    assert jac == pytest.approx(np.full(disk3.n_triangles, 8.0 / 9.0))
    assert khs == pytest.approx(np.full(disk3.n_triangles, 2.5))
    assert kop == pytest.approx(np.full(disk3.n_triangles, 2.0))
    assert np.allclose(mu, 1.0 / 3.0)


def test_identity_is_conformal(disk3):
    d = wirtinger_derivatives(sample_analytic(disk3, "identity"))
    assert np.allclose(d.fz, 1.0)
    assert np.allclose(d.fzbar, 0.0)
    _, khs, kop, mu = distortions(d.fz, d.fzbar)
    assert np.allclose(khs, 2.0)
    assert np.allclose(kop, 1.0)
    assert np.allclose(mu, 0.0)


def test_analytic_radial_stretch_closed_forms(rng):
    amap = analytic_radial_stretch(2.0)
    z = rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)
    h = 1e-6
    # central finite differences of the closed-form map
    fx = (amap.value(z + h) - amap.value(z - h)) / (2 * h)
    fy = (amap.value(z + 1j * h) - amap.value(z - 1j * h)) / (2 * h)
    fz_fd = 0.5 * (fx - 1j * fy)
    fzbar_fd = 0.5 * (fx + 1j * fy)
    _, fz, fzbar = amap.jet(z)
    assert np.allclose(fz, fz_fd, atol=1e-6)
    assert np.allclose(fzbar, fzbar_fd, atol=1e-6)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_analytic_radial_stretch_pointwise(alpha):
    # z = r e^{i theta} -> r^alpha e^{i theta}: |f_z| = (alpha+1)/2 r^(alpha-1),
    # |f_zbar| = |alpha-1|/2 r^(alpha-1), J = alpha r^(2 alpha - 2), and the
    # distortion (alpha^2+1)/alpha and |mu| = |alpha-1|/(alpha+1) are constant
    r = np.array([0.05, 0.3, 0.7, 1.0, 1.6])
    z = r * np.exp(1j * np.array([0.4, 2.0, -1.1, 3.0, -2.7]))
    _, fz, fzbar = analytic_radial_stretch(alpha).jet(z)
    fz_abs, fzbar_abs = np.abs(fz), np.abs(fzbar)
    jac = fz_abs ** 2 - fzbar_abs ** 2
    np.testing.assert_allclose(fz_abs, (alpha + 1.0) / 2.0 * r ** (alpha - 1.0), rtol=1e-12)
    np.testing.assert_allclose(fzbar_abs, abs(alpha - 1.0) / 2.0 * r ** (alpha - 1.0),
                               rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(jac, alpha * r ** (2.0 * alpha - 2.0), rtol=1e-12)
    np.testing.assert_allclose(2.0 * (fz_abs ** 2 + fzbar_abs ** 2) / jac,
                               (alpha ** 2 + 1.0) / alpha, rtol=1e-12)
    np.testing.assert_allclose(fzbar_abs / fz_abs, abs(alpha - 1.0) / (alpha + 1.0),
                               rtol=1e-12, atol=1e-300)


def test_sampled_stretch_distortion_converges():
    medians = []
    for level in (3, 4, 5):
        import fdmaps
        mesh = fdmaps.build_disk_mesh(level)
        d = wirtinger_derivatives(sample_analytic(mesh, "radial_stretch", 2.0))
        centroids = np.abs(mesh.centroids())
        h = 2.0 ** (-level)
        err = np.abs(distortions(d.fz, d.fzbar)[1] - 2.5)[centroids > h]
        medians.append(np.median(err))
    assert medians[0] > medians[1] > medians[2]
    assert medians[-1] < 0.02 * 2.5


def test_oscillation_derivatives(unit_square_16, rng):
    j = 4
    amap = analytic_oscillation(j)
    z = rng.uniform(0.05, 0.95, 20) + 1j * rng.uniform(0.05, 0.95, 20)
    c = np.cos(2 * np.pi * j * z.real)
    _, fz, fzbar = amap.jet(z)
    assert np.allclose(fz, 1.0 + 0.5 * c)
    assert np.allclose(fzbar, 0.5 * c)
    # P1 sampling at a resolved frequency matches the closed form at centroids
    m = sample_analytic(unit_square_16, "oscillation", 2)
    d = wirtinger_derivatives(m)
    assert np.isfinite(d.fz).all()


@pytest.mark.parametrize("amap", [analytic_affine(1.0 + 0.5j, 0.3 - 0.2j), analytic_oscillation(5),
                                  *(analytic_radial_stretch(a) for a in (0.5, 1.0, 2.0))],
                         ids=["affine", "oscillation", "stretch-0.5", "stretch-1", "stretch-2"])
def test_jet_values_are_the_values_bit_for_bit(amap, rng):
    # the sweep reads f from the jet, the mollifier from value: one formula,
    # the origin (where the stretch's power is not taken) among the points
    z = np.concatenate([[0j], rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)])
    z = z.reshape(3, 67)
    f, fz, fzbar = amap.jet(z)
    assert f.shape == fz.shape == fzbar.shape == z.shape
    assert f.tobytes() == amap.value(z).tobytes()


@pytest.mark.parametrize("amap", [analytic_affine(1.0 + 0.5j, 0.3 - 0.2j),
                                  *(analytic_radial_stretch(a) for a in (0.5, 1.0, 2.0))],
                         ids=["affine", "stretch-0.5", "stretch-1", "stretch-2"])
def test_values_written_in_place_are_the_values(amap, rng):
    # the mollifier evaluates each block over its shifted points, with a
    # longer block of scratch: the same bytes as the allocating call
    z = np.concatenate([[0j], rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)])
    z = z.reshape(3, 67)
    block = z.copy()
    assert amap.value(block, out=block, work=np.full(z.size + 5, np.nan + 0j)) is block
    assert block.tobytes() == amap.value(z).tobytes()


def _stretch_formulas(alpha):
    def jet(z):
        r = np.abs(z)
        with np.errstate(invalid="ignore", divide="ignore"):  # 0^(alpha - 1) at the origin
            s = np.where(r > 0, r ** (alpha - 1.0), 0.0)
            phase = np.where(z != 0, z / np.where(z != 0, np.conj(z), 1.0), 0.0)
        return z * s, ((alpha + 1.0) / 2.0) * s + 0j, ((alpha - 1.0) / 2.0) * s * phase
    return jet


def _oscillation_formulas(j):
    w = 2.0 * np.pi * j

    def jet(z):
        half_cos = 0.5 * np.cos(w * z.real)
        return z + np.sin(w * z.real) / w, (1.0 + half_cos) + 0j, half_cos + 0j
    return jet


# each closed form and its jet as one-line formulas of numpy
_JETS = {
    "affine": (analytic_affine(1.0 + 0.5j, 0.3 - 0.2j),
               lambda z: ((1.0 + 0.5j) * z + np.conj(z) * (0.3 - 0.2j),
                          np.full_like(z, 1.0 + 0.5j), np.full_like(z, 0.3 - 0.2j))),
    "oscillation": (analytic_oscillation(5), _oscillation_formulas(5)),
    **{f"stretch-{a}": (analytic_radial_stretch(a), _stretch_formulas(a)) for a in (0.5, 1.0, 2.0)},
}


@pytest.mark.parametrize("name", _JETS)
@pytest.mark.parametrize("rows", [8, 5])
def test_jet_written_in_place_is_the_jet(name, rows, rng):
    # each jet writes its parts in place, its temporaries in the memory of
    # the arrays it returns, and the sweep passes the points' distinct real
    # parts: the jet of a full block of 8 rows and of a shorter last one,
    # with and without x, has the bytes of the one-line formulas.  Columns
    # repeat the real parts and the origin is among the points
    amap, formulas = _JETS[name]
    z = rng.uniform(-1, 1, (8, 6)) + 1j * rng.uniform(-1, 1, (8, 6))
    z[:, 3:] = z[:, :3].real + 1j * rng.uniform(-1, 1, (8, 3))
    z[0, 0] = 0j
    z = z[:rows]
    expected = [a.tobytes() for a in formulas(z)]
    for x in (None, distinct_real_parts(z)):
        assert [a.tobytes() for a in amap.jet(z, x)] == expected


def test_distinct_real_parts_tell_the_zeros_apart():
    z = np.array([[0.5, -0.0, 0.0], [0.0, 0.5, 1.0]]) + 1j
    z.real[0, 1] = -0.0  # adding 1j made it +0.0
    distinct, inverse = distinct_real_parts(z)
    assert len(distinct) == 4
    assert inverse.shape == z.shape
    assert distinct[inverse].tobytes() == np.ascontiguousarray(z.real).tobytes()


def test_closed_form_values_are_sampled_on_first_read(disk3):
    amap = analytic_radial_stretch(1.5)
    field = MappingField(disk3, analytic=amap)
    values = field.values
    assert np.array_equal(values, amap.value(disk3.nodes))
    assert not values.flags.writeable
    assert field.values is values
    # the checks apply at the read
    for value, message in ((lambda z: z[:-1], "length"),
                           (lambda z: np.where(z == 0, np.nan, z), "finite")):
        field = MappingField(disk3, analytic=AnalyticMap(value, amap.jet))
        with pytest.raises(ConfigurationError, match=message):
            field.values
    with pytest.raises(ConfigurationError):
        MappingField(disk3)


def test_mu_undefined_marker(disk3):
    # constant map: fz = 0 everywhere, mu undefined
    m = sample_analytic(disk3, "affine", 0.0, 0.0)
    d = wirtinger_derivatives(m)
    assert np.isnan(distortions(d.fz, d.fzbar)[3]).all()


def test_affine_value_and_centroid(disk3):
    amap = analytic_affine(2.0, 0.5j)
    z = 0.3 + 0.4j
    assert amap.value(np.array([z]))[0] == pytest.approx(2.0 * z + 0.5j * np.conj(z))
    m = sample_analytic(disk3, "affine", 2.0, 0.0)
    d = wirtinger_derivatives(m)
    assert np.allclose(d.f_centroid, 2.0 * disk3.centroids())


def test_derived_to_csv(tmp_path, part_folded, csv_reference):
    d = wirtinger_derivatives(part_folded)
    path = tmp_path / "derived.csv"
    derived_to_csv(d, path)
    jac, khs, kop, mu = distortions(d.fz, d.fzbar)
    assert np.isinf(khs).any() and np.isnan(mu).any() and np.isfinite(khs).any()
    rows = path.read_text().strip().splitlines()
    assert len(rows) == d.mesh.n_triangles + 1  # header + one row per triangle
    header = ["tri_id", "re_fz", "im_fz", "re_fzbar", "im_fzbar",
              "J", "K_hs", "K_op", "re_mu", "im_mu", "area"]
    expected = [[t, d.fz[t].real, d.fz[t].imag, d.fzbar[t].real, d.fzbar[t].imag,
                 jac[t], khs[t], kop[t], mu[t].real, mu[t].imag, d.areas[t]]
                for t in range(d.mesh.n_triangles)]
    assert path.read_bytes() == csv_reference(header, expected)


def test_derived_to_csv_does_not_depend_on_the_block(tmp_path, part_folded, triangle_block):
    d = wirtinger_derivatives(part_folded)
    derived_to_csv(d, tmp_path / "derived.csv")
    with mock.patch.object(geometry, "BLOCK_ROWS", 2 ** 62):
        derived_to_csv(d, tmp_path / "whole.csv")
    assert (tmp_path / "derived.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("block_rows", [geometry.BLOCK_ROWS, 1, 4])
def test_write_columns_matches_csv_writer(tmp_path, monkeypatch, csv_reference, block_rows):
    monkeypatch.setattr(geometry, "BLOCK_ROWS", block_rows)
    ints = np.array([0, -3, 2 ** 40, 7, 11])
    floats = [0.1, -0.0, float("inf"), float("nan"), 1e-310]
    extremes = np.array([1e16, -np.inf, 2.5e-5, 123456789.125, np.pi])
    path = tmp_path / "cols.csv"
    write_columns(path, ["i", "x", "y"], [ints, floats, extremes])
    rows = [[int(a), b, float(c)] for a, b, c in zip(ints, floats, extremes)]
    assert path.read_bytes() == csv_reference(["i", "x", "y"], rows)
    write_columns(path, ["i", "x"], [np.arange(0), []])
    assert path.read_bytes() == csv_reference(["i", "x"], [])


@pytest.mark.parametrize("write_rows", [1, 3, 8, 1000])
def test_write_columns_does_not_depend_on_the_write_size(tmp_path, monkeypatch,
                                                         csv_reference, write_rows):
    # blocks of 8 rows, written in pieces that divide them, do not, or
    # exceed them; the last block is partial
    from fdmaps import fields
    monkeypatch.setattr(geometry, "BLOCK_ROWS", 8)
    monkeypatch.setattr(fields, "WRITE_ROWS", write_rows)
    n = 21
    columns = [np.arange(n), np.linspace(-1.0, 1.0, n), np.arange(n) % 3 / 7.0]
    path = tmp_path / "pieces.csv"
    write_columns(path, ["i", "x", "y"], columns)
    rows = [[int(i), float(x), float(y)] for i, x, y in zip(*columns)]
    assert path.read_bytes() == csv_reference(["i", "x", "y"], rows)


def _from_bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(float)


# NaNs csv.writer prints as nan whatever their sign or payload, the two
# infinities, signed zeros and the smallest subnormal
SPECIALS = np.concatenate([
    _from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
               0xFFF0000000000001),
    [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324]])


@pytest.mark.parametrize("block_rows", [geometry.BLOCK_ROWS, 1, 4])
def test_write_columns_repeats_and_specials(tmp_path, monkeypatch, csv_reference, block_rows):
    monkeypatch.setattr(geometry, "BLOCK_ROWS", block_rows)
    n = 2 * block_rows + 5
    # runs of three: the run holding rows block_rows - 1 and block_rows is
    # split by the first block boundary
    pool = np.array([0.1, 1.0 / 3.0, -2.5e300, 7.0])
    repeated = pool[np.arange(n) // 3 % len(pool)]
    assert repeated[block_rows - 1] == repeated[block_rows]
    zeros = np.where(np.arange(n) % 2, -0.0, 0.0)
    specials = SPECIALS[np.arange(n) % len(SPECIALS)]
    nans = _from_bits(0xFFF8000000000000, 0x7FF8000000000123, 0x7FF8000000000000)[np.arange(n) % 3]
    columns = [np.arange(n) // 2, repeated, zeros, specials, nans]
    header = ["k", "repeated", "zeros", "specials", "nans"]
    path = tmp_path / "cols.csv"
    write_columns(path, header, columns)
    rows = [[int(k), *map(float, vals)] for k, *vals in zip(*columns)]
    assert path.read_bytes() == csv_reference(header, rows)
    assert b",-0.0," in path.read_bytes() and b",0.0," in path.read_bytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.one_of(st.floats(), st.sampled_from(SPECIALS.tolist())),
                       max_size=20),
       block_rows=st.sampled_from([1, 3, geometry.BLOCK_ROWS]))
def test_write_columns_property(tmp_path, csv_reference, values, block_rows):
    # every value appears at least twice, in one block or across blocks;
    # each float must still print as csv.writer prints it
    column = values + values[::-1]
    shifted = column[1:] + column[:1]
    path = tmp_path / "prop.csv"
    with mock.patch.object(geometry, "BLOCK_ROWS", block_rows):
        write_columns(path, ["i", "x", "y"], [np.arange(len(column)), column, shifted])
    rows = list(zip(range(len(column)), column, shifted))
    assert path.read_bytes() == csv_reference(["i", "x", "y"], rows)


def test_write_columns_memory_is_bounded(tmp_path):
    # tracemalloc sees numpy's buffers and the per-block strings; a string
    # table per whole column would hold ~46 MB here (8 blocks)
    import tracemalloc
    n, mib = 65_536, 2.0 ** 20
    rng = np.random.default_rng(7)
    columns = [np.arange(n)] + [rng.standard_normal(n) for _ in range(10)]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        write_columns(tmp_path / "big.csv", [f"c{i}" for i in range(11)], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 24 * mib


def test_wirtinger_derivatives_memory_is_bounded():
    # f_z, f_zbar and the centroid images of a level-7 disk (98,304
    # triangles) take 4.5 MiB; built block by block they are all that is
    # held besides one block of coefficients and temporaries
    import tracemalloc

    from fdmaps import build_disk_mesh
    mesh = build_disk_mesh(7)
    mapping = sample_analytic(mesh, "affine", 1.0, 0.3)
    mapping.values  # the input: its nodes are sampled on first read, before the trace
    mib = 2.0 ** 20
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        d = wirtinger_derivatives(mapping)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (d.fz, d.fzbar, d.f_centroid))
    assert peak - before <= outputs + 2 * mib


def _derived_reference(mapping):
    """Every DerivedField array, and J, the distortions and mu, by the
    whole-array formulas."""
    mesh = mapping.mesh
    z = mesh.nodes[mesh.triangles]
    e1, e2 = z[:, 1] - z[:, 0], z[:, 2] - z[:, 0]
    D = e1 * np.conj(e2) - e2 * np.conj(e1)
    a = np.stack([(np.conj(e1) - np.conj(e2)) / D, np.conj(e2) / D, -np.conj(e1) / D], axis=1)
    b = np.stack([(e2 - e1) / D, -e2 / D, e1 / D], axis=1)
    w = mapping.values[mesh.triangles]
    fz, fzbar = np.einsum("tk,tk->t", a, w), np.einsum("tk,tk->t", b, w)
    P, Q = np.abs(fz) ** 2, np.abs(fzbar) ** 2
    jac = P - Q
    pos = jac > 0
    safe_jac = np.where(pos, jac, 1.0)
    defined = fz != 0
    return {"fz": fz, "fzbar": fzbar, "jac": jac,
            "khs": np.where(pos, 2.0 * (P + Q) / safe_jac, np.inf),
            "kop": np.where(pos, (np.sqrt(P) + np.sqrt(Q)) ** 2 / safe_jac, np.inf),
            "mu": np.where(defined, fzbar / np.where(defined, fz, 1.0), np.nan + 1j * np.nan),
            "f_centroid": w.mean(axis=1)}


def test_derived_field_does_not_depend_on_the_block(part_folded, triangle_block):
    d = wirtinger_derivatives(part_folded)
    reference = _derived_reference(part_folded)
    # the folded rows (inf distortion, nan mu) lie next to finite ones
    assert np.isinf(reference["khs"]).any() and np.isfinite(reference["khs"]).any()
    actual = {"fz": d.fz, "fzbar": d.fzbar, "f_centroid": d.f_centroid,
              **dict(zip(("jac", "khs", "kop", "mu"), distortions(d.fz, d.fzbar)))}
    for name, expected in reference.items():
        assert np.array_equal(actual[name], expected, equal_nan=True), name


def test_certify_memory_and_derived_bytes(tmp_path, csv_reference):
    # the CLI hopf run of a level-7 disk writes derived.csv from per-block
    # distortions and drops the derived field before the residual, so its
    # traced peak is the differential, the star sums and one block (about
    # 15.3 MiB; 22.4 MiB while the whole derived field and its distortions
    # were held through the residual)
    import tracemalloc

    from fdmaps import build_disk_mesh
    from fdmaps.cli import run
    config = {"command": "hopf", "domain": {"kind": "disk", "level": 7},
              "hopf": {"formula": "affine", "args": [[1.0, 0.0], [0.3, 0.0]],
                       "p": 1.0, "N": 8, "inverse": True}}
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert run(config, tmp_path) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 18 * 2.0 ** 20
    mesh = build_disk_mesh(7)
    ref = _derived_reference(sample_analytic(mesh, "affine", 1.0, 0.3))
    columns = [np.arange(mesh.n_triangles), ref["fz"].real, ref["fz"].imag,
               ref["fzbar"].real, ref["fzbar"].imag, ref["jac"], ref["khs"], ref["kop"],
               ref["mu"].real, ref["mu"].imag, mesh.areas]
    header = ["tri_id", "re_fz", "im_fz", "re_fzbar", "im_fzbar",
              "J", "K_hs", "K_op", "re_mu", "im_mu", "area"]
    rows = zip(*(c.tolist() for c in columns))
    assert (tmp_path / "derived.csv").read_bytes() == csv_reference(header, rows)
