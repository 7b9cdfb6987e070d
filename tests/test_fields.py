from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fdmaps import fields
from fdmaps.fields import (analytic_affine, analytic_oscillation,
                           analytic_radial_stretch, derived_to_csv,
                           finite_distortion_report, sample_analytic,
                           wirtinger_derivatives, write_columns)


def test_affine_derivatives_exact(disk3):
    m = sample_analytic(disk3, "affine", 1.0, 1.0 / 3.0)
    d = wirtinger_derivatives(m)
    assert np.allclose(d.fz, 1.0)
    assert np.allclose(d.fzbar, 1.0 / 3.0)
    assert d.jac == pytest.approx(np.full(disk3.n_triangles, 8.0 / 9.0))
    assert d.khs == pytest.approx(np.full(disk3.n_triangles, 2.5))
    assert d.kop == pytest.approx(np.full(disk3.n_triangles, 2.0))
    assert np.allclose(d.mu, 1.0 / 3.0)


def test_identity_is_conformal(disk3):
    d = wirtinger_derivatives(sample_analytic(disk3, "identity"))
    assert np.allclose(d.fz, 1.0)
    assert np.allclose(d.fzbar, 0.0)
    assert np.allclose(d.khs, 2.0)
    assert np.allclose(d.kop, 1.0)
    assert np.allclose(d.mu, 0.0)


def test_analytic_radial_stretch_closed_forms(rng):
    amap = analytic_radial_stretch(2.0)
    z = rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)
    h = 1e-6
    # central finite differences of the closed-form map
    fx = (amap.value(z + h) - amap.value(z - h)) / (2 * h)
    fy = (amap.value(z + 1j * h) - amap.value(z - 1j * h)) / (2 * h)
    fz_fd = 0.5 * (fx - 1j * fy)
    fzbar_fd = 0.5 * (fx + 1j * fy)
    fz, fzbar = amap.derivatives(z)
    assert np.allclose(fz, fz_fd, atol=1e-6)
    assert np.allclose(fzbar, fzbar_fd, atol=1e-6)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_analytic_radial_stretch_pointwise(alpha):
    # z = r e^{i theta} -> r^alpha e^{i theta}: |f_z| = (alpha+1)/2 r^(alpha-1),
    # |f_zbar| = |alpha-1|/2 r^(alpha-1), J = alpha r^(2 alpha - 2), and the
    # distortion (alpha^2+1)/alpha and |mu| = |alpha-1|/(alpha+1) are constant
    r = np.array([0.05, 0.3, 0.7, 1.0, 1.6])
    z = r * np.exp(1j * np.array([0.4, 2.0, -1.1, 3.0, -2.7]))
    fz, fzbar = analytic_radial_stretch(alpha).derivatives(z)
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
        err = np.abs(d.khs - 2.5)[centroids > h]
        medians.append(np.median(err))
    assert medians[0] > medians[1] > medians[2]
    assert medians[-1] < 0.02 * 2.5


def test_oscillation_derivatives(unit_square_16, rng):
    j = 4
    amap = analytic_oscillation(j)
    z = rng.uniform(0.05, 0.95, 20) + 1j * rng.uniform(0.05, 0.95, 20)
    c = np.cos(2 * np.pi * j * z.real)
    fz, fzbar = amap.derivatives(z)
    assert np.allclose(fz, 1.0 + 0.5 * c)
    assert np.allclose(fzbar, 0.5 * c)
    # P1 sampling at a resolved frequency matches the closed form at centroids
    m = sample_analytic(unit_square_16, "oscillation", 2)
    d = wirtinger_derivatives(m)
    assert np.isfinite(d.fz).all()


def test_distortion_report_counts(disk3):
    # fold the disk: f = conj(z) reverses orientation everywhere
    m = sample_analytic(disk3, "identity")
    folded = type(m)(disk3, np.conj(m.values), None)
    rep = finite_distortion_report(wirtinger_derivatives(folded))
    assert rep.bad_count == disk3.n_triangles
    assert rep.bad_area == pytest.approx(disk3.total_area)
    assert not rep.finite_distortion

    good = finite_distortion_report(wirtinger_derivatives(m))
    assert good.bad_count == 0
    assert good.finite_distortion
    assert good.ess_sup_k == pytest.approx(1.0)
    assert good.mean_khs == pytest.approx(2.0)


def test_mu_undefined_marker(disk3):
    # constant map: fz = 0 everywhere, mu undefined
    m = sample_analytic(disk3, "affine", 0.0, 0.0)
    d = wirtinger_derivatives(m)
    assert np.isnan(d.mu).all()


def test_affine_value_and_centroid(disk3):
    amap = analytic_affine(2.0, 0.5j)
    z = 0.3 + 0.4j
    assert amap.value(np.array([z]))[0] == pytest.approx(2.0 * z + 0.5j * np.conj(z))
    m = sample_analytic(disk3, "affine", 2.0, 0.0)
    d = wirtinger_derivatives(m)
    assert np.allclose(d.f_centroid, 2.0 * disk3.centroids())


def test_derived_to_csv(tmp_path, part_folded, csv_reference):
    d = wirtinger_derivatives(part_folded)
    assert np.isinf(d.khs).any() and np.isnan(d.mu).any() and np.isfinite(d.khs).any()
    path = tmp_path / "derived.csv"
    derived_to_csv(d, path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == d.mesh.n_triangles + 1  # header + one row per triangle
    header = ["tri_id", "re_fz", "im_fz", "re_fzbar", "im_fzbar",
              "J", "K_hs", "K_op", "re_mu", "im_mu", "area"]
    expected = [[t, d.fz[t].real, d.fz[t].imag, d.fzbar[t].real, d.fzbar[t].imag,
                 d.jac[t], d.khs[t], d.kop[t], d.mu[t].real, d.mu[t].imag, d.areas[t]]
                for t in range(d.mesh.n_triangles)]
    assert path.read_bytes() == csv_reference(header, expected)


@pytest.mark.parametrize("block_rows", [fields.CSV_BLOCK_ROWS, 1, 4])
def test_write_columns_matches_csv_writer(tmp_path, monkeypatch, csv_reference, block_rows):
    monkeypatch.setattr(fields, "CSV_BLOCK_ROWS", block_rows)
    ints = np.array([0, -3, 2 ** 40, 7, 11])
    floats = [0.1, -0.0, float("inf"), float("nan"), 1e-310]
    extremes = np.array([1e16, -np.inf, 2.5e-5, 123456789.125, np.pi])
    path = tmp_path / "cols.csv"
    write_columns(path, ["i", "x", "y"], [ints, floats, extremes])
    rows = [[int(a), b, float(c)] for a, b, c in zip(ints, floats, extremes)]
    assert path.read_bytes() == csv_reference(["i", "x", "y"], rows)
    write_columns(path, ["i", "x"], [np.arange(0), []])
    assert path.read_bytes() == csv_reference(["i", "x"], [])


def _from_bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(float)


# NaNs csv.writer prints as nan whatever their sign or payload, the two
# infinities, signed zeros and the smallest subnormal
SPECIALS = np.concatenate([
    _from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
               0xFFF0000000000001),
    [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324]])


@pytest.mark.parametrize("block_rows", [fields.CSV_BLOCK_ROWS, 1, 4])
def test_write_columns_repeats_and_specials(tmp_path, monkeypatch, csv_reference, block_rows):
    monkeypatch.setattr(fields, "CSV_BLOCK_ROWS", block_rows)
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
       block_rows=st.sampled_from([1, 3, fields.CSV_BLOCK_ROWS]))
def test_write_columns_property(tmp_path, csv_reference, values, block_rows):
    # every value appears at least twice, in one block or across blocks;
    # each float must still print as csv.writer prints it
    column = values + values[::-1]
    shifted = column[1:] + column[:1]
    path = tmp_path / "prop.csv"
    with mock.patch.object(fields, "CSV_BLOCK_ROWS", block_rows):
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
    # the coefficient pair, the gathered nodal values and the derived arrays
    # of a level-7 disk (98,304 triangles) peak at about 22.5 MiB
    import tracemalloc

    from fdmaps import build_disk_mesh
    mesh = build_disk_mesh(7)
    mapping = sample_analytic(mesh, "affine", 1.0, 0.3)
    mib = 2.0 ** 20
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        wirtinger_derivatives(mapping)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 30 * mib
