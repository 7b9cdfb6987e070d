import csv
import io

import numpy as np
import pytest

from fdmaps import build_disk_mesh, build_rect_mesh


@pytest.fixture(scope="session")
def disk3():
    return build_disk_mesh(3)


@pytest.fixture(scope="session")
def disk4():
    return build_disk_mesh(4)


@pytest.fixture(scope="session")
def disk5():
    return build_disk_mesh(5)


@pytest.fixture(scope="session")
def unit_square_16():
    return build_rect_mesh(16, 16, 0.0, 1.0 + 1.0j)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def csv_reference():
    """Bytes csv.writer produces for a header and rows: what every CSV artefact must match."""
    def render(header, rows) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode()
    return render


@pytest.fixture(scope="session")
def part_folded(disk3):
    """Mapping of disk3 that is the identity below Im z = 0.3 and conj(z) above.

    Triangles above the line have J < 0 and triangles across it mix both,
    so derived and Hopf fields carry inf and nan rows next to finite ones.
    """
    from fdmaps.fields import MappingField
    z = disk3.nodes
    return MappingField(disk3, np.where(z.imag > 0.3, np.conj(z), z), None)


@pytest.fixture(params=[1, 7, None], ids=["block1", "block7", "whole"])
def triangle_block(request, monkeypatch):
    """Runs a test with per-triangle blocks of 1 triangle, of 7 (which
    divides the size of no test mesh) and of the whole mesh."""
    from fdmaps import geometry
    monkeypatch.setattr(geometry, "BLOCK_ROWS", request.param or 2 ** 62)
    return request.param
