import math

import numpy as np
import pytest

from stokes_manifolds.polar import ManifoldBlock, PolarizationSector
from stokes_manifolds.render import (
    COLORMAP,
    apply_colormap,
    render_foliation,
    render_heatmap,
    write_ppm,
)
from stokes_manifolds.sphere import QFunction, build_quadrature_grid, husimi_manifold, husimi_total


def highest_weight_q(spin=2.0, degree=12):
    grid = build_quadrature_grid(degree)
    dim = round(2 * spin) + 1
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return husimi_manifold(ManifoldBlock(spin, 1.0, rho), grid)


class TestColormap:
    def test_table_shape_and_endpoints(self):
        assert COLORMAP.shape == (256, 3)
        assert tuple(COLORMAP[0]) == (68, 1, 84)
        assert tuple(COLORMAP[255]) == (253, 231, 37)

    def test_deterministic(self):
        vals = np.linspace(0, 1, 17).reshape(1, 17)
        a = apply_colormap(vals)
        b = apply_colormap(vals)
        assert np.array_equal(a, b)

    def test_constant_field_single_color(self):
        img = apply_colormap(np.full((4, 4), 3.7), vmin=0.0, vmax=3.7)
        assert np.all(img == COLORMAP[255])


class TestHeatmaps:
    def test_equirectangular_shape(self):
        img = render_heatmap(highest_weight_q(), "equirectangular", (64, 128))
        assert img.shape == (64, 128, 3)
        assert img.dtype == np.uint8

    def test_constant_q_uniform_image(self):
        grid = build_quadrature_grid(6)
        q = QFunction(grid, np.full((grid.n_theta, grid.n_phi), 0.3))
        img = render_heatmap(q, "equirectangular", (32, 64))
        assert np.all(img == img[0, 0])

    def test_pole_state_bright_top_rows(self):
        # |S,S> concentrates at theta = 0, which is the top image row
        img = render_heatmap(highest_weight_q(), "equirectangular", (64, 128))
        bright = COLORMAP[255]
        assert np.any(np.all(img[0] == bright, axis=-1))
        assert not np.any(np.all(img[-1] == bright, axis=-1))

    def test_axis_view_z_centered_disk(self):
        img = render_heatmap(highest_weight_q(), "z", (64, 64))
        assert img.shape == (64, 64, 3)
        # corners outside the unit disk stay background
        assert tuple(img[0, 0]) == (0, 0, 0)
        # the pole maps to the disk center and is the brightest pixel
        center = img[31:33, 31:33].reshape(-1, 3)
        assert any(tuple(px) == tuple(COLORMAP[255]) for px in center)

    def test_unknown_projection(self):
        with pytest.raises(ValueError):
            render_heatmap(highest_weight_q(), "mercator")


class TestFoliation:
    def test_ring_composite(self):
        blocks = []
        for two_j in range(0, 5):
            dim = two_j + 1
            blocks.append(
                ManifoldBlock(two_j / 2.0, 0.2, np.eye(dim, dtype=complex) / dim)
            )
        sector = PolarizationSector(tuple(blocks))
        grid = build_quadrature_grid(8)
        img = render_foliation(husimi_total(sector, grid), "z", side=128)
        assert img.shape == (128, 128, 3)
        # center stays background (S = 0 carries no ring), rings are colored
        assert tuple(img[64, 64]) == (0, 0, 0)
        assert np.any(np.any(img != 0, axis=-1))

    def test_empty_sector(self):
        block = ManifoldBlock(0.0, 1.0, np.array([[1.0]], dtype=complex))
        q = husimi_total(PolarizationSector((block,)), build_quadrature_grid(4))
        img = render_foliation(q)
        assert not np.any(img)


class TestPpm:
    def test_header_and_payload(self, tmp_path):
        img = np.zeros((2, 3, 3), dtype=np.uint8)
        img[0, 1] = (10, 20, 30)
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert data[11:] == img.tobytes()

    def test_rejects_bad_array(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(np.zeros((4, 4)), tmp_path / "bad.ppm")
