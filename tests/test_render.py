import math
import tracemalloc

import numpy as np
import pytest

from oracles import foliation_loop
from stokes_manifolds.fock import NoiseModel, synthesize_mode
from stokes_manifolds.pipeline import DEFAULT_ALPHAS
from stokes_manifolds.polar import ManifoldBlock, PolarizationSector, parse_manifolds
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
        img = render_foliation(husimi_total(sector, grid), side=128)
        assert img.shape == (128, 128, 3)
        # center stays background (S = 0 carries no ring), rings are colored
        assert tuple(img[64, 64]) == (0, 0, 0)
        assert np.any(np.any(img != 0, axis=-1))

    def test_empty_sector(self):
        block = ManifoldBlock(0.0, 1.0, np.array([[1.0]], dtype=complex))
        q = husimi_total(PolarizationSector((block,)), build_quadrature_grid(4))
        img = render_foliation(q)
        assert not np.any(img)
        assert np.array_equal(img, foliation_loop(q))


def default_ladder_q(grid_l):
    """Total Q of each default amplitude at cutoff 24, S_max 12."""
    model = NoiseModel(3.6, 4.4, 0.85)
    rho_v = synthesize_mode(model, 0.0, 24)
    grid = build_quadrature_grid(grid_l)
    return [husimi_total(parse_manifolds(synthesize_mode(model, a, 24), rho_v, 12.0), grid)
            for a in DEFAULT_ALPHAS]


def parts_q(part_values, grid_l=8):
    """A total Q whose manifold parts, S = 1/2, 1, ..., hold the given values."""
    grid = build_quadrature_grid(grid_l)
    parts = tuple(
        QFunction(grid, np.broadcast_to(np.asarray(v, dtype=float), (grid.n_theta, grid.n_phi)),
                  spin=(i + 1) / 2.0)
        for i, v in enumerate(part_values)
    )
    return QFunction(grid, np.zeros((grid.n_theta, grid.n_phi)), parts=parts)


class TestFoliationPixels:
    """render_foliation draws the pixels of the ring-by-ring loop it replaced."""

    @pytest.mark.parametrize("grid_l", [48, 96])
    def test_default_ladder(self, grid_l):
        for q in default_ladder_q(grid_l):
            for side in (128, 256, 16):
                assert np.array_equal(render_foliation(q, side), foliation_loop(q, side))

    def test_one_ring(self):
        blocks = (ManifoldBlock(0.0, 0.5, np.eye(1, dtype=complex)),
                  ManifoldBlock(0.5, 0.5, np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)))
        q = husimi_total(PolarizationSector(blocks), build_quadrature_grid(8))
        img = render_foliation(q, 128)
        assert np.array_equal(img, foliation_loop(q, 128))
        assert np.any(img)

    def test_zero_and_negative_ring_maxima(self):
        # rings whose samples are all zero, all negative, mixed, and positive
        grid_l = 8
        n_phi = 2 * grid_l + 1
        ramp = np.linspace(-1.0, 2.0, n_phi)
        q = parts_q([0.0, -0.5, ramp, -ramp, 0.3], grid_l)
        img = render_foliation(q, 128)
        assert np.array_equal(img, foliation_loop(q, 128))
        assert np.any(np.all(img == COLORMAP[0], axis=-1))

    def test_all_samples_zero(self):
        q = parts_q([0.0] * 4)
        img = render_foliation(q, 96)
        assert np.array_equal(img, foliation_loop(q, 96))
        assert np.all(np.all(img == COLORMAP[0], axis=-1) | np.all(img == 0, axis=-1))

    def test_peak_memory(self):
        # the ring-by-ring loop peaked at 3.5 MB at side 256
        q = default_ladder_q(48)[2]
        tracemalloc.start()
        try:
            render_foliation(q, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6, peak


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
