import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    apply_colormap,
    default_ladder_sectors,
    foliation_loop,
    heatmap_loop,
    manifold_parts,
)
from stokes_manifolds.pipeline import write_ppm
from stokes_manifolds.polar import ManifoldBlock, PolarizationSector
from stokes_manifolds.render import COLORMAP, render_foliation, render_heatmap
from stokes_manifolds.sphere import (
    QFunction,
    SphereGrid,
    build_quadrature_grid,
    equator_node,
    husimi_manifold,
    husimi_total,
)


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
        img = apply_colormap(np.full((4, 4), 3.7), vmax=3.7)
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

    @pytest.mark.parametrize("view", ["equirectangular", "x", "y", "z"])
    def test_matches_pixel_by_pixel_sampling(self, view):
        for q in default_ladder_q(48):
            for resolution in ((64, 128), (33, 20)):
                want = heatmap_loop(q, view, resolution)
                assert np.array_equal(render_heatmap(q, view, resolution), want)

    @pytest.mark.parametrize("view", ["equirectangular", "x", "y", "z"])
    @pytest.mark.parametrize("fill", ["zero", "negative", "zero_max_with_negatives"])
    def test_no_positive_sample_paints_entry_zero(self, view, fill):
        # the span is 1 when no sample is positive: every sphere pixel is
        # COLORMAP[0], and the pixels outside an axis view's disk, its corners
        # among them, stay background
        grid = build_quadrature_grid(12)
        row = {"zero": 0.0, "negative": -1e-17,
               "zero_max_with_negatives": np.minimum(np.cos(grid.phi), 0.0)}[fill]
        q = QFunction(grid, np.broadcast_to(row, (grid.n_theta, grid.n_phi)))
        for resolution in ((64, 128), (33, 20)):
            img = render_heatmap(q, view, resolution)
            assert np.array_equal(img, heatmap_loop(q, view, resolution))
            if view == "equirectangular":
                sphere = np.ones(img.shape[:2], dtype=bool)
            else:
                side = min(resolution)
                coords = (np.arange(side) + 0.5) / side * 2.0 - 1.0
                sphere = np.add.outer(coords**2, coords**2) <= 1.0
                assert not sphere[0, 0]
            assert np.all(img[sphere] == COLORMAP[0])
            assert not np.any(img[~sphere])

    @pytest.mark.parametrize("view", ["equirectangular", "z"])
    def test_grid_with_other_theta_nodes_gets_its_own_pixel_map(self, view):
        # same n_phi, theta nodes squeezed toward the north pole: a pixel map
        # cached for the Gauss grid would sample the wrong rows
        gauss = build_quadrature_grid(12)
        theta = gauss.theta**2 / math.pi
        theta.setflags(write=False)
        other = SphereGrid(theta, gauss.phi, gauss.weights, gauss.exactness)
        rows = np.arange(gauss.n_theta, dtype=float)[:, None]
        values = np.broadcast_to(rows, (gauss.n_theta, gauss.n_phi)) + gauss.phi
        for grid in (gauss, other, gauss):
            q = QFunction(grid, values)
            assert np.array_equal(render_heatmap(q, view, (64, 128)),
                                  heatmap_loop(q, view, (64, 128)))
        assert not np.array_equal(render_heatmap(QFunction(gauss, values), view),
                                  render_heatmap(QFunction(other, values), view))


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
        sector = PolarizationSector((block,))
        grid = build_quadrature_grid(4)
        img = render_foliation(husimi_total(sector, grid))
        assert not np.any(img)
        assert np.array_equal(img, foliation_loop(manifold_parts(sector, grid)))


def default_ladder_q(grid_l):
    """Total Q of each default amplitude at cutoff 24, S_max 12."""
    grid = build_quadrature_grid(grid_l)
    return [husimi_total(sector, grid) for sector in default_ladder_sectors(24)]


def parts_q(part_values, grid_l=8):
    """(spin, map) of manifolds S = 1/2, 1, ... whose maps hold the given
    values, and a total Q whose equator rows are read off those maps."""
    grid = build_quadrature_grid(grid_l)
    parts = tuple(
        ((i + 1) / 2.0,
         QFunction(grid, np.broadcast_to(np.asarray(v, dtype=float), (grid.n_theta, grid.n_phi))))
        for i, v in enumerate(part_values)
    )
    equator = np.stack([p.values[equator_node(grid)] for _, p in parts])
    total = QFunction(grid, np.zeros((grid.n_theta, grid.n_phi)),
                      spins=tuple(spin for spin, _ in parts), equator=equator)
    return total, parts


class TestFoliationPixels:
    """render_foliation, drawn from the total's equator rows, gives the pixels
    of the ring-by-ring loop over the full manifold maps."""

    @pytest.mark.parametrize("grid_l", [48, 96])
    def test_default_ladder(self, grid_l):
        grid = build_quadrature_grid(grid_l)
        for sector in default_ladder_sectors(24):
            q = husimi_total(sector, grid)
            parts = manifold_parts(sector, grid)
            for side in (128, 256, 16):
                assert np.array_equal(render_foliation(q, side), foliation_loop(parts, side))

    def test_one_ring(self):
        blocks = (ManifoldBlock(0.0, 0.5, np.eye(1, dtype=complex)),
                  ManifoldBlock(0.5, 0.5, np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)))
        sector = PolarizationSector(blocks)
        grid = build_quadrature_grid(8)
        img = render_foliation(husimi_total(sector, grid), 128)
        assert np.array_equal(img, foliation_loop(manifold_parts(sector, grid), 128))
        assert np.any(img)

    def test_zero_and_negative_ring_maxima(self):
        # rings whose samples are all zero, all negative, mixed, and positive
        grid_l = 8
        n_phi = 2 * grid_l + 1
        ramp = np.linspace(-1.0, 2.0, n_phi)
        q, parts = parts_q([0.0, -0.5, ramp, -ramp, 0.3], grid_l)
        img = render_foliation(q, 128)
        assert np.array_equal(img, foliation_loop(parts, 128))
        assert np.any(np.all(img == COLORMAP[0], axis=-1))

    def test_all_samples_zero(self):
        q, parts = parts_q([0.0] * 4)
        img = render_foliation(q, 96)
        assert np.array_equal(img, foliation_loop(parts, 96))
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
