import math
import tracemalloc

import numpy as np
import pytest

from stokes_manifolds import sphere
from stokes_manifolds.fock import NoiseModel, synthesize_mode
from stokes_manifolds.invariants import (
    husimi_manifold_gap,
    husimi_parts_gap,
    husimi_total_gap,
    random_block,
)
from stokes_manifolds.pipeline import DEFAULT_ALPHAS, RunConfig, run_sweep
from stokes_manifolds.polar import ManifoldBlock, PolarizationSector, parse_manifolds
from stokes_manifolds.sphere import (
    FOUR_PI,
    _coherent_products,
    build_quadrature_grid,
    equator_node,
    husimi_manifold,
    husimi_rows,
    husimi_total,
    husimi_totals,
)

from oracles import (
    default_ladder_blocks,
    default_ladder_sectors,
    doubled_husimi_map,
    doubled_husimi_total,
    mesh,
    rotation_matrix,
)


def _parts(blocks, maps):
    """sum_S P_S (2S+1)/(4 pi) Q^(S) of the blocks' maps, the sum a total Q adds up."""
    return sum(b.weight * (b.dim / FOUR_PI) * m.values for b, m in zip(blocks, maps, strict=True))


def su2_overlap_amplitudes(spin, theta, phi):
    """Amplitudes <S, m|S, n> for m = S, ..., -S, broadcast over theta/phi:
    sqrt(C(2S, S+m)) cos^{S+m}(theta/2) sin^{S-m}(theta/2) e^{-i m phi}."""
    two_j = round(2 * spin)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = np.arange(two_j + 1)
    up = two_j - k  # exponent S + m
    down = k        # exponent S - m
    log_fact = np.array([math.lgamma(n + 1) for n in range(two_j + 1)])
    log_binom = log_fact[two_j] - log_fact[up] - log_fact[down]
    shape = (two_j + 1,) + np.broadcast_shapes(theta.shape, phi.shape)
    out = np.empty(shape, dtype=complex)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    m = spin - k
    for i in range(two_j + 1):
        mag = np.exp(0.5 * log_binom[i]) * c ** up[i] * s ** down[i]
        out[i] = mag * np.exp(-1j * m[i] * phi)
    return out


def husimi_oracle(block, grid):
    """Q^(S) = <S, n| rho |S, n> contracted over the full amplitude table."""
    th, ph = mesh(grid)
    amps = su2_overlap_amplitudes(block.spin, th, ph)
    return np.einsum("imn,ij,jmn->mn", amps.conj(), block.block, amps, optimize=True).real


def highest_weight_block(spin):
    dim = round(2 * spin) + 1
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return ManifoldBlock(spin, 1.0, rho)


def mixed_block(spin):
    dim = round(2 * spin) + 1
    return ManifoldBlock(spin, 1.0, np.eye(dim, dtype=complex) / dim)


class TestGrid:
    def test_total_weight_is_sphere_area(self):
        grid = build_quadrature_grid(8)
        assert abs(np.sum(grid.weights) - FOUR_PI) < 1e-12

    def test_polynomial_exactness(self):
        grid = build_quadrature_grid(6)
        th, _ = mesh(grid)
        for d in (2, 6, 12):
            got = grid.integrate(np.cos(th) ** d)
            assert abs(got - FOUR_PI / (d + 1)) < 1e-12

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            build_quadrature_grid(-1)

    def test_built_once_per_degree(self):
        grid = build_quadrature_grid(96)
        assert build_quadrature_grid(96) is grid
        assert not any(a.flags.writeable for a in (grid.theta, grid.phi, grid.weights))


class TestAmplitudes:
    def test_normalized_everywhere(self):
        grid = build_quadrature_grid(6)
        th, ph = mesh(grid)
        amps = su2_overlap_amplitudes(1.5, th, ph)
        norms = np.sum(np.abs(amps) ** 2, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_poles(self):
        amps = su2_overlap_amplitudes(1.0, 0.0, 0.0)
        assert np.allclose(amps, [1.0, 0.0, 0.0], atol=1e-15)
        amps = su2_overlap_amplitudes(1.0, math.pi, 0.0)
        assert abs(abs(amps[2]) - 1.0) < 1e-12

    def test_closed_form_spin_half(self):
        theta, phi = 0.9, 1.7
        amps = su2_overlap_amplitudes(0.5, theta, phi)
        assert abs(amps[0] - math.cos(theta / 2) * np.exp(-0.5j * phi)) < 1e-14
        assert abs(amps[1] - math.sin(theta / 2) * np.exp(0.5j * phi)) < 1e-14


class TestHusimiManifold:
    def test_self_overlap_at_pole(self):
        grid = build_quadrature_grid(8)
        q = husimi_manifold(highest_weight_block(2.0), grid)
        th, _ = mesh(grid)
        # largest value at the node closest to theta = 0
        top = np.unravel_index(np.argmax(q.values), q.values.shape)
        assert th[top] == np.min(grid.theta)
        direct = su2_overlap_amplitudes(2.0, 0.0, 0.0)
        assert abs(np.abs(direct[0]) ** 2 - 1.0) < 1e-14

    def test_mixed_block_isotropic(self):
        grid = build_quadrature_grid(8)
        q = husimi_manifold(mixed_block(1.5), grid)
        assert np.max(np.abs(q.values - 0.25)) < 1e-13

    def test_unit_trace_integral(self):
        grid = build_quadrature_grid(16)
        for spin in (0.5, 1.0, 2.5, 4.0):
            block = mixed_block(spin)
            assert husimi_manifold_gap(block, husimi_manifold(block, grid))[0] < 1e-12, spin

    def test_values_in_range(self):
        rng = np.random.default_rng(7)
        grid = build_quadrature_grid(12)
        for spin in (1.0, 2.0, 3.0):
            q = husimi_manifold(random_block(spin, rng), grid)
            assert q.values.min() > -1e-12
            assert q.values.max() < 1.0 + 1e-10

    def test_two_lobe_morphology(self):
        # (|1,+1> + |1,-1>)/sqrt(2) peaks at +-x on the equator, zero at +-y
        v = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        block = ManifoldBlock(1.0, 1.0, np.outer(v, v))
        theta = math.pi / 2
        q_x = _q_at(block, theta, 0.0)
        q_negx = _q_at(block, theta, math.pi)
        q_y = _q_at(block, theta, math.pi / 2)
        # the antipodal maxima reach the state's peak overlap of 1/2
        assert abs(q_x - 0.5) < 1e-12 and abs(q_negx - 0.5) < 1e-12
        assert q_y < 1e-12

    def test_rotational_covariance(self):
        rng = np.random.default_rng(19)
        grid = build_quadrature_grid(16)
        spin = 2.0
        block = random_block(spin, rng)
        # rotate about z by delta: Q_rot(theta, phi) = Q(theta, phi - delta)
        delta = 2.0 * math.pi * 3 / grid.n_phi
        u = rotation_matrix(spin, [0, 0, 1], delta)
        rot = ManifoldBlock(spin, 1.0, u @ block.block @ u.conj().T)
        q = husimi_manifold(block, grid).values
        q_rot = husimi_manifold(rot, grid).values
        assert np.max(np.abs(q_rot - np.roll(q, 3, axis=1))) < 1e-10

    def test_grid_too_coarse_raises(self):
        grid = build_quadrature_grid(4)
        with pytest.raises(ValueError, match="exactness"):
            husimi_manifold(mixed_block(2.0), grid)

    @pytest.mark.parametrize("cutoff,degree", [(24, 48), (24, 96), (48, 96)])
    def test_matches_oracle_on_default_ladder(self, cutoff, degree):
        grid = build_quadrature_grid(degree)
        for block in default_ladder_blocks(cutoff):
            q = husimi_manifold(block, grid).values
            assert np.max(np.abs(q - husimi_oracle(block, grid))) < 1e-13, block.spin

    def test_matches_oracle_on_complex_blocks(self):
        # complex coherences exercise the sign of e^{iq phi} and Im F_q
        rng = np.random.default_rng(41)
        grid = build_quadrature_grid(96)
        for spin in (0.5, 1.0, 2.5, 6.0, 12.0, 24.0):
            block = random_block(spin, rng)
            q = husimi_manifold(block, grid).values
            assert np.max(np.abs(q - husimi_oracle(block, grid))) < 1e-13, spin

    def test_peak_memory_has_no_amplitude_table(self):
        # a (2S+1) x n_theta x n_phi complex table at 2S=24, L=96 alone is 7.5 MB
        grid = build_quadrature_grid(96)
        block = random_block(12.0, np.random.default_rng(5))
        tracemalloc.start()
        try:
            husimi_manifold(block, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak


def _q_at(block, theta, phi):
    amps = su2_overlap_amplitudes(block.spin, np.array(theta), np.array(phi))
    return float(np.real(amps.conj() @ block.block @ amps))


class TestHusimiTotal:
    def test_vacuum_sector_constant(self):
        sector_block = ManifoldBlock(0.0, 1.0, np.array([[1.0]], dtype=complex))
        sector = PolarizationSector((sector_block,))
        grid = build_quadrature_grid(4)
        q = husimi_total(sector, grid)
        assert np.max(np.abs(q.values - 1.0 / FOUR_PI)) < 1e-14

    def test_integral_equals_captured_weight(self):
        model = NoiseModel(3.6, 4.4, 0.85)
        sector = parse_manifolds(
            synthesize_mode(model, 1.13, 12), synthesize_mode(model, 0.0, 12), 6.0
        )
        grid = build_quadrature_grid(24)
        assert husimi_total_gap(sector, husimi_total(sector, grid))[0] < 1e-10
        # a narrower max_spin sums the reported manifolds up to it
        assert husimi_total_gap(sector, husimi_total(sector, grid, max_spin=4.0))[0] < 1e-10
        assert len(husimi_total(sector, grid, max_spin=4.0).spins) < len(sector.reported())

    @pytest.mark.parametrize("grid_l", [48, 96])
    def test_summed_rows_match_manifold_maps(self, grid_l):
        # the one-product total against the sum of the per-manifold maps, and
        # each equator row against its manifold map's equator node
        grid = build_quadrature_grid(grid_l)
        eq = equator_node(grid)
        assert grid.theta[eq] == 0.5 * math.pi
        for sector in default_ladder_sectors(24):
            q = husimi_total(sector, grid)
            blocks = sector.reported()
            maps = [husimi_manifold(b, grid) for b in blocks]
            assert husimi_parts_gap(q, _parts(blocks, maps))[0] < 1e-14
            assert q.spins == tuple(b.spin for b in blocks)
            assert q.equator.shape == (len(blocks), grid.n_phi)
            for row, block, part in zip(q.equator, blocks, maps):
                assert np.max(np.abs(row - part.values[eq])) < 1e-15, block.spin

    def test_complex_blocks_match_manifold_maps(self):
        rng = np.random.default_rng(23)
        blocks = [random_block(n / 2.0, rng) for n in range(9)]
        sector = PolarizationSector(tuple(ManifoldBlock(b.spin, 1.0 / 9, b.block)
                                          for b in blocks))
        grid = build_quadrature_grid(16)
        maps = [husimi_manifold(b, grid) for b in sector.reported()]
        parts = _parts(sector.reported(), maps)
        assert husimi_parts_gap(husimi_total(sector, grid), parts)[0] < 1e-14

    @pytest.mark.parametrize("grid_l", [48, 96])
    def test_totals_match_each_sector_alone(self, grid_l):
        # the sweep's one call contracts each layer's live blocks as one
        # stack; each amplitude's total is the one its sector alone gives, up
        # to the same report range, bit for bit, and each equator row is its
        # manifold map's.  The widest report the grid takes is S <= L/4; at
        # cutoff 100, alpha 7 is negligible below N = 11 and alpha 0 above
        # N = 31
        grid = build_quadrature_grid(grid_l)
        for alphas, cutoff, max_spins in [(DEFAULT_ALPHAS, 24, (None, 4.0)),
                                          (DEFAULT_ALPHAS, 48, (grid_l / 4, 4.0)),
                                          ((0.0, 7.0), 100, (grid_l / 4,))]:
            whole = run_sweep(RunConfig(alphas=alphas, cutoff_h=cutoff, cutoff_v=cutoff,
                                        emit=("sector_json",))).results
            for max_spin in max_spins:
                report = run_sweep(RunConfig(alphas=alphas, cutoff_h=cutoff, cutoff_v=cutoff,
                                             s_report_max=max_spin, grid_l=grid_l,
                                             emit=("q_csv",)))
                assert len(report.results) == len(alphas)
                for res, sector in zip(report.results, (w.sector for w in whole)):
                    q, alone = res.q, husimi_total(sector, grid, max_spin)
                    blocks = sector.reported(max_spin)
                    assert q.grid is grid
                    assert q.spins == alone.spins == tuple(b.spin for b in blocks)
                    assert np.array_equal(q.values, alone.values)
                    assert np.array_equal(q.equator, alone.equator)
                    for row, block in zip(q.equator, blocks, strict=True):
                        want = husimi_manifold(block, grid).values[equator_node(grid)]
                        assert np.max(np.abs(row - want)) < 1e-15, (cutoff, block.spin)

    def test_totals_read_no_sector(self, monkeypatch):
        # the sweep's layers alone give every amplitude's total
        def refuse(*args):
            raise AssertionError("a sector was read")

        monkeypatch.setattr(PolarizationSector, "reported", refuse)
        report = run_sweep(RunConfig(emit=("q_csv",)))
        monkeypatch.undo()
        grid = build_quadrature_grid(report.grid_l)
        want = [husimi_total(res.sector, grid) for res in report.results]
        assert [res.q.spins for res in report.results] == [q.spins for q in want]
        for res, alone in zip(report.results, want):
            assert np.array_equal(res.q.values, alone.values)

    def test_totals_without_layers(self):
        # a list of every amplitude's total, formed by the call; an amplitude
        # with no live manifold in the report range has a zero total
        totals = husimi_totals([], 2, build_quadrature_grid(4))
        assert isinstance(totals, list) and len(totals) == 2
        for q in totals:
            assert q.spins == () and q.equator.shape == (0, 9) and not q.values.any()

    def test_coherent_products_peak_memory(self):
        # the gathered c_i and a whole second table of c_{i+q} peaked at
        # 67.4 MB at 2S = 160 on L 320; now c_{i+q} is gathered about
        # CONTRACTION_BYTES at a time next to the 33.5 MB table
        grid = build_quadrature_grid(320)
        _coherent_products(160, grid)  # the per-size arrays, cached
        tracemalloc.start()
        try:
            _coherent_products(160, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 37e6, peak

    def test_coherent_products_same_bits_in_runs(self, monkeypatch):
        # at L 96 the 1225 entries of 2S = 48 are one run; seven at a time
        # they give the same bits
        grid = build_quadrature_grid(96)
        whole = _coherent_products(48, grid)
        monkeypatch.setattr(sphere, "CONTRACTION_BYTES", 8 * grid.n_theta * 7)
        assert np.array_equal(_coherent_products(48, grid), whole)

    def test_rows_take_one_table_per_stack(self, monkeypatch):
        # a stack of one size is one contraction against one table of
        # coherent products, and each block's rows are those it has alone
        grid = build_quadrature_grid(24)
        rng = np.random.default_rng(17)
        blocks = np.stack([random_block(6.0, rng).block for _ in range(5)])
        alone = [husimi_rows(block[None], grid)[0] for block in blocks]
        built = []

        def products(two_j, grid, _original=_coherent_products):
            built.append(two_j)
            return _original(two_j, grid)

        monkeypatch.setattr(sphere, "_coherent_products", products)
        rows = husimi_rows(blocks, grid)
        assert built == [12] and rows.shape == (5, grid.n_theta, 13)
        assert all(np.array_equal(row, want) for row, want in zip(rows, alone))

    def test_rows_peak_memory(self):
        # the rows of one block at 2S = 96 on L 192 peaked at 22.5 MB when the
        # block's whole complex (entries x n_theta) product was formed; now
        # the real (n_theta x entries) coherent products, 7.3 MB, are the
        # largest array held, and their second factor and the contraction
        # each take about CONTRACTION_BYTES more
        grid = build_quadrature_grid(192)
        block = random_block(48.0, np.random.default_rng(13))
        husimi_rows(block.block[None], grid)  # the per-size arrays, cached
        tracemalloc.start()
        try:
            husimi_rows(block.block[None], grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak

    def test_peak_memory_holds_no_manifold_maps(self):
        # summing 25 full (97 x 193) manifold maps peaked at 4.2 MB
        sector = default_ladder_sectors(24)[-1]
        assert len(sector.reported()) == 25
        grid = build_quadrature_grid(96)
        tracemalloc.start()
        try:
            husimi_total(sector, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6, peak

    @pytest.mark.parametrize("cutoff", [24, 48])
    def test_reported_blocks_integrate_at_run_sizes(self, cutoff):
        grid = build_quadrature_grid(96)
        for block in default_ladder_blocks(cutoff):
            assert husimi_manifold_gap(block, husimi_manifold(block, grid))[0] < 1e-12, block.spin


class TestWeightFold:
    """The weight 2 - delta_q0 lives in the q > 0 rows of the Fourier table; the
    maps are, bit for bit, those of rows doubled before the Fourier products."""

    @staticmethod
    def _assert_doubled(sector, grid):
        blocks = sector.reported()
        q = husimi_total(sector, grid)
        assert np.array_equal(q.values, doubled_husimi_total(blocks, grid))
        for block, row in zip(blocks, q.equator, strict=True):
            want = doubled_husimi_map(block, grid)
            assert np.array_equal(husimi_manifold(block, grid).values, want), block.spin
            assert np.array_equal(row, want[equator_node(grid)]), block.spin

    @pytest.mark.parametrize("grid_l", [48, 96])
    def test_default_ladder(self, grid_l):
        for sector in default_ladder_sectors(24):
            self._assert_doubled(sector, build_quadrature_grid(grid_l))

    @pytest.mark.parametrize("grid_l", [16, 48])
    def test_complex_blocks(self, grid_l):
        rng = np.random.default_rng(29)
        blocks = [random_block(n / 2.0, rng) for n in range(9)]
        sector = PolarizationSector(tuple(ManifoldBlock(b.spin, 1.0 / 9, b.block)
                                          for b in blocks))
        self._assert_doubled(sector, build_quadrature_grid(grid_l))

    def test_large_block(self):
        block = random_block(80.0, np.random.default_rng(31))
        self._assert_doubled(PolarizationSector((block,)), build_quadrature_grid(320))
