import math

import numpy as np
import pytest

from stokes_manifolds.fock import NoiseModel, synthesize_mode
from stokes_manifolds.polar import ManifoldBlock, parse_manifolds
from stokes_manifolds.sphere import (
    FOUR_PI,
    build_quadrature_grid,
    husimi_manifold,
    husimi_total,
    su2_overlap_amplitudes,
)
from stokes_manifolds.stokes import rotation_matrix


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
        th, _ = grid.mesh()
        for d in (2, 6, 12):
            got = grid.integrate(np.cos(th) ** d)
            assert abs(got - FOUR_PI / (d + 1)) < 1e-12

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            build_quadrature_grid(-1)


class TestAmplitudes:
    def test_normalized_everywhere(self):
        grid = build_quadrature_grid(6)
        th, ph = grid.mesh()
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
        th, _ = grid.mesh()
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
            q = husimi_manifold(mixed_block(spin), grid)
            want = FOUR_PI / (2 * spin + 1)
            assert abs(q.integral() - want) < 1e-12

    def test_values_in_range(self):
        rng = np.random.default_rng(7)
        grid = build_quadrature_grid(12)
        for spin in (1.0, 2.0, 3.0):
            dim = round(2 * spin) + 1
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            q = husimi_manifold(ManifoldBlock(spin, 1.0, rho), grid)
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
        dim = 5
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        block = ManifoldBlock(spin, 1.0, rho)
        # rotate about z by delta: Q_rot(theta, phi) = Q(theta, phi - delta)
        delta = 2.0 * math.pi * 3 / grid.n_phi
        u = rotation_matrix(spin, [0, 0, 1], delta)
        rot = ManifoldBlock(spin, 1.0, u @ rho @ u.conj().T)
        q = husimi_manifold(block, grid).values
        q_rot = husimi_manifold(rot, grid).values
        assert np.max(np.abs(q_rot - np.roll(q, 3, axis=1))) < 1e-10

    def test_grid_too_coarse_raises(self):
        grid = build_quadrature_grid(4)
        with pytest.raises(ValueError, match="exactness"):
            husimi_manifold(mixed_block(2.0), grid)


def _q_at(block, theta, phi):
    amps = su2_overlap_amplitudes(block.spin, np.array(theta), np.array(phi))
    return float(np.real(amps.conj() @ block.block @ amps))


class TestHusimiTotal:
    def test_vacuum_sector_constant(self):
        sector_block = ManifoldBlock(0.0, 1.0, np.array([[1.0]], dtype=complex))
        from stokes_manifolds.polar import PolarizationSector

        sector = PolarizationSector((sector_block,))
        grid = build_quadrature_grid(4)
        q = husimi_total(sector, grid)
        assert np.max(np.abs(q.values - 1.0 / FOUR_PI)) < 1e-14

    def test_integral_equals_captured_weight(self):
        model = NoiseModel(3.6, 4.4, 0.85)
        sector = parse_manifolds(
            synthesize_mode(model, 1.13, 12), synthesize_mode(model, 0.0, 12)
        )
        grid = build_quadrature_grid(24)
        q = husimi_total(sector, grid, max_spin=6.0)
        want = sum(b.weight for b in sector.reported(6.0))
        assert abs(q.integral() - want) < 1e-10
