import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_manifolds.fock import NoiseModel, synthesize_mode
from stokes_manifolds.polar import ManifoldBlock, parse_manifolds
from stokes_manifolds.stokes import (
    MODE_FULL,
    MODE_PERP,
    MODE_UNDEFINED,
    gaussian_total_xi2,
    manifold_stokes_summary,
    quadrature_estimate_xi2,
    rotation_matrix,
    stokes_matrices,
    total_stokes_summary,
)


def random_block(spin, rng):
    dim = round(2 * spin) + 1
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    return ManifoldBlock(spin, 1.0, rho)


class TestMatrices:
    @given(two_j=st.integers(min_value=1, max_value=9))
    @settings(max_examples=9, deadline=None)
    def test_commutators_and_casimir(self, two_j):
        spin = two_j / 2.0
        ops = stokes_matrices(spin)
        sx, sy, sz = ops.vector
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12
        assert np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) < 1e-12
        casimir = sx @ sx + sy @ sy + sz @ sz
        want = spin * (spin + 1) * np.eye(two_j + 1)
        assert np.max(np.abs(casimir - want)) < 1e-12

    def test_spin_half_is_half_pauli(self):
        ops = stokes_matrices(0.5)
        assert np.allclose(ops.sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(ops.sy, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(ops.sz, [[0.5, 0], [0, -0.5]])

    def test_rotation_is_unitary(self):
        u = rotation_matrix(1.5, [1.0, 1.0, 0.0], 0.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


class TestManifoldSummary:
    def test_spin_half_always_unity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = manifold_stokes_summary(random_block(0.5, rng))
            assert abs(s.xi2 - 1.0) < 1e-10

    def test_spin_coherent_state_is_shot_noise(self):
        # |S,S> at S=2: mean (0,0,2), perpendicular variances S/2 = 1
        rho = np.zeros((5, 5), dtype=complex)
        rho[0, 0] = 1.0
        s = manifold_stokes_summary(ManifoldBlock(2.0, 1.0, rho))
        assert np.allclose(s.mean, [0, 0, 2], atol=1e-12)
        assert s.mode == MODE_PERP
        assert abs(s.gamma_min - 1.0) < 1e-12
        assert abs(s.xi2 - 1.0) < 1e-12

    def test_two_photon_noon_like_block(self):
        # (|1,+1> + |1,-1>)/sqrt(2): zero mean, Var(Sy) = 0
        v = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        s = manifold_stokes_summary(ManifoldBlock(1.0, 1.0, np.outer(v, v)))
        assert np.linalg.norm(s.mean) < 1e-12
        assert s.mode == MODE_FULL
        assert abs(s.gamma_min) < 1e-12
        assert np.allclose(np.abs(s.direction), [0, 1, 0], atol=1e-10)

    def test_vacuum_manifold_undefined(self):
        block = ManifoldBlock(0.0, 1.0, np.array([[1.0]], dtype=complex))
        s = manifold_stokes_summary(block)
        assert s.mode == MODE_UNDEFINED
        assert math.isnan(s.xi2)

    def test_rejects_negligible(self):
        block = ManifoldBlock(0.5, 0.0, np.zeros((2, 2), dtype=complex), negligible=True)
        with pytest.raises(ValueError):
            manifold_stokes_summary(block)

    def test_xi2_rotation_invariant(self):
        rng = np.random.default_rng(11)
        for spin in (1.0, 1.5, 2.0):
            block = random_block(spin, rng)
            base = manifold_stokes_summary(block).xi2
            axis = rng.normal(size=3)
            u = rotation_matrix(spin, axis, rng.uniform(0, 2 * math.pi))
            rotated = ManifoldBlock(spin, 1.0, u @ block.block @ u.conj().T)
            assert abs(manifold_stokes_summary(rotated).xi2 - base) < 1e-8

    def test_brute_force_covariance_agreement(self):
        rng = np.random.default_rng(5)
        block = random_block(1.5, rng)
        s = manifold_stokes_summary(block)
        ops = stokes_matrices(1.5)
        mean = np.array([np.trace(block.block @ o).real for o in ops.vector])
        gamma = np.empty((3, 3))
        for k in range(3):
            for l in range(3):
                anti = ops.vector[k] @ ops.vector[l] + ops.vector[l] @ ops.vector[k]
                gamma[k, l] = 0.5 * np.trace(block.block @ anti).real - mean[k] * mean[l]
        assert np.max(np.abs(gamma - s.gamma)) < 1e-12
        # minimum over the plane perpendicular to the mean, dense angular scan
        mhat = mean / np.linalg.norm(mean)
        seed = np.eye(3)[np.argmin(np.abs(mhat))]
        u = np.cross(mhat, seed)
        u /= np.linalg.norm(u)
        v = np.cross(mhat, u)
        angles = np.linspace(0, math.pi, 20001)
        vals = [
            (math.cos(t) * u + math.sin(t) * v) @ gamma @ (math.cos(t) * u + math.sin(t) * v)
            for t in angles
        ]
        assert abs(min(vals) - s.gamma_min) < 1e-7


class TestTotalSummary:
    def test_pure_alpha0_two_photon_perfect(self):
        model = NoiseModel(3.6, 3.6, 1.0)
        sector = parse_manifolds(
            synthesize_mode(model, 0.0, 20), synthesize_mode(model, 0.0, 20)
        )
        block = next(b for b in sector.blocks if b.photon_number == 2)
        assert manifold_stokes_summary(block).xi2 < 1e-10

    def test_total_matches_gaussian_closed_form(self):
        model = NoiseModel(3.6, 3.6, 1.0)
        r = model.squeeze_parameter
        alpha = 2.0
        cutoff = 30
        sector = parse_manifolds(
            synthesize_mode(model, alpha, cutoff), synthesize_mode(model, 0.0, cutoff)
        )
        total = total_stokes_summary(sector)
        assert abs(total.xi2 - gaussian_total_xi2(alpha, r)) < 1e-5

    def test_raises_when_weight_escapes(self):
        model = NoiseModel(3.6, 4.4, 0.85)
        sector = parse_manifolds(
            synthesize_mode(model, 3.0, 4), synthesize_mode(model, 0.0, 4)
        )
        with pytest.raises(ValueError, match="captures"):
            total_stokes_summary(sector, min_captured=0.9)


class TestClosedForms:
    def test_quadrature_estimate_reference_value(self):
        assert abs(quadrature_estimate_xi2(1.13, 0.41) - 0.6206) < 5e-4

    def test_quadrature_estimate_vanishes_at_origin(self):
        assert quadrature_estimate_xi2(0.0, 0.41) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_gaussian_total_matches_numerics_below_crossing(self, alpha):
        # below alpha^2 = sinh(2r)/2 the minimum is the anti-squeezed-quadrature
        # branch Var(Sy) = alpha^2 e^{2r}/4, which is 0 at alpha = 0
        r = 0.41
        db = 20.0 * r / math.log(10.0)  # sq = anti gives nbar = 0 and this r
        model = NoiseModel(db, db, 1.0)
        sector = parse_manifolds(
            synthesize_mode(model, alpha, 30), synthesize_mode(model, 0.0, 30)
        )
        total = total_stokes_summary(sector)
        assert abs(total.xi2 - gaussian_total_xi2(alpha, r)) < 1e-9

    def test_gaussian_large_alpha_limit(self):
        r = 0.4144
        assert abs(gaussian_total_xi2(1e6, r) - math.exp(-2 * r)) < 1e-9
