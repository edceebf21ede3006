import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_manifolds.fock import NoiseModel, synthesize_mode
from stokes_manifolds.invariants import random_block, spin_half_xi2_gap, stokes_route_gap
from stokes_manifolds.pipeline import DEFAULT_ALPHAS, RunConfig, run_sweep
from stokes_manifolds.polar import ManifoldBlock, parse_manifolds
from stokes_manifolds.stokes import (
    MODE_FULL,
    MODE_PERP,
    MODE_UNDEFINED,
    _moments,
    _pick_directions,
    manifold_stokes_summary,
    quadrature_estimate_xi2,
    total_stokes_summary,
)

from oracles import (
    block_sum_total,
    default_ladder_blocks,
    dense_moments,
    gaussian_total_xi2,
    minimize_variance_single,
    pick_direction_single,
    rotation_matrix,
    spin_matrices,
    stokes_summary_single,
)


class TestMatrices:
    @given(two_j=st.integers(min_value=1, max_value=9))
    @settings(max_examples=9, deadline=None)
    def test_commutators_and_casimir(self, two_j):
        spin = two_j / 2.0
        sx, sy, sz = spin_matrices(spin)
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12
        assert np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) < 1e-12
        casimir = sx @ sx + sy @ sy + sz @ sz
        want = spin * (spin + 1) * np.eye(two_j + 1)
        assert np.max(np.abs(casimir - want)) < 1e-12

    def test_spin_half_is_half_pauli(self):
        sx, sy, sz = spin_matrices(0.5)
        assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(sz, [[0.5, 0], [0, -0.5]])

    def test_rotation_is_unitary(self):
        u = rotation_matrix(1.5, [1.0, 1.0, 0.0], 0.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


def _moment_gap(block):
    mean, second = _moments(block)
    want_mean, want_second = dense_moments(block)
    return max(np.max(np.abs(mean - want_mean)), np.max(np.abs(second - want_second)))


class TestDiagonalMoments:
    """The moments read off diagonals 0, -1 and -2 against dense-matrix traces."""

    def test_random_complex_blocks(self):
        rng = np.random.default_rng(23)
        for two_s in range(1, 49):
            assert _moment_gap(random_block(two_s / 2.0, rng)) < 1e-12, two_s

    @pytest.mark.parametrize("cutoff", [24, 48])
    def test_default_ladder(self, cutoff):
        for block in default_ladder_blocks(cutoff):
            assert _moment_gap(block) < 1e-12, block.spin


class TestStokesRoutes:
    """The sweep's manifold summaries, from the mode diagonals, against
    `moment_stack` on the gathered blocks (`invariants.stokes_route_gap`)."""

    @pytest.mark.parametrize("alphas, cutoff", [(DEFAULT_ALPHAS, 24), (DEFAULT_ALPHAS, 48),
                                                ((0.0, 2.31, 7.0), 160)])
    def test_routes_agree(self, alphas, cutoff):
        config = RunConfig(alphas=alphas, cutoff_h=cutoff, cutoff_v=cutoff, emit=("sector_json",))
        results = run_sweep(config).results
        blocks = [b for res in results for b in res.sector.reported() if b.spin]
        summaries = [s for res in results for s in res.manifold_summaries]
        gap, bound = stokes_route_gap(manifold_stokes_summary(blocks), summaries)
        assert gap <= bound and len(blocks) == len(summaries)
        i = len(summaries) // 2  # one xi^2 a thousand times the bound off is found
        summaries[i] = dataclasses.replace(summaries[i], xi2=summaries[i].xi2 * (1 + 1e-9))
        assert stokes_route_gap(manifold_stokes_summary(blocks), summaries)[0] > 1e-10

    def test_pure_squeezed_vacuum(self):
        # squeezing = antisqueezing at eta 1 gives pure states whose manifolds
        # at alpha 0, all of even N, have gamma_min and xi^2 of 0 up to
        # roundoff: within 8 S ulp of 0 on the scale S/2, as second moments of
        # order S^2 allow; each gap is taken relative to 1 % of shot noise
        # there, not to the roundoff value
        config = RunConfig(alphas=(0.0, 1.13), squeezing_db=3.6, antisqueezing_db=3.6,
                           efficiency=1.0, emit=("sector_json",))
        results = run_sweep(config).results
        blocks = [b for res in results for b in res.sector.reported() if b.spin]
        summaries = [s for res in results for s in res.manifold_summaries]
        vacuum = [b for b in results[0].sector.reported() if b.spin]
        assert [b.photon_number for b in vacuum] == list(range(2, 25, 2))
        eps = np.finfo(float).eps
        for w in manifold_stokes_summary(vacuum):
            assert abs(w.gamma_min) <= 8 * w.spin * eps * w.spin / 2
            assert abs(w.xi2) <= 8 * w.spin * eps
        gap, bound = stokes_route_gap(manifold_stokes_summary(blocks), summaries)
        assert gap <= bound and bound == 1e-12
        i = [b.spin for b in blocks].index(11.0)  # a gamma_min 1e-9 of shot noise off is found
        summaries[i] = dataclasses.replace(summaries[i], gamma_min=1e-9 * 11.0 / 2)
        assert stokes_route_gap(manifold_stokes_summary(blocks), summaries)[0] > 1e-10


class TestManifoldSummary:
    def test_spin_half_always_unity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            summary = manifold_stokes_summary([random_block(0.5, rng)])[0]
            assert spin_half_xi2_gap(summary)[0] < 1e-10

    def test_spin_coherent_state_is_shot_noise(self):
        # |S,S> at S=2: mean (0,0,2), perpendicular variances S/2 = 1
        rho = np.zeros((5, 5), dtype=complex)
        rho[0, 0] = 1.0
        s = manifold_stokes_summary([ManifoldBlock(2.0, 1.0, rho)])[0]
        assert np.allclose(s.mean, [0, 0, 2], atol=1e-12)
        assert s.mode == MODE_PERP
        assert abs(s.gamma_min - 1.0) < 1e-12
        assert abs(s.xi2 - 1.0) < 1e-12

    def test_two_photon_noon_like_block(self):
        # (|1,+1> + |1,-1>)/sqrt(2): zero mean, Var(Sy) = 0
        v = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        s = manifold_stokes_summary([ManifoldBlock(1.0, 1.0, np.outer(v, v))])[0]
        assert np.linalg.norm(s.mean) < 1e-12
        assert s.mode == MODE_FULL
        assert abs(s.gamma_min) < 1e-12
        assert np.allclose(np.abs(s.direction), [0, 1, 0], atol=1e-10)

    def test_vacuum_manifold_undefined(self):
        block = ManifoldBlock(0.0, 1.0, np.array([[1.0]], dtype=complex))
        s = manifold_stokes_summary([block])[0]
        assert s.mode == MODE_UNDEFINED
        assert math.isnan(s.xi2)

    def test_xi2_rotation_invariant(self):
        rng = np.random.default_rng(11)
        for spin in (1.0, 1.5, 2.0):
            block = random_block(spin, rng)
            base = manifold_stokes_summary([block])[0].xi2
            axis = rng.normal(size=3)
            u = rotation_matrix(spin, axis, rng.uniform(0, 2 * math.pi))
            rotated = ManifoldBlock(spin, 1.0, u @ block.block @ u.conj().T)
            assert abs(manifold_stokes_summary([rotated])[0].xi2 - base) < 1e-8

    def test_brute_force_covariance_agreement(self):
        rng = np.random.default_rng(5)
        block = random_block(1.5, rng)
        s = manifold_stokes_summary([block])[0]
        ops = spin_matrices(1.5)
        mean = np.array([np.trace(block.block @ o).real for o in ops])
        gamma = np.empty((3, 3))
        for k in range(3):
            for l in range(3):
                anti = ops[k] @ ops[l] + ops[l] @ ops[k]
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


def _assert_same_summary(got, want):
    assert got.spin == want.spin and got.mode == want.mode
    for field in ("mean", "gamma", "gamma_min", "direction", "xi2"):
        a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


class TestStackedSummaries:
    """One stacked call against the per-block minimiser, bit for bit."""

    @pytest.mark.parametrize("cutoff", [24, 48])
    def test_default_ladder(self, cutoff):
        blocks = default_ladder_blocks(cutoff)
        got = manifold_stokes_summary(blocks)
        assert len(got) == len(blocks)
        for block, summary in zip(blocks, got):
            _assert_same_summary(summary, stokes_summary_single(block))

    def test_ties(self):
        # |S, S>: the perpendicular variances tie; maximally mixed: zero mean
        # and a three-fold tie over the whole space
        coherent = np.zeros((5, 5), dtype=complex)
        coherent[0, 0] = 1.0
        blocks = [ManifoldBlock(2.0, 1.0, coherent),
                  ManifoldBlock(1.5, 1.0, np.eye(4, dtype=complex) / 4.0)]
        got = manifold_stokes_summary(blocks)
        assert [s.mode for s in got] == [MODE_PERP, MODE_FULL]
        for block, summary in zip(blocks, got):
            _assert_same_summary(summary, stokes_summary_single(block))

    def test_spin_zero_in_stack(self):
        rng = np.random.default_rng(29)
        blocks = [random_block(1.0, rng),
                  ManifoldBlock(0.0, 1.0, np.array([[1.0]], dtype=complex)),
                  random_block(2.5, rng)]
        got = manifold_stokes_summary(blocks)
        assert got[1].mode == MODE_UNDEFINED and math.isnan(got[1].xi2)
        for block, summary in zip(blocks, got):
            _assert_same_summary(summary, stokes_summary_single(block))

    def test_empty_stack(self):
        assert manifold_stokes_summary([]) == []

    @pytest.mark.parametrize("alpha", DEFAULT_ALPHAS)
    def test_total_through_the_same_minimiser(self, alpha):
        model = NoiseModel(3.6, 4.4, 0.85)
        total = total_stokes_summary(
            synthesize_mode(model, alpha, 24), synthesize_mode(model, 0.0, 24)
        )
        gamma_min, direction, mode = minimize_variance_single(total.gamma, total.mean, total.spin)
        assert total.mode == mode and total.gamma_min == gamma_min
        assert total.direction.tobytes() == direction.tobytes()


class TestTieRule:
    """The stacked eigenvector choice against the scalar rule, row by row and
    bit for bit, on exact and rounding-level ties."""

    @staticmethod
    def _check(gamma):
        values, vectors = np.linalg.eigh(0.5 * (gamma + gamma.swapaxes(1, 2)))
        gamma_min, best = _pick_directions(values, vectors)
        picked, flipped = set(), 0
        for i in range(len(gamma)):
            want_min, want = pick_direction_single(values[i], vectors[i])
            assert gamma_min[i] == want_min and best[i].tobytes() == want.tobytes(), i
            column = next(j for j in range(len(want))
                          if np.array_equal(np.abs(vectors[i][:, j]), np.abs(want)))
            picked.add(column)
            flipped += not np.array_equal(vectors[i][:, column], want)
        return picked, flipped

    def test_full_space(self):
        # an isotropic covariance (a three-fold tie), exact two-fold ties on
        # each axis pair, the same rotated, where eigh returns an arbitrary
        # basis of the tied space, and the full-space rows of an alpha = 0
        # sweep, whose S = 1/2 row ties three ways
        rng = np.random.default_rng(41)
        exact = [0.7 * np.eye(3), np.diag([0.3, 0.3, 0.9]), np.diag([0.9, 0.3, 0.3]),
                 np.diag([0.3, 0.9, 0.3])]
        rotated = [q @ np.diag(d) @ q.T
                   for q in (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(20))
                   for d in ([0.3, 0.3, 0.9], [0.5, 0.5, 0.5], [0.2, 0.6, 0.6])]
        sweep = run_sweep(RunConfig(alphas=(0.0,)))
        rows = [s.gamma for s in sweep.results[0].manifold_summaries if s.mode == MODE_FULL]
        assert len(rows) == 24
        picked, flipped = self._check(np.array(exact + rotated + rows))
        assert picked == {0, 1, 2} and flipped > 0  # the tie rule chose, not column 0

    def test_plane(self):
        # the 2 x 2 reduced covariances of perpendicular rows: exact and
        # rotated two-fold ties, and distinct values
        rng = np.random.default_rng(43)
        turns = [np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
                 for t in rng.uniform(0, 2 * math.pi, 20)]
        gamma = np.array([0.4 * np.eye(2), np.diag([0.4, 0.9])]
                         + [r @ np.diag(d) @ r.T for r in turns for d in ([0.4, 0.4], [0.4, 0.9])])
        picked, flipped = self._check(gamma)
        assert picked == {0, 1} and flipped > 0

    def test_empty_stack(self):
        gamma_min, best = _pick_directions(np.zeros((0, 3)), np.zeros((0, 3, 3)))
        assert gamma_min.shape == (0,) and best.shape == (0, 3)


class TestTotalSummary:
    def test_pure_alpha0_two_photon_perfect(self):
        model = NoiseModel(3.6, 3.6, 1.0)
        sector = parse_manifolds(
            synthesize_mode(model, 0.0, 20), synthesize_mode(model, 0.0, 20), 10.0
        )
        block = next(b for b in sector.blocks if b.photon_number == 2)
        assert manifold_stokes_summary([block])[0].xi2 < 1e-10

    def test_total_matches_gaussian_closed_form(self):
        model = NoiseModel(3.6, 3.6, 1.0)
        r = model.squeeze_parameter
        alpha = 2.0
        cutoff = 30
        total = total_stokes_summary(
            synthesize_mode(model, alpha, cutoff), synthesize_mode(model, 0.0, cutoff)
        )
        assert abs(total.xi2 - gaussian_total_xi2(alpha, r)) < 1e-5

    def test_raises_when_weight_escapes(self):
        model = NoiseModel(3.6, 4.4, 0.85)
        # the two modes keep 0.052 of the state's trace
        with pytest.raises(ValueError, match="keep only 0.051725"):
            total_stokes_summary(synthesize_mode(model, 3.0, 4), synthesize_mode(model, 0.0, 4))

    @pytest.mark.parametrize(
        "alphas, cutoff_h, cutoff_v",
        [pytest.param(DEFAULT_ALPHAS, c, c, id=f"ladder-{c}-{c}") for c in (24, 48, 160)]
        + [pytest.param((5.0,), 55, 20, id="5.0-55-20"),
           pytest.param(DEFAULT_ALPHAS, 30, 20, id="ladder-30-20")],
    )
    def test_matches_block_sum(self, alphas, cutoff_h, cutoff_v):
        # the block sum gathers every manifold in full, straddling ones included
        model = NoiseModel(3.6, 4.4, 0.85)
        rho_v = synthesize_mode(model, 0.0, cutoff_v)
        for alpha in alphas:
            rho_h = synthesize_mode(model, alpha, cutoff_h)
            got, want = total_stokes_summary(rho_h, rho_v), block_sum_total(rho_h, rho_v)
            assert abs(got.xi2 - want.xi2) <= 1e-13 * abs(want.xi2), alpha
            assert np.max(np.abs(got.gamma - want.gamma)) <= 1e-12, alpha
            assert np.max(np.abs(got.mean - want.mean)) <= 1e-12, alpha
            assert got.spin == pytest.approx(want.spin, rel=1e-14) and got.mode == want.mode


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
        total = total_stokes_summary(
            synthesize_mode(model, alpha, 30), synthesize_mode(model, 0.0, 30)
        )
        assert abs(total.xi2 - gaussian_total_xi2(alpha, r)) < 1e-9

    def test_gaussian_large_alpha_limit(self):
        r = 0.4144
        assert abs(gaussian_total_xi2(1e6, r) - math.exp(-2 * r)) < 1e-9
