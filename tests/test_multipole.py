import math
import tracemalloc

import numpy as np
import pytest
import sympy.physics.quantum.cg as sympy_cg
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Rational

from stokes_manifolds import multipole
from stokes_manifolds.multipole import (
    CG_TABLE_TOL,
    aggregate_weights,
    cg_table,
    cg_table_deviation,
    multipoles_algebraic,
    multipoles_integral,
    stretched_cg,
)
from stokes_manifolds.invariants import (
    cg_orthonormality,
    dual_route_gap,
    harmonic_orthonormality,
    random_block,
    spherical_harmonic,
)
from stokes_manifolds.polar import ManifoldBlock, PolarizationSector
from stokes_manifolds.sphere import FOUR_PI, build_quadrature_grid

from oracles import (
    clebsch_gordan,
    default_ladder_blocks,
    multipoles_loop,
    natural_cg_table,
    rotation_matrix,
)


class TestClebschGordan:
    def test_scalar_coupling(self):
        for spin in (0.5, 1.0, 2.5):
            assert clebsch_gordan(spin, spin, 0, 0, spin, spin) == pytest.approx(1.0)

    def test_stretched_state(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0)

    def test_singlet(self):
        got = clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0)
        assert abs(got - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_selection_rules(self):
        assert clebsch_gordan(1, 1, 1, 1, 1, 2) == 0.0  # |M| > J
        assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0  # triangle violated
        assert clebsch_gordan(1, 1, 1, -1, 2, 1) == 0.0  # M != m1 + m2

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0.3, 0.1, 0, 0, 0.3, 0.1)
        with pytest.raises(ValueError):
            clebsch_gordan(-1, 0, 0, 0, 1, 0)

    @given(
        two_j1=st.integers(min_value=0, max_value=8),
        two_j2=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_orthogonality(self, two_j1, two_j2):
        j1, j2 = two_j1 / 2.0, two_j2 / 2.0
        two_js = range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)
        for two_ja in two_js:
            for two_jb in two_js:
                ja, jb = two_ja / 2.0, two_jb / 2.0
                m_target = min(ja, jb)
                total = 0.0
                for two_m1 in range(-two_j1, two_j1 + 1, 2):
                    m1 = two_m1 / 2.0
                    m2 = m_target - m1
                    total += clebsch_gordan(j1, m1, j2, m2, ja, m_target) * clebsch_gordan(
                        j1, m1, j2, m2, jb, m_target
                    )
                want = 1.0 if two_ja == two_jb else 0.0
                assert abs(total - want) < 1e-12

    def test_against_symbolic_reference(self):
        cases = [
            (1, 0, 1, 0, 2, 0),
            (1.5, 0.5, 1, -1, 0.5, -0.5),
            (2, 1, 1.5, 0.5, 2.5, 1.5),
            (3, -2, 2, 1, 4, -1),
        ]
        for j1, m1, j2, m2, j, m in cases:
            want = float(
                sympy_cg.CG(
                    Rational(j1), Rational(m1), Rational(j2),
                    Rational(m2), Rational(j), Rational(m),
                ).doit()
            )
            assert abs(clebsch_gordan(j1, m1, j2, m2, j, m) - want) < 1e-14


def _column(table, i_out, i_in):
    """Column of the pair (i_out, i_in), i_in >= i_out, in a diagonal-major table."""
    dim = table.values.shape[0]
    return int(np.flatnonzero(table.pairs == i_out * dim + i_in)[0])


def _entry(table, k, i_out, i_in):
    """C[K, i_out, i_in] of a q >= 0 table; a pair with i_in < i_out is read at
    (2S - i_out, 2S - i_in) by <S -m1; S -m2 | K -M> = (-1)^(2S-K) <S m1; S m2 | K M>."""
    two_s = table.values.shape[0] - 1
    if i_in >= i_out:
        return table.values[k, _column(table, i_out, i_in)]
    return (-1.0) ** (two_s - k) * table.values[k, _column(table, two_s - i_out, two_s - i_in)]


class TestClebschGordanTable:
    def test_matches_racah_oracle(self):
        # every (K, m_out, m_in) entry, zeros included, at each spin a default run uses
        for two_s in range(25):
            spin = two_s / 2.0
            idx = range(two_s + 1)
            want = np.array([
                [[clebsch_gordan(spin, spin - i_out, spin, i_in - spin, k, i_in - i_out)
                  for i_in in idx] for i_out in idx] for k in idx
            ])
            assert np.max(np.abs(natural_cg_table(two_s) - want)) < 1e-12

    @pytest.mark.parametrize("two_s", [1, 4, 24])
    def test_diagonal_major_order(self, two_s):
        # columns grouped by q = i_in - i_out from 0 to 2S, then by ascending i_out
        table = cg_table(two_s)
        dim = two_s + 1
        columns = dim * (dim + 1) // 2
        i_out, i_in = np.divmod(table.pairs, dim)
        q = i_in - i_out
        assert table.values.shape == (dim, columns)
        assert sorted(table.pairs) == [i * dim + j for i in range(dim) for j in range(i, dim)]
        assert np.all(np.diff(q) >= 0)
        assert list(table.starts) == [int(np.flatnonzero(q == k)[0]) for k in range(dim)]
        for start, stop in zip(table.starts, [*table.starts[1:], columns]):
            assert i_out[start] == 0 and np.all(np.diff(i_out[start:stop]) == 1)

    @pytest.mark.parametrize("two_s", [48, 160])
    def test_matches_symbolic_reference_at_large_spin(self, two_s):
        table = cg_table(two_s)
        spin = Rational(two_s, 2)
        half = two_s // 2
        # corners, the stretched and minimal K, a 3e-48 entry at 2S=160, the bulk
        entries = [(0, 0, 0), (two_s, 0, 0), (two_s, 0, two_s), (two_s, half, half + 1),
                   (1, two_s, two_s - 1), (half, 3, 7)]
        rng = np.random.default_rng(two_s)
        for i_out, i_in in rng.integers(0, two_s + 1, size=(6, 2)):
            entries.append((int(rng.integers(abs(i_in - i_out), two_s + 1)), i_out, i_in))
        for k, i_out, i_in in entries:
            want = float(
                sympy_cg.CG(spin, spin - i_out, spin, i_in - spin, k, i_in - i_out).doit()
            )
            assert abs(_entry(table, k, i_out, i_in) - want) < 1e-12

    def test_large_spin_passes_guard(self):
        # the Racah sum this table replaced was off by 50 here
        assert cg_orthonormality(160)[0] <= CG_TABLE_TOL

    def test_corrupt_table_refused(self, corrupt_cg_tables):
        with pytest.raises(ValueError, match="not orthonormal"):
            cg_table(3)

    def test_deviation_sees_nan(self):
        table = cg_table(3)
        values = table.values.copy()
        values[3, _column(table, 0, 0)] = np.nan
        assert not cg_table_deviation(table._replace(values=values)) <= CG_TABLE_TOL

    def test_read_only(self):
        table = cg_table(2)
        with pytest.raises(ValueError):
            table.values[0, 0] = 0.0
        with pytest.raises(ValueError):
            table.pairs[0] = 1
        with pytest.raises(ValueError):
            table.starts[0] = 1

    def test_one_table_held_per_spin(self):
        # the recursion runs over the q >= 0 columns alone, so the build holds
        # the half table and peaks at about six times it
        two_s = 96
        cg_table.cache_clear()
        tracemalloc.start()
        try:
            cg_table(two_s)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            cg_table.cache_clear()
        assert held <= 1.05 * (two_s + 1) ** 2 * (two_s + 2) / 2 * 8, held
        assert peak <= 27e6, peak

    @pytest.mark.parametrize("two_s", [24, 96])
    def test_no_cube_held(self, two_s):
        # no (2S+1)^3 array outlives the build: what stays is the half table
        # and its int64 column index, one entry per column
        dim = two_s + 1
        columns = dim * (dim + 1) // 2
        cg_table(two_s)  # numpy's first where= ufunc calls cache their loops
        cg_table.cache_clear()
        tracemalloc.start()
        try:
            cg_table(two_s)
            held = tracemalloc.get_traced_memory()[0]
            largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
        finally:
            tracemalloc.stop()
            cg_table.cache_clear()
        assert largest < dim**3 * 8, largest
        assert held <= 1.05 * columns * (dim + 1) * 8, held


class TestSphericalHarmonics:
    def test_y00(self):
        got = spherical_harmonic(0, 0, 0.7, 1.1)
        assert abs(got - 1.0 / math.sqrt(FOUR_PI)) < 1e-15

    def test_y10(self):
        theta = 0.6
        got = spherical_harmonic(1, 0, theta, 0.0)
        assert abs(got - math.sqrt(3.0 / FOUR_PI) * math.cos(theta)) < 1e-14

    def test_y11_condon_shortley(self):
        theta, phi = 1.2, 0.4
        want = -math.sqrt(3.0 / (2 * FOUR_PI)) * math.sin(theta) * np.exp(1j * phi)
        assert abs(spherical_harmonic(1, 1, theta, phi) - want) < 1e-14

    def test_negative_order_symmetry(self):
        theta, phi = 0.9, 2.3
        for k, q in ((3, 2), (5, 4), (8, 1)):
            plus = spherical_harmonic(k, q, theta, phi)
            minus = spherical_harmonic(k, -q, theta, phi)
            assert abs(minus - (-1.0) ** q * np.conj(plus)) < 1e-13

    def test_grid_orthonormality(self):
        value, _ = harmonic_orthonormality(build_quadrature_grid(24), (0, 5, 7, 9, 12))
        assert value < 1e-12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            spherical_harmonic(2, 3, 0.0, 0.0)


class TestMultipoles:
    def test_mixed_block_only_monopole(self):
        for spin in (0.5, 1.5, 3.0):
            dim = round(2 * spin) + 1
            block = ManifoldBlock(spin, 1.0, np.eye(dim, dtype=complex) / dim)
            sp = multipoles_algebraic(block)
            assert abs(sp.rho[0, dim - 1] - 1.0 / math.sqrt(dim)) < 1e-12
            assert np.max(sp.weights[1:]) < 1e-24

    def test_monopole_fixed_constant(self):
        rng = np.random.default_rng(2)
        grid = build_quadrature_grid(16)
        for spin in (0.5, 1.0, 2.0):
            block = random_block(spin, rng)
            dim = round(2 * spin) + 1
            sp_a = multipoles_algebraic(block)
            sp_i = multipoles_integral(block, grid)
            assert abs(sp_a.rho[0, dim - 1] - 1.0 / math.sqrt(dim)) < 1e-12
            assert abs(sp_i.rho[0, dim - 1] - sp_a.rho[0, dim - 1]) < 1e-10

    def test_dual_route_agreement(self):
        # C_K >= 6.4e-3 at 2S <= 8, so a scaled gap below 1e-13 holds every
        # unscaled coefficient within 1.6e-11
        rng = np.random.default_rng(4)
        grid = build_quadrature_grid(16)
        for two_j in range(1, 9):
            assert dual_route_gap(random_block(two_j / 2.0, rng), grid)[0] < 1e-13, two_j

    def test_stretched_cg_matches_racah_oracle(self):
        for two_s in range(49):
            spin = two_s / 2.0
            want = [clebsch_gordan(spin, spin, k, 0, spin, spin) for k in range(two_s + 1)]
            assert np.max(np.abs(stretched_cg(two_s) - want)) < 1e-13, two_s

    def test_dual_route_at_run_sizes(self):
        rng = np.random.default_rng(14)
        grid = build_quadrature_grid(48)
        for two_s in range(9, 25):
            assert dual_route_gap(random_block(two_s / 2.0, rng), grid)[0] < 1e-12, two_s

    @pytest.mark.parametrize("cutoff,degree", [(24, 48), (48, 96)])
    def test_dual_route_on_default_ladder(self, cutoff, degree):
        grid = build_quadrature_grid(degree)
        for block in default_ladder_blocks(cutoff):
            assert dual_route_gap(block, grid)[0] < 1e-12, block.spin

    def test_quadrature_route_works_on_theta_nodes(self, monkeypatch):
        # the Legendre rows are evaluated on the n_theta Gauss nodes, never on
        # the (n_theta, n_phi) mesh
        shapes = []
        rows = multipole._legendre_rows

        def recording(m, max_degree, theta):
            shapes.append(np.shape(theta))
            return rows(m, max_degree, theta)

        monkeypatch.setattr(multipole, "_legendre_rows", recording)
        grid = build_quadrature_grid(12)
        multipoles_integral(random_block(3.0, np.random.default_rng(15)), grid)
        assert set(shapes) == {(grid.n_theta,)}

    def test_every_order_matches_dense_tensors(self):
        # rho_Kq = Tr(T_Kq^dag rho) with dense T_Kq from the Racah sum, for
        # every q, so the negative orders are checked against no mirror
        rng = np.random.default_rng(6)
        for two_s in range(7):
            spin = two_s / 2.0
            block = random_block(spin, rng)
            m = spin - np.arange(two_s + 1)
            got = multipoles_algebraic(block).rho
            for k in range(two_s + 1):
                for q in range(-k, k + 1):
                    tensor = np.array([
                        [(-1.0) ** (spin - m_in) * clebsch_gordan(spin, m_out, spin, -m_in, k, q)
                         for m_in in m] for m_out in m
                    ])
                    want = np.trace(tensor.conj().T @ block.block)
                    assert abs(got[k, q + two_s] - want) < 1e-13, (two_s, k, q)

    def test_spin_half_up_dipole(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        sp = multipoles_algebraic(ManifoldBlock(0.5, 1.0, rho))
        assert abs(sp.rho[1, 2]) < 1e-14  # q = 1
        assert abs(sp.rho[1, 0]) < 1e-14  # q = -1
        assert abs(sp.weights[1] - abs(sp.rho[1, 1]) ** 2) < 1e-14

    def test_weights_rotation_invariant(self):
        rng = np.random.default_rng(8)
        for spin in (1.0, 2.0, 3.0):
            block = random_block(spin, rng)
            base = multipoles_algebraic(block).weights
            u = rotation_matrix(spin, rng.normal(size=3), rng.uniform(0, math.pi))
            rot = ManifoldBlock(spin, 1.0, u @ block.block @ u.conj().T)
            got = multipoles_algebraic(rot).weights
            assert np.max(np.abs(got - base)) < 1e-8

    def test_weights_vanish_above_2s(self):
        rng = np.random.default_rng(9)
        sp = multipoles_algebraic(random_block(1.5, rng))
        assert len(sp.weights) == 4  # K = 0..3 only

    def test_grid_too_coarse_raises(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="exactness"):
            multipoles_integral(random_block(3.0, rng), build_quadrature_grid(8))


class TestPackedMultipoles:
    """The one-reduction rho_Kq against one Clebsch-Gordan diagonal matvec per q."""

    @staticmethod
    def _gap(block):
        got = multipoles_algebraic(block)
        want = multipoles_loop(block)
        return (np.max(np.abs(got.rho - want)),
                np.max(np.abs(got.weights - np.sum(np.abs(want) ** 2, axis=1))))

    @pytest.mark.parametrize("cutoff", [24, 48])
    def test_default_ladder(self, cutoff):
        for block in default_ladder_blocks(cutoff):
            assert max(self._gap(block)) < 1e-14, block.spin

    def test_random_complex_blocks(self):
        rng = np.random.default_rng(31)
        for two_s in range(1, 49):
            assert max(self._gap(random_block(two_s / 2.0, rng))) < 1e-14, two_s


class TestAggregation:
    def test_unpolarized_sector(self):
        blocks = []
        for two_j in range(0, 5):
            dim = two_j + 1
            blocks.append(
                ManifoldBlock(two_j / 2.0, 0.2, np.eye(dim, dtype=complex) / dim)
            )
        w = aggregate_weights([(b.weight, multipoles_algebraic(b).weights) for b in blocks])
        assert np.max(w[1:]) < 1e-24

    def test_weighting_is_linear_in_p(self):
        rng = np.random.default_rng(12)
        b1 = random_block(0.5, rng)
        block_a = ManifoldBlock(0.5, 0.25, b1.block)
        block_b = ManifoldBlock(1.0, 0.75, random_block(1.0, rng).block)
        filler = ManifoldBlock(0.0, 0.0, np.zeros((1, 1), dtype=complex), negligible=True)
        sector = PolarizationSector((filler, block_a, block_b))
        got = aggregate_weights(
            [(b.weight, multipoles_algebraic(b).weights) for b in sector.reported()]
        )
        w_a = multipoles_algebraic(block_a).weights
        w_b = multipoles_algebraic(block_b).weights
        want = np.zeros(3)
        want[: len(w_a)] += 0.25 * w_a
        want += 0.75 * w_b
        assert np.max(np.abs(got - want)) < 1e-14
