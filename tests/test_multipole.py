import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import sympy.physics.quantum.cg as sympy_cg
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Rational

from stokes_manifolds import multipole, polar
from stokes_manifolds.multipole import (
    CG_TABLE_TOL,
    cg_table,
    cg_table_deviation,
    legendre_table,
    multipole_stack,
    multipoles_algebraic,
    multipoles_integral,
    stretched_cg,
)
from stokes_manifolds.invariants import (
    cg_orthonormality,
    dual_route_gap,
    harmonic_gram,
    harmonic_orthonormality,
    random_block,
)
from stokes_manifolds.polar import ManifoldBlock, PolarizationSector, diagonal_order
from stokes_manifolds.sphere import FOUR_PI, SphereGrid, build_quadrature_grid

from oracles import (
    aggregate_weights,
    clebsch_gordan,
    default_ladder_blocks,
    mesh,
    multipoles_loop,
    natural_cg_table,
    rotation_matrix,
    spherical_harmonic,
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
    dim = len(table)
    return int(np.flatnonzero(diagonal_order(dim).pairs == i_out * dim + i_in)[0])


def _entry(table, k, i_out, i_in):
    """C[K, i_out, i_in] of a q >= 0 table that holds (-1)^i_in C, as `cg_table`
    does; a pair with i_in < i_out is read at (2S - i_out, 2S - i_in) by
    <S -m1; S -m2 | K -M> = (-1)^(2S-K) <S m1; S m2 | K M>."""
    two_s = len(table) - 1
    if i_in >= i_out:
        return (-1.0) ** i_in * table[k, _column(table, i_out, i_in)]
    return ((-1.0) ** (two_s - k + two_s - i_in)
            * table[k, _column(table, two_s - i_out, two_s - i_in)])


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
        dim = two_s + 1
        columns = dim * (dim + 1) // 2
        order = diagonal_order(dim)
        i_out, i_in = np.divmod(order.pairs, dim)
        q = i_in - i_out
        assert cg_table(two_s).shape == (dim, columns)
        assert sorted(order.pairs) == [i * dim + j for i in range(dim) for j in range(i, dim)]
        assert np.all(np.diff(q) >= 0)
        assert list(order.starts) == [int(np.flatnonzero(q == k)[0]) for k in range(dim)]
        for start, stop in zip(order.starts, [*order.starts[1:], columns]):
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

    @pytest.mark.parametrize("two_s", [1, 4, 24, 96])
    def test_table_holds_sign_of_column(self, two_s):
        # the sign (-1)^(S - m_in) = (-1)^i_in of T_Kq is a factor of the
        # whole column, exact in every bit, and flips no |Gram - 1| entry
        order = diagonal_order(two_s + 1)
        unsigned = multipole._cg_recursion(two_s, order.i_out, order.i_in - order.i_out)
        table = cg_table(two_s)
        assert np.array_equal(table, unsigned * (-1.0) ** order.i_in)
        assert cg_table_deviation(table) == cg_table_deviation(unsigned)

    def test_large_spin_passes_guard(self):
        # the Racah sum this table replaced was off by 50 here
        assert cg_orthonormality(160)[0] <= CG_TABLE_TOL

    def test_corrupt_table_refused(self, corrupt_cg_tables):
        with pytest.raises(ValueError, match="not orthonormal"):
            cg_table(3)

    def test_deviation_sees_nan(self):
        table = cg_table(3).copy()
        table[3, _column(table, 0, 0)] = np.nan
        assert not cg_table_deviation(table) <= CG_TABLE_TOL

    def test_read_only(self):
        table = cg_table(2)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        # the cached index every multipole and Husimi route reads through
        order = diagonal_order(3)
        with pytest.raises(ValueError):
            order.pairs[0] = 1
        with pytest.raises(ValueError):
            order.starts[0] = 1

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
        assert held <= 1.05 * columns * dim * 8, held


class TestStackedContraction:
    def test_peak_below_one_block_product(self):
        # eight blocks at 2S = 96 are contracted a run of q segments at a
        # time: the peak stays below the (K x P) complex product that one
        # block alone would form, 7.4 MB
        two_s, count = 96, 8
        dim = two_s + 1
        rng = np.random.default_rng(61)
        blocks = np.array([random_block(two_s / 2.0, rng).block for _ in range(count)])
        multipole_stack(two_s, blocks[:1])  # the table and size arrays, cached
        tracemalloc.start()
        try:
            rho = multipole_stack(two_s, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dim * (dim * (dim + 1) // 2) * 16, peak
        for block, got in zip(blocks, rho):
            alone = multipoles_algebraic(ManifoldBlock(two_s / 2.0, 1.0, block))
            assert np.array_equal(got, alone.rho)

    def test_stack_not_copied(self):
        # the signs live in the cached table, so no signed copy of the stack
        # is held: eight complex blocks at 2S = 96 peaked at 5.27 MB with one
        # and 4.07 MB without; real blocks hold half the bytes
        two_s, count = 96, 8
        rng = np.random.default_rng(61)
        blocks = np.array([random_block(two_s / 2.0, rng).block for _ in range(count)])
        peaks = []
        for stack in (blocks, np.ascontiguousarray(blocks.real)):
            multipole_stack(two_s, stack[:1])  # the table and size arrays, cached
            tracemalloc.start()
            try:
                multipole_stack(two_s, stack)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 4.5e6, peaks
        assert peaks[1] < 0.55 * peaks[0], peaks

    @pytest.mark.parametrize("count", [1, 3, 40])
    def test_runs_cover_every_segment_once(self, count):
        # the runs of the one contraction, against a Clebsch-Gordan table
        # (2S + 1 rows) and against Husimi products on an L 4S grid
        for two_s in (0, 1, 7, 48, 160):
            order = diagonal_order(two_s + 1)
            for rows in (two_s + 1, 4 * two_s + 1):
                runs = list(polar._segment_runs(order, count, rows))
                assert [first for first, _ in runs] == [0, *[last for _, last in runs[:-1]]]
                # the runs np.unique gave, without its numpy.ma import
                width = max(polar.CONTRACTION_BYTES // (16 * count * rows), 1)
                if width < len(order.pairs):
                    firsts = np.unique(np.searchsorted(
                        order.starts, np.arange(0, len(order.pairs), width), "right") - 1)
                    assert [first for first, _ in runs] == firsts.tolist()
                assert runs[-1][1] == two_s + 1 and all(first < last for first, last in runs)

    def test_empty_stack_builds_no_table(self):
        cg_table.cache_clear()
        assert multipole_stack(30, np.zeros((0, 31, 31), dtype=complex)).shape == (0, 31, 31)
        assert cg_table.cache_info().currsize == 0


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
        grid = build_quadrature_grid(24)
        value, _ = harmonic_orthonormality(grid, (0, 5, 7, 9, 12), legendre_table(12, grid.theta))
        assert value < 1e-12

    def test_orthonormality_matches_mesh_gram(self):
        # the Gram factored into theta and phi sums is the Gram summed over
        # the mesh, entry by entry, up to rounding; each mesh sum is exact
        # (math.fsum), since a float sum of the 1225 nodes' terms is itself
        # 1.2e-15 off
        grid = build_quadrature_grid(24)
        degrees = (0, 1, 11, 12)
        th, ph = mesh(grid)
        y = np.array([spherical_harmonic(k, q, th, ph).ravel()
                      for k in degrees for q in range(-k, k + 1)])
        terms = (y * grid.weights.ravel())[:, None] * y.conj()
        summed = np.array([[math.fsum(t.real) + 1j * math.fsum(t.imag) for t in row]
                           for row in terms])
        gram = harmonic_gram(grid, degrees, legendre_table(12, grid.theta))
        assert gram.shape == summed.shape and np.max(np.abs(gram - summed)) < 1e-15
        value, bound = harmonic_orthonormality(grid, degrees, legendre_table(12, grid.theta))
        assert value == float(np.max(np.abs(gram - np.eye(len(gram))))) and bound == 1e-12

    def test_orthonormality_finds_aliased_phi(self):
        # too few phi nodes alias e^{i(q - q')phi} to 1 for some q != q'
        grid = build_quadrature_grid(24)
        phi = 2.0 * math.pi * np.arange(13) / 13
        weights = np.repeat(grid.weights.sum(axis=1)[:, None] / 13, 13, axis=1)
        coarse = SphereGrid(grid.theta, phi, weights, grid.exactness)
        table = legendre_table(12, coarse.theta)
        assert harmonic_orthonormality(coarse, (0, 1, 11, 12), table)[0] > 0.5

    def test_legendre_table_rows_do_not_depend_on_top(self):
        # a step of the recurrence never reads the top degree, so the rows of
        # a smaller table are those of a larger one, bit for bit, and the
        # entries below the diagonal l < m are zero
        theta = build_quadrature_grid(48).theta
        big = legendre_table(24, theta)
        for top in (0, 1, 7, 24):
            assert np.array_equal(legendre_table(top, theta), big[:top + 1, :top + 1])
        assert not np.any(big[np.tril_indices(25, -1)])

    def test_legendre_table_matches_scipy(self):
        # every entry m <= l <= 24 against scipy's Y_lm(theta, 0), which
        # carries the same Condon-Shortley phase: 6.0e-15 at most, of entries
        # up to 1.39
        theta = build_quadrature_grid(48).theta
        m, l = np.triu_indices(25)
        want = scipy.special.sph_harm_y(l[:, None], m[:, None], theta, 0.0).real
        assert np.max(np.abs(legendre_table(24, theta)[m, l] - want)) < 1e-13

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            spherical_harmonic(2, 3, 0.0, 0.0)


def _dual_gap(block, grid) -> float:
    """`dual_route_gap` of a block's two multipole routes on the grid."""
    return dual_route_gap(multipoles_algebraic(block).rho, multipoles_integral(block, grid).rho)[0]


class TestMultipoles:
    def test_mixed_block_only_monopole(self):
        for spin in (0.5, 1.5, 3.0):
            dim = round(2 * spin) + 1
            block = ManifoldBlock(spin, 1.0, np.eye(dim, dtype=complex) / dim)
            sp = multipoles_algebraic(block)
            assert abs(sp.rho[0, 0] - 1.0 / math.sqrt(dim)) < 1e-12
            assert np.max(sp.weights[1:]) < 1e-24

    def test_monopole_fixed_constant(self):
        rng = np.random.default_rng(2)
        grid = build_quadrature_grid(16)
        for spin in (0.5, 1.0, 2.0):
            block = random_block(spin, rng)
            dim = round(2 * spin) + 1
            sp_a = multipoles_algebraic(block)
            sp_i = multipoles_integral(block, grid)
            assert abs(sp_a.rho[0, 0] - 1.0 / math.sqrt(dim)) < 1e-12
            assert abs(sp_i.rho[0, 0] - sp_a.rho[0, 0]) < 1e-10

    def test_dual_route_agreement(self):
        # C_K >= 6.4e-3 at 2S <= 8, so a scaled gap below 1e-13 holds every
        # unscaled coefficient within 1.6e-11
        rng = np.random.default_rng(4)
        grid = build_quadrature_grid(16)
        for two_j in range(1, 9):
            block = random_block(two_j / 2.0, rng)
            assert _dual_gap(block, grid) < 1e-13, two_j

    def test_stretched_cg_matches_racah_oracle(self):
        for two_s in range(49):
            spin = two_s / 2.0
            want = [clebsch_gordan(spin, spin, k, 0, spin, spin) for k in range(two_s + 1)]
            assert np.max(np.abs(stretched_cg(two_s) - want)) < 1e-13, two_s

    def test_dual_route_at_run_sizes(self):
        rng = np.random.default_rng(14)
        grid = build_quadrature_grid(48)
        for two_s in range(9, 25):
            block = random_block(two_s / 2.0, rng)
            assert _dual_gap(block, grid) < 1e-12, two_s

    @pytest.mark.parametrize("cutoff,degree", [(24, 48), (48, 96)])
    def test_dual_route_on_default_ladder(self, cutoff, degree):
        grid = build_quadrature_grid(degree)
        for block in default_ladder_blocks(cutoff):
            assert _dual_gap(block, grid) < 1e-12, block.spin

    def test_quadrature_route_works_on_theta_nodes(self, monkeypatch):
        # one Legendre table to degree 2S, evaluated on the n_theta Gauss
        # nodes, never on the (n_theta, n_phi) mesh
        calls = []
        table = multipole.legendre_table

        def recording(top, theta):
            calls.append((top, np.shape(theta)))
            return table(top, theta)

        monkeypatch.setattr(multipole, "legendre_table", recording)
        grid = build_quadrature_grid(12)
        multipoles_integral(random_block(3.0, np.random.default_rng(15)), grid)
        assert calls == [(6, (grid.n_theta,))]

    def test_every_order_matches_dense_tensors(self):
        # rho_Kq = Tr(T_Kq^dag rho) with dense T_Kq from the Racah sum, for
        # every q; the stored q >= 0 half gives q < 0 by the documented rule
        # rho_{K,-q} = (-1)^q conj(rho_Kq), so that sign is pinned here
        rng = np.random.default_rng(6)
        for two_s in range(7):
            spin = two_s / 2.0
            block = random_block(spin, rng)
            m = spin - np.arange(two_s + 1)
            half = multipoles_algebraic(block).rho
            assert half.shape == (two_s + 1, two_s + 1)
            for k in range(two_s + 1):
                for q in range(-k, k + 1):
                    tensor = np.array([
                        [(-1.0) ** (spin - m_in) * clebsch_gordan(spin, m_out, spin, -m_in, k, q)
                         for m_in in m] for m_out in m
                    ])
                    want = np.trace(tensor.conj().T @ block.block)
                    got = half[k, q] if q >= 0 else (-1.0) ** q * np.conj(half[k, -q])
                    assert abs(got - want) < 1e-13, (two_s, k, q)

    def test_spin_half_up_dipole(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        sp = multipoles_algebraic(ManifoldBlock(0.5, 1.0, rho))
        assert abs(sp.rho[1, 1]) < 1e-14  # q = 1, and so q = -1
        assert abs(sp.weights[1] - abs(sp.rho[1, 0]) ** 2) < 1e-14

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
    """The one-reduction rho_Kq against one Clebsch-Gordan diagonal matvec per
    q: the q >= 0 columns of the loop, and W_K over all of its 4S+1 orders."""

    @staticmethod
    def _gap(block):
        got = multipoles_algebraic(block)
        want = multipoles_loop(block)
        return (np.max(np.abs(got.rho - want[:, block.photon_number:])),
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
        sector = PolarizationSector((block_a, block_b))
        got = aggregate_weights(
            [(b.weight, multipoles_algebraic(b).weights) for b in sector.reported()]
        )
        w_a = multipoles_algebraic(block_a).weights
        w_b = multipoles_algebraic(block_b).weights
        want = np.zeros(3)
        want[: len(w_a)] += 0.25 * w_a
        want += 0.75 * w_b
        assert np.max(np.abs(got - want)) < 1e-14
