import json
import math

import numpy as np
import pytest

from oracles import dense_moments, full_block, json_dump_sector, spin_matrices
from stokes_manifolds import polar
from stokes_manifolds.fock import ModeState, NoiseModel, synthesize_mode
from stokes_manifolds.pipeline import DEFAULT_ALPHAS, dump_sector
from stokes_manifolds.invariants import random_block
from stokes_manifolds.polar import (
    WEIGHT_FLOOR,
    ManifoldBlock,
    PolarizationSector,
    check_blocks,
    diagonal_order,
    parse_manifolds,
)
from stokes_manifolds.stokes import _moments


def number_state(n, cutoff):
    rho = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    rho[n, n] = 1.0
    return ModeState(cutoff, rho)


def default_sector(alpha=1.13, cutoff=12):
    model = NoiseModel(3.6, 4.4, 0.85)
    rho_h = synthesize_mode(model, alpha, cutoff)
    rho_v = synthesize_mode(model, 0.0, cutoff)
    return parse_manifolds(rho_h, rho_v, cutoff / 2.0)


class TestParsing:
    def test_single_fock_pair_lands_in_one_manifold(self):
        sector = parse_manifolds(number_state(2, 4), number_state(1, 4), 2.0)
        weights = {b.photon_number: b.weight for b in sector.blocks}
        assert abs(weights[3] - 1.0) < 1e-14
        assert all(w < 1e-14 for n, w in weights.items() if n != 3)
        # |n_H=2, n_V=1> is |S=3/2, m=1/2>, index 1 in m-descending order
        block = next(b for b in sector.blocks if b.photon_number == 3)
        assert abs(block.block[1, 1] - 1.0) < 1e-14

    def test_m_descending_order(self):
        # a product of unequal pure states keeps its coherences, ordered m = S..-S
        psi_h = np.array([1.0, 2.0j, 3.0])
        psi_v = np.array([4.0, 5.0, 6.0])
        rho_h, rho_v = (
            ModeState(2, np.outer(p, p.conj()) / np.vdot(p, p).real) for p in (psi_h, psi_v)
        )
        block = parse_manifolds(rho_h, rho_v, 1.0).blocks[2]
        # row i holds n_H = 2 - i, n_V = i: m=+1 (n_H=2) is row 0, m=-1 (n_V=2) is row 2
        u = np.array([psi_h[2] * psi_v[0], psi_h[1] * psi_v[1], psi_h[0] * psi_v[2]])
        want = np.outer(u, u.conj()) / np.vdot(u, u).real
        assert np.max(np.abs(block.block - want)) < 1e-14
        assert abs(block.block[0, 0] - 144.0 / 280.0) < 1e-14

    @pytest.mark.parametrize(
        "alpha, cutoff_h, cutoff_v",
        [(a, 24, 24) for a in DEFAULT_ALPHAS] + [(5.0, 55, 20)],
    )
    def test_blocks_equal_kronecker_gather(self, alpha, cutoff_h, cutoff_v):
        # the blocks N <= min(cutoff) above the weight floor cut out of the
        # dense n_H-major two-mode matrix, bit for bit
        model = NoiseModel(3.6, 4.4, 0.85)
        rho_h = synthesize_mode(model, alpha, cutoff_h)
        rho_v = synthesize_mode(model, 0.0, cutoff_v)
        dense = np.kron(rho_h.entries, rho_v.entries)
        top = min(cutoff_h, cutoff_v)
        sector = parse_manifolds(rho_h, rho_v, top / 2.0)
        _, live = polar.photon_weights(rho_h.entries[None], rho_v.entries)
        assert [b.photon_number for b in sector.blocks] == np.flatnonzero(live[0, :top + 1]).tolist()
        for b in sector.blocks:
            n_h = np.arange(b.photon_number, -1, -1)
            flat = n_h * (cutoff_v + 1) + b.photon_number - n_h
            want = dense[np.ix_(flat, flat)]
            # P_N is the convolution of the photon-number distributions, the
            # trace summed in another order
            weight = max(float(np.real(np.trace(want))), 0.0)
            assert abs(b.weight - weight) <= 1e-15 * max(weight, WEIGHT_FLOOR)
            assert np.array_equal(b.block, want / b.weight)

    @pytest.mark.parametrize("alpha, cutoff", [(1.13, 24), (7.0, 160)])
    def test_photon_weights_are_the_convolution(self, alpha, cutoff):
        # P_N = (p_H * p_V)[N] over every N the cutoffs hold, roundoff below 0
        # clamped to 0, and the sector's blocks carry exactly those above the
        # weight floor
        model = NoiseModel(3.6, 4.4, 0.85)
        rho_h, rho_v = synthesize_mode(model, alpha, cutoff), synthesize_mode(model, 0.0, cutoff)
        weights, live = polar.photon_weights(rho_h.entries[None], rho_v.entries)
        want = np.convolve(np.diag(rho_h.entries), np.diag(rho_v.entries))
        assert weights.shape == (1, 2 * cutoff + 1) and (weights >= 0.0).all()
        assert np.abs(weights[0] - np.maximum(want, 0.0)).max() <= 1e-15
        assert np.array_equal(live[0], weights[0] > WEIGHT_FLOOR)
        sector = parse_manifolds(rho_h, rho_v, cutoff / 2.0)
        kept = weights[0, :cutoff + 1][live[0, :cutoff + 1]]
        assert [b.weight for b in sector.blocks] == kept.tolist()

    def test_weights_sum_to_trace(self):
        # the report range N <= 12 and the fully gathered blocks past it hold
        # the whole trace of the two modes
        model = NoiseModel(3.6, 4.4, 0.85)
        rho_h = synthesize_mode(model, 1.13, 12)
        rho_v = synthesize_mode(model, 0.0, 12)
        captured = sum(b.weight for b in parse_manifolds(rho_h, rho_v, 6.0).blocks)
        rest = sum(np.trace(full_block(rho_h, rho_v, n)).real for n in range(13, 25))
        assert abs(rho_h.trace * rho_v.trace - captured - rest) < 1e-14
        assert captured <= 1.0 + 1e-12

    def test_blocks_unit_trace(self):
        for b in default_sector().blocks:
            assert abs(np.trace(b.block).real - 1.0) < 1e-10

    def test_negligible_blocks_absent(self):
        sector = parse_manifolds(number_state(0, 3), number_state(0, 3), 1.5)
        assert [(b.photon_number, b.weight) for b in sector.blocks] == [(0, 1.0)]

    def test_reported_excludes_negligible(self):
        sector = parse_manifolds(number_state(0, 3), number_state(1, 3), 1.5)
        assert [b.photon_number for b in sector.reported()] == [1]
        assert [b.photon_number for b in sector.reported(0.0)] == []


    def test_spins_increase_with_gaps(self):
        # the live manifolds of a sector may skip spins; a repeated or a
        # decreasing spin is refused
        rng = np.random.default_rng(61)
        half, one, three = (random_block(s, rng) for s in (0.5, 1.0, 3.0))
        assert PolarizationSector((half, three)).reported(1.0) == (half,)
        for blocks in ((half, half), (one, half), (half, three, one)):
            with pytest.raises(ValueError, match="block spins must increase"):
                PolarizationSector(blocks)

class TestSizeArrays:
    def test_cached_arrays_refuse_writes(self, fresh_size_arrays):
        order = diagonal_order(6)
        for name, array in order._asdict().items():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("dim", [1, 2, 5, 25])
    def test_ladders_match_dense_spin_matrices(self, fresh_size_arrays, dim):
        spin = (dim - 1) / 2.0
        sx, sy, sz = spin_matrices(spin)
        m = np.diagonal(sz).real
        c = np.diagonal(sx + 1j * sy, 1).real  # S+ |m_i> = c_i |m_i + 1>, i >= 1
        order = diagonal_order(dim)
        assert np.array_equal(order.m, m) and np.array_equal(order.m2, m**2)
        assert np.allclose(order.c, c, rtol=0, atol=1e-13)
        assert np.allclose(order.zc, (2 * m[1:] + 1) * c, rtol=0, atol=1e-12)
        assert np.allclose(order.cc, c[1:] * c[:-1], rtol=0, atol=1e-12)
        assert np.array_equal(order.signs, (-1.0) ** (spin - m))

    def test_parse_after_other_cutoffs(self, fresh_size_arrays):
        # the arrays cached while a (24, 24) sector is parsed and summarised
        # serve a (30, 20) sector of the same block sizes unchanged
        model = NoiseModel(3.6, 4.4, 0.85)
        first = parse_manifolds(synthesize_mode(model, 1.13, 24), synthesize_mode(model, 0.0, 24), 12.0)
        for b in first.reported():
            _moments(b)
        rho_h, rho_v = synthesize_mode(model, 2.31, 30), synthesize_mode(model, 0.0, 20)
        sector = parse_manifolds(rho_h, rho_v, 10.0)
        assert [b.photon_number for b in sector.blocks] == list(range(21))
        for b in sector.blocks:
            want = full_block(rho_h, rho_v, b.photon_number)
            assert np.array_equal(b.block, want / b.weight)
        for b in sector.reported():
            for got, want in zip(_moments(b), dense_moments(b)):
                assert np.max(np.abs(got - want)) < 1e-12


class TestBlockValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="block must be"):
            ManifoldBlock(1.0, 1.0, np.eye(2, dtype=complex))

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            ManifoldBlock(0.5, 1.0, 0.7 * np.eye(2, dtype=complex))

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError, match="half-integer"):
            ManifoldBlock(0.3, 1.0, np.eye(2, dtype=complex))

    def test_dtype_follows_input(self):
        # a real block is held as float64, a complex one as complex128, even
        # with no imaginary part
        real = ManifoldBlock(0.5, 1.0, [[1, 0], [0, 0]])
        assert real.block.dtype == np.float64
        assert ManifoldBlock(0.5, 1.0, np.eye(2, dtype=np.float32) / 2).block.dtype == np.float64
        assert ManifoldBlock(0.5, 1.0, np.eye(2, dtype=complex) / 2).block.dtype == np.complex128
        assert ModeState(1, [[0.5, 0.5], [0.5, 0.5]]).entries.dtype == np.float64
        assert ModeState(1, [[0.5, 0.5j], [-0.5j, 0.5]]).entries.dtype == np.complex128

    @pytest.mark.parametrize("index", [(0, 1), (1, 1)])
    def test_rejects_nan_entry(self, index):
        block = np.diag([0.5, 0.5]).astype(complex)  # unit trace
        block[index] = math.nan
        with pytest.raises(ValueError, match="Hermitian"):
            ManifoldBlock(0.5, 1.0, block)

    def test_rejects_nan_trace(self, monkeypatch):
        # the trace check fails a NaN on its own, past a Hermiticity check
        # that lets the block through
        monkeypatch.setattr(polar, "require_hermitian", lambda mat, what: mat)
        block = np.diag([1.0, math.nan]).astype(complex)
        with pytest.raises(ValueError, match="trace nan is not 1"):
            ManifoldBlock(0.5, 1.0, block)


def _spoil(kind, block):
    """A copy of a unit-trace spin-1/2 block made NaN, non-Hermitian, or of
    trace 0.7, with the message a ManifoldBlock of it alone is refused with."""
    bad = block.copy()
    if kind == "nan":
        bad[0, 1] = math.nan
        return bad, "ManifoldBlock is not Hermitian (max deviation nan)"
    if kind == "non-Hermitian":
        bad[0, 1] += 1e-6
        return bad, "ManifoldBlock is not Hermitian (max deviation 1.000e-06)"
    return np.diag([0.35, 0.35]).astype(complex), "block trace 0.7 is not 1"


class TestStackValidation:
    """`check_blocks` on a stack refuses one bad block among good ones with
    the message that block alone earns."""

    @pytest.mark.parametrize("kind", ["nan", "non-Hermitian", "trace"])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_one_bad_block(self, kind, position):
        rng = np.random.default_rng(53)
        stack = np.array([random_block(0.5, rng).block for _ in range(5)])
        bad, message = _spoil(kind, stack[position])
        with pytest.raises(ValueError) as alone:
            ManifoldBlock(0.5, 1.0, bad)
        assert str(alone.value) == message
        stack[position] = bad
        with pytest.raises(ValueError) as stacked:
            check_blocks(0.5, stack)
        assert str(stacked.value) == message

    def test_returns_hermitian_parts(self):
        rng = np.random.default_rng(59)
        stack = np.array([random_block(1.5, rng).block for _ in range(3)])
        stack[1, 0, 1] += 1e-13  # within the tolerance
        got = check_blocks(1.5, stack)
        assert np.array_equal(got, 0.5 * (stack + stack.conj().swapaxes(1, 2)))
        for block, want in zip(got, stack):
            assert np.array_equal(ManifoldBlock(1.5, 1.0, want).block, block)

    def test_empty_stack(self):
        assert check_blocks(1.0, np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3, 3)


class TestJsonDump:
    def test_roundtrip_structure(self, tmp_path):
        sector = default_sector(cutoff=4)
        path = tmp_path / "sector.json"
        dump_sector(sector, path)
        loaded = json.loads(path.read_text())
        assert abs(loaded["captured"] - sum(b.weight for b in sector.blocks)) < 1e-15
        m = loaded["manifolds"][2]
        assert m["N"] == 2
        block = np.array([[complex(re, im) for re, im in row] for row in m["block"]])
        want = sector.blocks[2].block
        assert np.max(np.abs(block - want)) < 1e-15


def _assert_dump_matches_json(sector, tmp_path):
    want, got = tmp_path / "json_dump.json", tmp_path / "dump_sector.json"
    json_dump_sector(sector, want)
    dump_sector(sector, got)
    assert got.read_bytes() == want.read_bytes()


def _odd_blocks():
    """A block with a zero row, then blocks at or below the weight floor built
    unchecked (`ManifoldBlock._checked`), holding finite floats at the edge
    of repr: a block that reaches a dump has passed `check_blocks`, which
    refuses NaN and infinities."""
    special = [-0.0, 5e-324, 1e16, 1e22, -1e22, 0.1]
    half = np.diag([0.5, 0.5, 0.0]).astype(complex)
    blocks = [ManifoldBlock(1.0, 0.75, half)]
    for two_s in (3, 4):
        dim = two_s + 1
        block = np.resize(special, 2 * dim * dim).view(complex).reshape(dim, dim)
        blocks.append(ManifoldBlock._checked(two_s / 2.0, 0.0, block))
    blocks.append(ManifoldBlock._checked(2.5, 5e-324, np.full((6, 6), complex(-0.0, 1e16))))
    return blocks


class TestDumpSectorBytes:
    """dump_sector prints what json.dump(indent=1, sort_keys=True) printed."""

    @pytest.mark.parametrize("cutoff", [24, 48])
    @pytest.mark.parametrize("alpha", DEFAULT_ALPHAS)
    def test_default_ladder(self, tmp_path, cutoff, alpha):
        # the manifolds above the weight floor a run dumps
        _assert_dump_matches_json(default_sector(alpha, cutoff), tmp_path)

    def test_truncated_and_negligible_blocks(self, tmp_path):
        _assert_dump_matches_json(PolarizationSector(tuple(_odd_blocks())), tmp_path)

    def test_non_finite_weight(self, tmp_path):
        blocks = _odd_blocks()
        blocks[1] = ManifoldBlock._checked(1.5, math.nan, blocks[1].block)
        _assert_dump_matches_json(PolarizationSector(tuple(blocks)), tmp_path)

    def test_signed_zeros_subnormals_and_conjugate_pairs(self, tmp_path):
        # each distinct magnitude is formatted once and its sign put back:
        # the smallest subnormal and the exact conjugate pairs of a Hermitian
        # block; a -0.0 in an imaginary part prints as 0.0
        block = np.array([
            [0.5, complex(5e-324, -0.0), complex(0.1, 0.2)],
            [complex(5e-324, 0.0), 0.25, complex(-1e-300, -0.0)],
            [complex(0.1, -0.2), complex(-1e-300, 0.0), 0.25],
        ])
        hermitian = ManifoldBlock(1.0, 0.5, block)
        imag = hermitian.block.imag
        assert (np.signbit(imag) & (imag == 0.0)).any()  # a -0.0 survives the Hermitian check
        subnormal = ManifoldBlock._checked(1.5, 5e-324, np.full((4, 4), complex(-5e-324, -0.0)))
        _assert_dump_matches_json(PolarizationSector((hermitian, subnormal)), tmp_path)
        text = (tmp_path / "dump_sector.json").read_text()
        assert "-0.0" not in text and "-5e-324" in text and "-1e-300" in text

    def test_no_blocks(self, tmp_path):
        _assert_dump_matches_json(PolarizationSector(()), tmp_path)
        assert '"manifolds": []\n' in (tmp_path / "dump_sector.json").read_text()
