import json

import numpy as np
import pytest

from stokes_manifolds.fock import ModeState, NoiseModel, synthesize_mode
from stokes_manifolds.pipeline import DEFAULT_ALPHAS
from stokes_manifolds.polar import (
    ManifoldBlock,
    parse_manifolds,
    photon_number_distribution,
    sector_to_json_dict,
)


def number_state(n, cutoff):
    rho = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    rho[n, n] = 1.0
    return ModeState(cutoff, rho)


def default_sector(alpha=1.13, cutoff=12):
    model = NoiseModel(3.6, 4.4, 0.85)
    rho_h = synthesize_mode(model, alpha, cutoff)
    rho_v = synthesize_mode(model, 0.0, cutoff)
    return parse_manifolds(rho_h, rho_v)


class TestParsing:
    def test_single_fock_pair_lands_in_one_manifold(self):
        sector = parse_manifolds(number_state(2, 4), number_state(1, 4))
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
        block = next(b for b in parse_manifolds(rho_h, rho_v).blocks if b.photon_number == 2)
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
        # the blocks cut out of the dense n_H-major two-mode matrix, bit for bit
        model = NoiseModel(3.6, 4.4, 0.85)
        rho_h = synthesize_mode(model, alpha, cutoff_h)
        rho_v = synthesize_mode(model, 0.0, cutoff_v)
        dense = np.kron(rho_h.entries, rho_v.entries)
        sector = parse_manifolds(rho_h, rho_v)
        assert len(sector.blocks) == cutoff_h + cutoff_v + 1
        for b in sector.blocks:
            n_h = np.arange(b.photon_number, -1, -1)
            n_v = b.photon_number - n_h
            pos = np.nonzero((n_h <= cutoff_h) & (n_v <= cutoff_v))[0]
            flat = n_h[pos] * (cutoff_v + 1) + n_v[pos]
            want = np.zeros((b.dim, b.dim), dtype=complex)
            want[np.ix_(pos, pos)] = dense[np.ix_(flat, flat)]
            weight = float(np.real(np.trace(want)))
            assert b.weight == max(weight, 0.0)
            assert b.truncated == (len(pos) < b.dim)
            assert np.array_equal(b.block, want if b.negligible else want / weight)

    def test_weights_sum_to_trace(self):
        sector = default_sector()
        state_trace = sum(w for _, w in photon_number_distribution(sector))
        assert abs(state_trace - sector.captured) < 1e-14
        assert sector.captured <= 1.0 + 1e-12

    def test_blocks_unit_trace(self):
        for b in default_sector().blocks:
            if not b.negligible:
                assert abs(np.trace(b.block).real - 1.0) < 1e-10

    def test_truncated_flag_on_straddling_manifolds(self):
        sector = default_sector(cutoff=6)
        for b in sector.blocks:
            assert b.truncated == (b.photon_number > 6)

    def test_negligible_blocks_flagged(self):
        sector = parse_manifolds(number_state(0, 3), number_state(0, 3))
        assert not sector.blocks[0].negligible
        assert all(b.negligible for b in sector.blocks[1:])

    def test_reported_excludes_truncated_and_negligible(self):
        sector = default_sector(cutoff=6)
        for b in sector.reported():
            assert not b.truncated and not b.negligible


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


class TestJsonDump:
    def test_roundtrip_structure(self, tmp_path):
        sector = default_sector(cutoff=4)
        doc = sector_to_json_dict(sector)
        text = json.dumps(doc)
        loaded = json.loads(text)
        assert abs(loaded["captured"] - sector.captured) < 1e-15
        m = loaded["manifolds"][2]
        assert m["N"] == 2
        block = np.array([[complex(re, im) for re, im in row] for row in m["block"]])
        want = sector.blocks[2].block
        assert np.max(np.abs(block - want)) < 1e-15
