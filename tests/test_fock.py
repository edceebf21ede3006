import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from stokes_manifolds.fock import (
    ModeState,
    NoiseModel,
    _unitary_exp,
    displacement_matrix,
    fit_noise_parameters,
    loss_channel,
    lowering_operator,
    padded_cutoff,
    squeeze_matrix,
    synthesize_mode,
    thermal_state,
)


def coherent_amplitudes(alpha, dim):
    n = np.arange(dim)
    log_mag = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1) - 0.5 * abs(alpha) ** 2
    phase = np.angle(alpha) * n
    return np.exp(log_mag) * np.exp(1j * phase)


def squeezed_vacuum_amplitudes(r, dim):
    # <2n|S(r)|0> for real r with the x-squeezing sign convention
    out = np.zeros(dim, dtype=complex)
    for n in range(0, dim, 2):
        k = n // 2
        log_mag = 0.5 * gammaln(n + 1) - gammaln(k + 1) - k * math.log(2.0)
        out[n] = (-math.tanh(r)) ** k * math.exp(log_mag) / math.sqrt(math.cosh(r))
    return out


class TestOperators:
    def test_lowering_action(self):
        a = lowering_operator(5)
        e3 = np.zeros(5)
        e3[3] = 1.0
        assert np.allclose(a @ e3, math.sqrt(3) * np.eye(5)[:, 2])

    def test_displacement_vacuum_column_is_coherent(self):
        alpha = 1.3 - 0.4j
        d = displacement_matrix(alpha, 30)
        want = coherent_amplitudes(alpha, 31)
        assert np.max(np.abs(d[:, 0] - want)) < 1e-10

    def test_displacement_general_matrix_elements(self):
        # <m|D(alpha)|n> = sqrt(n!/m!) alpha^{m-n} e^{-|a|^2/2} L_n^{m-n}(|a|^2)
        alpha = 0.9
        d = displacement_matrix(alpha, 20)
        for m, n in ((5, 2), (7, 7), (2, 5), (10, 3)):
            if m >= n:
                pref = math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
                want = pref * alpha ** (m - n) * math.exp(-0.5 * alpha**2)
                want *= eval_genlaguerre(n, m - n, alpha**2)
            else:
                pref = math.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1)))
                want = pref * (-alpha) ** (n - m) * math.exp(-0.5 * alpha**2)
                want *= eval_genlaguerre(m, n - m, alpha**2)
            assert abs(d[m, n] - want) < 1e-10

    def test_squeeze_vacuum_column(self):
        r = 0.41
        s = squeeze_matrix(r, 30)
        want = squeezed_vacuum_amplitudes(r, 31)
        assert np.max(np.abs(s[:, 0] - want)) < 1e-10

    def test_squeeze_squeezes_x(self):
        r = 0.41
        cutoff = 40
        a = lowering_operator(cutoff + 1)
        x = (a + a.conj().T) / math.sqrt(2.0)
        psi = squeeze_matrix(r, cutoff)[:, 0]
        var = np.real(psi.conj() @ x @ x @ psi)
        assert abs(var - 0.5 * math.exp(-2 * r)) < 1e-8

    def test_padding_rule(self):
        assert padded_cutoff(24) == 46

    def test_warns_on_too_small_cutoff(self):
        with pytest.warns(UserWarning, match="cutoff"):
            displacement_matrix(4.0, 3)


class TestUnitaryExp:
    # padded sizes that runs reach: cutoff 24 (default), 90 (criterion 5b), 160
    SIZES = ((80, 2.31), (229, 7.0), (386, 9.0))

    @pytest.mark.parametrize("dim,alpha", SIZES)
    def test_displacement_matches_expm(self, dim, alpha):
        a = lowering_operator(dim)
        gen = alpha * a.conj().T - alpha * a
        assert np.max(np.abs(_unitary_exp(1j * gen) - expm(gen))) < 1e-13

    @pytest.mark.parametrize("dim", [d for d, _ in SIZES])
    @pytest.mark.parametrize("r", [NoiseModel(3.6, 4.4).squeeze_parameter, 0.41])
    def test_squeeze_matches_expm(self, dim, r):
        a2 = lowering_operator(dim) @ lowering_operator(dim)
        gen = 0.5 * (r * a2 - r * a2.conj().T)
        assert np.max(np.abs(_unitary_exp(1j * gen) - expm(gen))) < 1e-13

    def test_zero_displacement_is_identity(self):
        # the route of the undisplaced V mode at the default cutoff (dim 80)
        pad = padded_cutoff(24)
        assert np.array_equal(displacement_matrix(0.0, pad), np.eye(pad + 1))


class TestNoiseModel:
    def test_fit_reference_values(self):
        r, nbar = fit_noise_parameters(3.6, 4.4)
        assert abs(r - 0.46052) < 5e-5
        assert abs(nbar - 0.0482) < 5e-4

    def test_fit_pure_case(self):
        r, nbar = fit_noise_parameters(3.6, 3.6)
        assert nbar == 0.0
        assert abs(r - 3.6 * math.log(10) / 20.0) < 1e-14

    def test_fit_roundtrip(self):
        r, nbar = fit_noise_parameters(2.7, 5.1)
        sq = -10.0 * math.log10((2 * nbar + 1) * math.exp(-2 * r) / 1.0)
        anti = 10.0 * math.log10((2 * nbar + 1) * math.exp(2 * r))
        assert abs(sq - 2.7) < 1e-12
        assert abs(anti - 5.1) < 1e-12

    def test_rejects_negative_thermal(self):
        with pytest.raises(ValueError):
            fit_noise_parameters(4.4, 3.6)

    def test_model_validates_efficiency(self):
        with pytest.raises(ValueError):
            NoiseModel(3.6, 4.4, 1.2)


class TestThermalAndLoss:
    def test_thermal_ground_weight(self):
        st_ = thermal_state(0.5, 40)
        assert abs(st_.entries[0, 0].real - 1.0 / 1.5) < 1e-15
        assert abs(st_.mean_photon_number - 0.5) < 1e-10

    def test_loss_trace_preserving(self):
        state = thermal_state(0.8, 25)
        out = loss_channel(state, 0.37)
        assert abs(out.trace - state.trace) < 1e-12

    def test_loss_scales_mean_photons(self):
        model = NoiseModel(3.6, 4.4, 1.0)
        state = synthesize_mode(model, 1.1, 30)
        lossy = loss_channel(state, 0.6)
        assert abs(lossy.mean_photon_number - 0.6 * state.mean_photon_number) < 1e-8

    @given(
        eta1=st.floats(min_value=0.1, max_value=1.0),
        eta2=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_loss_composition(self, eta1, eta2):
        state = thermal_state(0.6, 15)
        once = loss_channel(state, eta1 * eta2)
        twice = loss_channel(loss_channel(state, eta1), eta2)
        assert np.max(np.abs(once.entries - twice.entries)) < 1e-10

    def test_full_loss_gives_vacuum(self):
        state = thermal_state(1.2, 10)
        out = loss_channel(state, 0.0)
        want = np.zeros((11, 11))
        want[0, 0] = state.trace
        assert np.max(np.abs(out.entries - want)) < 1e-14


class TestSynthesis:
    def test_coherent_state_limit(self):
        model = NoiseModel(0.0, 0.0, 1.0)
        state = synthesize_mode(model, 1.3, 30)
        psi = coherent_amplitudes(1.3, 31)
        assert np.max(np.abs(state.entries - np.outer(psi, psi.conj()))) < 1e-10

    def test_mean_photons_displaced_squeezed(self):
        model = NoiseModel(3.6, 3.6, 1.0)
        r = model.squeeze_parameter
        alpha = 1.13
        state = synthesize_mode(model, alpha, 30)
        want = alpha**2 + math.sinh(r) ** 2
        assert abs(state.mean_photon_number - want) < 1e-8

    def test_validate_passes_at_adequate_cutoff(self):
        # positive semidefinite, and the trace within 1e-6 below 1
        state = synthesize_mode(NoiseModel(3.6, 4.4, 0.85), 1.13, 24)
        assert np.linalg.eigvalsh(state.entries)[0] >= -1e-10
        assert 1.0 - 1e-6 < state.trace <= 1.0 + 1e-12

    def test_hermiticity_enforced(self):
        bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            ModeState(1, bad)
