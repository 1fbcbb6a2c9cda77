"""Property tests of the symplectic spectrum, the Williamson frame, the
equal-temperature frame, the Hamiltonian eigenframe, the Euler
factorisation, the photon-counting form, and the QFI (under loss, over
independent systems and under a rescaled parameter), over seeded random
states.

Hypothesis draws the seeds, mode counts and squeeze caps; every drawn case is
reproducible from them through the ``conftest`` generators, and the search is
derandomised so the suite runs the same cases every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussqfi as gq
from conftest import (
    explicit_doc,
    random_hamiltonian,
    random_isothermal_point,
    random_model_point,
    random_state,
    random_symmetric,
    thermal_diag,
)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
modes = st.integers(min_value=1, max_value=6)
squeeze_caps = st.floats(min_value=0.0, max_value=1.5)


@PROPERTY_SETTINGS
@given(n=modes, seed=seeds, cap=squeeze_caps, cap_s=squeeze_caps)
def test_spectrum_is_symplectic_invariant(n, seed, cap, cap_s):
    gamma, _, _ = random_state(n, seed, squeeze_cap=cap)
    S = gq.random_symplectic(n, seed=seed + 1, squeeze_cap=cap_s)
    np.testing.assert_allclose(
        gq.symplectic_eigenvalues(S @ gamma @ S.T),
        gq.symplectic_eigenvalues(gamma),
        rtol=1e-9,
    )


@PROPERTY_SETTINGS
@given(n=modes, seed=seeds, cap=squeeze_caps)
def test_williamson_round_trip(n, seed, cap):
    gamma, _, nu_in = random_state(n, seed, squeeze_cap=cap)
    dec = gq.williamson(gamma)
    w = gq.symplectic_form(n)
    assert np.abs(dec.S @ w @ dec.S.T - w).max() < 1e-10
    assert np.abs(dec.reconstruct() - gamma).max() < 1e-10 * np.abs(gamma).max()
    assert np.all(np.diff(dec.nu) <= 0.0)
    np.testing.assert_allclose(dec.nu, nu_in, rtol=1e-9)


@PROPERTY_SETTINGS
@given(
    n=modes,
    seed=seeds,
    nu=st.floats(min_value=1.0, max_value=4.0),
)
def test_isothermal_frame_is_symplectic_and_thermal(n, seed, nu):
    pt = random_isothermal_point(n, seed, nu=nu)
    fr = gq.isothermal_frame(pt)
    w = gq.symplectic_form(n)
    assert np.abs(fr.T @ w @ fr.T.T - w).max() < 1e-9
    assert abs(fr.nu - nu) < 1e-9 * nu
    np.testing.assert_allclose(
        fr.T @ pt.gamma @ fr.T.T, nu * np.eye(2 * n), atol=1e-9 * nu
    )


@PROPERTY_SETTINGS
@given(
    n=modes,
    seed=seeds,
    cap=st.floats(min_value=0.0, max_value=2.0),
    nu=st.floats(min_value=1.0, max_value=4.0),
    k=st.integers(min_value=0, max_value=5),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_gate_accepts_equal_and_rejects_spread_temperatures(n, seed, cap, nu, k, sign):
    S = gq.random_symplectic(n, seed=seed, squeeze_cap=cap)

    def is_isothermal(nus):
        gamma = S @ thermal_diag(nus) @ S.T
        zero = np.zeros(2 * n)
        pt = gq.GaussianModelPoint(zero, 0.5 * (gamma + gamma.T), zero, np.zeros((2 * n, 2 * n)))
        return gq.check_isothermal(pt).is_isothermal

    nus = np.full(n, nu)
    assert is_isothermal(nus)
    if n > 1:  # one mode is always isothermal
        nus[k % n] *= 1.0 + sign * 1e-4
        assert not is_isothermal(nus)


def _spectrum_with_zeros(rng, n, zeros, repeat):
    """``n`` values, ``zeros`` of them 0 and the rest in [0.1, 3] (all equal
    if ``repeat``), descending."""
    vals = rng.uniform(0.1, 3.0, n - zeros)
    if repeat:
        vals[:] = vals[:1]
    return np.sort(np.concatenate([vals, np.zeros(zeros)]))[::-1]


@PROPERTY_SETTINGS
@given(n=st.integers(min_value=1, max_value=5), data=st.data(), seed=seeds, repeat=st.booleans())
def test_hamiltonian_eigenframe_with_a_planted_zero_block(n, data, seed, repeat):
    zeros = data.draw(st.integers(min_value=0, max_value=n))
    rng = np.random.default_rng(seed)
    lam_in = _spectrum_with_zeros(rng, n, zeros, repeat)
    O = gq.random_orthogonal_symplectic(n, rng)
    W = O @ np.diag(np.concatenate([lam_in, -lam_in])) @ O.T
    W = 0.5 * (W + W.T)
    frame, lam = gq.hamiltonian_eigenframe(W)
    w = gq.symplectic_form(n)
    assert np.abs(frame @ frame.T - np.eye(2 * n)).max() < 1e-12
    assert np.abs(frame @ w @ frame.T - w).max() < 1e-12
    np.testing.assert_allclose(
        frame @ W @ frame.T, np.diag(np.concatenate([lam, -lam])), atol=1e-12
    )
    assert np.all(np.diff(lam) <= 0.0)
    assert np.count_nonzero(lam == 0.0) == zeros
    np.testing.assert_allclose(lam, lam_in, atol=1e-12)


@PROPERTY_SETTINGS
@given(n=st.integers(min_value=1, max_value=5), data=st.data(), seed=seeds, repeat=st.booleans())
def test_euler_round_trip_with_repeated_and_zero_squeezes(n, data, seed, repeat):
    zeros = data.draw(st.integers(min_value=0, max_value=n))
    rng = np.random.default_rng(seed)
    z_in = 0.5 * _spectrum_with_zeros(rng, n, zeros, repeat)
    S = (
        gq.random_orthogonal_symplectic(n, rng)
        @ np.diag(np.exp(np.concatenate([z_in, -z_in])))
        @ gq.random_orthogonal_symplectic(n, rng)
    )
    O1, z, O2 = gq.euler_decompose(S)
    w = gq.symplectic_form(n)
    for O in (O1, O2):
        assert np.abs(O @ O.T - np.eye(2 * n)).max() < 1e-10
        assert np.abs(O @ w @ O.T - w).max() < 1e-10
    np.testing.assert_allclose(z, z_in, atol=1e-12)
    assert np.all(np.diff(z) <= 0.0)
    D = np.diag(np.exp(np.concatenate([z, -z])))
    assert np.abs(O1 @ D @ O2 - S).max() < 1e-10 * np.abs(S).max()


@PROPERTY_SETTINGS
@given(
    n=st.integers(min_value=1, max_value=4),
    seed=seeds,
    isothermal=st.booleans(),
    nu=st.floats(min_value=1.0, max_value=3.0),
    eta=st.floats(min_value=0.1, max_value=0.99),
)
def test_qfi_does_not_increase_under_loss(n, seed, isothermal, nu, eta):
    # A beam splitter of transmissivity eta onto vacuum maps the moments to
    # (sqrt(eta) d, eta Gamma + (1 - eta) I), and their derivatives alike.
    pt = random_isothermal_point(n, seed, nu=nu) if isothermal else random_model_point(n, seed)
    lossy = gq.GaussianModelPoint(
        d=np.sqrt(eta) * pt.d,
        gamma=eta * pt.gamma + (1.0 - eta) * np.eye(2 * n),
        dd=np.sqrt(eta) * pt.dd,
        dgamma=eta * pt.dgamma,
    )
    before = gq.qfi_general(pt).qfi
    assert gq.qfi_general(lossy).qfi <= before + 1e-10 * (1.0 + before)


@PROPERTY_SETTINGS
@given(
    n=st.integers(min_value=1, max_value=3),
    seed=seeds,
    data=st.data(),
    tangent=st.sampled_from(["heating", "cooling", "random"]),
)
def test_counting_form_exists_exactly_when_L_is_definite(n, seed, data, tangent):
    pure = data.draw(st.integers(min_value=0, max_value=n))
    rng = np.random.default_rng(seed)
    S = gq.random_symplectic(n, seed=rng, squeeze_cap=0.8)
    nu = rng.uniform(1.2, 3.0, n)
    nu[:pure] = 1.0
    gamma = S @ thermal_diag(np.sort(nu)[::-1]) @ S.T
    M = rng.standard_normal((2 * n, 2 * n))
    dgamma = {"heating": M @ M.T, "cooling": -M @ M.T, "random": M + M.T}[tangent]
    pt = gq.GaussianModelPoint(
        rng.standard_normal(2 * n), 0.5 * (gamma + gamma.T),
        rng.standard_normal(2 * n), 0.5 * (dgamma + dgamma.T),
    )
    co = gq.sld_coefficients(pt)
    form = gq.photon_counting_form(co, pt)
    scale = np.abs(co.L).max()
    ev = np.linalg.eigvalsh(co.L)
    definite = scale > 1e-9 and (ev[0] > 1e-9 * scale or ev[-1] < -1e-9 * scale)
    assert (form is not None) == definite
    if form is None:
        return
    assert np.all(form.alpha > 0) or np.all(form.alpha < 0)
    D = np.diag(np.concatenate([form.alpha, form.alpha]))
    np.testing.assert_allclose(form.T.T @ D @ form.T, co.L, atol=1e-8 * scale)
    # d(Gamma^-1) = -Gamma^-1 dGamma Gamma^-1 has the sign opposite to dGamma;
    # where it is semidefinite, L has the opposite sign to it.
    if tangent != "random":
        assert np.all(np.sign(form.alpha) == (1.0 if tangent == "heating" else -1.0))


@PROPERTY_SETTINGS
@given(
    n=modes,
    seed=seeds,
    cap=squeeze_caps,
    k=st.integers(min_value=0, max_value=5),
    pure=st.booleans(),
    depth=st.floats(min_value=np.log10(2.0), max_value=6.0),
    heat=st.floats(min_value=0.0, max_value=6.0),
)
def test_solve_refuses_exactly_the_sub_vacuum_moments(n, seed, cap, k, pure, depth, heat):
    # One state rule, so one verdict from every entry point that reads
    # moments: the solve, the Fock oracle (one mode, to keep the run short),
    # the config reader and validate_covariance, and on equal-temperature
    # points also the gate, the homodyne frame and the shortcut QFI.  Beside
    # the mode at 1 or at `low`, between 1/2 and 1 - 1e-6, sits one mode at
    # up to nu = 1e6: its heat may neither hide the deficit nor refuse the
    # state.  Both are drawn on a log scale.
    gamma, S, nu = random_state(n, seed, squeeze_cap=cap)
    nu[(k + 1) % n] = 10.0**heat
    low = 1.0 - 10.0**-depth
    zero = np.zeros(2 * n)
    tangent = random_symmetric(2 * n, seed + 1)
    orbit = S @ random_hamiltonian(n, seed + 2) @ S.T  # keeps equal nu equal

    def point(nus, dgamma):
        g = S @ thermal_diag(nus) @ S.T
        return gq.GaussianModelPoint(zero, 0.5 * (g + g.T), zero, 0.5 * (dgamma + dgamma.T))

    raising = [gq.sld_coefficients, gq.qfi_general]
    if n == 1:  # unpadded, as only its verdict is tested
        raising.append(lambda pt: gq.build_state(pt, 8, pad=0, tail_bound=np.inf))
    equal = raising[1:] + [gq.check_isothermal, gq.isothermal_frame, gq.qfi_isothermal]

    if pure:
        nu[k % n] = 1.0
    for pt, calls in ((point(nu, tangent), raising), (point(np.ones(n), orbit), equal)):
        for call in calls:
            call(pt)
        gq.parse_model_config(explicit_doc(pt))
        assert gq.validate_covariance(pt.gamma).valid
    nu[k % n] = low
    for pt, calls in ((point(nu, tangent), raising), (point(np.full(n, low), orbit), equal)):
        for call in calls:
            with pytest.raises(gq.PreconditionError) as exc:
                call(pt)
            assert exc.value.flag == "nu_min"
        with pytest.raises(gq.ConfigError, match="not an admissible covariance"):
            gq.parse_model_config(explicit_doc(pt))
        assert not gq.validate_covariance(pt.gamma).valid


def _random_point(n, seed):
    return random_model_point(n, seed) if seed % 2 else random_isothermal_point(n, seed)


@PROPERTY_SETTINGS
@given(n_a=st.integers(min_value=1, max_value=3), n_b=st.integers(min_value=1, max_value=3),
       seed=seeds)
def test_qfi_is_additive_over_independent_systems(n_a, n_b, seed):
    from gaussqfi.symplectic import _direct_sum, _direct_sum_vector

    a, b = _random_point(n_a, seed), _random_point(n_b, seed + 1)
    joint = gq.GaussianModelPoint(
        _direct_sum_vector(a.d, b.d), _direct_sum(a.gamma, b.gamma),
        _direct_sum_vector(a.dd, b.dd), _direct_sum(a.dgamma, b.dgamma),
    )
    parts = gq.qfi_general(a).qfi + gq.qfi_general(b).qfi
    assert gq.qfi_general(joint).qfi == pytest.approx(parts, rel=1e-9, abs=1e-12)


@PROPERTY_SETTINGS
@given(n=st.integers(min_value=1, max_value=4), seed=seeds,
       k=st.floats(min_value=-10.0, max_value=10.0))
def test_fisher_informations_scale_with_the_square_of_the_tangent(n, seed, k):
    pt = _random_point(n, seed)
    scaled = gq.GaussianModelPoint(pt.d, pt.gamma, k * pt.dd, k * pt.dgamma)
    rep, rep_k = gq.qfi_general(pt), gq.qfi_general(scaled)
    k2 = k * k
    assert rep_k.qfi == pytest.approx(k2 * rep.qfi, rel=1e-9, abs=1e-12)
    assert rep_k.wigner_fisher == pytest.approx(k2 * rep.wigner_fisher, rel=1e-9, abs=1e-12)
    if seed % 2 == 0:  # equal temperature, temperature-preserving tangent
        hom = gq.optimal_homodyne_fisher(gq.isothermal_frame(pt))
        hom_k = gq.optimal_homodyne_fisher(gq.isothermal_frame(scaled))
        assert hom_k == pytest.approx(k2 * hom, rel=1e-9, abs=1e-12)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    k=st.integers(min_value=0, max_value=3),
    colds=st.lists(st.floats(min_value=-3.0, max_value=0.3), min_size=1, max_size=3),
    heat=st.floats(min_value=0.5, max_value=6.0),
    cap=st.floats(min_value=0.0, max_value=1.0),
)
def test_kernel_is_the_vacuum_pairs_beside_any_heat(seed, k, colds, heat, cap):
    # k vacuum modes, cold modes at 1 + 10^u and one mode at 10^0.5 to 1e6,
    # in a squeezed frame: the kernel is the 2 k^2 parity-+ lines of the
    # vacuum pairs whatever the hottest mode, and heating a cold mode has the
    # thermal QFI 1 / (nu^2 - 1), however close to 1 it sits.
    nu = np.concatenate([np.ones(k), 1.0 + 10.0 ** np.array(colds), [10.0**heat]])
    n = nu.size
    S = gq.random_symplectic(n, seed=seed, squeeze_cap=cap)
    gamma = S @ thermal_diag(nu) @ S.T
    gamma = 0.5 * (gamma + gamma.T)
    assert gq.dgamma_spectrum(gamma).kernel_dimension == 2 * k * k
    heating = np.zeros(n)
    heating[k] = 1.0
    dgamma = S @ thermal_diag(heating) @ S.T
    zero = np.zeros(2 * n)
    pt = gq.GaussianModelPoint(zero, gamma, zero, 0.5 * (dgamma + dgamma.T))
    cold = nu[k]
    assert gq.qfi_general(pt).qfi == pytest.approx(1.0 / (cold * cold - 1.0), rel=1e-6)
