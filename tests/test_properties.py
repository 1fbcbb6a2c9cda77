"""Property tests of the symplectic spectrum, the Williamson frame, the
equal-temperature frame, the Hamiltonian eigenframe, the Euler
factorisation and the QFI under loss over seeded random states.

Hypothesis draws the seeds, mode counts and squeeze caps; every drawn case is
reproducible from them through the ``conftest`` generators, and the search is
derandomised so the suite runs the same cases every time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussqfi as gq
from conftest import random_isothermal_point, random_model_point, random_state

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
