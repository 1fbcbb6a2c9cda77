"""Property tests of the symplectic spectrum, the Williamson frame and the
equal-temperature frame over seeded random states.

Hypothesis draws the seeds, mode counts and squeeze caps; every drawn case is
reproducible from them through the ``conftest`` generators, and the search is
derandomised so the suite runs the same cases every time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussqfi as gq
from conftest import random_isothermal_point, random_state

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
