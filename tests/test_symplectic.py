"""Tests for the phase-space primitives: form conventions, covariance
validation, normal-mode decompositions, and random generators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gaussqfi as gq
from gaussqfi.symplectic import _direct_sum as direct_sum, _direct_sum_vector as direct_sum_vector
from gaussqfi.symplectic import _w_left, _w_right
from conftest import random_hamiltonian, random_state, thermal_diag


def test_symplectic_form_convention():
    w1 = gq.symplectic_form(1)
    assert_allclose(w1, [[0.0, 1.0], [-1.0, 0.0]])
    assert_allclose(w1 @ w1, -np.eye(2))
    w3 = gq.symplectic_form(3)
    assert_allclose(w3[:3, 3:], np.eye(3))
    assert_allclose(w3[3:, :3], -np.eye(3))
    assert_allclose(w3 + w3.T, np.zeros((6, 6)))
    with pytest.raises(ValueError):
        gq.symplectic_form(0)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_form_by_index_equals_dense_products(n):
    # every entry of w is 0 or +/-1, so the index forms are exact
    M = np.random.default_rng(n).standard_normal((2 * n, 2 * n))
    w = gq.symplectic_form(n)
    assert_array_equal(_w_left(M), w @ M)
    assert_array_equal(_w_right(M), M @ w)
    dev = np.abs(M @ w @ M.T - w).max()
    assert gq.is_symplectic(M, tol=dev)
    assert not gq.is_symplectic(M, tol=np.nextafter(dev, 0.0))
    dec = gq.WilliamsonDecomposition(S=M, nu=np.ones(n))
    assert_array_equal(dec.S_inv, -w @ M.T @ w)


def test_validate_covariance_verdicts():
    ok = gq.validate_covariance(np.eye(2))
    assert ok
    assert ok.nu_min == pytest.approx(1.0, abs=1e-12)

    bad = gq.validate_covariance(0.5 * np.eye(2))
    assert not bad
    assert bad.nu_min == pytest.approx(0.5, abs=1e-12)

    # Pure squeezed state: ordinary eigenvalues are far from 1, but the
    # symplectic spectrum sits exactly at the purity boundary.
    sq = gq.validate_covariance(np.diag([np.e, 1.0 / np.e]))
    assert sq
    assert sq.nu_min == pytest.approx(1.0, abs=1e-10)


def test_validate_covariance_rejects_asymmetry_and_shape():
    g = np.eye(2)
    g[0, 1] = 1e-3
    res = gq.validate_covariance(g)
    assert not res.valid
    assert res.asymmetry == pytest.approx(1e-3, rel=1e-9)

    nan = np.eye(2)
    nan[1, 1] = np.nan
    assert not gq.validate_covariance(nan).valid

    with pytest.raises(ValueError):
        gq.validate_covariance(np.eye(3))


def test_validate_covariance_symplectic_invariance():
    gamma, _, _ = random_state(2, seed=11, nu_min=1.1)
    S = gq.random_symplectic(2, seed=5, squeeze_cap=0.7)
    before = gq.validate_covariance(gamma)
    after = gq.validate_covariance(S @ gamma @ S.T)
    assert before.valid and after.valid
    assert after.nu_min == pytest.approx(before.nu_min, abs=1e-9)


def test_symplectic_eigenvalues_thermal():
    assert_allclose(gq.symplectic_eigenvalues(thermal_diag([3.0, 1.5])), [3.0, 1.5])


def test_williamson_thermal():
    dec = gq.williamson(3 * np.eye(2))
    assert_allclose(dec.nu, [3.0], atol=1e-12)
    assert gq.is_symplectic(dec.S)
    assert_allclose(dec.S @ dec.S.T, np.eye(2), atol=1e-12)
    assert_allclose(dec.reconstruct(), 3 * np.eye(2), atol=1e-12)


def test_williamson_pure_squeezed():
    r = 0.5
    gamma = np.diag([np.exp(2 * r), np.exp(-2 * r)])
    dec = gq.williamson(gamma)
    assert_allclose(dec.nu, [1.0], atol=1e-12)
    assert gq.is_symplectic(dec.S)
    assert_allclose(dec.reconstruct(), gamma, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_williamson_random_roundtrip(n):
    gamma, _, nu_in = random_state(n, seed=100 + n, nu_min=1.0, squeeze_cap=1.2)
    dec = gq.williamson(gamma)
    scale = max(1.0, np.abs(gamma).max())
    assert np.abs(dec.reconstruct() - gamma).max() < 1e-10 * scale
    w = gq.symplectic_form(n)
    assert np.abs(dec.S @ w @ dec.S.T - w).max() < 1e-10
    assert_allclose(dec.nu, nu_in, atol=1e-9)
    assert_allclose(dec.nu, gq.symplectic_eigenvalues(gamma), atol=1e-10)
    assert np.all(np.diff(dec.nu) <= 1e-12)


@pytest.mark.parametrize(
    "family, params",
    [
        ("phase_squeezed", {"r": 6.0}),
        ("phase_squeezed", {"r": 7.0}),
        ("two_mode_squeezed_phase", {"r": 6.0}),
    ],
)
def test_spectrum_routes_agree_under_strong_squeezing(family, params):
    gamma = gq.builtin_family(family, params).point(0.7).gamma
    nu = gq.williamson(gamma).nu
    assert_allclose(gq.symplectic_eigenvalues(gamma), nu, rtol=1e-12)
    assert gq.validate_covariance(gamma).nu_min == pytest.approx(nu[-1], rel=1e-12)


def test_williamson_degenerate_spectrum():
    S = gq.random_symplectic(2, seed=3, squeeze_cap=0.9)
    gamma = 2.0 * S @ S.T
    dec = gq.williamson(gamma)
    assert_allclose(dec.nu, [2.0, 2.0], atol=1e-10)
    assert_allclose(dec.reconstruct(), gamma, atol=1e-9 * np.abs(gamma).max())


def test_williamson_raises_past_its_reconstruction_bound(monkeypatch):
    # Eigenvectors 1e-6 too long scale S, so S diag(nu, nu) S^T misses gamma by
    # about 2e-6 |gamma|, far past the 1e-10 bound.
    gamma, _, _ = random_state(2, seed=4)
    eigh = np.linalg.eigh

    def long_eigenvectors(a):
        ev, V = eigh(a)
        return ev, V * (1.0 + 1e-6)

    monkeypatch.setattr(np.linalg, "eigh", long_eigenvectors)
    with pytest.raises(gq.ConvergenceError, match="reconstruction error"):
        gq.williamson(gamma)


def test_williamson_rejects_bad_input():
    g = np.eye(2)
    g[0, 1] = 0.5
    with pytest.raises(ValueError):
        gq.williamson(g)
    with pytest.raises(ValueError):
        gq.williamson(np.diag([1.0, -1.0]))


def test_random_symplectic_contract():
    S1 = gq.random_symplectic(3, seed=42, squeeze_cap=1.5)
    S2 = gq.random_symplectic(3, seed=42, squeeze_cap=1.5)
    assert_allclose(S1, S2)
    w = gq.symplectic_form(3)
    assert np.abs(S1 @ w @ S1.T - w).max() < 1e-12


def test_random_symplectic_zero_squeeze_is_passive():
    S = gq.random_symplectic(2, seed=7, squeeze_cap=0.0)
    assert_allclose(S @ S.T, np.eye(4), atol=1e-12)
    assert gq.is_symplectic(S, tol=1e-12)


def test_random_orthogonal_symplectic():
    O = gq.random_orthogonal_symplectic(3, 9)
    assert_allclose(O @ O.T, np.eye(6), atol=1e-12)
    assert gq.is_symplectic(O, tol=1e-12)


def test_hamiltonian_eigenframe_sigma_x():
    lam0 = 2.0 * np.sinh(1.0)
    W = lam0 * np.array([[0.0, 1.0], [1.0, 0.0]])
    O, lam = gq.hamiltonian_eigenframe(W)
    assert_allclose(lam, [lam0], atol=1e-12)
    assert_allclose(O @ W @ O.T, np.diag([lam0, -lam0]), atol=1e-10)


def test_hamiltonian_eigenframe_zero_matrix():
    O, lam = gq.hamiltonian_eigenframe(np.zeros((4, 4)))
    assert_allclose(lam, np.zeros(2), atol=0)
    assert_allclose(O @ O.T, np.eye(4), atol=1e-10)
    assert gq.is_symplectic(O, tol=1e-10)


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2), (2, 3)])
def test_hamiltonian_eigenframe_random(n, seed):
    W = random_hamiltonian(n, seed)
    O, lam = gq.hamiltonian_eigenframe(W)
    assert np.all(lam >= -1e-14)
    assert np.all(np.diff(lam) <= 1e-12)
    assert_allclose(O @ O.T, np.eye(2 * n), atol=1e-9)
    assert gq.is_symplectic(O, tol=1e-9)
    assert_allclose(
        O @ W @ O.T, np.diag(np.concatenate([lam, -lam])), atol=1e-9
    )


def test_hamiltonian_eigenframe_rejects_non_hamiltonian():
    # Identity commutes with the form instead of anticommuting.
    with pytest.raises(ValueError, match="does not anticommute"):
        gq.hamiltonian_eigenframe(np.eye(2))
    with pytest.raises(ValueError, match="W is not symmetric"):
        gq.hamiltonian_eigenframe(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_direct_sum_interleaves_sectors():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])  # one mode
    B = np.diag([10.0, 20.0, 30.0, 40.0])  # two modes
    out = direct_sum(A, B)
    assert out.shape == (6, 6)
    # Mode 0 (from A) occupies rows/cols (0, 3) = (Q1, P1).
    assert_allclose(out[np.ix_([0, 3], [0, 3])], A)
    assert_allclose(out[np.ix_([1, 2, 4, 5], [1, 2, 4, 5])], B)
    assert_allclose(out[np.ix_([0, 3], [1, 2, 4, 5])], np.zeros((2, 4)))

    v = direct_sum_vector(np.array([1.0, -1.0]), np.array([2.0, 3.0, -2.0, -3.0]))
    assert_allclose(v, [1.0, 2.0, 3.0, -1.0, -2.0, -3.0])


def test_direct_sum_of_symplectics_is_symplectic():
    SA = gq.random_symplectic(1, seed=31, squeeze_cap=1.0)
    SB = gq.random_symplectic(2, seed=32, squeeze_cap=1.0)
    assert gq.is_symplectic(direct_sum(SA, SB), tol=1e-10)


@pytest.mark.parametrize("n,seed", [(1, 0), (3, 1), (6, 2)])
def test_williamson_symplectic_inverse(n, seed):
    gamma, _, _ = random_state(n, seed, squeeze_cap=1.0)
    dec = gq.williamson(gamma)
    assert_allclose(dec.S_inv @ dec.S, np.eye(2 * n), atol=1e-11)
    assert_allclose(dec.S_inv, np.linalg.inv(dec.S), atol=1e-10)


@pytest.mark.parametrize(
    "gamma",
    [np.diag([1.0, -1.0]), np.diag([2.0, 1.0, -0.5, 3.0]), np.diag([1.0, 0.0]),
     np.ones((2, 2)), np.diag([2.0, 1.0, 0.0, 3.0])],
    ids=["indefinite-1", "indefinite-2", "singular-1", "singular-rank1", "singular-2"],
)
def test_not_positive_definite_raises_value_error(gamma):
    for func in (gq.symplectic_eigenvalues, gq.williamson):
        with pytest.raises(ValueError, match="not positive definite") as exc:
            func(gamma)
        assert not isinstance(exc.value, np.linalg.LinAlgError)
    assert not gq.validate_covariance(gamma)


def test_validate_covariance_on_numerically_singular_matrix():
    # eigvalsh rounds the small eigenvalue to +6.9e-18 here, while the
    # Cholesky factor meets a nonpositive pivot: a verdict, not a raise.
    g = np.array([[0.06631800771305024, -0.24883715471372447],
                  [-0.24883715471372447, 0.9336819922869498]])
    check = gq.validate_covariance(g)
    assert not check
    assert check.nu_min < 1e-6
