"""Tests for the second-moment superoperator: forward action, spectral
decomposition, pseudoinverse, and the fixed-point series solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_discrete_lyapunov

import gaussqfi as gq
from conftest import (
    random_model_point,
    random_passive_state,
    random_state,
    random_symmetric,
    thermal_diag,
)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_apply_dgamma_equals_dense_form(n):
    rng = np.random.default_rng(n)
    gamma, Y = rng.standard_normal((2, 2 * n, 2 * n))
    w = gq.symplectic_form(n)
    assert_array_equal(gq.apply_dgamma(gamma, Y), gamma @ Y @ gamma.T - w @ Y @ w.T)


def test_apply_dgamma_basics():
    assert_allclose(gq.apply_dgamma(2 * np.eye(2), np.zeros((2, 2))), np.zeros((2, 2)))
    # Vacuum annihilates the identity direction.
    assert_allclose(gq.apply_dgamma(np.eye(2), np.eye(2)), np.zeros((2, 2)), atol=1e-15)
    assert_allclose(gq.apply_dgamma(2 * np.eye(2), np.eye(2)), 3 * np.eye(2), atol=1e-15)
    with pytest.raises(ValueError):
        gq.apply_dgamma(np.eye(2), np.eye(4))


def test_apply_dgamma_matches_dense_matrix():
    gamma, _, _ = random_state(2, seed=21)
    rep = gq.dgamma_matrix(gamma)
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((4, 4))
    assert_allclose(rep @ Y.ravel(), gq.apply_dgamma(gamma, Y).ravel(), atol=1e-10)
    assert_allclose(rep, rep.T, atol=1e-12)


def test_apply_dgamma_self_adjoint_and_symmetry_preserving():
    gamma, _, _ = random_state(2, seed=8)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 4))
    Y = rng.standard_normal((4, 4))
    lhs = float(np.sum(gq.apply_dgamma(gamma, X) * Y))
    rhs = float(np.sum(X * gq.apply_dgamma(gamma, Y)))
    assert lhs == pytest.approx(rhs, rel=1e-12)

    Xs = X + X.T
    out = gq.apply_dgamma(gamma, Xs)
    assert_allclose(out, out.T, atol=1e-12)
    assert_allclose(gq.apply_dgamma(gamma, X.T), gq.apply_dgamma(gamma, X).T, atol=1e-12)


def _basis_matrices(gamma, k, i, j):
    """The two frame matrices ``S E S^T`` spanning the eigenspace of
    ``values[k, i, j]``: ``E`` is the block basis ``{I, w} / sqrt2``
    (``k = 0``, parity +) or ``{sigma_x, sigma_z} / sqrt2`` (``k = 1``,
    parity -) on rows ``(i, n + i)`` and columns ``(j, n + j)``."""
    S = gq.williamson(gamma).S
    n = S.shape[0] // 2
    blocks = (
        (np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])),
    )[k]
    out = []
    for E2 in blocks:
        E = np.zeros((2 * n, 2 * n))
        E[np.ix_([i, n + i], [j, n + j])] = E2 / np.sqrt(2.0)
        out.append(S @ E @ S.T)
    return out


def test_spectrum_single_thermal():
    spec = gq.dgamma_spectrum(2 * np.eye(2))
    assert_allclose(spec.eigenvalues(), [3.0, 3.0, 5.0, 5.0], atol=1e-12)
    assert spec.kernel_dimension == 0
    assert_allclose(spec.nu, [2.0], atol=1e-12)


def test_spectrum_vacuum_kernel():
    spec = gq.dgamma_spectrum(np.eye(2))
    assert_allclose(spec.eigenvalues(), [0.0, 0.0, 2.0, 2.0], atol=1e-12)
    assert spec.kernel_dimension == 2
    kernel_lines = np.argwhere(spec.kernel)
    assert len(kernel_lines) == 1
    # The kernel directions span {identity, symplectic form}.
    E1, E2 = _basis_matrices(np.eye(2), *kernel_lines[0])
    span = np.stack([E1.ravel(), E2.ravel()]).T
    for target in (np.eye(2), gq.symplectic_form(1)):
        coef, *_ = np.linalg.lstsq(span, target.ravel(), rcond=None)
        assert_allclose(span @ coef, target.ravel(), atol=1e-10)


def test_spectrum_two_modes_mixed_purity():
    gamma = thermal_diag([3.0, 1.0])
    spec = gq.dgamma_spectrum(gamma)
    expected = np.sort(
        [0.0, 0.0, 2.0, 2.0]  # vacuum pair
        + [2.0, 2.0, 4.0, 4.0] * 2  # both orderings of the cross pair
        + [8.0, 8.0, 10.0, 10.0]  # hot pair
    )
    assert_allclose(spec.eigenvalues(), expected, atol=1e-12)
    assert spec.kernel_dimension == 2
    dense = np.sort(np.linalg.eigvalsh(gq.dgamma_matrix(gamma)))
    assert_allclose(spec.eigenvalues(), dense, atol=1e-8)


@pytest.mark.parametrize("seed,n,pure", [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 3, 2)])
def test_spectrum_matches_dense_for_passive_frames(seed, n, pure):
    gamma, _, _ = random_passive_state(n, seed, pure_modes=pure)
    spec = gq.dgamma_spectrum(gamma)
    dense = np.sort(np.linalg.eigvalsh(gq.dgamma_matrix(gamma)))
    assert np.abs(spec.eigenvalues() - dense).max() < 1e-8
    assert spec.kernel_dimension == 2 * pure * pure


def test_spectrum_frame_expansion_reconstructs_dense_matrix():
    # With a squeezing frame the block directions are congruence (not
    # orthogonal) eigenvectors, but the rank-one expansion over them still
    # rebuilds the dense matrix exactly.
    gamma, _, _ = random_state(2, seed=33, nu_min=1.0, squeeze_cap=1.0)
    spec = gq.dgamma_spectrum(gamma)
    rep = np.zeros((16, 16))
    for line in np.ndindex(spec.values.shape):
        for E in _basis_matrices(gamma, *line):
            v = E.ravel()
            rep += spec.values[line] * np.outer(v, v)
    dense = gq.dgamma_matrix(gamma)
    assert_allclose(rep, dense, atol=1e-9 * (1 + np.abs(dense).max()))


def test_pseudoinverse_thermal_closed_form():
    Y, res = gq.dgamma_pseudoinverse_apply(2 * np.eye(2), np.eye(2))
    assert_allclose(Y, np.eye(2) / 3, atol=1e-12)
    assert res < 1e-12


def test_pseudoinverse_vacuum_kernel_input():
    Y, res = gq.dgamma_pseudoinverse_apply(np.eye(2), np.eye(2))
    assert_allclose(Y, np.zeros((2, 2)), atol=1e-12)
    assert res == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_pseudoinverse_oblique_kernel_split_pure_state():
    # For a pure squeezed state the kernel directions are S I S^T (= gamma)
    # and S w S^T in the squeezing frame S; the frame split is oblique, so
    # the removed component is the frame coefficient of the input along
    # gamma, not an orthogonal projection of the dense matrix.
    r = 0.6
    gamma = np.diag([np.exp(2 * r), np.exp(-2 * r)])
    S = gq.williamson(gamma).S
    Si = np.linalg.inv(S)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    for a, b, c in [(1.0, 0.0, 0.0), (0.0, 1.0, -0.5), (2.0, 0.3, 0.7)]:
        X = S @ (a * np.eye(2) + b * sx + c * sz) @ S.T
        Y, res = gq.dgamma_pseudoinverse_apply(gamma, X)
        # The anticommuting block carries eigenvalue nu^2 + 1 = 2.
        assert_allclose(Y, Si.T @ ((b * sx + c * sz) / 2.0) @ Si, atol=1e-10)
        assert res == pytest.approx(abs(a) * np.linalg.norm(gamma), abs=1e-9)
        assert_allclose(
            gq.apply_dgamma(gamma, Y), X - a * gamma, atol=1e-9
        )


@pytest.mark.parametrize("seed,n,cap", [(0, 1, 0.8), (1, 2, 1.0), (2, 2, 0.0)])
def test_pseudoinverse_penrose_identities(seed, n, cap):
    gamma, _, _ = random_state(n, seed, nu_min=1.0, squeeze_cap=cap)
    X = random_symmetric(2 * n, seed + 50)
    Y, _ = gq.dgamma_pseudoinverse_apply(gamma, X)
    DX = gq.apply_dgamma(gamma, X)
    # D o pinv o D == D
    Y2, _ = gq.dgamma_pseudoinverse_apply(gamma, DX)
    assert_allclose(
        gq.apply_dgamma(gamma, Y2), DX, atol=1e-9 * (1 + np.abs(DX).max())
    )
    # pinv o D o pinv == pinv
    Y3, _ = gq.dgamma_pseudoinverse_apply(gamma, gq.apply_dgamma(gamma, Y))
    assert_allclose(Y3, Y, atol=1e-9 * (1 + np.abs(Y).max()))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_derivative_of_inverse_relation(seed):
    point = random_model_point(2, seed, nu_min=1.15)
    gi = np.linalg.inv(point.gamma)
    dginv = -gi @ point.dgamma @ gi
    w = gq.symplectic_form(2)
    lhs = -gq.apply_dgamma(point.gamma, dginv) - w @ dginv @ w.T
    assert_allclose(lhs, point.dgamma, atol=1e-10 * (1 + np.abs(point.dgamma).max()))


def test_stein_thermal_closed_form():
    Y = gq.stein_series_solve(2 * np.eye(2), np.eye(2))
    assert_allclose(Y, np.eye(2) / 3, atol=1e-11)


def test_stein_zero_input():
    gamma = thermal_diag([2.0, 3.0])
    assert_allclose(gq.stein_series_solve(gamma, np.zeros((4, 4))), np.zeros((4, 4)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stein_matches_pseudoinverse(seed):
    gamma, _, _ = random_state(2, seed + 400, nu_min=1.5, nu_max=3.0)
    X = random_symmetric(4, seed + 60)
    Y1 = gq.stein_series_solve(gamma, X)
    Y2, res = gq.dgamma_pseudoinverse_apply(gamma, X)
    assert res < 1e-10 * (1 + np.linalg.norm(X))  # nonsingular: X is in range
    assert_allclose(Y1, Y2, atol=1e-8 * (1 + np.abs(Y2).max()))


def test_stein_satisfies_equation_and_scipy_agrees():
    gamma, _, _ = random_state(1, 77, nu_min=1.5, nu_max=1.5)
    X = random_symmetric(2, 78)
    Y = gq.stein_series_solve(gamma, X)
    gi = np.linalg.inv(gamma)
    H = gi @ gq.symplectic_form(1)
    rhs = gi @ X @ gi
    assert_allclose(Y - H @ Y @ H.T, rhs, atol=1e-11)
    assert_allclose(Y, solve_discrete_lyapunov(H, rhs), atol=1e-9)


def test_stein_refuses_states_at_purity_boundary():
    with pytest.raises(gq.PreconditionError) as exc:
        gq.stein_series_solve(np.eye(2), np.eye(2))
    assert exc.value.flag == "nu_min"
    # One cold mode is enough to trip the guard.
    with pytest.raises(gq.PreconditionError):
        gq.stein_series_solve(thermal_diag([2.0, 1.0]), np.eye(4))


def _dense_range_solve(gamma, X):
    """Project ``X`` orthogonally on the range of the dense map and solve there."""
    ev, V = np.linalg.eigh(gq.dgamma_matrix(gamma))
    keep = np.abs(ev) > 1e-9 * (1 + np.abs(ev).max())
    coef = (V[:, keep].T @ X.ravel()) / ev[keep]
    return (V[:, keep] @ coef).reshape(X.shape)


# The orthogonal projection equals the frame split whenever the kernel is
# empty or the Williamson frame is orthogonal; squeezed frames with a kernel
# split obliquely (see test_pseudoinverse_oblique_kernel_split_pure_state).
_DENSE_ROUTE_CASES = {
    "thermal": lambda: thermal_diag([2.5, 1.7]),
    "passive": lambda: random_passive_state(3, 11)[0],
    "squeezed": lambda: random_state(3, 12, nu_min=1.1, squeeze_cap=1.0)[0],
    "squeezed-near-pure": lambda: random_state(2, 13, nu_min=1.0, nu_max=1.05)[0],
    "vacuum-kernel": lambda: random_passive_state(2, 14, pure_modes=2)[0],
    "mixed-purity": lambda: random_passive_state(3, 15, pure_modes=1)[0],
    "mixed-purity-two-cold": lambda: random_passive_state(3, 16, pure_modes=2)[0],
}


@pytest.mark.parametrize("case", sorted(_DENSE_ROUTE_CASES))
def test_pseudoinverse_matches_dense_range_solve(case):
    gamma = _DENSE_ROUTE_CASES[case]()
    rng = np.random.default_rng(7)
    for X in (random_symmetric(gamma.shape[0], 8), rng.standard_normal(gamma.shape)):
        Y, res = gq.dgamma_pseudoinverse_apply(gamma, X)
        Yd = _dense_range_solve(gamma, X)
        assert_allclose(Y, Yd, atol=1e-10 * (1 + np.abs(Yd).max()))
        DYd = gq.apply_dgamma(gamma, Yd)
        assert res == pytest.approx(np.linalg.norm(DYd - X), abs=1e-9 * (1 + res))


@pytest.mark.parametrize(
    "gamma",
    [
        np.eye(2),
        thermal_diag([3.0, 1.0]),
        random_passive_state(3, 21, pure_modes=2)[0],
        random_state(1, 22, nu_min=1.0, nu_max=1.0, squeeze_cap=0.8)[0],
        random_state(2, 23, nu_min=1.5, squeeze_cap=0.8)[0],
    ],
)
def test_pseudoinverse_zeroes_kernel_dimension_components(gamma):
    # The solve is linear; its rank deficiency over all (2n)^2 inputs is the
    # number of eigenvalue entries it zeroes, one kernel rule with the spectrum.
    m = gamma.shape[0]
    columns = []
    for k in range(m * m):
        E = np.zeros(m * m)
        E[k] = 1.0
        columns.append(gq.dgamma_pseudoinverse_apply(gamma, E.reshape(m, m))[0].ravel())
    sv = np.linalg.svd(np.array(columns).T, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv.max()))
    assert m * m - rank == gq.dgamma_spectrum(gamma).kernel_dimension


def _block_loop_pinv(gamma, X):
    """Reference: the mode-pair loop over the 2x2 block basis, with a dense
    inverse; the parity-+ blocks of vacuum pairs (within 1e-9) are dropped."""
    dec = gq.williamson(gamma)
    n = len(dec.nu)
    Si = np.linalg.inv(dec.S)
    Xt = Si @ X @ Si.T
    vacuum = np.abs(dec.nu - 1.0) <= 1e-9
    basis = [
        (np.eye(2), +1),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), +1),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), -1),
        (np.array([[1.0, 0.0], [0.0, -1.0]]), -1),
    ]
    Yt = np.zeros_like(Xt)
    for i in range(n):
        for j in range(n):
            idx = np.ix_([i, n + i], [j, n + j])
            for E, parity in basis:
                if parity == +1 and vacuum[i] and vacuum[j]:
                    continue
                lam = dec.nu[i] * dec.nu[j] - parity
                Yt[idx] += (np.sum(Xt[idx] * E) / (2.0 * lam)) * E
    return Si.T @ Yt @ Si


@pytest.mark.parametrize("seed", range(24))
def test_pseudoinverse_matches_block_loop_reference(seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 6
    S = gq.random_symplectic(n, seed=seed, squeeze_cap=0.8)
    nu = np.sort(rng.uniform(1.0, 3.0, n))[::-1]
    nu[rng.integers(0, n + 1):] = 1.0  # vacuum modes give the map a kernel
    gamma = S @ thermal_diag(nu) @ S.T
    X = rng.standard_normal((2 * n, 2 * n))
    Y, _ = gq.dgamma_pseudoinverse_apply(gamma, X)
    Yref = _block_loop_pinv(gamma, X)
    assert np.abs(Y - Yref).max() <= 1e-12 * np.abs(Yref).max()
