"""Tests for the truncated Fock-basis oracle.

These pin down the oracle itself (operator algebra, state construction,
moment recovery) so that engine-vs-oracle comparisons elsewhere are
meaningful.
"""

import numpy as np
import pytest
import scipy.linalg as la
from numpy.testing import assert_allclose

import gaussqfi as gq
from conftest import explicit_doc
from gaussqfi.fock import _destroy, _quadrature_operators, _sld_matrix


def _passive_from_u(u):
    """Orthogonal symplectic ``[[c, s], [-s, c]]`` of the mode unitary ``u = c - i s``."""
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_NEAR_DEGENERATE = (
    np.array([[0.8, -0.6], [0.6, 0.8]])
    @ np.diag(np.exp(1j * np.array([0.6, 0.6 + 1e-9])))
    @ np.array([[0.8, 0.6], [-0.6, 0.8]])
)
_RANDOM_O = gq.random_orthogonal_symplectic(2, np.random.default_rng(3))


def test_quadrature_commutators_single_mode():
    R = _quadrature_operators(1, 12)
    comm = R[0] @ R[1] - R[1] @ R[0]
    # Canonical commutator holds away from the truncation corner.
    assert_allclose(comm[:11, :11], 1j * np.eye(11), atol=1e-12)
    assert comm[11, 11] == pytest.approx(-11j)


def test_quadrature_commutators_two_modes():
    R = _quadrature_operators(2, 5)
    assert R.shape == (4, 25, 25)
    # Different modes commute exactly, even truncated.
    assert_allclose(R[0] @ R[3] - R[3] @ R[0], np.zeros((25, 25)), atol=1e-12)


def test_passive_unitary_rejects_active_transformations():
    with pytest.raises(gq.ConfigError):
        gq.passive_unitary(2.0 * np.eye(2), 10)
    with pytest.raises(gq.ConfigError):
        gq.passive_unitary(np.diag([np.e, 1 / np.e]), 10)


@pytest.mark.parametrize(
    "O",
    [np.diag([1.0, -1.0]), np.array([[1.0, 0.0], [0.5, 1.0]])],
    ids=["reflection", "shear"],
)
def test_passive_unitary_rejects_matrices_off_the_passive_form(O):
    # Both have the top blocks of the identity; only the bottom blocks differ.
    with pytest.raises(gq.ConfigError):
        gq.passive_unitary(O, 10)


def test_passive_unitary_rotates_quadratures():
    th = 0.7
    O = np.array(
        [[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]
    )
    dim = 14
    U = gq.passive_unitary(O, dim)
    assert_allclose(U @ U.conj().T, np.eye(dim), atol=1e-10)
    R = _quadrature_operators(1, dim)
    # Heisenberg action R -> O R on the interior block.
    for i in range(2):
        lhs = U.conj().T @ R[i] @ U
        rhs = O[i, 0] * R[0] + O[i, 1] * R[1]
        assert np.abs(lhs - rhs)[: dim - 2, : dim - 2].max() < 1e-10


@pytest.mark.parametrize(
    "O",
    [_RANDOM_O, -np.eye(4), np.eye(4), _passive_from_u(_SWAP)],
    ids=["random", "minus-identity", "identity", "swap"],
)
def test_passive_unitary_two_modes(O):
    dim = 10
    U = gq.passive_unitary(O, dim)
    assert_allclose(U @ U.conj().T, np.eye(dim**2), atol=1e-10)
    R = _quadrature_operators(2, dim)
    # The truncated generator is exact on total photon number <= dim - 1, so
    # R -> O R holds between states with n1 + n2 <= dim - 2.
    inner = np.add.outer(np.arange(dim), np.arange(dim)).ravel() <= dim - 2
    block = np.ix_(inner, inner)
    for i in range(4):
        lhs = U.conj().T @ R[i] @ U
        rhs = np.einsum("k,kab->ab", O[i], R)
        assert np.abs(lhs - rhs)[block].max() < 1e-10


@pytest.mark.parametrize("z", [0.3, -0.3])
def test_squeeze_unitary_scales_quadratures(z):
    dim = 60
    U = gq.squeeze_unitary([z], dim)
    assert_allclose(U @ U.conj().T, np.eye(dim), atol=1e-10)
    R = _quadrature_operators(1, dim)
    for k, scale in enumerate([np.exp(z), np.exp(-z)]):
        lhs = U.conj().T @ R[k] @ U
        assert np.abs(lhs - scale * R[k])[:12, :12].max() < 1e-10


@pytest.mark.parametrize("d", [[1.2, -0.7], [0.4, -0.3, 0.2, 0.5]])
def test_displacement_unitary_shifts_first_moments(d):
    n = len(d) // 2
    dim = 30 if n == 1 else 16
    R = _quadrature_operators(n, dim)
    one = 1 if n == 1 else dim + 1  # index of |1> or |1, 1>
    for start in (0, one):
        psi0 = np.eye(dim**n)[start]
        psi = gq.displacement_unitary(d, dim) @ psi0
        shift = [np.vdot(psi, Rk @ psi).real - np.vdot(psi0, Rk @ psi0).real for Rk in R]
        assert_allclose(shift, d, atol=1e-10)


def _scipy_passive_unitary(O, dim):
    """The matrix-logarithm and matrix-exponential route, as a reference."""
    n = O.shape[0] // 2
    hc = 1j * la.logm(O[:n, :n] - 1j * O[:n, n:])
    hc = 0.5 * (hc + hc.conj().T)
    a1 = _destroy(dim)
    a = [np.kron(np.kron(np.eye(dim**k), a1), np.eye(dim ** (n - 1 - k))) for k in range(n)]
    gen = sum(hc[j, k] * (a[j].conj().T @ a[k]) for j in range(n) for k in range(n))
    return la.expm(-1j * gen)


def _scipy_squeeze_unitary(z, dim):
    a = _destroy(dim)
    out = np.ones((1, 1))
    for z_k in z:
        out = np.kron(out, la.expm(0.5 * z_k * (a.T @ a.T - a @ a)))
    return out


@pytest.mark.parametrize(
    "O",
    [
        _passive_from_u(np.array([[np.exp(0.9j)]])),
        -np.eye(2),
        _RANDOM_O,
        -np.eye(4),
        _passive_from_u(_SWAP),
        _passive_from_u(_NEAR_DEGENERATE),
    ],
    ids=["n1-phase", "n1-minus-identity", "n2-random", "n2-minus-identity", "n2-swap",
         "n2-near-degenerate"],
)
def test_passive_unitary_matches_scipy_reference(O):
    dim = 30 if O.shape[0] == 2 else 12
    assert np.abs(gq.passive_unitary(O, dim) - _scipy_passive_unitary(O, dim)).max() < 1e-12


def test_squeeze_and_displacement_unitaries_match_scipy_reference():
    dim = 12
    z = [0.5, -0.3]
    assert np.abs(gq.squeeze_unitary(z, dim) - _scipy_squeeze_unitary(z, dim)).max() < 1e-12
    a = _destroy(dim).astype(complex)
    alpha = (0.4 - 0.3j) / np.sqrt(2.0)
    D = la.expm(alpha * a.conj().T - np.conj(alpha) * a)
    assert np.abs(gq.displacement_unitary([0.4, -0.3], dim) - D).max() < 1e-12


def test_passive_unitary_conserves_total_photon_number_exactly():
    dim = 12
    U = gq.passive_unitary(_RANDOM_O, dim)
    total = np.add.outer(np.arange(dim), np.arange(dim)).ravel()
    across = total[:, None] != total[None, :]
    assert np.count_nonzero(U[across]) == 0
    assert np.count_nonzero(U[~across]) > 0


def _scipy_displacement_unitary(d, dim):
    """``expm`` of the full displacement generator ``sum_k alpha_k a_k† - h.c.``."""
    n = len(d) // 2
    a1 = _destroy(dim)
    gen = np.zeros((dim**n, dim**n), dtype=complex)
    for k in range(n):
        a = np.kron(np.kron(np.eye(dim**k), a1), np.eye(dim ** (n - 1 - k)))
        alpha = (d[k] + 1j * d[n + k]) / np.sqrt(2.0)
        gen += alpha * a.T - np.conj(alpha) * a
    return la.expm(gen)


def _scipy_build_state(point, cutoff, pad=12):
    """``crop(D P1 Sq P2 rho_th (D P1 Sq P2)^H)`` from scipy ``expm`` of the
    padded generators, with the thermal weights written out here."""
    big, n = cutoff + pad, point.n
    dec = gq.williamson(point.gamma)
    O1, z, O2 = gq.euler_decompose(dec.S)
    U = (
        _scipy_displacement_unitary(point.d, big)
        @ _scipy_passive_unitary(O1, big)
        @ _scipy_squeeze_unitary(z, big)
        @ _scipy_passive_unitary(O2, big)
    )
    p = np.ones(1)
    for nu in dec.nu:
        nbar = 0.5 * (nu - 1.0)
        p = np.kron(p, nbar ** np.arange(big) / (nbar + 1.0) ** np.arange(1, big + 1))
    rho = (U * p) @ U.conj().T
    rho = rho.reshape((big,) * 2 * n)[(slice(cutoff),) * 2 * n]
    rho = rho.reshape(cutoff**n, cutoff**n)
    return 0.5 * (rho + rho.conj().T)


def _two_mode_point():
    S = gq.random_symplectic(2, seed=5, squeeze_cap=0.6)
    gamma = S @ np.diag([1.5, 1.2, 1.5, 1.2]) @ S.T
    return gq.GaussianModelPoint(
        np.array([0.3, -0.2, 0.1, 0.4]), gamma, np.zeros(4), np.zeros((4, 4))
    )


def _mixed_squeezed_displaced_point():
    gamma = gq.builtin_family("squeezing", {"nu": 1.4}).point(0.4).gamma
    return gq.GaussianModelPoint(np.array([0.6, -0.4]), gamma, np.zeros(2), np.zeros((2, 2)))


@pytest.mark.parametrize(
    "point, cutoff",
    [
        (_mixed_squeezed_displaced_point(), 30),
        (gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.7), 30),
        (_two_mode_point(), 10),
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.3}).point(0.4), 8),
    ],
    ids=["n1-mixed-squeezed-displaced", "n1-pure-phase-squeezed", "n2-random-displaced",
         "n2-pure-two-mode-squeezed"],
)
def test_build_state_matches_scipy_expm_reference(point, cutoff):
    state = gq.build_state(point, cutoff)
    assert np.abs(state.rho - _scipy_build_state(point, cutoff)).max() < 1e-13


def test_build_state_pure_state_is_finite():
    # The Williamson nu of this pure state rounds to 1 - 2e-16; the state rule
    # accepts it, and its thermal weights read it as 1, so none is negative.
    pt = gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.7)
    state = gq.build_state(pt, 30)
    assert np.isfinite(state.rho).all()
    assert state.tail_mass < 1e-10


@pytest.mark.parametrize("r", [5.0, 6.0])
def test_build_state_on_strongly_squeezed_pure_points(r):
    # The Euler factor O2 misses orthogonality by 1.6e-9 (r = 5) and 2.2e-7
    # (r = 6), and nu_min rounds to 1 - 2.8e-7 at r = 6: all within the
    # rounding eps |S|_F^4 of a pure state, so only the cutoff can fail.
    pt = gq.builtin_family("phase_squeezed", {"r": r}).point(0.3)
    state = gq.build_state(pt, 10, tail_bound=np.inf)
    assert np.isfinite(state.rho).all()
    with pytest.raises(gq.PreconditionError, match="suggested cutoff") as exc:
        gq.build_state(pt, 10)
    assert exc.value.flag == "tail_mass"
    # User input to passive_unitary is still held to 1e-10.
    O2 = gq.euler_decompose(gq.williamson(pt.gamma).S)[2]
    with pytest.raises(gq.ConfigError, match="not orthogonal symplectic"):
        gq.passive_unitary(O2, 8)


def test_build_state_refuses_euler_factors_beyond_rounding(monkeypatch):
    from gaussqfi import fock

    def skewed(S):
        O1, z, O2 = gq.euler_decompose(S)
        return O1, z, O2 * (1.0 + 1e-6)

    monkeypatch.setattr(fock, "euler_decompose", skewed)
    pt = gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.3)
    with pytest.raises(gq.ConvergenceError, match="Euler factor"):
        gq.build_state(pt, 10)


def test_build_state_vacuum_is_exact():
    pt = gq.GaussianModelPoint(np.zeros(2), np.eye(2), np.zeros(2), np.zeros((2, 2)))
    state = gq.build_state(pt, 12)
    expected = np.zeros((12, 12))
    expected[0, 0] = 1.0
    assert_allclose(state.rho, expected, atol=1e-12)
    assert state.tail_mass == pytest.approx(0.0, abs=1e-12)


def test_build_state_guards():
    pt3 = gq.GaussianModelPoint(
        np.zeros(6), np.eye(6), np.zeros(6), np.zeros((6, 6))
    )
    with pytest.raises(gq.ConfigError):
        gq.build_state(pt3, 20)
    pt1 = gq.GaussianModelPoint(np.zeros(2), np.eye(2), np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(gq.ConfigError):
        gq.build_state(pt1, 6)


def test_build_state_reports_fat_tail():
    hot = gq.GaussianModelPoint(
        np.zeros(2), 8.0 * np.eye(2), np.zeros(2), np.zeros((2, 2))
    )
    with pytest.raises(gq.PreconditionError) as exc:
        gq.build_state(hot, 8)
    assert exc.value.flag == "tail_mass"
    # Disabling the bound returns the state along with its deficit.
    state = gq.build_state(hot, 8, tail_bound=np.inf)
    nbar = 3.5
    expected_tail = (nbar / (nbar + 1.0)) ** 8
    assert state.tail_mass == pytest.approx(expected_tail, rel=1e-6)


def test_build_state_hermitian_psd():
    pt = gq.builtin_family("squeezing", {"nu": 1.3}).point(0.35)
    state = gq.build_state(pt, 30)
    assert np.abs(state.rho - state.rho.conj().T).max() == 0.0
    assert np.linalg.eigvalsh(state.rho)[0] > -1e-10


def test_state_moments_thermal():
    pt = gq.builtin_family("thermal").point(2.0)
    d, gamma = gq.state_moments(gq.build_state(pt, 40))
    assert_allclose(d, np.zeros(2), atol=1e-10)
    assert_allclose(gamma, 2 * np.eye(2), atol=1e-8)


def test_state_moments_squeezed():
    r = 0.5
    pt = gq.builtin_family("squeezing").point(r)
    d, gamma = gq.state_moments(gq.build_state(pt, 40))
    assert np.abs(gamma - np.diag([np.exp(2 * r), np.exp(-2 * r)])).max() < 1e-8
    assert_allclose(d, np.zeros(2), atol=1e-10)


def test_state_moments_displaced():
    d0 = np.array([1.2, -0.7])
    pt = gq.GaussianModelPoint(d0, np.eye(2), np.zeros(2), np.zeros((2, 2)))
    d, gamma = gq.state_moments(gq.build_state(pt, 25))
    assert_allclose(d, d0, atol=1e-8)
    assert_allclose(gamma, np.eye(2), atol=1e-8)


def test_state_moments_two_mode_squeezed():
    pt = gq.builtin_family("two_mode_squeezed_phase", {"r": 0.5}).point(0.3)
    d, gamma = gq.state_moments(gq.build_state(pt, 14))
    assert np.abs(gamma - pt.gamma).max() < 1e-6
    assert_allclose(d, np.zeros(4), atol=1e-8)


def test_tail_refusal_names_the_memory_of_its_advice():
    # 116^4 complex entries: the suggested two-mode state would need 2.9 GB.
    pt = gq.builtin_family("two_mode_squeezed_phase", {"r": 2.0}).point(0.3)
    with pytest.raises(gq.PreconditionError, match=r"is 116 \(2\.9 GB dense state\)") as exc:
        gq.build_state(pt, 10)
    assert exc.value.flag == "tail_mass"


def test_suggested_cutoff():
    assert gq.suggested_cutoff(gq.builtin_family("thermal").point(2.0)) == 14
    vac = gq.GaussianModelPoint(np.zeros(2), np.eye(2), np.zeros(2), np.zeros((2, 2)))
    assert gq.suggested_cutoff(vac) == 10


def test_qfi_fock_thermal():
    exact = 1.0 / 3.0
    val = gq.qfi_fock(gq.builtin_family("thermal"), 2.0, 30)
    assert abs(val - exact) / exact < 1e-6


def test_qfi_fock_displacement():
    val = gq.qfi_fock(gq.builtin_family("displacement"), 0.0, 20)
    assert val == pytest.approx(2.0, abs=1e-6)


def test_qfi_fock_probe_reports_stability():
    probe = gq.qfi_fock_probe(gq.builtin_family("thermal"), 2.0, 30)
    assert probe.value == pytest.approx(1.0 / 3.0, rel=1e-6)
    assert probe.cutoff_shift < 1e-8
    assert probe.step_shift < 1e-8


@pytest.mark.parametrize(
    "family, params, theta, cutoff",
    [
        ("phase_squeezed", {"r": 0.5, "nu": 1.5}, 0.7, 30),
        ("two_mode_squeezed_phase", {"r": 0.3}, 0.4, 8),
    ],
    ids=["n1", "n2"],
)
def test_qfi_fock_probe_equals_separate_qfi_fock_calls(family, params, theta, cutoff):
    fam = gq.builtin_family(family, params)
    h = 1e-4
    probe = gq.qfi_fock_probe(fam, theta, cutoff, h)
    assert probe.value == gq.qfi_fock(fam, theta, cutoff, h)
    assert probe.cutoff_value == gq.qfi_fock(fam, theta, cutoff + 10, h)
    assert probe.step_value == gq.qfi_fock(fam, theta, cutoff, h / 2.0)


def test_sld_residual_thermal_and_negative_control():
    pt = gq.builtin_family("thermal").point(2.0)
    co = gq.sld_coefficients(pt)
    assert gq.sld_residual(pt, co, 40) < 1e-4
    # Doubling the quadratic part must leave an O(1) defect.
    wrong = gq.SLDCoefficients(
        L=2 * co.L, b=co.b, c=co.c, range_residual=co.range_residual
    )
    assert gq.sld_residual(pt, wrong, 40) > 0.05


def test_sld_residual_pure_moving_covariance():
    # A pure state whose covariance rotates: the straight line Gamma + t dGamma
    # leaves the physical set at order t^2, so the residual needs the lifted curve.
    pt = gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.7)
    co = gq.sld_coefficients(pt)
    assert gq.sld_residual(pt, co, 40) < 1e-4


def test_sld_residual_equals_that_of_the_explicit_twin():
    # A built-in point and the same arrays written as an explicit config give
    # the same residual: both are differentiated along one lifted curve.
    pt = gq.builtin_family("phase_squeezed", {"r": 0.5, "nu": 1.5}).point(0.7)
    twin = gq.parse_model_config(explicit_doc(pt)).point
    co = gq.sld_coefficients(pt)
    assert gq.sld_residual(twin, co, 30) == gq.sld_residual(pt, co, 30)


def test_sld_residual_refuses_purity_lowering_tangent():
    pt = gq.GaussianModelPoint(
        d=np.zeros(2), gamma=np.eye(2), dd=np.zeros(2), dgamma=-np.eye(2)
    )
    with pytest.raises(gq.PreconditionError) as exc:
        gq.sld_residual(pt, gq.sld_coefficients(pt), 20)
    assert exc.value.flag == "nu_min"


def test_sld_observable_moments_match_engine():
    pt = gq.builtin_family("squeezing", {"nu": 1.5}).point(0.4)
    co = gq.sld_coefficients(pt)
    state = gq.build_state(pt, 40)
    norm = np.trace(state.rho).real
    Lhat = _sld_matrix(co, pt.d, 40)
    mean = np.trace(state.rho @ Lhat).real / norm
    second = np.trace(state.rho @ Lhat @ Lhat).real / norm
    assert mean == pytest.approx(0.0, abs=1e-6)
    qfi = gq.qfi_general(pt).qfi
    assert second == pytest.approx(qfi, rel=1e-5)


def test_identity_checks_vacuum_exact():
    vac = gq.GaussianModelPoint(np.zeros(2), np.eye(2), np.zeros(2), np.zeros((2, 2)))
    rep = gq.identity_checks(vac, 10)
    assert rep.tail_mass == pytest.approx(0.0, abs=1e-12)
    # The state is exact; only the truncated Weyl operator leaves a trace.
    assert max(rep.displacement_dev, rep.covariance_dev, rep.fourth_moment_dev) < 1e-12
    assert rep.char_dev < 1e-8


def test_identity_checks_thermal():
    rep = gq.identity_checks(gq.builtin_family("thermal").point(2.0), 60)
    assert rep.displacement_dev < 1e-8
    assert rep.covariance_dev < 1e-8
    assert rep.char_dev < 1e-6
    assert rep.fourth_moment_dev < 1e-6


def test_identity_checks_squeezed_and_displaced():
    sq = gq.identity_checks(gq.builtin_family("squeezing").point(0.5), 40)
    assert sq.covariance_dev < 1e-8
    assert sq.fourth_moment_dev < 1e-6

    shifted = gq.GaussianModelPoint(
        [0.8, -0.3], np.eye(2), np.zeros(2), np.zeros((2, 2))
    )
    rep = gq.identity_checks(shifted, 20)
    assert rep.displacement_dev < 1e-10
    assert rep.char_dev < 1e-8


def test_identity_checks_two_mode():
    pt = gq.builtin_family("two_mode_squeezed_phase", {"r": 0.4}).point(0.2)
    rep = gq.identity_checks(pt, 14)
    assert rep.covariance_dev < 1e-6
    assert rep.char_dev < 1e-6
    assert rep.fourth_moment_dev < 1e-4


def _xi_sample(m, xi_count=12, xi_radius=2.0, seed=7):
    """The phase-space points sampled by ``identity_checks`` (its defaults)."""
    rng = np.random.default_rng(seed)
    xis = rng.standard_normal((xi_count, m))
    xis *= (xi_radius * rng.random(xi_count) ** (1.0 / m) / np.linalg.norm(xis, axis=1))[:, None]
    return xis


def _loop_fourth_moment_dev(point, state):
    """Symmetrised fourth moments against the pairing formula, one term at a time."""
    n, m, cutoff = point.n, 2 * point.n, state.cutoff
    norm = np.trace(state.rho).real
    R = _quadrature_operators(n, cutoff)
    delta = R - point.d[:, None, None] * np.eye(cutoff**n)
    pair = np.empty((m, m), dtype=object)
    rho_pair = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(i, m):
            A = 0.5 * (delta[i] @ delta[j] + delta[j] @ delta[i])
            pair[i, j] = pair[j, i] = A
            rho_pair[i, j] = rho_pair[j, i] = state.rho @ A
    g, w = point.gamma, gq.symplectic_form(n)
    dev = 0.0
    for i in range(m):
        for j in range(i, m):
            for k in range(m):
                for l in range(k, m):
                    measured = np.sum(rho_pair[i, j].T * pair[k, l]).real / norm
                    predicted = 0.25 * (
                        g[i, j] * g[k, l]
                        + g[i, k] * g[j, l]
                        - w[i, k] * w[j, l]
                        + g[i, l] * g[j, k]
                        - w[i, l] * w[j, k]
                    )
                    dev = max(dev, abs(measured - predicted))
    return dev


@pytest.mark.parametrize(
    "point, cutoff",
    [
        (_mixed_squeezed_displaced_point(), 30),
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.4}).point(0.2), 10),
        (_two_mode_point(), 8),
    ],
    ids=["n1-mixed-squeezed-displaced", "n2-two-mode-squeezed", "n2-random-displaced"],
)
def test_identity_checks_fourth_moments_match_term_by_term_loop(point, cutoff):
    rep = gq.identity_checks(point, cutoff)
    state = gq.build_state(point, cutoff, tail_bound=np.inf)
    assert abs(rep.fourth_moment_dev - _loop_fourth_moment_dev(point, state)) < 1e-14


def _loop_state_moments(state):
    """``state_moments`` one mode pair at a time."""
    R = _quadrature_operators(state.n, state.cutoff)
    norm = np.trace(state.rho).real
    d = np.array([np.trace(state.rho @ Rk).real for Rk in R]) / norm
    delta = R - d[:, None, None] * np.eye(state.cutoff**state.n)
    m = 2 * state.n
    gamma = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            gamma[i, j] = gamma[j, i] = (
                np.trace(state.rho @ delta[i] @ delta[j]).real * 2.0 / norm
            )
    return d, gamma


def _loop_sld_matrix(coeffs, d, cutoff):
    """``sld_matrix`` one term ``L_ij dR_i dR_j`` at a time."""
    n = d.size // 2
    eye = np.eye(cutoff**n)
    delta = _quadrature_operators(n, cutoff) - d[:, None, None] * eye
    out = coeffs.c * eye.astype(complex)
    for i in range(2 * n):
        out += coeffs.b[i] * delta[i]
        for j in range(2 * n):
            out += coeffs.L[i, j] * (delta[i] @ delta[j])
    return out


@pytest.mark.parametrize(
    "point, cutoff",
    [
        (_mixed_squeezed_displaced_point(), 30),
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.4}).point(0.2), 10),
        (_two_mode_point(), 8),
    ],
    ids=["n1-mixed-squeezed-displaced", "n2-two-mode-squeezed", "n2-random-displaced"],
)
def test_state_moments_and_sld_matrix_match_term_by_term_loops(point, cutoff):
    # The sums run in another order, so agreement is to rounding: 64 eps of
    # the largest entry.
    tol = 64 * np.finfo(float).eps
    state = gq.build_state(point, cutoff, tail_bound=np.inf)
    d, gamma = gq.state_moments(state)
    d_loop, gamma_loop = _loop_state_moments(state)
    np.testing.assert_array_equal(d, d_loop)
    assert np.abs(gamma - gamma_loop).max() <= tol * np.abs(gamma_loop).max()
    rng = np.random.default_rng(3)
    m = 2 * point.n
    L = rng.standard_normal((m, m))
    co = gq.SLDCoefficients(L=L + L.T, b=rng.standard_normal(m), c=0.7, range_residual=0.0)
    ref = _loop_sld_matrix(co, point.d, cutoff)
    assert np.abs(_sld_matrix(co, point.d, cutoff) - ref).max() <= tol * np.abs(ref).max()


@pytest.mark.parametrize(
    "point, cutoff",
    [
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.4}).point(0.2), 8),
        (_two_mode_point(), 8),
    ],
    ids=["two-mode-squeezed", "random-displaced"],
)
def test_identity_checks_char_dev_matches_dense_expm(point, cutoff):
    # exp(i eta.R) from scipy's expm of the full two-mode generator -eta.R.
    rep = gq.identity_checks(point, cutoff)
    state = gq.build_state(point, cutoff, tail_bound=np.inf)
    norm = np.trace(state.rho).real
    R = _quadrature_operators(2, cutoff)
    dev = 0.0
    for xi in _xi_sample(4):
        eta = gq.symplectic_form(2) @ xi
        H = -np.einsum("k,kab->ab", eta, R)
        W = la.expm(-1j * H)
        measured = np.trace(state.rho @ W) / norm
        predicted = np.exp(1j * eta @ point.d - 0.25 * eta @ point.gamma @ eta)
        dev = max(dev, abs(measured - predicted))
    assert abs(rep.char_dev - dev) < 1e-12


def test_passive_unitary_rejects_three_modes():
    # Like build_state, the passive unitary stops at two modes.
    with pytest.raises(gq.ConfigError, match="at most 2 modes"):
        gq.passive_unitary(gq.random_orthogonal_symplectic(3, np.random.default_rng(0)), 4)
