"""Tests for the truncated Fock-basis oracle.

These pin down the oracle itself (operator algebra, state construction,
moment recovery) so that engine-vs-oracle comparisons elsewhere are
meaningful.
"""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
from numpy.testing import assert_allclose

import gaussqfi as gq
from conftest import PURE_THREE_MODE, explicit_doc
from gaussqfi import fock
from gaussqfi.fock import _destroy, _sld_matrix


def _quadrature_operators(n, dim):
    """Quadratures ``(Q_1..Q_n, P_1..P_n)`` as a stack of dense ``dim**n``
    square Fock matrices, the reference the one-mode factors are checked
    against."""
    return fock._kron_modes(np.moveaxis(fock._mode_quadratures(n, dim), 1, 0))


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


def _euler_factors(point, euler):
    """``euler = (O1, z, O2, nu)``, the factors ``point`` is built from:
    ``Gamma = S diag(nu, nu) S^T`` with ``S = O1 diag(e^z, e^-z) O2``, ``O1``
    and ``O2`` orthogonal symplectic.  Returns them as arrays once they are
    seen to give the point's ``Gamma``."""
    O1, z, O2, nu = (np.asarray(f, dtype=float) for f in euler)
    S = (O1 * np.exp(np.concatenate([z, -z]))) @ O2
    gamma = (S * np.concatenate([nu, nu])) @ S.T
    assert np.abs(gamma - point.gamma).max() <= 1e-12 * np.abs(point.gamma).max()
    return O1, z, O2, nu


def _scipy_build_state(point, euler, cutoff, pad=12):
    """``crop(D P1 Sq P2 rho_th (D P1 Sq P2)^H)`` from scipy ``expm`` of the
    padded generators, on the Euler factors ``euler`` of the point (see
    :func:`_euler_factors`), with the thermal weights written out here."""
    big, n = cutoff + pad, point.n
    O1, z, O2, nus = _euler_factors(point, euler)
    U = (
        _scipy_displacement_unitary(point.d, big)
        @ _scipy_passive_unitary(O1, big)
        @ _scipy_squeeze_unitary(z, big)
        @ _scipy_passive_unitary(O2, big)
    )
    p = np.ones(1)
    for nu in nus:
        nbar = 0.5 * (nu - 1.0)
        p = np.kron(p, nbar ** np.arange(big) / (nbar + 1.0) ** np.arange(1, big + 1))
    rho = (U * p) @ U.conj().T
    rho = rho.reshape((big,) * 2 * n)[(slice(cutoff),) * 2 * n]
    rho = rho.reshape(cutoff**n, cutoff**n)
    return 0.5 * (rho + rho.conj().T)


def _two_mode_euler(nu=(1.5, 1.2)):
    """The Euler factors of :func:`_two_mode_point`: ``S`` drawn as
    ``random_symplectic(2, seed=5, squeeze_cap=0.6)`` draws it."""
    rng = np.random.default_rng(5)
    O1 = gq.random_orthogonal_symplectic(2, rng)
    O2 = gq.random_orthogonal_symplectic(2, rng)
    return O1, rng.uniform(-0.6, 0.6, 2), O2, nu


def _two_mode_point(nu=(1.5, 1.2)):
    O1, z, O2, _ = _two_mode_euler(nu)
    S = (O1 * np.concatenate([np.exp(z), np.exp(-z)])[None, :]) @ O2
    gamma = S @ np.diag(np.concatenate([nu, nu])) @ S.T
    return gq.GaussianModelPoint(
        np.array([0.3, -0.2, 0.1, 0.4]), gamma, np.zeros(4), np.zeros((4, 4))
    )


def _three_mode_point(seed):
    """Seeded mixed three-mode point: squeezes up to 0.25, nu in [1.02, 1.2],
    a random mean and tangent."""
    rng = np.random.default_rng(seed)
    S = gq.random_symplectic(3, seed=rng, squeeze_cap=0.25)
    nu = rng.uniform(1.02, 1.2, 3)
    dgamma = rng.standard_normal((6, 6))
    return gq.GaussianModelPoint(
        0.3 * rng.standard_normal(6), S @ np.diag(np.concatenate([nu, nu])) @ S.T,
        rng.standard_normal(6), dgamma + dgamma.T,
    )


def _mixed_squeezed_displaced_point():
    gamma = gq.builtin_family("squeezing", {"nu": 1.4}).point(0.4).gamma
    return gq.GaussianModelPoint(np.array([0.6, -0.4]), gamma, np.zeros(2), np.zeros((2, 2)))


def _phase_rotation(theta, n):
    """The rotation of ``(Q_1, P_1)`` by ``theta``, the phase of mode 1."""
    R = np.eye(2 * n)
    R[0, 0] = R[n, n] = np.cos(theta)
    R[0, n], R[n, 0] = -np.sin(theta), np.sin(theta)
    return R


# (point, its Euler factors (O1, z, O2, nu)) as each point is built: squeezing
# S = diag(e^0.4, e^-0.4); phase_squeezed S = R(theta) diag(e^r, e^-r); the
# two-mode squeezed vacuum S = R(theta) B diag(e^r, e^-r, e^-r, e^r) B^T, with
# B the passive image of the 50:50 beam splitter [[1, 1], [1, -1]] / sqrt 2.
_BEAM_SPLITTER = np.kron(np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def _mixed_squeezed_displaced_case():
    return _mixed_squeezed_displaced_point(), (np.eye(2), [0.4], np.eye(2), [1.4])


def _phase_squeezed_case(r, nu, theta):
    point = gq.builtin_family("phase_squeezed", {"r": r, "nu": nu}).point(theta)
    return point, (_phase_rotation(theta, 1), [r], np.eye(2), [nu])


def _two_mode_squeezed_case(r, theta):
    point = gq.builtin_family("two_mode_squeezed_phase", {"r": r}).point(theta)
    O1 = _phase_rotation(theta, 2) @ _BEAM_SPLITTER
    return point, (O1, [r, -r], _BEAM_SPLITTER.T, [1.0, 1.0])


def _two_mode_case(nu=(1.5, 1.2)):
    return _two_mode_point(nu), _two_mode_euler(nu)


@pytest.mark.parametrize(
    "point, euler, cutoff",
    [
        (*_mixed_squeezed_displaced_case(), 30),
        (*_phase_squeezed_case(0.5, 1.0, 0.7), 30),
        (*_two_mode_case(), 10),
        (*_two_mode_squeezed_case(0.3, 0.4), 8),
    ],
    ids=["n1-mixed-squeezed-displaced", "n1-pure-phase-squeezed", "n2-random-displaced",
         "n2-pure-two-mode-squeezed"],
)
def test_build_state_matches_scipy_expm_reference(point, euler, cutoff):
    # The reference's own error is its padding: it moves by as much when the
    # Euler route grows from 12 to 24 levels of padding (1e-12 to 2e-11 on
    # one mode, 1.6e-8 on the pure two-mode state), and no further from rho.
    ref = _scipy_build_state(point, euler, cutoff)
    own_error = np.abs(ref - _every_column_build_rho(point, euler, cutoff, pad=24)).max()
    gap = np.abs(gq.build_state(point, cutoff).rho - ref).max()
    assert gap <= 1.01 * own_error + 1e-14


def test_build_state_pure_state_is_finite():
    # The Williamson nu of this pure state rounds to 1 - 2e-16; the state rule
    # accepts it, and its thermal weights read it as 1, so none is negative.
    pt = gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.7)
    state = gq.build_state(pt, 30)
    assert np.isfinite(state.rho).all()
    assert state.tail_mass < 1e-10


@pytest.mark.parametrize("r", [5.0, 6.0])
def test_build_state_on_strongly_squeezed_pure_points(r):
    # nu_min rounds to 1 - 2.8e-7 at r = 6, within the rounding
    # eps |S|_F^4 of a pure state, so only the cutoff can fail.
    pt = gq.builtin_family("phase_squeezed", {"r": r}).point(0.3)
    state = gq.build_state(pt, 10, tail_bound=np.inf)
    assert np.isfinite(state.rho).all()
    with pytest.raises(gq.PreconditionError, match="suggested cutoff") as exc:
        gq.build_state(pt, 10)
    assert exc.value.flag == "tail_mass"
    # User input to passive_unitary is held to 1e-10: a Haar-random passive
    # frame passes, and a copy skewed by 1e-9 does not.
    O = gq.random_orthogonal_symplectic(1, np.random.default_rng(int(r)))
    gq.passive_unitary(O, 8)
    with pytest.raises(gq.ConfigError, match="not orthogonal symplectic"):
        gq.passive_unitary(O * (1.0 + 1e-9), 8)


@pytest.mark.parametrize("r, nu, cutoff", [(0.5, 1.0, 40), (0.5, 1.5, 40), (1.0, 1.0, 70)])
@pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
def test_build_state_follows_the_one_mode_phase_orbit(r, nu, cutoff, theta):
    # The phase family is rho(theta) = D rho(0) D^H with D = diag(e^{i theta k}):
    # the truncated states obey it to rounding, whatever Euler frame each has.
    family = gq.builtin_family("phase_squeezed", {"r": r, "nu": nu})
    rho0 = gq.build_state(family.point(0.0), cutoff).rho
    D = np.exp(1j * theta * np.arange(cutoff))
    want = D[:, None] * rho0 * D.conj()[None, :]
    assert_allclose(gq.build_state(family.point(theta), cutoff).rho, want, rtol=0, atol=1e-13)


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
    # 150^4 complex entries: the suggested two-mode state would need 8.1 GB.
    pt = gq.builtin_family("two_mode_squeezed_phase", {"r": 2.0}).point(0.3)
    with pytest.raises(gq.PreconditionError, match=r"is 150 \(8\.1 GB dense state\)") as exc:
        gq.build_state(pt, 10)
    assert exc.value.flag == "tail_mass"
    # 150 levels on two modes is above the size limit, and the advice says so;
    # advice within the limit does not.
    assert str(exc.value).endswith(
        "suggested cutoff is 150 (8.1 GB dense state), above the oracle's size limit of 64 levels"
    )
    pt = gq.builtin_family("two_mode_squeezed_phase", {"r": 1.0}).point(0.3)
    with pytest.raises(gq.PreconditionError, match=r"is 20 \(2\.6 MB dense state\)$"):
        gq.build_state(pt, 8)


def test_suggested_cutoff():
    # Thermal nbar = 0.5 needs 7 levels (3^-7 < 1e-3); the bound asks 9.
    assert gq.suggested_cutoff(gq.builtin_family("thermal").point(2.0)) == 9
    vac = gq.GaussianModelPoint(np.zeros(2), np.eye(2), np.zeros(2), np.zeros((2, 2)))
    assert gq.suggested_cutoff(vac) == 8


@pytest.mark.parametrize(
    "r, nu, refused, suggested",
    [(1.0, 1.5, 29, 49), (1.5, 2.0, 87, 178), (2.0, 1.0, 116, 241)],
)
def test_tail_refusal_suggests_a_cutoff_that_passes(r, nu, refused, suggested):
    # Each refused cutoff is 10 + 8 nbar, which loses more than 1e-3 here.
    pt = gq.builtin_family("phase_squeezed", {"r": r, "nu": nu}).point(0.7)
    with pytest.raises(gq.PreconditionError, match=f"suggested cutoff is {suggested} "):
        gq.build_state(pt, refused)
    assert gq.suggested_cutoff(pt) == suggested
    assert gq.build_state(pt, suggested).tail_mass <= 1e-3
    # Sized for the bound in force: a tighter bound asks for more levels.
    with pytest.raises(gq.PreconditionError, match="suggested cutoff") as exc:
        gq.build_state(pt, suggested, tail_bound=1e-8)
    tighter = int(str(exc.value).split("suggested cutoff is ")[1].split()[0])
    assert tighter > suggested
    assert gq.build_state(pt, tighter, tail_bound=1e-8).tail_mass <= 1e-8


def test_tail_refusal_at_a_zero_bound_suggests_a_finite_cutoff():
    # No cutoff certifies a zero loss; the advice is sized for the smallest
    # normal float instead of failing on log(0).
    pt = gq.builtin_family("thermal").point(2.0)
    with pytest.raises(gq.PreconditionError, match=r"suggested cutoff is \d+ ") as exc:
        gq.build_state(pt, 10, tail_bound=0.0)
    assert exc.value.flag == "tail_mass"


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


@pytest.mark.parametrize(
    "family, params, theta, cutoff",
    [
        ("phase_squeezed", {"r": 0.5, "nu": 1.5}, 0.7, 30),
        ("two_mode_squeezed_phase", {"r": 0.3}, 0.4, 8),
    ],
    ids=["n1", "n2"],
)
def test_qfi_fock_probe_equals_separate_qfi_fock_calls(family, params, theta, cutoff):
    # value reads the leading block of the recurrence on cutoff + 10 levels.
    fam = gq.builtin_family(family, params)
    probe = gq.qfi_fock_probe(fam, theta, cutoff)
    assert probe.value == pytest.approx(gq.qfi_fock(fam, theta, cutoff), rel=1e-14, abs=0)
    assert probe.cutoff_value == gq.qfi_fock(fam, theta, cutoff + 10)


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
    # A pure state whose covariance rotates: its tangent is purity-preserving.
    pt = gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.7)
    co = gq.sld_coefficients(pt)
    assert gq.sld_residual(pt, co, 40) < 1e-4


def test_sld_residual_equals_that_of_the_explicit_twin():
    # A built-in point and the same arrays written as an explicit config give
    # the same residual: both are differentiated along the same tangent.
    pt = gq.builtin_family("phase_squeezed", {"r": 0.5, "nu": 1.5}).point(0.7)
    twin = gq.parse_model_config(explicit_doc(pt)).point
    co = gq.sld_coefficients(pt)
    assert gq.sld_residual(twin, co, 30) == gq.sld_residual(pt, co, 30)


def test_sld_residual_of_a_purity_lowering_tangent_is_order_one():
    # The vacuum cooled: the tangent leaves the state set, and no SLD solves
    # the equation there, so the exact residual stays O(1).
    pt = gq.GaussianModelPoint(
        d=np.zeros(2), gamma=np.eye(2), dd=np.zeros(2), dgamma=-np.eye(2)
    )
    assert gq.sld_residual(pt, gq.sld_coefficients(pt), 20) > 0.05


@pytest.mark.parametrize("nu", [1.0, 1.5])
def test_sld_residual_is_exact_at_the_suggested_cutoff(nu):
    # rho L + L rho on cutoff + 2 levels, cropped: every kept element is exact.
    pt = gq.builtin_family("phase_squeezed", {"r": 1.0, "nu": nu}).point(0.7)
    assert gq.sld_residual(pt, gq.sld_coefficients(pt), gq.suggested_cutoff(pt)) < 1e-10


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
        (_three_mode_point(2), 4),
    ],
    ids=["n1-mixed-squeezed-displaced", "n2-two-mode-squeezed", "n2-random-displaced",
         "n3-random-cutoff-4"],
)
def test_state_moments_and_sld_matrix_match_term_by_term_loops(point, cutoff):
    # The sums run in another order, so agreement is to rounding: 64 eps of
    # the largest entry.  build_state refuses cutoffs below 8, so the
    # three-mode state (64 x 64, where two non-adjacent modes' factors sit
    # around an identity) is read from the recurrence directly.
    tol = 64 * np.finfo(float).eps
    if cutoff >= 8:
        state = gq.build_state(point, cutoff, tail_bound=np.inf)
    else:
        rho = fock._bargmann(point, cutoff)[0]
        state = fock.TruncatedState(point.n, cutoff, rho, 1.0 - np.trace(rho).real)
    d, gamma = gq.state_moments(state)
    d_loop, gamma_loop = _loop_state_moments(state)
    assert np.abs(d - d_loop).max() <= tol * np.abs(d_loop).max()
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


def test_passive_unitary_three_modes():
    dim = 6
    O = gq.random_orthogonal_symplectic(3, np.random.default_rng(0))
    U = gq.passive_unitary(O, dim)
    assert_allclose(U @ U.conj().T, np.eye(dim**3), atol=1e-10)
    total = np.indices((dim,) * 3).sum(0).ravel()
    across = total[:, None] != total[None, :]
    assert np.count_nonzero(U[across]) == 0
    R = _quadrature_operators(3, dim)
    # R -> O R between states of total photon number <= dim - 2, as on two modes.
    block = np.ix_(total <= dim - 2, total <= dim - 2)
    for i in range(6):
        lhs = U.conj().T @ R[i] @ U
        assert np.abs(lhs - np.einsum("k,kab->ab", O[i], R))[block].max() < 1e-10


@pytest.mark.parametrize("seed", [0, 1])
def test_qfi_fock_on_three_modes(seed):
    # Relative errors 2e-5 and 5e-5 at cutoff 8.
    point = _three_mode_point(seed)
    fock_qfi = gq.qfi_fock(_explicit_family(point), 0.0, 8)
    assert fock_qfi == pytest.approx(gq.qfi_general(point).qfi, rel=1e-4)


def test_sld_residual_and_identity_checks_on_three_modes():
    point = _three_mode_point(2)
    assert gq.sld_residual(point, gq.sld_coefficients(point), 8) < 1e-10
    # Truncation at 8 levels leaves 7e-6 on the covariance, 8e-5 on the
    # fourth moments.
    rep = gq.identity_checks(point, 8)
    assert rep.covariance_dev < 1e-4
    assert rep.fourth_moment_dev < 1e-3


def test_size_limit_refuses_before_allocating():
    # A two-mode basis of 400 levels would take 410 GB per dense matrix; the
    # refusal comes before anything of that size is allocated.
    pt = _two_mode_point()
    fam = _explicit_family(pt)
    calls = [
        lambda: gq.build_state(pt, 400),
        lambda: gq.qfi_fock(fam, 0.0, 400),
        lambda: gq.qfi_fock_probe(fam, 0.0, 400),
        lambda: gq.sld_residual(pt, gq.sld_coefficients(pt), 400),
        lambda: gq.identity_checks(pt, 400),
        lambda: gq.passive_unitary(_RANDOM_O, 400),
        lambda: gq.squeeze_unitary([0.1, 0.2], 400),
        lambda: gq.displacement_unitary(pt.d, 400),
    ]
    start = time.perf_counter()
    for call in calls:
        with pytest.raises(gq.ConfigError, match=r"needs \d+ GB per dense matrix; the oracle "
                           r"builds at most 64 levels on 2 modes \(268 MB\)"):
            call()
    assert time.perf_counter() - start < 0.5
    # The limit is 2**28 bytes a dense matrix, and a basis of exactly that passes.
    for n, top in [(1, 4096), (2, 64), (3, 16)]:
        fock._check_size(top, n)
        with pytest.raises(gq.ConfigError, match=f"at most {top} levels on {n} modes"):
            fock._check_size(top + 1, n)
    # On a mixed state the probe builds a dense matrix on cutoff + 10 levels,
    # so it refuses every three-mode cutoff.
    with pytest.raises(gq.ConfigError, match="18 levels on 3 modes"):
        gq.qfi_fock_probe(_explicit_family(_three_mode_point(0)), 0.0, 8)


def _fresh_ladder_expi(beta, step, dim):
    """``exp(-i H)`` for ``H = beta a†^step + conj(beta) a^step`` with a fresh
    ``eigh`` of its chains: with the level phase ``D`` taken out, ``H`` is
    ``|beta| D T D^H`` on the real tridiagonal ``T`` of each chain
    ``c, c + step, ...``."""
    beta = np.asarray(beta, dtype=complex)
    span = -(-dim // step)
    lev = np.arange(step)[:, None] + step * np.arange(span)
    amp = np.prod(lev[:, :-1, None] + np.arange(1.0, step + 1), axis=-1) ** 0.5
    t = np.arange(span - 1)
    T = np.zeros((step, span, span))
    T[:, t + 1, t] = T[:, t, t + 1] = amp * (lev[:, 1:] < dim)
    lam, V = np.linalg.eigh(T)
    phase = np.exp(1j * np.angle(beta)[..., None, None] / step * lev)
    U = np.zeros(beta.shape + (step * span,) * 2, dtype=complex)
    V = phase[..., :, None] * V
    spread = np.exp(-1j * np.abs(beta)[..., None, None] * lam)[..., None, :]
    U[..., lev[:, :, None], lev[:, None, :]] = (V * spread) @ np.swapaxes(V.conj(), -1, -2)
    return U[..., :dim, :dim]


def _thermal_weights(nu, dim):
    """Photon-number weights of the product of one-mode thermal states with
    symplectic eigenvalues ``nu`` (0 above the vacuum of a mode at ``nu <= 1``)."""
    p = np.ones(1)
    for nu_k in np.atleast_1d(nu):
        nbar = max(0.5 * (nu_k - 1.0), 0.0)
        p = np.kron(p, nbar ** np.arange(dim) / (nbar + 1.0) ** np.arange(1, dim + 1))
    return p


def _apply_modes(X, mats):
    """``X @ (mats[0] ⊗ mats[1] ⊗ ...)``, one mode at a time."""
    rows, dim = X.shape[0], mats.shape[-1]
    for k, M in enumerate(mats):
        inner = dim ** (len(mats) - 1 - k)
        X = X.reshape(-1, dim) @ M if inner == 1 else M.T @ X.reshape(-1, dim, inner)
    return X.reshape(rows, -1)


def _every_column_build_rho(point, euler, cutoff, pad=12):
    """The Euler route: ``crop(D P1 Sq P2 rho_th (D P1 Sq P2)^H)`` on
    ``cutoff + pad`` levels as ``X diag(p) X^H``, on the Euler factors
    ``euler`` of the point (see :func:`_euler_factors`), with fresh ladder
    exponentials, dense passive layers and every column summed."""
    big, n = cutoff + pad, point.n
    O1, z, O2, nu = _euler_factors(point, euler)
    if np.abs(point.d).max() > 0.0:
        alpha = 1j * (point.d[:n] + 1j * point.d[n:]) / np.sqrt(2.0)
        X = fock._kron_modes(_fresh_ladder_expi(alpha, 1, big)[:, :cutoff])
    else:
        X = fock._kron_modes([np.eye(cutoff, big)] * n).astype(complex)
    X = X @ gq.passive_unitary(O1, big)
    if z.any():
        X = _apply_modes(X, _fresh_ladder_expi(0.5j * z, 2, big))
    X = X @ gq.passive_unitary(O2, big)
    rho = (X * _thermal_weights(nu, big)) @ X.conj().T
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize(
    "point, euler, cutoff",
    [
        (*_mixed_squeezed_displaced_case(), 30),
        (*_phase_squeezed_case(0.5, 1.5, 0.7), 40),
        (*_phase_squeezed_case(0.5, 1.0, 0.7), 40),
        (*_two_mode_squeezed_case(0.3, 0.4), 12),
        (*_two_mode_case(), 10),
        (*_two_mode_case(nu=(1.5, 1.0)), 10),
    ],
    ids=["n1-mixed-displaced", "n1-mixed", "n1-pure", "n2-pure-two-mode-squeezed",
         "n2-mixed-random", "n2-one-vacuum-mode"],
)
def test_build_state_matches_the_euler_route_as_its_padding_grows(point, euler, cutoff):
    # With 12 levels of padding the Euler route is off by up to 2.9e-8 (the
    # pure two-mode state); with 24 it agrees with the recurrence to rounding.
    rho = gq.build_state(point, cutoff).rho
    assert np.abs(rho - _every_column_build_rho(point, euler, cutoff, pad=24)).max() <= 1e-14


def test_build_state_ignores_pad():
    pt = _two_mode_point()
    assert np.array_equal(gq.build_state(pt, 10, pad=0).rho, gq.build_state(pt, 10, pad=12).rho)


@pytest.mark.parametrize(
    "family, r",
    [("phase_squeezed", 0.3), ("phase_squeezed", 0.5),
     ("two_mode_squeezed_phase", 0.3), ("two_mode_squeezed_phase", 0.5)],
)
def test_build_state_follows_the_phase_orbit(family, r):
    # rho(theta) = D rho(0) D^H with D = e^{i theta n_1}, mode 1 outermost.
    fam, cutoff, theta = gq.builtin_family(family, {"r": r}), 16, 0.3
    n = fam.point(0.0).n
    rho0 = gq.build_state(fam.point(0.0), cutoff).rho
    D = np.repeat(np.exp(1j * theta * np.arange(cutoff)), cutoff ** (n - 1))
    want = D[:, None] * rho0 * D.conj()[None, :]
    assert np.abs(gq.build_state(fam.point(theta), cutoff).rho - want).max() <= 1e-13


def _explicit_family(point):
    return gq.parse_model_config(explicit_doc(point)).family


@pytest.mark.parametrize(
    "family, theta, cutoff",
    [
        (gq.builtin_family("displacement"), 0.4, 20),
        (gq.builtin_family("phase_squeezed", {"r": 0.5, "nu": 1.5}), 0.7, 30),
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.5}), 0.3, 12),
        (_explicit_family(gq.GaussianModelPoint(
            np.array([0.3, -0.2, 0.1, 0.4]), _two_mode_point().gamma,
            np.array([0.5, 0.1, -0.3, 0.2]), np.diag([0.3, -0.2, 0.1, 0.4]))), 0.0, 10),
    ],
    ids=["displacement", "n1-mixed-phase", "n2-pure-two-mode-squeezed", "n2-mixed-explicit"],
)
@pytest.mark.parametrize("h", [1e-5, 1e-6])
def test_exact_drho_matches_a_central_difference(family, theta, cutoff, h):
    _, drho = fock._bargmann(family.point(theta), cutoff, tangent=True)
    diff = (
        gq.build_state(family.point(theta + h), cutoff).rho
        - gq.build_state(family.point(theta - h), cutoff).rho
    ) / (2.0 * h)
    assert np.abs(drho - diff).max() <= 1e-8


@pytest.mark.parametrize("r, theta, cutoff, tol", [(0.5, 0.3, 16, 1e-7), (0.3, 0.4, 12, 1e-9)])
def test_qfi_fock_agrees_with_the_engine_on_two_mode_squeezing(r, theta, cutoff, tol):
    fam = gq.builtin_family("two_mode_squeezed_phase", {"r": r})
    assert abs(gq.qfi_fock(fam, theta, cutoff) - gq.qfi_general(fam.point(theta)).qfi) < tol


@pytest.mark.parametrize(
    "family, params, theta, cutoff",
    [
        ("phase_squeezed", {"r": 0.5, "nu": 1.5}, 0.7, 30),
        ("phase_squeezed", {"r": 0.5}, 0.7, 30),
        ("two_mode_squeezed_phase", {"r": 0.3}, 0.4, 8),
    ],
    ids=["n1-mixed", "n1-pure", "n2-pure"],
)
def test_qfi_fock_reads_the_eigenbasis_of_the_public_state(family, params, theta, cutoff):
    # A mixed state's QFI is this formula to the bit.  A pure state's is the
    # same formula on psi psi^H in closed form, read from its ket: equal to
    # rounding.
    fam = gq.builtin_family(family, params)
    pure = "nu" not in params

    def value(cut):
        eig = np.linalg.eigh(gq.build_state(fam.point(theta), cut).rho)
        return fock._solve_sld_eigenbasis(eig, fock._bargmann(fam.point(theta), cut, True)[1])

    for got, want in [
        (gq.qfi_fock(fam, theta, cutoff), value(cutoff)),
        (gq.qfi_fock_probe(fam, theta, cutoff).cutoff_value, value(cutoff + 10)),
    ]:
        if pure:
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        else:
            assert got == want


def test_ladder_tables_are_computed_once_and_read_only():
    tables = fock._ladder_chain(21)
    assert fock._ladder_chain(21) is tables
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0
    # The two read the same eigenbasis through different products: 2.8e-16 apart.
    beta = np.array([0.3 - 0.2j, 1.1j])
    gap = np.abs(fock._weyl_factors(beta, 21) - _fresh_ladder_expi(beta, 1, 21)).max()
    assert gap <= 4 * np.finfo(float).eps


def test_eigenvalue_gate_fires_on_the_state_at_theta(monkeypatch):
    # The weight of level 25 of the thermal state at theta = 2 set to -1e-6,
    # which leaves the tail far inside its bound: build_state and qfi_fock,
    # through its own eigendecomposition, must refuse the state.
    original = fock._bargmann

    def negative(point, dim, tangent=False):
        rho, drho = original(point, dim, tangent)
        rho[25, 25] = -1e-6
        return rho, drho

    monkeypatch.setattr(fock, "_bargmann", negative)
    family = gq.builtin_family("thermal")
    with pytest.raises(gq.ConvergenceError, match="constructed state has eigenvalue -1"):
        gq.build_state(family.point(2.0), 30)
    with pytest.raises(gq.ConvergenceError, match="constructed state has eigenvalue -1"):
        gq.qfi_fock(family, 2.0, 30)


@pytest.mark.parametrize("caller", ["build_state", "identity_checks", "sld_residual"])
def test_eigenvalue_rule_holds_its_bound_at_the_boundary(monkeypatch, caller):
    # The thermal state at theta = 2 is diagonal, so setting the weight of
    # level 25 sets one eigenvalue.  The Cholesky factor of rho + 1e-10 I
    # decides, on every reader of a mixed rho: -2e-10 is refused, with the
    # eigenvalue read by eigvalsh, and -5e-11 is accepted with no eigvalsh.
    original = fock._bargmann
    low = {}

    def shifted(point, dim, tangent=False):
        rho, drho = original(point, dim, tangent)
        rho[25, 25] = low["value"]
        return rho, drho

    monkeypatch.setattr(fock, "_bargmann", shifted)
    point = gq.builtin_family("thermal").point(2.0)
    coeffs = gq.sld_coefficients(point)
    call = {
        "build_state": lambda: gq.build_state(point, 30),
        "identity_checks": lambda: gq.identity_checks(point, 30),
        "sld_residual": lambda: gq.sld_residual(point, coeffs, 30),
    }[caller]
    fock._ladder_chain(30)  # eigh'd once and cached, apart from any one call
    calls = _count_decompositions(monkeypatch)[0]
    low["value"] = -2e-10
    with pytest.raises(gq.ConvergenceError, match=r"constructed state has eigenvalue -2\.000e-10 < 0"):
        call()
    assert calls == ["cholesky", "eigvalsh"]
    calls.clear()
    low["value"] = -5e-11
    call()
    assert [c for c in calls if c != "svd"] == ["cholesky"]


def test_identity_checks_peak_memory_is_bounded_in_dense_matrices():
    # One mode at cutoff 256: the 12 Weyl factors beside the 12-matrix array
    # they are formed from set the traced peak, 28.2 dense cutoff^2 complex
    # matrices on thermal and 27.2 on displacement.  Two more broadcast
    # temporaries of the factors would read 52.
    cutoff = 256
    for family, theta in [("thermal", 2.0), ("displacement", 0.3)]:
        point = gq.builtin_family(family).point(theta)
        gq.identity_checks(point, cutoff)  # the ladder chain, cached apart from any one call
        tracemalloc.start()
        try:
            gq.identity_checks(point, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 16 * cutoff**2, (family, peak / (16 * cutoff**2))


def _add_raised(acc, X, axis, coef=1.0):
    """``acc[k] += coef sqrt(k) X[k - 1]`` along ``axis``, ``k >= 1``: the
    coefficients of ``coef v_axis F`` when those of ``F`` are ``X``."""
    lead = (slice(None),) * axis
    root = np.sqrt(np.arange(1.0, X.shape[axis])).reshape((-1,) + (1,) * (X.ndim - axis - 1))
    acc[lead + (slice(1, None),)] += (coef * root) * X[lead + (slice(None, -1),)]


def _stepwise_bargmann(point, dim, tangent=False):
    """The Bargmann recurrence with its weights rebuilt at every step, 0-d
    arrays along the last index and one tensordot per index of the tangent:
    the reference for ``fock._bargmann``."""
    n, m = point.n, 2 * point.n
    eye = np.eye(n)
    W = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)
    X = np.roll(np.eye(m), n, axis=1)
    Q = 0.5 * (W @ point.gamma @ W.conj().T + np.eye(m))
    Qi = np.linalg.inv(Q)
    A = (np.eye(m) - Qi) @ X
    zeta = W @ point.d
    gam = Qi @ zeta
    G = np.array(np.exp(-0.5 * (zeta.conj() @ gam).real) / np.sqrt(np.linalg.det(Q).real))
    root = np.sqrt(np.arange(dim))
    for i in reversed(range(m)):
        out = np.empty((dim,) + G.shape, dtype=complex)
        out[0] = G
        for k in range(dim - 1):
            nxt = gam[i] * out[k]
            if k:
                nxt += (A[i, i] * root[k]) * out[k - 1]
            for j in range(i + 1, m):  # index j is axis j - i - 1 of out[k]
                _add_raised(nxt, out[k], j - i - 1, A[i, j])
            out[k + 1] = nxt / root[k + 1]
        G = out
    G[np.abs(G) < np.finfo(float).eps ** 2 * np.abs(G).max()] = 0.0
    rho = G.reshape(dim**n, dim**n)
    rho = 0.5 * (rho + rho.conj().T)
    if not tangent:
        return rho, None
    dQ = 0.5 * W @ point.dgamma @ W.conj().T
    dzeta = W @ point.dd
    dgam = Qi @ (dzeta - dQ @ gam)
    dlog = (0.5 * gam.conj() @ dQ @ gam - gam.conj() @ dzeta - 0.5 * np.trace(Qi @ dQ)).real
    raised = np.zeros((m,) + G.shape, dtype=complex)
    for j in range(m):
        _add_raised(raised[j], G, j)
    dA = Qi @ dQ @ Qi @ X
    dG = dlog * G
    for i in range(m):
        _add_raised(dG, dgam[i] * G + 0.5 * np.tensordot(dA[i], raised, 1), i)
    drho = dG.reshape(dim**n, dim**n)
    return rho, 0.5 * (drho + drho.conj().T)


def _with_tangent(point, dd, dgamma):
    return gq.GaussianModelPoint(point.d, point.gamma, np.asarray(dd), np.asarray(dgamma))


@pytest.mark.parametrize(
    "point, dims",
    [
        (gq.builtin_family("thermal").point(2.0), (40, 50)),
        (gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.7), (40, 50)),
        (_with_tangent(_mixed_squeezed_displaced_point(), [0.3, -0.1], [[0.2, 0.1], [0.1, -0.4]]),
         (40, 50)),
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.5}).point(0.3), (8, 16)),
        (_two_mode_point(), (8, 16)),
        (_with_tangent(_two_mode_point(), [0.5, 0.1, -0.3, 0.2], np.diag([0.3, -0.2, 0.1, 0.4])),
         (8, 16)),
    ],
    ids=["n1-thermal", "n1-pure", "n1-mixed-displaced", "n2-two-mode-squeezed", "n2-random",
         "n2-random-tangent"],
)
def test_bargmann_matches_the_stepwise_recurrence(point, dims):
    for dim in dims:
        rho, drho = fock._bargmann(point, dim, tangent=True)
        ref_rho, ref_drho = _stepwise_bargmann(point, dim, tangent=True)
        assert np.abs(rho - ref_rho).max() <= 1e-15
        assert np.abs(drho - ref_drho).max() <= 1e-15
        assert fock._bargmann(point, dim)[1] is None


def _dense_identity_checks(point, cutoff):
    """``identity_checks`` from dense ``cutoff**n`` square operators: the
    moments of ``_loop_state_moments``, the 12 Weyl operators as Kronecker products
    of one-mode ladder exponentials, and every product of the dense
    symmetrised pairs."""
    state = gq.build_state(point, cutoff, tail_bound=np.inf)
    n, m = state.n, 2 * point.n
    norm = np.trace(state.rho).real
    d_fock, gamma_fock = _loop_state_moments(state)
    xis = _xi_sample(m)
    etas = xis @ gq.symplectic_form(n).T
    beta = -(etas[:, :n] + 1j * etas[:, n:]) / np.sqrt(2.0)
    W = fock._kron_modes(np.moveaxis(_fresh_ladder_expi(beta, 1, cutoff), 1, 0))
    char = np.einsum("ab,xba->x", state.rho, W) / norm
    char_gauss = np.exp(
        1j * etas @ point.d - 0.25 * np.einsum("xi,ij,xj->x", etas, point.gamma, etas)
    )
    delta = _quadrature_operators(n, cutoff) - point.d[:, None, None] * np.eye(cutoff**n)
    i, j = np.triu_indices(m)
    prod = delta[i] @ delta[j]
    pair = 0.5 * (prod + np.swapaxes(prod.conj(), -1, -2))
    size = pair.shape[-1] ** 2
    fourth = (
        (state.rho @ pair).reshape(-1, size) @ np.swapaxes(pair, -1, -2).reshape(-1, size).T
    ).real / norm
    return gq.IdentityReport(
        displacement_dev=float(np.abs(d_fock - point.d).max()),
        covariance_dev=float(np.abs(gamma_fock - point.gamma).max()),
        char_dev=float(np.abs(char - char_gauss).max()),
        fourth_moment_dev=float(np.abs(fourth - _wick(point)).max()),
        tail_mass=state.tail_mass,
    )


def _wick(point):
    """The pairing formula for ``<A_ij A_kl>``, the symmetrised pairs
    ``i <= j`` and ``k <= l`` in ``np.triu_indices`` order, from ``gamma``
    and the symplectic form."""
    i, j = np.triu_indices(2 * point.n)
    i, j, k, l = i[:, None], j[:, None], i[None, :], j[None, :]
    g, w = point.gamma, gq.symplectic_form(point.n)
    return 0.25 * (
        g[i, j] * g[k, l]
        + g[i, k] * g[j, l]
        - w[i, k] * w[j, l]
        + g[i, l] * g[j, k]
        - w[i, l] * w[j, k]
    )


@pytest.mark.parametrize(
    "point, cutoff",
    [
        (gq.builtin_family("thermal").point(2.1), 40),
        (gq.builtin_family("displacement").point(0.4), 40),
        (gq.builtin_family("squeezing", {"nu": 1.3}).point(0.2), 40),
        (gq.builtin_family("phase_squeezed", {"r": 0.5, "nu": 1.5}).point(2.0), 40),
        (gq.builtin_family("phase_squeezed", {"r": 0.5}).point(1.1), 40),
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.3}).point(2.5), 8),
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.5}).point(0.3), 16),
        (_two_mode_point(), 16),
    ],
    ids=["thermal", "displacement", "squeezing", "phase-squeezed-mixed", "phase-squeezed-pure",
         "n2-cutoff-8", "n2-cutoff-16", "n2-random-cutoff-16"],
)
def test_identity_checks_match_the_dense_operator_route(point, cutoff):
    rep, ref = gq.identity_checks(point, cutoff), _dense_identity_checks(point, cutoff)
    for field in ("displacement_dev", "covariance_dev", "char_dev", "fourth_moment_dev",
                  "tail_mass"):
        assert abs(getattr(rep, field) - getattr(ref, field)) <= 1e-13, field


def test_bargmann_frame_is_formed_once_and_read_only():
    W, X = fock._bargmann_frame(2)
    assert fock._bargmann_frame(2)[0] is W
    for table in (W, X):
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0


def test_mode_quadratures_are_formed_once_and_read_only():
    R = fock._mode_quadratures(2, 9)
    assert fock._mode_quadratures(2, 9) is R
    with pytest.raises(ValueError, match="read-only"):
        R.flat[0] = 0
    # _moments centres a copy: the next call reads the same stack
    pt = gq.builtin_family("two_mode_squeezed_phase", {"r": 0.3}).point(0.4)
    first = gq.identity_checks(pt, 9)
    assert gq.identity_checks(pt, 9) == first
    assert np.array_equal(fock._mode_quadratures(2, 9), fock._mode_quadratures.__wrapped__(2, 9))


# ---------------------------------------------------------------------------
# the ket route of pure states
# ---------------------------------------------------------------------------


def _random_pure_point(n, seed):
    """Seeded pure point: squeezes up to 0.25, a random mean, and a tangent
    along a Hamiltonian flow, ``dGamma = K Gamma + Gamma K^T`` with ``K = w H``,
    which keeps the state pure."""
    rng = np.random.default_rng(seed)
    S = gq.random_symplectic(n, seed=rng, squeeze_cap=0.25)
    H = rng.standard_normal((2 * n, 2 * n))
    K = gq.symplectic_form(n) @ (H + H.T) / 2
    gamma = S @ S.T
    return gq.GaussianModelPoint(
        0.3 * rng.standard_normal(2 * n), gamma, rng.standard_normal(2 * n),
        K @ gamma + gamma @ K.T,
    )


def _heated_vacuum(sign):
    # The vacuum displaced, heated (sign 1) or cooled (sign -1): a pure point
    # whose tangent leaves the pure states, through the bra-ket term.
    return gq.GaussianModelPoint(
        np.array([0.3, 0.1]), np.eye(2), np.array([0.2, 0.0]), sign * np.diag([1.0, 2.0])
    )


# (point, dim, tangent keeps the state pure)
_PURE_POINTS = [
    (gq.builtin_family("displacement").point(0.4), 30, True),
    (gq.builtin_family("squeezing").point(0.3), 30, True),
    (gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.7), 30, True),
    (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.3}).point(0.4), 10, True),
    (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.5}).point(0.3), 14, True),
    (_random_pure_point(1, 0), 30, True),
    (_random_pure_point(1, 1), 30, True),
    (_random_pure_point(2, 0), 16, True),
    (_random_pure_point(2, 1), 16, True),
    (_heated_vacuum(1.0), 20, False),
    (_heated_vacuum(-1.0), 20, False),
]
_PURE_IDS = ["displacement", "squeezing", "phase-squeezed", "two-mode-r0.3", "two-mode-r0.5",
             "n1-random-0", "n1-random-1", "n2-random-0", "n2-random-1", "heated", "cooled"]


def _ket_operators(point, dim):
    """``rho = psi psi^H`` and ``drho`` of the ket route on ``dim`` levels,
    dense, with its bra-ket term apart."""
    psi, (dpsi, raised, cross) = fock._ket(point, dim, tangent=True)
    psi, dpsi, raised = psi.ravel(), dpsi.ravel(), raised.reshape(point.n, -1)
    pure_part = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    return np.outer(psi, psi.conj()), pure_part, raised.T @ cross @ raised.conj()


@pytest.mark.parametrize("point, dim, keeps_pure", _PURE_POINTS, ids=_PURE_IDS)
def test_ket_is_the_two_index_recurrence_on_pure_points(point, dim, keeps_pure):
    rho, pure_part, bra_ket = _ket_operators(point, dim)
    refs = (fock._bargmann(point, dim, True), _stepwise_bargmann(point, dim, True))
    for ref_rho, ref_drho in refs:
        assert np.abs(rho - ref_rho).max() <= 1e-14
        assert np.abs(pure_part + bra_ket - ref_drho).max() <= 1e-14
        if keeps_pure:
            assert np.abs(pure_part - ref_drho).max() <= 1e-14


@pytest.mark.parametrize("point, dim, keeps_pure", _PURE_POINTS, ids=_PURE_IDS)
def test_ket_qfi_is_the_eigenbasis_formula_of_the_same_block(point, dim, keeps_pure):
    cutoff = dim - 2
    pure, psi, tangent = fock._tangent_elements(point, cutoff, dim)
    assert pure
    value = fock._block_qfi(point, (pure, psi, tangent), cutoff)
    rho, pure_part, bra_ket = _ket_operators(point, dim)
    kept = [fock._block(M, point.n, cutoff) for M in (rho, pure_part + bra_ket)]
    assert value == pytest.approx(
        fock._solve_sld_eigenbasis(np.linalg.eigh(kept[0]), kept[1]), rel=1e-12, abs=0
    )
    # and the rho route's own eigenbasis value on that block
    ref_rho, ref_drho = fock._bargmann(point, dim, True)
    eig = np.linalg.eigh(fock._block(ref_rho, point.n, cutoff))
    ref = fock._solve_sld_eigenbasis(eig, fock._block(ref_drho, point.n, cutoff))
    assert value == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "n, cutoff, tol", [(3, 18, 1e-9), (4, 18, 1e-9), (5, 12, 1e-6)], ids=["n3", "n4", "n5"]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_ket_qfi_agrees_with_the_engine_up_to_five_modes(n, cutoff, tol, seed):
    # The truncation leaves 1e-10 at n = 4 and 6e-8 at n = 5 (seed 0).
    point = _random_pure_point(n, seed)
    value = gq.qfi_fock(_explicit_family(point), 0.0, cutoff)
    assert value == pytest.approx(gq.qfi_general(point).qfi, rel=tol, abs=0)


def _dense_sld_residual(point, coeffs, cutoff):
    """sld_residual's rho route: the dense defect on cutoff + 2 levels,
    cropped, and its singular values summed."""
    big = cutoff + 2
    rho, drho = fock._bargmann(point, big, tangent=True)
    Lhat = _sld_matrix(coeffs, point.d, big)
    resid = fock._block(drho - 0.5 * (rho @ Lhat + Lhat @ rho), point.n, cutoff)
    return float(np.linalg.svd(resid, compute_uv=False).sum())


def _dense_ket_residual(point, coeffs, cutoff):
    """The ket route's defect ``u psi^H + psi u^H`` plus its bra-ket term,
    ``u = dpsi - L psi / 2``, formed densely and its singular values summed."""
    big = cutoff + 2
    psi, (dpsi, raised, cross) = fock._ket(point, big, tangent=True)
    u = dpsi - 0.5 * (_sld_matrix(coeffs, point.d, big) @ psi.ravel()).reshape(psi.shape)
    block = (slice(cutoff),) * point.n
    psi, u = psi[block].ravel(), u[block].ravel()
    raised = raised[(slice(None),) + block].reshape(point.n, -1)
    M = np.outer(u, psi.conj()) + np.outer(psi, u.conj()) + raised.T @ cross @ raised.conj()
    return float(np.linalg.svd(M, compute_uv=False).sum())


@pytest.mark.parametrize("point, dim, keeps_pure", _PURE_POINTS, ids=_PURE_IDS)
def test_pure_sld_residual_matches_the_dense_residual(point, dim, keeps_pure):
    cutoff = dim - 2
    co = gq.sld_coefficients(point)
    wrong = gq.SLDCoefficients(L=co.L, b=co.b + 0.5, c=co.c, range_residual=0.0)
    for coeffs in (co, wrong):
        value = gq.sld_residual(point, coeffs, cutoff)
        assert abs(value - _dense_ket_residual(point, coeffs, cutoff)) <= 1e-15 + 1e-13 * value
        # The rho route: at rounding level both (1.5e-15 apart at most here),
        # else equal to rounding.
        dense = _dense_sld_residual(point, coeffs, cutoff)
        if keeps_pure and coeffs is co:
            assert max(value, dense) <= 1e-14
        else:
            assert value == pytest.approx(dense, rel=1e-13)
            assert value > 0.05


def test_ket_trace_norm_is_that_of_the_dense_matrix():
    rng = np.random.default_rng(4)
    psi, u, raised = (rng.standard_normal((k, 50)) + 1j * rng.standard_normal((k, 50))
                      for k in (1, 1, 2))
    cross = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    cross += cross.conj().T
    for scale in (1.0, 1e-15):
        v = scale * u[0]
        dense = np.outer(v, psi[0].conj()) + np.outer(psi[0], v.conj())
        for C in (np.zeros((2, 2)), scale * cross):
            M = dense + raised.T @ C @ raised.conj()
            want = np.linalg.svd(M, compute_uv=False).sum()
            assert fock._ket_trace_norm(psi[0], v, raised, C) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "point, cutoff",
    [
        (gq.builtin_family("thermal").point(2.0), 30),
        (gq.builtin_family("phase_squeezed", {"r": 0.5, "nu": 1.5}).point(0.7), 30),
        (_two_mode_point(), 8),
    ],
    ids=["thermal", "phase-squeezed-mixed", "n2-random"],
)
def test_mixed_points_keep_the_rho_route(point, cutoff):
    # Every oracle function on a mixed point is the rho route, to the bit.
    point = _with_tangent(point, np.full(2 * point.n, 0.3), np.eye(2 * point.n))
    fam = _explicit_family(point)
    rho, drho = fock._bargmann(point, cutoff + 10, tangent=True)

    def eigenbasis_qfi(cut):
        block = fock._block(rho, point.n, cut)
        return fock._solve_sld_eigenbasis(np.linalg.eigh(block), fock._block(drho, point.n, cut))

    assert np.array_equal(gq.build_state(point, cutoff).rho, fock._bargmann(point, cutoff)[0])
    assert gq.qfi_fock(fam, 0.0, cutoff + 10) == eigenbasis_qfi(cutoff + 10)
    probe = gq.qfi_fock_probe(fam, 0.0, cutoff)
    want = (eigenbasis_qfi(cutoff), eigenbasis_qfi(cutoff + 10))
    assert (probe.value, probe.cutoff_value) == want
    co = gq.sld_coefficients(point)
    assert gq.sld_residual(point, co, cutoff) == _dense_sld_residual(point, co, cutoff)


def _count_decompositions(monkeypatch):
    """Record, from now on, each ``eigh``, ``eigvalsh``, ``svd`` and
    ``cholesky`` call by name, and the index count of each ``_recurrence``:
    returns the two lists."""
    calls, indices = [], []
    for name in ("eigh", "eigvalsh", "svd", "cholesky"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    recurrence = fock._recurrence

    def spy(A, gam, G0, dim):
        indices.append(len(gam))
        return recurrence(A, gam, G0, dim)

    monkeypatch.setattr(fock, "_recurrence", spy)
    return calls, indices


def test_pure_qfi_reads_the_ket_with_no_eigendecomposition(monkeypatch):
    calls, indices = _count_decompositions(monkeypatch)
    for family, params, theta, cutoff in [
        ("phase_squeezed", {"r": 0.5}, 0.7, 30),
        ("two_mode_squeezed_phase", {"r": 0.3}, 0.4, 8),
    ]:
        fam = gq.builtin_family(family, params)
        gq.qfi_fock(fam, theta, cutoff)
        gq.qfi_fock_probe(fam, theta, cutoff)
        n = fam.point(theta).n
        assert (calls, indices) == ([], [n, n])
        indices.clear()
    # A mixed point reads rho, over 2n indices, and eigh's each block.
    fam = gq.builtin_family("phase_squeezed", {"r": 0.5, "nu": 1.5})
    gq.qfi_fock_probe(fam, 0.7, 30)
    assert (calls, indices) == (["eigh", "eigh"], [2])


def test_ket_route_has_its_own_size_rule():
    # 2n + 5 arrays of dim**n complex entries, and 128 bytes a level, within
    # the same 2**28 bytes.
    for n, top in [(1, 1118481), (2, 1364), (3, 115), (4, 33), (5, 16)]:
        fock._check_size(top, n, ket=True)
        with pytest.raises(gq.ConfigError, match=(
            rf"^a Fock ket of {top + 1} levels on {n} modes needs \d+ MB with its tangent; "
            rf"the oracle builds at most {top} levels on {n} modes \(\d+ MB\)$"
        )):
            fock._check_size(top + 1, n, ket=True)
    fam = gq.builtin_family("two_mode_squeezed_phase", {"r": 0.3})
    start = time.perf_counter()
    with pytest.raises(gq.ConfigError, match="a Fock ket of 2000 levels on 2 modes needs 576 MB"):
        gq.qfi_fock(fam, 0.4, 2000)
    assert time.perf_counter() - start < 0.5
    # The ket route on 410 levels takes 24 MB: the probe reads it, where a
    # dense state would take 452 GB.  build_state stays dense.
    assert gq.qfi_fock_probe(fam, 0.4, 400).cutoff_shift < 1e-12
    with pytest.raises(gq.ConfigError, match="400 levels on 2 modes needs 410 GB per dense"):
        gq.build_state(fam.point(0.4), 400)


@pytest.mark.parametrize(
    "family, params, n",
    [("phase_squeezed", {"r": 0.5}, 1), ("two_mode_squeezed_phase", {"r": 0.3}, 2), (None, None, 3)],
    ids=["n1", "n2", "n3"],
)
def test_ket_route_stays_within_its_size_rule_at_the_top_cutoff(monkeypatch, family, params, n):
    # The rule scales with the budget, so a 4 MB budget stands for 2**28
    # bytes: at its top cutoff every allocation the ket route makes, numpy's
    # temporaries and the recurrence's Python scalars included, stays inside.
    monkeypatch.setattr(fock, "_MAX_BYTES", 2**22)
    top = fock._max_dim(n, ket=True)
    fam = gq.builtin_family(family, params) if family else _explicit_family(_random_pure_point(3, 0))
    theta = 0.4 if family else 0.0
    for call in (lambda: gq.qfi_fock(fam, theta, top), lambda: gq.qfi_fock_probe(fam, theta, top - 10)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**22
    with pytest.raises(gq.ConfigError, match="with its tangent"):
        gq.qfi_fock(fam, theta, top + 1)


def test_ket_route_tail_advice_quotes_the_ket():
    # The point of test_tail_refusal_names_the_memory_of_its_advice: 150
    # levels are above the dense limit but a ket of 3.3 MB, and the ket
    # route's advice says so.
    fam = gq.builtin_family("two_mode_squeezed_phase", {"r": 2.0})
    for call in (gq.qfi_fock, gq.qfi_fock_probe):
        with pytest.raises(gq.PreconditionError, match="suggested cutoff") as exc:
            call(fam, 0.3, 10)
        assert exc.value.flag == "tail_mass"
        assert str(exc.value).endswith(
            "suggested cutoff is 150 (8.1 GB dense state), above the dense size limit of "
            "64 levels; a ket with its tangent takes 3.3 MB"
        )
    # 3015 levels on two modes are past the ket limit as well.
    fam = gq.builtin_family("two_mode_squeezed_phase", {"r": 3.5})
    with pytest.raises(gq.PreconditionError, match="suggested cutoff") as exc:
        gq.qfi_fock(fam, 0.3, 10)
    assert str(exc.value).endswith(
        "a ket with its tangent takes 1.3 GB, above the ket size limit of 1364 levels"
    )


# ---------------------------------------------------------------------------
# identity checks on the ket
# ---------------------------------------------------------------------------


def _rho_identity_checks(point, cutoff):
    """``identity_checks`` read from the dense ``rho`` of ``build_state``,
    every expectation ``tr[rho F]`` by ``_mode_traces``, on the sample of
    ``_xi_sample``: the reader of mixed points, step by step."""
    state = gq.build_state(point, cutoff, tail_bound=np.inf)
    n, m, rho = point.n, 2 * point.n, state.rho
    norm = np.trace(rho).real
    R = fock._mode_quadratures(n, cutoff)
    d = fock._mode_traces(rho, R).real / norm
    R = R.copy()
    R[np.arange(m), np.arange(m) % n] -= point.d[:, None, None] * np.eye(cutoff)
    i, j = np.triu_indices(m)
    prod = R[i] @ R[j]
    pair = 0.5 * (prod + np.swapaxes(prod.conj(), -1, -2))
    second = np.empty((m, m))
    second[i, j] = second[j, i] = fock._mode_traces(rho, pair).real / norm
    shift = d - point.d
    gamma = 2.0 * (second - np.outer(shift, shift))
    etas = _xi_sample(m) @ gq.symplectic_form(n).T
    beta = -(etas[:, :n] + 1j * etas[:, n:]) / np.sqrt(2.0)
    char = fock._mode_traces(rho, fock._weyl_factors(beta, cutoff)) / norm
    char_gauss = np.exp(
        1j * etas @ point.d - 0.25 * np.einsum("xi,ij,xj->x", etas, point.gamma, etas)
    )
    p, q = np.triu_indices(i.size)
    fourth = np.empty((i.size, i.size))
    fourth[p, q] = fourth[q, p] = fock._mode_traces(rho, pair[p] @ pair[q]).real / norm
    return gq.IdentityReport(
        displacement_dev=float(np.abs(d - point.d).max()),
        covariance_dev=float(np.abs(gamma - point.gamma).max()),
        char_dev=float(np.abs(char - char_gauss).max()),
        fourth_moment_dev=float(np.abs(fourth - _wick(point)).max()),
        tail_mass=state.tail_mass,
    )


@pytest.mark.parametrize(
    "point, cutoff",
    [
        (gq.builtin_family("displacement").point(0.4), 40),
        (gq.builtin_family("phase_squeezed", {"r": 0.5}).point(1.1), 40),
        (gq.builtin_family("phase_squeezed", {"r": 1.0}).point(0.0), 40),
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.3}).point(0.4), 8),
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.3}).point(0.4), 14),
        (gq.parse_model_config(PURE_THREE_MODE).point, 8),
    ],
    ids=["displacement", "phase-squeezed", "phase-squeezed-r1", "n2-cutoff-8", "n2-cutoff-14",
         "n3-ci-config"],
)
def test_pure_identity_checks_read_the_ket_as_the_rho_reader(point, cutoff):
    # psi psi^H is the 2n-index rho to rounding, and <psi|F|psi> sums in
    # another order than tr[rho F]: every field agrees within 1e-14.
    rep, ref = gq.identity_checks(point, cutoff), _rho_identity_checks(point, cutoff)
    for field in ("displacement_dev", "covariance_dev", "char_dev", "fourth_moment_dev",
                  "tail_mass"):
        assert abs(getattr(rep, field) - getattr(ref, field)) <= 1e-14, field


@pytest.mark.parametrize(
    "point, cutoff",
    [
        (gq.builtin_family("thermal").point(2.1), 40),
        (gq.builtin_family("squeezing", {"nu": 1.3}).point(0.2), 40),
        (gq.builtin_family("phase_squeezed", {"r": 0.5, "nu": 1.5}).point(2.0), 40),
        (_two_mode_point(), 8),
        (_three_mode_point(2), 8),
    ],
    ids=["thermal", "squeezing", "phase-squeezed-mixed", "n2-random", "n3-random"],
)
def test_mixed_identity_checks_are_the_rho_reader_to_the_bit(point, cutoff):
    assert gq.identity_checks(point, cutoff) == _rho_identity_checks(point, cutoff)


def test_pure_identity_checks_diagonalise_nothing(monkeypatch):
    # A first call on each point eigh's the ladder chain of its size, cached
    # apart from any one call.
    points = [
        (gq.builtin_family("displacement").point(0.4), 40),
        (gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.7), 40),
        (gq.builtin_family("two_mode_squeezed_phase", {"r": 0.3}).point(0.4), 8),
    ]
    mixed = gq.builtin_family("phase_squeezed", {"r": 0.5, "nu": 1.5}).point(0.7)
    for point, cutoff in points + [(mixed, 40)]:
        gq.identity_checks(point, cutoff)
    calls, indices = _count_decompositions(monkeypatch)
    for point, cutoff in points:
        gq.identity_checks(point, cutoff)
        assert (calls, indices) == ([], [point.n])
        indices.clear()
    # A mixed point reads rho, over 2n indices, and decides the eigenvalue
    # rule by one Cholesky factor, with no eigvalsh.
    gq.identity_checks(mixed, 40)
    assert (calls, indices) == (["cholesky"], [2])
