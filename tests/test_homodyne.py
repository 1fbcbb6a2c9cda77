"""Tests for the equal-temperature measurement frame, homodyne Fisher
information, quadrature plans, and ancilla extensions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gaussqfi as gq
from gaussqfi.dgamma import _Frame
from gaussqfi.symplectic import _frame_rounding
from conftest import random_isothermal_point, random_model_point, random_state, thermal_diag


def test_frame_phase_squeezed():
    r = 0.8
    pt = gq.builtin_family("phase_squeezed", {"r": r}).point(0.0)
    fr = gq.isothermal_frame(pt)
    assert fr.n == 1
    assert fr.nu == pytest.approx(1.0, abs=1e-10)
    assert_allclose(fr.lam, [2 * np.sinh(2 * r)], atol=1e-9)


def test_frame_diagonalizes_both_moments():
    pt = random_isothermal_point(2, 41, nu=1.9)
    fr = gq.isothermal_frame(pt)
    scale = 1 + np.abs(pt.dgamma).max()
    assert_allclose(fr.T @ pt.gamma @ fr.T.T, fr.nu * np.eye(4), atol=1e-8 * scale)
    lam_full = np.concatenate([fr.lam, -fr.lam])
    assert_allclose(
        fr.T @ pt.dgamma @ fr.T.T, fr.nu * np.diag(lam_full), atol=1e-8 * scale
    )
    assert gq.is_symplectic(fr.T, tol=1e-8)
    assert np.all(fr.lam >= -1e-12)
    assert np.all(np.diff(fr.lam) <= 1e-12)


def test_frame_zero_derivative():
    gamma, _, _ = random_state(2, 5, nu_min=1.4, nu_max=1.4)
    pt = gq.GaussianModelPoint(np.zeros(4), gamma, np.zeros(4), np.zeros((4, 4)))
    fr = gq.isothermal_frame(pt)
    assert_allclose(fr.lam, np.zeros(2), atol=1e-12)
    assert gq.optimal_homodyne_fisher(fr) == 0.0


def _carrying(W, dd0=0.0):
    """A point at one temperature, nu = 1.5 in the frame S = I, whose frame
    carries ``W`` as given rather than its symmetric part: rounding in an
    ill-conditioned Williamson frame leaves ``Xt = S^-1 dGamma S^-T`` that
    asymmetric (the explicit ``two_mode_squeezed_phase`` at r = 11, theta 0,
    reads 1.4 times the symmetry rule's bound)."""
    m = W.shape[0]
    dd = np.zeros(m)
    dd[0] = dd0
    pt = gq.GaussianModelPoint(np.zeros(m), 1.5 * np.eye(m), dd, 0.5 * (W + W.T))
    pt.__dict__["_frame"] = _Frame(
        np.eye(m), np.full(m // 2, 1.5), np.eye(m), W, _frame_rounding(np.eye(m), pt.gamma)
    )
    return pt


# A Hamiltonian direction, [[A, B], [B, -A]], but with A not symmetric: the
# equal-temperature gates pass and the eigenframe's symmetry rule refuses.
_ASYMMETRIC_W = np.block([
    [np.array([[0.3, 1.0], [0.0, -0.2]]), np.array([[0.5, 0.1], [0.1, 0.2]])],
    [np.array([[0.5, 0.1], [0.1, 0.2]]), -np.array([[0.3, 1.0], [0.0, -0.2]])],
])

# case: (point, check_isothermal's verdict or refusal flag, isothermal_frame's
# refusal as (exception, flag or message)); each case fails two gates, and the
# earlier one must refuse.
_GATE_ORDER = {
    "nu_min-before-derivative_preserves_nu": (
        lambda: gq.GaussianModelPoint(np.zeros(2), 0.5 * np.eye(2), np.zeros(2), np.eye(2)),
        "nu_min",
        (gq.PreconditionError, "nu_min"),
    ),
    "derivative_preserves_nu-before-static_first_moments": (
        lambda: gq.GaussianModelPoint(np.zeros(2), 2 * np.eye(2), np.array([1.0, 0.0]), np.eye(2)),
        (True, False),
        (gq.PreconditionError, "derivative_preserves_nu"),
    ),
    "static_first_moments-before-W-symmetry": (
        lambda: _carrying(_ASYMMETRIC_W, dd0=1.0),
        (True, True),
        (gq.PreconditionError, "static_first_moments"),
    ),
    "W-symmetry": (
        lambda: _carrying(_ASYMMETRIC_W),
        (True, True),
        (ValueError, "W is not symmetric (max asymmetry 1)"),
    ),
}


@pytest.mark.parametrize("case", list(_GATE_ORDER))
def test_gates_refuse_in_their_order(case):
    make, verdict, (error, reason) = _GATE_ORDER[case]
    pt = make()
    if isinstance(verdict, str):
        with pytest.raises(gq.PreconditionError) as exc:
            gq.check_isothermal(pt)
        assert exc.value.flag == verdict
    else:
        chk = gq.check_isothermal(pt)
        assert (chk.is_isothermal, chk.derivative_preserves_nu) == verdict
    with pytest.raises(error) as exc:
        gq.isothermal_frame(pt)
    if error is gq.PreconditionError:
        assert exc.value.flag == reason
    else:
        assert str(exc.value) == reason


def test_frame_gates():
    with pytest.raises(gq.PreconditionError) as e1:
        gq.isothermal_frame(gq.builtin_family("thermal").point(2.0))
    assert e1.value.flag == "derivative_preserves_nu"

    mixed = gq.GaussianModelPoint(
        np.zeros(4), thermal_diag([3.0, 1.0]), np.zeros(4), np.zeros((4, 4))
    )
    with pytest.raises(gq.PreconditionError) as e2:
        gq.isothermal_frame(mixed)
    assert e2.value.flag == "is_isothermal"

    # Moving first moments are outside this measurement analysis.
    with pytest.raises(gq.PreconditionError) as e3:
        gq.isothermal_frame(gq.builtin_family("displacement").point(0.0))
    assert e3.value.flag == "static_first_moments"


def test_optimal_equals_qfi_for_pure_states():
    pt = gq.builtin_family("squeezing").point(0.6)
    fr = gq.isothermal_frame(pt)
    assert_allclose(fr.lam, [2.0], atol=1e-9)
    assert gq.optimal_homodyne_fisher(fr) == pytest.approx(
        gq.qfi_general(pt).qfi, abs=1e-9
    )


@pytest.mark.parametrize("nu", [1.5, 2.0, 3.0])
def test_mixed_state_gap(nu):
    pt = random_isothermal_point(2, 88, nu=nu)
    fr = gq.isothermal_frame(pt)
    best = gq.optimal_homodyne_fisher(fr)
    qfi = gq.qfi_general(pt).qfi
    assert best / qfi == pytest.approx((1 + nu**2) / (2 * nu**2), abs=1e-9)


def test_homodyne_fisher_canonical_choices():
    pt = gq.builtin_family("phase_squeezed", {"r": 1.0}).point(0.0)
    fr = gq.isothermal_frame(pt)
    best = gq.optimal_homodyne_fisher(fr)
    # Identity network and a global 90-degree rotation both saturate.
    assert gq.homodyne_fisher(fr, np.eye(2)) == pytest.approx(best, abs=1e-9)
    assert gq.homodyne_fisher(fr, gq.symplectic_form(1)) == pytest.approx(
        best, abs=1e-9
    )


def test_homodyne_fisher_never_beats_optimum():
    rng = np.random.default_rng(1234)
    for pt in [
        gq.builtin_family("phase_squeezed", {"r": 1.0}).point(0.0),
        random_isothermal_point(2, 600, nu=1.6),
        random_isothermal_point(3, 601, nu=2.5),
    ]:
        fr = gq.isothermal_frame(pt)
        best = gq.optimal_homodyne_fisher(fr)
        for _ in range(60):
            U = gq.random_symplectic(fr.n, seed=rng, squeeze_cap=2.0)
            val = gq.homodyne_fisher(fr, U)
            assert -1e-12 <= val <= best + 1e-9


def test_homodyne_fisher_rejects_bad_networks():
    pt = gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.0)
    fr = gq.isothermal_frame(pt)
    with pytest.raises(gq.ConfigError):
        gq.homodyne_fisher(fr, 2.0 * np.eye(2))  # not symplectic
    with pytest.raises(gq.ConfigError):
        gq.homodyne_fisher(fr, np.eye(4))  # wrong size


def test_ancilla_extension_pads_spectrum():
    pt = gq.builtin_family("phase_squeezed", {"r": 0.9}).point(0.0)
    ext = gq.ancilla_extend(pt, np.eye(2))  # vacuum ancilla matches nu = 1
    assert ext.n == 2
    fr0 = gq.isothermal_frame(pt)
    fr1 = gq.isothermal_frame(ext)
    assert_allclose(
        np.sort(fr1.lam), np.sort(np.concatenate([fr0.lam, [0.0]])), atol=1e-9
    )
    assert gq.optimal_homodyne_fisher(fr1) == pytest.approx(
        gq.optimal_homodyne_fisher(fr0), abs=1e-9
    )


def test_ancilla_matched_temperature_preserves_gates():
    nu = 1.8
    pt = random_isothermal_point(1, 3, nu=nu)
    ext = gq.ancilla_extend(pt, nu * np.eye(2))
    chk = gq.check_isothermal(ext)
    assert chk.is_isothermal and chk.derivative_preserves_nu
    assert gq.optimal_homodyne_fisher(gq.isothermal_frame(ext)) == pytest.approx(
        gq.optimal_homodyne_fisher(gq.isothermal_frame(pt)), abs=1e-9
    )


def test_ancilla_rejects_invalid_covariance():
    pt = gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.0)
    with pytest.raises(gq.ConfigError):
        gq.ancilla_extend(pt, 0.5 * np.eye(2))


def test_ancilla_cannot_increase_information():
    rng = np.random.default_rng(77)
    pt = gq.builtin_family("phase_squeezed", {"r": 0.8}).point(0.0)
    best = gq.optimal_homodyne_fisher(gq.isothermal_frame(pt))
    ext = gq.ancilla_extend(pt, np.eye(2))
    fr_ext = gq.isothermal_frame(ext)
    assert gq.optimal_homodyne_fisher(fr_ext) <= best + 1e-12
    for _ in range(40):
        U = gq.random_symplectic(2, seed=rng, squeeze_cap=2.0)
        assert gq.homodyne_fisher(fr_ext, U) <= best + 1e-9


def test_frame_eigendecomposes_only_the_derivative(linalg_calls):
    # once the point's frame is formed, a rejected point adds no linear
    # algebra and an accepted one only the eigh of W
    spread, iso = random_model_point(5, seed=3), random_isothermal_point(5, seed=3)
    for pt in (spread, iso):
        pt._frame  # formed here, once
    before = dict(linalg_calls)
    with pytest.raises(gq.PreconditionError) as exc:
        gq.isothermal_frame(spread)
    assert exc.value.flag == "is_isothermal"
    assert linalg_calls == before
    gq.isothermal_frame(iso)
    assert linalg_calls == dict(before, eigh=before["eigh"] + 1)


def test_check_isothermal_makes_no_eigendecomposition(linalg_calls):
    # the gate reads the point's formed frame and adds no linear algebra
    spread, iso = random_model_point(5, seed=3), random_isothermal_point(5, seed=3)
    for pt in (spread, iso):
        pt._frame
    before = dict(linalg_calls)
    assert gq.check_isothermal(iso).is_isothermal
    assert not gq.check_isothermal(spread).is_isothermal
    assert linalg_calls == before


@pytest.mark.parametrize(
    "family, params",
    [
        ("phase_squeezed", {"r": 5.0}),
        ("phase_squeezed", {"r": 6.0, "nu": 1.5}),
        ("two_mode_squeezed_phase", {"r": 6.0}),
    ],
)
def test_gate_accepts_strongly_squeezed_points(family, params):
    pt = gq.builtin_family(family, params).point(0.7)
    chk = gq.check_isothermal(pt)
    assert chk.is_isothermal and chk.derivative_preserves_nu
    assert chk.nu == pytest.approx(params.get("nu", 1.0), rel=1e-5)


def test_frame_of_strongly_squeezed_pure_point_is_optimal():
    pt = gq.builtin_family("phase_squeezed", {"r": 5.0}).point(0.7)
    best = gq.optimal_homodyne_fisher(gq.isothermal_frame(pt))
    assert best == pytest.approx(gq.qfi_general(pt).qfi, rel=1e-6)


def test_gate_rejects_small_temperature_spread():
    S = gq.random_symplectic(2, seed=12, squeeze_cap=1.0)
    gamma = S @ thermal_diag([1.5, 1.5 - 1e-4]) @ S.T
    pt = gq.GaussianModelPoint(
        np.zeros(4), 0.5 * (gamma + gamma.T), np.zeros(4), S @ S.T
    )
    assert not gq.check_isothermal(pt).is_isothermal


@pytest.mark.parametrize("spread, accepted", [(0.0, True), (1e-6, False), (1e-5, False)])
def test_gate_rejects_small_spread_under_strong_squeezing(spread, accepted):
    # The rounding allowance scales with |Si|_F^2 max|Gamma / nu|, the scale
    # of the gate's own product, so strong squeezing (|S|_2^2 ~ 334 here) does
    # not widen the tolerance on the temperatures themselves.
    S = gq.random_symplectic(2, seed=0, squeeze_cap=4.0)
    gamma = S @ thermal_diag([1.5, 1.5 - spread]) @ S.T
    pt = gq.GaussianModelPoint(
        np.zeros(4), 0.5 * (gamma + gamma.T), np.zeros(4), np.zeros((4, 4))
    )
    assert gq.check_isothermal(pt).is_isothermal is accepted
