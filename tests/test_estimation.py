"""Tests for symmetric logarithmic derivatives, the two Fisher-information
routes, and the photon-counting normal form."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gaussqfi as gq
from gaussqfi import cli
from gaussqfi.dgamma import _frame_solve
from conftest import (
    BUILTIN_POINTS,
    explicit_doc,
    random_isothermal_point,
    random_model_point,
    thermal_diag,
)


def test_sld_shift_model():
    pt = gq.builtin_family("displacement").point(0.0)
    co = gq.sld_coefficients(pt)
    assert_allclose(co.L, np.zeros((2, 2)), atol=1e-15)
    assert_allclose(co.b, [2.0, 0.0], atol=1e-14)
    assert co.c == pytest.approx(0.0, abs=1e-14)
    assert co.range_residual < 1e-14


def test_sld_thermal_closed_form():
    pt = gq.builtin_family("thermal").point(2.0)
    co = gq.sld_coefficients(pt)
    assert_allclose(co.L, np.eye(2) / 3, atol=1e-12)
    assert_allclose(co.b, np.zeros(2), atol=1e-15)
    assert co.c == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert co.range_residual < 1e-12


def test_sld_pure_squeezing_closed_form():
    r = 0.7
    pt = gq.builtin_family("squeezing").point(r)
    co = gq.sld_coefficients(pt)
    assert_allclose(co.L, np.diag([np.exp(-2 * r), -np.exp(2 * r)]), atol=1e-10)
    assert co.c == pytest.approx(0.0, abs=1e-10)
    # The quadratic part solves the defining congruence equation.
    assert_allclose(gq.apply_dgamma(pt.gamma, co.L), pt.dgamma, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sld_offset_identity(seed):
    pt = random_model_point(2, 500 + seed)
    co = gq.sld_coefficients(pt)
    expected = -0.5 * float(np.sum(co.L * pt.gamma))
    assert co.c == pytest.approx(expected, abs=1e-12 * (1 + abs(expected)))


def test_qfi_displacement():
    rep = gq.qfi_general(gq.builtin_family("displacement").point(1.1))
    assert rep.qfi == pytest.approx(2.0, abs=1e-12)
    assert rep.first_moment_term == pytest.approx(2.0, abs=1e-12)
    assert rep.second_moment_term == 0.0
    assert rep.wigner_fisher == pytest.approx(2.0, abs=1e-12)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.method == "general"


@pytest.mark.parametrize("nu", [1.5, 2.0, 3.0])
def test_qfi_thermal_closed_form(nu):
    rep = gq.qfi_general(gq.builtin_family("thermal").point(nu))
    assert rep.qfi == pytest.approx(1 / (nu**2 - 1), abs=1e-12)
    assert rep.wigner_fisher == pytest.approx(1 / nu**2, abs=1e-12)
    # Quantum beats the phase-space distribution on this model.
    assert rep.ratio == pytest.approx(nu**2 / (nu**2 - 1), abs=1e-10)


def test_qfi_mean_photon_reparametrization():
    N = 0.5  # nu = 2N + 1
    pt = gq.GaussianModelPoint(
        np.zeros(2), (2 * N + 1) * np.eye(2), np.zeros(2), 2 * np.eye(2)
    )
    assert gq.qfi_general(pt).qfi == pytest.approx(1 / (N * (N + 1)), abs=1e-12)


def test_qfi_quadratic_in_derivatives():
    pt = random_model_point(2, 901)
    c = 2.5
    scaled = gq.GaussianModelPoint(pt.d, pt.gamma, c * pt.dd, c * pt.dgamma)
    assert gq.qfi_general(scaled).qfi == pytest.approx(
        c**2 * gq.qfi_general(pt).qfi, rel=1e-12
    )


@pytest.mark.parametrize("r,nu", [(0.5, 1.0), (1.0, 1.0), (0.5, 2.0)])
def test_qfi_phase_squeezed_two_routes(r, nu):
    pt = gq.builtin_family("phase_squeezed", {"r": r, "nu": nu}).point(0.37)
    a = gq.qfi_general(pt)
    b = gq.qfi_isothermal(pt)
    assert b.method == "isothermal"
    assert a.qfi == pytest.approx(b.qfi, abs=1e-10 * (1 + a.qfi))
    target = 2 * math.sinh(2 * r) ** 2
    if nu == 1.0:
        assert a.qfi == pytest.approx(target, abs=1e-10)
    else:
        # tr[(G^-1 dG)^2] is scale free, so only the commutator weight moves.
        assert a.qfi == pytest.approx(2 * nu**2 / (1 + nu**2) * target, abs=1e-10)


def test_qfi_isothermal_gates():
    with pytest.raises(gq.PreconditionError) as e1:
        gq.qfi_isothermal(gq.builtin_family("thermal").point(2.0))
    assert e1.value.flag == "derivative_preserves_nu"

    mixed = gq.GaussianModelPoint(
        np.zeros(4), thermal_diag([3.0, 1.0]), np.zeros(4), np.zeros((4, 4))
    )
    with pytest.raises(gq.PreconditionError) as e2:
        gq.qfi_isothermal(mixed)
    assert e2.value.flag == "is_isothermal"


def test_half_vacuum_is_refused_by_every_entry_point():
    # Gamma = I / 2 is equal-temperature at nu = 1/2 and diag(1, -1) keeps it
    # so: both equal-temperature gates pass, and only the state rule refuses.
    pt = gq.GaussianModelPoint(np.zeros(2), 0.5 * np.eye(2), np.zeros(2), np.diag([1.0, -1.0]))
    for call in (gq.check_isothermal, gq.isothermal_frame, gq.qfi_isothermal,
                 gq.qfi_general, gq.sld_coefficients, lambda p: gq.build_state(p, 8)):
        with pytest.raises(gq.PreconditionError, match=r"\(1 - nu_min = 0\.5\)") as exc:
            call(pt)
        assert exc.value.flag == "nu_min"
    assert not gq.validate_covariance(pt.gamma).valid
    with pytest.raises(gq.ConfigError, match=r"admissible covariance matrix \(1 - nu_min = 0\.5\)"):
        gq.parse_model_config(explicit_doc(pt))


@pytest.mark.parametrize("hot, low", [(3e7, 0.5), (2e6 + 1.0, 1.0 - 1e-3)])
def test_a_hot_mode_does_not_hide_a_sub_vacuum_mode(hot, low):
    # Rounding grows with the hottest mode, linearly: here the allowance is
    # eps |S|_F^2 tr Gamma = 4 eps (2 hot + 2 low), far below 1 - low.
    pt = gq.GaussianModelPoint(np.zeros(4), thermal_diag([hot, low]), np.zeros(4), np.eye(4))
    for call in (gq.qfi_general, gq.sld_coefficients, lambda p: gq.build_state(p, 8)):
        with pytest.raises(gq.PreconditionError) as exc:
            call(pt)
        assert exc.value.flag == "nu_min"
    assert not gq.validate_covariance(pt.gamma).valid
    with pytest.raises(gq.ConfigError, match="not an admissible covariance"):
        gq.parse_model_config(explicit_doc(pt))
    # The temperatures are spread, so the equal-temperature paths refuse first.
    assert not gq.check_isothermal(pt).is_isothermal
    for call in (gq.isothermal_frame, gq.qfi_isothermal):
        with pytest.raises(gq.PreconditionError) as exc:
            call(pt)
        assert exc.value.flag == "is_isothermal"


@pytest.mark.parametrize(
    "family, r",
    [("phase_squeezed", r) for r in range(1, 9)]
    + [("two_mode_squeezed_phase", r) for r in (0.6, 2.0, 4.0, 6.0)],
)
def test_strongly_squeezed_pure_points_are_states_at_every_entry_point(family, r):
    # Their Williamson nu_min rounds to as low as 1 - 2.8e-7 (phase_squeezed
    # r = 6), within the state rule's eps |S|_F^2 tr Gamma = eps |S|_F^4.
    pt = gq.builtin_family(family, {"r": r}).point(0.3)
    gq.qfi_general(pt)
    gq.qfi_isothermal(pt)
    gq.isothermal_frame(pt)
    assert gq.check_isothermal(pt).is_isothermal
    assert gq.validate_covariance(pt.gamma).valid
    gq.parse_model_config(explicit_doc(pt))
    gq.build_state(pt, 8, tail_bound=np.inf)


def test_qfi_zero_at_stationary_point():
    pt0 = gq.GaussianModelPoint(np.zeros(2), np.eye(2), np.zeros(2), np.zeros((2, 2)))
    rep = gq.qfi_general(pt0)
    assert rep.qfi == 0.0
    assert math.isnan(rep.ratio)


def test_qfi_reports_kernel_overlap_at_purity_boundary():
    # Heating the vacuum is invisible at first order; the unsupported
    # component is removed and reported.
    pt = gq.GaussianModelPoint(np.zeros(2), np.eye(2), np.zeros(2), np.eye(2))
    rep = gq.qfi_general(pt)
    assert rep.second_moment_term == pytest.approx(0.0, abs=1e-12)
    assert rep.range_residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_wigner_fisher_values():
    sigma = 1.7
    val = gq.gaussian_distribution_fisher(np.array([[sigma]]), np.array([[1.0]]))
    assert val == pytest.approx(0.5 / sigma**2, abs=1e-14)
    pt = gq.builtin_family("displacement").point(0.0)
    assert gq.wigner_fisher(pt) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("seed,nu", [(0, 1.5), (1, 2.0), (2, 3.0)])
def test_isothermal_second_moment_ratio(seed, nu):
    pt = random_isothermal_point(2, seed + 300, nu=nu)
    rep = gq.qfi_general(pt)
    # dd = 0, so wigner_fisher is purely the second-moment term.
    factor = nu**2 / (1 + nu**2)
    assert rep.second_moment_term == pytest.approx(
        factor * rep.wigner_fisher, abs=1e-10 * (1 + rep.wigner_fisher)
    )


def test_qfi_symplectic_covariance():
    pt = random_model_point(2, 777, nu_min=1.2)
    S = gq.random_symplectic(2, seed=13, squeeze_cap=0.8)
    conj = gq.GaussianModelPoint(
        S @ pt.d, S @ pt.gamma @ S.T, S @ pt.dd, S @ pt.dgamma @ S.T
    )
    q0 = gq.qfi_general(pt).qfi
    q1 = gq.qfi_general(conj).qfi
    assert q1 == pytest.approx(q0, abs=1e-9 * (1 + q0))


def test_photon_counting_thermal():
    pt = gq.builtin_family("thermal").point(2.0)
    form = gq.photon_counting_form(gq.sld_coefficients(pt), pt)
    assert form is not None
    assert_allclose(form.alpha, [1.0 / 3.0], atol=1e-10)
    assert_allclose(form.mean_photon, [0.5], atol=1e-10)
    assert gq.is_symplectic(form.T, tol=1e-8)
    assert_allclose(form.T @ form.T.T, np.eye(2), atol=1e-8)


def test_photon_counting_absent_for_linear_model():
    pt = gq.builtin_family("displacement").point(0.0)
    assert gq.photon_counting_form(gq.sld_coefficients(pt), pt) is None


def test_photon_counting_absent_for_phase_model():
    # On a pure state L has a spectrum symmetric about 0, so no counting form exists.
    pt = gq.builtin_family("phase_squeezed", {"r": 0.8}).point(0.0)
    assert gq.photon_counting_form(gq.sld_coefficients(pt), pt) is None


def test_photon_counting_squeezed_heating_model():
    S = gq.random_symplectic(1, seed=21, squeeze_cap=0.6)
    nu = 2.0
    P = S @ S.T
    pt = gq.GaussianModelPoint(np.zeros(2), nu * P, np.zeros(2), P)
    co = gq.sld_coefficients(pt)
    form = gq.photon_counting_form(co, pt)
    assert form is not None
    D = np.diag(np.concatenate([form.alpha, form.alpha]))
    assert_allclose(form.T.T @ D @ form.T, co.L, atol=1e-9)
    assert gq.is_symplectic(form.T, tol=1e-8)
    assert np.all(form.mean_photon > -1e-12)


def test_photon_counting_cooling_model_flips_sign():
    nu = 2.0
    pt = gq.GaussianModelPoint(np.zeros(2), nu * np.eye(2), np.zeros(2), -np.eye(2))
    form = gq.photon_counting_form(gq.sld_coefficients(pt), pt)
    assert form is not None
    assert np.all(form.alpha < 0)
    assert_allclose(form.alpha, [-1.0 / 3.0], atol=1e-10)


def _displaced_heating_point(dd):
    """``d = (0.5, 0)``, ``Gamma = 2 I``, ``dGamma = I``: QFI 1/3, plus 2 dd^2 / 2."""
    return gq.GaussianModelPoint(
        np.array([0.5, 0.0]), 2.0 * np.eye(2), np.asarray(dd, dtype=float), np.eye(2)
    )


def test_photon_counting_counts_about_the_mean():
    # With b = 0 the modes are counted about d: the thermal mean 0.5, not the
    # 0.625 of counting about the origin.
    pt = _displaced_heating_point([0.0, 0.0])
    form = gq.photon_counting_form(gq.sld_coefficients(pt), pt)
    assert_allclose(form.displacement, pt.d, atol=0)
    assert_allclose(form.mean_photon, [0.5], atol=1e-12)


def test_photon_counting_folds_the_linear_part_into_the_displacement():
    # b = 2 Gamma^-1 dd = (1, 0) and L = I / 3, so d* = d - L^-1 b / 2 = (-1, 0).
    pt = _displaced_heating_point([1.0, 0.0])
    form = gq.photon_counting_form(gq.sld_coefficients(pt), pt)
    assert_allclose(form.displacement, [-1.0, 0.0], atol=1e-12)
    assert_allclose(form.mean_photon, [0.5 + 0.5 * 1.5**2], atol=1e-12)
    # Cooling, dGamma = -I: L = -I / 3 is read off the frame of -L, so
    # d* = d + 3 b / 2 = (2, 0), and the modes sit as far from it.
    cooling = gq.GaussianModelPoint(pt.d, pt.gamma, pt.dd, -pt.dgamma)
    form = gq.photon_counting_form(gq.sld_coefficients(cooling), cooling)
    assert_allclose(form.alpha, [-1.0 / 3.0], atol=1e-12)
    assert_allclose(form.displacement, [2.0, 0.0], atol=1e-12)
    assert_allclose(form.mean_photon, [0.5 + 0.5 * 1.5**2], atol=1e-12)


@pytest.mark.parametrize(
    "pt, qfi",
    [
        (_displaced_heating_point([0.0, 0.0]), 1.0 / 3.0),
        (_displaced_heating_point([1.0, 0.0]), 4.0 / 3.0),
        # d(Gamma^-1) = -diag(-0.5, 2) / 2.25 is indefinite, but the SLD
        # solve gives L = diag(14, 64) / 65, which is definite.
        (gq.GaussianModelPoint(np.zeros(2), 1.5 * np.eye(2), np.zeros(2),
                               np.diag([-0.5, 2.0])), 121.0 / 130.0),
    ],
    ids=["heating", "displaced-heating", "definite-L-only"],
)
def test_photon_counting_attains_the_qfi(pt, qfi):
    # The Fisher information of the photon numbers of the T-frame modes of
    # R - d*, with the measurement fixed at theta = 0, from the Fock oracle.
    form = gq.photon_counting_form(gq.sld_coefficients(pt), pt)
    T, h, cutoff = form.T, 1e-4, 60

    def counts(t):
        d, gamma = pt.d + t * pt.dd, pt.gamma + t * pt.dgamma
        moved = gq.GaussianModelPoint(
            T @ (d - form.displacement), T @ gamma @ T.T, np.zeros(2), np.zeros((2, 2))
        )
        return np.diagonal(gq.build_state(moved, cutoff).rho).real

    p, dp = counts(0.0), (counts(h) - counts(-h)) / (2.0 * h)
    keep = p > 1e-300
    fisher = float(np.sum(dp[keep] ** 2 / p[keep]))
    assert gq.qfi_general(pt).qfi == pytest.approx(qfi, rel=1e-12)
    assert fisher == pytest.approx(qfi, rel=1e-6)


def test_photon_counting_form_solves_only_with_L(linalg_calls):
    # One Williamson frame of L (a Cholesky factor and one eigh), which also
    # gives d* = d - L^-1 b / 2; nothing is solved, with Gamma or with L.
    pt = _displaced_heating_point([1.0, 0.0])
    co = gq.sld_coefficients(pt)
    before = dict(linalg_calls)
    assert gq.photon_counting_form(co, pt) is not None
    assert {k: linalg_calls[k] - before[k] for k in before} == {
        "cholesky": 1, "eigh": 1, "solve": 0,
    }


def test_overflowing_temperature_raises_in_every_frame_reader():
    # thermal at theta = 1e300: nu^2 overflows.  qfi_general and
    # wigner_fisher stop at the one overflow check of the frame solve, and
    # neither writes a RuntimeWarning or returns a number first.
    pt = gq.builtin_family("thermal").point(1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reader in (gq.qfi_general, gq.wigner_fisher):
            with pytest.raises(FloatingPointError, match="overflow encountered in nu_i nu_j"):
                reader(pt)


def test_qfi_general_factorises_once(williamson_calls):
    gq.qfi_general(random_model_point(3, seed=6))
    assert williamson_calls[0] == 1


def _frame_read_points():
    mixed = [random_model_point(n, seed=40 + n) for n in range(1, 11)]  # dd != 0
    pure = [random_isothermal_point(n, seed=60 + n) for n in (1, 2, 4, 6)]
    squeezed = [
        gq.builtin_family("phase_squeezed", {"r": 3.0}).point(theta)
        for theta in (0.0, 0.3, 0.5, 1.1, 2.5)
    ]
    return mixed + pure + squeezed


@pytest.mark.parametrize("pt", _frame_read_points())
def test_frame_read_terms_match_solve_route(pt):
    # qfi_general reads the Wigner information off the Williamson frame;
    # gaussian_distribution_fisher and 2 dd^T Gamma^-1 dd are the
    # linear-solve references.  Both routes carry rounding of order
    # eps cond(Gamma) (3.6e-11 on phase_squeezed r = 3), hence the
    # conditioning term in the bound.
    rtol = 1e-12 + 2 * np.finfo(float).eps * np.linalg.cond(pt.gamma)
    rep = gq.qfi_general(pt)
    reference = gq.gaussian_distribution_fisher(pt.gamma, pt.dgamma, pt.dd)
    assert rep.wigner_fisher == pytest.approx(reference, rel=rtol, abs=0)
    first = 2.0 * float(pt.dd @ np.linalg.solve(pt.gamma, pt.dd))
    assert rep.first_moment_term == pytest.approx(first, rel=1e-12, abs=0)


def _explicit(pt):
    """``pt``'s moments as a point built from arrays, which carries no factor."""
    return gq.GaussianModelPoint(pt.d, pt.gamma, pt.dd, pt.dgamma)


_PHASE_POINT = gq.builtin_family("phase_squeezed", {"r": 1.0}).point(0.3)
_DISPLACEMENT_POINT = gq.builtin_family("displacement").point(0.5)


@pytest.mark.parametrize(
    "pt,counts",
    [
        (random_model_point(3, seed=11), (1, 1, 0)),
        (random_model_point(3, seed=12, with_first_moments=False), (1, 1, 0)),
        (random_isothermal_point(4, seed=13), (1, 1, 0)),
        (_PHASE_POINT, (0, 0, 0)),
        (_DISPLACEMENT_POINT, (0, 0, 0)),
        (_explicit(_PHASE_POINT), (1, 1, 0)),
        (_explicit(_DISPLACEMENT_POINT), (1, 1, 0)),
    ],
    ids=["mixed-dd", "mixed-static", "pure", "phase_squeezed", "displacement",
         "phase_squeezed-explicit", "displacement-explicit"],
)
def test_qfi_general_factorisation_counts(linalg_calls, pt, counts):
    # A built-in family's point reads its frame off its factor: no Cholesky,
    # no eigh; the same moments as arrays take one Williamson factorisation.
    # b = 2 Gamma^-1 dd is read off the frame too: no solve on any point.
    gq.qfi_general(pt)
    assert linalg_calls == dict(zip(("cholesky", "eigh", "solve"), counts))


def _moving(pt, seed):
    """``pt`` with a seeded nonzero ``dd``, built from arrays."""
    dd = np.random.default_rng(seed).standard_normal(pt.dd.size)
    return gq.GaussianModelPoint(pt.d, pt.gamma, dd, pt.dgamma)


@pytest.mark.parametrize(
    "pt, isothermal",
    [(random_model_point(n, seed=70 + n), False) for n in range(2, 8)]
    + [(_moving(random_isothermal_point(n, seed=80 + n, nu=nu), 90 + n), True)
       for n in (1, 2, 4) for nu in (1.0, 1.7)]
    + [(_DISPLACEMENT_POINT, True), (_explicit(_DISPLACEMENT_POINT), True)],
)
def test_every_reader_of_the_first_moment_term_gives_one_float(pt, isothermal):
    # qfi_general, wigner_fisher and qfi_isothermal all read ddt = S^-1 dd
    # off the frame through _first_moment, so each forms the same
    # 2 sum ddt^2 / (nu, nu).  wigner_fisher is compared as the sum it forms,
    # as (a + b) - a need not be b in floating point.
    # test_frame_read_terms_match_solve_route holds the term to the LU solve.
    assert np.any(pt.dd)
    first = gq.qfi_general(pt).first_moment_term
    assert first > 0.0
    assert gq.wigner_fisher(pt) == _frame_solve(pt._frame)[3] + first
    chk = gq.check_isothermal(pt)
    assert (chk.is_isothermal and chk.derivative_preserves_nu) == isothermal
    if isothermal:
        assert gq.qfi_isothermal(pt).first_moment_term == first


@pytest.mark.parametrize(
    "pt",
    [gq.builtin_family("two_mode_squeezed_phase", {"r": 0.7}).point(0.4),
     random_model_point(3, seed=5)],
    ids=["factored", "explicit"],
)
def test_qfi_general_does_not_form_the_lab_sld(pt, monkeypatch):
    # The QFI is read off the frame, tr[Xt Yt] / 2: the lab L = S^-T Yt S^-1
    # is formed only by sld_coefficients.
    expected = gq.qfi_general(pt)

    def refuse(point):
        raise AssertionError("qfi_general formed the lab SLD")

    monkeypatch.setattr(gq.estimation, "sld_coefficients", refuse)
    assert gq.qfi_general(pt) == expected


def _heated_point(gamma_diag, heating_diag):
    zero = np.zeros(len(gamma_diag))
    return gq.GaussianModelPoint(zero, np.diag(gamma_diag), zero, np.diag(heating_diag))


@pytest.mark.parametrize("cold", [1.5, 1.04, 1.0 + 1e-6])
@pytest.mark.parametrize("hot", [1e4, 1e5, 1e6, 1e7])
def test_cold_mode_beside_a_hot_one_keeps_its_qfi(cold, hot):
    # Only vacuum pairs are kernel, whatever the hottest mode: heating the
    # cold mode has the thermal QFI 1 / (nu^2 - 1) (0.8 at nu = 1.5).
    pt = _heated_point([hot, cold, hot, cold], [0.0, 1.0, 0.0, 1.0])
    rep = gq.qfi_general(pt)
    assert rep.qfi == pytest.approx(1.0 / (cold * cold - 1.0), rel=1e-8)
    assert not cli._kernel_overlap(rep, pt)


def test_mode_accepted_below_the_vacuum_reads_as_vacuum():
    # The state rule accepts nu = 1 - 5e-9; beside a mode at 1 + 5e-9 the
    # pair's nu_i nu_j - 1 would vanish, so the sub-vacuum mode reads as 1.
    low, warm = 1.0 - 5e-9, 1.0 + 5e-9
    rep = gq.qfi_general(_heated_point([low, warm, low, warm], [0.0, 1.0, 0.0, 1.0]))
    assert rep.qfi == pytest.approx(1.0 / (warm * warm - 1.0), rel=1e-6)
    assert rep.range_residual == 0.0


@pytest.mark.parametrize("excess", [1e-12, 1e-10])
def test_thermal_just_above_the_vacuum_keeps_its_qfi(excess):
    # The family warns only at theta = 1 (warnings are errors here), so its
    # point and the hand-built one give the same report.
    theta = 1.0 + excess
    family_point = gq.builtin_family("thermal").point(theta)
    for pt in (_heated_point([theta, theta], [1.0, 1.0]), family_point):
        rep = gq.qfi_general(pt)
        assert rep.qfi == pytest.approx(1.0 / (theta * theta - 1.0), rel=1e-9)


def _squeezed6_explicit():
    # phase_squeezed r = 6 at theta = 0.3, as the explicit config of the CLI checks
    gamma = [[148541.05863768855, 45949.133990125076],
             [45949.133990125076, 14213.732787459565]]
    dgamma = [[-91898.26798025015, 134327.32585022898],
              [134327.32585022898, 91898.26798025015]]
    zero = np.zeros(2)
    return gq.GaussianModelPoint(zero, np.array(gamma), zero, np.array(dgamma))


@pytest.mark.parametrize(
    "pt, rtol",
    [
        (_squeezed6_explicit(), 1e-5),
        (gq.builtin_family("phase_squeezed", {"r": 1.0}).point(0.3), 1e-13),
    ],
    ids=["r6-explicit", "r1"],
)
def test_pure_phase_sld_carries_no_kernel_component(pt, rtol):
    # On a pure state the kernel is spanned by Gamma and S w S^T; the SLD of a
    # phase rotation is L = dGamma / 2, with no rounding noise divided by
    # nu^2 - 1 along Gamma, and so c = -tr[L Gamma] / 2 = 0.
    co = gq.sld_coefficients(pt)
    scale = np.abs(co.L).max()
    assert np.abs(co.L - pt.dgamma / 2).max() <= rtol * scale
    assert abs(co.c) <= rtol * scale


@pytest.mark.parametrize("r", [9.0, 12.0])
def test_pure_phase_squeezed_is_exact_under_strong_squeezing(r):
    # The point's factor gives nu = 1 and Xt exactly; factorising the stored
    # Gamma again put eps cond(S)^2 into nu (5.7e-2 off at r = 9, and
    # williamson fails outright at r = 12).
    pt = gq.builtin_family("phase_squeezed", {"r": r}).point(0.3)
    exact = 2.0 * math.sinh(2.0 * r) ** 2
    assert gq.qfi_general(pt).qfi == pytest.approx(exact, rel=1e-12, abs=0)
    best = gq.optimal_homodyne_fisher(gq.isothermal_frame(pt))
    assert best == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("name, params, theta", BUILTIN_POINTS)
def test_factored_and_williamson_routes_agree(name, params, theta, williamson_calls):
    # The same moments as arrays carry no factor and take the williamson
    # route; at r <= 1 both give the same report, verdict and refusal.
    pt = gq.builtin_family(name, params).point(theta)
    arrays = _explicit(pt)
    got = gq.qfi_general(pt)
    assert williamson_calls[0] == 0
    want = gq.qfi_general(arrays)
    assert williamson_calls[0] == 1
    scale = 1e-12 * max(abs(want.qfi), abs(want.wigner_fisher))
    for field in ("qfi", "first_moment_term", "second_moment_term", "wigner_fisher"):
        assert getattr(got, field) == pytest.approx(
            getattr(want, field), rel=1e-12, abs=scale
        ), field
    assert got.method == want.method
    a, b = gq.check_isothermal(pt), gq.check_isothermal(arrays)
    assert (a.is_isothermal, a.derivative_preserves_nu) == (
        b.is_isothermal, b.derivative_preserves_nu)
    assert a.nu == pytest.approx(b.nu, rel=1e-12)
    flags = []
    for point in (pt, arrays):
        try:
            gq.isothermal_frame(point)
            flags.append(None)
        except gq.PreconditionError as exc:
            flags.append(exc.flag)
    assert flags[0] == flags[1]


@pytest.mark.parametrize("r", range(1, 18))
def test_every_reader_is_exact_on_strongly_squeezed_builtin_points(r):
    # Pure phase_squeezed at theta 0.3: every reader of the factored frame
    # gives 2 sinh^2(2r), and the offset of the SLD vanishes.
    pt = gq.builtin_family("phase_squeezed", {"r": float(r)}).point(0.3)
    target = 2.0 * math.sinh(2.0 * r) ** 2
    values = (
        gq.qfi_general(pt).qfi,
        gq.wigner_fisher(pt) / 2,
        gq.qfi_isothermal(pt).qfi,
        gq.optimal_homodyne_fisher(gq.isothermal_frame(pt)),
    )
    for value in values:
        assert value == pytest.approx(target, rel=1e-12, abs=0)
    coeffs = gq.sld_coefficients(pt)
    assert abs(coeffs.c) <= 1e-12 * np.abs(coeffs.L).max()
