"""Tests for model points, built-in families, derivative handling, and the
JSON model-config loader."""

import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gaussqfi as gq
from conftest import BUILTIN_POINTS, random_isothermal_point, thermal_diag
from gaussqfi import cli

_EXPLICIT = {
    "n": 1,
    "d": [0.0, 0.0],
    "Gamma": [[1.0, 0.0], [0.0, 1.0]],
    "dd": [0.0, 0.0],
    "dGamma": [[1.0, 0.0], [0.0, 1.0]],
}


def test_displacement_family():
    fam = gq.builtin_family("displacement")
    pt = fam.point(0.3)
    assert pt.n == 1
    assert_allclose(pt.d, [0.3, 0.0])
    assert_allclose(pt.gamma, np.eye(2))
    assert_allclose(pt.dd, [1.0, 0.0])
    assert_allclose(pt.dgamma, np.zeros((2, 2)))


def test_thermal_family_domain():
    fam = gq.builtin_family("thermal")
    pt = fam.point(2.0)
    assert_allclose(pt.gamma, 2 * np.eye(2))
    assert_allclose(pt.dgamma, np.eye(2))
    with pytest.raises(gq.ConfigError):
        fam.point(0.7)
    with pytest.warns(gq.NearSingularWarning, match="diverges"):
        fam.point(1.0)


def test_squeezing_family():
    fam = gq.builtin_family("squeezing", {"nu": 1.5})
    pt = fam.point(0.4)
    assert_allclose(pt.gamma, 1.5 * np.diag([np.exp(0.8), np.exp(-0.8)]), atol=1e-12)
    assert_allclose(pt.dgamma, 1.5 * np.diag([2 * np.exp(0.8), -2 * np.exp(-0.8)]), atol=1e-12)
    with pytest.raises(gq.ConfigError):
        gq.builtin_family("squeezing", {"nu": 0.5})


def test_phase_squeezed_generator():
    fam = gq.builtin_family("phase_squeezed", {"r": 0.5})
    pt = fam.point(0.0)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(pt.dgamma, 2 * np.sinh(1.0) * sx, atol=1e-12)
    # Away from zero the covariance is the rotated ellipse and stays valid.
    pt2 = fam.point(0.4)
    assert gq.validate_covariance(pt2.gamma).valid
    # Mixed variant scales the whole ellipse.
    mixed = gq.builtin_family("phase_squeezed", {"r": 0.5, "nu": 2.0}).point(0.0)
    assert_allclose(mixed.gamma, 2.0 * pt.gamma, atol=1e-12)


def test_two_mode_squeezed_phase_structure():
    fam = gq.builtin_family("two_mode_squeezed_phase", {"r": 0.6})
    pt = fam.point(0.0)
    assert pt.n == 2
    ch, sh = np.cosh(1.2), np.sinh(1.2)
    assert pt.gamma[0, 1] == pytest.approx(sh, abs=1e-12)
    assert pt.gamma[2, 3] == pytest.approx(-sh, abs=1e-12)
    assert pt.gamma[0, 0] == pytest.approx(ch, abs=1e-12)
    assert_allclose(gq.symplectic_eigenvalues(pt.gamma), [1.0, 1.0], atol=1e-10)
    chk = gq.check_isothermal(pt)
    assert chk.is_isothermal and chk.derivative_preserves_nu


def test_family_parameter_guards():
    with pytest.raises(gq.ConfigError):
        gq.builtin_family("phase_squeezed")  # r is required
    with pytest.raises(gq.ConfigError):
        gq.builtin_family("squeezing", {"bogus": 1.0})
    with pytest.raises(gq.ConfigError):
        gq.builtin_family("no_such_family")


@pytest.mark.parametrize(
    "name,params,thetas",
    [
        ("displacement", {}, np.linspace(-2, 2, 7)),
        ("thermal", {}, np.linspace(1.2, 4, 7)),
        ("squeezing", {"nu": 1.5}, np.linspace(-0.8, 0.8, 7)),
        ("phase_squeezed", {"r": 0.7, "nu": 2.0}, np.linspace(0, np.pi, 7)),
        ("two_mode_squeezed_phase", {"r": 0.6}, np.linspace(0, np.pi, 5)),
    ],
)
def test_families_stay_valid_on_grid(name, params, thetas):
    fam = gq.builtin_family(name, params)
    for t in thetas:
        assert gq.validate_covariance(fam.point(t).gamma).valid


@pytest.mark.parametrize(
    "name, params, theta",
    [
        ("displacement", {}, 0.4),
        ("thermal", {}, 2.5),
        ("squeezing", {"nu": 1.5}, -0.3),
        ("phase_squeezed", {"r": 1.0, "nu": 1.2}, 0.7),
        ("two_mode_squeezed_phase", {"r": 0.6}, 1.1),
    ],
)
def test_point_calls_the_family_function_once(name, params, theta):
    assert [f.name for f in dataclasses.fields(gq.ModelFamily)] == ["name", "fn"]
    fam = gq.builtin_family(name, params)
    calls = []

    def counting(t):
        calls.append(t)
        return fam.fn(t)

    pt = dataclasses.replace(fam, fn=counting).point(theta)
    assert calls == [theta]
    d, gamma, dd, dgamma = fam.fn(theta)
    # The point holds the symmetric parts: R gamma0 R^T of the phase
    # families is symmetric only to ~1e-17.
    for got, want in ((pt.d, d), (pt.dd, dd)):
        assert_array_equal(got, want)
    for got, want in ((pt.gamma, gamma), (pt.dgamma, dgamma)):
        assert_array_equal(got, 0.5 * (want + want.T))


_PURE_EXPLICIT = {  # pure squeezed state, rotating and displaced
    "n": 1,
    "d": [0.0, 0.0],
    "Gamma": [[4.0, 0.0], [0.0, 0.25]],
    "dd": [0.5, -0.2],
    "dGamma": [[0.0, 3.75], [3.75, 0.0]],
}


@pytest.mark.parametrize(
    "doc, thetas",
    [
        ({"family": "displacement"}, (-0.7, 1.3)),
        ({"family": "thermal"}, (1.5, 3.2)),
        ({"family": "squeezing", "params": {"nu": 1.5}}, (-0.8, 0.6)),
        ({"family": "phase_squeezed", "params": {"r": 1.0}}, (0.3, 2.5)),
        ({"family": "two_mode_squeezed_phase", "params": {"r": 0.6}}, (0.4, 2.9)),
        ({"explicit": _PURE_EXPLICIT}, (-0.1, 0.1)),
    ],
    ids=["displacement", "thermal", "squeezing", "phase_squeezed",
         "two_mode_squeezed_phase", "explicit"],
)
def test_derivative_matches_central_difference(doc, thetas):
    cfg = gq.parse_model_config({**doc, "theta": thetas[0]} if "family" in doc else doc)
    fam, h = cfg.family, 1e-5
    for theta in thetas:
        pt, plus, minus = fam.point(theta), fam.point(theta + h), fam.point(theta - h)
        tol = 1e-6 * (1.0 + np.abs(pt.dgamma).max())
        assert np.abs((plus.d - minus.d) / (2 * h) - pt.dd).max() <= tol
        assert np.abs((plus.gamma - minus.gamma) / (2 * h) - pt.dgamma).max() <= tol


def test_linear_family_tangent():
    explicit = {"n": 1, "d": [0.0, 0.0], "Gamma": 2 * np.eye(2), "dd": [0.5, 0.0],
                "dGamma": np.eye(2)}
    fam = gq.parse_model_config({"explicit": explicit}).family
    pt = fam.point(0.2)
    assert_allclose(pt.d, [0.1, 0.0], atol=1e-12)
    # Gamma + t dGamma + t^2 kappa I with kappa = |dGamma|_2^2 |Gamma^-1|_2 = 1/2
    assert_allclose(pt.gamma, 2.22 * np.eye(2), atol=1e-12)
    back = fam.point(0.0)
    assert_allclose(back.dgamma, np.eye(2))
    assert_allclose(back.dd, [0.5, 0.0])


def test_check_isothermal_flags():
    pure = gq.builtin_family("phase_squeezed", {"r": 0.8}).point(0.2)
    chk = gq.check_isothermal(pure)
    assert chk.is_isothermal and chk.derivative_preserves_nu
    assert chk.nu == pytest.approx(1.0, abs=1e-9)

    th = gq.builtin_family("thermal").point(2.0)
    chk2 = gq.check_isothermal(th)
    assert chk2.is_isothermal and not chk2.derivative_preserves_nu
    assert chk2.nu == pytest.approx(2.0, abs=1e-10)

    mixed = gq.GaussianModelPoint(
        np.zeros(4), thermal_diag([3.0, 1.0]), np.zeros(4), np.zeros((4, 4))
    )
    chk3 = gq.check_isothermal(mixed)
    assert not chk3.is_isothermal
    assert math.isnan(chk3.nu)


def test_check_isothermal_mode_relabeling_invariance():
    pt = random_isothermal_point(2, seed=9, nu=1.7)
    perm = np.zeros((4, 4))
    perm[0, 1] = perm[1, 0] = perm[2, 3] = perm[3, 2] = 1.0
    swapped = gq.GaussianModelPoint(
        perm @ pt.d, perm @ pt.gamma @ perm.T, perm @ pt.dd, perm @ pt.dgamma @ perm.T
    )
    a = gq.check_isothermal(pt)
    b = gq.check_isothermal(swapped)
    assert (a.is_isothermal, a.derivative_preserves_nu) == (
        b.is_isothermal,
        b.derivative_preserves_nu,
    )
    assert a.nu == pytest.approx(b.nu, abs=1e-10)


def test_model_point_validation():
    with pytest.raises(gq.ConfigError):
        gq.GaussianModelPoint(np.zeros(3), np.eye(3), np.zeros(3), np.eye(3))
    with pytest.raises(gq.ConfigError):
        gq.GaussianModelPoint(np.zeros(2), np.eye(2), np.zeros(2), np.eye(4))
    with pytest.raises(gq.ConfigError):
        gq.GaussianModelPoint(
            np.zeros(2), np.full((2, 2), np.nan), np.zeros(2), np.eye(2)
        )


def test_parse_family_config():
    cfg = gq.parse_model_config({"family": "thermal", "theta": 2.0})
    assert cfg.theta == 2.0
    assert cfg.point.gamma[0, 0] == pytest.approx(2.0)
    assert "thermal" in cfg.label

    cfg2 = gq.parse_model_config(
        {"family": "phase_squeezed", "params": {"r": 1.0}, "theta": 0.0}
    )
    assert cfg2.point.n == 1


def test_parse_explicit_config():
    doc = {
        "explicit": {
            "n": 1,
            "d": [0.0, 0.0],
            "Gamma": [[2.0, 0.0], [0.0, 2.0]],
            "dd": [0.0, 0.0],
            "dGamma": [[1.0, 0.0], [0.0, 1.0]],
        }
    }
    cfg = gq.parse_model_config(doc)
    assert cfg.label == "explicit"
    assert cfg.theta == 0.0
    # The wrapped family is the lifted tangent curve through the point.
    assert_allclose(cfg.family.point(0.1).gamma, 2.105 * np.eye(2), atol=1e-12)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"family": "thermal"},
        {"family": "thermal", "theta": "two"},
        {"family": "thermal", "theta": 2.0, "extra": 1},
        {"family": 7, "theta": 2.0},
        {
            "explicit": {
                "n": 1,
                "d": [0.0, 0.0],
                "Gamma": [[1.0, 0.0], [0.0, 1.0]],
                "dd": [0.0, 0.0],
            }
        },
        {
            "explicit": {
                "n": 2,
                "d": [0.0, 0.0],
                "Gamma": [[1.0, 0.0], [0.0, 1.0]],
                "dd": [0.0, 0.0],
                "dGamma": [[0.0, 0.0], [0.0, 0.0]],
            }
        },
        {
            "explicit": {
                "n": 1,
                "d": [0.0, 0.0],
                "Gamma": [[0.5, 0.0], [0.0, 0.5]],
                "dd": [0.0, 0.0],
                "dGamma": [[0.0, 0.0], [0.0, 0.0]],
            }
        },
        {"family": "phase_squeezed", "params": {"r": None}, "theta": 0.0},
        {"family": "squeezing", "params": {"nu": [1]}, "theta": 0.0},
        {"family": "squeezing", "params": {"nu": "x"}, "theta": 0.0},
        {"family": ["thermal"], "theta": 2.0},
        {"family": "thermal", "theta": 2.0, "h": "abc"},
        {"family": "thermal", "theta": True},
        {"explicit": dict(_EXPLICIT, n=True)},
        {"explicit": dict(_EXPLICIT, dGamma=[[1.0, 0.5], [0.0, 1.0]])},
    ],
)
def test_parse_config_rejections(doc, tmp_path, capsys):
    with pytest.raises(gq.ConfigError):
        gq.parse_model_config(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["qfi", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_config_reads_numbers_as_json_numbers():
    # numpy reals are numbers; their values pass through unchanged.
    for theta in (np.float64(2.5), np.float32(2.5), 2.5):
        assert gq.parse_model_config({"family": "thermal", "theta": theta}).theta == 2.5
    for bad in ("2.5", False, float("nan"), float("inf"), 10**400):
        with pytest.raises(gq.ConfigError, match="'theta' must be a finite number"):
            gq.parse_model_config({"family": "thermal", "theta": bad})
    with pytest.raises(gq.ConfigError, match="'nu' must be >= 1"):
        gq.parse_model_config({"family": "squeezing", "params": {"nu": 0.5}, "theta": 0.0})
    for d in ([0.0, "0"], [0.0, 10**400], [0.0, [0.0]]):
        with pytest.raises(gq.ConfigError, match="must hold finite numbers only"):
            gq.parse_model_config({"explicit": dict(_EXPLICIT, d=d)})
    with pytest.raises(gq.ConfigError, match="malformed"):
        gq.parse_model_config({"explicit": dict(_EXPLICIT, Gamma=[np.eye(2), np.ones((2, 3))])})


def test_explicit_matrices_are_stored_symmetrised():
    asym = [[2.0, 1e-9], [0.0, 2.0]]
    cfg = gq.parse_model_config({"explicit": dict(_EXPLICIT, Gamma=asym, dGamma=asym)})
    sym = 0.5 * (np.array(asym) + np.array(asym).T)
    assert np.array_equal(cfg.point.gamma, sym)
    assert np.array_equal(cfg.point.dgamma, sym)


def test_load_model_config(tmp_path):
    p = tmp_path / "model.json"
    p.write_text('{"family": "thermal", "theta": 2.5}')
    cfg = gq.load_model_config(str(p))
    assert cfg.theta == 2.5

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(gq.ConfigError):
        gq.load_model_config(str(bad))


_READERS = (
    gq.qfi_general,
    gq.sld_coefficients,
    gq.wigner_fisher,
    gq.check_isothermal,
    gq.isothermal_frame,
    gq.qfi_isothermal,
    lambda pt: gq.identity_checks(pt, 20),
)


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
@pytest.mark.parametrize("factored", [True, False], ids=["builtin", "arrays"])
def test_every_reader_shares_the_points_one_frame(williamson_calls, order, factored):
    # A built-in point's frame is its closed-form factor; the same moments as
    # arrays take one Williamson factorisation, whichever reader comes first.
    pt = gq.builtin_family("phase_squeezed", {"r": 0.5}).point(0.3)
    if not factored:
        pt = gq.GaussianModelPoint(pt.d, pt.gamma, pt.dd, pt.dgamma)
    for reader in _READERS[::order]:
        reader(pt)
    assert williamson_calls[0] == (0 if factored else 1)


def test_point_arrays_are_read_only_copies():
    arrays = [np.zeros(2), np.eye(2), np.ones(2), np.zeros((2, 2))]
    pt = gq.GaussianModelPoint(*arrays)
    for name in ("d", "gamma", "dd", "dgamma"):
        with pytest.raises(ValueError):
            getattr(pt, name)[0] = 1.0
    with pytest.raises(ValueError):
        pt.gamma[0, 0] = 1
    for a in arrays:
        assert a.flags.writeable
        a[0] = 1.0  # the caller's arrays stay theirs


@pytest.mark.parametrize("name, params, theta", BUILTIN_POINTS)
def test_builtin_factor_reproduces_the_moments(name, params, theta, williamson_calls):
    # The frame of a built-in point is its closed-form factor: Gamma = S diag(nu, nu) S^T
    # and dGamma = S Xt S^T, with Xt = A N + N A^T + diag(dnu, dnu), against the
    # family's own formulas.
    family = gq.builtin_family(name, params)
    pt = family.point(theta)
    f = pt._frame
    n = pt.n
    w = gq.symplectic_form(n)
    assert np.abs(f.S @ w @ f.S.T - w).max() <= 1e-12
    assert np.abs(f.S_inv @ f.S - np.eye(2 * n)).max() <= 1e-12
    thermal = np.concatenate([f.nu, f.nu])
    for got, want in (((f.S * thermal) @ f.S.T, pt.gamma), (f.S @ f.Xt @ f.S.T, pt.dgamma)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # A = S^-1 dS, against a central difference of the frame's S
    h = 1e-7
    dS = (family.point(theta + h)._frame.S - family.point(theta - h)._frame.S) / (2 * h)
    _, _, A, _ = family.fn.factor(theta)
    assert np.abs(f.S_inv @ dS - A).max() <= 1e-8 * (1.0 + np.abs(A).max())
    assert williamson_calls[0] == 0


def test_a_point_carries_the_factor_only_of_its_own_function(williamson_calls):
    # The closed form travels with the built-in fn: a family rebuilt by
    # dataclasses.replace keeps it, and a family whose fn was swapped takes
    # the factor of the fn it now holds (the r = 1 factor would be wrong for
    # it).  Moments built from arrays carry none and are factorised.
    fam = gq.builtin_family("phase_squeezed", {"r": 1.0})
    half = gq.builtin_family("phase_squeezed", {"r": 0.5})
    swapped = gq.builtin_family("phase_squeezed", {"r": 1.0})
    swapped.fn = half.fn
    for pt in (fam.point(0.3), dataclasses.replace(fam).point(0.3), swapped.point(0.3)):
        gq.qfi_general(pt)
    assert williamson_calls[0] == 0
    for got, want in zip(swapped.point(0.3)._frame, half.point(0.3)._frame):
        assert_array_equal(got, want)
    gq.qfi_general(gq.GaussianModelPoint(*fam.fn(0.3)))
    assert williamson_calls[0] == 1


@pytest.mark.parametrize("r", [9.0, 14.0])
def test_a_renamed_builtin_family_keeps_its_exact_frame(r, williamson_calls):
    # A renamed copy holds the same fn, so its points keep the closed-form
    # frame and 2 sinh^2(2r) exactly; factorised, they are 5.7e-2 (r = 9) and
    # 1.0 (r = 14) off.
    fam = gq.builtin_family("phase_squeezed", {"r": r})
    renamed = dataclasses.replace(fam, name="renamed")
    exact = 2.0 * math.sinh(2.0 * r) ** 2
    assert gq.qfi_general(renamed.point(0.3)).qfi == pytest.approx(exact, rel=1e-12, abs=0)
    # An r = 1 family given the r = 0.5 fn brings the r = 0.5 closed form.
    swapped = gq.builtin_family("phase_squeezed", {"r": 1.0})
    swapped.fn = gq.builtin_family("phase_squeezed", {"r": 0.5}).fn
    exact_half = 2.0 * math.sinh(1.0) ** 2
    assert gq.qfi_general(swapped.point(0.3)).qfi == pytest.approx(exact_half, rel=1e-12, abs=0)
    assert williamson_calls[0] == 0
    # A wrapper of fn, and the same moments as arrays, take one williamson each.
    wrapped = gq.ModelFamily("wrapped", lambda t: fam.fn(t))
    for count, pt in enumerate((wrapped.point(0.3), gq.GaussianModelPoint(*fam.fn(0.3))), 1):
        pt._frame
        assert williamson_calls[0] == count


def test_factor_beyond_double_precision_is_refused(williamson_calls):
    # eps |S|_F^2 = eps (e^2r + e^-2r) reaches 1 near r = 18: S^-1 S = I holds
    # to no digit, and the point is refused before any solve.
    gq.builtin_family("phase_squeezed", {"r": 17.0}).point(0.3)._frame
    assert williamson_calls[0] == 0
    with pytest.raises(FloatingPointError, match="beyond double precision"):
        gq.builtin_family("phase_squeezed", {"r": 20.0}).point(0.3)
