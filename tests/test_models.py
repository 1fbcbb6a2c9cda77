"""Tests for model points, built-in families, derivative handling, and the
JSON model-config loader."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gaussqfi as gq
from conftest import random_isothermal_point, random_model_point, thermal_diag
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
    with pytest.warns(gq.NearSingularWarning):
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
        _, g = fam.moments(t)
        assert gq.validate_covariance(g).valid


def test_finite_difference_matches_analytic():
    fam = gq.builtin_family("phase_squeezed", {"r": 0.5})
    exact = fam.point(0.3)
    fd = fam.point(0.3, derivative="fd", h=1e-4)
    assert np.abs(fd.dgamma - exact.dgamma).max() < 1e-6
    # Central differences converge at second order: halving h quarters the error.
    e1 = np.abs(fam.point(0.3, derivative="fd", h=1e-3).dgamma - exact.dgamma).max()
    e2 = np.abs(fam.point(0.3, derivative="fd", h=5e-4).dgamma - exact.dgamma).max()
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def test_finite_difference_exact_for_linear_families():
    fd = gq.builtin_family("displacement").point(1.3, derivative="fd", h=0.37)
    assert_allclose(fd.dd, [1.0, 0.0], atol=1e-12)
    fd2 = gq.builtin_family("thermal").point(2.5, derivative="fd", h=1e-3)
    assert_allclose(fd2.dgamma, np.eye(2), atol=1e-9)


def test_family_point_fd_mode():
    fam = gq.builtin_family("phase_squeezed", {"r": 0.4})
    a = fam.point(0.1)
    b = fam.point(0.1, derivative="fd", h=1e-5)
    assert np.abs(a.dgamma - b.dgamma).max() < 1e-8
    with pytest.raises(gq.ConfigError):
        fam.point(0.1, derivative="autodiff")


def test_linear_family_tangent():
    explicit = {"n": 1, "d": [0.0, 0.0], "Gamma": 2 * np.eye(2), "dd": [0.5, 0.0],
                "dGamma": np.eye(2)}
    fam = gq.parse_model_config({"explicit": explicit}).family
    d, g = fam.moments(0.2)
    assert_allclose(d, [0.1, 0.0], atol=1e-12)
    assert_allclose(g, 2.2 * np.eye(2), atol=1e-12)
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
    # The wrapped family is the tangent line through the point.
    _, g = cfg.family.moments(0.1)
    assert_allclose(g, 2.1 * np.eye(2), atol=1e-12)


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


def test_check_isothermal_skips_factorisation_off_isothermal(williamson_calls):
    pt = random_model_point(2, seed=5)  # spread spectrum
    assert not gq.check_isothermal(pt).is_isothermal
    assert williamson_calls[0] == 0
