"""One symmetry rule for every entry point that reads Gamma or dGamma.

A matrix is accepted when it is finite with
``max|M - M^T| <= 1e-8 (1 + max|M|)`` and is then read as its symmetric
part.  Each case here is handed to every entry point, which must all accept
it or all refuse it: a model point and the config reader with
``ConfigError``, the raw-matrix functions with ``ValueError``, and
``validate_covariance`` with ``valid = False``.
"""

import warnings

import numpy as np
import pytest

import gaussqfi as gq

_RULE = 1e-8
# The entry points that read dGamma; the rest read Gamma only.
_READS_DGAMMA = ("point", "config", "stein_series_solve", "qfi_general", "check_isothermal",
                 "build_state")


def _state(modes, seed):
    """A covariance matrix with the given ``(nu, e^{2z})`` per mode, in a
    seeded passive frame, exactly symmetric."""
    nu = np.array([m[0] for m in modes], dtype=float)
    sq = np.array([m[1] for m in modes], dtype=float)
    O = gq.random_orthogonal_symplectic(len(modes), seed)
    gamma = (O * np.concatenate([nu * sq, nu / sq])) @ O.T
    return 0.5 * (gamma + gamma.T)


def _skewed(M, factor):
    """``M`` with one off-diagonal entry moved by ``factor`` times the rule's bound."""
    M = M.copy()
    M[0, 1] += factor * _RULE * (1.0 + np.abs(M).max())
    return M


def _doc(gamma, dgamma):
    m = gamma.shape[0]
    zero = [0.0] * m
    body = {"n": m // 2, "d": zero, "Gamma": gamma.tolist(), "dd": zero,
            "dGamma": np.asarray(dgamma).tolist()}
    return {"explicit": body}


def _verdicts(gamma, dgamma):
    """``{entry point: passed the rule?}``; a refusal must come from the rule.

    A later gate of the entry point itself also counts as passing: the Stein
    series, for one, stops with ``ConvergenceError`` on the strongly squeezed
    states here, where ``Gamma^-1 w`` is far from normal.
    """
    out = {}

    def run(name, fn, refusal):
        try:
            fn()
        except refusal as exc:
            assert "not symmetric" in str(exc) or "finite" in str(exc), (name, exc)
            out[name] = False
        except gq.ConvergenceError:
            out[name] = True
        else:
            out[name] = True

    def point():
        return gq.GaussianModelPoint(np.zeros(len(gamma)), gamma, np.zeros(len(gamma)), dgamma)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        run("point", point, gq.ConfigError)
        run("config", lambda: gq.parse_model_config(_doc(gamma, dgamma)), gq.ConfigError)
        run("williamson", lambda: gq.williamson(gamma), ValueError)
        run("symplectic_eigenvalues", lambda: gq.symplectic_eigenvalues(gamma), ValueError)
        run("stein_series_solve", lambda: gq.stein_series_solve(gamma, dgamma), ValueError)
        run("qfi_general", lambda: gq.qfi_general(point()), gq.ConfigError)
        run("check_isothermal", lambda: gq.check_isothermal(point()), gq.ConfigError)
        run("build_state", lambda: gq.build_state(point(), 8, tail_bound=np.inf),
            gq.ConfigError)
        out["validate_covariance"] = gq.validate_covariance(gamma).valid
    return out


# (nu, e^{2z}) per mode; the diagonal entries nu e^{+-2z} span 1e-4 to 1e6
_MODES = [
    [(1.5, 1.5e4)],
    [(3.0, 1e4)],
    [(1e3, 1e3)],
    [(2.0, 1.0)],
    [(1.5, 1.5e4), (40.0, 25.0)],
    [(1e3, 1e3), (1.5, 1.0)],
    [(10.0, 1e-3), (2.0, 0.5)],
]


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("modes", _MODES, ids=lambda m: "-".join(f"{a:g}x{b:g}" for a, b in m))
@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)], ids=["below", "above"])
def test_every_entry_point_gives_one_verdict(modes, seed, factor, accepted):
    gamma = _state(modes, seed)
    dgamma = 0.5 * _state([(1.0, np.sqrt(b)) for _, b in modes], seed + 1)
    verdicts = _verdicts(_skewed(gamma, factor), dgamma)
    assert verdicts == dict.fromkeys(verdicts, accepted)


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)], ids=["below", "above"])
def test_dgamma_is_held_to_the_same_rule(factor, accepted):
    gamma = _state([(1.5, 40.0), (2.0, 1.0)], 5)
    dgamma = _skewed(_state([(1.0, 1e3), (3.0, 1.0)], 6), factor)
    verdicts = _verdicts(gamma, dgamma)
    assert all(verdicts[name] is accepted for name in _READS_DGAMMA), verdicts


@pytest.mark.parametrize(
    "gamma, accepted",
    [
        ([[2.0, 1e-9], [0.0, 2.0]], True),
        ([[3e4, 5e-7], [0.0, 3e-4]], True),
        ([[2.0, 1e-6], [0.0, 2.0]], False),
    ],
    ids=["2-asym-1e-9", "3e4-asym-5e-7", "2-asym-1e-6"],
)
def test_fixed_cases(gamma, accepted):
    gamma = np.array(gamma)
    dgamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    verdicts = _verdicts(gamma, dgamma)
    assert verdicts == dict.fromkeys(verdicts, accepted)
    if accepted:
        pt = gq.GaussianModelPoint(np.zeros(2), gamma, np.zeros(2), dgamma)
        assert np.array_equal(pt.gamma, pt.gamma.T)
        if gamma[0, 0] == 2.0:
            assert gq.qfi_general(pt).qfi == pytest.approx(0.2, rel=1e-12)
    else:
        assert gq.validate_covariance(gamma).asymmetry == pytest.approx(1e-6, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["gamma", "dgamma"])
def test_non_finite_moments_are_refused_at_once(bad, where):
    gamma = 2.0 * np.eye(2)
    dgamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    (gamma if where == "gamma" else dgamma)[1, 1] = bad
    verdicts = _verdicts(gamma, dgamma)
    if where == "dgamma":
        assert not any(verdicts[name] for name in _READS_DGAMMA)
        return
    assert verdicts == dict.fromkeys(verdicts, False)
    chk = gq.validate_covariance(gamma)
    assert np.isnan(chk.nu_min) and chk.asymmetry == np.inf
    with pytest.raises(ValueError, match="non-finite"):
        gq.dgamma_spectrum(gamma)
