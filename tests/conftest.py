"""Shared seeded generators for randomised sweeps, and shared fixtures.

Everything here is deterministic given the seed argument, so failures
reproduce exactly.
"""

import sys

import numpy as np
import pytest

from gaussqfi import (
    GaussianModelPoint,
    random_orthogonal_symplectic,
    random_symplectic,
)


def thermal_diag(nu):
    """Diagonal covariance ``diag(nu, nu)`` in (Q.., P..) ordering."""
    nu = np.asarray(nu, dtype=float)
    return np.diag(np.concatenate([nu, nu]))


def random_state(n, seed, nu_min=1.0, nu_max=3.0, squeeze_cap=1.0):
    """Random covariance with a generic (squeezing) Williamson frame.

    Returns ``(gamma, S, nu)`` with ``nu`` descending in [nu_min, nu_max].
    """
    rng = np.random.default_rng(seed)
    S = random_symplectic(n, seed=rng, squeeze_cap=squeeze_cap)
    nu = np.sort(rng.uniform(nu_min, nu_max, n))[::-1]
    return S @ thermal_diag(nu) @ S.T, S, nu


def random_passive_state(n, seed, pure_modes=0, nu_max=3.0):
    """Random covariance whose Williamson frame is orthogonal (passive).

    ``pure_modes`` of the ``n`` modes sit exactly at the vacuum temperature;
    the rest are drawn from [1.2, nu_max] (bounded away from purity so kernel
    bookkeeping is unambiguous).
    """
    rng = np.random.default_rng(seed)
    O = random_orthogonal_symplectic(n, rng)
    nu = rng.uniform(1.2, nu_max, n)
    nu[:pure_modes] = 1.0
    nu = np.sort(nu)[::-1]
    return O @ thermal_diag(nu) @ O.T, O, nu


def random_symmetric(m, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, m))
    return scale * 0.5 * (X + X.T)


def random_hamiltonian(n, seed, scale=1.0):
    """Symmetric matrix anticommuting with the symplectic form: [[A,B],[B,-A]]."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    return scale * np.block([[A, B], [B, -A]])


def random_model_point(n, seed, nu_min=1.2, nu_max=3.0, with_first_moments=True):
    """Generic nonsingular model point with random derivatives."""
    gamma, _, _ = random_state(n, seed, nu_min=nu_min, nu_max=nu_max)
    rng = np.random.default_rng(seed + 1)
    dgamma = random_symmetric(2 * n, seed + 2)
    if with_first_moments:
        d = rng.standard_normal(2 * n)
        dd = rng.standard_normal(2 * n)
    else:
        d = np.zeros(2 * n)
        dd = np.zeros(2 * n)
    return GaussianModelPoint(d=d, gamma=gamma, dd=dd, dgamma=dgamma)


def random_isothermal_point(n, seed, nu=1.0):
    """Equal-temperature point whose derivative preserves the temperature.

    ``gamma = nu S S^T`` has all symplectic eigenvalues equal to ``nu``, and
    the derivative is a Hamiltonian direction in the same frame, so both
    equal-temperature gates hold; first moments are static.
    """
    rng = np.random.default_rng(seed)
    S = random_symplectic(n, seed=rng, squeeze_cap=0.8)
    gamma = nu * S @ S.T
    dgamma = nu * S @ random_hamiltonian(n, seed + 17) @ S.T
    dgamma = 0.5 * (dgamma + dgamma.T)
    return GaussianModelPoint(
        d=np.zeros(2 * n), gamma=gamma, dd=np.zeros(2 * n), dgamma=dgamma
    )


# Every built-in family, at three theta each, with r <= 1.
BUILTIN_CASES = [
    ("displacement", {}, (-0.8, 0.0, 1.3)),
    ("thermal", {}, (1.2, 1.7, 3.5)),
    ("squeezing", {"nu": 1.5}, (-0.7, 0.1, 0.9)),
    ("phase_squeezed", {"r": 1.0}, (-0.4, 0.3, 2.0)),
    ("phase_squeezed", {"r": 0.8, "nu": 1.3}, (0.0, 0.7, 2.9)),
    ("two_mode_squeezed_phase", {"r": 0.6}, (0.0, 0.4, 4.0)),
]
BUILTIN_POINTS = [  # (name, params, theta), one per point
    pytest.param(name, params, theta, id=f"{name}-{'-'.join(map(str, params.values()))}-{theta}")
    for name, params, thetas in BUILTIN_CASES
    for theta in thetas
]


def explicit_doc(point):
    """The model document ``{"explicit": ...}`` holding ``point``'s arrays."""
    arrays = {"d": point.d, "Gamma": point.gamma, "dd": point.dd, "dGamma": point.dgamma}
    return {"explicit": {"n": point.n, **{k: v.tolist() for k, v in arrays.items()}}}


PURE_THREE_MODE = {  # a two-mode squeezed vacuum (e^{2r} = 1.25) on modes 1, 2 and the
    # vacuum on mode 3, mixed by a 3/5 : 4/5 beam splitter on modes 2, 3 and
    # displaced; the tangent rotates the phase of every mode
    "explicit": {
        "n": 3,
        "d": [0.1, 0, -0.1, 0.05, 0, 0.1],
        "Gamma": [
            [1.025, 0.135, 0.18, 0, 0, 0],
            [0.135, 1.009, 0.012, 0, 0, 0],
            [0.18, 0.012, 1.016, 0, 0, 0],
            [0, 0, 0, 1.025, -0.135, -0.18],
            [0, 0, 0, -0.135, 1.009, 0.012],
            [0, 0, 0, -0.18, 0.012, 1.016],
        ],
        "dd": [-0.05, 0, -0.1, 0.1, 0, -0.1],
        "dGamma": [
            [0, 0, 0, 0, 0.27, 0.36],
            [0, 0, 0, 0.27, 0, 0],
            [0, 0, 0, 0.36, 0, 0],
            [0, 0.27, 0.36, 0, 0, 0],
            [0.27, 0, 0, 0, 0, 0],
            [0.36, 0, 0, 0, 0, 0],
        ],
    }
}


@pytest.fixture
def williamson_calls(monkeypatch):
    """Count calls to ``williamson`` from every package module that binds it.

    Returns a one-element list holding the running count.
    """
    import gaussqfi.symplectic as symplectic

    original = symplectic.williamson
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("gaussqfi") and getattr(module, "williamson", None) is original:
            monkeypatch.setattr(module, "williamson", counting)
    return count


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count calls to ``np.linalg.cholesky``, ``eigh`` and ``solve``.

    Returns a dict from name to running count.
    """
    count = {}
    for name in ("cholesky", "eigh", "solve"):
        original = getattr(np.linalg, name)
        count[name] = 0

        def counting(*args, _name=name, _original=original, **kwargs):
            count[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return count
