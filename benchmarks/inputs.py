"""Seeded input generators owned by the benchmark.

These follow the recipes of the test suite's ``random_model_point`` and
``random_isothermal_point`` but use numpy alone, so neither a refactor of the
tests nor a change to the package's own random helpers can move the
benchmark's inputs.  Every function is deterministic in its seed argument and
returns plain arrays; the package only ever sees what comes out of here.

Conventions match the package: quadratures ordered ``(Q_1..Q_n, P_1..P_n)``,
vacuum covariance equal to the identity.
"""

from __future__ import annotations

import numpy as np


def thermal_diag(nu: np.ndarray) -> np.ndarray:
    """Diagonal covariance ``diag(nu, nu)``."""
    nu = np.asarray(nu, dtype=float)
    return np.diag(np.concatenate([nu, nu]))


def random_orthogonal_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random passive network ``[[c, s], [-s, c]]`` from a unitary ``c - i s``."""
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    Qc, R = np.linalg.qr(Z)
    diag = np.diagonal(R)
    Qc = Qc * (diag / np.abs(diag))[None, :]
    c, s = Qc.real, -Qc.imag
    return np.block([[c, s], [-s, c]])


def random_symplectic(n: int, rng: np.random.Generator, squeeze_cap: float) -> np.ndarray:
    """Euler-form symplectic ``O1 diag(e^z, e^-z) O2`` with ``|z_k| <= squeeze_cap``."""
    O1 = random_orthogonal_symplectic(n, rng)
    O2 = random_orthogonal_symplectic(n, rng)
    z = rng.uniform(-squeeze_cap, squeeze_cap, n)
    return (O1 * np.concatenate([np.exp(z), np.exp(-z)])[None, :]) @ O2


def random_symmetric(m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, m))
    return 0.5 * (X + X.T)


def random_hamiltonian(n: int, seed: int) -> np.ndarray:
    """Symmetric matrix anticommuting with the symplectic form, ``[[A, B], [B, -A]]``."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    return np.block([[A, B], [B, -A]])


def random_model_point(
    n: int, seed: int, nu_min: float = 1.2, nu_max: float = 3.0
) -> dict[str, np.ndarray]:
    """Generic mixed point: ``nu`` in ``[nu_min, nu_max]``, moving first moments.

    With ``nu_min > 1`` the superoperator has no kernel.
    """
    rng = np.random.default_rng(seed)
    S = random_symplectic(n, rng, squeeze_cap=1.0)
    nu = np.sort(rng.uniform(nu_min, nu_max, n))[::-1]
    gamma = S @ thermal_diag(nu) @ S.T
    rng = np.random.default_rng(seed + 1)
    return {
        "d": rng.standard_normal(2 * n),
        "gamma": gamma,
        "dd": rng.standard_normal(2 * n),
        "dgamma": random_symmetric(2 * n, seed + 2),
    }


def random_isothermal_point(n: int, seed: int, nu: float = 1.0) -> dict[str, np.ndarray]:
    """Equal-temperature point ``gamma = nu S S^T`` with a temperature-preserving derivative.

    At ``nu = 1`` the state is pure and every parity-+ block of the
    superoperator is kernel.  First moments are static.
    """
    rng = np.random.default_rng(seed)
    S = random_symplectic(n, rng, squeeze_cap=0.8)
    gamma = nu * S @ S.T
    dgamma = nu * S @ random_hamiltonian(n, seed + 17) @ S.T
    return {
        "d": np.zeros(2 * n),
        "gamma": gamma,
        "dd": np.zeros(2 * n),
        "dgamma": 0.5 * (dgamma + dgamma.T),
    }
