"""One-parameter Gaussian models: built-in families, derivatives, gates.

A *model point* bundles the first and second moments of a Gaussian state at a
parameter value together with their derivatives: ``(d, Gamma, dd, dGamma)``.
Everything downstream (SLD, Fisher informations, measurement design) consumes
model points, so external models can be supplied either through a built-in
family, or as explicit arrays in a config document.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .exceptions import ConfigError, NearSingularWarning, PreconditionError
from .symplectic import is_symplectic, symplectic_form, validate_covariance

_ISOTHERMAL_TOL = 1e-8  # gate tolerance of check_isothermal and qfi_isothermal

__all__ = [
    "GaussianModelPoint",
    "ModelFamily",
    "builtin_family",
    "IsothermalCheck",
    "check_isothermal",
    "ModelConfig",
    "parse_model_config",
    "load_model_config",
]


@dataclass(frozen=True)
class GaussianModelPoint:
    """Moments and moment derivatives of a Gaussian model at one parameter value.

    Attributes:
        d: first moments, length 2n, ordering (Q.., P..).
        gamma: covariance matrix, 2n x 2n, vacuum-normalised.
        dd: parameter derivative of ``d``.
        dgamma: parameter derivative of ``gamma`` (symmetric).
    """

    d: np.ndarray
    gamma: np.ndarray
    dd: np.ndarray
    dgamma: np.ndarray

    def __post_init__(self):
        for name in ("d", "gamma", "dd", "dgamma"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        m = self.d.size
        if self.d.ndim != 1 or m % 2:
            raise ConfigError(f"d must have even length, got shape {self.d.shape}")
        if self.gamma.shape != (m, m):
            raise ConfigError(
                f"gamma shape {self.gamma.shape} inconsistent with d length {m}"
            )
        if self.dd.shape != (m,):
            raise ConfigError(f"dd shape {self.dd.shape} inconsistent with d length {m}")
        if self.dgamma.shape != (m, m):
            raise ConfigError(
                f"dgamma shape {self.dgamma.shape} inconsistent with d length {m}"
            )
        for name in ("d", "gamma", "dd", "dgamma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} contains non-finite entries")

    @property
    def n(self) -> int:
        return self.d.size // 2


@dataclass
class ModelFamily:
    """A one-parameter family ``theta -> (d(theta), Gamma(theta))``.

    Attributes:
        name: family label (appears in CLI output).
        n: number of modes.
        moment_fn: callable ``theta -> (d, gamma)``.
        derivative_fn: optional callable ``theta -> (dd, dgamma)``; when
            absent, :meth:`point` falls back to central finite differences.
    """

    name: str
    n: int
    moment_fn: Callable[[float], tuple[np.ndarray, np.ndarray]]
    derivative_fn: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None

    def moments(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        d, gamma = self.moment_fn(theta)
        return np.asarray(d, dtype=float), np.asarray(gamma, dtype=float)

    def point(
        self, theta: float, derivative: str = "analytic", h: float | None = None
    ) -> GaussianModelPoint:
        """Evaluate the family at ``theta``.

        Args:
            theta: parameter value.
            derivative: ``"analytic"`` (uses the family's closed-form
                derivative when available, else falls back to finite
                differences) or ``"fd"`` (forces central differences).
            h: finite-difference step; default ``1e-5 * max(1, |theta|)``.

        ``dgamma`` is stored symmetrised on either route.
        """
        if derivative not in ("analytic", "fd"):
            raise ConfigError(f"derivative must be 'analytic' or 'fd', got {derivative!r}")
        d, gamma = self.moments(theta)
        if derivative == "analytic" and self.derivative_fn is not None:
            dd, dgamma = self.derivative_fn(theta)
        else:
            h = 1e-5 * max(1.0, abs(theta)) if h is None else h
            if h <= 0:
                raise ConfigError(f"finite-difference step must be positive, got {h}")
            (dp, gp), (dm, gm) = self.moments(theta + h), self.moments(theta - h)
            dd, dgamma = (dp - dm) / (2 * h), (gp - gm) / (2 * h)
        dgamma = np.asarray(dgamma, dtype=float)
        return GaussianModelPoint(
            d=d, gamma=gamma, dd=np.asarray(dd, dtype=float), dgamma=0.5 * (dgamma + dgamma.T)
        )


def _linear_family(point: GaussianModelPoint) -> ModelFamily:
    """Affine family through ``point``: ``Gamma(t) = Gamma + t dGamma`` etc.

    Lets derivative-only consumers (e.g. the number-basis oracle, which needs
    states at ``theta +/- h``) work with explicitly supplied model points.
    The point sits at ``t = 0``.
    """

    def mom(t: float):
        return point.d + t * point.dd, point.gamma + t * point.dgamma

    def der(_t: float):
        return point.dd, point.dgamma

    return ModelFamily(name="explicit", n=point.n, moment_fn=mom, derivative_fn=der)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])  # d/dtheta of _rot2 at 0, i.e. _rot2' = J r


def _family_displacement(params: dict) -> ModelFamily:
    _family_params(params, "displacement")

    def mom(theta: float):
        return np.array([theta, 0.0]), np.eye(2)

    def der(_theta: float):
        return np.array([1.0, 0.0]), np.zeros((2, 2))

    return ModelFamily("displacement", 1, mom, der)


def _family_thermal(params: dict) -> ModelFamily:
    _family_params(params, "thermal")

    def mom(theta: float):
        if theta < 1.0:
            raise ConfigError(f"thermal family requires theta >= 1, got {theta}")
        if theta <= 1.0 + 1e-12:
            warnings.warn(
                "thermal family at theta = 1 is a pure state; the Stein route "
                "and 1/(nu^2 - 1) scaling are singular here",
                NearSingularWarning,
                stacklevel=2,
            )
        return np.zeros(2), theta * np.eye(2)

    def der(_theta: float):
        return np.zeros(2), np.eye(2)

    return ModelFamily("thermal", 1, mom, der)


def _squeeze_diag(r: float) -> np.ndarray:
    return np.diag([math.exp(2 * r), math.exp(-2 * r)])


def _family_squeezing(params: dict) -> ModelFamily:
    (nu,) = _family_params(params, "squeezing", nu=1.0)

    def mom(theta: float):
        return np.zeros(2), nu * _squeeze_diag(theta)

    def der(theta: float):
        return np.zeros(2), nu * np.diag(
            [2 * math.exp(2 * theta), -2 * math.exp(-2 * theta)]
        )

    return ModelFamily("squeezing", 1, mom, der)


def _family_phase_squeezed(params: dict) -> ModelFamily:
    r, nu = _family_params(params, "phase_squeezed", r=None, nu=1.0)
    Z = nu * _squeeze_diag(r)

    def mom(theta: float):
        R = _rot2(theta)
        return np.zeros(2), R @ Z @ R.T

    def der(theta: float):
        _, g = mom(theta)
        return np.zeros(2), _J2 @ g - g @ _J2

    return ModelFamily("phase_squeezed", 1, mom, der)


def _family_two_mode_squeezed_phase(params: dict) -> ModelFamily:
    (r,) = _family_params(params, "two_mode_squeezed_phase", r=None)
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    base = np.zeros((4, 4))
    base[:2, :2] = [[ch, sh], [sh, ch]]
    base[2:, 2:] = [[ch, -sh], [-sh, ch]]
    # phase rotation on mode 1 only: generator of (Q1, P1) rotation
    J1 = np.zeros((4, 4))
    J1[0, 2], J1[2, 0] = -1.0, 1.0

    def mom(theta: float):
        c, s = math.cos(theta), math.sin(theta)
        M = np.eye(4)
        M[0, 0] = M[2, 2] = c
        M[0, 2], M[2, 0] = -s, s
        return np.zeros(4), M @ base @ M.T

    def der(theta: float):
        _, g = mom(theta)
        return np.zeros(4), J1 @ g + g @ J1.T

    return ModelFamily("two_mode_squeezed_phase", 2, mom, der)


def _reject_unknown(doc, allowed: set, where: str, required: set = frozenset()) -> None:
    """Require ``doc`` to be an object with keys in ``allowed``, ``required`` among them."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {doc!r}")
    for problem, keys in (("unknown", set(doc) - allowed), ("missing", required - set(doc))):
        if keys:
            raise ConfigError(f"{where}: {problem} key(s) {sorted(keys)}")


def _is_finite_number(value) -> bool:
    """A finite real number as JSON writes it: no bool, no string, no null."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _number(
    doc: dict, key: str, where: str, default: float | None = None, minimum: float = -math.inf
) -> float:
    """``doc[key]`` as a finite float ``>= minimum``; ``default`` when absent,
    and absent is an error when there is no default."""
    if key not in doc:
        if default is None:
            raise ConfigError(f"{where}: missing key {key!r}")
        return default
    value = doc[key]
    if not _is_finite_number(value):
        raise ConfigError(f"{where}: {key!r} must be a finite number, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where}: {key!r} must be >= {minimum:g}, got {value!r}")
    return float(value)


def _family_params(params: dict, name: str, **defaults: float | None) -> list[float]:
    """The values of the named parameters, in order; ``None`` marks a required
    one, and ``nu`` (a symplectic eigenvalue) must be at least 1."""
    where = f"family {name!r} params"
    _reject_unknown(params, set(defaults), where)
    return [
        _number(params, key, where, default, 1.0 if key == "nu" else -math.inf)
        for key, default in defaults.items()
    ]


_BUILTIN_FAMILIES = {
    "displacement": _family_displacement,
    "thermal": _family_thermal,
    "squeezing": _family_squeezing,
    "phase_squeezed": _family_phase_squeezed,
    "two_mode_squeezed_phase": _family_two_mode_squeezed_phase,
}


def builtin_family(name: str, params: dict | None = None) -> ModelFamily:
    """Instantiate a built-in family by name.

    Available: ``displacement`` (shift of Q on vacuum), ``thermal``
    (temperature as parameter), ``squeezing`` (squeeze strength),
    ``phase_squeezed`` (phase of a squeezed state, extra ``r``, ``nu``),
    ``two_mode_squeezed_phase`` (phase on one arm of a two-mode squeezed
    state, extra ``r``).
    """
    if not isinstance(name, str) or name not in _BUILTIN_FAMILIES:
        raise ConfigError(
            f"unknown family {name!r}; available: {sorted(_BUILTIN_FAMILIES)}"
        )
    return _BUILTIN_FAMILIES[name]({} if params is None else params)


# ---------------------------------------------------------------------------
# isothermal classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsothermalCheck:
    """Result of :func:`check_isothermal`.

    ``is_isothermal``: all symplectic eigenvalues equal ``nu``, the geometric
    mean of the eigenvalues of ``Gamma``.  ``derivative_preserves_nu``: the
    derivative ``W = Si dGamma Si`` in the frame ``Si = (Gamma / nu)^(-1/2)``
    anticommutes with the symplectic form, i.e. the parameter moves the state
    along a symplectic orbit without changing its temperature.  ``nu`` is NaN
    when not isothermal.
    """

    is_isothermal: bool
    nu: float
    derivative_preserves_nu: bool


def _isothermal_gate(
    point: GaussianModelPoint, tol: float
) -> tuple[IsothermalCheck, np.ndarray | None, np.ndarray | None]:
    """The equal-temperature gates, plus the frame they computed.

    One ``eigh(Gamma)``, no Williamson factorisation.  ``det Gamma = prod
    nu_k^2``, so an isothermal point has ``nu`` = the geometric mean of the
    eigenvalues, and ``Si = (Gamma / nu)^(-1/2)`` is symplectic iff the point
    is isothermal (then ``Si Gamma Si = nu I``).  The test on ``|Si w Si - w|``
    scales with ``|Si|^2``, as its rounding does.

    Returns:
        ``(check, Si, W)``; ``Si`` and ``W`` are None when not isothermal.
    """
    w = symplectic_form(point.n)
    ev, V = np.linalg.eigh(point.gamma)
    if ev[0] <= 0:
        raise ValueError(f"gamma is not positive definite (min eigenvalue {ev[0]:.3e})")
    nu = float(np.exp(np.mean(np.log(ev))))
    Si = (V * np.sqrt(nu / ev)) @ V.T
    if not is_symplectic(Si, tol * nu / ev[0]):
        return IsothermalCheck(False, math.nan, False), None, None
    W = Si @ point.dgamma @ Si
    ham_dev = np.abs(W @ w + w @ W).max()
    preserves = bool(ham_dev <= tol * (1.0 + np.abs(W).max()))
    return IsothermalCheck(True, nu, preserves), Si, W


def check_isothermal(point: GaussianModelPoint) -> IsothermalCheck:
    """Classify a model point for the equal-temperature fast paths (tol 1e-8)."""
    return _isothermal_gate(point, _ISOTHERMAL_TOL)[0]


def _require_isothermal(
    point: GaussianModelPoint, tol: float
) -> tuple[IsothermalCheck, np.ndarray, np.ndarray]:
    """:func:`_isothermal_gate`, raising when either gate fails.

    Raises:
        PreconditionError: flag ``"is_isothermal"``, checked first, or
            ``"derivative_preserves_nu"``.
    """
    chk, Si, W = _isothermal_gate(point, tol)
    if not chk.is_isothermal:
        raise PreconditionError("is_isothermal", "symplectic spectrum is not degenerate")
    if not chk.derivative_preserves_nu:
        raise PreconditionError(
            "derivative_preserves_nu", "the derivative changes the temperature"
        )
    return chk, Si, W


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    """A parsed model document: the evaluated point plus family context."""

    point: GaussianModelPoint
    family: ModelFamily
    theta: float
    label: str


_CONFIG_TOL = 1e-8  # explicit models: asymmetry of Gamma and dGamma, and nu_min >= 1 - tol
_EXPLICIT_KEYS = {"n", "d", "Gamma", "dd", "dGamma"}


def _explicit_array(body: dict, key: str) -> np.ndarray:
    """``body[key]`` as a float array; every entry must be a finite JSON number."""
    try:
        entries = np.array(body[key], dtype=object)
    except ValueError as exc:
        raise ConfigError(f"explicit model: {key!r} is malformed ({exc})") from exc
    if not all(_is_finite_number(x) for x in entries.flat):
        raise ConfigError(f"explicit model: {key!r} must hold finite numbers only")
    return entries.astype(float)


def _parse_explicit(doc: dict) -> ModelConfig:
    _reject_unknown(doc, {"explicit"}, "model config")
    body = doc["explicit"]
    _reject_unknown(body, _EXPLICIT_KEYS, "explicit model", required=_EXPLICIT_KEYS)
    n = body["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError(f"explicit model: 'n' must be a positive integer, got {n!r}")
    point = GaussianModelPoint(
        *(_explicit_array(body, key) for key in ("d", "Gamma", "dd", "dGamma"))
    )
    if point.n != n:
        raise ConfigError(
            f"explicit model: declares n = {n} but arrays describe {point.n} mode(s)"
        )
    symmetric = {}
    for key, m in (("Gamma", point.gamma), ("dGamma", point.dgamma)):
        asym = float(np.abs(m - m.T).max())
        if asym > _CONFIG_TOL:
            raise ConfigError(f"explicit model: {key!r} is not symmetric (asymmetry {asym:.3g})")
        symmetric[key.lower()] = 0.5 * (m + m.T)
    point = replace(point, **symmetric)
    check = validate_covariance(point.gamma, tol=_CONFIG_TOL)
    if not check.valid:
        raise ConfigError(
            f"explicit model: 'Gamma' is not an admissible covariance matrix "
            f"(nu_min = {check.nu_min:.6g})"
        )
    return ModelConfig(point=point, family=_linear_family(point), theta=0.0, label="explicit")


def parse_model_config(doc: dict) -> ModelConfig:
    """Build a model from a config document.

    Two schemas are accepted::

        {"family": "thermal", "params": {...}, "theta": 2.0}

        {"explicit": {"n": 1, "d": [...], "Gamma": [[...]],
                      "dd": [...], "dGamma": [[...]]}}

    Unknown keys raise ``ConfigError``, as does any ``theta``, family
    parameter or array entry that is not a finite JSON number (bools and
    strings are not), an ``n`` that is not a positive integer, and arrays of
    the wrong shape.  Explicit ``Gamma`` and ``dGamma`` may be asymmetric by
    at most 1e-8 and are stored symmetrised; ``Gamma`` must be admissible.
    """
    if isinstance(doc, dict) and "explicit" in doc:
        return _parse_explicit(doc)
    _reject_unknown(
        doc, {"family", "params", "theta"}, "model config", required={"family", "theta"}
    )
    family = builtin_family(doc["family"], doc.get("params", {}))
    theta = _number(doc, "theta", "model config")
    label = f"{family.name}(theta={theta:g})"
    return ModelConfig(point=family.point(theta), family=family, theta=theta, label=label)


def load_model_config(path: str) -> ModelConfig:
    """Read and parse a JSON model document from ``path``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_model_config(doc)
