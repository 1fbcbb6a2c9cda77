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
import warnings
from dataclasses import dataclass, field
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


def _default_step(theta: float) -> float:
    return 1e-5 * max(1.0, abs(theta))


@dataclass
class ModelFamily:
    """A one-parameter family ``theta -> (d(theta), Gamma(theta))``.

    Attributes:
        name: family label (appears in CLI output).
        n: number of modes.
        params: fixed family parameters.
        moment_fn: callable ``theta -> (d, gamma)``.
        derivative_fn: optional callable ``theta -> (dd, dgamma)``; when
            absent, :meth:`point` falls back to central finite differences.
    """

    name: str
    n: int
    moment_fn: Callable[[float], tuple[np.ndarray, np.ndarray]]
    derivative_fn: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None
    params: dict = field(default_factory=dict)

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
        """
        if derivative not in ("analytic", "fd"):
            raise ConfigError(f"derivative must be 'analytic' or 'fd', got {derivative!r}")
        if derivative == "analytic" and self.derivative_fn is not None:
            d, gamma = self.moments(theta)
            dd, dgamma = self.derivative_fn(theta)
            dgamma = np.asarray(dgamma, dtype=float)
            return GaussianModelPoint(
                d=d, gamma=gamma, dd=np.asarray(dd, dtype=float),
                dgamma=0.5 * (dgamma + dgamma.T),
            )
        return _finite_difference_point(self, theta, h)


def _finite_difference_point(
    family: ModelFamily, theta: float, h: float | None = None
) -> GaussianModelPoint:
    """Model point with central-difference derivatives, ``dgamma`` symmetrised."""
    if h is None:
        h = _default_step(theta)
    if h <= 0:
        raise ConfigError(f"finite-difference step must be positive, got {h}")
    d0, g0 = family.moments(theta)
    dp, gp = family.moments(theta + h)
    dm, gm = family.moments(theta - h)
    dd = (dp - dm) / (2 * h)
    dgamma = (gp - gm) / (2 * h)
    dgamma = 0.5 * (dgamma + dgamma.T)
    return GaussianModelPoint(d=d0, gamma=g0, dd=dd, dgamma=dgamma)


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
    _reject_unknown(params, set(), "displacement")

    def mom(theta: float):
        return np.array([theta, 0.0]), np.eye(2)

    def der(_theta: float):
        return np.array([1.0, 0.0]), np.zeros((2, 2))

    return ModelFamily("displacement", 1, mom, der, dict(params))


def _family_thermal(params: dict) -> ModelFamily:
    _reject_unknown(params, set(), "thermal")

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

    return ModelFamily("thermal", 1, mom, der, dict(params))


def _squeeze_diag(r: float) -> np.ndarray:
    return np.diag([math.exp(2 * r), math.exp(-2 * r)])


def _family_squeezing(params: dict) -> ModelFamily:
    _reject_unknown(params, {"nu"}, "squeezing")
    nu = float(params.get("nu", 1.0))
    if nu < 1.0:
        raise ConfigError(f"squeezing family requires nu >= 1, got {nu}")

    def mom(theta: float):
        return np.zeros(2), nu * _squeeze_diag(theta)

    def der(theta: float):
        return np.zeros(2), nu * np.diag(
            [2 * math.exp(2 * theta), -2 * math.exp(-2 * theta)]
        )

    return ModelFamily("squeezing", 1, mom, der, {"nu": nu})


def _family_phase_squeezed(params: dict) -> ModelFamily:
    _reject_unknown(params, {"r", "nu"}, "phase_squeezed", required={"r"})
    r = float(params["r"])
    nu = float(params.get("nu", 1.0))
    if nu < 1.0:
        raise ConfigError(f"phase_squeezed family requires nu >= 1, got {nu}")
    Z = nu * _squeeze_diag(r)

    def mom(theta: float):
        R = _rot2(theta)
        return np.zeros(2), R @ Z @ R.T

    def der(theta: float):
        _, g = mom(theta)
        return np.zeros(2), _J2 @ g - g @ _J2

    return ModelFamily("phase_squeezed", 1, mom, der, {"r": r, "nu": nu})


def _family_two_mode_squeezed_phase(params: dict) -> ModelFamily:
    _reject_unknown(params, {"r"}, "two_mode_squeezed_phase", required={"r"})
    r = float(params["r"])
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

    return ModelFamily("two_mode_squeezed_phase", 2, mom, der, {"r": r})


def _reject_unknown(params: dict, allowed: set, name: str, required: set | None = None):
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"unknown parameter(s) {sorted(unknown)} for family {name!r}")
    for key in required or set():
        if key not in params:
            raise ConfigError(f"family {name!r} requires parameter {key!r}")


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
    if name not in _BUILTIN_FAMILIES:
        raise ConfigError(
            f"unknown family {name!r}; available: {sorted(_BUILTIN_FAMILIES)}"
        )
    return _BUILTIN_FAMILIES[name](params or {})


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


def parse_model_config(doc: dict) -> ModelConfig:
    """Build a model from a config document.

    Two schemas are accepted::

        {"family": "thermal", "params": {...}, "theta": 2.0,
         "derivative": "analytic" | "fd", "h": 1e-5}

        {"explicit": {"n": 1, "d": [...], "Gamma": [[...]],
                      "dd": [...], "dGamma": [[...]]}}

    Arrays are row-major nested lists; dimensions are validated strictly.
    """
    if not isinstance(doc, dict):
        raise ConfigError("model config must be a JSON object")
    if "explicit" in doc:
        extra = set(doc) - {"explicit"}
        if extra:
            raise ConfigError(f"unexpected key(s) {sorted(extra)} alongside 'explicit'")
        body = doc["explicit"]
        if not isinstance(body, dict):
            raise ConfigError("'explicit' must be an object")
        missing = {"n", "d", "Gamma", "dd", "dGamma"} - set(body)
        if missing:
            raise ConfigError(f"explicit model missing key(s) {sorted(missing)}")
        extra = set(body) - {"n", "d", "Gamma", "dd", "dGamma"}
        if extra:
            raise ConfigError(f"unexpected key(s) {sorted(extra)} in explicit model")
        n = body["n"]
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"explicit model 'n' must be a positive integer, got {n!r}")
        try:
            point = GaussianModelPoint(
                d=np.array(body["d"], dtype=float),
                gamma=np.array(body["Gamma"], dtype=float),
                dd=np.array(body["dd"], dtype=float),
                dgamma=np.array(body["dGamma"], dtype=float),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"explicit model arrays malformed: {exc}") from exc
        if point.n != n:
            raise ConfigError(
                f"explicit model declares n = {n} but arrays describe {point.n} mode(s)"
            )
        check = validate_covariance(point.gamma, tol=1e-8)
        if not check.valid:
            raise ConfigError(
                "explicit Gamma is not an admissible covariance matrix "
                f"(nu_min = {check.nu_min:.6g}, asymmetry = {check.asymmetry:.3g})"
            )
        fam = _linear_family(point)
        return ModelConfig(point=point, family=fam, theta=0.0, label="explicit")

    allowed = {"family", "params", "theta", "derivative", "h"}
    extra = set(doc) - allowed
    if extra:
        raise ConfigError(f"unexpected key(s) {sorted(extra)} in model config")
    if "family" not in doc or "theta" not in doc:
        raise ConfigError("model config requires 'family' and 'theta' (or 'explicit')")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    family = builtin_family(doc["family"], params)
    try:
        theta = float(doc["theta"])
    except (TypeError, ValueError):
        raise ConfigError(f"'theta' must be a number, got {doc['theta']!r}") from None
    derivative = doc.get("derivative", "analytic")
    h = doc.get("h")
    if h is not None:
        h = float(h)
    point = family.point(theta, derivative=derivative, h=h)
    label = f"{family.name}(theta={theta:g})"
    return ModelConfig(point=point, family=family, theta=theta, label=label)


def load_model_config(path: str) -> ModelConfig:
    """Read and parse a JSON model document from ``path``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_model_config(doc)
