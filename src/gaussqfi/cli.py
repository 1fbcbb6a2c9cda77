"""Command-line front end.

Subcommands::

    gaussqfi qfi <config>                          one Fisher report
    gaussqfi sweep <config> --from A --to B --steps N [--out F] [--jobs J]
    gaussqfi sld <config>                          SLD coefficients + normal form
    gaussqfi homodyne <config> [--random-U N] [--seed S]
    gaussqfi oracle-check <config> --cutoff D

Configs are JSON model documents (see :func:`gaussqfi.models.parse_model_config`);
they describe physics only — sweep ranges, outputs, and oracle parameters are
always flags.  Exit codes: 0 success, 2 config problems, 3 numerical
precondition rejections (``precondition failed: [flag] ...``) or numerical
failures (``numerical failure: ...``: a non-convergence, a matrix that is not
positive definite in floating point, an overflow), 64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .estimation import (
    FisherReport,
    photon_counting_form,
    qfi_general,
    sld_coefficients,
)
from .exceptions import ConfigError, ConvergenceError, PreconditionError
from .fock import _probe, identity_checks, sld_residual
from .homodyne import homodyne_fisher, isothermal_frame, optimal_homodyne_fisher
from .models import GaussianModelPoint, ModelFamily, load_model_config
from .symplectic import random_symplectic

__all__ = ["main", "emit_csv", "sweep_rows", "SweepRow", "CSV_HEADER"]

_OVERLAP_TOL = 1e-9  # kernel-overlap flag: range_residual above this times 1 + |Xt|_F

CSV_HEADER = (
    "theta,qfi,qfi_first_moment,qfi_second_moment,"
    "wigner_fisher,homodyne_opt,ratio,method,warnings"
)

_USAGE = """\
usage: gaussqfi <subcommand> [options]

subcommands:
  qfi <config>                           evaluate the quantum Fisher information
  sweep <config> --from A --to B --steps N [--out FILE] [--jobs J]
  sld <config>                           SLD coefficients and photon-counting form
  homodyne <config> [--random-U N] [--seed S]
  oracle-check <config> --cutoff D

run 'gaussqfi <subcommand> --help' for subcommand options
"""


def _matrix_lines(M: np.ndarray, indent: str = "  ") -> str:
    rows = [
        indent + " ".join(f"{x: .12g}" for x in row) for row in np.atleast_2d(M)
    ]
    return "\n".join(rows)


def _vector_line(v: np.ndarray) -> str:
    return "[" + ", ".join(f"{x:.12g}" for x in np.atleast_1d(v)) + "]"


# ---------------------------------------------------------------------------
# sweep evaluation and CSV output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One evaluated sweep point, ready for CSV formatting."""

    theta: float
    report: FisherReport
    homodyne_opt: float | None
    warnings: str


def _kernel_overlap(rep: FisherReport, point: GaussianModelPoint) -> bool:
    """The kernel-overlap flag: ``D(L) = dGamma`` is unsolved, its residual
    above ``_OVERLAP_TOL (1 + |Xt|_F)``, both in the point's frame, so the point has no SLD."""
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf: no overlap
        return rep.range_residual > _OVERLAP_TOL * (1.0 + np.linalg.norm(point._frame.Xt))


def _evaluate_point(point: GaussianModelPoint, theta: float) -> tuple[SweepRow, str | None]:
    """Evaluate one model point: its sweep row, and the flag of the gate that
    refused the homodyne frame (None when the row's ``homodyne_opt`` is set)."""
    rep = qfi_general(point)
    warn = "kernel-overlap" if _kernel_overlap(rep, point) else ""
    try:
        hopt, gate = optimal_homodyne_fisher(isothermal_frame(point)), None
    except PreconditionError as exc:
        hopt, gate = None, exc.flag
    return SweepRow(theta=theta, report=rep, homodyne_opt=hopt, warnings=warn), gate


def sweep_rows(family: ModelFamily, thetas: np.ndarray, jobs: int = 1) -> list[SweepRow]:
    """Evaluate a theta grid serially, in ascending theta order.

    ``jobs`` (``sweep --jobs``) is ignored, since a thread pool over these
    small LAPACK calls was slower than one thread; it stays because the
    benchmark's sweep runs pass ``--jobs 1`` and ``2`` and its tracer reads it.
    """
    thetas = np.sort(np.asarray(thetas, dtype=float))
    return [_evaluate_point(family.point(t), t)[0] for t in thetas]


def _csv_cell(x: float | None) -> str:
    if x is None or not math.isfinite(x):
        return ""
    return f"{x:.11e}"


def emit_csv(rows: list[SweepRow], destination) -> None:
    """Write sweep rows as CSV (12 significant digits, newline-terminated).

    ``destination`` is a path or a text file object.  No rows gives a
    header-only file.
    """
    lines = [CSV_HEADER]
    for r in rows:
        rep = r.report
        lines.append(
            ",".join(
                [
                    _csv_cell(r.theta),
                    _csv_cell(rep.qfi),
                    _csv_cell(rep.first_moment_term),
                    _csv_cell(rep.second_moment_term),
                    _csv_cell(rep.wigner_fisher),
                    _csv_cell(r.homodyne_opt),
                    _csv_cell(rep.ratio),
                    rep.method,
                    r.warnings,
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _parser(cmd: str, description: str) -> argparse.ArgumentParser:
    # No abbreviations: a removed option such as --h must not resolve to --help.
    p = argparse.ArgumentParser(
        prog=f"gaussqfi {cmd}", description=description, allow_abbrev=False
    )
    p.add_argument("config", help="JSON model document")
    return p


def _cmd_qfi(argv: list[str]) -> int:
    p = _parser("qfi", "Evaluate the quantum Fisher information of one model.")
    args = p.parse_args(argv)
    cfg = load_model_config(args.config)
    row, gate = _evaluate_point(cfg.point, cfg.theta)
    rep = row.report
    print("# gaussqfi qfi")
    print(f"model = {cfg.label} (n = {cfg.point.n})")
    print(f"qfi = {rep.qfi:.12g}")
    print(f"qfi_first_moment = {rep.first_moment_term:.12g}")
    print(f"qfi_second_moment = {rep.second_moment_term:.12g}")
    print(f"wigner_fisher = {rep.wigner_fisher:.12g}")
    print(f"ratio = {rep.ratio:.12g}")
    print(f"method = {rep.method}")
    print(f"range_residual = {rep.range_residual:.6g}")
    if gate is None:
        print(f"homodyne_opt = {row.homodyne_opt:.12g}")
    else:
        print(f"homodyne_opt = unavailable ({gate})")
    if row.warnings:
        print(
            f"warning: {row.warnings} (range_residual = {rep.range_residual:.6g})",
            file=sys.stderr,
        )
    return 0


def _cmd_sweep(argv: list[str]) -> int:
    p = _parser("sweep", "Evaluate a theta grid and emit CSV.")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="number of grid points (>= 1)")
    p.add_argument("--out", default=None, help="CSV destination (default stdout)")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted (>= 1) and ignored: evaluation is serial (default 1); kept "
        "because the benchmark's sweep runs pass --jobs 1 and 2",
    )
    args = p.parse_args(argv)
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = load_model_config(args.config)
    print(
        f"# gaussqfi sweep: model = {cfg.label}, from = {args.start:g}, "
        f"to = {args.stop:g}, steps = {args.steps}, jobs = {args.jobs}",
        file=sys.stderr,
    )
    thetas = np.linspace(args.start, args.stop, args.steps)
    rows = sweep_rows(cfg.family, thetas, jobs=args.jobs)
    emit_csv(rows, sys.stdout if args.out is None else args.out)
    return 0


def _cmd_sld(argv: list[str]) -> int:
    p = _parser("sld", "Print the SLD observable of one model.")
    args = p.parse_args(argv)
    cfg = load_model_config(args.config)
    coeffs = sld_coefficients(cfg.point)
    form = photon_counting_form(coeffs, cfg.point)  # before any output: it may refuse
    print("# gaussqfi sld")
    print(f"model = {cfg.label} (n = {cfg.point.n})")
    print("L (quadratic coefficients, centered variables):")
    print(_matrix_lines(coeffs.L))
    print(f"b (linear coefficients) = {_vector_line(coeffs.b)}")
    print(f"c (offset) = {coeffs.c:.12g}")
    print(f"range_residual = {coeffs.range_residual:.6g}")
    if form is None:
        print("photon-counting form: none (linear model, or L indefinite or singular)")
    else:
        print("photon-counting form: L_hat = sum_k 2*alpha_k*(N_k - <N_k>)")
        print(f"  alpha = {_vector_line(form.alpha)}")
        if form.displacement.any():
            print(f"  displacement = {_vector_line(form.displacement)}")
        print(f"  mean_photon = {_vector_line(form.mean_photon)}")
        print("  mode frame T:")
        print(_matrix_lines(form.T, indent="    "))
    return 0


def _cmd_homodyne(argv: list[str]) -> int:
    p = _parser("homodyne", "Optimal homodyne analysis of an equal-temperature model.")
    p.add_argument(
        "--random-U", dest="random_u", type=int, default=0,
        help="also probe N >= 0 random symplectic measurement frames (default 0)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for --random-U (default 0)")
    args = p.parse_args(argv)
    if args.random_u < 0:
        raise ConfigError(f"--random-U must be >= 0, got {args.random_u}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    cfg = load_model_config(args.config)
    frame = isothermal_frame(cfg.point)
    best = optimal_homodyne_fisher(frame)
    print("# gaussqfi homodyne")
    print(f"model = {cfg.label} (n = {cfg.point.n})")
    print(f"nu = {frame.nu:.12g}")
    print(f"lam = {_vector_line(frame.lam)}")
    print(f"optimal_fisher = {best:.12g}")
    print("normal frame T:")
    print(_matrix_lines(frame.T))
    if args.random_u > 0:
        rng = np.random.default_rng(args.seed)
        worst_slack = math.inf
        violations = 0
        for _ in range(args.random_u):
            U = random_symplectic(frame.n, seed=rng)
            fisher = homodyne_fisher(frame, U)
            worst_slack = min(worst_slack, best - fisher)
            if fisher > best + 1e-9:
                violations += 1
        print(
            f"random-U probe: N = {args.random_u}, seed = {args.seed}, "
            f"min slack = {worst_slack:.6g}, violations = {violations}"
        )
    return 0


def _cmd_oracle_check(argv: list[str]) -> int:
    p = _parser("oracle-check", "Cross-check the engine against the Fock oracle.")
    p.add_argument("--cutoff", type=int, required=True, help="per-mode Fock dimension")
    args = p.parse_args(argv)
    cfg = load_model_config(args.config)
    rep = qfi_general(cfg.point)
    if _kernel_overlap(rep, cfg.point):
        raise PreconditionError(
            "kernel_overlap",
            f"the SLD equation has no solution (range_residual = {rep.range_residual:.3g}), "
            "so there is nothing to cross-check",
        )
    probe = _probe(cfg.point, args.cutoff)
    coeffs = sld_coefficients(cfg.point)
    resid = sld_residual(cfg.point, coeffs, args.cutoff)
    ident = identity_checks(cfg.point, args.cutoff)
    gap = abs(rep.qfi - probe.value)
    rel = gap / abs(rep.qfi) if rep.qfi != 0.0 else math.nan
    print(f"# gaussqfi oracle-check: cutoff = {args.cutoff}")
    print(f"model = {cfg.label} (n = {cfg.point.n})")
    print(f"engine_qfi = {rep.qfi:.12g}")
    print(f"oracle_qfi = {probe.value:.12g}")
    print(f"abs_diff = {gap:.6g}")
    print(f"rel_diff = {rel:.6g}")
    print(f"cutoff_shift (D -> D+10) = {probe.cutoff_shift:.6g}")
    print(f"sld_residual = {resid:.6g}")
    print(f"identity displacement_dev = {ident.displacement_dev:.6g}")
    print(f"identity covariance_dev = {ident.covariance_dev:.6g}")
    print(f"identity char_dev = {ident.char_dev:.6g}")
    print(f"identity fourth_moment_dev = {ident.fourth_moment_dev:.6g}")
    print(f"tail_mass = {ident.tail_mass:.6g}")
    return 0


_HANDLERS = {
    "qfi": _cmd_qfi,
    "sweep": _cmd_sweep,
    "sld": _cmd_sld,
    "homodyne": _cmd_homodyne,
    "oracle-check": _cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if not args:
        sys.stderr.write(_USAGE)
        return 64
    if args[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    handler = _HANDLERS.get(args[0])
    if handler is None:
        sys.stderr.write(f"unknown subcommand: {args[0]!r}\n")
        sys.stderr.write(_USAGE)
        return 64
    try:
        return handler(args[1:])
    except SystemExit as exc:  # argparse --help (0) or usage errors (2)
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ValueError, ArithmeticError) as exc:
        # below ConfigError, itself a ValueError: what is left is a failed
        # factorisation (LinAlgError, "not positive definite") or an overflow
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
