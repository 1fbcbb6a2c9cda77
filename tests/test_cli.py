"""Tests for the command-line front end: exit codes, output formats, and
CSV determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gaussqfi as gq
from conftest import PURE_THREE_MODE, explicit_doc
from gaussqfi import cli

THERMAL = {"family": "thermal", "theta": 2.0}
PHASE = {"family": "phase_squeezed", "params": {"r": 1.0}, "theta": 0.0}
DISPLACEMENT = {"family": "displacement", "theta": 0.0}
VACUUM_HEATING = {
    "explicit": {
        "n": 1,
        "d": [0.0, 0.0],
        "Gamma": [[1.0, 0.0], [0.0, 1.0]],
        "dd": [0.0, 0.0],
        "dGamma": [[1.0, 0.0], [0.0, 1.0]],
    }
}


def write_cfg(tmp_path, doc, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def get_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"no line {key!r} in output:\n{out}")


def test_no_args_prints_usage(capsys):
    assert cli.main([]) == 64
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "subcommands" in capsys.readouterr().out
    assert cli.main(["sweep", "--help"]) == 0
    assert "--steps" in capsys.readouterr().out


def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 64
    assert "unknown subcommand" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys, tmp_path):
    cfg = write_cfg(tmp_path, THERMAL)
    assert cli.main(["sweep", cfg, "--from", "1.5", "--to", "2.0"]) == 2


def test_qfi_thermal_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, THERMAL)
    assert cli.main(["qfi", cfg]) == 0
    out = capsys.readouterr().out
    assert get_value(out, "qfi") == "0.333333333333"
    assert get_value(out, "wigner_fisher") == "0.25"
    assert get_value(out, "ratio").startswith("1.33333333333")
    assert get_value(out, "method") == "general"
    # Thermal models fail the temperature-preserving gate.
    assert "homodyne_opt = unavailable (derivative_preserves_nu)" in out


def test_qfi_missing_file(capsys):
    assert cli.main(["qfi", "/nonexistent/model.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_qfi_invalid_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["qfi", str(p)]) == 2


def test_qfi_bad_schema(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"family": "thermal"})
    assert cli.main(["qfi", cfg]) == 2


def test_sweep_single_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PHASE)
    out = tmp_path / "out.csv"
    code = cli.main(
        ["sweep", cfg, "--from", "0", "--to", "0", "--steps", "1", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    target = 2 * np.sinh(2.0) ** 2
    assert float(cells[1]) == pytest.approx(target, rel=1e-10)  # qfi
    assert float(cells[5]) == pytest.approx(target, rel=1e-10)  # homodyne_opt
    assert cells[2] == "0.00000000000e+00"  # no first-moment term
    assert cells[7] == "general"
    assert cells[8] == ""


def test_sweep_stdout_default(tmp_path, capsys):
    cfg = write_cfg(tmp_path, THERMAL)
    assert cli.main(["sweep", cfg, "--from", "2", "--to", "2", "--steps", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(cli.CSV_HEADER + "\n")
    assert "# gaussqfi sweep" in captured.err


def test_sweep_deterministic_and_parallel(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL)
    paths = [tmp_path / f"{name}.csv" for name in ("a", "b", "c")]
    for path, jobs in zip(paths, ("1", "1", "4")):
        code = cli.main(
            [
                "sweep",
                cfg,
                "--from",
                "3.0",
                "--to",
                "1.5",
                "--steps",
                "7",
                "--jobs",
                jobs,
                "--out",
                str(path),
            ]
        )
        assert code == 0
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b == c
    rows = a.decode().splitlines()[1:]
    assert len(rows) == 7
    thetas = [float(r.split(",")[0]) for r in rows]
    assert thetas == sorted(thetas)  # sorted even though the range was reversed
    assert all(r.split(",")[5] == "" for r in rows)  # no homodyne frame


def test_sweep_rejects_bad_counts(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL)
    base = ["sweep", cfg, "--from", "1.5", "--to", "2.0"]
    assert cli.main(base + ["--steps", "0"]) == 2
    assert cli.main(base + ["--steps", "3", "--jobs", "0"]) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["homodyne", "--random-U", "-3"], "--random-U"),
        (["homodyne", "--seed", "-1"], "--seed"),
    ],
    ids=["homodyne-random-u-neg", "homodyne-seed-neg"],
)
def test_numeric_flags_are_validated(tmp_path, capsys, argv, flag):
    cfg = write_cfg(
        tmp_path, {"family": "phase_squeezed", "params": {"r": 0.5}, "theta": 0.3}
    )
    assert cli.main([argv[0], cfg] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} must be" in captured.err


def test_oracle_check_has_no_step_option(tmp_path, capsys):
    # The oracle's derivative is exact, so there is no difference step to set.
    cfg = write_cfg(tmp_path, DISPLACEMENT)
    assert cli.main(["oracle-check", cfg, "--cutoff", "20", "--h", "1e-4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --h" in err


def test_sweep_family_domain_error(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL)
    code = cli.main(["sweep", cfg, "--from", "0.5", "--to", "2.0", "--steps", "3"])
    assert code == 2


def test_sweep_flags_kernel_overlap(tmp_path):
    cfg = write_cfg(tmp_path, VACUUM_HEATING)
    out = tmp_path / "k.csv"
    code = cli.main(
        ["sweep", cfg, "--from", "0", "--to", "0", "--steps", "1", "--out", str(out)]
    )
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[8] == "kernel-overlap"
    assert float(row[3]) == 0.0  # unsupported derivative carries no information
    assert row[5] == ""


def test_sweep_flags_every_row_on_the_kernel(tmp_path):
    # Heating the vacuum, dGamma = I at Gamma = I, lies in the kernel, so the
    # QFI reads 0 at t = 0; each row there must say so.
    grid = ["--steps", "5", "--out"]
    rows = {}
    for name, doc, span in (
        ("vacuum", VACUUM_HEATING, ["--from", "0", "--to", "0"]),
        ("squeezed", {**PHASE, "params": {"r": 0.5}}, ["--from", "0", "--to", "1"]),
    ):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["sweep", write_cfg(tmp_path, doc), *span, *grid, str(out)]) == 0
        rows[name] = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows["vacuum"]) == 5
    for row in rows["vacuum"]:
        assert float(row[1]) == 0.0
        assert row[8] == "kernel-overlap"
    # Off the kernel nothing is flagged and the QFI is the closed form.
    for row in rows["squeezed"]:
        assert float(row[1]) == pytest.approx(2 * np.sinh(1.0) ** 2, rel=1e-10)
        assert row[8] == ""


def test_qfi_warns_of_kernel_overlap(tmp_path, capsys):
    # qfi applies the sweep's kernel-overlap rule and says so on stderr; its
    # stdout and exit code stay those of an unflagged run.
    assert cli.main(["qfi", write_cfg(tmp_path, VACUUM_HEATING)]) == 0
    out, err = capsys.readouterr()
    assert get_value(out, "qfi") == "0"
    residual = get_value(out, "range_residual")
    assert err == f"warning: kernel-overlap (range_residual = {residual})\n"
    cfg = write_cfg(tmp_path, {**PHASE, "params": {"r": 0.5}, "theta": 0.3})
    assert cli.main(["qfi", cfg]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert float(get_value(out, "qfi")) == pytest.approx(2 * np.sinh(1.0) ** 2, rel=1e-10)


def test_emit_csv_empty_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    cli.emit_csv([], str(out))
    assert out.read_text() == cli.CSV_HEADER + "\n"


def test_sld_thermal_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, THERMAL)
    assert cli.main(["sld", cfg]) == 0
    out = capsys.readouterr().out
    assert "photon-counting form: L_hat" in out
    assert "alpha = [0.333333333333]" in out
    assert "mean_photon = [0.5]" in out
    assert "displacement" not in out  # counted about d = 0
    assert get_value(out, "c (offset)") == "-0.666666666667"


def test_sld_offset_prints_no_signed_zero(tmp_path, capsys):
    # The offset -tr[Yt N] / 2 of a pure phase model is an exact zero, and a
    # negated one: the output reads 0, not -0.
    doc = {"family": "two_mode_squeezed_phase", "params": {"r": 0.3}, "theta": 0.4}
    assert cli.main(["sld", write_cfg(tmp_path, doc)]) == 0
    assert get_value(capsys.readouterr().out, "c (offset)") == "0"


def test_sld_prints_the_counting_displacement(tmp_path, capsys):
    doc = {"explicit": dict(VACUUM_HEATING["explicit"], d=[0.5, 0.0], dd=[1.0, 0.0],
                            Gamma=[[2.0, 0.0], [0.0, 2.0]])}
    assert cli.main(["sld", write_cfg(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "  displacement = [-1, 0]\n  mean_photon = [1.625]" in out


def test_sld_displacement_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DISPLACEMENT)
    assert cli.main(["sld", cfg]) == 0
    out = capsys.readouterr().out
    assert "b (linear coefficients) = [2, 0]" in out
    assert "photon-counting form: none" in out


def test_homodyne_phase_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PHASE)
    assert cli.main(["homodyne", cfg, "--random-U", "20", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert float(get_value(out, "optimal_fisher")) == pytest.approx(
        2 * np.sinh(2.0) ** 2, rel=1e-10
    )
    assert float(get_value(out, "nu")) == pytest.approx(1.0, abs=1e-10)
    assert "violations = 0" in out


def test_homodyne_refuses_thermal(tmp_path, capsys):
    cfg = write_cfg(tmp_path, THERMAL)
    assert cli.main(["homodyne", cfg]) == 3
    err = capsys.readouterr().err
    assert "precondition failed" in err
    assert "derivative_preserves_nu" in err


def test_oracle_check_displacement(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DISPLACEMENT)
    assert cli.main(["oracle-check", cfg, "--cutoff", "30"]) == 0
    out = capsys.readouterr().out
    assert get_value(out, "engine_qfi") == "2"
    assert float(get_value(out, "rel_diff")) < 1e-6
    assert float(get_value(out, "sld_residual")) < 1e-6
    assert float(get_value(out, "tail_mass")) < 1e-10


def test_oracle_check_pure_phase_squeezed(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, {"family": "phase_squeezed", "params": {"r": 0.5}, "theta": 0.7}
    )
    assert cli.main(["oracle-check", cfg, "--cutoff", "40"]) == 0
    out = capsys.readouterr().out
    assert float(get_value(out, "rel_diff")) < 1e-4
    assert float(get_value(out, "sld_residual")) < 1e-4


PURE_EXPLICIT = {  # pure phase_squeezed at e^{2r} = 4, theta = 0; QFI 7.03125
    "explicit": {
        "n": 1,
        "d": [0, 0],
        "Gamma": [[4, 0], [0, 0.25]],
        "dd": [0, 0],
        "dGamma": [[0, 3.75], [3.75, 0]],
    }
}


@pytest.mark.parametrize(
    "doc, cutoff",
    [
        (PURE_EXPLICIT, 40),
        (explicit_doc(gq.builtin_family("two_mode_squeezed_phase", {"r": 0.3}).point(0.4)), 12),
    ],
    ids=["n1", "n2"],
)
def test_oracle_check_pure_explicit(tmp_path, capsys, doc, cutoff):
    # The oracle reads the explicit point's own tangent, exactly.
    assert cli.main(["oracle-check", write_cfg(tmp_path, doc), "--cutoff", str(cutoff)]) == 0
    out = capsys.readouterr().out
    assert float(get_value(out, "rel_diff")) < 1e-4


def test_oracle_check_two_mode_squeezed_phase_agrees_to_1e_7(tmp_path, capsys):
    doc = {"family": "two_mode_squeezed_phase", "params": {"r": 0.5}, "theta": 0.3}
    assert cli.main(["oracle-check", write_cfg(tmp_path, doc), "--cutoff", "16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# gaussqfi oracle-check: cutoff = 16\n")
    assert "step_shift" not in out
    assert float(get_value(out, "rel_diff")) < 1e-7


def test_oracle_check_refuses_a_point_without_an_sld(tmp_path, capsys):
    # Gamma = I heated by dGamma = I: the engine flags kernel-overlap, so the
    # SLD does not exist and there is nothing to cross-check.
    assert cli.main(["oracle-check", write_cfg(tmp_path, VACUUM_HEATING), "--cutoff", "30"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("precondition failed: [kernel_overlap] ")
    assert err.count("\n") == 1


def test_oracle_check_refuses_a_basis_above_the_size_limit(tmp_path, capsys):
    # The point is pure, so the probe reads its ket on 410 levels, 16 MB; the
    # first dense matrix is sld_residual's L on 402 levels, 418 GB.
    doc = {"family": "two_mode_squeezed_phase", "params": {"r": 0.3}, "theta": 0.4}
    assert cli.main(["oracle-check", write_cfg(tmp_path, doc), "--cutoff", "400"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: a Fock basis of 402 levels on 2 modes needs 418 GB per dense matrix; "
        "the oracle builds at most 64 levels on 2 modes (268 MB)\n"
    )


def test_oracle_check_runs_on_a_pure_three_mode_state(tmp_path, capsys):
    # The probe reads the ket on 18 levels; a dense state there would take
    # 544 MB, above the size limit.
    assert cli.main(["oracle-check", write_cfg(tmp_path, PURE_THREE_MODE), "--cutoff", "8"]) == 0
    out = capsys.readouterr().out
    assert get_value(out, "model") == "explicit (n = 3)"
    assert float(get_value(out, "rel_diff")) < 1e-7
    assert float(get_value(out, "sld_residual")) < 1e-10


def test_qfi_accepts_strongly_squeezed_pure_config(tmp_path, capsys):
    # Its nu_min rounds to 1 - 2.8e-7, within the state rule's rounding, so
    # the config reader accepts what the family accepts.
    pt = gq.builtin_family("phase_squeezed", {"r": 6.0}).point(0.3)
    assert cli.main(["qfi", write_cfg(tmp_path, explicit_doc(pt))]) == 0
    qfi = float(get_value(capsys.readouterr().out, "qfi"))
    assert qfi == pytest.approx(2.0 * math.sinh(12.0) ** 2, rel=1e-4)


def test_oracle_check_strong_squeezing_exits_3_on_the_tail(tmp_path, capsys):
    # Neither point is flagged for kernel overlap: both reach the oracle and
    # are refused on its tail.
    cfg = write_cfg(tmp_path, {"family": "phase_squeezed", "params": {"r": 4.0}, "theta": 0.3})
    assert cli.main(["oracle-check", cfg, "--cutoff", "10"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition failed: [tail_mass]")
    # The advice says what the suggested cutoff would cost: 13182^2 * 16 bytes.
    assert "suggested cutoff is 13182 (2.8 GB dense state)" in err
    cfg = write_cfg(tmp_path, {"family": "phase_squeezed", "params": {"r": 5.0}, "theta": 0.3})
    assert cli.main(["oracle-check", cfg, "--cutoff", "10"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition failed: [tail_mass]")
    assert "suggested cutoff is 97403" in err


def test_sweep_pure_explicit(tmp_path):
    cfg = write_cfg(tmp_path, PURE_EXPLICIT)
    out = tmp_path / "pure.csv"
    argv = ["sweep", cfg, "--from", "-0.1", "--to", "0.1", "--steps", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 5
    assert float(rows[2][1]) == pytest.approx(7.03125, rel=1e-10)  # theta = 0


SUB_VACUUM = {  # the tangent lowers both symplectic eigenvalues below 1 for t < 0
    "explicit": {
        "n": 2,
        "d": [0, 0, 0, 0],
        "Gamma": np.diag([1.0, 1.05, 1.0, 1.05]).tolist(),
        "dd": [0, 0, 0, 0],
        "dGamma": np.diag([0.2, 3.0, 0.2, 3.0]).tolist(),
    }
}


def test_sweep_refuses_sub_vacuum_points(tmp_path, capsys):
    # nu_min is 0.80-0.86 on this grid: no QFI, exit 3 naming the gate.
    cfg = write_cfg(tmp_path, SUB_VACUUM)
    argv = ["sweep", cfg, "--from", "-0.25", "--to", "-0.1", "--steps", "4"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "precondition failed: [nu_min]" in err


@pytest.mark.parametrize("r", [13.5, 14.0])
def test_ill_conditioned_explicit_config(tmp_path, capsys, r):
    # The built-in phase_squeezed point as arrays: the smallest eigenvalue of
    # the stored Gamma, e^{-2r} (2e-12, 7e-13), lies far inside its rounding
    # bound 2n eps |Gamma|_2 (2e-4, 6e-4), so the computed one is noise: it
    # reads 0 at r = 14 and small but positive (about 1.5e-5) at r = 13.5 on
    # common LAPACK builds.  Either way the lifted curve's kappa = |dGamma|_2^2 / lambda_min
    # cannot be formed.  qfi reads the point itself, with no numpy warning
    # (warnings are errors here); sweep refuses before any moment turns
    # non-finite, naming the eigenvalue and the bound.
    doc = explicit_doc(gq.builtin_family("phase_squeezed", {"r": r}).point(0.3))
    cfg = write_cfg(tmp_path, doc)
    assert cli.main(["qfi", cfg]) == 0
    out, err = capsys.readouterr()
    assert "qfi = " in out and "RuntimeWarning" not in err
    assert cli.main(["sweep", cfg, "--from", "0", "--to", "0.1", "--steps", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "precondition failed: [ill_conditioned] the smallest eigenvalue of Gamma is " in err
    assert "within its rounding bound 2n eps |Gamma|_2 = " in err


def test_explicit_config_refused_on_a_failed_cholesky_factor_names_the_eigenvalue(
    tmp_path, capsys
):
    # The built-in phase_squeezed r = 12.25, theta 0.3 point as arrays: the
    # Cholesky factor of the stored Gamma fails (its smallest eigenvalue reads
    # about -1e-6 against a rounding bound of 1.9e-5), and the refusal says so
    # rather than report a nu_min it never read.
    doc = explicit_doc(gq.builtin_family("phase_squeezed", {"r": 12.25}).point(0.3))
    assert cli.main(["qfi", write_cfg(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "error: explicit model: 'Gamma' is not an admissible covariance matrix "
        "(its Cholesky factor fails: the smallest eigenvalue of Gamma is "
    )
    assert "against its rounding bound 2n eps |Gamma|_2 = " in err
    assert "nu_min" not in err


def test_well_conditioned_squeezed_explicit_config_sweeps(tmp_path, capsys):
    # At r = 6 the smallest eigenvalue e^{-12} (6e-6) stands well clear of its
    # rounding bound (7e-11): the curve is formed and the sweep runs.
    doc = explicit_doc(gq.builtin_family("phase_squeezed", {"r": 6.0}).point(0.3))
    cfg = write_cfg(tmp_path, doc)
    assert cli.main(["sweep", cfg, "--from", "0", "--to", "0.1", "--steps", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_convergence_error_exits_3(tmp_path, capsys, monkeypatch):
    from gaussqfi import estimation

    def fail(frame):
        raise gq.ConvergenceError("the frame solve did not converge")

    monkeypatch.setattr(estimation, "_frame_solve", fail)
    cfg = write_cfg(tmp_path, DISPLACEMENT)
    assert cli.main(["qfi", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: the frame solve did not converge\n"


R20 = {"family": "phase_squeezed", "params": {"r": 20.0}, "theta": 0.3}
R1000 = {"family": "phase_squeezed", "params": {"r": 1000.0}, "theta": 0.3}


@pytest.mark.parametrize(
    "doc, argv",
    [
        (R20, ["qfi"]),
        (R20, ["sld"]),
        (R20, ["homodyne"]),
        (R20, ["oracle-check", "--cutoff", "10"]),
        (R1000, ["qfi"]),
        (R1000, ["sweep", "--from", "0", "--to", "1", "--steps", "3"]),
        ({"family": "thermal", "theta": 1e300}, ["qfi"]),
    ],
    ids=["r20-qfi", "r20-sld", "r20-homodyne", "r20-oracle", "r1000-qfi", "r1000-sweep",
         "thermal-1e300-qfi"],
)
def test_numerical_failures_exit_3(tmp_path, capsys, doc, argv):
    # Gamma that is not positive definite in floating point, or an overflow:
    # one line on stderr and exit 3, no traceback.
    assert cli.main([argv[0], write_cfg(tmp_path, doc), *argv[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_nearly_symmetric_gamma_reads_as_its_symmetric_part(tmp_path, capsys):
    # Asymmetry 1e-9 passes the symmetry rule, 1e-8 (1 + max|Gamma|); the
    # point stores the symmetric part, so both give the same report.
    outputs = []
    for off in ([1e-9, 0.0], [5e-10, 5e-10]):
        doc = {"explicit": dict(VACUUM_HEATING["explicit"],
                                Gamma=[[2.0, off[0]], [off[1], 2.0]])}
        assert cli.main(["qfi", write_cfg(tmp_path, doc)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "gamma, code",
    [
        ([[2.0, 1e-9], [0.0, 2.0]], 0),
        ([[3e4, 5e-7], [0.0, 3e-4]], 0),
        ([[2.0, 1e-6], [0.0, 2.0]], 2),
    ],
    ids=["2-asym-1e-9", "3e4-asym-5e-7", "2-asym-1e-6"],
)
def test_symmetry_rule_decides_the_exit_code(tmp_path, capsys, gamma, code):
    doc = {"explicit": dict(VACUUM_HEATING["explicit"], Gamma=gamma,
                            dGamma=[[0.0, 1.0], [1.0, 0.0]])}
    assert cli.main(["qfi", write_cfg(tmp_path, doc)]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "not symmetric" in err
    elif gamma[0][0] == 2.0:
        assert get_value(out, "qfi") == "0.2"


def test_thermal_family_warns_only_at_the_pure_point(tmp_path, capsys):
    doc = {"family": "thermal", "theta": 1.000000000001}
    assert cli.main(["qfi", write_cfg(tmp_path, doc)]) == 0
    out, err = capsys.readouterr()
    assert get_value(out, "qfi") == "499955553660" and err == ""


def test_console_script_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL)
    proc = subprocess.run(
        [sys.executable, "-m", "gaussqfi", "qfi", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "qfi = 0.333333333333" in proc.stdout
    proc2 = subprocess.run(
        [sys.executable, "-m", "gaussqfi", "bogus"], capture_output=True, text=True
    )
    assert proc2.returncode == 64


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, gaussqfi, gaussqfi.cli; print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_qfi_factorises_once(tmp_path, capsys, williamson_calls):
    # A built-in family's point carries its closed-form factor: no
    # Williamson factorisation at all.
    cfg = write_cfg(tmp_path, PHASE)
    assert cli.main(["qfi", cfg]) == 0
    assert get_value(capsys.readouterr().out, "homodyne_opt") != "unavailable"
    assert williamson_calls[0] == 0


def test_explicit_qfi_factorises_once(tmp_path, capsys, williamson_calls):
    # The same moments as explicit arrays: the point's one frame admits the
    # config, and the solve and the homodyne frame read it again.
    cfg = write_cfg(tmp_path, explicit_doc(gq.parse_model_config(PHASE).point))
    assert cli.main(["qfi", cfg]) == 0
    assert get_value(capsys.readouterr().out, "homodyne_opt") != "unavailable"
    assert williamson_calls[0] == 1


def test_sweep_factorises_once_per_point(tmp_path, williamson_calls):
    # A built-in family's points carry their factors: no factorisation.
    cfg = write_cfg(tmp_path, PHASE)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", cfg, "--from", "0", "--to", "1", "--steps", "7", "--out", str(out)]
    assert cli.main(argv) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 7 and all(row.split(",")[5] for row in rows)
    assert williamson_calls[0] == 0


def test_explicit_sweep_factorises_once_per_point(tmp_path, williamson_calls):
    # An explicit config's tangent curve has no factor: one factorisation
    # admits the config and one solves each point.
    cfg = write_cfg(tmp_path, explicit_doc(gq.parse_model_config(PHASE).point))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", cfg, "--from", "0", "--to", "0.1", "--steps", "7", "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(out.read_text().splitlines()) == 1 + 7
    assert williamson_calls[0] == 1 + 7


def test_explicit_oracle_check_factorises_once(tmp_path, capsys, williamson_calls):
    # The probe reads the config's own point, whose frame the engine formed.
    assert cli.main(["oracle-check", write_cfg(tmp_path, PURE_EXPLICIT), "--cutoff", "40"]) == 0
    assert float(get_value(capsys.readouterr().out, "rel_diff")) < 1e-4
    assert williamson_calls[0] == 1
