"""Names and units of the benchmark's metrics, as listed in BENCHMARK.json."""

# Measured with tracing off, once per workload run.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

# From the traced run.  "<layer>.<function>.calls_per_op" and
# "<layer>.<function>.self_ms_per_op" are derived for any traced function;
# the other names are computed one by one in worker.layer_metrics.
PER_LAYER = {
    "symplectic.williamson.calls_per_op": "count",
    "symplectic.williamson.self_ms_per_op": "ms",
    "symplectic.hamiltonian_eigenframe.self_ms_per_op": "ms",
    "dgamma.dgamma_pseudoinverse_apply.calls_per_op": "count",
    "dgamma.dgamma_pseudoinverse_apply.self_ms_per_op": "ms",
    "dgamma.apply_dgamma.self_ms_per_op": "ms",
    "estimation.qfi_general.self_ms_per_op": "ms",
    "estimation.sld_coefficients.self_ms_per_op": "ms",
    "estimation.wigner_fisher.self_ms_per_op": "ms",
    "models.check_isothermal.calls_per_op": "count",
    "models.check_isothermal.self_ms_per_op": "ms",
    "models.ModelFamily.point.self_ms_per_op": "ms",
    "models.load_model_config.self_ms_per_op": "ms",
    "homodyne.isothermal_frame.self_ms_per_op": "ms",
    "homodyne.isothermal_frame.rejected_frac": "frac",
    "cli.sweep_rows.jobs1_ms_per_op": "ms",
    "cli.sweep_rows.jobs2_ms_per_op": "ms",
    "cli.emit_csv.self_ms_per_op": "ms",
    "fock.passive_unitary.calls_per_op": "count",
    "fock.passive_unitary.self_ms_per_op": "ms",
    "fock.build_state.calls_per_op": "count",
    "fock.build_state.self_ms_per_op": "ms",
    "fock.build_state.matrix_mb": "MB",
    "fock.qfi_fock.self_ms_per_op": "ms",
    "fock.identity_checks.self_ms_per_op": "ms",
    "fock.sld_residual.self_ms_per_op": "ms",
    "fock.squeeze_unitary.self_ms_per_op": "ms",
    "fock.displacement_unitary.self_ms_per_op": "ms",
    "fock.state_moments.self_ms_per_op": "ms",
    "setup.import_s": "s",
    "trace.overhead_frac": "frac",
}
