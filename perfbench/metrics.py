"""Every metric the benchmark reports: name -> (unit, why it is measured).

End-to-end times are nominal seconds: wall time scaled by the machine speed
sampled while it was measured (probe.py explains why and how).  Per-layer
times are plain wall time of the traced run; they have no bound.

BENCHMARK.json lists the same names and units; the benchmark's tests check
that the two agree.  `fail_ratio` and `op_s_tail` are printed in the run's
summary but are not BENCHMARK.json metrics: the fail ratio is 0 on correct
code, so no bound can be set as a share of its median (the result line
carries it as `failed`/`attempted`), and a tail percentile needs at least
eleven operations, which a run of multi-second operations does not reach.
"""

from __future__ import annotations

# The suite's ten checks, fixed here rather than imported so that the metric
# names stay the same whatever the library's list becomes.
CHECK_NAMES = (
    "matrices",
    "closed-forms",
    "oscillator",
    "counting",
    "closure",
    "gauge-exponents",
    "raising",
    "decoupling",
    "figure-degeneracy",
    "eigensolver",
)

END_TO_END: dict[str, tuple[str, str]] = {
    "op_s_p50": ("s", "median time of one warm CLI operation, what a user waits for"),
    "cold_op_s": ("s", "first operation in a fresh interpreter, as a one-shot command "
                       "pays it with the symmetric-polynomial caches still empty; median "
                       "over the run's inputs"),
    "setup_s": ("s", "fresh-interpreter import of elliptic_qes.cli, median of several probes"),
    "peak_rss_mb": ("MB", "largest peak resident memory of the one-shot operations; the "
                          "caches in symmetric are unbounded and verify holds 480 matrices"),
}

SUMMARY_ONLY: dict[str, tuple[str, str]] = {
    "fail_ratio": ("1", "operations that raised, exited non-zero or failed the "
                        "correctness gate, over operations attempted"),
    "op_s_tail": ("s", "highest percentile of warm operation time with at least ten "
                       "samples beyond it"),
}

_SPANS: dict[str, tuple[str, ...]] = {
    "polynomials.divide_exact": ("self_s", "calls", "dividend_terms"),
    "polynomials.mul": ("self_s", "calls"),
    "polynomials.add": ("self_s", "calls"),
    "polynomials.leading": ("self_s", "calls"),
    "symmetric.z_to_tau": ("self_s", "calls", "in_terms"),
    "symmetric.tau_to_z": ("self_s", "calls", "out_terms"),
    "symmetric.enumerate_basis": ("self_s", "calls"),
    "operator.apply": ("self_s", "calls", "image_terms"),
    "operator.build_gauged_operator": ("self_s", "calls"),
    "matrices.build_matrix": ("self_s", "calls", "columns", "nnz", "max_bits"),
    "matrices.determinant": ("self_s", "calls"),
    "spectral.eigenvalues": ("self_s", "calls", "iterations", "trace_defect_max"),
    "spectral.to_float": ("self_s", "calls"),
    "spectral.eigenvector": ("self_s", "calls"),
}

LAYERS = ("polynomials", "symmetric", "operator", "matrices", "spectral", "verify", "cli")

_FIELD_UNITS = {
    "self_s": "s",
    "calls": "count",
    "dividend_terms": "count",
    "in_terms": "count",
    "out_terms": "count",
    "image_terms": "count",
    "columns": "count",
    "nnz": "count",
    "max_bits": "bits",
    "iterations": "count",
    "trace_defect_max": "abs",
}

_FIELD_WHY = {
    "self_s": "time in the function minus time in traced callees, per operation",
    "calls": "calls per operation",
    "dividend_terms": "terms of the dividends, per operation; sizes the grlex division",
    "in_terms": "terms of the z-space inputs, per operation; sizes the reduction",
    "out_terms": "terms of the z-space expansions, per operation",
    "image_terms": "terms of the tau-space images, per operation",
    "columns": "matrix columns assembled per operation",
    "nnz": "non-zero exact entries per operation",
    "max_bits": "largest numerator or denominator bit length of any entry",
    "iterations": "QR iterations per operation",
    "trace_defect_max": "largest |sum of eigenvalues - trace| seen",
}

PER_LAYER: dict[str, tuple[str, str]] = {}
for _span, _fields in _SPANS.items():
    for _field in _fields:
        PER_LAYER[f"{_span}.{_field}"] = (_FIELD_UNITS[_field], f"{_span}: {_FIELD_WHY[_field]}")
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = (
        "s", f"self time of every traced {_layer} function, per operation")
for _check in CHECK_NAMES:
    PER_LAYER[f"verify.{_check}.s"] = (
        "s", f"wall time of run_checks(only=['{_check}']) in the traced run")
PER_LAYER.update({
    "trace.op_s_p50": ("s", "median wall time of one traced operation"),
    "trace.untraced_op_s_p50": ("s", "median wall time of the untraced operations "
                                     "interleaved with the traced ones"),
    "trace.overhead_s": ("s", "traced minus untraced median operation time"),
    "trace.self_sum_s": ("s", "sum of the self times of every span of one traced "
                              "operation (median); set against trace.untraced_op_s_p50 "
                              "it shows the spans cover the operation"),
})
