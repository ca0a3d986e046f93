"""Tests of the benchmark itself: generator, correctness gate, tracing and
BENCHMARK.json.  Run with `python -m pytest perfbench`."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from elliptic_qes import (  # noqa: E402
    GaugeMask,
    ModelParams,
    OperatorMatrix,
    Poly,
    build_gauged_operator,
    build_matrix,
)
from elliptic_qes.cli import main  # noqa: E402
from probe import call_cli  # noqa: E402
from workloads import INPUTS_PER_RUN, WORKLOADS, Inputs, generate  # noqa: E402

# The metrics the benchmark was specified with; BENCHMARK.json must carry each.
NAMED_END_TO_END = ("op_s_p50", "cold_op_s", "setup_s", "peak_rss_mb")
NAMED_PER_LAYER = (
    "polynomials.divide_exact.self_s", "polynomials.divide_exact.calls",
    "polynomials.divide_exact.dividend_terms", "polynomials.mul.self_s",
    "polynomials.mul.calls", "symmetric.z_to_tau.self_s", "symmetric.z_to_tau.calls",
    "symmetric.z_to_tau.in_terms", "symmetric.tau_to_z.self_s", "symmetric.tau_to_z.calls",
    "symmetric.tau_to_z.out_terms", "operator.apply.self_s", "operator.apply.calls",
    "operator.apply.image_terms", "operator.build_gauged_operator.self_s",
    "operator.build_gauged_operator.calls", "matrices.build_matrix.self_s",
    "matrices.build_matrix.calls", "matrices.build_matrix.columns",
    "matrices.build_matrix.nnz", "matrices.build_matrix.max_bits",
    "matrices.determinant.self_s", "matrices.determinant.calls",
    "spectral.eigenvalues.self_s", "spectral.eigenvalues.calls",
    "spectral.eigenvalues.iterations", "spectral.eigenvalues.trace_defect_max",
    "spectral.to_float.self_s", "spectral.eigenvector.self_s", "spectral.eigenvector.calls",
    "cli.self_s", "trace.overhead_s",
) + tuple(f"verify.{name}.s" for name in metrics.CHECK_NAMES)


def _small(workload: str, argv: list[str], mask: str, a: Fraction) -> Inputs:
    roots = (Fraction(2), Fraction(-1, 2), Fraction(-3, 2))
    argv = argv + ["--n", "2", "--m", "2", "--mask", mask, f"--a={a}", "--roots=2,-1/2,-3/2"]
    return Inputs(workload, 0, 2, Fraction(2), mask, roots, a, None, tuple(argv))


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        for seed in range(4):
            first, again = generate(workload, seed), generate(workload, seed)
            assert first == again
            assert len(first) == INPUTS_PER_RUN[workload]
    argvs = {generate("spectrum-n4", seed)[0].argv for seed in range(8)}
    assert len(argvs) > 1
    for seed in range(20):
        for inp in generate("eigenfunctions", seed):
            assert sum(inp.roots) == 0 and len(set(inp.roots)) == 3 and inp.coupling_a


def test_correct_output_passes_and_a_corrupted_matrix_entry_fails():
    for inp in (
        _small("spectrum-n4", ["spectrum"], "all", Fraction(1, 2)),
        _small("eigenfunctions", ["eigenfunctions"], "none", Fraction(3, 2)),
    ):
        ref = gate.reference(inp)
        code, out, _ = call_cli(main, inp.argv)
        assert gate.check(inp, ref, code, out) == []

        good = ref.sectors[0]
        params = ModelParams(2, inp.coupling_a, 0, 2, inp.roots)
        exact = build_matrix(build_gauged_operator(params, GaugeMask.from_string(good.mask)))
        assert gate.matrix_digest(exact) == good.digest
        rows = [list(row) for row in exact.rows]
        rows[0][0] += 1
        bad = gate.sector(good.value, good.mask,
                          OperatorMatrix(exact.basis, tuple(tuple(r) for r in rows)))
        assert bad.digest != good.digest
        corrupted = replace(ref, sectors=(bad,) + ref.sectors[1:])
        assert gate.check(inp, corrupted, code, out)


def test_stored_digest_mismatch_nonzero_exit_and_crash_fail():
    inp = _small("spectrum-n4", ["spectrum"], "all", Fraction(1, 2))
    ref = gate.reference(inp, digests=["0" * 64])
    assert ref.problems
    assert gate.check(inp, gate.reference(inp), 2, "") == ["exit code 2"]

    code, _, _ = call_cli(lambda argv: 1 // 0, inp.argv)
    assert "ZeroDivisionError" in code
    assert gate.check(inp, gate.reference(inp), code, "")


def test_self_times_sum_to_the_root_span_and_originals_come_back(tmp_path):
    original = Poly.__mul__
    tracer = tracing.Tracer(tmp_path / "spans.csv.gz")
    root = tracer.wrap("cli.main", main)
    try:
        tracer.install()
        tracer.begin_op(0)
        code, _, _ = call_cli(root, ["matrix", "--n", "2", "--m", "2", "--a=1/2"])
        agg = tracer.end_op()
    finally:
        tracer.close()
    assert code == 0 and Poly.__mul__ is original
    assert agg["matrices.build_matrix.calls"] == 1
    assert agg["matrices.build_matrix.columns"] == 6
    assert agg["operator.apply.calls"] == 6
    layers = sum(agg.get(f"{layer}.self_s", 0) for layer in metrics.LAYERS)
    spans = sum(v for k, v in agg.items() if k.endswith(".self_s") and k.count(".") == 2)
    assert abs(layers - spans) < 1e-9


def test_aggregate_subtracts_child_time():
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["matrices.build_matrix", 2.0, 6.0, 0, {"nnz": 3, "max_bits": 5}],
             ["polynomials.mul", 3.0, 4.0, 1, None],
             ["matrices.build_matrix", 7.0, 8.0, 0, {"nnz": 4, "max_bits": 2}]]
    agg = tracing.aggregate(spans)
    assert agg["cli.self_s"] == 5.0
    assert agg["matrices.build_matrix.self_s"] == 4.0
    assert agg["matrices.build_matrix.calls"] == 2
    assert agg["matrices.build_matrix.nnz"] == 7
    assert agg["matrices.build_matrix.max_bits"] == 5
    assert agg["polynomials.self_s"] == 1.0


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {name: unit for name, (unit, _) in metrics.END_TO_END.items()}
    assert set(NAMED_END_TO_END) <= set(end_to_end)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
    assert set(NAMED_PER_LAYER) <= set(per_layer)
    reasons = {**metrics.END_TO_END, **metrics.PER_LAYER, **metrics.SUMMARY_ONLY}
    for name, (unit, why) in reasons.items():
        assert unit and why and "\n" not in why, name
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
