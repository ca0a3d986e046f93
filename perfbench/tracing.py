"""Spans around the library's public functions, for the traced run only.

`Tracer.install` replaces each traced function where its calling module binds
it (for example `elliptic_qes.operator.tau_to_z`, `elliptic_qes.cli.build_matrix`)
and each traced method on its class (`GaugedOperator.apply`, `Poly.__mul__`)
with a wrapper that records a span: name, start, end, parent span and
operation id, plus a few counts taken from the arguments or the result.
`Tracer.remove` puts the originals back.  Nothing in the library changes on
disk, and outside an operation (`Tracer.op is None`) a wrapper only forwards.

A span's self time is its duration minus the durations of its child spans;
the per-layer metrics are sums of self times and counts per operation.  The
operation's root span, `cli.main`, is opened by the benchmark around its call
of `elliptic_qes.cli.main`, so the self times of one operation sum to its
traced wall time.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from time import perf_counter

import elliptic_qes.cli as cli_mod
import elliptic_qes.matrices as matrices_mod
import elliptic_qes.operator as operator_mod
import elliptic_qes.oracles as oracles_mod
import elliptic_qes.spectral as spectral_mod
import elliptic_qes.verify as verify_mod
from elliptic_qes import GaugedOperator, OperatorMatrix, Poly

# Span record fields.
NAME, START, END, PARENT, COUNTS = range(5)


def _matrix_counts(args, result):
    entries = [x for row in result.rows for x in row if x]
    bits = max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in entries),
               default=0)
    return {"columns": result.dim, "nnz": len(entries), "max_bits": bits}


def _spectrum_counts(args, result):
    return {"iterations": result.iterations, "trace_defect_max": result.trace_defect}


# (span name, owners that bind the callable, attributes, counts(args, result))
_TARGETS = (
    ("polynomials.mul", (Poly,), ("__mul__", "__rmul__"), None),
    ("polynomials.add", (Poly,), ("__add__",), None),
    ("polynomials.leading", (Poly,), ("leading",), None),
    ("polynomials.divide_exact", (Poly,), ("divide_exact",),
     lambda a, r: {"dividend_terms": len(a[0].terms)}),
    ("symmetric.tau_to_z", (operator_mod,), ("tau_to_z",),
     lambda a, r: {"out_terms": len(r.terms)}),
    ("symmetric.z_to_tau", (operator_mod,), ("z_to_tau",),
     lambda a, r: {"in_terms": len(a[0].terms)}),
    ("symmetric.enumerate_basis", (matrices_mod,), ("enumerate_basis",), None),
    ("operator.build_gauged_operator", (cli_mod, verify_mod, oracles_mod),
     ("build_gauged_operator",), None),
    ("operator.gauge_polynomials", (operator_mod, verify_mod), ("gauge_polynomials",), None),
    ("operator.apply", (GaugedOperator,), ("apply",),
     lambda a, r: {"image_terms": len(r.terms)}),
    ("matrices.build_matrix", (cli_mod, verify_mod, oracles_mod), ("build_matrix",),
     _matrix_counts),
    ("matrices.raising_coefficient_check", (verify_mod,), ("raising_coefficient_check",),
     None),
    ("matrices.determinant", (OperatorMatrix,), ("determinant",), None),
    ("spectral.spectrum_of", (cli_mod, verify_mod, oracles_mod), ("spectrum_of",), None),
    ("spectral.eigenvalues", (spectral_mod, verify_mod), ("eigenvalues",), _spectrum_counts),
    ("spectral.to_float", (spectral_mod, cli_mod), ("to_float",), None),
    ("spectral.eigenvector", (cli_mod,), ("eigenvector",), None),
    ("verify.run_checks", (cli_mod,), ("run_checks",), None),
)


class Tracer:
    """Records spans while an operation is open and writes them per operation.

    Spans of one operation stay in memory until `end_op`, which appends them
    to a gzipped CSV (op, span, parent, name, start, end) and returns the
    operation's per-span aggregates.
    """

    def __init__(self, spans_path: Path) -> None:
        self.op: int | None = None
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        self._out = gzip.open(spans_path, "wt", encoding="utf-8")
        self._out.write("op,span,parent,name,start,end\n")

    def wrap(self, name: str, fn, counts=None):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counts is not None:
                span[COUNTS] = counts(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, owners, attrs, counts in _TARGETS:
            for owner in owners:
                for attr in attrs:
                    original = getattr(owner, attr)
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, counts))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> dict[str, float]:
        """Close the open operation; write its spans and return its aggregates."""
        op, self.op = self.op, None
        for i, s in enumerate(self._spans):
            self._out.write(f"{op},{i},{s[PARENT]},{s[NAME]},{s[START]!r},{s[END]!r}\n")
        agg = aggregate(self._spans)
        self._spans.clear()
        return agg

    def close(self) -> None:
        self.remove()
        self._out.close()


def aggregate(spans: list[list]) -> dict[str, float]:
    """Self time, calls and counts of each span name in one operation.

    Keys are '<span>.self_s', '<span>.calls', '<span>.<count>' and, summed
    over every span of a layer, '<layer>.self_s'.  A count whose name
    contains 'max' keeps its maximum; the others are summed.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    agg: dict[str, float] = {}
    for s, children in zip(spans, child_time):
        self_s = s[END] - s[START] - children
        name = s[NAME]
        layer = name.split(".", 1)[0]
        for key, value in ((f"{name}.self_s", self_s), (f"{layer}.self_s", self_s),
                           (f"{name}.calls", 1)):
            agg[key] = agg.get(key, 0) + value
        for field, value in (s[COUNTS] or {}).items():
            key = f"{name}.{field}"
            agg[key] = max(agg.get(key, 0), value) if "max" in field else agg.get(key, 0) + value
    return agg
