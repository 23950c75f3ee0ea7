"""Traced run of one workload: the layers' public functions, called from here
in the order the CLI reaches them, with a span around each call.

``run.py --trace 1`` starts this in a fresh interpreter, so the vector memo
and the Chebyshev table start cold, as they do for every CLI call:

    PYTHONPATH=src python3 bench/layers.py --workload verify-n7 \\
        --trace-id verify-n7-seed1 --spans-out .bench_work/trace.json \\
        --output .bench_work/layers.bin

The spans (name, start, end, parent, trace id, self time) are kept in memory
and written to ``--spans-out`` at the end, the rendered output to
``--output`` for ``run.py`` to check.  The last stdout line is a JSON object
with the per-layer seconds and the counters.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from workloads import WORKLOADS, Workload

from tlmarkov.cli import _dump_json
from tlmarkov.diagrams import enumerate_diagrams
from tlmarkov.markov import gram, gram_exponents
from tlmarkov.ortho import (
    CheckResult,
    bareiss_det,
    change_of_basis,
    det_product,
    orthogonal_vector,
    verify_orthogonality,
)


class Tracer:
    """Spans in memory; each records the span that was open when it began."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "trace": self.trace_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self) -> dict[str, float]:
        """Duration of each span by name, as ``<name>_s``."""
        return {f"{s['name']}_s": s["end"] - s["start"] for s in self.spans}

    def with_self_time(self) -> list[dict]:
        """The spans, each with its duration minus what its children cover."""
        out = []
        for span in self.spans:
            children = sorted(
                (c["start"], c["end"]) for c in self.spans if c["parent"] == span["id"]
            )
            covered, reach = 0.0, span["start"]
            for start, end in children:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append({**span, "self": span["end"] - span["start"] - covered})
        return out


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


def vector_counters(vectors) -> dict[str, int]:
    """Size of the objects the polynomial kernels work on."""
    terms = max_degree = max_bits = 0
    for vec in vectors:
        terms += len(vec.coeffs)
        for value in vec.coeffs.values():
            for poly in (value.num, value.den):
                max_degree = max(max_degree, poly.degree)
                for c in poly.coeffs:
                    max_bits = max(max_bits, _coeff_bits(c))
    return {
        "ortho.support_terms": terms,
        "ortho.max_degree": max_degree,
        "ortho.max_coeff_bits": max_bits,
    }


def trace_verify(w: Workload, tracer: Tracer, values: dict) -> bytes:
    with tracer.span("diagrams.enumerate"):
        basis = enumerate_diagrams(w.n)
    with tracer.span("markov.gram_exponents"):
        gram_exponents(w.n)
    with tracer.span("ortho.vectors"):
        vectors = [orthogonal_vector(s) for s in basis]
    values.update(vector_counters(vectors))
    with tracer.span("ortho.verify") as span:
        report = verify_orthogonality(w.n)
    # per-check times are the report's own CheckResult.seconds
    span["checks"] = {c.name: c.seconds for c in report.checks}
    for c in report.checks:
        values[f"ortho.check.{c.name}_s"] = c.seconds
    values["ortho.verify_untimed_s"] = (span["end"] - span["start"]) - sum(
        c.seconds for c in report.checks
    )
    values["diagrams.count"] = len(basis)
    values["ortho.half_pairings"] = len(basis) ** 2
    if w.det_oracle:
        start = time.perf_counter()
        with tracer.span("markov.gram"):
            matrix = gram(w.n)
        with tracer.span("ortho.bareiss"):
            direct = bareiss_det(matrix)
        with tracer.span("ortho.det_product"):
            product = det_product(w.n)
        passed = product.is_polynomial and product.num == direct
        # the same CheckResult the CLI appends through det_oracle_check
        details = (
            f"bareiss determinant (degree {direct.degree}) equals the diagonal product"
            if passed
            else f"bareiss {direct} != product {product}"
        )
        report.checks.append(
            CheckResult("determinant-oracle", passed, time.perf_counter() - start, details)
        )
        values["ortho.det_degree"] = direct.degree
    with tracer.span("cli.render"):
        data = _dump_json(report.to_json_obj()).encode()
    # the report carries its timings, so count bytes with them zeroed
    untimed = report.to_json_obj()
    for check in untimed["checks"]:
        check["seconds"] = 0.0
    values["cli.output_bytes"] = len(_dump_json(untimed).encode())
    return data


def trace_orthogonalize(w: Workload, tracer: Tracer, values: dict) -> bytes:
    with tracer.span("diagrams.enumerate"):
        basis = enumerate_diagrams(w.n)
    with tracer.span("ortho.vectors"):
        vectors = [orthogonal_vector(s) for s in basis]
    values.update(vector_counters(vectors))
    values["diagrams.count"] = len(basis)
    with tracer.span("ortho.change_of_basis"):
        result = change_of_basis(w.n)
    with tracer.span("cli.render"):
        data = _dump_json(result.to_json()).encode()
    values["cli.output_bytes"] = len(data)
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace-id", required=True)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = Tracer(args.trace_id)
    values: dict = {}
    trace = trace_verify if workload.command == "verify" else trace_orthogonalize
    with tracer.span(f"cli.{workload.command}"):
        data = trace(workload, tracer, values)
    values.update(tracer.seconds())
    with open(args.output, "wb") as handle:
        handle.write(data)
    with open(args.spans_out, "w", encoding="utf-8") as handle:
        json.dump({"trace": args.trace_id, "spans": tracer.with_self_time()}, handle, indent=1)
    print(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
