"""Measured benchmark of the RecD pipeline: ``land``, ``scan`` and ``train``.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Each invocation is one fresh process running one workload.  It sets up
(untimed), warms up, then repeats the workload's timed call until
``--seconds`` of timed work have accumulated, checks the outputs outside
the timed region, and prints every metric by name with its unit.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count correctness checks.  With ``--trace 0``
the metrics are the end-to-end ones (throughput pooled over the
repetitions, ``setup_s`` the median of several set-ups,
``peak_rss_mb`` the median over repetitions of each timed call's own
peak resident memory); with
``--trace 1`` every other repetition runs with the layers' entry points
wrapped (``bench_trace.TARGETS``) and the metrics are the per-layer ones,
each per traced repetition, plus the tracing overhead measured against
the untraced repetitions of the same run (on ``scan`` and ``train`` each
traced repetition repeats the input of the untraced one before it;
``land`` always lands a fresh seed, so its overhead figure also carries
seed-to-seed variance).  The spans go to
``perfbench/out/<workload>-seed<seed>-spans.json``.

A per-layer ``*_s`` metric is the layer's self time, except
``reader.next_wait_s`` (the consumer's whole wait in ``next()``) and
``trainer.step_s`` (whole steps; their self time is
``trainer.update_s``).  A layer the workload does not run reads 0.
"""

import argparse
import ctypes
import gc
import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from bench_stats import (
    Checks,
    failed_share,
    median,
    percentile,
    samples_beyond,
)
from bench_trace import (
    TARGETS,
    Tracer,
    inclusive_times,
    installed,
    self_times,
)

#: thread pools pinned to one thread before numpy loads, so the measured
#: process never competes with its own BLAS threads for the machine's cores
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LIBC = ctypes.CDLL("libc.so.6")
#: repetitions a run makes at least, whatever ``--seconds`` says
MIN_REPS = 3

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "samples_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stored_bytes_per_sample": "B",
}

#: per-layer seconds: metric -> (span, "self" or "inclusive")
SPAN_METRICS = {
    "datagen.generate_s": ("datagen.generate", "self"),
    "scribe.log_s": ("scribe.log", "self"),
    "scribe.flush_s": ("scribe.flush", "self"),
    "etl.join_s": ("etl.join", "self"),
    "pipeline.land_self_s": ("pipeline.land_table", "self"),
    "storage.land_s": ("storage.land", "self"),
    "storage.read_stripe_s": ("storage.read_stripe", "self"),
    "reader.fill_s": ("reader.fill", "self"),
    "reader.convert_s": ("reader.convert", "self"),
    "reader.transform_s": ("reader.transform", "self"),
    "reader.next_wait_s": ("reader.next", "inclusive"),
    "core.ikjt_from_kjt_s": ("core.ikjt_from_kjt", "self"),
    "trainer.step_s": ("trainer.step", "inclusive"),
    "trainer.forward_s": ("trainer.forward", "self"),
    "trainer.backward_s": ("trainer.backward", "self"),
    "trainer.update_s": ("trainer.step", "self"),
    "pipeline.tier_self_s": ("pipeline.tier", "self"),
}

#: measured (inclusive span) over modeled seconds: ratio -> (span, modeled)
MODELED_RATIOS = {
    "reader.fill_measured_over_modeled": (
        "reader.fill",
        "reader.fill_modeled_s",
    ),
    "reader.convert_measured_over_modeled": (
        "reader.convert",
        "reader.convert_modeled_s",
    ),
    "reader.transform_measured_over_modeled": (
        "reader.transform",
        "reader.transform_modeled_s",
    ),
    "trainer.step_measured_over_modeled": (
        "trainer.step",
        "trainer.step_modeled_s",
    ),
}

#: span-name prefixes a workload's timed part must never record
FORBIDDEN_SPANS = {
    "land": ("reader.", "core.", "trainer.", "pipeline.tier"),
    "scan": (
        "datagen.",
        "scribe.",
        "etl.",
        "storage.land",
        "trainer.",
        "pipeline.",
    ),
    "train": ("datagen.", "scribe.", "etl.", "storage.land", "pipeline.land"),
}


@dataclass
class Rep:
    """One timed repetition."""

    samples: int
    wall: float
    cpu: float
    traced: bool
    #: peak resident memory during the timed call, MB
    peak_mb: float


def reset_peak_rss() -> None:
    """Lower the process's resident high-water mark to its current RSS.

    Free heap memory is first handed back to the system (glibc's
    ``malloc_trim``), so what earlier repetitions left fragmented does
    not count; then writing 5 to ``/proc/self/clear_refs`` resets
    ``VmHWM`` (Linux 4.0 and later), so each repetition's peak is its
    own rather than the largest one so far.
    """
    LIBC.malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """The resident high-water mark since the last reset, in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {name: "s" for name in SPAN_METRICS}
    units.update(
        {
            "datagen.samples": "count",
            "scribe.messages": "count",
            "scribe.compression_ratio": "ratio",
            "etl.rows": "count",
            "storage.raw_bytes": "B",
            "storage.stored_bytes": "B",
            "storage.values_decoded": "count",
            "reader.batches": "count",
            "reader.read_bytes": "B",
            "reader.send_bytes": "B",
            "reader.dedupe_byte_factor": "ratio",
            "reader.fill_modeled_s": "s",
            "reader.convert_modeled_s": "s",
            "reader.transform_modeled_s": "s",
            "core.values_hashed": "count",
            "core.unique_row_ratio": "ratio",
            "trainer.steps": "count",
            "trainer.step_ms_p50": "ms",
            "trainer.step_ms_p90": "ms",
            "trainer.step_modeled_s": "s",
            "trace.overhead_share": "ratio",
            "trace.untraced_samples_per_s": "1/s",
            "trace.traced_samples_per_s": "1/s",
            "trace.spans_per_rep": "count",
            "trace.missing_spans": "count",
            "trace.isolation_violations": "count",
        }
    )
    units.update({name: "ratio" for name in MODELED_RATIOS})
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure(workload, seconds: float, trace: bool, tracer: Tracer):
    """Set up, then run timed repetitions until ``seconds`` accumulate.

    Under ``trace`` the odd repetitions run traced, each on the same
    input as the untraced one before it; their program-side reports are
    returned for the per-layer metrics.
    """
    checks = Checks()
    workload.setup()
    reps: list[Rep] = []
    reports: list[dict] = []
    timed = 0.0
    min_reps = 2 * MIN_REPS if trace else MIN_REPS
    k = 0
    while k < min_reps or timed < seconds:
        traced = trace and k % 2 == 1
        job = workload.prepare(k, k // 2 if trace else k)
        with installed(tracer, TARGETS) if traced else nullcontext():
            root = tracer.begin("bench.rep") if traced else -1
            reset_peak_rss()
            w0, c0 = time.perf_counter(), time.process_time()
            samples, out = workload.run(job, tracer if traced else None)
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            peak_mb = peak_rss_mb()
            if traced:
                tracer.end(root)
        timed += wall
        reps.append(Rep(samples, wall, cpu, traced, peak_mb))
        workload.check(k, out, checks)
        if traced:
            reports.append(workload.report(out))
        del job, out
        # Repetitions are independent; collect the last one's reference
        # cycles here, untimed, so they do not inflate the next one's peak.
        gc.collect()
        k += 1
    workload.final_checks(checks)
    return reps, reports, checks


def throughput(reps: list[Rep], clock: str = "wall") -> float:
    """Samples over seconds, summed across repetitions.

    Repetitions run different inputs whose cost per sample differs, so
    the pooled ratio averages over all of them where a median would
    pick one.
    """
    return sum(r.samples for r in reps) / sum(getattr(r, clock) for r in reps)


def end_to_end(workload, reps: list[Rep]) -> dict[str, float]:
    """The end-to-end metrics, from the untraced repetitions."""
    plain = [r for r in reps if not r.traced]
    return {
        "samples_per_s": throughput(plain),
        "samples_per_cpu_s": throughput(plain, "cpu"),
        "setup_s": median(workload.setup_times),
        "peak_rss_mb": median([r.peak_mb for r in plain]),
        "stored_bytes_per_sample": workload.stored_bytes
        / workload.stored_samples,
    }


def isolation_violations(
    name: str, own: dict[str, float], incl: dict[str, float]
) -> list[str]:
    """Spans the workload's timed part should not have recorded, and on
    ``train`` any layer whose self time exceeds the trainer's steps."""
    bad = sorted(
        span for span in own if span.startswith(FORBIDDEN_SPANS[name])
    )
    if name == "train":
        steps = incl.get("trainer.step", 0.0)
        bad += sorted(
            f"{span} self > trainer.step"
            for span, seconds in own.items()
            if span != "trainer.step" and seconds > steps
        )
    return bad


def per_layer(
    name: str, tracer: Tracer, reps: list[Rep], reports: list[dict]
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, each per traced repetition."""
    own = self_times(tracer.spans)
    incl = inclusive_times(tracer.spans)
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    n = len(traced)
    counts = dict(tracer.counts)
    for report in reports:
        for key, value in report.items():
            counts[key] = counts.get(key, 0.0) + value

    m: dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        m[metric] = (own if kind == "self" else incl).get(span, 0.0) / n
    for key in (
        "datagen.samples",
        "scribe.messages",
        "etl.rows",
        "storage.raw_bytes",
        "storage.stored_bytes",
        "storage.values_decoded",
        "reader.batches",
        "reader.read_bytes",
        "reader.send_bytes",
        "reader.fill_modeled_s",
        "reader.convert_modeled_s",
        "reader.transform_modeled_s",
        "core.values_hashed",
        "trainer.step_modeled_s",
    ):
        m[key] = counts.get(key, 0) / n
    m["scribe.compression_ratio"] = _ratio(
        counts.get("scribe.raw_bytes", 0),
        counts.get("scribe.compressed_bytes", 0),
    )
    m["reader.dedupe_byte_factor"] = _ratio(
        counts.get("reader.expanded_bytes", 0), counts.get("reader.send_bytes", 0)
    )
    m["core.unique_row_ratio"] = _ratio(
        counts.get("core.ikjt_unique_rows", 0), counts.get("core.ikjt_rows", 0)
    )
    steps_ms = [1e3 * d for d in tracer.durations("trainer.step")]
    m["trainer.steps"] = len(steps_ms) / n
    m["trainer.step_ms_p50"] = percentile(steps_ms, 50)[0] if steps_ms else 0.0
    m["trainer.step_ms_p90"] = percentile(steps_ms, 90)[0] if steps_ms else 0.0
    for ratio, (span, modeled) in MODELED_RATIOS.items():
        m[ratio] = _ratio(incl.get(span, 0.0), counts.get(modeled, 0.0))

    untraced = throughput(plain)
    with_trace = throughput(traced)
    m["trace.untraced_samples_per_s"] = untraced
    m["trace.traced_samples_per_s"] = with_trace
    m["trace.overhead_share"] = 1.0 - with_trace / untraced
    m["trace.spans_per_rep"] = len(tracer.spans) / n
    m["trace.missing_spans"] = float(len(tracer.missing))
    violations = isolation_violations(name, own, incl)
    m["trace.isolation_violations"] = float(len(violations))
    return m, violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("land", "scan", "train")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro package under {SRC}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS  # the first import of numpy

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    trace = bool(args.trace)
    reps, reports, checks = measure(workload, args.seconds, trace, tracer)

    e2e = end_to_end(workload, reps)
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"reps {len(reps)} ({sum(r.traced for r in reps)} traced)  "
        f"checks {checks.attempted - checks.failed}/{checks.attempted} "
        f"passed  failed_share "
        f"{failed_share(checks.failed, checks.attempted):.4f}"
    )
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    for name, value in e2e.items():
        print(f"  {name:<40} {value:>14.4f} {END_TO_END_UNITS[name]}")

    if trace:
        layer, violations = per_layer(args.workload, tracer, reps, reports)
        units = per_layer_units()
        print("per traced repetition:")
        for name in sorted(layer):
            print(f"  {name:<40} {layer[name]:>14.4f} {units[name]}")
        print("measured (inclusive) vs modeled seconds, per traced repetition:")
        for ratio, (span, modeled) in MODELED_RATIOS.items():
            if not layer[modeled]:
                continue  # a layer this workload does not run
            measured = layer[ratio] * layer[modeled]
            print(
                f"  {span:<20} measured {measured:>10.4f} s  "
                f"modeled {layer[modeled]:>10.4f} s  ratio {layer[ratio]:.3f}"
            )
        for span in sorted(tracer.missing):
            print(f"  missing span: {span}")
        for violation in violations:
            print(f"  isolation: {violation}")
        steps = len(tracer.durations("trainer.step"))
        if steps:
            print(
                f"trainer step percentiles over {steps} steps "
                f"({samples_beyond(steps, 90):.1f} beyond p90)"
            )
        out = HERE / "out" / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.dump(out)
        print(f"spans written to {out.relative_to(ROOT)}")
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layer.items()}
    else:
        metrics = {
            n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in e2e.items()
        }
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
