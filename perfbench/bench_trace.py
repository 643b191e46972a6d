"""Spans around the layers' public entry points, recorded from outside ``src/``.

A traced repetition swaps each entry point in :data:`TARGETS` for a
wrapper that records a span (name, start, end, parent) and a few counts,
then puts the original back.  Spans stay in memory and are written out
when the run ends.  A layer's self time is its spans' duration minus the
time their child spans cover.

A target that no longer resolves (a refactor renamed or moved it) is
recorded as missing and its metrics read zero; tracing never fails the
run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "TARGETS",
    "Target",
    "Tracer",
    "inclusive_times",
    "installed",
    "self_times",
    "traced_iter",
]

#: one span: ``(name, start, end, parent index or -1)``
Span = tuple[str, float, float, int]


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds per span name, each span less the time its children cover.

    Children are the spans whose ``parent`` is the span's index in
    ``spans``; they run inside their parent and one after another, so
    their durations are subtracted as they are.
    """
    spans = list(spans)
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, float] = {}
    for (name, _, _, _), seconds in zip(spans, own):
        out[name] = out.get(name, 0.0) + seconds
    return out


def inclusive_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds per span name, children included."""
    out: dict[str, float] = {}
    for name, start, end, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


class Tracer:
    """Spans and counts recorded while wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: targets (or their count hooks) that could not be traced
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        """Close the span ``idx`` (the innermost open one)."""
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Every closed span's duration for one name, in start order."""
        return [e - s for n, s, e, _ in self.spans if n == name]

    def dump(self, path: Path) -> None:
        """Write spans, counts and missing targets as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "missing": sorted(self.missing),
                }
            )
        )


def traced_iter(tracer: Tracer, name: str, iterable: Iterable) -> Iterator:
    """Yield from ``iterable``, timing each ``next()`` as one span."""
    it = iter(iterable)
    try:
        while True:
            idx = tracer.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.end(idx)
            yield item
    finally:
        close = getattr(it, "close", None)
        if close is not None:
            close()


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    Attributes:
        span: the span name its calls record.
        module: the module to look the attribute up in.
        attr: ``"function"`` or ``"Class.method"`` inside ``module``.
            A plain function is patched where it is looked up, so name
            the module that calls it.
        count: ``(args, result, before) -> {counter: amount}``, run
            after each call.
        before: ``(args) -> snapshot`` taken before each call and
            handed to ``count``.
        iterate: name of an iterable parameter: instead of timing the
            call, time each ``next()`` the callee makes on it.
    """

    span: str
    module: str
    attr: str
    count: Callable | None = None
    before: Callable | None = None
    iterate: str | None = None


def _resolve(target: Target):
    """``(owner, name, raw attribute)``, or ``None`` if it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name)
    if raw is None:
        return None
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(fn):
        return None
    if target.iterate is not None and (
        target.iterate not in inspect.signature(fn).parameters
    ):
        return None
    return owner, name, raw


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    span = target.span
    if target.iterate is not None:
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments[target.iterate] = traced_iter(
                tracer, span, bound.arguments[target.iterate]
            )
            return fn(*bound.args, **bound.kwargs)

    elif inspect.isgeneratorfunction(fn):

        def wrapper(*args, **kwargs):
            return traced_iter(tracer, span, fn(*args, **kwargs))

    else:

        def wrapper(*args, **kwargs):
            before = target.before(args) if target.before else None
            idx = tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if target.count is not None:
                try:
                    tracer.counts.update(target.count(args, result, before))
                except Exception:  # a refactor changed what the hook reads
                    tracer.missing.add(f"{target.module}:{target.attr} (count)")
            return result

    return functools.wraps(fn)(wrapper)


@contextmanager
def installed(tracer: Tracer, targets: Iterable[Target] = ()):
    """Wrap every resolvable target for the ``with`` body, then restore."""
    restore = []
    try:
        for target in targets:
            found = _resolve(target)
            if found is None:
                tracer.missing.add(f"{target.module}:{target.attr}")
                continue
            owner, name, raw = found
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, target, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(_wrap(tracer, target, raw.__func__))
            else:
                new = _wrap(tracer, target, raw)
            restore.append((owner, name, raw))
            setattr(owner, name, new)
        yield tracer
    finally:
        for owner, name, raw in reversed(restore):
            setattr(owner, name, raw)


def _stats_bytes(args, result, before):
    stats = args[0].stats
    return {
        "scribe.raw_bytes": stats.raw_bytes,
        "scribe.compressed_bytes": stats.compressed_bytes,
    }


#: Every layer boundary a traced repetition records.  Functions are
#: patched in the module that calls them (``repro.reader.node`` imports
#: the fill/convert/transform steps by name); methods on their class.
TARGETS: tuple[Target, ...] = (
    Target(
        "pipeline.land_table",
        "repro.pipeline.session",
        "land_table",
    ),
    Target(
        "datagen.generate",
        "repro.datagen.generator",
        "TraceGenerator.generate_partition",
        count=lambda a, r, b: {"datagen.samples": len(r)},
    ),
    Target(
        "scribe.log",
        "repro.scribe.bus",
        "ScribeCluster.log_features",
        count=lambda a, r, b: {"scribe.messages": 1},
    ),
    Target(
        "scribe.log",
        "repro.scribe.bus",
        "ScribeCluster.log_event",
        count=lambda a, r, b: {"scribe.messages": 1},
    ),
    Target(
        "scribe.flush",
        "repro.scribe.bus",
        "ScribeCluster.flush",
        count=_stats_bytes,
    ),
    Target(
        "etl.join",
        "repro.etl.pipeline",
        "ETLJob.run_from_scribe",
        count=lambda a, r, b: {"etl.rows": len(r.samples)},
    ),
    Target(
        "storage.land",
        "repro.storage.hive",
        "HiveTable.land_partition",
        count=lambda a, r, b: {
            "storage.raw_bytes": r.raw_bytes,
            "storage.stored_bytes": r.compressed_bytes,
        },
    ),
    Target(
        "storage.read_stripe",
        "repro.storage.dwrf",
        "DwrfReader.read_stripe",
        before=lambda a: a[0].values_decoded,
        count=lambda a, r, b: {
            "storage.values_decoded": a[0].values_decoded - b
        },
    ),
    Target("reader.fill", "repro.reader.node", "fill_batches"),
    Target(
        "reader.convert",
        "repro.reader.node",
        "convert_rows",
        count=lambda a, r, b: {"core.values_hashed": r[1].values_hashed},
    ),
    Target("reader.transform", "repro.reader.node", "apply_transforms"),
    Target(
        "core.ikjt_from_kjt",
        "repro.core.ikjt",
        "InverseKeyedJaggedTensor.from_kjt",
        count=lambda a, r, b: {
            "core.ikjt_rows": r.batch_size,
            "core.ikjt_unique_rows": r.num_unique,
        },
    ),
    Target(
        "pipeline.tier",
        "repro.reader.tier_scheduler",
        "SharedReaderTier.run",
    ),
    Target(
        "reader.next",
        "repro.distributed.trainer",
        "DistributedTrainer.run",
        iterate="batches",
    ),
    Target(
        "trainer.step",
        "repro.distributed.trainer",
        "DistributedTrainer.run_iteration",
    ),
    Target("trainer.forward", "repro.trainer.model", "DLRM.forward"),
    Target("trainer.backward", "repro.trainer.model", "DLRM.backward"),
)
