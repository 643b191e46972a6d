"""The three workloads: ``land``, ``scan`` and ``train``.

Each workload drives one path of the RecD pipeline through the layers'
public functions on RM1 at scale 0.5 with the RecD layout (O1 session
sharding + O2 clustering), on the deterministic in-process executor:

* ``land`` — the write path: datagen -> scribe -> ETL -> DWRF landing
  (``land_table``), no reader and no trainer.  Every repetition lands a
  fresh seed, so nothing landed before can be reused.
* ``scan`` — the read path: repeated ``ReaderFleet.iter_epoch`` scans of
  a few landed tables with the dedup (IKJT) config; the consumer only
  counts samples.  DWRF decode, fill/convert/transform and IKJT dedup do
  all the work.
* ``train`` — the compute path: ``Session.prepare()`` (set-up) then
  ``tier.run()`` (timed), shared-tier batches into the DLRM trainer.

A workload exposes ``setup`` (untimed, once), ``prepare(rep, data)``
(untimed, per repetition; ``data`` picks the repetition's input, so a
traced run can give an untraced and a traced repetition the same one),
``run`` (the timed call; returns the samples it moved), ``check``
(untimed, per repetition) and ``final_checks``.  Set-up times go to
``setup_times``; the stored bytes and rows of the first
:data:`STORED_TABLES` tables to ``stored_bytes``/``stored_samples``.

Throughput depends on the data: a table's session mix sets how much
dedup saves.  So ``scan`` and ``train`` spread each run over several
independently seeded tables rather than scanning one.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.datagen import rm1
from repro.pipeline import RecDToggles
from repro.pipeline import session as session_mod
from repro.pipeline.spec import DataSpec, JobSpec, ReaderSpec, TrainSpec
from repro.reader.fleet import ReaderFleet

from bench_stats import Checks
from bench_trace import traced_iter

__all__ = ["WORKLOADS"]

WORKLOAD = rm1(scale=0.5)
RECD_LAYOUT = RecDToggles(o1_shard_by_session=True, o2_cluster_table=True)
#: tables whose stored bytes count toward ``stored_bytes_per_sample``: a
#: fixed number, so the figure depends on the seed alone and not on how
#: many repetitions fit into the run
STORED_TABLES = 8

def rep_seed(seed: int, k: int) -> int:
    """The data seed of repetition (or set-up) ``k`` of a run."""
    return seed * 1000 + k


def job_spec(
    seed: int,
    sessions: int,
    *,
    partitions: int = 1,
    dedup: bool = True,
    epochs: int = 1,
    batches: int | None = None,
) -> JobSpec:
    """An RM1 RecD-layout job on the deterministic in-process reader."""
    return JobSpec(
        DataSpec(
            WORKLOAD,
            toggles=RECD_LAYOUT,
            num_sessions=sessions,
            num_partitions=partitions,
            seed=seed,
        ),
        reader=ReaderSpec(dedup=dedup, executor="inprocess"),
        train=TrainSpec(train_epochs=epochs, train_batches=batches),
    )


def rows_equal(a, b) -> bool:
    """Whether two row lists hold the same samples, field by field."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (
            x.sample_id != y.sample_id
            or x.session_id != y.session_id
            or x.timestamp != y.timestamp
            or x.label != y.label
            or x.dense != y.dense
            or x.sparse.keys() != y.sparse.keys()
        ):
            return False
        if not all(np.array_equal(x.sparse[k], y.sparse[k]) for k in x.sparse):
            return False
    return True


def _land(spec: JobSpec):
    """Land a job's table; returns ``(table, partitions, rows)``.

    Looked up on the module at call time so a traced run sees the
    wrapped entry point.
    """
    table, _, _, partitions, rows = session_mod.land_table(spec)
    return table, partitions, rows


def reader_report(fleet) -> dict[str, float]:
    """Per-layer reader counts and modeled seconds from a fleet report."""
    merged = fleet.merged
    return {
        "reader.batches": merged.batches,
        "reader.read_bytes": merged.read_bytes,
        "reader.send_bytes": merged.send_bytes,
        "reader.expanded_bytes": merged.expanded_bytes,
        "reader.fill_modeled_s": merged.cpu.fill,
        "reader.convert_modeled_s": merged.cpu.convert,
        "reader.transform_modeled_s": merged.cpu.process,
    }


class Workload:
    """Shared state: seed, set-up times, stored-bytes tally."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.setup_times: list[float] = []
        self.stored_bytes = 0
        self.stored_samples = 0

    def _tally(self, index: int, partitions, rows) -> None:
        if index < STORED_TABLES:
            self.stored_bytes += sum(p.compressed_bytes for p in partitions)
            self.stored_samples += len(rows)

    def setup(self) -> None:
        """Untimed set-up and warm-up, once per run."""

    def report(self, out) -> dict[str, float]:
        """Program-side counts and modeled seconds for one repetition."""
        return {}

    def final_checks(self, checks: Checks) -> None:
        """Checks made once, after the timed repetitions."""


class Land(Workload):
    """The write path; each repetition lands a fresh seed."""

    SESSIONS = 200
    PARTITIONS = 2
    #: warm-up landings per run; ``setup_s`` is their median
    SETUPS = 3
    WARMUP_SESSIONS = 60

    def setup(self) -> None:
        # The write path has no input to prepare; its set-up is a warm-up
        # landing, so a faster land path moves it as well.  The warm-up
        # table is the same for every seed: it is not the workload's
        # input, and a fixed one keeps seed-to-seed data variance out of
        # setup_s.
        spec = job_spec(rep_seed(0, 900), self.WARMUP_SESSIONS)
        for _ in range(self.SETUPS):
            t0 = time.perf_counter()
            _land(spec)
            self.setup_times.append(time.perf_counter() - t0)

    def prepare(self, k: int, data: int) -> JobSpec:
        # Always a fresh seed: a memo of landed tables must not hit here.
        return job_spec(
            rep_seed(self.seed, k), self.SESSIONS, partitions=self.PARTITIONS
        )

    def run(self, spec: JobSpec, tracer=None):
        table, partitions, rows = _land(spec)
        return len(rows), (table, partitions, rows)

    def check(self, k: int, out, checks: Checks) -> None:
        table, partitions, rows = out
        self._tally(k, partitions, rows)
        # Read one partition back per repetition, alternating.
        idx = k % len(partitions)
        start = sum(p.num_rows for p in partitions[:idx])
        part = partitions[idx]
        checks.expect(
            rows_equal(
                table.read_partition(part.name),
                rows[start : start + part.num_rows],
            ),
            f"land rep {k}: partition {part.name} reads back different rows",
        )


class Scan(Workload):
    """The read path over a few landed tables, scanned in turn."""

    TABLES = 8
    SESSIONS = 75
    #: compare every n-th batch against the dedup-off conversion
    SAMPLE_EVERY = 3

    def setup(self) -> None:
        self.tables = []
        for i in range(self.TABLES):
            spec = job_spec(rep_seed(self.seed, i), self.SESSIONS)
            t0 = time.perf_counter()
            table, partitions, rows = _land(spec)
            self.setup_times.append(time.perf_counter() - t0)
            self._tally(i, partitions, rows)
            batch = spec.effective_batch_size
            expected = sum(p.num_rows // batch for p in partitions) * batch
            self.tables.append((table, [p.name for p in partitions], expected))
        self.config = spec.dataloader_config()
        # The first epoch runs markedly slower than later ones.
        for i in range(self.TABLES):
            self.run(self.prepare(i, i))

    def prepare(self, k: int, data: int):
        fleet = ReaderFleet(1, self.config, executor="inprocess")
        return fleet, self.tables[data % self.TABLES]

    def run(self, job, tracer=None):
        fleet, (table, partitions, expected) = job
        batches = fleet.iter_epoch(table, partitions)
        if tracer is not None:
            batches = traced_iter(tracer, "reader.next", batches)
        n = 0
        for batch in batches:
            n += batch.batch_size
        return n, (fleet.report, expected)

    def check(self, k: int, out, checks: Checks) -> None:
        report, expected = out
        checks.expect(
            report.merged.samples == expected,
            f"scan rep {k}: {report.merged.samples} samples, "
            f"expected {expected}",
        )

    def report(self, out) -> dict[str, float]:
        return reader_report(out[0])

    def final_checks(self, checks: Checks) -> None:
        table, partitions, _ = self.tables[0]
        dedup = ReaderFleet(1, self.config, executor="inprocess")
        plain = ReaderFleet(1, self.config.without_dedup(), executor="inprocess")
        pairs = zip(
            dedup.iter_epoch(table, partitions),
            plain.iter_epoch(table, partitions),
        )
        for i, (got, want) in enumerate(pairs):
            if i % self.SAMPLE_EVERY:
                continue
            ok = (
                np.array_equal(got.dense, want.dense)
                and np.array_equal(got.labels, want.labels)
                and all(got.kjt[k] == want.kjt[k] for k in got.kjt.keys)
                and all(
                    jt == want.kjt[key]
                    for ikjt in got.ikjts
                    for key, jt in ikjt.to_kjt().items()
                )
            )
            checks.expect(
                ok, f"scan batch {i}: IKJT expands to different values"
            )


class Train(Workload):
    """The compute path: a prepared session's shared tier into the trainer.

    Each repetition trains one epoch over its own freshly seeded table,
    so a run's throughput averages over many session mixes.
    """

    SESSIONS = 60
    #: leading steps compared bitwise against a dedup-off rerun
    COMPARE_STEPS = 3

    def setup(self) -> None:
        warm = job_spec(rep_seed(self.seed, 900), 40, batches=2)
        session_mod.Session(warm).run()

    def prepare(self, k: int, data: int):
        spec = job_spec(rep_seed(self.seed, data), self.SESSIONS)
        t0 = time.perf_counter()
        session = session_mod.Session(spec)
        session.prepare()
        self.setup_times.append(time.perf_counter() - t0)
        return session

    def run(self, session, tracer=None):
        session.tier.run()
        runtime = session.runtime(session.names[0])
        steps = len(runtime.trainer.report.iterations)
        return steps * runtime.spec.effective_batch_size, session

    def check(self, k: int, out, checks: Checks) -> None:
        runtime = out.runtime(out.names[0])
        self._tally(k, runtime.partitions, runtime.samples)
        losses = runtime.trainer.report.losses
        batch = runtime.spec.effective_batch_size
        expected = sum(p.num_rows // batch for p in runtime.partitions)
        checks.expect(
            len(losses) == expected,
            f"train rep {k}: {len(losses)} steps, expected {expected}",
        )
        checks.expect(
            all(math.isfinite(x) for x in losses),
            f"train rep {k}: non-finite loss",
        )
        if k == 0:
            self.first_losses = losses[: self.COMPARE_STEPS]

    def report(self, out) -> dict[str, float]:
        name = out.names[0]
        counts = reader_report(out.tier.job_fleets[name])
        iterations = out.runtime(name).trainer.report.iterations
        counts["trainer.step_modeled_s"] = sum(
            it.iteration_seconds for it in iterations
        )
        return counts

    def final_checks(self, checks: Checks) -> None:
        spec = job_spec(
            rep_seed(self.seed, 0),
            self.SESSIONS,
            dedup=False,
            batches=self.COMPARE_STEPS,
        )
        plain = session_mod.Session(spec).run().training.losses
        for i, (got, want) in enumerate(zip(self.first_losses, plain)):
            checks.expect(
                got == want,
                f"train step {i}: dedup loss {got!r} != dedup-off {want!r}",
            )
        checks.expect(
            len(plain) == self.COMPARE_STEPS,
            f"train dedup-off rerun ran {len(plain)} steps",
        )


WORKLOADS = {"land": Land, "scan": Scan, "train": Train}
