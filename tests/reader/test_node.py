"""Tests for fill batching, the reader node pipeline, and tier planning."""

import numpy as np
import pytest

from repro.reader import (
    DataLoaderConfig,
    ReaderNode,
    fill_batches,
    readers_required,
)


class TestFillBatches:
    def test_batches_cover_rows_in_order(self, landed_table):
        table, samples = landed_table(seed=1)
        readers = table.open_readers("p")
        got = []
        for block, _ in fill_batches(readers, 64):
            got.extend(block.sample_id.tolist())
        assert got == [
            s.sample_id for s in samples[: len(got)]
        ]

    def test_drop_last(self, landed_table):
        table, samples = landed_table(seed=2)
        readers = table.open_readers("p")
        batches = list(fill_batches(readers, 50))
        assert all(block.num_rows == 50 for block, _ in batches)

    def test_keep_last(self, landed_table):
        table, samples = landed_table(seed=2)
        readers = table.open_readers("p")
        total = sum(
            block.num_rows
            for block, _ in fill_batches(readers, 50, drop_last=False)
        )
        assert total == len(samples)

    def test_incremental_stats(self, landed_table):
        table, _ = landed_table(seed=3)
        readers = table.open_readers("p")
        stats = [s for _, s in fill_batches(readers, 64)]
        assert all(s.compressed_bytes >= 0 for s in stats)
        total_comp = sum(s.compressed_bytes for s in stats)
        assert total_comp > 0
        # incremental deltas must sum to the readers' final counters
        assert total_comp <= sum(r.bytes_read for r in readers)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(fill_batches([], 0))


class TestReaderNode:
    def _config(self, dedup: bool) -> DataLoaderConfig:
        if dedup:
            return DataLoaderConfig(
                batch_size=128,
                sparse_features=("item",),
                dedup_sparse_features=(("hist",),),
                dense_features=("d",),
                transforms=("hash_modulo",),
            )
        return DataLoaderConfig(
            batch_size=128,
            sparse_features=("item", "hist"),
            dense_features=("d",),
            transforms=("hash_modulo",),
        )

    def test_pipeline_produces_batches(self, landed_table):
        table, samples = landed_table(seed=4)
        node = ReaderNode(self._config(dedup=False))
        batches = node.run_all(table.open_readers("p"))
        assert node.report.batches == len(batches)
        assert node.report.samples == 128 * len(batches)
        assert node.report.cpu.total > 0
        assert node.report.read_bytes > 0
        assert node.report.send_bytes > 0

    def test_max_batches(self, landed_table):
        table, _ = landed_table(seed=4)
        node = ReaderNode(self._config(dedup=False))
        batches = node.run_all(table.open_readers("p"), max_batches=2)
        assert len(batches) == 2

    def test_clustered_table_reduces_fill_time(self, landed_table):
        """O2 at the reader: same rows, clustered -> fewer compressed bytes
        -> less fill CPU (paper: -33..50%)."""
        base_table, _ = landed_table(seed=5)
        clus_table, _ = landed_table(clustered=True, seed=5)
        cfg = self._config(dedup=False)
        base_node, clus_node = ReaderNode(cfg), ReaderNode(cfg)
        base_node.run_all(base_table.open_readers("p"))
        clus_node.run_all(clus_table.open_readers("p"))
        assert clus_node.report.cpu.fill < base_node.report.cpu.fill
        assert clus_node.report.read_bytes < base_node.report.read_bytes

    def test_dedup_cuts_send_bytes_and_process_time(self, landed_table):
        """O3+O4 on a clustered table: deduped output is smaller on the
        wire and cheaper to preprocess, at some convert overhead."""
        table, _ = landed_table(clustered=True, seed=6)
        plain, dedup = (
            ReaderNode(self._config(dedup=False)),
            ReaderNode(self._config(dedup=True)),
        )
        plain.run_all(table.open_readers("p"))
        dedup.run_all(table.open_readers("p"))
        assert dedup.report.send_bytes < plain.report.send_bytes
        assert dedup.report.cpu.process < plain.report.cpu.process
        assert dedup.report.cpu.convert > plain.report.cpu.convert
        # net effect: higher reader throughput (Fig 7)
        assert (
            dedup.report.samples_per_cpu_second
            > plain.report.samples_per_cpu_second
        )

    def test_batches_functionally_identical(self, landed_table):
        """IKJTs encode the exact same logical data as KJTs (§6.2)."""
        table, _ = landed_table(clustered=True, seed=7)
        plain = ReaderNode(self._config(dedup=False)).run_all(
            table.open_readers("p"), max_batches=3
        )
        dedup = ReaderNode(self._config(dedup=True)).run_all(
            table.open_readers("p"), max_batches=3
        )
        for pb, db in zip(plain, dedup):
            expanded = db.to_kjt_only()
            for key in ("hist", "item"):
                assert expanded.kjt[key] == pb.kjt[key]
            np.testing.assert_array_equal(pb.labels, db.labels)


class TestTier:
    def test_provisioning(self):
        plan = readers_required(1000, 100)
        assert plan.num_readers == 11  # 10% headroom

    def test_faster_readers_fewer_nodes(self):
        slow = readers_required(1000, 100).num_readers
        fast = readers_required(1000, 179).num_readers  # 1.79x (Fig 7 RM1)
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            readers_required(-1, 10)
        with pytest.raises(ValueError):
            readers_required(10, 0)
        with pytest.raises(ValueError):
            readers_required(10, 10, headroom=0.5)

    def test_minimum_one_reader(self):
        assert readers_required(0, 100).num_readers == 1
