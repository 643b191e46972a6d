"""Tests for feature conversion (O3) and preprocessing (O4)."""

import numpy as np
import pytest

from repro.core import JaggedTensor
from repro.datagen import (
    DatasetSchema,
    DenseFeatureSpec,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
)
from repro.reader import (
    ClampValues,
    DataLoaderConfig,
    HashModulo,
    TruncateLength,
    apply_transforms,
    convert_rows,
)
from repro.storage import RowBlock


def _schema():
    return DatasetSchema(
        sparse=(
            SparseFeatureSpec("u", avg_length=8, change_prob=0.05),
            SparseFeatureSpec("v", avg_length=8, change_prob=0.05, group="g"),
            SparseFeatureSpec("w", avg_length=4, change_prob=0.05, group="g"),
        ),
        dense=(DenseFeatureSpec("d0"), DenseFeatureSpec("d1")),
    )


def _rows(n=32, seed=0):
    return generate_partition(_schema(), 4, TraceConfig(seed=seed))[:n]


class TestConvert:
    def test_plain_conversion(self):
        cfg = DataLoaderConfig(
            batch_size=8,
            sparse_features=("u", "v", "w"),
            dense_features=("d0", "d1"),
        )
        rows = _rows(8)
        batch, stats = convert_rows(RowBlock.from_samples(rows), cfg)
        assert batch.batch_size == 8
        assert batch.kjt is not None and batch.ikjts == []
        assert batch.dense.shape == (8, 2)
        assert stats.values_copied == batch.kjt.total_values
        assert stats.values_hashed == 0

    def test_dedup_conversion(self):
        cfg = DataLoaderConfig(
            batch_size=8,
            sparse_features=("u",),
            dedup_sparse_features=(("v", "w"),),
        )
        rows = _rows(8)
        batch, stats = convert_rows(RowBlock.from_samples(rows), cfg)
        assert len(batch.ikjts) == 1
        ikjt = batch.ikjts[0]
        assert ikjt.keys == ["v", "w"]
        # all group values hashed, only unique copied
        total_group = sum(
            len(r.sparse["v"]) + len(r.sparse["w"]) for r in rows
        )
        assert stats.values_hashed == total_group
        assert stats.values_copied < stats.values_hashed + batch.kjt.total_values

    def test_conversion_lossless(self):
        cfg = DataLoaderConfig(
            batch_size=16,
            dedup_sparse_features=(("u",), ("v", "w")),
        )
        rows = _rows(16)
        batch, _ = convert_rows(RowBlock.from_samples(rows), cfg)
        expanded = batch.to_kjt_only()
        for i, r in enumerate(rows):
            for key in ("u", "v", "w"):
                np.testing.assert_array_equal(
                    expanded.kjt[key].row(i), r.sparse[key]
                )

    def test_labels_and_dense(self):
        cfg = DataLoaderConfig(
            batch_size=4, sparse_features=("u",), dense_features=("d1",)
        )
        rows = _rows(4)
        batch, _ = convert_rows(RowBlock.from_samples(rows), cfg)
        np.testing.assert_array_equal(
            batch.labels, [float(r.label) for r in rows]
        )
        np.testing.assert_allclose(
            batch.dense[:, 0],
            [np.float32(r.dense["d1"]) for r in rows],
        )

    def test_empty_rows_rejected(self):
        cfg = DataLoaderConfig(batch_size=4, sparse_features=("u",))
        with pytest.raises(ValueError):
            convert_rows(RowBlock.from_samples([]), cfg)


class TestTransforms:
    def test_hash_modulo_bounds(self):
        t = HashModulo(modulus=1000)
        jt = JaggedTensor.from_lists([[123456789, 5], [99]])
        out = t.apply(jt)
        assert out.values.min() >= 0
        assert out.values.max() < 1000
        np.testing.assert_array_equal(out.offsets, jt.offsets)

    def test_hash_modulo_validation(self):
        with pytest.raises(ValueError):
            HashModulo(modulus=0)

    def test_clamp(self):
        t = ClampValues(max_id=10)
        out = t.apply(JaggedTensor.from_lists([[-5, 3, 99]]))
        np.testing.assert_array_equal(out.values, [0, 3, 10])

    def test_truncate_keeps_suffix(self):
        t = TruncateLength(max_len=2)
        out = t.apply(JaggedTensor.from_lists([[1, 2, 3, 4], [5]]))
        assert out.to_lists() == [[3, 4], [5]]

    def test_truncate_zero(self):
        t = TruncateLength(max_len=0)
        out = t.apply(JaggedTensor.from_lists([[1, 2], [3]]))
        assert out.to_lists() == [[], []]

    def test_truncate_validation(self):
        with pytest.raises(ValueError):
            TruncateLength(max_len=-1)


class TestApplyTransforms:
    def _batch(self, dedup: bool):
        if dedup:
            cfg = DataLoaderConfig(
                batch_size=16,
                dedup_sparse_features=(("u",), ("v", "w")),
                transforms=("hash_modulo",),
            )
        else:
            cfg = DataLoaderConfig(
                batch_size=16,
                sparse_features=("u", "v", "w"),
                transforms=("hash_modulo",),
            )
        rows = _rows(16)
        batch, _ = convert_rows(RowBlock.from_samples(rows), cfg)
        return batch, cfg

    def test_equivalence_dedup_vs_plain(self):
        """O4's wrapper must preserve functional semantics: transforming
        dedup slices then expanding equals transforming the full KJT."""
        plain_batch, plain_cfg = self._batch(dedup=False)
        dedup_batch, dedup_cfg = self._batch(dedup=True)
        plain_out, _ = apply_transforms(plain_batch, plain_cfg.transforms)
        dedup_out, _ = apply_transforms(dedup_batch, dedup_cfg.transforms)
        expanded = dedup_out.to_kjt_only()
        for key in ("u", "v", "w"):
            assert expanded.kjt[key] == plain_out.kjt[key]

    def test_dedup_processes_fewer_values(self):
        """O4's efficiency claim: IKJT preprocessing touches fewer values."""
        plain_batch, plain_cfg = self._batch(dedup=False)
        dedup_batch, dedup_cfg = self._batch(dedup=True)
        _, plain_stats = apply_transforms(plain_batch, plain_cfg.transforms)
        _, dedup_stats = apply_transforms(dedup_batch, dedup_cfg.transforms)
        assert dedup_stats.values_processed < plain_stats.values_processed

    def test_unknown_transform(self):
        batch, _ = self._batch(dedup=False)
        with pytest.raises(KeyError):
            apply_transforms(batch, ("nope",))

    def test_no_transforms_identity(self):
        batch, _ = self._batch(dedup=True)
        out, stats = apply_transforms(batch, ())
        assert stats.values_processed == 0
        assert out.ikjts == batch.ikjts
