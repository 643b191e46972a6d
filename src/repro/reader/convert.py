"""Feature Conversion: filled columns -> KJT / IKJT tensors (O3, §4.2).

The convert step turns a filled columnar batch
(:class:`~repro.storage.dwrf.RowBlock`) into structured tensors, one
column at a time: each sparse feature's ``(offsets, values)`` pair
becomes a :class:`~repro.core.jagged.JaggedTensor` directly, with no
per-row objects.  Features listed in ``dedup_sparse_features`` are
deduplicated into (grouped) IKJTs by hashing row values during
conversion; everything else becomes plain KJTs.  Work accounting:

* every value of a dedup-group feature is *hashed* (the O3 overhead
  measured at +21/37/11% convert time in Fig 10);
* only unique values are *copied* for dedup groups; all values are
  copied for plain features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ikjt import InverseKeyedJaggedTensor
from ..core.jagged import JaggedTensor
from ..core.kjt import KeyedJaggedTensor
from ..core.partial import PartialKeyedJaggedTensor
from ..storage.dwrf import RowBlock
from .batch import Batch
from .config import DataLoaderConfig

__all__ = ["ConvertStats", "convert_rows"]


@dataclass
class ConvertStats:
    """Work units the cost model turns into convert-CPU seconds."""

    values_copied: int = 0
    values_hashed: int = 0

    def merge(self, other: "ConvertStats") -> None:
        """Fold another batch's convert work units into this one."""
        self.values_copied += other.values_copied
        self.values_hashed += other.values_hashed


def convert_rows(
    block: RowBlock, config: DataLoaderConfig
) -> tuple[Batch, ConvertStats]:
    """Convert one filled batch into tensors per the job config.

    Dense features are cast column by column to float32 (a feature the
    block lacks is 0.0); each KJT/IKJT group is assembled from the
    block's jagged columns (a feature the block lacks is all empty rows).
    """
    n = block.num_rows
    if n == 0:
        raise ValueError("cannot convert an empty batch")
    stats = ConvertStats()

    dense = np.zeros((n, len(config.dense_features)), dtype=np.float32)
    for j, name in enumerate(config.dense_features):
        if name in block.dense:
            dense[:, j] = block.dense[name]
    labels = block.label.astype(np.float32)

    jagged: dict[str, JaggedTensor] = {}

    def keyed(keys) -> KeyedJaggedTensor:
        for k in keys:
            if k not in jagged:
                if k in block.sparse:
                    offsets, values = block.sparse[k]
                    jagged[k] = JaggedTensor(values, offsets)
                else:
                    jagged[k] = JaggedTensor.empty(n)
        return KeyedJaggedTensor({k: jagged[k] for k in keys})

    kjt = None
    if config.sparse_features:
        kjt = keyed(config.sparse_features)
        stats.values_copied += kjt.total_values

    ikjts: list[InverseKeyedJaggedTensor] = []
    for group in config.dedup_sparse_features:
        # The group's KJT view, then dedup via hashing.
        group_kjt = keyed(group)
        ikjt = InverseKeyedJaggedTensor.from_kjt(group_kjt, list(group))
        ikjts.append(ikjt)
        stats.values_hashed += group_kjt.total_values
        stats.values_copied += ikjt.total_values

    partial = None
    if config.partial_dedup_sparse_features:
        keys = list(config.partial_dedup_sparse_features)
        partial_kjt = keyed(keys)
        partial = PartialKeyedJaggedTensor.from_kjt(partial_kjt, keys)
        # partial matching scans windows: charge hashing for every value
        stats.values_hashed += partial_kjt.total_values
        stats.values_copied += partial.total_values

    return (
        Batch(dense=dense, labels=labels, kjt=kjt, ikjts=ikjts, partial=partial),
        stats,
    )
