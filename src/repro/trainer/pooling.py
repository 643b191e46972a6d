"""Element-wise pooling modules over jagged embedding activations (§2.2).

Sum / mean / max pooling aggregate each row's activations into one
embedding-dim vector.  All implement explicit backward passes and FLOP
counting; the FLOP count is what RecD's deduplicated compute (O7)
divides by the dedupe factor.

Deduplicated compute runs ``forward`` on an IKJT's unique rows only;
:meth:`PoolingModule.expand_state` then rewrites the saved forward state
to batch shape with pure gathers, so ``backward`` runs per batch copy
exactly as if ``forward`` had seen the expanded batch.
"""

from __future__ import annotations

import numpy as np

from ..core.jagged import offsets_from_lengths
from ..core.jagged_ops import segment_mean, segment_sum
from .embedding import EmbeddingActivations
from .params import Parameter

__all__ = ["PoolingModule", "SumPooling", "MeanPooling", "MaxPooling"]


class PoolingModule:
    """Base pooling interface: (N, D) jagged -> (B, D) pooled."""

    def forward(self, acts: EmbeddingActivations) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dpooled: np.ndarray) -> np.ndarray:
        """Return d(activations.values) of shape (N, D)."""
        raise NotImplementedError

    def expand_state(self, inverse: np.ndarray) -> None:
        """Rewrite the last forward's saved state from unique to batch rows.

        ``inverse[i]`` names the forward input row backing batch row
        ``i``.  Afterwards :meth:`backward` takes one gradient row per
        batch row and returns the batch-layout ``dvalues``, bitwise what
        it would return had :meth:`forward` run on the expanded batch:
        the rewrite only gathers, it does no float arithmetic.  Every
        unique row must be referenced (a surjective ``inverse``) so that
        padded state has the batch's width.
        """
        raise NotImplementedError

    def params(self) -> list[Parameter]:
        return []

    def flops(self, total_values: int, dim: int, batch_size: int) -> float:
        """FLOPs of one forward given ``total_values`` activation rows."""
        raise NotImplementedError


class SumPooling(PoolingModule):
    def __init__(self) -> None:
        self._offsets: np.ndarray | None = None

    def forward(self, acts: EmbeddingActivations) -> np.ndarray:
        self._offsets = acts.offsets
        return segment_sum(acts.values, acts.offsets)

    def backward(self, dpooled: np.ndarray) -> np.ndarray:
        if self._offsets is None:
            raise RuntimeError("backward before forward")
        lengths = np.diff(self._offsets)
        return np.repeat(dpooled, lengths, axis=0)

    def expand_state(self, inverse: np.ndarray) -> None:
        self._offsets = _expand_offsets(self._offsets, inverse)

    def flops(self, total_values: int, dim: int, batch_size: int) -> float:
        return float(total_values * dim)


class MeanPooling(PoolingModule):
    def __init__(self) -> None:
        self._offsets: np.ndarray | None = None

    def forward(self, acts: EmbeddingActivations) -> np.ndarray:
        self._offsets = acts.offsets
        return segment_mean(acts.values, acts.offsets)

    def backward(self, dpooled: np.ndarray) -> np.ndarray:
        if self._offsets is None:
            raise RuntimeError("backward before forward")
        lengths = np.diff(self._offsets)
        scale = 1.0 / np.maximum(lengths, 1)
        return np.repeat(dpooled * scale[:, None], lengths, axis=0)

    def expand_state(self, inverse: np.ndarray) -> None:
        self._offsets = _expand_offsets(self._offsets, inverse)

    def flops(self, total_values: int, dim: int, batch_size: int) -> float:
        return float(total_values * dim + batch_size * dim)


class MaxPooling(PoolingModule):
    """Per-dimension max; backward routes gradient to the argmax entry."""

    def __init__(self) -> None:
        self._argmax: np.ndarray | None = None  # (B, D) indices into values
        self._offsets: np.ndarray | None = None

    def forward(self, acts: EmbeddingActivations) -> np.ndarray:
        offsets = acts.offsets
        lengths = np.diff(offsets)
        num_seg = lengths.size
        dim = acts.values.shape[1] if acts.values.ndim > 1 else 1
        out = np.zeros((num_seg, dim))
        argmax = np.full((num_seg, dim), -1, dtype=np.int64)
        if acts.values.shape[0]:
            max_len = int(lengths.max())
            # pad to dense with -inf, argmax per dim, map back to flat idx
            dense = np.full((num_seg, max_len, dim), -np.inf)
            mask = np.arange(max_len)[None, :] < lengths[:, None]
            dense[mask] = acts.values
            nonempty = lengths > 0
            arg = dense.argmax(axis=1)  # (B, D)
            picked = np.take_along_axis(dense, arg[:, None, :], axis=1)[:, 0, :]
            out[nonempty] = picked[nonempty]
            flat = offsets[:-1][:, None] + arg
            argmax[nonempty] = flat[nonempty]
        self._argmax = argmax
        self._offsets = offsets
        return out

    def backward(self, dpooled: np.ndarray) -> np.ndarray:
        if self._argmax is None:
            raise RuntimeError("backward before forward")
        dvalues = np.zeros((int(self._offsets[-1]), dpooled.shape[1]))
        valid = self._argmax >= 0
        rows, dims = np.nonzero(valid)
        np.add.at(dvalues, (self._argmax[rows, dims], dims), dpooled[rows, dims])
        return dvalues

    def expand_state(self, inverse: np.ndarray) -> None:
        batch_offsets = _expand_offsets(self._offsets, inverse)
        # same within-row position, rebased from the unique row's start
        # to the batch copy's; empty rows keep their -1 marker
        shift = batch_offsets[:-1] - self._offsets[:-1][inverse]
        argmax = self._argmax[inverse]
        self._argmax = np.where(argmax >= 0, argmax + shift[:, None], -1)
        self._offsets = batch_offsets

    def flops(self, total_values: int, dim: int, batch_size: int) -> float:
        return float(total_values * dim)


def _expand_offsets(offsets: np.ndarray | None, inverse: np.ndarray) -> np.ndarray:
    """Offsets of the batch rows ``inverse`` selects out of ``offsets``."""
    if offsets is None:
        raise RuntimeError("expand_state before forward")
    return offsets_from_lengths(np.diff(offsets)[inverse])
