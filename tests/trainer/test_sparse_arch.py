"""Functional-equivalence tests for the O5–O7 sparse paths.

The paper's correctness claim (§6.2): "IKJTs encode the exact same
logical data as KJTs and thus trainers can train on the exact same
batches."  Every flag combination must produce identical pooled outputs
AND identical embedding-table gradients — bitwise, not approximately.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InverseKeyedJaggedTensor, KeyedJaggedTensor
from repro.trainer import (
    AttentionPooling,
    EmbeddingTable,
    MaxPooling,
    MeanPooling,
    SparseArch,
    SparseFeature,
    SumPooling,
    TransformerPooling,
    TrainerOptFlags,
)


def make_batch_kjt(rng, batch=12, dup_factor=3, min_len=1):
    """A KJT whose rows repeat in blocks (session-like duplication)."""
    rows = []
    current = {}
    for i in range(batch):
        if i % dup_factor == 0:
            current = {
                "f1": rng.integers(0, 50, size=rng.integers(min_len, 6)).tolist(),
                "f2": rng.integers(0, 50, size=rng.integers(min_len, 4)).tolist(),
            }
        rows.append(dict(current))
    return KeyedJaggedTensor.from_rows(rows, keys=["f1", "f2"])


def build_arch(flags, pooling_cls, seed=0):
    rng = np.random.default_rng(seed)
    dim = 4
    features = {}
    for name in ("f1", "f2"):
        table = EmbeddingTable(64, dim, np.random.default_rng(seed + hash(name) % 97), name=name)
        pool = (
            pooling_cls(dim, rng=np.random.default_rng(5))
            if pooling_cls in (AttentionPooling, TransformerPooling)
            else pooling_cls()
        )
        features[name] = SparseFeature(name, table, pool)
    return SparseArch(features, flags)


ALL_FLAG_COMBOS = [
    TrainerOptFlags(dedup_emb=a, jagged_index_select=b, dedup_compute=c)
    for a, b, c in itertools.product([False, True], repeat=3)
    if not (c and not a)  # dedup compute requires dedup emb lookups
]


POOLING_CLASSES = [
    SumPooling, MeanPooling, MaxPooling, AttentionPooling, TransformerPooling,
]


@pytest.mark.parametrize("pooling_cls", POOLING_CLASSES)
@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS)
def test_ikjt_path_matches_kjt_path(pooling_cls, flags):
    rng = np.random.default_rng(3)
    assert_ikjt_path_bitwise(make_batch_kjt(rng), pooling_cls, flags)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    batch=st.integers(min_value=1, max_value=20),
    dup_factor=st.integers(min_value=1, max_value=6),
    pooling_cls=st.sampled_from(POOLING_CLASSES),
)
def test_dedup_compute_bitwise_on_random_batches(
    seed, batch, dup_factor, pooling_cls
):
    """Deduplicated compute matches the materialized baseline bit for bit
    on any batch the reader can produce (variable lengths, empty rows,
    a longest row anywhere)."""
    rng = np.random.default_rng(seed)
    kjt = make_batch_kjt(rng, batch=batch, dup_factor=dup_factor, min_len=0)
    assert_ikjt_path_bitwise(kjt, pooling_cls, TrainerOptFlags.full())


def assert_ikjt_path_bitwise(kjt, pooling_cls, flags):
    """Pooled outputs, pooling-param grads and post-SGD tables of the IKJT
    path equal the KJT baseline's bitwise."""
    ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])

    base = build_arch(TrainerOptFlags.baseline(), pooling_cls)
    recd = build_arch(flags, pooling_cls)
    # identical initial tables by construction (same seeds)
    for t_base, t_recd in zip(base.tables(), recd.tables()):
        np.testing.assert_array_equal(t_base.weight, t_recd.weight)

    pooled_base = base.forward(kjt, [])
    pooled_recd = recd.forward(None, [ikjt])
    for a, b in zip(pooled_base, pooled_recd):
        np.testing.assert_array_equal(a, b)

    # gradients must also match after backward + sparse apply
    grads = [np.random.default_rng(9).normal(size=p.shape) for p in pooled_base]
    base.backward(grads)
    recd.backward(grads)
    for p_base, p_recd in zip(base.params(), recd.params()):
        np.testing.assert_array_equal(p_base.grad, p_recd.grad)
    for t_base, t_recd in zip(base.tables(), recd.tables()):
        t_base.apply_sgd(0.1)
        t_recd.apply_sgd(0.1)
        np.testing.assert_array_equal(t_base.weight, t_recd.weight)


class TestResourceCounters:
    def test_dedup_reduces_lookups_and_activation_bytes(self):
        """O5's claim: lookups and activation memory drop by the dedupe
        factor."""
        rng = np.random.default_rng(4)
        kjt = make_batch_kjt(rng, batch=30, dup_factor=5)
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])

        base = build_arch(TrainerOptFlags.baseline(), SumPooling)
        recd = build_arch(TrainerOptFlags.full(), SumPooling)
        base.forward(kjt, [])
        recd.forward(None, [ikjt])
        factor = ikjt.dedupe_factor()
        assert factor > 2
        assert base.counters["emb_lookups"] == pytest.approx(
            recd.counters["emb_lookups"] * factor, rel=0.01
        )
        assert recd.counters["activation_bytes"] < base.counters[
            "activation_bytes"
        ]

    def test_dedup_compute_reduces_pooling_flops(self):
        """O7's claim: pooling FLOPs drop by the dedupe factor."""
        rng = np.random.default_rng(5)
        kjt = make_batch_kjt(rng, batch=30, dup_factor=5)
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])
        with_dc = build_arch(TrainerOptFlags.full(), TransformerPooling)
        without_dc = build_arch(
            TrainerOptFlags(dedup_emb=True, jagged_index_select=True,
                            dedup_compute=False),
            TransformerPooling,
        )
        with_dc.forward(None, [ikjt])
        without_dc.forward(None, [ikjt])
        assert (
            with_dc.counters["pooling_flops"]
            < without_dc.counters["pooling_flops"] / 2
        )

    def test_dense_index_select_pays_densify_bytes(self):
        """Without O6, IKJT expansion allocates dense intermediates."""
        rng = np.random.default_rng(6)
        kjt = make_batch_kjt(rng, batch=20, dup_factor=4)
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])
        no_jis = build_arch(
            TrainerOptFlags(dedup_emb=True, jagged_index_select=False,
                            dedup_compute=False),
            SumPooling,
        )
        jis = build_arch(
            TrainerOptFlags(dedup_emb=True, jagged_index_select=True,
                            dedup_compute=False),
            SumPooling,
        )
        no_jis.forward(None, [ikjt])
        jis.forward(None, [ikjt])
        assert no_jis.counters["densify_bytes"] > 0
        assert jis.counters["densify_bytes"] == 0


class TestValidation:
    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            SparseArch({}, TrainerOptFlags.baseline())

    def test_unknown_feature_key(self):
        arch = build_arch(TrainerOptFlags.baseline(), SumPooling)
        kjt = KeyedJaggedTensor.from_rows([{"zzz": [1]}])
        with pytest.raises(KeyError):
            arch.forward(kjt, [])

    def test_no_sparse_features_in_batch(self):
        arch = build_arch(TrainerOptFlags.baseline(), SumPooling)
        with pytest.raises(ValueError):
            arch.forward(None, [])

    def test_gradient_count_mismatch(self):
        rng = np.random.default_rng(0)
        arch = build_arch(TrainerOptFlags.baseline(), SumPooling)
        kjt = make_batch_kjt(rng)
        arch.forward(kjt, [])
        with pytest.raises(ValueError):
            arch.backward([np.zeros((12, 4))])

    def test_backward_before_forward(self):
        arch = build_arch(TrainerOptFlags.baseline(), SumPooling)
        feature = arch.features["f1"]
        with pytest.raises(RuntimeError):
            feature.backward(np.zeros((1, 4)))
