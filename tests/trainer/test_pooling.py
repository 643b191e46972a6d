"""Gradient-checked tests for all pooling modules."""

import numpy as np
import pytest

from repro.trainer import (
    AttentionPooling,
    EmbeddingActivations,
    MaxPooling,
    MeanPooling,
    SumPooling,
    TransformerPooling,
)


def make_acts(rng, lengths, dim):
    total = sum(lengths)
    values = rng.normal(size=(total, dim))
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    ids = rng.integers(0, 100, size=total)
    return EmbeddingActivations(values, offsets, ids)


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    fx, fg = x.ravel(), g.ravel()
    for i in range(fx.size):
        old = fx[i]
        fx[i] = old + eps
        hi = f()
        fx[i] = old - eps
        lo = f()
        fx[i] = old
        fg[i] = (hi - lo) / (2 * eps)
    return g


POOLINGS = {
    "sum": lambda dim, rng: SumPooling(),
    "mean": lambda dim, rng: MeanPooling(),
    "max": lambda dim, rng: MaxPooling(),
    "attention": lambda dim, rng: AttentionPooling(dim, rng=rng),
    "transformer": lambda dim, rng: TransformerPooling(dim, rng=rng),
}


@pytest.mark.parametrize("name", list(POOLINGS))
def test_input_gradients_match_numeric(name):
    rng = np.random.default_rng(7)
    dim = 3
    pool = POOLINGS[name](dim, rng)
    acts = make_acts(rng, [2, 0, 3, 1], dim)
    # a fixed random projection makes the scalar loss sensitive everywhere
    proj = rng.normal(size=(4, dim))

    def loss():
        return float((pool.forward(acts) * proj).sum())

    out = pool.forward(acts)
    dacts = pool.backward(proj)
    assert dacts.shape == acts.values.shape
    np.testing.assert_allclose(
        dacts, numeric_grad(loss, acts.values), atol=1e-5
    )


@pytest.mark.parametrize("name", ["attention", "transformer"])
def test_param_gradients_match_numeric(name):
    rng = np.random.default_rng(8)
    dim = 3
    pool = POOLINGS[name](dim, rng)
    acts = make_acts(rng, [3, 2], dim)
    proj = rng.normal(size=(2, dim))

    def loss():
        return float((pool.forward(acts) * proj).sum())

    pool.forward(acts)
    for p in pool.params():
        p.zero_grad()
    pool.forward(acts)
    pool.backward(proj)
    for p in pool.params():
        np.testing.assert_allclose(
            p.grad, numeric_grad(loss, p.value), atol=1e-5,
            err_msg=f"{name} param {p.shape}",
        )


@pytest.mark.parametrize("name", list(POOLINGS))
def test_empty_segments_pool_to_zero(name):
    rng = np.random.default_rng(9)
    dim = 4
    pool = POOLINGS[name](dim, rng)
    acts = make_acts(rng, [0, 2, 0], dim)
    out = pool.forward(acts)
    assert out.shape == (3, dim)
    np.testing.assert_allclose(out[0], 0.0)
    np.testing.assert_allclose(out[2], 0.0)


@pytest.mark.parametrize("name", list(POOLINGS))
def test_backward_before_forward_raises(name):
    pool = POOLINGS[name](3, np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        pool.backward(np.zeros((1, 3)))


@pytest.mark.parametrize("name", list(POOLINGS))
def test_expand_state_before_forward_raises(name):
    pool = POOLINGS[name](3, np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="expand_state before forward"):
        pool.expand_state(np.zeros(1, dtype=np.int64))


#: unique-row lengths x a surjective inverse: variable lengths, empty
#: rows (Max's -1 argmax), and a longest row shared by several copies
#: (the transformer's padded width)
EXPANSIONS = [
    ([2, 0, 3, 1], [0, 1, 2, 2, 3, 0, 2, 1]),
    ([0, 0], [1, 0, 0, 1]),
    ([4], [0, 0, 0]),
    ([1, 5, 0, 2, 5], [4, 3, 1, 1, 0, 2, 1, 4, 3]),
]


def _expand(acts, inverse):
    values = np.concatenate(
        [acts.values[acts.offsets[u]:acts.offsets[u + 1]] for u in inverse]
    )
    lengths = np.diff(acts.offsets)[inverse]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return EmbeddingActivations(values, offsets, np.zeros(len(values)))


@pytest.mark.parametrize("lengths,inverse", EXPANSIONS)
@pytest.mark.parametrize("name", list(POOLINGS))
def test_expand_state_matches_expanded_forward_bitwise(name, lengths, inverse):
    """forward(unique) -> expand_state -> backward is bitwise the
    baseline forward(expanded) -> backward: dvalues and param grads."""
    dim = 4
    inverse = np.asarray(inverse, dtype=np.int64)
    rng = np.random.default_rng(12)
    unique = make_acts(rng, lengths, dim)
    expanded = _expand(unique, inverse)
    dpooled = rng.normal(size=(inverse.size, dim))

    dedup = POOLINGS[name](dim, np.random.default_rng(3))
    base = POOLINGS[name](dim, np.random.default_rng(3))
    pooled_unique = dedup.forward(unique)
    dedup.expand_state(inverse)
    d_dedup = dedup.backward(dpooled)
    pooled_base = base.forward(expanded)
    d_base = base.backward(dpooled)

    np.testing.assert_array_equal(pooled_unique[inverse], pooled_base)
    assert d_dedup.shape == expanded.values.shape
    np.testing.assert_array_equal(d_dedup, d_base)
    for p_dedup, p_base in zip(dedup.params(), base.params()):
        np.testing.assert_array_equal(p_dedup.grad, p_base.grad)


class TestSemantics:
    def test_sum_pooling_values(self):
        acts = EmbeddingActivations(
            np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            np.array([0, 2, 3]),
            np.zeros(3, dtype=np.int64),
        )
        out = SumPooling().forward(acts)
        np.testing.assert_allclose(out, [[4.0, 6.0], [5.0, 6.0]])

    def test_mean_pooling_values(self):
        acts = EmbeddingActivations(
            np.array([[2.0], [4.0]]), np.array([0, 2]), np.zeros(2, dtype=np.int64)
        )
        np.testing.assert_allclose(MeanPooling().forward(acts), [[3.0]])

    def test_max_pooling_values(self):
        acts = EmbeddingActivations(
            np.array([[1.0, 9.0], [5.0, 2.0]]),
            np.array([0, 2]),
            np.zeros(2, dtype=np.int64),
        )
        np.testing.assert_allclose(MaxPooling().forward(acts), [[5.0, 9.0]])

    def test_attention_is_convex_combination(self):
        """Attention output lies in the convex hull of the segment rows."""
        rng = np.random.default_rng(10)
        pool = AttentionPooling(3, rng=rng)
        acts = make_acts(rng, [4], 3)
        out = pool.forward(acts)[0]
        lo = acts.values.min(axis=0) - 1e-9
        hi = acts.values.max(axis=0) + 1e-9
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_transformer_permutation_of_batch(self):
        """Permuting batch rows permutes outputs (no cross-row leakage)."""
        rng = np.random.default_rng(11)
        pool = TransformerPooling(3, rng=rng)
        a = make_acts(rng, [2, 3], 3)
        out = pool.forward(a)
        # swap the two rows
        values_swapped = np.concatenate([a.values[2:], a.values[:2]])
        b = EmbeddingActivations(
            values_swapped, np.array([0, 3, 5]), a.ids
        )
        out_swapped = pool.forward(b)
        np.testing.assert_allclose(out_swapped[0], out[1], atol=1e-12)
        np.testing.assert_allclose(out_swapped[1], out[0], atol=1e-12)

    def test_flop_counts_positive_and_scale(self):
        rng = np.random.default_rng(0)
        for name, factory in POOLINGS.items():
            pool = factory(8, rng)
            small = pool.flops(100, 8, 10)
            large = pool.flops(1000, 8, 10)
            assert 0 < small < large, name
