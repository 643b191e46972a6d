"""Property wall for the dedup hot path (Hypothesis).

The streaming pipeline ships deduplicated IKJT batches and expands them
only after the pooled embedding lookup, so the whole bit-identity story
rests on three algebraic contracts of :mod:`repro.core.dedup` and
:class:`~repro.core.InverseKeyedJaggedTensor`:

* **inverse round-trip** — ``rows[unique][inverse] == rows`` for any
  batch, single-feature or grouped;
* **idempotence** — deduplicating an already-unique batch is the
  identity (``unique == arange``, ``inverse == arange``);
* **collapse→expand identity** — ``from_kjt(kjt, keys).to_kjt()``
  restores the duplicate-bearing KJT bit-for-bit, and the analytic
  ``expanded_nbytes`` equals what the restored KJT actually carries.

* **reference agreement** — the column-at-a-time grouping returns exactly
  the ``(unique_indices, inverse)`` of the straightforward per-row
  bytes-key loop kept below as :func:`reference_grouped_rows`.

The edge-case unit tests at the bottom pin the exact error messages and
empty/single-row behaviour of the characterization helpers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    InverseKeyedJaggedTensor,
    JaggedTensor,
    KeyedJaggedTensor,
    dedup_grouped_rows,
    dedup_rows,
    exact_duplicate_fraction,
    measured_dedupe_factor,
    partial_duplicate_fraction,
)

# A row drawn from a tiny alphabet of short lists, so generated batches
# actually contain duplicates (the interesting regime) while still
# exercising empty rows and empty batches.
_row = st.lists(st.integers(min_value=0, max_value=5), max_size=4)
_batch = st.lists(_row, max_size=12)


def _gather(jt: JaggedTensor, indices: np.ndarray) -> list[list]:
    return [jt.row(int(i)).tolist() for i in indices]


def reference_grouped_rows(tensors):
    """The per-row bytes-key loop: the plainest correct grouping."""
    n = tensors[0].num_rows
    seen = {}
    unique = []
    inverse = np.empty(n, dtype=np.int64)
    for i in range(n):
        key = tuple(t.row(i).tobytes() for t in tensors)
        pos = seen.get(key)
        if pos is None:
            pos = len(unique)
            seen[key] = pos
            unique.append(i)
        inverse[i] = pos
    return np.asarray(unique, dtype=np.int64), inverse


def _assert_matches_reference(tensors, got=None):
    unique, inverse = got if got is not None else dedup_grouped_rows(tensors)
    want_unique, want_inverse = reference_grouped_rows(tensors)
    assert unique.dtype == np.int64 and inverse.dtype == np.int64
    np.testing.assert_array_equal(unique, want_unique)
    np.testing.assert_array_equal(inverse, want_inverse)


# rows that differ only by trailing zeros or emptiness: equal once padded,
# so only the stored length tells them apart
_prefix_row = st.sampled_from([[], [0], [1, 2], [1, 2, 0], [1, 2, 0, 0], [0, 0]])


class TestMatchesReferenceLoop:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.one_of(_row, _prefix_row), max_size=12))
    def test_single_feature(self, rows):
        jt = JaggedTensor.from_lists(rows)
        _assert_matches_reference([jt])
        _assert_matches_reference([jt], got=dedup_rows(jt))

    @settings(max_examples=100, deadline=None)
    @given(
        base=st.lists(st.one_of(_row, _prefix_row), max_size=12),
        data=st.data(),
    )
    def test_group_with_one_member_differing(self, base, data):
        """Members agree everywhere but on the rows one member perturbs."""
        n_members = data.draw(st.integers(min_value=2, max_value=3))
        members = [list(base) for _ in range(n_members)]
        odd = data.draw(st.integers(min_value=0, max_value=n_members - 1))
        for i in range(len(base)):
            if data.draw(st.booleans()):
                members[odd][i] = data.draw(st.one_of(_row, _prefix_row))
        _assert_matches_reference(
            [JaggedTensor.from_lists(rows) for rows in members]
        )

    @settings(max_examples=60, deadline=None)
    @given(rows=_batch, data=st.data())
    def test_mixed_dtypes_compare_bytes(self, rows, data):
        """A float member groups by its exact bytes, like the loop."""
        floats = [
            [data.draw(st.sampled_from([0.0, -0.0, 1.5])) for _ in r]
            for r in rows
        ]
        _assert_matches_reference(
            [
                JaggedTensor.from_lists(rows),
                JaggedTensor.from_lists(floats, dtype=np.float32),
            ]
        )

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[]],
            [[7]],
            [[], []],
            [[1, 2], [1, 2, 0], [1, 2], [], [1, 2, 0]],
            [[0], [], [0, 0], [], [0]],
        ],
        ids=["n0", "n1-empty", "n1", "all-empty", "prefix", "zeros"],
    )
    def test_edge_batches(self, rows):
        _assert_matches_reference([JaggedTensor.from_lists(rows)])
        _assert_matches_reference(
            [JaggedTensor.from_lists(rows), JaggedTensor.from_lists(rows)]
        )

    def test_prefix_equal_rows_stay_apart(self):
        unique, inverse = dedup_rows(
            JaggedTensor.from_lists([[1, 2], [1, 2, 0], [1, 2]])
        )
        np.testing.assert_array_equal(unique, [0, 1])
        np.testing.assert_array_equal(inverse, [0, 1, 0])


class TestInverseRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(rows=_batch)
    def test_single_feature_gather_restores_rows(self, rows):
        jt = JaggedTensor.from_lists(rows)
        unique, inverse = dedup_rows(jt)
        assert inverse.shape == (jt.num_rows,)
        assert _gather(jt, unique[inverse]) == jt.to_lists()

    @settings(max_examples=60, deadline=None)
    @given(rows_a=_batch, seed=st.integers(min_value=0, max_value=2**16))
    def test_grouped_gather_restores_every_member(self, rows_a, seed):
        rng = np.random.default_rng(seed)
        rows_b = [
            [int(v) for v in rng.integers(0, 3, size=len(r) % 3)]
            for r in rows_a
        ]
        group = [
            JaggedTensor.from_lists(rows_a),
            JaggedTensor.from_lists(rows_b),
        ]
        unique, inverse = dedup_grouped_rows(group)
        for jt in group:
            assert _gather(jt, unique[inverse]) == jt.to_lists()

    @settings(max_examples=60, deadline=None)
    @given(rows=_batch)
    def test_unique_indices_are_first_occurrences(self, rows):
        jt = JaggedTensor.from_lists(rows)
        unique, inverse = dedup_rows(jt)
        # first-appearance order: strictly increasing, and each unique
        # row's first reference in inverse is at the row itself.
        assert np.all(np.diff(unique) > 0) if unique.size > 1 else True
        for pos, row_idx in enumerate(unique):
            assert inverse[row_idx] == pos


class TestIdempotence:
    @settings(max_examples=60, deadline=None)
    @given(rows=_batch)
    def test_dedup_of_deduped_batch_is_identity(self, rows):
        jt = JaggedTensor.from_lists(rows)
        unique, _ = dedup_rows(jt)
        deduped = JaggedTensor.from_lists(_gather(jt, unique))
        unique2, inverse2 = dedup_rows(deduped)
        np.testing.assert_array_equal(unique2, np.arange(deduped.num_rows))
        np.testing.assert_array_equal(inverse2, np.arange(deduped.num_rows))
        assert measured_dedupe_factor(deduped) == 1.0

    def test_all_unique_batch_identity(self):
        jt = JaggedTensor.from_lists([[1], [2], [3]])
        unique, inverse = dedup_rows(jt)
        np.testing.assert_array_equal(unique, [0, 1, 2])
        np.testing.assert_array_equal(inverse, [0, 1, 2])
        assert measured_dedupe_factor(jt) == 1.0


class TestCollapseExpand:
    @settings(max_examples=60, deadline=None)
    @given(rows=_batch, seed=st.integers(min_value=0, max_value=2**16))
    def test_from_kjt_to_kjt_is_identity(self, rows, seed):
        rng = np.random.default_rng(seed)
        kjt = KeyedJaggedTensor(
            {
                "hist": JaggedTensor.from_lists(rows),
                "item": JaggedTensor.from_lists(
                    [
                        [int(v) for v in rng.integers(0, 4, size=2)]
                        for _ in rows
                    ]
                ),
            }
        )
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt)
        restored = ikjt.to_kjt()
        assert restored == kjt

    @settings(max_examples=60, deadline=None)
    @given(rows=_batch)
    def test_expanded_nbytes_matches_restored_kjt(self, rows):
        kjt = KeyedJaggedTensor({"hist": JaggedTensor.from_lists(rows)})
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt)
        restored = ikjt.to_kjt()
        actual = sum(jt.nbytes for _, jt in restored.items())
        assert ikjt.expanded_nbytes == actual
        # Dedup never grows the wire payload.
        assert ikjt.wire_nbytes <= ikjt.expanded_nbytes

    @settings(max_examples=60, deadline=None)
    @given(rows=_batch)
    def test_dedupe_factor_matches_measured(self, rows):
        jt = JaggedTensor.from_lists(rows)
        kjt = KeyedJaggedTensor({"hist": jt})
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt)
        assert ikjt.dedupe_factor() == pytest.approx(
            measured_dedupe_factor(jt)
        )


class TestEdgeCases:
    """Exact-message and empty/single-row contracts of the helpers."""

    def test_grouped_rejects_empty_group(self):
        with pytest.raises(
            ValueError, match="need at least one tensor in the group"
        ):
            dedup_grouped_rows([])

    def test_grouped_rejects_mismatched_batch_sizes(self):
        with pytest.raises(
            ValueError, match="group members must share a batch size"
        ):
            dedup_grouped_rows(
                [
                    JaggedTensor.from_lists([[1], [2]]),
                    JaggedTensor.from_lists([[1]]),
                ]
            )

    def test_exact_fraction_rejects_misaligned_inputs(self):
        with pytest.raises(
            ValueError, match="rows and session_ids must align"
        ):
            exact_duplicate_fraction([[1], [2]], [0])

    def test_partial_fraction_rejects_misaligned_inputs(self):
        with pytest.raises(
            ValueError, match="rows and session_ids must align"
        ):
            partial_duplicate_fraction([[1]], [0, 1])

    def test_exact_fraction_empty_inputs(self):
        assert exact_duplicate_fraction([], []) == 0.0

    def test_exact_fraction_accepts_numpy_rows(self):
        # Regression: a numpy ``rows`` array used to trip the ambiguous
        # truth-value check that guarded the empty case.
        rows = np.array([[1, 2], [1, 2], [3, 4]])
        sids = np.array([0, 0, 0])
        assert exact_duplicate_fraction(rows, sids) == pytest.approx(1 / 3)

    def test_exact_fraction_empty_numpy_rows(self):
        assert exact_duplicate_fraction(
            np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
        ) == 0.0

    def test_exact_fraction_single_row_is_never_duplicate(self):
        assert exact_duplicate_fraction([[1, 2, 3]], [7]) == 0.0

    def test_partial_fraction_empty_inputs(self):
        assert partial_duplicate_fraction([], []) == 0.0

    def test_partial_fraction_all_empty_rows(self):
        assert partial_duplicate_fraction([[], []], [0, 1]) == 0.0

    def test_partial_fraction_single_row(self):
        # One row, one session: 2 extra copies of "1" in 4 IDs.
        assert partial_duplicate_fraction(
            [[1, 1, 1, 2]], [3]
        ) == pytest.approx(0.5)

    def test_measured_factor_empty_tensor(self):
        assert measured_dedupe_factor(JaggedTensor.empty(0)) == 1.0

    def test_measured_factor_all_empty_rows(self):
        assert measured_dedupe_factor(JaggedTensor.empty(5)) == 1.0

    def test_measured_factor_single_row(self):
        assert measured_dedupe_factor(
            JaggedTensor.from_lists([[1, 2, 3]])
        ) == 1.0

    def test_measured_factor_duplicated_rows(self):
        jt = JaggedTensor.from_lists([[1, 2], [1, 2], [1, 2], [9]])
        # 7 original values, 3 after dedup.
        assert measured_dedupe_factor(jt) == pytest.approx(7 / 3)
