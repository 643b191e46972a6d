"""The columnar read path against the row path it replaced.

The reference below is the per-row pipeline the reader used to run:
decode each stream on its own, split every sparse column into one array
per row, build one :class:`Sample` per row, batch the rows in Python
lists and gather them back into jagged tensors with
``KeyedJaggedTensor.from_rows``.  Under Hypothesis, ``fill_batches`` +
``convert_rows`` must produce bitwise the same batches and the same
``FillStats``/``ConvertStats`` — empty rows, missing keys, batches that
span stripes and files, windows cut mid-stripe and ``drop_last=False``
included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ikjt import InverseKeyedJaggedTensor
from repro.core.kjt import KeyedJaggedTensor
from repro.core.partial import PartialKeyedJaggedTensor
from repro.datagen import DatasetSchema, DenseFeatureSpec, SparseFeatureSpec
from repro.datagen.session import Sample
from repro.reader import (
    Batch,
    ConvertStats,
    DataLoaderConfig,
    FillStats,
    convert_rows,
    fill_batches,
)
from repro.storage import Codec, DwrfReader, DwrfWriter, IntEncoding, RowBlock
from repro.storage.compression import decompress
from repro.storage.dwrf import (
    _FILE_HEADER,
    _LABEL,
    _SAMPLE_ID,
    _SESSION,
    _STREAM_HEADER,
    _STREAM_META,
    _STRIPE_HEADER,
    _TIMESTAMP,
)
from repro.storage.encoding import decode_int64

SCHEMA = DatasetSchema(
    sparse=(
        SparseFeatureSpec("a"),
        SparseFeatureSpec("b"),
        SparseFeatureSpec("p"),
    ),
    dense=(DenseFeatureSpec("x"), DenseFeatureSpec("y")),
)

#: job configs over SCHEMA; "c" and "z" are keys no stored row carries
CONFIGS = (
    dict(
        sparse_features=("a", "c"),
        dedup_sparse_features=(("b",),),
        partial_dedup_sparse_features=("p",),
        dense_features=("x", "z"),
    ),
    dict(dedup_sparse_features=(("a", "b"), ("c",)), dense_features=("y",)),
    dict(sparse_features=("a", "b", "p")),
)


# -- the reference row path ---------------------------------------------


class ReferenceReader:
    """Per-stream decode into one :class:`Sample` per row, with the same
    byte and value counters as :class:`DwrfReader`."""

    def __init__(self, blob: bytes, schema: DatasetSchema):
        _, _, num_stripes = _FILE_HEADER.unpack_from(blob, 0)
        self.schema = schema
        self.blob = blob
        self.offsets = []
        self.rows = []
        pos = _FILE_HEADER.size
        for _ in range(num_stripes):
            self.offsets.append(pos)
            byte_len, rows, _ = _STRIPE_HEADER.unpack_from(blob, pos)
            self.rows.append(rows)
            pos += byte_len
        self.bytes_read = self.raw_bytes = self.values_decoded = 0

    def read_stripe(self, index: int) -> list[Sample]:
        blob = self.blob
        pos = self.offsets[index]
        byte_len, num_rows, num_streams = _STRIPE_HEADER.unpack_from(blob, pos)
        self.bytes_read += byte_len
        pos += _STRIPE_HEADER.size
        columns = {}
        for _ in range(num_streams):
            (name_len,) = _STREAM_HEADER.unpack_from(blob, pos)
            pos += _STREAM_HEADER.size
            name = blob[pos : pos + name_len].decode()
            pos += name_len
            enc_id, count, blob_len = _STREAM_META.unpack_from(blob, pos)
            pos += _STREAM_META.size
            payload = decompress(blob[pos : pos + blob_len])
            pos += blob_len
            self.raw_bytes += len(payload)
            if name == _TIMESTAMP or name.startswith("d:"):
                columns[name] = np.frombuffer(payload, dtype=np.float64).copy()
            else:
                columns[name] = decode_int64(payload, count, IntEncoding(enc_id))
            self.values_decoded += count
        return self._rows_from_columns(columns, num_rows)

    def _rows_from_columns(self, columns, num_rows):
        sparse_split = {}
        for spec in self.schema.sparse:
            lengths = columns[f"s:{spec.name}:len"]
            values = columns[f"s:{spec.name}:val"]
            sparse_split[spec.name] = np.split(values, np.cumsum(lengths)[:-1])
        return [
            Sample(
                sample_id=int(columns[_SAMPLE_ID][i]),
                session_id=int(columns[_SESSION][i]),
                timestamp=float(columns[_TIMESTAMP][i]),
                label=int(columns[_LABEL][i]),
                sparse={name: lists[i] for name, lists in sparse_split.items()},
                dense={
                    d.name: float(columns[f"d:{d.name}"][i])
                    for d in self.schema.dense
                },
            )
            for i in range(num_rows)
        ]


def reference_fill(readers, batch_size, drop_last, row_start, row_stop):
    """Row-list batching over :class:`ReferenceReader` s."""
    pending = []
    prev = [0, 0, 0]

    def snapshot():
        cur = [
            sum(r.bytes_read for r in readers),
            sum(r.raw_bytes for r in readers),
            sum(r.values_decoded for r in readers),
        ]
        delta = FillStats(*(c - p for c, p in zip(cur, prev)))
        prev[:] = cur
        return delta

    pos = 0
    for reader in readers:
        for idx, stripe_rows in enumerate(reader.rows):
            lo = max(row_start - pos, 0)
            hi = stripe_rows if row_stop is None else min(stripe_rows, row_stop - pos)
            pos += stripe_rows
            if hi <= 0:
                break
            if lo >= stripe_rows:
                continue
            pending.extend(reader.read_stripe(idx)[lo:hi])
            while len(pending) >= batch_size:
                batch, pending = pending[:batch_size], pending[batch_size:]
                yield batch, snapshot()
        else:
            continue
        break
    if pending and not drop_last:
        yield pending, snapshot()


def reference_convert(rows, config):
    """Per-row gather into KJTs/IKJTs via ``from_rows``."""
    stats = ConvertStats()
    dense = np.array(
        [[r.dense.get(name, 0.0) for name in config.dense_features] for r in rows],
        dtype=np.float32,
    ).reshape(len(rows), len(config.dense_features))
    labels = np.array([r.label for r in rows], dtype=np.float32)
    kjt = None
    if config.sparse_features:
        kjt = KeyedJaggedTensor.from_rows(
            [r.sparse for r in rows], keys=config.sparse_features
        )
        stats.values_copied += kjt.total_values
    ikjts = []
    for group in config.dedup_sparse_features:
        group_kjt = KeyedJaggedTensor.from_rows([r.sparse for r in rows], keys=group)
        ikjt = InverseKeyedJaggedTensor.from_kjt(group_kjt, list(group))
        ikjts.append(ikjt)
        stats.values_hashed += group_kjt.total_values
        stats.values_copied += ikjt.total_values
    partial = None
    if config.partial_dedup_sparse_features:
        keys = list(config.partial_dedup_sparse_features)
        partial_kjt = KeyedJaggedTensor.from_rows([r.sparse for r in rows], keys=keys)
        partial = PartialKeyedJaggedTensor.from_kjt(partial_kjt, keys)
        stats.values_hashed += partial_kjt.total_values
        stats.values_copied += partial.total_values
    return (
        Batch(dense=dense, labels=labels, kjt=kjt, ikjts=ikjts, partial=partial),
        stats,
    )


# -- bitwise comparison ----------------------------------------------------


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_jagged(got, want):
    assert_same_array(got.values, want.values)
    assert_same_array(got.offsets, want.offsets)


def assert_same_batch(got: Batch, want: Batch):
    assert_same_array(got.dense, want.dense)
    assert_same_array(got.labels, want.labels)
    assert (got.kjt is None) == (want.kjt is None)
    if want.kjt is not None:
        assert got.kjt.keys == want.kjt.keys
        for k in want.kjt.keys:
            assert_same_jagged(got.kjt[k], want.kjt[k])
    assert len(got.ikjts) == len(want.ikjts)
    for g, w in zip(got.ikjts, want.ikjts):
        assert g.keys == w.keys
        assert_same_array(g.inverse_lookup, w.inverse_lookup)
        for k in w.keys:
            assert_same_jagged(g[k], w[k])
    assert (got.partial is None) == (want.partial is None)
    if want.partial is not None:
        assert got.partial.keys == want.partial.keys
        for k in want.partial.keys:
            assert_same_array(got.partial[k].values, want.partial[k].values)
            assert_same_array(
                got.partial[k].inverse_lookup, want.partial[k].inverse_lookup
            )


# -- strategies --------------------------------------------------------------

ids = st.one_of(st.integers(0, 6), st.integers(-(2**63), 2**63 - 1))
#: finite and inside float32 range, so the float32 cast never overflows
floats = st.floats(-1e38, 1e38)


@st.composite
def sample_rows(draw, max_rows=40):
    """Rows whose sparse values repeat (so dedup groups rows), with
    empty lists and missing sparse/dense keys."""
    pool = draw(st.lists(st.lists(ids, max_size=4), min_size=1, max_size=4))
    n = draw(st.integers(1, max_rows))
    rows = []
    for i in range(n):
        sparse = {}
        for key in ("a", "b", "p"):
            pick = draw(st.integers(-1, len(pool) - 1))
            if pick >= 0:  # -1 leaves the key out of the row
                sparse[key] = np.array(pool[pick], dtype=np.int64)
        dense = {
            k: draw(floats) for k in ("x", "y") if draw(st.booleans())
        }
        rows.append(
            Sample(
                sample_id=i,
                session_id=draw(st.integers(0, 3)),
                timestamp=draw(floats),
                label=draw(st.integers(0, 1)),
                sparse=sparse,
                dense=dense,
            )
        )
    return rows


@st.composite
def landed_files(draw):
    """The rows written as 1-3 DWRF files with random stripe sizes,
    stream encodings and codecs."""
    rows = draw(sample_rows())
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=2)))
    bounds = [0, *cuts, len(rows)]
    blobs = []
    for lo, hi in zip(bounds, bounds[1:]):
        writer = DwrfWriter(
            SCHEMA,
            stripe_rows=draw(st.integers(1, 12)),
            codec=draw(st.sampled_from([Codec.NONE, Codec.ZLIB])),
            int_encoding=draw(st.sampled_from(list(IntEncoding))),
        )
        blobs.append(writer.write(rows[lo:hi])[0])
    return rows, blobs


# -- tests -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    landed=landed_files(),
    batch_size=st.integers(1, 30),
    window=st.tuples(st.integers(0, 45), st.one_of(st.none(), st.integers(0, 45))),
    drop_last=st.booleans(),
    config=st.sampled_from(CONFIGS),
)
def test_fill_convert_matches_row_path(landed, batch_size, window, drop_last, config):
    _, blobs = landed
    row_start, span = window
    row_stop = None if span is None else row_start + span
    cfg = DataLoaderConfig(batch_size=batch_size, **config)
    got = list(
        fill_batches(
            [DwrfReader(b, SCHEMA) for b in blobs],
            batch_size,
            drop_last=drop_last,
            row_start=row_start,
            row_stop=row_stop,
        )
    )
    want = list(
        reference_fill(
            [ReferenceReader(b, SCHEMA) for b in blobs],
            batch_size,
            drop_last,
            row_start,
            row_stop,
        )
    )
    assert len(got) == len(want)
    for (block, got_fill), (rows, want_fill) in zip(got, want):
        assert got_fill == want_fill
        assert block.sample_id.tolist() == [r.sample_id for r in rows]
        got_batch, got_conv = convert_rows(block, cfg)
        want_batch, want_conv = reference_convert(rows, cfg)
        assert got_conv == want_conv
        assert_same_batch(got_batch, want_batch)


@settings(max_examples=100, deadline=None)
@given(rows=sample_rows(max_rows=20), config=st.sampled_from(CONFIGS))
def test_convert_from_samples_matches_row_path(rows, config):
    """In-memory rows (not landed) keep their missing keys: a missing
    sparse key is an empty row and a missing dense key is 0.0."""
    cfg = DataLoaderConfig(batch_size=len(rows), **config)
    got_batch, got_conv = convert_rows(RowBlock.from_samples(rows), cfg)
    want_batch, want_conv = reference_convert(rows, cfg)
    assert got_conv == want_conv
    assert_same_batch(got_batch, want_batch)


@settings(max_examples=50, deadline=None)
@given(landed=landed_files())
def test_read_all_matches_row_path(landed):
    for blob in landed[1]:
        reader = DwrfReader(blob, SCHEMA)
        ref = ReferenceReader(blob, SCHEMA)
        want = [r for i in range(len(ref.rows)) for r in ref.read_stripe(i)]
        got = reader.read_all()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.sample_id, g.session_id, g.label) == (
                w.sample_id,
                w.session_id,
                w.label,
            )
            assert type(g.timestamp) is float and g.timestamp == w.timestamp
            assert g.dense == w.dense
            assert list(g.sparse) == list(w.sparse)
            for k in w.sparse:
                assert_same_array(g.sparse[k], w.sparse[k])
        assert (reader.bytes_read, reader.raw_bytes, reader.values_decoded) == (
            ref.bytes_read,
            ref.raw_bytes,
            ref.values_decoded,
        )
