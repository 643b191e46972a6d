"""Tests for the DWRF-like columnar format and compression accounting."""

import struct

import numpy as np
import pytest

from repro.datagen import (
    DatasetSchema,
    DenseFeatureSpec,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
)
from repro.etl import cluster_by_session
from repro.storage import Codec, DwrfReader, DwrfWriter, IntEncoding, RowBlock


def _schema():
    return DatasetSchema(
        sparse=(
            SparseFeatureSpec("hist", avg_length=20, change_prob=0.05),
            SparseFeatureSpec("short", avg_length=2, change_prob=0.5),
        ),
        dense=(DenseFeatureSpec("hour"),),
    )


def _trace(n=40, seed=0):
    return generate_partition(_schema(), n, TraceConfig(seed=seed))


class TestRoundTrip:
    @pytest.mark.parametrize("codec", [Codec.NONE, Codec.ZLIB])
    @pytest.mark.parametrize(
        "encoding", [IntEncoding.PLAIN, IntEncoding.VARINT]
    )
    def test_full_round_trip(self, codec, encoding):
        samples = _trace(20, seed=1)
        writer = DwrfWriter(
            _schema(), stripe_rows=64, codec=codec, int_encoding=encoding
        )
        blob, stats = writer.write(samples)
        reader = DwrfReader(blob, _schema())
        got = reader.read_all()
        assert len(got) == len(samples)
        for a, b in zip(got, samples):
            assert a.sample_id == b.sample_id
            assert a.session_id == b.session_id
            assert a.label == b.label
            assert a.timestamp == pytest.approx(b.timestamp)
            np.testing.assert_array_equal(a.sparse["hist"], b.sparse["hist"])
            np.testing.assert_array_equal(a.sparse["short"], b.sparse["short"])
            assert a.dense["hour"] == pytest.approx(b.dense["hour"])

    def test_multiple_stripes(self):
        samples = _trace(30, seed=2)
        writer = DwrfWriter(_schema(), stripe_rows=7)
        blob, stats = writer.write(samples)
        reader = DwrfReader(blob, _schema())
        assert reader.num_stripes == -(-len(samples) // 7)
        assert stats.num_rows == len(samples)

    def test_single_stripe_read(self):
        samples = _trace(20, seed=3)
        writer = DwrfWriter(_schema(), stripe_rows=8)
        blob, _ = writer.write(samples)
        reader = DwrfReader(blob, _schema())
        first = reader.read_stripe(0)
        assert first.sample_id.tolist() == [
            s.sample_id for s in samples[:8]
        ]

    def test_empty_file(self):
        writer = DwrfWriter(_schema())
        blob, stats = writer.write([])
        reader = DwrfReader(blob, _schema())
        assert reader.num_stripes == 0
        assert reader.read_all() == []


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            DwrfReader(b"JUNKxxxxxxxx", _schema())

    def test_bad_stripe_index(self):
        blob, _ = DwrfWriter(_schema()).write(_trace(5))
        reader = DwrfReader(blob, _schema())
        with pytest.raises(IndexError):
            reader.read_stripe(99)

    def test_bad_stripe_rows(self):
        with pytest.raises(ValueError):
            DwrfWriter(_schema(), stripe_rows=0)


class TestAccounting:
    def test_reader_byte_counters(self):
        samples = _trace(25, seed=4)
        blob, _ = DwrfWriter(_schema(), stripe_rows=8).write(samples)
        reader = DwrfReader(blob, _schema())
        assert reader.bytes_read == 0
        reader.read_stripe(0)
        after_one = reader.bytes_read
        assert after_one > 0
        reader.read_all()
        assert reader.bytes_read > after_one
        assert reader.raw_bytes >= reader.bytes_read * 0  # both tracked
        assert reader.values_decoded > 0

    def test_compression_stats_positive(self):
        samples = _trace(30, seed=5)
        _, stats = DwrfWriter(_schema(), stripe_rows=16).write(samples)
        assert stats.raw_bytes > stats.compressed_bytes > 0
        assert stats.compression_ratio > 1.0


class TestClusteringImprovesCompression:
    def test_o2_compression_gain(self):
        """O2's core claim at the file level: clustering a partition by
        session improves the stripe compression ratio (paper: up to
        3.71x relative)."""
        samples = _trace(250, seed=6)
        writer = DwrfWriter(_schema(), stripe_rows=256)
        _, base = writer.write(samples)
        _, clustered = writer.write(cluster_by_session(samples))
        assert (
            clustered.compression_ratio > base.compression_ratio * 1.3
        ), (
            f"clustered {clustered.compression_ratio:.2f} vs "
            f"baseline {base.compression_ratio:.2f}"
        )

    def test_clustered_file_strictly_smaller(self):
        samples = _trace(250, seed=7)
        writer = DwrfWriter(_schema(), stripe_rows=256)
        blob_base, _ = writer.write(samples)
        blob_clustered, _ = writer.write(cluster_by_session(samples))
        assert len(blob_clustered) < len(blob_base)


def _stream_fields(blob: bytes, stripe: int, name: str) -> tuple[int, int, int]:
    """Byte positions of one stream: ``(count field, blob_len field,
    start of its compressed frame)``."""
    reader = DwrfReader(blob, _schema())
    pos = reader._stripe_offsets[stripe] + 10  # stripe header: <IIH
    while True:
        (name_len,) = struct.unpack_from("<H", blob, pos)
        got = blob[pos + 2 : pos + 2 + name_len].decode()
        meta = pos + 2 + name_len
        (blob_len,) = struct.unpack_from("<Q", blob, meta + 5)
        if got == name:
            return meta + 1, meta + 5, meta + 13
        pos = meta + 13 + blob_len


class TestFraming:
    """A blob with one field patched fails with a ValueError naming the
    stripe and the stream, never a bare struct.error or a silent split."""

    def _blob(self, encoding=IntEncoding.PLAIN):
        writer = DwrfWriter(
            _schema(), stripe_rows=8, codec=Codec.NONE, int_encoding=encoding
        )
        blob, _ = writer.write(_trace(6, seed=8))
        return bytearray(blob)

    def test_truncated_blob(self):
        blob = self._blob()
        with pytest.raises(ValueError, match=r"^stripe 0: byte_len \d+ at byte 10"):
            DwrfReader(bytes(blob[:30]), _schema())
        with pytest.raises(ValueError, match="stripe 0: header at byte 10"):
            DwrfReader(bytes(blob[:12]), _schema())
        with pytest.raises(ValueError, match="shorter than its header"):
            DwrfReader(b"DWRF", _schema())

    def test_byte_len_past_end(self):
        blob = self._blob()
        stripe1 = DwrfReader(bytes(blob), _schema())._stripe_offsets[1]
        struct.pack_into("<I", blob, stripe1, 10**6)
        with pytest.raises(ValueError, match=r"^stripe 1: byte_len 1000000"):
            DwrfReader(bytes(blob), _schema())

    def test_trailing_bytes(self):
        with pytest.raises(ValueError, match="3 trailing bytes"):
            DwrfReader(bytes(self._blob()) + b"xyz", _schema())

    def test_lengths_disagree_with_values(self):
        blob = self._blob()
        _, _, frame = _stream_fields(bytes(blob), 1, "s:hist:len")
        first_len = frame + 9  # compression frame: <BQ
        (n,) = struct.unpack_from("<q", blob, first_len)
        struct.pack_into("<q", blob, first_len, n + 1)
        reader = DwrfReader(bytes(blob), _schema())
        reader.read_stripe(0)
        with pytest.raises(
            ValueError,
            match=rf"^stripe 1, stream 's:hist:val': \d+ values, expected \d+",
        ):
            reader.read_stripe(1)

    def test_negative_length(self):
        blob = self._blob()
        _, _, frame = _stream_fields(bytes(blob), 0, "s:short:len")
        struct.pack_into("<q", blob, frame + 9, -1)
        with pytest.raises(
            ValueError, match="^stripe 0, stream 's:short:len': negative length"
        ):
            DwrfReader(bytes(blob), _schema()).read_stripe(0)

    def test_column_length_disagrees_with_num_rows(self):
        blob = self._blob()
        reader = DwrfReader(bytes(blob), _schema())
        stripe1 = reader._stripe_offsets[1]
        (rows,) = struct.unpack_from("<I", blob, stripe1 + 4)
        struct.pack_into("<I", blob, stripe1 + 4, rows + 1)
        with pytest.raises(
            ValueError,
            match=rf"^stripe 1, stream 's:hist:len': {rows} values, "
            rf"expected {rows + 1}$",
        ):
            DwrfReader(bytes(blob), _schema()).read_stripe(1)

    def test_stream_body_past_stripe_end(self):
        blob = self._blob()
        _, blob_len, _ = _stream_fields(bytes(blob), 0, "__label")
        struct.pack_into("<Q", blob, blob_len, 10**6)
        with pytest.raises(
            ValueError, match="^stripe 0, stream '__label': 1000000-byte body"
        ):
            DwrfReader(bytes(blob), _schema()).read_stripe(0)

    def test_missing_stream(self):
        blob = self._blob()
        at = bytes(blob).index(b"__label")
        blob[at : at + 7] = b"__lab3l"
        with pytest.raises(ValueError, match="^stripe 0: stream '__label' is missing"):
            DwrfReader(bytes(blob), _schema()).read_stripe(0)

    def test_bad_varint_stream_mid_stripe(self):
        """The stripe's varint streams decode in one pass; a count that
        disagrees with one stream in the middle names that stream."""
        blob = self._blob(IntEncoding.VARINT)
        count, _, _ = _stream_fields(bytes(blob), 1, "s:short:val")
        (n,) = struct.unpack_from("<I", blob, count)
        struct.pack_into("<I", blob, count, n + 1)
        with pytest.raises(
            ValueError,
            match=rf"^stripe 1, stream 's:short:val': varint stream holds "
            rf"{n} values, expected {n + 1}$",
        ):
            DwrfReader(bytes(blob), _schema()).read_stripe(1)


class TestRowBlock:
    def _block(self, n=20, seed=9):
        samples = _trace(10, seed=seed)[:n]
        blob, _ = DwrfWriter(_schema(), stripe_rows=64).write(samples)
        return samples, DwrfReader(blob, _schema()).read_stripe(0)

    def test_stripe_block_columns(self):
        samples, block = self._block()
        assert block.num_rows == len(samples)
        assert block.sample_id.dtype == np.int64
        assert block.timestamp.dtype == np.float64
        offsets, values = block.sparse["hist"]
        assert offsets[0] == 0 and offsets[-1] == values.size
        for i, s in enumerate(samples):
            np.testing.assert_array_equal(
                values[offsets[i] : offsets[i + 1]], s.sparse["hist"]
            )

    def test_slice_rebases_offsets_and_views(self):
        samples, block = self._block()
        part = block.slice(5, 12)
        offsets, values = part.sparse["hist"]
        assert offsets[0] == 0 and offsets[-1] == values.size
        assert np.shares_memory(values, block.sparse["hist"][1])
        got = part.to_samples()
        assert [r.sample_id for r in got] == [r.sample_id for r in samples[5:12]]
        for a, b in zip(got, samples[5:12]):
            for k in a.sparse:
                np.testing.assert_array_equal(a.sparse[k], b.sparse[k])
        assert block.slice(3, 3).num_rows == 0
        with pytest.raises(ValueError):
            block.slice(4, 100)

    def test_concat_of_slices_is_the_block(self):
        _, block = self._block()
        whole = RowBlock.concat(
            [block.slice(0, 0), block.slice(0, 7), block.slice(7, 20)]
        )
        for name, (offsets, values) in block.sparse.items():
            np.testing.assert_array_equal(whole.sparse[name][0], offsets)
            np.testing.assert_array_equal(whole.sparse[name][1], values)
        np.testing.assert_array_equal(whole.sample_id, block.sample_id)
        np.testing.assert_array_equal(whole.dense["hour"], block.dense["hour"])
        with pytest.raises(ValueError):
            RowBlock.concat([])

    def test_concat_rejects_different_keys(self):
        a = RowBlock.from_samples(_trace(2, seed=1)[:2])
        b = RowBlock.from_samples([])
        with pytest.raises(ValueError, match="different keys"):
            RowBlock.concat([a, b])

    def test_to_samples_matches_rows(self):
        samples, block = self._block()
        rows = block.to_samples()
        for got, want in zip(rows, samples):
            assert type(got.sample_id) is int and type(got.label) is int
            assert type(got.dense["hour"]) is float
            assert got.dense == {"hour": want.dense["hour"]}
            assert list(got.sparse) == ["hist", "short"]
            for k in got.sparse:
                assert got.sparse[k].dtype == np.int64
                np.testing.assert_array_equal(got.sparse[k], want.sparse[k])

    def test_from_samples_fills_missing_keys(self):
        rows = _trace(3, seed=2)[:3]
        del rows[1].sparse["hist"]
        del rows[2].dense["hour"]
        block = RowBlock.from_samples(rows)
        offsets, values = block.sparse["hist"]
        assert offsets[2] - offsets[1] == 0
        assert block.dense["hour"][2] == 0.0
        assert values.dtype == np.int64
