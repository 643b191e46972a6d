"""DWRF-like columnar file format (§2.1, Dataset Schema and Storage).

Files are composed of *stripes*, each holding a small run of rows stored
as columnar streams: feature columns are flattened (one column per
feature key) and each column's values/lengths are encoded and compressed
into independent streams.  The layout reproduces what matters to RecD:

* stripe-local black-box compression — O2's clustering gains appear as
  higher stripe compression ratios because a session's duplicate rows sit
  in the same stripe;
* per-stripe reads — readers fetch and decode stripes, so smaller files
  directly reduce fill bytes and IOPS (Table 3).

A stripe decodes into a columnar :class:`RowBlock` — row metadata
arrays, one float64 array per dense column and one ``(offsets, values)``
pair per sparse feature — which the reader slices into batches and turns
into KJTs/IKJTs without building per-row objects.  Rows
(:class:`~repro.datagen.session.Sample`) are materialized only by
:meth:`RowBlock.to_samples`, i.e. by :meth:`DwrfReader.read_all` and
:meth:`~repro.storage.hive.HiveTable.read_partition`.

Binary layout (little endian)::

    file   := MAGIC u16:version u32:num_stripes stripe*
    stripe := u32:byte_len u32:num_rows u16:num_streams stream*
    stream := u16:name_len name u8:encoding u32:count u64:blob_len blob

where ``blob`` is a framed, compressed byte string
(:mod:`repro.storage.compression`) of the encoded stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..datagen.schema import DatasetSchema
from ..datagen.session import Sample
from .compression import Codec, compress, decompress
from .encoding import (
    IntEncoding,
    decode_int64,
    decode_varint_streams,
    encode_int64,
)

__all__ = ["DwrfWriter", "DwrfReader", "RowBlock", "StripeStats", "FileStats"]

MAGIC = b"DWRF"
_FILE_HEADER = struct.Struct("<4sHI")
_STRIPE_HEADER = struct.Struct("<IIH")
_STREAM_HEADER = struct.Struct("<H")
_STREAM_META = struct.Struct("<BIQ")

# Reserved stream names for row metadata columns.
_SESSION = "__session_id"
_TIMESTAMP = "__timestamp"
_LABEL = "__label"
_SAMPLE_ID = "__sample_id"


@dataclass
class StripeStats:
    """Byte and row accounting for one written stripe."""

    raw_bytes: int = 0
    compressed_bytes: int = 0
    num_rows: int = 0


@dataclass
class FileStats:
    """Aggregate accounting for one written file."""

    stripes: list[StripeStats] = field(default_factory=list)

    @property
    def raw_bytes(self) -> int:
        """Uncompressed stream bytes across every stripe."""
        return sum(s.raw_bytes for s in self.stripes)

    @property
    def compressed_bytes(self) -> int:
        """Compressed stream bytes across every stripe."""
        return sum(s.compressed_bytes for s in self.stripes)

    @property
    def num_rows(self) -> int:
        """Rows written across every stripe."""
        return sum(s.num_rows for s in self.stripes)

    @property
    def compression_ratio(self) -> float:
        """Raw over compressed bytes (1.0 for an empty file)."""
        if self.compressed_bytes == 0:
            return 1.0
        return self.raw_bytes / self.compressed_bytes


@dataclass(eq=False)
class RowBlock:
    """A run of rows held column by column — what a stripe decodes to.

    ``sparse`` maps a feature to its ``(offsets, values)`` pair in the
    N+1 offsets convention of :class:`~repro.core.jagged.JaggedTensor`
    (int64 IDs); ``dense`` maps a feature to one float64 value per row.
    Every column has :attr:`num_rows` rows.
    """

    sample_id: np.ndarray
    session_id: np.ndarray
    timestamp: np.ndarray
    label: np.ndarray
    dense: dict[str, np.ndarray]
    sparse: dict[str, tuple[np.ndarray, np.ndarray]]

    @property
    def num_rows(self) -> int:
        """Rows in the block."""
        return int(self.sample_id.size)

    def slice(self, lo: int, hi: int) -> "RowBlock":
        """Rows ``[lo, hi)`` as views of this block's columns; each
        sparse feature's offsets are rebased to start at 0."""
        if not 0 <= lo <= hi <= self.num_rows:
            raise ValueError(
                f"slice [{lo}, {hi}) out of range for {self.num_rows} rows"
            )
        sparse = {}
        for name, (offsets, values) in self.sparse.items():
            off = offsets[lo : hi + 1]
            sparse[name] = (off - off[0], values[off[0] : off[-1]])
        return RowBlock(
            sample_id=self.sample_id[lo:hi],
            session_id=self.session_id[lo:hi],
            timestamp=self.timestamp[lo:hi],
            label=self.label[lo:hi],
            dense={k: v[lo:hi] for k, v in self.dense.items()},
            sparse=sparse,
        )

    @classmethod
    def concat(cls, blocks: list["RowBlock"]) -> "RowBlock":
        """The blocks' rows back to back (a single block is returned
        as is).  Every block must carry the same dense and sparse keys."""
        if not blocks:
            raise ValueError("cannot concatenate zero blocks")
        if len(blocks) == 1:
            return blocks[0]
        first = blocks[0]
        for b in blocks[1:]:
            if b.dense.keys() != first.dense.keys() or (
                b.sparse.keys() != first.sparse.keys()
            ):
                raise ValueError("cannot concatenate blocks with different keys")
        sparse = {}
        for name in first.sparse:
            pairs = [b.sparse[name] for b in blocks]
            offsets = np.zeros(
                1 + sum(off.size - 1 for off, _ in pairs), dtype=np.int64
            )
            row = base = 0
            for off, values in pairs:
                offsets[row + 1 : row + off.size] = off[1:] + base
                row += off.size - 1
                base += values.size
            sparse[name] = (offsets, np.concatenate([v for _, v in pairs]))
        return cls(
            sample_id=np.concatenate([b.sample_id for b in blocks]),
            session_id=np.concatenate([b.session_id for b in blocks]),
            timestamp=np.concatenate([b.timestamp for b in blocks]),
            label=np.concatenate([b.label for b in blocks]),
            dense={
                k: np.concatenate([b.dense[k] for b in blocks])
                for k in first.dense
            },
            sparse=sparse,
        )

    @classmethod
    def from_samples(cls, rows: list[Sample]) -> "RowBlock":
        """Columnar form of generated rows.  Keys are the union over the
        rows in first-seen order; a row missing a sparse key gets an
        empty list, one missing a dense key gets 0.0."""
        dense_keys: dict[str, None] = {}
        sparse_keys: dict[str, None] = {}
        for r in rows:
            dense_keys.update(dict.fromkeys(r.dense))
            sparse_keys.update(dict.fromkeys(r.sparse))
        sparse = {}
        for name in sparse_keys:
            lists = [np.asarray(r.sparse.get(name, ()), dtype=np.int64) for r in rows]
            offsets = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum([a.size for a in lists], out=offsets[1:])
            values = (
                np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
            )
            sparse[name] = (offsets, values)
        return cls(
            sample_id=np.array([r.sample_id for r in rows], dtype=np.int64),
            session_id=np.array([r.session_id for r in rows], dtype=np.int64),
            timestamp=np.array([r.timestamp for r in rows], dtype=np.float64),
            label=np.array([r.label for r in rows]),
            dense={
                k: np.array([r.dense.get(k, 0.0) for r in rows], dtype=np.float64)
                for k in dense_keys
            },
            sparse=sparse,
        )

    def to_samples(self) -> list[Sample]:
        """Materialize one :class:`Sample` per row — the only place a
        block becomes row objects.  Sparse values are views of the
        block's arrays; dense values are Python floats."""
        sparse_rows = {
            name: np.split(values, offsets[1:-1])
            for name, (offsets, values) in self.sparse.items()
        }
        dense_rows = {k: v.tolist() for k, v in self.dense.items()}
        return [
            Sample(
                sample_id=sample_id,
                session_id=session_id,
                timestamp=timestamp,
                label=label,
                sparse={name: rows[i] for name, rows in sparse_rows.items()},
                dense={name: vals[i] for name, vals in dense_rows.items()},
            )
            for i, (sample_id, session_id, timestamp, label) in enumerate(
                zip(
                    self.sample_id.tolist(),
                    self.session_id.tolist(),
                    self.timestamp.tolist(),
                    self.label.tolist(),
                )
            )
        ]


def _encode_stream(
    name: str, payload: bytes, encoding: IntEncoding, count: int, codec: Codec
) -> tuple[bytes, int, int]:
    blob = compress(payload, codec)
    encoded_name = name.encode()
    head = _STREAM_HEADER.pack(len(encoded_name)) + encoded_name
    meta = _STREAM_META.pack(encoding.value, count, len(blob))
    return head + meta + blob, len(payload), len(blob)


class DwrfWriter:
    """Serializes sample rows into a DWRF-like byte blob."""

    def __init__(
        self,
        schema: DatasetSchema,
        stripe_rows: int = 1024,
        codec: Codec = Codec.ZLIB,
        int_encoding: IntEncoding = IntEncoding.VARINT,
    ):
        if stripe_rows <= 0:
            raise ValueError("stripe_rows must be positive")
        self.schema = schema
        self.stripe_rows = stripe_rows
        self.codec = codec
        self.int_encoding = int_encoding

    def write(self, samples: list[Sample]) -> tuple[bytes, FileStats]:
        """Serialize the rows into one file blob, ``stripe_rows`` rows
        per stripe; returns the blob and its per-stripe accounting."""
        stats = FileStats()
        stripes: list[bytes] = []
        for start in range(0, len(samples), self.stripe_rows):
            chunk = samples[start : start + self.stripe_rows]
            stripe, sstat = self._write_stripe(chunk)
            stripes.append(stripe)
            stats.stripes.append(sstat)
        header = _FILE_HEADER.pack(MAGIC, 1, len(stripes))
        return header + b"".join(stripes), stats

    def _write_stripe(self, rows: list[Sample]) -> tuple[bytes, StripeStats]:
        streams: list[bytes] = []
        sstat = StripeStats(num_rows=len(rows))

        def add_int(name: str, values: np.ndarray) -> None:
            payload = encode_int64(values, self.int_encoding)
            data, raw, comp = _encode_stream(
                name, payload, self.int_encoding, values.size, self.codec
            )
            streams.append(data)
            sstat.raw_bytes += raw
            sstat.compressed_bytes += comp

        def add_float(name: str, values: np.ndarray) -> None:
            payload = np.ascontiguousarray(values, dtype=np.float64).tobytes()
            data, raw, comp = _encode_stream(
                name, payload, IntEncoding.PLAIN, values.size, self.codec
            )
            streams.append(data)
            sstat.raw_bytes += raw
            sstat.compressed_bytes += comp

        add_int(_SESSION, np.array([r.session_id for r in rows], dtype=np.int64))
        add_float(_TIMESTAMP, np.array([r.timestamp for r in rows]))
        add_int(_LABEL, np.array([r.label for r in rows], dtype=np.int64))
        add_int(_SAMPLE_ID, np.array([r.sample_id for r in rows], dtype=np.int64))
        for spec in self.schema.sparse:
            lists = [
                np.asarray(r.sparse.get(spec.name, ()), dtype=np.int64)
                for r in rows
            ]
            lengths = np.array([a.size for a in lists], dtype=np.int64)
            values = (
                np.concatenate(lists)
                if lists and lengths.sum() > 0
                else np.empty(0, dtype=np.int64)
            )
            add_int(f"s:{spec.name}:len", lengths)
            add_int(f"s:{spec.name}:val", values)
        for dspec in self.schema.dense:
            add_float(
                f"d:{dspec.name}",
                np.array([r.dense.get(dspec.name, 0.0) for r in rows]),
            )

        body = _STRIPE_HEADER.pack(0, len(rows), len(streams)) + b"".join(streams)
        # patch stripe byte_len (first u32) now the size is known
        body = _STRIPE_HEADER.pack(len(body), len(rows), len(streams)) + b"".join(
            streams
        )
        return body, sstat


class DwrfReader:
    """Reads stripes of a DWRF blob into columnar :class:`RowBlock` s.

    Tracks the byte accounting the reader cost model consumes:
    ``bytes_read`` (compressed, what travels from Tectonic),
    ``raw_bytes`` (decompressed) and ``values_decoded``.  The file and
    stripe framing is validated: a truncated blob or a stream that does
    not fit its stripe raises :class:`ValueError`.
    """

    def __init__(self, blob: bytes, schema: DatasetSchema):
        if len(blob) < _FILE_HEADER.size:
            raise ValueError(
                f"DWRF blob is {len(blob)} bytes, shorter than its header"
            )
        magic, version, num_stripes = _FILE_HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise ValueError("not a DWRF blob")
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        self.schema = schema
        self._blob = blob
        self._stripe_offsets: list[int] = []
        self._stripe_rows: list[int] = []
        pos = _FILE_HEADER.size
        for index in range(num_stripes):
            if pos + _STRIPE_HEADER.size > len(blob):
                raise ValueError(
                    f"stripe {index}: header at byte {pos} runs past the "
                    f"end of the {len(blob)}-byte blob"
                )
            (byte_len, stripe_rows, _) = _STRIPE_HEADER.unpack_from(blob, pos)
            if byte_len < _STRIPE_HEADER.size or pos + byte_len > len(blob):
                raise ValueError(
                    f"stripe {index}: byte_len {byte_len} at byte {pos} "
                    f"does not fit the {len(blob)}-byte blob"
                )
            self._stripe_offsets.append(pos)
            self._stripe_rows.append(stripe_rows)
            pos += byte_len
        if pos != len(blob):
            raise ValueError(
                f"DWRF blob has {len(blob) - pos} trailing bytes after "
                f"stripe {num_stripes - 1}"
            )
        self.bytes_read = 0
        self.raw_bytes = 0
        self.values_decoded = 0

    @property
    def num_stripes(self) -> int:
        """Stripes in the file, known from the file header alone."""
        return len(self._stripe_offsets)

    @property
    def num_rows(self) -> int:
        """Total rows in the file, known from stripe headers alone."""
        return sum(self._stripe_rows)

    def stripe_num_rows(self, index: int) -> int:
        """Rows in one stripe without fetching/decoding it — what lets a
        row-range shard skip stripes outside its window for free."""
        if not 0 <= index < self.num_stripes:
            raise IndexError(f"stripe {index} out of range")
        return self._stripe_rows[index]

    def read_stripe(self, index: int) -> RowBlock:
        """Fetch + decode one stripe into a columnar :class:`RowBlock`,
        accounting the bytes read and values decoded (the reader tier's
        fill costs).

        The stripe's VARINT streams are decoded together in one
        vectorized pass; sparse columns come out as ``(offsets,
        values)`` pairs with no per-row split.
        """
        if not 0 <= index < self.num_stripes:
            raise IndexError(f"stripe {index} out of range")
        blob = self._blob
        pos = self._stripe_offsets[index]
        byte_len, num_rows, num_streams = _STRIPE_HEADER.unpack_from(blob, pos)
        self.bytes_read += byte_len
        stripe_end = pos + byte_len
        pos += _STRIPE_HEADER.size

        def bad(name: str, what: str) -> ValueError:
            return ValueError(f"stripe {index}, stream {name!r}: {what}")

        columns: dict[str, np.ndarray] = {}
        varints: list[tuple[str, bytes, int]] = []
        for s in range(num_streams):
            name = f"#{s}"
            if pos + _STREAM_HEADER.size > stripe_end:
                raise bad(name, "header runs past the stripe end")
            (name_len,) = _STREAM_HEADER.unpack_from(blob, pos)
            pos += _STREAM_HEADER.size
            if pos + name_len + _STREAM_META.size > stripe_end:
                raise bad(name, "header runs past the stripe end")
            name = blob[pos : pos + name_len].decode()
            pos += name_len
            enc_id, count, blob_len = _STREAM_META.unpack_from(blob, pos)
            pos += _STREAM_META.size
            if pos + blob_len > stripe_end:
                raise bad(
                    name, f"{blob_len}-byte body runs past the stripe end"
                )
            payload = decompress(blob[pos : pos + blob_len])
            pos += blob_len
            self.raw_bytes += len(payload)
            self.values_decoded += count
            if name == _TIMESTAMP or name.startswith("d:"):
                if len(payload) != 8 * count:
                    raise bad(
                        name,
                        f"{len(payload)} bytes for {count} float64 values",
                    )
                columns[name] = np.frombuffer(payload, dtype=np.float64).copy()
            elif enc_id == IntEncoding.VARINT.value:
                varints.append((name, payload, count))
            else:
                try:
                    columns[name] = decode_int64(
                        payload, count, IntEncoding(enc_id)
                    )
                except ValueError as exc:
                    raise bad(name, str(exc)) from exc
        if pos != stripe_end:
            raise ValueError(
                f"stripe {index}: {stripe_end - pos} bytes left after its "
                f"{num_streams} streams"
            )
        if varints:
            names, payloads, counts = zip(*varints)
            decoded = decode_varint_streams(
                list(payloads),
                list(counts),
                names=[f"stripe {index}, stream {n!r}" for n in names],
            )
            columns.update(zip(names, decoded))
        return self._block_from_columns(index, columns, num_rows)

    def _block_from_columns(
        self, index: int, columns: dict[str, np.ndarray], num_rows: int
    ) -> RowBlock:
        def column(name: str, size: int) -> np.ndarray:
            if name not in columns:
                raise ValueError(f"stripe {index}: stream {name!r} is missing")
            col = columns[name]
            if col.size != size:
                raise ValueError(
                    f"stripe {index}, stream {name!r}: {col.size} values, "
                    f"expected {size}"
                )
            return col

        sparse: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for spec in self.schema.sparse:
            len_name = f"s:{spec.name}:len"
            lengths = column(len_name, num_rows)
            if lengths.size and lengths.min() < 0:
                raise ValueError(
                    f"stripe {index}, stream {len_name!r}: negative length"
                )
            offsets = np.zeros(num_rows + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            values = column(f"s:{spec.name}:val", int(offsets[-1]))
            sparse[spec.name] = (offsets, values)
        return RowBlock(
            sample_id=column(_SAMPLE_ID, num_rows),
            session_id=column(_SESSION, num_rows),
            timestamp=column(_TIMESTAMP, num_rows),
            label=column(_LABEL, num_rows),
            dense={
                d.name: column(f"d:{d.name}", num_rows)
                for d in self.schema.dense
            },
            sparse=sparse,
        )

    def read_all(self) -> list[Sample]:
        """Every row in the file, in stripe order (the serial scan) —
        one of the two places stripes are materialized as rows."""
        out: list[Sample] = []
        for i in range(self.num_stripes):
            out.extend(self.read_stripe(i).to_samples())
        return out
