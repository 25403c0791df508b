"""Delta-gap + varint posting-list codec, numpy-vectorized.

Replaces the reference's one-RocksDB-key-per-(token, doc) posting storage
(reference set.py:82-85, inverted_index.py:33-36) with the standard
compressed-segment layout: doc IDs sorted ascending, delta-gap encoded,
LEB128 varints; tf / position streams varint-encoded in doc order.

Encode and decode are both vectorized (no per-int Python loop):
- encode: compute per-value byte widths, allocate one output buffer,
  scatter the 7-bit groups with numpy arithmetic;
- decode: locate varint terminators via the continuation-bit mask,
  then fold each multi-byte value's continuation bytes into its last
  byte, one lane per byte position, touching only the values that
  have such bytes.

Block-max metadata (``block_last_doc``, ``block_max_tf`` per
``BLOCK_SIZE``-entry block) supports block-skip / block-max-WAND pruning
at query time.

The per-term encoder and decoders (``encode_posting``, ``decode_doc_ids``,
``decode_tfs``, ``decode_positions``) live in ``tests/test_codec.py`` as
the reference the grouped encoder and the fused decoder are checked
against; the library writes and reads whole segments only, and reaches
``encode_postings_grouped`` and ``decode_postings`` through
``segment.py``, the one module that knows the segment format.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128

# uint8 masks as numpy scalars: a Python int operand against a uint8
# array pays value-based casting on every call (~2x the op's cost).
_CONT = np.uint8(0x80)   # LEB128 continuation bit
_LOW7 = np.uint8(0x7F)
_SEVEN = np.uint64(7)


def varint_encode_with_sizes(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-encode a uint64 array, vectorized.

    Returns ``(buffer, nbytes)`` where ``nbytes[i]`` is the encoded byte
    length of ``values[i]``: a segment column cuts the shared buffer into
    per-term cells by the per-value sizes (``segment._blob_column``).

    A value needs byte ``k`` iff it is ``>= 2^(7k)``: one comparison per
    byte the largest value needs gives the sizes. Byte 0 of every value is
    written in one pass; byte ``k`` only at the values that have it.
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.zeros(0, dtype=np.int64)
    lanes = max(1, (int(v.max()).bit_length() + 6) // 7)
    if lanes == 1:  # every value below 128: one byte each, no continuation
        return v.astype(np.uint8).tobytes(), np.ones(v.size, dtype=np.int64)
    nbytes = np.ones(v.size, dtype=np.int64)
    for k in range(1, lanes):
        nbytes += v >= np.uint64(1 << (7 * k))
    starts = np.cumsum(nbytes)
    total = int(starts[-1])
    starts -= nbytes
    out = np.empty(total, dtype=np.uint8)
    more = nbytes > 1
    out[starts] = (v & np.uint64(0x7F)).astype(np.uint8) | (
        more.view(np.uint8) << 7)
    at = np.flatnonzero(more)  # the values with a byte k, k = 1, 2, ...
    for k in range(1, lanes):
        more = nbytes[at] > k + 1
        out[starts[at] + k] = ((v[at] >> np.uint64(7 * k))
                               & np.uint64(0x7F)).astype(np.uint8) | (
            more.view(np.uint8) << 7)
        at = at[more]
    return out.tobytes(), nbytes


def varint_decode(buf: bytes, count: int | None = None) -> np.ndarray:
    """Decode LEB128 buffer → uint64 array, vectorized.

    Fast path: a stream whose continuation bits are all clear is one
    byte per value — a single cast (the dominant case for delta gaps,
    tfs and positions, which are mostly < 128). The general path starts
    from each value's last byte (its top 7-bit group) and folds the
    continuation bytes in below it, one lane per byte position from the
    end (Horner: ``v = v << 7 | byte``). A lane touches only the values
    that still have a byte there, so its cost follows the multi-byte
    values, not the stream: a batch whose only wide values are a few
    absolute doc ids pays one short lane.

    A stream that ends inside a value (last byte with its continuation
    bit set) raises ``ValueError``.
    """
    raw = np.frombuffer(buf, dtype=np.uint8)
    cont = raw >= _CONT
    c = cont.nonzero()[0]  # the continuation bytes: few in posting streams
    if not c.size:  # every value single-byte (or an empty stream)
        out = raw.astype(np.uint64)
    else:
        if cont[-1]:
            raise ValueError("varint stream ends inside a value")
        last = ~cont
        out = raw[last].astype(np.uint64)  # each value's last byte
        # A multi-byte value's top continuation byte sits right before
        # its last byte; the k continuation bytes before it belong to
        # earlier values, so its value index is its position minus k.
        k = last[c + 1].nonzero()[0]
        p = c[k]
        at = p - k
        v = out[at]
        while True:
            v <<= _SEVEN
            v |= raw[p] & _LOW7
            out[at] = v
            p -= 1
            # The value goes on below p + 1 while that byte continues it
            # (p = -1 reads the stream's last byte, which never does).
            more = cont[p]
            if not more.any():
                break
            at, p, v = at[more], p[more], v[more]
    if count is not None and out.size != count:
        raise ValueError(
            f"varint stream has {out.size} values, expected {count}")
    return out


def decode_postings(doc_blob, tf_blob, df) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated per-term (doc-gap, tf) varint streams → absolute int64
    doc ids and int32 tfs, in ONE varint pass over both streams.

    ``df`` gives each sub-list's entry count; per the
    ``encode_postings_grouped`` contract the FIRST gap of every sub-list
    is the absolute doc id and later gaps are deltas, so absolutization
    is a full cumsum minus the running total just before each sub-list
    start (segmented cumsum, inline). This is the codec's most
    invariant-sensitive trick — the ONE shared implementation behind
    every segment decode (``segment.py``: the reader's fused cross-shard
    decode and ``decode_segment``). Zero-length sub-lists are allowed.
    """
    df = np.asarray(df, dtype=np.int64)
    ends = np.add.accumulate(df)
    n = int(ends[-1]) if len(ends) else 0
    vals = varint_decode(b"".join((doc_blob, tf_blob)), 2 * n).view(np.int64)
    c = np.zeros(n + 1, dtype=np.int64)
    np.add.accumulate(vals[:n], out=c[1:])
    ids = c[1:]
    if len(df) > 1:
        # c[s] is the running total just before the sub-list starting at s.
        ids -= c[ends - df].repeat(df)
    return ids, vals[n:].astype(np.int32)


def encode_postings_grouped(
    starts: np.ndarray,
    doc_s: np.ndarray,
    tf_s: np.ndarray,
    pos_s: np.ndarray,
) -> dict:
    """Vectorized whole-shard posting encode.

    Input: the shard's posting entries sorted by (term, doc_id) —
    ``starts`` marks each term's first entry. One varint pass runs over
    each full concatenated stream (a per-term encode loop spent ~50µs of
    call overhead per df=1 term), and no per-term object is made.

    Returns columns aligned with ``starts``: df, cf, the three varint
    streams doc_ids_bin, tfs_bin and pos_bin, each ``(buffer, sizes)``
    with one encoded size per posting entry (term ``i`` owns its next
    ``df[i]`` values), and block metadata as flat arrays + per-term block
    counts (``block_*_flat``, ``nblocks``) ready for
    ``pa.ListArray.from_arrays``. Each term's slice of a stream is
    byte-identical to the per-term reference encoder's blob
    (``tests/test_codec.py``).
    """
    n = len(doc_s)
    bounds = np.append(starts, n)
    df = np.diff(bounds)
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        empty = (b"", z)
        return {"df": z, "cf": z, "doc_ids_bin": empty, "tfs_bin": empty,
                "pos_bin": empty, "block_last_flat": z, "block_max_flat": z,
                "nblocks": z}
    doc_s = np.ascontiguousarray(doc_s, dtype=np.int64)
    tf_s = np.ascontiguousarray(tf_s, dtype=np.uint64)
    pos_s = np.ascontiguousarray(pos_s, dtype=np.uint64)
    # Delta gaps with reset at each term's first entry.
    gaps = np.empty(n, dtype=np.int64)
    gaps[1:] = doc_s[1:] - doc_s[:-1]
    gaps[starts] = doc_s[starts]
    # Fail fast, as the per-term reference encoder does: a non-increasing id
    # within a term would wrap to a ~2^64 varint and decode into garbage
    # with no error at any layer.
    within = np.ones(n, dtype=bool)
    within[starts] = False  # first entry per term is absolute, not a gap
    if np.any(gaps[within] <= 0):
        raise ValueError(
            "encode_postings_grouped: doc_ids must be strictly "
            "increasing within each term")
    cf = np.add.reduceat(tf_s.astype(np.int64), starts)

    # Block metadata: per term, blocks of BLOCK_SIZE entries.
    local = np.arange(n, dtype=np.int64) - np.repeat(starts, df)
    is_block_start = (local % BLOCK_SIZE) == 0
    is_block_end = ((local + 1) % BLOCK_SIZE == 0)
    is_block_end[bounds[1:] - 1] = True
    block_starts_idx = np.flatnonzero(is_block_start)
    block_max = np.maximum.reduceat(tf_s.astype(np.int64), block_starts_idx) \
        if len(block_starts_idx) else np.zeros(0, dtype=np.int64)
    block_last = doc_s[is_block_end]
    nblocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    return {
        "df": df.astype(np.int64),
        "cf": cf,
        "doc_ids_bin": varint_encode_with_sizes(gaps.astype(np.uint64)),
        "tfs_bin": varint_encode_with_sizes(tf_s),
        "pos_bin": varint_encode_with_sizes(pos_s),
        "block_last_flat": block_last,
        "block_max_flat": block_max,
        "nblocks": nblocks.astype(np.int64),
    }
