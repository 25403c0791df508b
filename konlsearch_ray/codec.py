"""Delta-gap + varint posting-list codec, numpy-vectorized.

Replaces the reference's one-RocksDB-key-per-(token, doc) posting storage
(reference set.py:82-85, inverted_index.py:33-36) with the standard
compressed-segment layout: doc IDs sorted ascending, delta-gap encoded,
LEB128 varints; tf / position streams varint-encoded in doc order.

Encode and decode are both vectorized (no per-int Python loop):
- encode: compute per-value byte widths, allocate one output buffer,
  scatter the 7-bit groups with numpy arithmetic;
- decode: locate varint terminators via the continuation-bit mask,
  shift each byte's 7-bit group into place and OR-reduce them per value
  (``bitwise_or.reduceat``).

Block-max metadata (``block_last_doc``, ``block_max_tf`` per
``BLOCK_SIZE``-entry block) supports block-skip / block-max-WAND pruning
at query time.

The per-term encoder and decoders (``encode_posting``, ``decode_doc_ids``,
``decode_tfs``, ``decode_positions``) live in ``tests/test_codec.py`` as
the reference the grouped encoder and the fused decoder are checked
against; the library writes and reads whole segments only.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128

# uint8 masks as numpy scalars: a Python int operand against a uint8
# array pays value-based casting on every call (~2x the op's cost).
_CONT = np.uint8(0x80)   # LEB128 continuation bit
_LOW7 = np.uint8(0x7F)


def varint_encode_with_sizes(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-encode a uint64 array, vectorized.

    Returns ``(buffer, nbytes)`` where ``nbytes[i]`` is the encoded byte
    length of ``values[i]`` — the grouped encoder uses the per-value sizes
    to slice one shared buffer into per-term blobs.
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.zeros(0, dtype=np.int64)
    # Bytes needed per value: ceil(bitlen/7), min 1.
    nbits = np.zeros(v.shape, dtype=np.int64)
    # bit_length via log2 on float is unsafe near 2^53; use a loop over shifts.
    tmp = v.copy()
    while True:
        live = tmp > 0
        if not live.any():
            break
        nbits[live] += 1
        tmp = tmp >> np.uint64(1)
    nbytes = np.maximum((nbits + 6) // 7, 1)
    offsets = np.concatenate(([0], np.cumsum(nbytes)))
    total = int(offsets[-1])
    out = np.zeros(total, dtype=np.uint8)
    # Lane k writes byte k of every value that has > k bytes.
    max_lanes = int(nbytes.max())
    for k in range(max_lanes):
        mask = nbytes > k
        idx = offsets[:-1][mask] + k
        chunk = (v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[mask] - 1 > k).astype(np.uint8) << 7
        out[idx] = chunk.astype(np.uint8) | cont
    return out.tobytes(), nbytes


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array, vectorized."""
    return varint_encode_with_sizes(values)[0]


def varint_decode(buf: bytes, count: int | None = None) -> np.ndarray:
    """Decode LEB128 buffer → uint64 array, vectorized.

    Fast path: a stream whose continuation bits are all clear is one
    byte per value — a single cast (the dominant case for delta gaps,
    tfs and positions, which are mostly < 128). The general path sums
    per-byte 7-bit contributions with ``bitwise_or.reduceat`` — one pass
    over the bytes instead of a fancy-indexed loop per byte lane.

    Serving decodes a few hundred bytes per call, so the fixed cost of
    each numpy call dominates: the general path keeps its call count low
    and updates intermediates in place.
    """
    raw = np.frombuffer(buf, dtype=np.uint8)
    last = raw < _CONT
    if last.all():  # every value single-byte (or an empty stream)
        n = raw.size
        out = raw.astype(np.uint64)
    else:
        ends = last.nonzero()[0]
        n = ends.size
        starts = np.empty(n, dtype=np.intp)
        starts[0] = 0
        np.add(ends[:-1], 1, out=starts[1:])
        # Byte offset within its value, times 7: each byte's shift.
        shift = np.arange(raw.size, dtype=np.intp)
        shift -= starts.repeat(ends - starts + 1)
        shift *= 7
        out = (raw & _LOW7).astype(np.uint64)
        out <<= shift.view(np.uint64)
        out = np.bitwise_or.reduceat(out, starts)
    if count is not None and n != count:
        raise ValueError(f"varint stream has {n} values, expected {count}")
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
    the reader's fused cross-shard decode, tombstone compaction's shard
    rewrite, and the postings export. Zero-length sub-lists are allowed.
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
    the full concatenated streams; per-term blobs are then zero-copy-ish
    slices of the shared buffers (a per-term encode loop spent ~50µs of
    call overhead per df=1 term).

    Returns columns aligned with ``starts``: df, cf, doc_ids_bin, tfs_bin,
    pos_bin (lists of bytes) and block metadata as flat arrays +
    per-term block counts (``block_*_flat``, ``nblocks``) ready for
    ``pa.ListArray.from_arrays``. Output is byte-identical to calling
    the per-term reference encoder (``tests/test_codec.py``) per term.
    """
    n = len(doc_s)
    nterms = len(starts)
    bounds = np.append(starts, n)
    df = np.diff(bounds)
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        return {"df": z, "cf": z, "doc_ids_bin": [], "tfs_bin": [],
                "pos_bin": [], "block_last_flat": z, "block_max_flat": z,
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

    gap_buf, gap_nb = varint_encode_with_sizes(gaps.astype(np.uint64))
    tf_buf, tf_nb = varint_encode_with_sizes(tf_s)
    pos_buf, pos_nb = varint_encode_with_sizes(pos_s)

    def slices(buf: bytes, nb: np.ndarray) -> list[bytes]:
        off = np.concatenate(([0], np.cumsum(nb)))
        term_beg = off[starts]
        term_end = off[bounds[1:]]
        return [buf[int(b):int(e)] for b, e in zip(term_beg, term_end)]

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
        "doc_ids_bin": slices(gap_buf, gap_nb),
        "tfs_bin": slices(tf_buf, tf_nb),
        "pos_bin": slices(pos_buf, pos_nb),
        "block_last_flat": block_last,
        "block_max_flat": block_max,
        "nblocks": nblocks.astype(np.int64),
    }
