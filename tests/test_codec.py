import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from konlsearch_ray.codec import (
    BLOCK_SIZE,
    decode_postings,
    encode_postings_grouped,
    varint_decode,
    varint_encode_with_sizes,
)


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128 bytes of a uint64 array, through the library encoder."""
    return varint_encode_with_sizes(values)[0]


def ref_varint_encode_with_sizes(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Reference LEB128 encoder the library's must match byte for byte:
    sizes from a shift loop, then one masked scatter per byte lane."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.zeros(0, dtype=np.int64)
    nbytes = np.ones(v.shape, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nbytes += tmp > 0
        tmp >>= np.uint64(7)
    offsets = np.concatenate(([0], np.cumsum(nbytes)))
    out = np.zeros(int(offsets[-1]), dtype=np.uint8)
    for k in range(int(nbytes.max())):
        mask = nbytes > k
        idx = offsets[:-1][mask] + k
        chunk = (v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[mask] - 1 > k).astype(np.uint8) << 7
        out[idx] = chunk.astype(np.uint8) | cont
    return out.tobytes(), nbytes


# Per-term reference codec: one posting list at a time, the layout the
# grouped encoder and the fused decoder must match byte for byte.
def encode_posting(
    doc_ids: np.ndarray, tfs: np.ndarray, positions: np.ndarray
) -> dict:
    """Encode one term's posting list (doc_ids must be sorted ascending).

    Returns the segment-row payload: binary blobs + block-max metadata.
    """
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    if doc_ids.size and np.any(np.diff(doc_ids) <= 0):
        raise ValueError("doc_ids must be strictly increasing")
    gaps = np.diff(doc_ids, prepend=np.int64(0)).astype(np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    positions = np.ascontiguousarray(positions, dtype=np.uint64)
    n = len(doc_ids)
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE if n else 0
    block_last = [int(doc_ids[min((b + 1) * BLOCK_SIZE, n) - 1]) for b in range(nblocks)]
    block_max_tf = [
        int(tfs[b * BLOCK_SIZE : (b + 1) * BLOCK_SIZE].max()) for b in range(nblocks)
    ]
    return {
        "df": n,
        "cf": int(tfs.sum()),
        "doc_ids_bin": varint_encode(gaps),
        "tfs_bin": varint_encode(tfs),
        "pos_bin": varint_encode(positions),
        "block_last_doc": block_last,
        "block_max_tf": block_max_tf,
    }


def decode_doc_ids(blob: bytes, df: int) -> np.ndarray:
    gaps = varint_decode(blob, df)
    return np.cumsum(gaps.astype(np.int64))


def decode_tfs(blob: bytes, df: int) -> np.ndarray:
    return varint_decode(blob, df).astype(np.int32)


def decode_positions(blob: bytes, df: int) -> np.ndarray:
    return varint_decode(blob, df).astype(np.int32)


def test_varint_roundtrip_basic():
    vals = np.array([0, 1, 127, 128, 129, 16383, 16384, 2**32, 2**63 - 1], dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(vals), len(vals)), vals)


def test_varint_empty():
    assert varint_encode(np.array([], dtype=np.uint64)) == b""
    assert len(varint_decode(b"")) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
def test_varint_roundtrip_property(xs):
    vals = np.array(xs, dtype=np.uint64)
    out = varint_decode(varint_encode(vals), len(vals))
    assert np.array_equal(out, vals)


# 0, every 2^(7k) ± 1 byte-count boundary that fits uint64, and the top.
_BOUNDARIES = sorted({0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1}
                     | {(1 << 7 * k) + d for k in range(1, 10)
                        for d in (-1, 0, 1)})


def _assert_same_encoding(vals: np.ndarray) -> None:
    buf, sizes = varint_encode_with_sizes(vals)
    ref_buf, ref_sizes = ref_varint_encode_with_sizes(vals)
    assert buf == ref_buf
    assert sizes.dtype == ref_sizes.dtype == np.int64
    assert np.array_equal(sizes, ref_sizes)
    assert np.array_equal(varint_decode(buf, len(vals)), vals)


def test_varint_encoder_matches_reference_at_boundaries():
    vals = np.array(_BOUNDARIES, dtype=np.uint64)
    _assert_same_encoding(vals)
    for v in vals:  # one value alone sets the byte count of the stream
        _assert_same_encoding(np.array([v], dtype=np.uint64))
    _assert_same_encoding(np.zeros(5, dtype=np.uint64))
    _assert_same_encoding(np.arange(300, dtype=np.uint64))
    _assert_same_encoding(np.zeros(0, dtype=np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(min_value=0, max_value=2**64 - 1),
                          st.sampled_from(_BOUNDARIES),
                          st.integers(min_value=0, max_value=300)),
                max_size=200))
def test_varint_encoder_matches_reference_property(xs):
    _assert_same_encoding(np.array(xs, dtype=np.uint64))


def _width_values(width: int) -> st.SearchStrategy:
    """Values whose LEB128 encoding takes exactly ``width`` bytes."""
    lo = 0 if width == 1 else 1 << 7 * (width - 1)
    return st.integers(min_value=lo,
                       max_value=min((1 << 7 * width) - 1, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(*(_width_values(w) for w in range(1, 11)),
                          st.sampled_from([0, 2**64 - 1])),
                max_size=200))
def test_varint_decode_inverts_encoder_at_every_width(xs):
    """The decoder reads back what ``varint_encode_with_sizes`` wrote,
    for every byte width 1..10 mixed in one stream, 0 and 2^64 − 1;
    cut at each value's end it decodes the values before the cut."""
    vals = np.array(xs, dtype=np.uint64)
    buf, sizes = varint_encode_with_sizes(vals)
    out = varint_decode(buf, len(vals))
    assert out.dtype == np.uint64
    assert np.array_equal(out, vals)
    ends = np.cumsum(sizes)
    for i in range(0, len(vals), 17):
        assert np.array_equal(varint_decode(buf[:int(ends[i])]),
                              vals[:i + 1])


def test_varint_decode_empty_and_truncated_streams():
    """The empty stream is zero values; a stream cut inside a value
    raises rather than dropping the value's bytes."""
    assert varint_decode(b"", 0).dtype == np.uint64
    assert len(varint_decode(b"", 0)) == 0
    buf, sizes = varint_encode_with_sizes(
        np.array([5, 300, 2**64 - 1, 1], dtype=np.uint64))
    for cut in (2, 4, int(sizes[:2].sum()) + 9, len(buf) - 2):
        with pytest.raises(ValueError, match="ends inside a value"):
            varint_decode(buf[:cut])
    with pytest.raises(ValueError, match="ends inside a value"):
        varint_decode(b"\x80")
    with pytest.raises(ValueError, match="expected 3"):
        varint_decode(buf, 3)


def test_encode_posting_roundtrip():
    rng = np.random.default_rng(7)
    doc_ids = np.unique(rng.integers(1, 10**9, size=1000)).astype(np.int64)
    n = len(doc_ids)
    tfs = rng.integers(1, 50, size=n).astype(np.int32)
    pos = rng.integers(0, 5000, size=n).astype(np.int32)
    enc = encode_posting(doc_ids, tfs, pos)
    assert enc["df"] == n
    assert enc["cf"] == int(tfs.sum())
    assert np.array_equal(decode_doc_ids(enc["doc_ids_bin"], n), doc_ids)
    assert np.array_equal(decode_tfs(enc["tfs_bin"], n), tfs)
    assert np.array_equal(decode_positions(enc["pos_bin"], n), pos)
    # Block-max metadata.
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    assert len(enc["block_last_doc"]) == nblocks
    assert enc["block_last_doc"][-1] == doc_ids[-1]
    assert enc["block_max_tf"][0] == int(tfs[:BLOCK_SIZE].max())


def test_encode_posting_rejects_unsorted():
    with pytest.raises(ValueError):
        encode_posting(np.array([3, 2]), np.array([1, 1]), np.array([0, 0]))


def test_grouped_encode_matches_per_term():
    """encode_postings_grouped must be byte-identical to per-term
    encode_posting over random grouped data (including df=1 and >BLOCK_SIZE
    groups)."""
    rng = np.random.default_rng(3)
    doc_parts, tf_parts, pos_parts, starts = [], [], [], []
    n = 0
    for df in [1, 2, 5, 127, 128, 129, 1000, 1, 300]:
        ids = np.sort(rng.choice(np.arange(1, 100000), size=df, replace=False))
        starts.append(n)
        n += df
        doc_parts.append(ids)
        tf_parts.append(rng.integers(1, 300, size=df))
        pos_parts.append(rng.integers(0, 5000, size=df))
    doc_s = np.concatenate(doc_parts)
    tf_s = np.concatenate(tf_parts)
    pos_s = np.concatenate(pos_parts)
    g = encode_postings_grouped(np.asarray(starts), doc_s, tf_s, pos_s)
    bl_off = np.concatenate(([0], np.cumsum(g["nblocks"])))

    def cell(stream: str, s: int, e: int) -> bytes:
        # Each stream is (buffer, one encoded size per posting entry).
        buf, sizes = g[stream]
        off = np.concatenate(([0], np.cumsum(sizes)))
        return buf[int(off[s]):int(off[e])]

    for i, s in enumerate(starts):
        e = starts[i + 1] if i + 1 < len(starts) else n
        ref = encode_posting(doc_s[s:e], tf_s[s:e], pos_s[s:e])
        assert g["df"][i] == ref["df"]
        assert g["cf"][i] == ref["cf"]
        for stream in ("doc_ids_bin", "tfs_bin", "pos_bin"):
            assert cell(stream, s, e) == ref[stream], (stream, i)
        assert list(g["block_last_flat"][bl_off[i]:bl_off[i + 1]]) == ref["block_last_doc"]
        assert list(g["block_max_flat"][bl_off[i]:bl_off[i + 1]]) == ref["block_max_tf"]
    # The fused decode inverts the grouped encode in one pass, with
    # zero-length sub-lists (first, inner, last) allowed.
    docs, tfs = g["doc_ids_bin"][0], g["tfs_bin"][0]
    for df in (g["df"], np.insert(g["df"], [0, 3, len(g["df"])], 0)):
        ids, tf = decode_postings(docs, tfs, df)
        assert ids.dtype == np.int64 and tf.dtype == np.int32
        assert np.array_equal(ids, doc_s) and np.array_equal(tf, tf_s)
    ids, tf = decode_postings(b"", b"", [])
    assert len(ids) == len(tf) == 0
