"""Property-based tests (hypothesis) — randomized invariants the
reference's example-based suite never had (SURVEY.md §5).

No Ray needed: these cover the pure kernels (codec, analyzer, oracle
agreement) that everything else is built on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from konlsearch_ray.analyzer import analyze_batch, tokenize
from konlsearch_ray.codec import BLOCK_SIZE, varint_decode, varint_encode
from test_codec import (decode_doc_ids, decode_positions, decode_tfs,
                        encode_posting)

uint64s = st.integers(min_value=0, max_value=2**64 - 1)


@given(st.lists(uint64s, max_size=300))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip(values):
    arr = np.array(values, dtype=np.uint64)
    buf = varint_encode(arr)
    out = varint_decode(buf, len(arr))
    assert out.tolist() == values


@given(
    st.lists(st.integers(min_value=1, max_value=10**12), min_size=1,
             max_size=400, unique=True),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_posting_roundtrip(ids, data):
    ids = np.array(sorted(ids), dtype=np.int64)
    tfs = np.array(
        data.draw(st.lists(st.integers(1, 10**6), min_size=len(ids),
                           max_size=len(ids))), dtype=np.int64)
    poss = np.array(
        data.draw(st.lists(st.integers(0, 10**6), min_size=len(ids),
                           max_size=len(ids))), dtype=np.int64)
    enc = encode_posting(ids, tfs, poss)
    assert enc["df"] == len(ids)
    assert enc["cf"] == int(tfs.sum())
    assert decode_doc_ids(enc["doc_ids_bin"], len(ids)).tolist() == ids.tolist()
    assert decode_tfs(enc["tfs_bin"], len(ids)).tolist() == tfs.astype(np.int32).tolist()
    assert decode_positions(enc["pos_bin"], len(ids)).tolist() == \
        poss.astype(np.int32).tolist()
    # Block metadata invariants.
    nblocks = (len(ids) + BLOCK_SIZE - 1) // BLOCK_SIZE
    assert len(enc["block_last_doc"]) == nblocks == len(enc["block_max_tf"])
    assert enc["block_last_doc"][-1] == int(ids[-1])
    for b in range(nblocks):
        blk = tfs[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE]
        assert enc["block_max_tf"][b] == int(blk.max())


# Text strategy: mix of ASCII words, Hangul, sanitize-set noise, digits.
_chars = st.sampled_from(
    list("abcXYZ 가나다맣법소녀 \t\n01_@!#$%^&*()<>?/\\|}{~:]\",.;'+-=")
)
texts = st.lists(st.text(_chars, max_size=60), max_size=8)


@given(texts)
@settings(max_examples=150, deadline=None)
def test_analyze_batch_agrees_with_row_oracle(docs):
    """The vectorized Arrow batch analyzer and the pure-Python row path
    must produce identical (term, tf, first_pos) groups for ANY input."""
    import pyarrow as pa

    batch = pa.table({
        "doc_id": pa.array(range(1, len(docs) + 1), pa.int64()),
        "content": pa.array(docs, pa.large_string()),
    })
    got = analyze_batch(batch, "content")
    rows = {}
    for i, (d, t, tf, fp) in enumerate(zip(
            got["doc_id"].to_pylist(), got["term"].to_pylist(),
            got["tf"].to_pylist(), got["first_pos"].to_pylist())):
        rows[(d, t)] = (tf, fp)
    exp = {}
    for did, text in enumerate(docs, start=1):
        toks = tokenize(text)
        for pos, t in enumerate(toks):
            if (did, t) not in exp:
                exp[(did, t)] = [0, pos]
            exp[(did, t)][0] += 1
    exp = {k: tuple(v) for k, v in exp.items()}
    assert rows == exp


@given(texts)
@settings(max_examples=50, deadline=None)
def test_oracle_boolean_invariants(docs):
    """Set-algebra invariants of the oracle itself: AND ⊆ OR; empty first
    posting ⇒ empty AND; PHRASE ⊆ AND."""
    from konlsearch_ray.oracle import build_oracle

    o = build_oracle({i + 1: t for i, t in enumerate(docs)})
    vocab = sorted(o.postings)[:3] + ["zzznope"]
    for a in vocab:
        for b in vocab:
            and_r = set(o.search([a, b], "AND"))
            or_r = set(o.search([a, b], "OR"))
            ph_r = set(o.search([a, b], "PHRASE"))
            assert and_r <= or_r
            assert ph_r <= and_r
            if not o.postings.get(a):
                assert and_r == set()


@given(texts)
@settings(max_examples=50, deadline=None)
def test_min_should_lattice_invariants(docs):
    """minimum_should_match lattice over the golden oracle: msm(1)=OR,
    msm(n)=AND, msm is monotone decreasing in m, and every result doc
    really sits in >= m of the term posting sets."""
    from konlsearch_ray.oracle import build_oracle

    o = build_oracle({i + 1: t for i, t in enumerate(docs)})
    toks = sorted(o.postings)[:3] + ["zzznope"]
    n = len(set(toks))
    assert o.search_min_should(toks, 1) == o.search(toks, "OR")
    prev = None
    for m in range(1, n + 1):
        got = o.search_min_should(toks, m)
        if prev is not None:
            assert set(got) <= set(prev)
        prev = got
        for d in got:
            assert sum(d in o.postings.get(t, ()) for t in set(toks)) >= m
    # msm(n) over n distinct terms = full intersection = AND (the
    # reference's seed-then-intersect and plain intersection agree,
    # including the absent-token-anywhere ⇒ empty case).
    assert o.search_min_should(toks, n) == o.search(toks, "AND")


# --- round-3 operator kernels (pure, no Ray) -------------------------------

texts_st = st.lists(
    st.text(alphabet="ab c", min_size=0, max_size=40), min_size=1, max_size=12)


@given(texts_st, st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_chunk_table_matches_slicing_reference(texts, window, data):
    import pyarrow as pa

    from konlsearch_ray.functions.chunking import chunk_table

    stride = data.draw(st.integers(1, window))
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = chunk_table(t, "text", "doc_id", window, stride)
    got = list(zip(out["doc_id"].to_pylist(), out["chunk_id"].to_pylist(),
                   out["n_tokens"].to_pylist(), out["chunk"].to_pylist()))
    exp = []
    for i, txt in enumerate(texts):
        toks = txt.split(" ")
        n = len(toks)
        n_chunks = 1 if n <= window else (n - window + stride - 1) // stride + 1
        for k in range(n_chunks):
            seg = toks[k * stride:k * stride + window]
            exp.append((i, k, len(seg), " ".join(seg)))
    assert got == exp
    # coverage: every token position lands in at least one chunk
    for i, txt in enumerate(texts):
        n = len(txt.split(" "))
        covered = set()
        for (d, k, ln, _c) in got:
            if d == i:
                covered.update(range(k * stride, k * stride + ln))
        assert covered == set(range(n))


@given(st.lists(st.integers(0, 2**52 - 1), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_hll_rho_matches_bit_length(lows):
    from konlsearch_ray.functions.aggregates import _rho_of_low

    vbits = 52
    rho = _rho_of_low(np.array(lows, dtype=np.uint64), vbits)
    exp = [vbits - (v.bit_length() - 1) if v > 0 else vbits + 1
           for v in map(int, lows)]
    assert rho.tolist() == exp


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(-100, 100),
                       st.integers(0, 10**6)), min_size=1, max_size=300),
    st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_topk_within_matches_pandas_reference(rows, k):
    import pandas as pd
    import pyarrow as pa

    from konlsearch_ray.functions.aggregates import _topk_within

    t = pa.table({"k": pa.array([r[0] for r in rows], pa.int64()),
                  "v": pa.array([r[1] for r in rows], pa.int64()),
                  "id": pa.array([r[2] for r in rows], pa.int64())})
    got = _topk_within(t, "k", [("v", "descending"), ("id", "ascending")], k)
    gdf = got.to_pandas().sort_values(["k", "v", "id"],
                                      ascending=[True, False, True])
    ref = (pd.DataFrame({"k": t["k"].to_numpy(), "v": t["v"].to_numpy(),
                         "id": t["id"].to_numpy()})
           .sort_values(["k", "v", "id"], ascending=[True, False, True])
           .groupby("k").head(k))
    assert gdf.values.tolist() == ref.values.tolist()


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1,
             max_size=120),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_segmented_order_matches_lexsort_reference(keys, data):
    # The shared scaffold under lag/rolling/sequence/percent_rank/ntile:
    # its (order, first, starts, seg_start) must agree with a naive
    # per-row derivation from np.lexsort.
    import pyarrow as pa

    from konlsearch_ray.functions.temporal import _segmented_order

    n = len(keys)
    minor = np.array(
        data.draw(st.lists(st.integers(-10, 10), min_size=n, max_size=n)),
        dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    g = pa.table({"k": pa.array([f"k{v}" for v in keys])})
    order, first, starts, seg_start = _segmented_order(g, (ids, minor))

    ks = np.array(keys)[order]
    # stable total order within each key by (minor, ids)
    for a, b in zip(range(n - 1), range(1, n)):
        if ks[a] == ks[b]:
            ma, mb = minor[order[a]], minor[order[b]]
            assert (ma, order[a]) < (mb, order[b])
    ref_first = np.ones(n, dtype=bool)
    ref_first[1:] = ks[1:] != ks[:-1]
    assert first.tolist() == ref_first.tolist()
    assert starts.tolist() == np.flatnonzero(ref_first).tolist()
    # seg_start broadcasts each row's own segment start index
    for i in range(n):
        j = i
        while j > 0 and ks[j - 1] == ks[j]:
            j -= 1
        assert seg_start[i] == j
