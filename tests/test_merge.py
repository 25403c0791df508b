"""merge_indexes: disjoint file-union path and remap path vs a single
build over the union corpus (search / BM25 / stats / docstore parity)."""

import json
import os

import duckdb
import pyarrow.parquet as pq
import pytest

from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.merge import merge_indexes
from konlsearch_ray.query import IndexReader

SHARD = 100
TOKENS = ["table", "merge"]
SRC = "/root/testdata/sf0.001/documents.parquet"


def _split(root, lo, hi, name):
    out = str(root / f"{name}.parquet")
    duckdb.sql(f"COPY (SELECT * FROM read_parquet('{SRC}') "
               f"WHERE doc_id BETWEEN {lo} AND {hi}) TO '{out}' "
               "(FORMAT PARQUET)")
    return out


def _cfg():
    return IndexConfig(content_col="text", id_col="doc_id", dedup=False,
                       shard_size=SHARD)


@pytest.fixture(scope="module")
def merged_disjoint(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("konl_merge")
    a = _split(root, 0, 200, "a")      # ids 0..200 → shards 0,1
    b = _split(root, 201, 499, "b")    # ids 201..499 → shards 2,3,4
    ia, ib = str(root / "ia"), str(root / "ib")
    build_index(a, ia, _cfg())
    build_index(b, ib, _cfg())
    full_dir = str(root / "full")
    build_index(SRC, full_dir, _cfg())
    out = str(root / "merged")
    stats = merge_indexes([ia, ib], out)
    return out, full_dir, stats, ia, ib, root


def test_disjoint_stats_equal_single_build(merged_disjoint):
    out, full_dir, stats, *_ = merged_disjoint
    with open(os.path.join(full_dir, "stats.json")) as f:
        want = json.load(f)
    assert stats == want


def test_disjoint_search_and_bm25_equal_single_build(merged_disjoint):
    out, full_dir, *_ = merged_disjoint
    m, f = IndexReader(out), IndexReader(full_dir)
    for mode in ("AND", "OR", "PHRASE"):
        assert m.search(TOKENS, mode) == f.search(TOKENS, mode)
    assert m.bm25_topk(TOKENS, 15) == f.bm25_topk(TOKENS, 15)
    assert (m.bm25_topk(TOKENS, 15, prune=False)
            == f.bm25_topk(TOKENS, 15, prune=False))
    assert m.search_near(TOKENS, slop=3) == f.search_near(TOKENS, slop=3)


def test_disjoint_docstore_and_dictionary(merged_disjoint):
    from konlsearch_ray.docstore import DocStore

    out, full_dir, *_ = merged_disjoint
    sm, sf = DocStore(out), DocStore(full_dir)
    assert len(sm) == len(sf)
    assert sm.get(350) == sf.get(350)
    dm = pq.ParquetDataset(os.path.join(out, "dictionary")).read().sort_by("term")
    df_ = pq.ParquetDataset(
        os.path.join(full_dir, "dictionary")).read().sort_by("term")
    assert dm.equals(df_)


def test_overlap_requires_remap(merged_disjoint):
    out, full_dir, stats, ia, ib, root = merged_disjoint
    with pytest.raises(ValueError, match="remap_ids"):
        merge_indexes([ia, ia], str(root / "clash"))
    with pytest.raises(ValueError, match="already holds"):
        merge_indexes([ia, ib], out)
    with pytest.raises(ValueError, match="at least two"):
        merge_indexes([ia], str(root / "one"))


def test_remap_equals_single_build_over_shifted_union(
        ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("konl_merge_remap")
    # Both halves re-keyed to ids 1..N — overlapping ranges on purpose.
    a = str(root / "a.parquet")
    b = str(root / "b.parquet")
    duckdb.sql(f"COPY (SELECT * REPLACE (doc_id - 0 AS doc_id) FROM "
               f"read_parquet('{SRC}') WHERE doc_id <= 250) TO '{a}' "
               "(FORMAT PARQUET)")
    duckdb.sql(f"COPY (SELECT * REPLACE (doc_id - 250 AS doc_id) FROM "
               f"read_parquet('{SRC}') WHERE doc_id > 250) TO '{b}' "
               "(FORMAT PARQUET)")
    ia, ib = str(root / "ia"), str(root / "ib")
    build_index(a, ia, _cfg())  # ids 1..250 → shards 0..2
    build_index(b, ib, _cfg())  # ids 1..250 → shards 0..2 (overlap)
    out = str(root / "merged")
    stats = merge_indexes([ia, ib], out, remap_ids=True)
    # Oracle: single build over the union with B shifted by 3 shards.
    off = 3 * SHARD
    u = str(root / "union.parquet")
    duckdb.sql(
        f"COPY (SELECT * FROM read_parquet('{a}') UNION ALL "
        f"SELECT * REPLACE (doc_id + {off} AS doc_id) "
        f"FROM read_parquet('{b}')) TO '{u}' (FORMAT PARQUET)")
    full_dir = str(root / "full")
    want_stats = build_index(u, full_dir, _cfg())
    want_stats.pop("phase_sec", None)
    assert stats == want_stats
    m, f = IndexReader(out), IndexReader(full_dir)
    for mode in ("AND", "OR"):
        assert m.search(TOKENS, mode) == f.search(TOKENS, mode)
    assert m.bm25_topk(TOKENS, 20) == f.bm25_topk(TOKENS, 20)
    from konlsearch_ray.docstore import DocStore

    assert DocStore(out).get(off + 7) == DocStore(full_dir).get(off + 7)
    for sub in ("segments", "doclens"):
        names = sorted(os.listdir(os.path.join(out, sub)))
        assert names == sorted(os.listdir(os.path.join(full_dir, sub)))
        for n in names:
            # Table equality covers the encoded varint blobs byte-for-byte.
            assert pq.read_table(os.path.join(out, sub, n)).equals(
                pq.read_table(os.path.join(full_dir, sub, n))), f"{sub}/{n}"


def test_merge_carries_tombstones(ray_session, tmp_path_factory):
    from konlsearch_ray.tombstone import delete_docs

    root = tmp_path_factory.mktemp("konl_merge_ts")
    a = _split(root, 0, 200, "a")
    b = _split(root, 201, 499, "b")
    ia, ib = str(root / "ia"), str(root / "ib")
    build_index(a, ia, _cfg())
    build_index(b, ib, _cfg())
    victim = IndexReader(ia).search(TOKENS, "AND")[0]
    delete_docs(ia, [victim])
    out = str(root / "merged")
    merge_indexes([ia, ib], out)
    assert victim not in IndexReader(out).search(TOKENS, "AND")
    from konlsearch_ray.docstore import DocStore

    assert DocStore(out).get(victim) is None


def test_shift_binary_firsts_property():
    """Direct unit check of the remap's varint splice: for random
    per-term gap streams, shifting the first gap must decode back to
    the original doc ids + offset, term by term."""
    import numpy as np
    import pyarrow as pa

    from konlsearch_ray.codec import varint_decode
    from konlsearch_ray.segment import _shift_binary_firsts
    from test_codec import varint_encode

    rng = np.random.default_rng(3)
    for trial in range(20):
        n_terms = int(rng.integers(1, 12))
        dfs, blobs, want_ids = [], [], []
        off = int(rng.integers(1, 5)) * 4096
        for _ in range(n_terms):
            df = int(rng.integers(0, 9))  # df=0 rows exercise the edge
            dfs.append(df)
            if df == 0:
                blobs.append(b"")
                want_ids.append(np.zeros(0, dtype=np.int64))
                continue
            first = int(rng.integers(1, 1 << int(rng.integers(3, 40))))
            gaps = np.concatenate((
                [first],
                rng.integers(1, 1 << int(rng.integers(1, 20)),
                             size=df - 1))).astype(np.uint64)
            blobs.append(varint_encode(gaps))
            want_ids.append(np.cumsum(gaps.astype(np.int64)) + off)
        col = pa.array(blobs, pa.large_binary())
        out = _shift_binary_firsts(col, np.array(dfs, dtype=np.int64), off)
        assert len(out) == n_terms
        for i, df in enumerate(dfs):
            got_gaps = varint_decode(out[i].as_py(), df)
            got_ids = np.cumsum(got_gaps.astype(np.int64))
            assert np.array_equal(got_ids, want_ids[i]), (trial, i)


def test_remap_rejects_zero_based_ids(ray_session, tmp_path_factory):
    """A shifted 0-based corpus would break the id-0 shard clamp; the
    remap path must refuse it (the unshifted FIRST index is fine)."""
    root = tmp_path_factory.mktemp("konl_merge_zero")
    a = _split(root, 0, 200, "a")    # min doc_id 0
    ia = str(root / "ia")
    build_index(a, ia, _cfg())
    with pytest.raises(ValueError, match="1-based"):
        merge_indexes([ia, ia], str(root / "m"), remap_ids=True)
