"""Edge cases: empty corpus, zero-token docs, empty/absent queries."""

import pyarrow as pa
import pyarrow.parquet as pq

from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.query import IndexReader


def _write(tmp_path, contents):
    t = pa.table({
        "repo": pa.array(["r"] * len(contents)),
        "path": pa.array([f"p{i}" for i in range(len(contents))]),
        "commit": pa.array(["c" * 40] * len(contents)),
        "lang": pa.array(["text"] * len(contents)),
        "content": pa.array(contents, pa.large_string()),
    })
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    return src


def test_empty_corpus(ray_session, tmp_path):
    src = _write(tmp_path, [])
    idx = str(tmp_path / "i")
    stats = build_index(src, idx, IndexConfig(shard_size=8))
    assert stats["N"] == 0 and stats["vocab"] == 0
    r = IndexReader(idx)
    assert r.search(["anything"], "OR") == []
    assert r.bm25_topk(["anything"], 5) == []


def test_zero_token_docs_counted(ray_session, tmp_path):
    # Docs whose content sanitizes/filters to nothing still get IDs and
    # count toward N (reference indexes them too — empty token set).
    src = _write(tmp_path, ["@@@ !!! 123 456", "real tokens here", ""])
    idx = str(tmp_path / "i")
    stats = build_index(src, idx, IndexConfig(shard_size=8, dedup=False))
    assert stats["N"] == 3
    r = IndexReader(idx)
    assert r.n_docs == 3
    assert r.search(["real"], "OR") == [2]  # p0 < p1 < p2 canonical order
    # BM25 over a vocab term never crashes on zero-length docs.
    assert [d for d, _ in r.bm25_topk(["tokens"], 3)] == [2]


def test_query_normalization_edge(ray_session, tmp_path):
    src = _write(tmp_path, ["Seed TABLE mix"])
    idx = str(tmp_path / "i")
    build_index(src, idx, IndexConfig(shard_size=8))
    r = IndexReader(idx)
    # Query tokens go through the same analyzer: case + sanitize chars.
    assert r.search(["SEED!"], "OR") == [1]
    assert r.search(["t@able"], "OR") == [1]
    assert r.search(["123"], "OR") == []  # filtered token → no postings
    assert r.search([], "OR") == []
    assert r.bm25_topk([], 5) == []


def test_sortable_str_negative_ints():
    """Signed keys order correctly after bias encoding (-7 < -5 < 0 < 3)."""
    import pyarrow as pa

    from konlsearch_ray.build import _col_as_sortable_str

    t = pa.table({"k": pa.array([-5, -7, 0, 3], pa.int64())})
    s = _col_as_sortable_str(t, "k").to_pylist()
    order = sorted(range(4), key=lambda i: s[i])
    assert order == [1, 0, 2, 3]  # -7, -5, 0, 3


def test_log_cursor_over_10k_per_second(tmp_path):
    """(ts, seq) cursors compare lexicographically — no composite-key
    overflow when >10,000 entries land in one second."""
    from konlsearch_ray.pipelines.logagg import SearchLog, read_log_range

    log_dir = str(tmp_path / "biglog")
    log = SearchLog(log_dir, clock=lambda: 500.0)
    for i in range(10_050):
        log.log("t", 1)
    log._clock = lambda: 501.0
    log.log("next", 1)
    log.flush()
    # Cursor just below the 10k boundary: must include the tail of second
    # 500 AND second 501 (composite ts*1e4+seq would misplace seq>=10000).
    t = read_log_range(log_dir, seq_start=(500, 9_999))
    got = list(zip(t["ts"].to_pylist(), t["seq"].to_pylist()))
    assert (500, 9_999) in got and (500, 10_049) in got and (501, 0) in got
    assert (500, 9_998) not in got
    t2 = read_log_range(log_dir, seq_end=(500, 10_049))
    got2 = list(zip(t2["ts"].to_pylist(), t2["seq"].to_pylist()))
    assert (500, 10_048) in got2 and (500, 10_049) not in got2


def test_empty_corpus_build_and_query(ray_session, tmp_path):
    """A zero-document build produces a consistent empty index that the
    reader, docstore, and suggest paths all handle."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from konlsearch_ray.build import IndexConfig, build_index
    from konlsearch_ray.query import IndexReader

    src = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({
        "repo": pa.array([], pa.string()),
        "path": pa.array([], pa.string()),
        "commit": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
        "content": pa.array([], pa.large_string()),
    }), src)
    idx = str(tmp_path / "idx")
    stats = build_index(src, idx, IndexConfig(shard_size=16))
    assert stats["N"] == 0 and stats["total_tokens"] == 0
    r = IndexReader(idx)
    assert r.search(["anything"], "OR") == []
    assert r.bm25_topk(["anything"], 5) == []

    # The paths that list the shard segments handle it too.
    from konlsearch_ray.export import export_postings
    from konlsearch_ray.query import ShardedQueryEngine
    from konlsearch_ray.tombstone import compact_index, delete_docs

    ds = export_postings(idx)
    assert ds.count() == 0
    assert ds.schema().names == ["term", "doc_id", "tf"]
    eng = ShardedQueryEngine(idx, 2)
    try:
        assert eng.search(["anything"], "OR") == []
        assert eng.bm25_topk(["anything"], 5) == []
    finally:
        eng.shutdown()
    delete_docs(idx, [5])
    assert compact_index(idx)["N"] == 0
