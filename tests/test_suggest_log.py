"""Jamo suggestions, search log, offset-checkpointed frequency top-k.

Parity targets: reference trie suggestions (trie.py:38-67, golden
test_konlsearch.py:555-560), search-log seq IDs (log.py:26-38,
test_konlsearch.py:569-594), frequency top-k (trie.py:200-216,
test_konlsearch.py:622-640) with the Q4 double-count bug fixed.
"""

import pyarrow as pa
import ray.data

from konlsearch_ray.pipelines.logagg import SearchLog, aggregate_search_frequency
from konlsearch_ray.pipelines.suggest import (
    decompose_jamo,
    suggest_jamo,
    topk_per_jamo_prefix,
)


def test_decompose_jamo():
    assert decompose_jamo("마법") == "ㅁㅏㅂㅓㅂ"  # reference trie.py:29-30 example
    assert decompose_jamo("특급") == "ㅌㅡㄱㄱㅡㅂ"
    assert decompose_jamo("abc마") == "abcㅁㅏ"
    assert decompose_jamo("") == ""


def test_suggest_jamo_matches_reference_golden(ray_session):
    # The reference golden: 특 → [특급, 특별, 특별해야] (test_konlsearch.py:555-560).
    terms = ["특급", "특별", "특별해야", "마법", "마법소녀", "건담", "seed"]
    d = ray.data.from_arrow(pa.table({"term": pa.array(terms)}))
    got = [r["term"] for r in suggest_jamo(d, "특").take_all()]
    assert got == ["특급", "특별", "특별해야"]
    # Partial-jamo query (trie operates in jamo space).
    got = [r["term"] for r in suggest_jamo(d, "ㅁ").take_all()]
    assert got == ["마법", "마법소녀"]
    got = [r["term"] for r in suggest_jamo(d, "se").take_all()]
    assert got == ["seed"]


def test_search_log_seq_and_incremental_aggregation(ray_session, tmp_path):
    log_dir = str(tmp_path / "log")
    freq_dir = str(tmp_path / "freq")
    clock_val = [1000.2]
    log = SearchLog(log_dir, clock=lambda: clock_val[0])
    # Same second → seq increments; next second → resets (log.py:26-38).
    log.log("마법", 6)
    log.log("마법", 6)
    clock_val[0] = 1001.7
    log.log("모래", 1)
    assert [(r[0], r[1]) for r in log._buf] == [(1000, 0), (1000, 1), (1001, 0)]
    log.flush()

    freq = aggregate_search_frequency(log_dir, freq_dir)
    got = dict(zip(freq["term"].to_pylist(), freq["hits"].to_pylist()))
    assert got == {"마법": 12, "모래": 1}

    # Re-run with no new parts: unchanged (Q4 double count fixed).
    freq = aggregate_search_frequency(log_dir, freq_dir)
    got = dict(zip(freq["term"].to_pylist(), freq["hits"].to_pylist()))
    assert got == {"마법": 12, "모래": 1}

    # New part aggregates incrementally.
    log.log("마법", 6)
    log.flush()
    freq = aggregate_search_frequency(log_dir, freq_dir)
    got = dict(zip(freq["term"].to_pylist(), freq["hits"].to_pylist()))
    assert got == {"마법": 18, "모래": 1}


def test_reader_logs_searches(ray_session, tmp_path):
    import os

    from konlsearch_ray.build import IndexConfig, build_index
    from konlsearch_ray.corpus import write_corpus
    from konlsearch_ray.query import IndexReader

    corpus = write_corpus(str(tmp_path / "c"), 200, seed=9)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, IndexConfig(shard_size=64))
    log_dir = str(tmp_path / "log")
    r = IndexReader(idx, log_dir=log_dir)
    r.search(["def", "zzznope"], "OR")
    r.search(["def", "return"], "AND")
    r.search_log.flush()
    parts = [n for n in os.listdir(log_dir) if n.endswith(".parquet")]
    assert parts
    import pyarrow.parquet as pq

    t = pa.concat_tables([pq.read_table(os.path.join(log_dir, n)) for n in parts])
    terms = t["term"].to_pylist()
    # Q7: only non-empty-posting tokens are logged.
    assert "zzznope" not in terms
    assert terms.count("def") == 2 and "return" in terms


def test_topk_per_jamo_prefix(ray_session):
    # Reference golden shape: 마 → [마법소녀, 마법, 모래]-style count ordering
    # (test_konlsearch.py:622-640): count desc, term asc, bounded at 5.
    freq = ray.data.from_arrow(pa.table({
        "term": pa.array(["마법소녀", "마법", "모래", "마마마", "마법사",
                          "마법처럼", "마법원"]),
        "hits": pa.array([6, 1, 1, 1, 1, 1, 1], pa.int64()),
    }))
    out = topk_per_jamo_prefix(freq).to_pandas()
    row = out[out["prefix"] == "ㅁ"].sort_values("rk")
    assert list(row["term"])[:2] == ["마법소녀", "마마마"]
    assert len(row) == 5  # bounded top-5 (counter.py:12-18)
    row2 = out[out["prefix"] == "ㅁㅏㅂㅓㅂ"].sort_values("rk")
    assert list(row2["term"])[0] == "마법소녀"
    assert "모래" not in set(row2["term"])


def test_indexed_suggest_matches_dataset_path(ray_session, tmp_path,
                                              monkeypatch):
    """Both sides of finalize's ``DRIVER_MAX_TERMS`` switch write the
    same term table row for row, sorted by (jamo_key, term) in small row
    groups, and its range-scan paths return exactly what the
    full-dictionary filter paths return, for plain and jamo prefixes,
    including partial-syllable queries."""
    import os

    import pyarrow.parquet as pq

    from konlsearch_ray import build
    from konlsearch_ray.corpus import write_corpus
    from konlsearch_ray.pipelines.suggest import (
        suggest,
        suggest_indexed,
        suggest_jamo,
        suggest_jamo_indexed,
    )
    from konlsearch_ray.segment import (DICTIONARY_SCHEMA, dictionary_files,
                                        read_dictionary)

    corpus = write_corpus(str(tmp_path / "c"), 300, seed=4)
    idx, tables = {}, {}
    for side, limit in (("driver", build.DRIVER_MAX_TERMS), ("ray", 0)):
        monkeypatch.setattr(build, "DRIVER_MAX_TERMS", limit)
        idx[side] = str(tmp_path / side)
        vocab = build.build_index(
            corpus, idx[side], build.IndexConfig(shard_size=64))["vocab"]
        assert not os.path.exists(os.path.join(idx[side], "suggest"))
        tables[side] = read_dictionary(idx[side], DICTIONARY_SCHEMA.names)
        assert tables[side].num_rows == vocab > 0
    assert tables["driver"].equals(tables["ray"])
    # Range scan prunes: the table is sorted with small row groups.
    t = tables["driver"]
    assert t.sort_by([("jamo_key", "ascending"),
                      ("term", "ascending")]).equals(t)
    md = pq.read_metadata(dictionary_files(idx["driver"])[0])
    assert md.num_row_groups == -(-t.num_rows // 4096)
    assert all(md.row_group(i).num_rows <= 4096
               for i in range(md.num_row_groups))
    for side, d in idx.items():
        dict_ds = ray.data.read_parquet(dictionary_files(d))
        for prefix in ["s", "de", "마", "ㅁ", "특"]:
            slow = [r["term"] for r in suggest(dict_ds, prefix).take_all()]
            fast = suggest_indexed(d, prefix)["term"].to_pylist()
            assert fast == slow, (side, prefix)
            slow_j = [r["term"]
                      for r in suggest_jamo(dict_ds, prefix).take_all()]
            fast_j = suggest_jamo_indexed(d, prefix)["term"].to_pylist()
            assert fast_j == slow_j, (side, prefix)


def test_decompose_jamo_bulk():
    from konlsearch_ray.pipelines.suggest import decompose_jamo, decompose_jamo_bulk

    terms = ["마법", "특급", "abc마", "", "seed"]
    assert decompose_jamo_bulk(terms) == [decompose_jamo(t) for t in terms]


def test_search_log_flow_end_to_end(ray_session, tmp_path):
    """The composed reference chain (inverted_index.py:108-128 ->
    trie.py:183-216): serve real queries with a live log, flush,
    aggregate frequencies, feed the per-jamo-prefix top-k."""
    from konlsearch_ray.build import IndexConfig, build_index
    from konlsearch_ray.corpus import write_corpus
    from konlsearch_ray.pipelines.logagg import aggregate_search_frequency
    from konlsearch_ray.pipelines.suggest import topk_per_jamo_prefix
    from konlsearch_ray.query import IndexReader

    corpus = write_corpus(str(tmp_path / "c"), 250, seed=6)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, IndexConfig(shard_size=64))
    log_dir = str(tmp_path / "log")
    freq_dir = str(tmp_path / "freq")
    r = IndexReader(idx, log_dir=log_dir)
    # Serve queries: "def" three times, "return" twice, "deadbeefzz" never
    # hits (Q7: not logged).
    r.search(["def", "return"], "AND")
    r.search(["def"], "OR")
    r.search(["def", "deadbeefzz"], "OR")
    r.search(["return"], "OR")
    r.search_log.flush()
    freq = aggregate_search_frequency(log_dir, freq_dir)
    got = dict(zip(freq["term"].to_pylist(), freq["hits"].to_pylist()))
    hits_def = r.df("def")
    assert got["def"] == 3 * hits_def
    assert "deadbeefzz" not in got
    # Feed the aggregated frequency into the per-prefix top-k (the
    # reference's trie.increase_frequency consumer).
    top = topk_per_jamo_prefix(
        ray.data.from_arrow(freq), count_col="hits").to_pandas()
    row = top[(top["prefix"] == "d") & (top["rk"] == 1)]
    assert list(row["term"]) == ["def"]
    # Incremental: more traffic, re-aggregate, counts move, top-k follows.
    r.search(["return"], "OR")
    r.search(["return"], "OR")
    r.search(["return"], "OR")
    r.search_log.flush()
    freq2 = aggregate_search_frequency(log_dir, freq_dir)
    got2 = dict(zip(freq2["term"].to_pylist(), freq2["hits"].to_pylist()))
    assert got2["return"] == 5 * r.df("return")
