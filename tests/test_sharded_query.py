"""Scatter-gather query serving: K actors × disjoint shard subsets must be
rank- and score-identical to the single whole-index reader (the cluster
layout of the north star: per-node shard ownership + top-k merge)."""

import math
import random

import pytest

from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.corpus import write_corpus
from konlsearch_ray.query import (IndexReader, ShardedQueryEngine,
                                  _DENSE, _merge_topk, _sharded_groups)
from konlsearch_ray.segment import shard_nums
from stored_terms import sample_terms


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("sq")
    corpus = write_corpus(str(root / "c"), 500, seed=11)
    idx = str(root / "i")
    build_index(corpus, idx, IndexConfig(shard_size=64))  # 8 shards
    engine = ShardedQueryEngine(idx, num_actors=3)
    reader = IndexReader(idx)
    yield engine, reader
    engine.shutdown()


def test_boolean_modes_match(built):
    engine, reader = built
    cases = [
        (["def", "return"], "AND"), (["def", "건담"], "OR"),
        (["zzznope", "def"], "AND"), (["import", "self"], "PHRASE"),
        (["마법", "소녀"], "OR"),
    ]
    for tokens, mode in cases:
        assert engine.search(tokens, mode) == reader.search(tokens, mode), (tokens, mode)


def test_min_should_match(built):
    engine, reader = built
    toks = ["def", "return", "마법"]
    # m=1 is OR, m=len is AND; the middle value is the new surface.
    assert reader.search_min_should(toks, 1) == reader.search(toks, "OR")
    assert reader.search_min_should(toks, 3) == reader.search(toks, "AND")
    mid = reader.search_min_should(toks, 2)
    assert set(reader.search(toks, "AND")) <= set(mid) <= set(
        reader.search(toks, "OR"))
    assert len(mid) > len(reader.search(toks, "AND"))  # non-trivial
    for m in (1, 2, 3, 4):
        assert engine.search_min_should(toks, m) == \
            reader.search_min_should(toks, m), m
    # duplicate query terms must not double-count a single match
    assert reader.search_min_should(["def", "def", "return"], 2) == \
        reader.search(["def", "return"], "AND")
    with pytest.raises(ValueError):
        reader.search_min_should(toks, 0)


def test_complex_matches(built):
    engine, reader = built
    tree = (((["def"], "AND"), (["마법"], "OR"), "AND"),
            ((["특급"], "OR"), (["건담"], "OR"), "OR"), "OR")
    assert engine.search_complex(tree) == reader.search_complex(tree)


def test_bm25_rank_and_score_identical(built):
    engine, reader = built
    vocab = sample_terms(reader, 500)
    rng = random.Random(3)
    queries = [["def", "return", "import"], ["def"], ["마법", "건담"]]
    for _ in range(20):
        queries.append(rng.sample(vocab, rng.randint(1, 4)))
    for tokens in queries:
        for k in (1, 5, 20):
            a = engine.bm25_topk(tokens, k)
            b = reader.bm25_topk(tokens, k)
            assert [d for d, _ in a] == [d for d, _ in b], (tokens, k)
            for (_, sa), (_, sb) in zip(a, b):
                assert math.isclose(sa, sb, rel_tol=1e-12), tokens


def test_negative_k_rejected_before_fan_out(built, monkeypatch):
    """Every sharded top-k entry rejects k < 0 before any actor call;
    k = 0 is an empty result."""
    import pyarrow.dataset as pads

    engine, _ = built
    calls = []
    real = engine._gather

    def gather(*args, **kw):
        calls.append(args[0])
        return real(*args, **kw)

    monkeypatch.setattr(engine, "_gather", gather)
    flt = pads.field("doc_id") > 0
    for call in (lambda k: engine.bm25_topk(["def", "return"], k),
                 lambda k: engine.bm25_topk_filtered(["def"], k, flt),
                 lambda k: engine.more_like_this(1, k=k)):
        with pytest.raises(ValueError, match="k must be >= 0"):
            call(-1)
        assert calls == []
        assert call(0) == []
        calls.clear()


def test_requires_compacted_index(ray_session, tmp_path):
    from konlsearch_ray.tombstone import compact_index, delete_docs

    corpus = write_corpus(str(tmp_path / "c"), 150, seed=2)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, IndexConfig(shard_size=64))
    delete_docs(idx, [1])
    with pytest.raises(ValueError):
        ShardedQueryEngine(idx, num_actors=2)
    compact_index(idx)
    eng = ShardedQueryEngine(idx, num_actors=2)
    assert 1 not in eng.search(["def"], "OR")
    eng.shutdown()


def test_sharded_query_pipeline_matches_whole_index(ray_session, tmp_path):
    """Dataset-API scatter-gather (per-actor shard-subset readers) must be
    row-identical to the whole-index QueryStage path."""
    import pyarrow as pa
    import ray.data as rd

    from konlsearch_ray.build import IndexConfig, build_index
    from konlsearch_ray.corpus import write_corpus
    from konlsearch_ray.query import QueryStage, sharded_query_pipeline

    corpus = write_corpus(str(tmp_path / "qc"), 400, seed=17)
    idx = str(tmp_path / "qi")
    build_index(corpus, idx, IndexConfig(shard_size=64))
    qt = pa.table({
        "qid": pa.array(range(7), pa.int64()),
        "tokens": pa.array(
            [["def", "return"], ["import"], ["def"], ["class", "self"],
             ["getidx", "return"], ["zznothing"],
             ["def", "return", "class"]], pa.list_(pa.string())),
        "mode": pa.array(["BM25", "AND", "BM25", "PHRASE", "BM25", "AND",
                          "MSM"]),
        # MSM carries m in the k column (2-of-3 terms).
        "k": pa.array([10, 0, 5, 0, 10, 0, 2], pa.int64()),
    })
    whole = (rd.from_arrow(qt).map_batches(
        QueryStage, fn_constructor_kwargs={"index_dir": idx},
        batch_format="pyarrow", concurrency=2).to_pandas()
        .sort_values(["qid", "rank"]).reset_index(drop=True))
    shard = (sharded_query_pipeline(idx, rd.from_arrow(qt), num_subsets=3)
             .to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True))
    assert whole[["qid", "doc_id", "rank"]].values.tolist() == \
        shard[["qid", "doc_id", "rank"]].values.tolist()
    assert (whole["score"].to_numpy() == shard["score"].to_numpy()).all()  # bit-identical
    # The MSM row served the reader surface exactly (m=2 of 3 terms).
    from konlsearch_ray.query import IndexReader

    msm = whole[whole["qid"] == 6]["doc_id"].tolist()
    assert msm == IndexReader(idx).search_min_should(
        ["def", "return", "class"], 2)
    assert msm  # non-trivial


def _stage_rows(idx, qt, sharded: bool):
    import ray.data as rd

    from konlsearch_ray.query import QueryStage, sharded_query_pipeline

    if sharded:
        return sharded_query_pipeline(idx, rd.from_arrow(qt), num_subsets=2)
    return rd.from_arrow(qt).map_batches(
        QueryStage, fn_constructor_kwargs={"index_dir": idx},
        batch_format="pyarrow", concurrency=1)


def _query_table(tokens, modes, ks):
    import pyarrow as pa

    return pa.table({
        "qid": pa.array(range(len(tokens)), pa.int64()),
        "tokens": pa.array(tokens, pa.list_(pa.string())),
        "mode": pa.array(modes),
        "k": pa.array(ks, pa.int64()),
    })


def test_sharded_pipeline_all_miss_keeps_schema(built):
    """An all-miss batch yields 0 rows typed exactly like the whole-index
    stage; a BM25 k above the hit count returns every hit, unpadded."""
    import pyarrow as pa

    _, reader = built
    idx = reader.index_dir
    miss = _query_table([["zzznope"], ["qqqnope", "def"]], ["BM25", "AND"],
                        [10, 0])
    whole = _stage_rows(idx, miss, sharded=False)
    shard = _stage_rows(idx, miss, sharded=True)
    want = [("qid", pa.int64()), ("doc_id", pa.int64()),
            ("rank", pa.int64()), ("score", pa.float64())]
    for ds in (whole, shard):
        schema = ds.schema()
        assert schema is not None
        assert list(zip(schema.names, schema.types)) == want
    assert shard.count() == 0

    n_hits = len(reader.search(["def"], "OR"))
    big = _query_table([["def"]], ["BM25"], [n_hits + 7])
    rows = (_stage_rows(idx, big, sharded=True).to_pandas()
            .sort_values("rank").reset_index(drop=True))
    want_rows = reader.bm25_topk(["def"], n_hits + 7)
    assert len(want_rows) == n_hits
    assert rows["doc_id"].tolist() == [d for d, _ in want_rows]
    assert rows["score"].tolist() == [s for _, s in want_rows]
    assert rows["rank"].tolist() == list(range(n_hits))


@pytest.mark.parametrize("shards", [None, [0, 2]])
def test_query_stage_unknown_mode_raises(built, shards):
    from konlsearch_ray.query import QueryStage

    _, reader = built
    stage = QueryStage(reader.index_dir, shards=shards,
                       partial=shards is not None)
    with pytest.raises(ValueError):
        stage(_query_table([["def"]], ["XOR"], [0]))


def _spread_index(tmp_path, n=768, shard_size=64):
    """``n`` docs in ``shard_size``-doc shards; "spread" sits in every
    6th doc (df = n/6 ≥ n/8), evenly across the doc ids."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array(range(1, n + 1), pa.int64()),
        "text": [f"filler{i % 5} {'spread ' if i % 6 == 0 else ''}uniq{i}"
                 for i in range(1, n + 1)]}), str(src))
    idx = str(tmp_path / "i")
    build_index(str(src), idx, IndexConfig(
        content_col="text", id_col="doc_id", dedup=False, sort_keys=[],
        shard_size=shard_size))
    return idx


def test_groups_are_balanced_contiguous_runs(ray_session, tmp_path):
    """Each actor gets a contiguous run of shards, group sizes differ by
    at most one, and its reader's doc-id window W is at most (largest
    group) × shard_size ids. On that window an evenly spread term with
    df ≥ N/8 takes the dense route on every subset reader (a strided
    subset's window spans the whole index, so it does not), and the
    merged top-k equals the whole-index reader's."""
    idx = _spread_index(tmp_path)
    shards = shard_nums(idx)
    assert len(shards) == 12
    whole = IndexReader(idx)
    assert _DENSE * whole.df("spread") >= whole.n_docs
    for k in (1, 2, 3, 5, 7, 12, 20):
        groups = _sharded_groups(idx, k, "test")
        assert [s for g in groups for s in g] == shards, k
        sizes = [len(g) for g in groups]
        assert len(groups) == min(k, 12) and max(sizes) - min(sizes) <= 1
        subs = [IndexReader(idx, shards=g, use_global_df=True)
                for g in groups]
        for sub in subs:
            assert sub._dl_span <= max(sizes) * 64, (k, sub.shards)
            toks = ["spread"]
            assert sub._all_dense(toks, sub._store.entries(toks)), k
        for q in (["spread"], ["spread", "filler2"], ["filler1", "uniq7"]):
            for top in (1, 10, 50):
                assert _merge_topk([s.bm25_topk(q, top) for s in subs],
                                   top) == whole.bm25_topk(q, top), (k, q)
        if k > 1 and len(shards[::k]) > 1:
            strided = IndexReader(idx, shards=shards[::k],
                                  use_global_df=True)
            assert not strided._all_dense(
                ["spread"], strided._store.entries(["spread"])), k


def test_appended_index_sharded_equals_single_reader(ray_session, tmp_path):
    """After ``append_documents`` adds shards, the engine's contiguous
    groups still return the single reader's results bit for bit."""
    import ray.data

    from konlsearch_ray.build import append_documents

    idx = str(tmp_path / "i")
    build_index(write_corpus(str(tmp_path / "c"), 300, seed=5), idx,
                IndexConfig(shard_size=64))
    extra = write_corpus(str(tmp_path / "c2"), 120, seed=6)
    append_documents(idx, ray.data.read_parquet(extra))
    reader = IndexReader(idx)
    assert reader.n_docs > 300
    engine = ShardedQueryEngine(idx, num_actors=3)
    try:
        rng = random.Random(8)
        vocab = sample_terms(reader, 400)
        queries = [["def", "return"], ["마법", "건담", "def"]] + [
            rng.sample(vocab, rng.randint(1, 3)) for _ in range(12)]
        for q in queries:
            for k in (1, 10, 50):
                assert engine.bm25_topk(q, k) == reader.bm25_topk(q, k), q
            assert engine.search(q, "AND") == reader.search(q, "AND"), q
            assert engine.search(q, "OR") == reader.search(q, "OR"), q
    finally:
        engine.shutdown()
