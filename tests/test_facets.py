"""Faceted search (IndexReader.facet_counts) invariants.

Contract under test: facet counts over a Boolean hit set equal a
brute-force SQL-style GROUP BY over the matching docs' metadata, on
BOTH physical paths — the small-hit-set id-pushdown multi-get and the
broadcast Dataset scan (forced via FACET_SCAN_MIN_HITS=0) — with
(n desc, facet asc) ordering and null facets grouped, not dropped.
"""

from collections import Counter

import pyarrow as pa
import pytest

import konlsearch_ray.query as qmod
from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.docstore import DocStore
from konlsearch_ray.query import IndexReader

N_DOCS = 300


@pytest.fixture(scope="module")
def facet_built(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    from konlsearch_ray.corpus import generate_corpus

    root = tmp_path_factory.mktemp("konl_facets")
    table = generate_corpus(N_DOCS, seed=23)
    # Deterministic facet column, with nulls: SQL GROUP BY keeps a null
    # group, so the engine must too.
    grp = pa.array([None if i % 17 == 0 else f"g{i % 4}"
                    for i in range(table.num_rows)])
    table = table.append_column("grp", grp)
    # An int-typed facet column: both physical paths must preserve the
    # stored Arrow type, not coerce to string.
    yr = pa.array([2020 + (i % 3) for i in range(table.num_rows)],
                  pa.int64())
    table = table.append_column("yr", yr)
    # A float facet column with NaN in every 4th doc: NaN is one facet
    # value, however many shards its docs span.
    sc = pa.array([float("nan") if i % 4 == 0 else (i % 3) / 2
                   for i in range(table.num_rows)], pa.float64())
    table = table.append_column("sc", sc)
    src = str(root / "corpus.parquet")
    pq.write_table(table, src)
    index_dir = str(root / "index")
    build_index(src, index_dir,
                IndexConfig(shard_size=64, store_cols=["grp", "yr", "sc"],
                            dedup=False))
    return IndexReader(index_dir), DocStore(index_dir)


def _brute(reader, store, tokens, mode="AND"):
    ids = reader.search(tokens, mode)
    if not ids:
        return []
    meta = store.get_multi(ids, columns=["doc_id", "grp"])
    cnt = Counter(meta["grp"].to_pylist())
    return sorted(cnt.items(),
                  key=lambda kv: (-kv[1], kv[0] is None, kv[0] or ""))


def test_facets_match_bruteforce(facet_built):
    reader, store = facet_built
    tokens = ["class", "def"]
    got = reader.facet_counts(tokens, "grp")
    want = _brute(reader, store, tokens)
    assert len(want) >= 4  # non-trivial: several facets actually hit
    assert list(zip(got["facet"].to_pylist(), got["n"].to_pylist())) == want


def test_facets_scan_path_agrees(facet_built, monkeypatch):
    reader, store = facet_built
    tokens = ["def"]
    small = reader.facet_counts(tokens, "grp")
    monkeypatch.setattr(qmod, "FACET_SCAN_MIN_HITS", 0)
    big = reader.facet_counts(tokens, "grp")
    assert small.to_pylist() == big.to_pylist()
    assert sum(big["n"].to_pylist()) == len(reader.search(tokens, "AND"))


def test_facets_topk_and_empty(facet_built):
    reader, store = facet_built
    top1 = reader.facet_counts(["class"], "grp", k=1)
    assert top1.num_rows == 1
    full = reader.facet_counts(["class"], "grp")
    assert top1.to_pylist() == full.slice(0, 1).to_pylist()
    empty = reader.facet_counts(["qqqzzznope"], "grp")
    assert empty.num_rows == 0
    assert empty.column_names == ["facet", "n"]


def test_facets_sharded_parity(facet_built):
    # Scatter-gather facets must equal the single reader exactly:
    # disjoint shard subsets make the per-actor partials sum.
    from konlsearch_ray.query import ShardedQueryEngine

    reader, store = facet_built
    eng = ShardedQueryEngine(reader.index_dir, num_actors=3)
    try:
        for tokens, mode in ([(["class", "def"], "AND"),
                              (["class", "def", "import"], "OR")]):
            single = reader.facet_counts(tokens, "grp", mode=mode)
            sharded = eng.facet_counts(tokens, "grp", mode=mode)
            assert sharded.to_pylist() == single.to_pylist()
        top2 = eng.facet_counts(["def"], "grp", k=2)
        assert top2.num_rows == 2
        assert (top2.to_pylist()
                == reader.facet_counts(["def"], "grp", k=2).to_pylist())
        assert eng.facet_counts(["qqqzzznope"], "grp").num_rows == 0
        # Typed parity: the merged table keeps the stored column type.
        sh_yr = eng.facet_counts(["def"], "yr")
        assert sh_yr.schema.field("facet").type == pa.int64()
        assert sh_yr.to_pylist() == reader.facet_counts(
            ["def"], "yr").to_pylist()
        # NaN facets: one row, as in the reader (nan != nan, so compare
        # with NaN as a marker).
        def nan_aware(t):
            return [("NaN" if f != f else f, n)
                    for f, n in zip(t["facet"].to_pylist(), t["n"].to_pylist())]

        for tokens, mode in ([(["def"], "AND"),
                              (["class", "def", "import"], "OR")]):
            single = nan_aware(reader.facet_counts(tokens, "sc", mode=mode))
            assert [f for f, _ in single].count("NaN") == 1
            assert nan_aware(eng.facet_counts(tokens, "sc",
                                              mode=mode)) == single
    finally:
        eng.shutdown()


def test_facets_int_typed_column_both_paths(facet_built, monkeypatch):
    # The scan path must emit the column's OWN type (it used to
    # hardcode string and crash on int64 facets past the threshold).
    reader, store = facet_built
    small = reader.facet_counts(["def"], "yr")
    assert small.schema.field("facet").type == pa.int64()
    monkeypatch.setattr(qmod, "FACET_SCAN_MIN_HITS", 0)
    big = reader.facet_counts(["def"], "yr")
    assert big.schema.field("facet").type == pa.int64()
    assert small.to_pylist() == big.to_pylist()
    assert small.num_rows == 3


def test_facets_null_group_counted(facet_built):
    reader, store = facet_built
    # A broad OR over common tokens should include some null-facet docs.
    got = reader.facet_counts(["class", "def", "import"], "grp", mode="OR")
    facets = got["facet"].to_pylist()
    assert None in facets  # the null group survives
    want = _brute(reader, store, ["class", "def", "import"], "OR")
    assert list(zip(facets, got["n"].to_pylist())) == want


@pytest.fixture(scope="module")
def wide_facets(ray_session, tmp_path_factory):
    """An index whose facet columns have thousands of distinct values
    plus nulls, in a string, an int64 and a float64 column."""
    import pyarrow.parquet as pq

    from konlsearch_ray.corpus import generate_corpus

    root = tmp_path_factory.mktemp("konl_wide_facets")
    table = generate_corpus(3000, seed=29)
    n = table.num_rows
    table = table.append_column("tag", pa.array(
        [None if i % 13 == 0 else f"t{i % 2500:04d}" for i in range(n)]))
    table = table.append_column("num", pa.array(
        [None if i % 11 == 0 else (i * 7) % 2200 for i in range(n)],
        pa.int64()))
    table = table.append_column("score", pa.array(
        [None if i % 7 == 0 else (i % 1500) / 4 for i in range(n)],
        pa.float64()))
    src = str(root / "corpus.parquet")
    pq.write_table(table, src)
    index_dir = str(root / "index")
    build_index(src, index_dir,
                IndexConfig(shard_size=512,
                            store_cols=["tag", "num", "score"], dedup=False))
    return IndexReader(index_dir), DocStore(index_dir)


@pytest.mark.parametrize("col,ftype", [("tag", pa.string()),
                                       ("num", pa.int64()),
                                       ("score", pa.float64())])
def test_facets_scan_fold_high_cardinality(wide_facets, monkeypatch,
                                           col, ftype):
    # The scan path folds (facet, n) partials inside the Dataset,
    # routed by the facet's key bucket; it must equal the id-pushdown
    # path and brute force, null group included, on thousands of facets.
    reader, store = wide_facets
    tokens = ["class", "def", "import"]
    ids = reader.search(tokens, "OR")
    meta = store.get_multi(ids, columns=["doc_id", col])
    cnt = Counter(meta[col].to_pylist())
    assert len(cnt) >= 1000 and None in cnt
    want = sorted(cnt.items(),
                  key=lambda kv: (-kv[1], kv[0] is None,
                                  kv[0] if kv[0] is not None else 0))
    small = reader.facet_counts(tokens, col, mode="OR")
    monkeypatch.setattr(qmod, "FACET_SCAN_MIN_HITS", 0)
    big = reader.facet_counts(tokens, col, mode="OR")
    assert big.schema.field("facet").type == ftype
    assert big.to_pylist() == small.to_pylist()
    assert list(zip(big["facet"].to_pylist(), big["n"].to_pylist())) == want
