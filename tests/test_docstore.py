"""DocStore J3 parity: get / get_multi / get_range / get_all / __len__
(reference index.py:364-408, goldens test_konlsearch.py:308-342)."""

import pytest

from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.corpus import write_corpus
from konlsearch_ray.docstore import DocStore
from konlsearch_ray.tombstone import delete_docs


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    corpus = write_corpus(str(root / "c"), 300, seed=3)
    idx = str(root / "i")
    stats = build_index(corpus, idx, IndexConfig(shard_size=64))
    return DocStore(idx), stats, idx


def test_point_get(store):
    ds, stats, _ = store
    row = ds.get(1)
    assert row["doc_id"] == 1 and "content" in row and "content_sha256" in row
    assert ds.get(stats["N"]) is not None
    assert ds.get(stats["N"] + 1) is None  # reference: KeyError past the end


def test_get_multi(store):
    ds, stats, _ = store
    t = ds.get_multi([5, 1, 200, 999999, 5])
    got = t["doc_id"].to_pylist()
    assert got == [1, 5, 200]  # dedup'd, sorted, missing skipped


def test_get_range_half_open(store):
    ds, _, _ = store
    t = ds.get_range(100, 120)
    assert t["doc_id"].to_pylist() == list(range(100, 120))
    assert ds.get_range(10, 10).num_rows == 0
    assert ds.get_range(63, 67)["doc_id"].to_pylist() == [63, 64, 65, 66]  # shard crossing


def test_get_all_and_len(store):
    ds, stats, _ = store
    t = ds.get_all()
    assert t.num_rows == stats["N"] == len(ds)
    ids = t["doc_id"].to_pylist()
    assert ids == list(range(1, stats["N"] + 1))


def test_deleted_docs_absent(store):
    _, stats, idx = store
    delete_docs(idx, [2, 101])
    ds = DocStore(idx)
    assert ds.get(2) is None
    assert ds.get_multi([1, 2, 3])["doc_id"].to_pylist() == [1, 3]
    assert ds.get_range(100, 103)["doc_id"].to_pylist() == [100, 102]
    assert len(ds) == stats["N"] - 2


def test_get_multi_status(store):
    """Reference GetStatusCode parity (index.py:41-63): per-id
    FOUND/NOT_FOUND instead of silently omitting misses."""
    ds, stats, _ = store
    st = ds.get_multi_status([2, 999999, 5]).to_pandas()
    assert list(st["doc_id"]) == [2, 5, 999999]
    assert list(st["status"]) == ["FOUND", "FOUND", "NOT_FOUND"]


def test_get_tokens_matches_analyzer(store):
    """get_tokens parity (reference index.py:410): set + ordered stream
    equal a direct re-tokenization of the stored content; deleted/absent
    docs return None."""
    from konlsearch_ray.analyzer import tokenize

    store, _, _ = store
    row = store.get(3)
    assert row is not None
    content_col = store.meta["content_col"]
    golden = tokenize(row[content_col])
    assert store.get_ordered_tokens(3) == golden
    assert store.get_tokens(3) == set(golden)
    assert store.get_tokens(10**9) is None


def test_get_tokens_custom_analyzer(store):
    from konlsearch_ray.analyzer import KoreanLexiconAnalyzer

    store, _, _ = store
    an = KoreanLexiconAnalyzer()
    row = store.get(3)
    golden = an.tokenize_many([row[store.meta["content_col"]]])[0]
    assert store.get_ordered_tokens(3, analyzer=an) == golden


def test_docstore_compacted_layout(store):
    """Every shard dir holds exactly ONE doc_id-sorted parquet file after
    build: the docstore writer routes rows to their shard before any
    file is written."""
    import os

    import pyarrow.parquet as pq

    ds, stats, idx = store
    docs_dir = os.path.join(idx, "docs")
    shard_dirs = [os.path.join(docs_dir, n) for n in os.listdir(docs_dir)
                  if n.startswith("shard=")]
    assert shard_dirs
    for d in shard_dirs:
        files = [f for f in os.listdir(d) if f.endswith(".parquet")]
        assert len(files) == 1, (d, files)
        ids = pq.read_table(os.path.join(d, files[0]))["doc_id"].to_pylist()
        assert ids == sorted(ids)


def _docs_files(idx):
    """{relative path: bytes} of every docstore file."""
    import os

    docs_dir = os.path.join(idx, "docs")
    out = {}
    for sd in sorted(os.listdir(docs_dir)):
        for n in sorted(os.listdir(os.path.join(docs_dir, sd))):
            with open(os.path.join(docs_dir, sd, n), "rb") as f:
                out[f"{sd}/{n}"] = f.read()
    return out


def test_docstore_bytes_independent_of_block_split(ray_session, tmp_path):
    """The same corpus read as 1 and as 7 blocks writes docstore files
    with identical bytes under identical names."""
    import ray.data

    corpus = write_corpus(str(tmp_path / "c"), 300, seed=5)
    files = []
    for nblocks in (1, 7):
        idx = str(tmp_path / f"i{nblocks}")
        src = ray.data.read_parquet(corpus, override_num_blocks=nblocks)
        build_index(src, idx, IndexConfig(shard_size=64))
        files.append(_docs_files(idx))
    assert len(files[0]) == 5  # 300 docs minus dups over 64-doc shards
    assert files[0] == files[1]


def test_id_col_ties_one_sorted_file_per_shard(ray_session, tmp_path):
    """id_col mode with duplicate-content ties spread over blocks: the
    tie rule keeps the smallest row and drops the others in their
    blocks, so each shard is still ONE doc_id-sorted file."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    n = 40
    base = pa.table({
        "id": pa.array(range(1, n + 1), pa.int64()),
        "text": pa.array([f"doc {i} words" for i in range(n)]),
        "origin": pa.array(["bb"] * n),
    })
    # every fifth row repeats twice more with other origins: ties in
    # (id, content) the winner filter cannot break
    ties = base.filter(pa.array([i % 5 == 0 for i in range(n)]))
    extra = [ties.set_column(2, "origin", pa.array([o] * ties.num_rows))
             for o in ("cc", "aa")]
    t = pa.concat_tables([base] + extra)
    idx = str(tmp_path / "i")
    stats = build_index(
        ray.data.from_arrow(t).repartition(4), idx,
        IndexConfig(content_col="text", id_col="id", sort_keys=[],
                    store_cols=["origin"], shard_size=16))
    assert stats["N"] == n
    docs_dir = os.path.join(idx, "docs")
    got = []
    for sd in sorted(os.listdir(docs_dir), key=lambda s: int(s[6:])):
        names = os.listdir(os.path.join(docs_dir, sd))
        assert names == ["docs.parquet"], (sd, names)
        part = pq.read_table(os.path.join(docs_dir, sd, names[0]))
        ids = part["doc_id"].to_pylist()
        assert ids == sorted(ids)
        got.append(part)
    docs = pa.concat_tables(got)
    assert docs["doc_id"].to_pylist() == list(range(1, n + 1))
    assert docs["origin"].to_pylist() == [
        "aa" if i % 5 == 0 else "bb" for i in range(n)]
    assert not os.path.exists(os.path.join(idx, ".tie_tmp"))


def test_write_docs_shard_retry_idempotent(ray_session, tmp_path):
    """A retried shard writer (same pieces) leaves one identical,
    doc_id-sorted file and no temp file."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from konlsearch_ray.build import _write_docs_shard

    t = pa.table({"doc_id": pa.array(range(1, 41), pa.int64()),
                  "content": [f"row {i}" for i in range(40)]})
    pieces = [t.slice(20, 20), t.slice(0, 20)]
    path = str(tmp_path / "shard=0" / "docs.parquet")
    assert ray.get(_write_docs_shard.remote(path, *pieces)) == 40
    with open(path, "rb") as f:
        first = f.read()
    assert ray.get(_write_docs_shard.remote(path, *pieces)) == 40
    assert os.listdir(tmp_path / "shard=0") == ["docs.parquet"]
    with open(path, "rb") as f:
        assert f.read() == first
    assert pq.read_table(path).equals(t)


def test_docs_write_time_reported(store):
    """``phase_sec.docs_sub["write"]`` times the whole docstore write
    (split + shard writers) inside the docs phase."""
    _, stats, _ = store
    ph = stats["phase_sec"]
    assert 0 <= ph["docs_sub"]["write"] <= ph["docs"]


def test_doc_id_zero_addressable(ray_session, tmp_path):
    """id_col mode can carry doc_id 0; the build partitions it with
    Arrow's TRUNCATING divide into shard=0, so the reader's shard
    arithmetic must truncate too — floor division would probe shard -1
    and silently miss a live doc (get/get_multi/get_range must agree)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from konlsearch_ray.build import IndexConfig, build_index

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["zero doc here", "one doc", "two doc",
                          "three doc"], pa.large_string()),
    })
    src = str(tmp_path / "d.parquet")
    pq.write_table(docs, src)
    idx = str(tmp_path / "i")
    build_index(src, idx, IndexConfig(content_col="text", id_col="doc_id",
                                      dedup=False, shard_size=2))
    store = DocStore(idx)
    assert store.get(0) is not None and store.get(0)["text"].startswith("zero")
    assert store.get_multi([0, 2])["doc_id"].to_pylist() == [0, 2]
    assert store.get_range(0, 2)["doc_id"].to_pylist() == [0, 1]
    assert store.get_multi_status([0, 9])["status"].to_pylist() == [
        "FOUND", "NOT_FOUND"]


def test_multi_get_id_inputs(ray_session, tmp_path):
    """get_multi / get_multi_status take ids as a list, a tuple, a set or
    an int64 array, unsorted and with duplicates: the result is the
    distinct ids ascending, doc id 0 included (truncating shard map),
    missing ids dropped (statuses: NOT_FOUND), empty input empty."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 7, 8], pa.int64()),
        "text": pa.array([f"doc {w}" for w in "abcdef"], pa.large_string()),
    })
    src = str(tmp_path / "d.parquet")
    pq.write_table(docs, src)
    idx = str(tmp_path / "i")
    build_index(src, idx, IndexConfig(content_col="text", id_col="doc_id",
                                      dedup=False, shard_size=2))
    store = DocStore(idx)
    ask = [8, 0, 3, 0, 8, 99, 3]
    for ids in (ask, tuple(ask), set(ask), np.array(ask, np.int64)):
        t = store.get_multi(ids, columns=["doc_id", "text"])
        assert t["doc_id"].to_pylist() == [0, 3, 8]
        assert t["text"].to_pylist() == ["doc a", "doc d", "doc f"]
        st = store.get_multi_status(ids)
        assert st["doc_id"].to_pylist() == [0, 3, 8, 99]
        assert st["status"].to_pylist() == [
            "FOUND", "FOUND", "FOUND", "NOT_FOUND"]
    for empty in ([], np.zeros(0, np.int64)):
        assert store.get_multi(empty).num_rows == 0
        st = store.get_multi_status(empty)
        assert st.num_rows == 0
        assert st.schema == pa.schema([("doc_id", pa.int64()),
                                       ("status", pa.string())])
    assert store.get_multi([99, 100]).num_rows == 0
    # The array shard map truncates like the scalar one: doc id 0 and
    # negative ids map toward zero.
    ids = np.array([-3, -2, -1, 0, 1, 2, 3, 4, 5], np.int64)
    assert store._shard_of(ids).tolist() == [-2, -1, -1, 0, 0, 0, 1, 1, 2]
    assert [store._shard_of(int(i)) for i in ids] == \
        store._shard_of(ids).tolist()


@pytest.fixture()
def two_big_shards(ray_session, tmp_path):
    """Two identical id_col indexes of one 3,000-doc shard each."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(1, 3001), pa.int64()),
        "text": [f"doc w{i % 7} n{i}" for i in range(3000)]}), src)
    cfg = IndexConfig(content_col="text", id_col="doc_id", dedup=False,
                      shard_size=4096)
    out = [str(tmp_path / x) for x in "ab"]
    for idx in out:
        build_index(src, idx, cfg)
    return out


def _row_groups(idx, shard):
    import os

    import pyarrow.parquet as pq

    return pq.ParquetFile(os.path.join(
        idx, "docs", f"shard={shard}", "docs.parquet")).metadata.num_row_groups


def test_compacted_docstore_file_keeps_row_groups(two_big_shards):
    """A docstore file that ``compact_index`` rewrites keeps the build's
    1,024-row groups, so DocStore point and range reads still prune."""
    from konlsearch_ray.tombstone import compact_index

    a, _ = two_big_shards
    assert _row_groups(a, 0) == 3
    delete_docs(a, [7, 2500])
    compact_index(a)
    assert _row_groups(a, 0) == 3
    ds = DocStore(a)
    assert ds.get(7) is None and ds.get(8)["doc_id"] == 8


def test_shifted_docstore_file_keeps_row_groups(two_big_shards, tmp_path):
    """``merge_indexes(remap_ids=True)`` writes a shifted docstore file
    in the build's 1,024-row groups too."""
    from konlsearch_ray.merge import merge_indexes

    m = str(tmp_path / "m")
    merge_indexes(two_big_shards, m, remap_ids=True)
    assert _row_groups(m, 1) == 3
    assert DocStore(m).get(4096 + 2500)["text"] == "doc w0 n2499"


def test_doc_id_zero_in_shard_zero_on_every_route(ray_session, tmp_path):
    """One shard rule (``segment.shard_of``, truncating): the build
    writes doc id 0 into shard 0, the docstore looks for it there, and
    an append into shard 0 invalidates and rebuilds that shard with doc
    0 still in it."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from konlsearch_ray.build import append_documents
    from konlsearch_ray.query import IndexReader
    from konlsearch_ray.segment import shard_of

    assert shard_of(0, 5) == 0
    assert shard_of(np.array([0, 1, 5, 6]), 5).tolist() == [0, 0, 0, 1]
    assert shard_of(pa.array([0, 6], pa.int64()), 5).tolist() == [0, 1]
    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["zero doc", "one doc", "two doc", "three doc"]),
    }), src)
    idx = str(tmp_path / "i")
    build_index(src, idx, IndexConfig(content_col="text", id_col="doc_id",
                                      shard_size=5))
    assert os.listdir(os.path.join(idx, "docs")) == ["shard=0"]
    store = DocStore(idx)
    assert store._shard_of(0) == 0 and store.get(0)["text"] == "zero doc"
    more = str(tmp_path / "more.parquet")
    pq.write_table(pa.table({"text": pa.array(["four doc"])}), more)
    stats = append_documents(idx, more)
    assert stats["touched_shards"] == [0]
    assert os.listdir(os.path.join(idx, "docs")) == ["shard=0"]
    r = IndexReader(idx)
    assert r.search(["zero"], "OR") == [0]
    assert r.search(["four"], "OR") == [4]
    assert r.search(["doc"], "OR") == [0, 1, 2, 3, 4]
