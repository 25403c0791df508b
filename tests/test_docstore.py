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
    build (the post-docs compaction wave), and compaction is idempotent +
    content-preserving when a shard has been split into block files."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from konlsearch_ray.build import _compact_docstore

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

    # Split one compacted shard back into interleaved block files and
    # re-compact: same rows, one sorted file again.
    d = shard_dirs[0]
    f0 = os.path.join(d, [f for f in os.listdir(d)
                          if f.endswith(".parquet")][0])
    t = pq.read_table(f0)
    golden = t.sort_by("doc_id")
    even = t.filter(pa.array([i % 2 == 0 for i in range(t.num_rows)]))
    odd = t.filter(pa.array([i % 2 == 1 for i in range(t.num_rows)]))
    os.remove(f0)
    pq.write_table(even, os.path.join(d, "block-a.parquet"))
    pq.write_table(odd, os.path.join(d, "block-b.parquet"))
    _compact_docstore(docs_dir)
    files = [f for f in os.listdir(d) if f.endswith(".parquet")]
    assert len(files) == 1
    merged = pq.read_table(os.path.join(d, files[0]))
    assert merged.sort_by("doc_id").equals(golden)
    # Idempotent: a second pass leaves the single file untouched.
    _compact_docstore(docs_dir)
    assert [f for f in os.listdir(d) if f.endswith(".parquet")] == files


def test_compaction_size_bounded_runs(store, tmp_path):
    """A shard whose files exceed the per-run byte cap merges into
    MULTIPLE sorted files (bounded heap per task), not one; when every
    file is already at the cap, compaction is a no-op."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from konlsearch_ray.build import _compact_shard_dir

    d = str(tmp_path / "shard=0")
    os.makedirs(d)
    t = pa.table({"doc_id": list(range(1, 91)),
                  "content": [f"row {i}" for i in range(90)]})
    for j, lo in enumerate((0, 30, 60)):
        pq.write_table(t.slice(lo, 30), os.path.join(d, f"b{j}.parquet"))
    sizes = [os.path.getsize(os.path.join(d, n)) for n in os.listdir(d)]

    # Cap below any single file: every file is its own run -> no-op.
    assert ray.get(_compact_shard_dir.remote(d, max_bytes=1)) == 0
    assert sorted(os.listdir(d)) == ["b0.parquet", "b1.parquet",
                                     "b2.parquet"]

    # Cap fitting two files: 3 inputs -> 2 sorted run files, same rows.
    assert ray.get(_compact_shard_dir.remote(
        d, max_bytes=max(sizes) * 2 + 1)) == 3
    out = sorted(n for n in os.listdir(d) if n.endswith(".parquet"))
    assert len(out) == 2 and all(n.startswith("docs-") for n in out)
    merged = pa.concat_tables(
        pq.read_table(os.path.join(d, n)) for n in out)
    assert merged.sort_by("doc_id").equals(t)
    for n in out:
        ids = pq.read_table(os.path.join(d, n))["doc_id"].to_pylist()
        assert ids == sorted(ids)


def test_compaction_retry_idempotent(store, tmp_path):
    """A retried compaction task must not lose rows, whatever point the
    previous attempt died at (Ray retries worker-crashed tasks):
    before the swap marker -> stray .tmpnew discarded, inputs intact;
    after the marker -> recovery finishes the swap from the outputs."""
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from konlsearch_ray.build import _COMPACT_SWAP, _compact_shard_dir

    t = pa.table({"doc_id": list(range(1, 41)),
                  "content": [f"row {i}" for i in range(40)]})

    def fresh(name):
        d = str(tmp_path / name)
        os.makedirs(d)
        pq.write_table(t.slice(0, 20), os.path.join(d, "b0.parquet"))
        pq.write_table(t.slice(20, 20), os.path.join(d, "b1.parquet"))
        return d

    def rows(d):
        return pa.concat_tables(
            pq.read_table(os.path.join(d, n)) for n in sorted(os.listdir(d))
            if n.endswith(".parquet")).sort_by("doc_id")

    # Crash BEFORE the marker: a half-written output is discarded and
    # the retry recompacts from the intact inputs.
    d = fresh("s0")
    pq.write_table(t.slice(0, 5),
                   os.path.join(d, "docs-dead-00000.parquet.tmpnew"))
    assert ray.get(_compact_shard_dir.remote(d)) == 2
    assert rows(d).equals(t)
    assert not any(n.endswith(".tmpnew") for n in os.listdir(d))

    # Crash AFTER the marker, inputs partially removed, outputs not yet
    # renamed: the retry must finish the swap — the old code's retry
    # would have seen one .parquet file and "succeeded" with half the
    # rows gone.
    d = fresh("s1")
    pq.write_table(t.sort_by("doc_id"),
                   os.path.join(d, "docs-cafe-00000.parquet.tmpnew"))
    with open(os.path.join(d, _COMPACT_SWAP), "w") as f:
        json.dump({"condemned": ["b0.parquet", "b1.parquet"],
                   "outputs": ["docs-cafe-00000.parquet"]}, f)
    os.remove(os.path.join(d, "b0.parquet"))  # torn input removal
    assert ray.get(_compact_shard_dir.remote(d)) == 0  # recovered, 1 file
    assert rows(d).equals(t)
    assert sorted(os.listdir(d)) == ["docs-cafe-00000.parquet"]

    # Crash AFTER some renames: condemned inputs still present must go,
    # already-renamed outputs must survive recovery (unique names).
    d = fresh("s2")
    pq.write_table(t.slice(0, 20).sort_by("doc_id"),
                   os.path.join(d, "docs-beef-00000.parquet"))  # renamed
    pq.write_table(t.slice(20, 20).sort_by("doc_id"),
                   os.path.join(d, "docs-beef-00001.parquet.tmpnew"))
    with open(os.path.join(d, _COMPACT_SWAP), "w") as f:
        json.dump({"condemned": ["b0.parquet", "b1.parquet"],
                   "outputs": ["docs-beef-00000.parquet",
                               "docs-beef-00001.parquet"]}, f)
    ray.get(_compact_shard_dir.remote(d))
    assert rows(d).equals(t)
    assert not os.path.exists(os.path.join(d, "b0.parquet"))
    assert not os.path.exists(os.path.join(d, "b1.parquet"))


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
