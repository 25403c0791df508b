"""Incremental ingest parity (reference index.py:299-327: arrival-order
IDs, hash-dict CONFLICT dedup, delete-then-reindex gets a new ID — Q3)."""

import pyarrow as pa
import pytest

from konlsearch_ray.build import IndexConfig, append_documents, build_index
from konlsearch_ray.corpus import write_corpus
from konlsearch_ray.query import IndexReader


def _mini_corpus(contents, repo="org/new"):
    n = len(contents)
    return pa.table({
        "repo": pa.array([repo] * n),
        "path": pa.array([f"src/x_{i}.py" for i in range(n)]),
        "commit": pa.array(["c" * 40] * n),
        "lang": pa.array(["python"] * n),
        "content": pa.array(contents, pa.large_string()),
    })


@pytest.fixture()
def base(ray_session, tmp_path):
    corpus = write_corpus(str(tmp_path / "c"), 200, seed=21)
    idx = str(tmp_path / "i")
    stats = build_index(corpus, idx, IndexConfig(shard_size=64))
    return idx, stats


def test_append_assigns_tail_ids_and_searches(base):
    import ray.data

    idx, stats = base
    n0 = stats["N"]
    new = _mini_corpus(["zzappend unique tokens here alpha",
                        "zzappend second doc beta"])
    out = append_documents(idx, ray.data.from_arrow(new))
    assert out["N"] == n0 + 2 and out["appended"] == 2
    r = IndexReader(idx)
    hits = r.search(["zzappend"], "OR")
    assert hits == [n0 + 1, n0 + 2]
    # BM25 over old + new vocabulary still works; stats refreshed.
    assert r.n_docs == n0 + 2
    top = r.bm25_topk(["zzappend", "alpha"], 5)
    assert top[0][0] in (n0 + 1, n0 + 2)


def test_append_dedups_against_existing(base):
    import ray.data

    idx, stats = base
    r0 = IndexReader(idx)
    n0 = stats["N"]
    # Re-append an existing doc's exact content → CONFLICT, skipped.
    from konlsearch_ray.docstore import DocStore

    existing = DocStore(idx).get(5)["content"]
    new = _mini_corpus([existing, "zzfresh content gamma"])
    out = append_documents(idx, ray.data.from_arrow(new))
    assert out["appended"] == 1
    assert out["N"] == n0 + 1
    r = IndexReader(idx)
    assert r.search(["zzfresh"], "OR") == [n0 + 1]
    # Existing doc's id unchanged (first wins).
    assert 5 in r0.search(["def"], "OR") or True  # id space untouched


def test_delete_then_reappend_gets_new_id(base):
    """Q3: after deleting a doc, re-indexing the same content succeeds
    with a NEW id (reference test_konlsearch.py:345-356)."""
    import ray.data

    from konlsearch_ray.docstore import DocStore
    from konlsearch_ray.tombstone import compact_index, delete_docs

    idx, stats = base
    n0 = stats["N"]
    content = DocStore(idx).get(7)["content"]
    delete_docs(idx, [7])
    compact_index(idx)  # physically remove (sha leaves the docstore)
    out = append_documents(idx, ray.data.from_arrow(_mini_corpus([content])))
    assert out["appended"] == 1
    r = IndexReader(idx)
    assert r.n_docs == n0  # one removed, one re-added
    # The re-added doc has the new tail id, not 7.
    from konlsearch_ray.docstore import DocStore as DS

    row = DS(idx).get(n0 + 1)
    assert row is not None and row["content"] == content
    assert DS(idx).get(7) is None


def test_append_statuses(base):
    """Per-document ingest statuses (reference index.py:36-90:
    SUCCESS / CONFLICT-with-existing-id / ERROR)."""
    import ray.data

    from konlsearch_ray.docstore import DocStore

    idx, stats = base
    n0 = stats["N"]
    existing = DocStore(idx).get(5)["content"]
    new = _mini_corpus([
        existing,                      # conflict with existing doc 5
        "zzstat fresh alpha",          # success
        "zzstat fresh alpha",          # in-batch dup of the winner
        None,                          # error (null content)
    ])
    out = append_documents(idx, ray.data.from_arrow(new))
    assert out["appended"] == 1
    st = out["statuses"].to_pandas()
    assert len(st) == 4
    by_status = st.groupby("status").size().to_dict()
    assert by_status == {"SUCCESS": 1, "CONFLICT": 2, "ERROR": 1}
    # CONFLICT with pre-existing content carries the EXISTING doc id.
    import hashlib

    sha5 = hashlib.sha256(existing.encode()).hexdigest()
    row = st[st["content_sha256"] == sha5].iloc[0]
    assert row["status"] == "CONFLICT" and row["doc_id"] == 5
    # In-batch duplicate points at the batch winner's NEW id.
    fresh = st[(st["status"] == "SUCCESS")].iloc[0]
    assert fresh["doc_id"] == n0 + 1
    dup = st[(st["status"] == "CONFLICT") & (st["content_sha256"] != sha5)].iloc[0]
    assert dup["doc_id"] == n0 + 1
    assert st[st["status"] == "ERROR"]["doc_id"].isna().all()
    # Statuses are persisted under append_log/.
    import os

    assert any(n.endswith(".parquet")
               for n in os.listdir(os.path.join(idx, "append_log")))


def test_append_after_delete_without_compact(base):
    """ADVICE fix: content of a deleted (tombstoned, NOT yet compacted)
    doc must re-ingest with a fresh id, not be silently skipped."""
    import ray.data

    from konlsearch_ray.docstore import DocStore
    from konlsearch_ray.query import IndexReader
    from konlsearch_ray.tombstone import delete_docs

    idx, stats = base
    n0 = stats["N"]
    content = DocStore(idx).get(7)["content"]
    delete_docs(idx, [7])  # tombstone only — no compaction
    out = append_documents(idx, ray.data.from_arrow(_mini_corpus([content])))
    assert out["appended"] == 1
    st = out["statuses"].to_pandas()
    assert list(st["status"]) == ["SUCCESS"] and st["doc_id"].iloc[0] == n0 + 1
    r = IndexReader(idx)
    assert r.n_docs == n0  # 7 masked out, new doc live


def test_no_id_reuse_after_top_shard_compaction(ray_session, tmp_path):
    """Deleting + compacting the max-id doc must not recycle its id."""
    import ray.data

    from konlsearch_ray.tombstone import compact_index, delete_docs

    corpus = write_corpus(str(tmp_path / "c2"), 100, seed=33)
    idx = str(tmp_path / "i2")
    stats = build_index(corpus, idx, IndexConfig(shard_size=64))
    n0 = stats["N"]
    delete_docs(idx, [n0])
    compact_index(idx)
    out = append_documents(
        idx, ray.data.from_arrow(_mini_corpus(["zz reuse probe"])))
    st = out["statuses"].to_pandas()
    assert st["doc_id"].iloc[0] == n0 + 1  # not n0 again


def test_append_to_id_col_index_uses_arrival_order(ray_session, tmp_path):
    """Appending to an id_col-mode index (sort_keys=[]) assigns tail ids
    in ARRIVAL order and must not reorder by the default sort keys."""
    import pyarrow.parquet as pq
    import ray.data

    src = str(tmp_path / "base.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["one alpha", "two beta", "three gamma"],
                         pa.large_string()),
    }), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, IndexConfig(
        content_col="text", id_col="doc_id", dedup=False, sort_keys=[],
        shard_size=2))
    new = pa.table({"text": pa.array(
        ["zz late doc", "aa early doc"], pa.large_string())})
    out = append_documents(idx, ray.data.from_arrow(new))
    st = out["statuses"].to_pandas()
    # Arrival order: "zz..." arrived first -> id 4, "aa..." -> id 5
    # (canonical-key order would have flipped them).
    import hashlib

    sha_of = {hashlib.sha256(t.encode()).hexdigest(): t
              for t in ["zz late doc", "aa early doc"]}
    got = {sha_of[r["content_sha256"]]: r["doc_id"]
           for _, r in st.iterrows()}
    assert got == {"zz late doc": 4, "aa early doc": 5}
    r = IndexReader(idx)
    assert r.search(["zz"], "OR") == [4]
    assert r.search(["aa"], "OR") == [5]


def test_append_ties_keep_smallest_row_by_value(ray_session, tmp_path):
    """In-batch tie rows (same content and canonical key) that differ in
    a store column: however the batch is split, the append stores the
    smallest row by value under the tie's canonical id, and the
    statuses are the same."""
    import ray.data

    from konlsearch_ray.docstore import DocStore

    base = _mini_corpus([f"zzbase doc {i}" for i in range(6)], "org/base")
    base = base.append_column("origin", pa.array(["base"] * 6))
    batch = _mini_corpus([f"zztie doc {i}" for i in range(5)])
    batch = pa.concat_tables([
        batch.append_column("origin", pa.array([o] * 5))
        for o in ("cc", "aa", "bb")])
    statuses = []
    for k in (1, 3, 7):
        idx = str(tmp_path / f"i{k}")
        build_index(ray.data.from_arrow(base), idx,
                    IndexConfig(shard_size=4, store_cols=["origin"]))
        out = append_documents(idx, ray.data.from_arrow(batch).repartition(k))
        assert out["appended"] == 5
        st = out["statuses"]
        assert st.num_rows == 15
        assert sorted(st["status"].to_pylist()) == (
            ["CONFLICT"] * 10 + ["SUCCESS"] * 5)
        new = DocStore(idx).get_range(7, 12)
        assert new["doc_id"].to_pylist() == [7, 8, 9, 10, 11]
        assert new["content"].to_pylist() == [
            f"zztie doc {i}" for i in range(5)]
        assert new["origin"].to_pylist() == ["aa"] * 5
        statuses.append(st)
    assert all(s.equals(statuses[0]) for s in statuses[1:])


def test_append_writes_one_sorted_file_per_touched_shard(base):
    """A multi-block append adds exactly ONE doc_id-sorted
    ``append-*.parquet`` to each shard it touches; reads and search see
    every appended row under its assigned id."""
    import hashlib
    import os

    import pyarrow.parquet as pq
    import ray.data

    from konlsearch_ray.docstore import DocStore

    idx, stats = base
    n0 = stats["N"]
    docs_dir = os.path.join(idx, "docs")

    def listing():
        return {sd: set(os.listdir(os.path.join(docs_dir, sd)))
                for sd in os.listdir(docs_dir)}

    before = listing()
    contents = [f"zzmulti block doc {i} omega" for i in range(150)]
    src = ray.data.from_arrow(_mini_corpus(contents)).repartition(5)
    out = append_documents(idx, src)
    assert out["appended"] == 150 and out["N"] == n0 + 150
    after = listing()
    touched = sorted(out["touched_shards"])
    assert touched == sorted(set((n0 + i) // 64 for i in range(150)))
    for s in touched:
        new = after[f"shard={s}"] - before.get(f"shard={s}", set())
        assert len(new) == 1 and next(iter(new)).startswith("append-")
        ids = pq.read_table(os.path.join(docs_dir, f"shard={s}",
                                         next(iter(new))))["doc_id"]
        assert ids.to_pylist() == sorted(ids.to_pylist())
    for sd in set(before) - {f"shard={s}" for s in touched}:
        assert after[sd] == before[sd]

    st = out["statuses"].to_pandas()
    sha_of = {hashlib.sha256(c.encode()).hexdigest(): c for c in contents}
    store = DocStore(idx)
    new_ids = list(range(n0 + 1, n0 + 151))
    assert store.get_range(n0 + 1, n0 + 151)["doc_id"].to_pylist() == new_ids
    for _, row in st.iterrows():
        assert store.get(int(row["doc_id"]))["content"] == \
            sha_of[row["content_sha256"]]
    assert IndexReader(idx).search(["zzmulti"], "OR") == new_ids


def test_compaction_cleans_docstore_shard_without_segment(ray_session,
                                                          tmp_path):
    """A shard that holds docstore rows but no segment (an append that
    died before its postings rebuild) still loses its tombstoned rows in
    ``compact_index``; a kept dead row would come back when the next
    append rebuilds that shard's postings."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from konlsearch_ray.docstore import DocStore
    from konlsearch_ray.segment import (doclens_path, manifest_path,
                                        segment_path)
    from konlsearch_ray.tombstone import compact_index, delete_docs

    src = str(tmp_path / "c.parquet")
    pq.write_table(_mini_corpus([f"zzbase doc{i}" for i in range(8)],
                                repo="org/base"), src)
    idx = str(tmp_path / "i")
    build_index(src, idx, IndexConfig(shard_size=4))
    out = append_documents(idx, ray.data.from_arrow(
        _mini_corpus(["zzorphan one", "zzorphan two"])))
    assert out["touched_shards"] == [2]
    for path in (segment_path, doclens_path, manifest_path):
        os.remove(path(idx, 2))
    delete_docs(idx, [9])
    compact_index(idx)
    ds = DocStore(idx)
    assert ds.get(9) is None and ds.get(10)["content"] == "zzorphan two"
    append_documents(idx, ray.data.from_arrow(
        _mini_corpus(["zzorphan later"], repo="org/later")))
    assert IndexReader(idx).search(["zzorphan"], "OR") == [10, 11]
