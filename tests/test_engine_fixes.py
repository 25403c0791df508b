"""Regression tests for the core-engine review findings: resume must not
rewrite index meta, id_col-mode append, the append crash window (docs
landed, postings never rebuilt), winner-key tie-break on the huge-scale
dedup path, concurrent-delete survival across compaction, and DocStore
live-count vs bogus tombstones."""

import json
import os

import pyarrow as pa
import pytest

from konlsearch_ray.build import IndexConfig, append_documents, build_index
from konlsearch_ray.corpus import write_corpus
from konlsearch_ray.query import IndexReader
from stored_terms import sample_terms


def test_resume_with_default_cfg_keeps_index_layout(ray_session, tmp_path):
    """Re-running build_index with a different (default) cfg on a
    completed index must keep the persisted layout, not rewrite meta out
    of sync with the on-disk shards."""
    corpus = write_corpus(str(tmp_path / "c"), 150, seed=31)
    idx = str(tmp_path / "i")
    s1 = build_index(corpus, idx, IndexConfig(shard_size=40))
    s2 = build_index(corpus, idx)  # resume/refresh, default cfg
    with open(os.path.join(idx, "index_meta.json")) as f:
        meta = json.load(f)
    assert meta["shard_size"] == 40
    assert s2["N"] == s1["N"]
    from konlsearch_ray.docstore import DocStore

    assert DocStore(idx).get(5) is not None  # shard math still aligned


def test_id_col_mode_meta_and_append(ray_session, tmp_path):
    """An id_col-mode index persists sort_keys=[] so append neither
    KeyErrors on absent repo/path/commit columns nor reorders."""
    t = pa.table({
        "id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["alpha beta", "gamma delta", "epsilon zeta"]),
    })
    import ray.data

    idx = str(tmp_path / "idx")
    cfg = IndexConfig(content_col="text", id_col="id", dedup=True,
                      shard_size=8)
    build_index(ray.data.from_arrow(t), idx, cfg)
    with open(os.path.join(idx, "index_meta.json")) as f:
        assert json.load(f)["sort_keys"] == []
    more = pa.table({
        "id": pa.array([100], pa.int64()),
        "text": pa.array(["zzappendid fresh tokens"]),
    })
    out = append_documents(idx, ray.data.from_arrow(more))
    assert out["appended"] == 1
    r = IndexReader(idx)
    assert r.search(["zzappendid"], "OR") == [4]  # dense tail id, not 100


def test_append_rerun_rebuilds_orphaned_postings(ray_session, tmp_path):
    """Simulated crash: an append's docstore rows landed but its touched
    shard's manifest+segment were never (re)built. Re-running the same
    append hits the all-CONFLICT path, which must still run the postings
    phase so the landed rows become searchable."""
    import ray.data

    corpus = write_corpus(str(tmp_path / "c"), 120, seed=33)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, IndexConfig(shard_size=64))
    new = pa.table({
        "repo": pa.array(["org/new"]), "path": pa.array(["a.py"]),
        "commit": pa.array(["c" * 40]), "lang": pa.array(["python"]),
        "content": pa.array(["zzorphan tokens here"], pa.large_string()),
    })
    out = append_documents(idx, ray.data.from_arrow(new))
    (shard,) = out["touched_shards"]
    # simulate the crash window: docs are on disk, postings state is gone
    os.remove(os.path.join(idx, "manifests", f"shard-{shard:06d}.json"))
    os.remove(os.path.join(idx, "segments", f"shard-{shard:06d}.parquet"))
    out2 = append_documents(idx, ray.data.from_arrow(new))
    assert out2["appended"] == 0  # all rows CONFLICT against landed docs
    r = IndexReader(idx)
    assert len(r.search(["zzorphan"], "OR")) == 1


def test_huge_path_dedup_collapses_identical_key_ties(
        ray_session, tmp_path, monkeypatch):
    """Rows identical in sha AND canonical key (same row ingested twice)
    must still dedup to one doc on the shuffle (huge-corpus) path, like
    the driver-rank path does."""
    import konlsearch_ray.build as B

    corpus = write_corpus(str(tmp_path / "c"), 80, seed=35)
    import pyarrow.parquet as pq

    files = [os.path.join(corpus, n) for n in sorted(os.listdir(corpus))
             if n.endswith(".parquet")]
    t = pa.concat_tables([pq.read_table(f) for f in files])
    doubled = pa.concat_tables([t, t])  # every row duplicated, keys equal
    src = str(tmp_path / "doubled")
    os.makedirs(src)
    pq.write_table(doubled, os.path.join(src, "part-0.parquet"))

    idx_small = str(tmp_path / "i_small")
    s_small = build_index(src, idx_small, IndexConfig(shard_size=64))

    monkeypatch.setattr(B, "DEDUP_DRIVER_MAX_ROWS", 0)  # force huge path
    idx_huge = str(tmp_path / "i_huge")
    s_huge = build_index(src, idx_huge, IndexConfig(shard_size=64))
    # both paths keep exactly one row per distinct content (the corpus
    # itself may contain native duplicates, so compare paths, not rows)
    assert s_huge["N"] == s_small["N"] <= t.num_rows
    # identical index content: same per-term stats on both paths
    r1, r2 = IndexReader(idx_small), IndexReader(idx_huge)
    for tok in sample_terms(r1, 10):
        a = r1.postings(tok)[0]
        b = r2.postings(tok)[0]
        assert len(a) == len(b)


def test_compaction_preserves_concurrent_tombstones(
        ray_session, tmp_path, monkeypatch):
    """A delete that lands while compaction is rewriting must survive the
    tombstone-table cleanup (only the snapshot batches are cleared)."""
    import konlsearch_ray.build as B
    from konlsearch_ray.tombstone import (compact_index, delete_docs,
                                          load_tombstones)

    corpus = write_corpus(str(tmp_path / "c"), 100, seed=37)
    idx = str(tmp_path / "i")
    n0 = build_index(corpus, idx, IndexConfig(shard_size=64))["N"]
    delete_docs(idx, [1])

    real_finalize = B._finalize

    def finalize_with_concurrent_delete(index_dir):
        delete_docs(index_dir, [2])  # lands mid-compaction
        return real_finalize(index_dir)

    monkeypatch.setattr(B, "_finalize", finalize_with_concurrent_delete)
    compact_index(idx)
    monkeypatch.setattr(B, "_finalize", real_finalize)
    remaining = load_tombstones(idx)
    assert remaining.tolist() == [2]  # the concurrent delete survived
    # doc 1 was physically compacted away; doc 2 is masked at read time
    r = IndexReader(idx)
    assert r.n_docs == n0 - 2


def test_docstore_len_ignores_bogus_tombstones(ray_session, tmp_path):
    from konlsearch_ray.docstore import DocStore
    from konlsearch_ray.tombstone import delete_docs

    corpus = write_corpus(str(tmp_path / "c"), 60, seed=39)
    idx = str(tmp_path / "i")
    stats = build_index(corpus, idx, IndexConfig(shard_size=64))
    delete_docs(idx, [999_999])  # never-assigned id
    assert len(DocStore(idx)) == stats["N"]
    delete_docs(idx, [1])
    assert len(DocStore(idx)) == stats["N"] - 1
    assert IndexReader(idx).n_docs == stats["N"] - 1  # surfaces agree


def test_build_and_append_do_not_mutate_caller_cfg(ray_session, tmp_path):
    """Resuming/appending restores layout params into a COPY — reusing
    the caller's cfg object for a different index must keep its values."""
    import ray.data

    corpus = write_corpus(str(tmp_path / "c"), 60, seed=41)
    idx = str(tmp_path / "i")
    cfg = IndexConfig(shard_size=40)
    build_index(corpus, idx, cfg)
    shared = IndexConfig(shard_size=128, dedup=True)
    build_index(corpus, idx, shared)  # resume with a different cfg
    assert shared.shard_size == 128 and shared.dedup is True
    more = pa.table({
        "repo": pa.array(["o/r"]), "path": pa.array(["p.py"]),
        "commit": pa.array(["c" * 40]), "lang": pa.array(["python"]),
        "content": pa.array(["zzcfg unique"], pa.large_string())})
    append_documents(idx, ray.data.from_arrow(more), cfg=shared)
    assert shared.shard_size == 128 and shared.sort_keys != []


def test_huge_path_tie_break_is_deterministic_on_store_col_variants(
        ray_session, tmp_path, monkeypatch):
    """Tie rows identical in sha AND canonical key but DIFFERING in a
    store column must resolve to the same single winner regardless of
    input partitioning (the tie rule), and the corpus must never be
    pinned twice (no whole-stream materialize)."""
    import pyarrow.parquet as pq

    import konlsearch_ray.build as B

    corpus = write_corpus(str(tmp_path / "c"), 60, seed=77)
    files = [os.path.join(corpus, n) for n in sorted(os.listdir(corpus))
             if n.endswith(".parquet")]
    t = pa.concat_tables([pq.read_table(f) for f in files])
    # three copies of every row, each with a distinct store col value
    variants = []
    for tag in ("aa", "bb", "cc"):
        variants.append(t.append_column("origin", pa.array([tag] * t.num_rows)))
    tripled = pa.concat_tables(variants)

    monkeypatch.setattr(B, "DEDUP_DRIVER_MAX_ROWS", 0)  # force huge path
    kept = []
    for run, nparts in enumerate((1, 7)):
        src = str(tmp_path / f"src{run}")
        os.makedirs(src)
        step = max(1, tripled.num_rows // nparts)
        for i in range(0, tripled.num_rows, step):
            pq.write_table(tripled.slice(i, step),
                           os.path.join(src, f"part-{i:06d}.parquet"))
        idx = str(tmp_path / f"i{run}")
        stats = build_index(
            src, idx, IndexConfig(shard_size=64, store_cols=["origin"]))
        # one doc per distinct content (the corpus may contain native
        # duplicate contents)
        assert stats["N"] == len(set(t["content"].to_pylist()))
        from konlsearch_ray.docstore import DocStore

        docs = DocStore(idx).get_all().sort_by("doc_id")
        kept.append(docs.select(["content_sha256", "origin"]))
    # identical winner rows across partitionings
    assert kept[0].equals(kept[1])


def test_tie_rule_same_row_on_every_path_and_layout(
        ray_session, tmp_path, monkeypatch):
    """Tie rows (equal in sha AND canonical key) that differ only in a
    store column: the driver-rank path and the shuffle path, each from
    1, 3, 7 and 13 input files, keep one row per distinct content — the
    smallest by value — under the same doc ids."""
    import pyarrow.parquet as pq

    import konlsearch_ray.build as B
    from konlsearch_ray.docstore import DocStore

    corpus = write_corpus(str(tmp_path / "c"), 60, seed=77)
    files = [os.path.join(corpus, n) for n in sorted(os.listdir(corpus))
             if n.endswith(".parquet")]
    t = pa.concat_tables([pq.read_table(f) for f in files])
    tripled = pa.concat_tables([
        t.append_column("origin", pa.array([tag] * t.num_rows))
        for tag in ("aa", "bb", "cc")])
    n_distinct = len(set(t["content"].to_pylist()))
    srcs = {}
    for nfiles in (1, 3, 7, 13):
        src = srcs[nfiles] = str(tmp_path / f"src{nfiles}")
        os.makedirs(src)
        step = -(-tripled.num_rows // nfiles)
        for i in range(0, tripled.num_rows, step):
            pq.write_table(tripled.slice(i, step),
                           os.path.join(src, f"part-{i:06d}.parquet"))
        assert len(os.listdir(src)) == nfiles
    kept = []
    for limit in (B.DEDUP_DRIVER_MAX_ROWS, 0):  # driver rank, shuffle
        monkeypatch.setattr(B, "DEDUP_DRIVER_MAX_ROWS", limit)
        for nfiles, src in srcs.items():
            idx = str(tmp_path / f"i{limit}_{nfiles}")
            build_index(src, idx, IndexConfig(shard_size=64,
                                              store_cols=["origin"]))
            docs = (DocStore(idx).get_all().sort_by("doc_id")
                    .select(["doc_id", "content_sha256", "origin"]))
            assert docs.num_rows == n_distinct
            assert len(set(docs["content_sha256"].to_pylist())) == n_distinct
            assert set(docs["origin"].to_pylist()) == {"aa"}
            kept.append(docs)
    assert all(k.equals(kept[0]) for k in kept[1:])


def test_tie_rule_orders_by_sortable_flat_columns_only():
    """The tie rule skips columns Arrow cannot sort (and nested or
    dictionary ones) instead of failing the build on them."""
    from konlsearch_ray.build import _orderable

    assert all(_orderable(t) for t in (
        pa.string(), pa.int64(), pa.float64(), pa.bool_(), pa.binary(),
        pa.timestamp("us"), pa.null()))
    assert not any(_orderable(t) for t in (
        pa.list_(pa.int64()), pa.struct([("a", pa.int64())]),
        pa.dictionary(pa.int32(), pa.string()),
        pa.month_day_nano_interval()))


def test_id_col_path_collapses_content_ties(ray_session, tmp_path):
    """id_col mode: rows identical in (id, content) are ties the winner
    filter cannot break — exactly one must land (the tie rule drops the
    others in their blocks; no whole-corpus materialize)."""
    t = pa.table({
        "id": pa.array([1, 1, 2, 3, 3, 3], pa.int64()),
        "text": pa.array(["same one", "same one", "uniq two",
                          "tri three", "tri three", "tri three"]),
    })
    idx = str(tmp_path / "i")
    import ray.data

    stats = build_index(
        ray.data.from_arrow(t).repartition(3), idx,
        IndexConfig(content_col="text", id_col="id", sort_keys=[],
                    dedup=True, shard_size=8))
    assert stats["N"] == 3
    from konlsearch_ray.docstore import DocStore

    docs = DocStore(idx).get_all().sort_by("doc_id")
    assert docs["doc_id"].to_pylist() == [1, 2, 3]
    # no temp dir left behind
    assert not os.path.exists(os.path.join(idx, ".tie_tmp"))
    r = IndexReader(idx)
    assert r.search(["same"], "OR") == [1]
    assert r.search(["tri"], "OR") == [3]


def test_id_col_path_all_rows_duplicated(ray_session, tmp_path):
    """Every sha duplicated: every docstore row is a tie's kept row."""
    t = pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["alpha beta", "gamma delta"]),
    })
    doubled = pa.concat_tables([t, t])
    idx = str(tmp_path / "i")
    import ray.data

    stats = build_index(
        ray.data.from_arrow(doubled).repartition(2), idx,
        IndexConfig(content_col="text", id_col="id", sort_keys=[],
                    dedup=True, shard_size=8))
    assert stats["N"] == 2
    r = IndexReader(idx)
    assert r.search(["alpha"], "OR") == [1]
    assert r.search(["gamma"], "OR") == [2]


def test_parallel_stable_argsort_matches_numpy():
    """Bit-identical to np.argsort(kind='stable'), including stability
    across chunk boundaries on heavily duplicated keys."""
    import numpy as np

    from konlsearch_ray.build import _parallel_argsort_s_parts

    def _parallel_stable_argsort(keys):
        # one key array split into position-chunk views, as callers do
        return _parallel_argsort_s_parts(list(np.array_split(keys, 8)))[1]

    rng = np.random.default_rng(3)
    # few distinct keys -> massive cross-chunk ties exercise stability
    vocab = np.array([f"key{i:02d}".encode() for i in range(7)], dtype="S12")
    keys = vocab[rng.integers(0, len(vocab), size=400_000)]
    got = _parallel_stable_argsort(keys)
    exp = np.argsort(keys, kind="stable")
    assert (got == exp).all()
    # small input takes the serial path
    small = vocab[rng.integers(0, len(vocab), size=1000)]
    assert (_parallel_stable_argsort(small)
            == np.argsort(small, kind="stable")).all()


def test_docstore_get_all_status_reports_misses(ray_session, tmp_path):
    """Reference KonlIndex.get_all parity (reference index.py:372-383):
    the full assigned-ID range comes back with per-id statuses — a
    deleted id is NOT_FOUND, not silently dropped (get_all keeps
    returning live rows only)."""
    from konlsearch_ray.docstore import DocStore
    from konlsearch_ray.tombstone import delete_docs

    corpus = write_corpus(str(tmp_path / "c"), 30, seed=47)
    idx = str(tmp_path / "i")
    stats = build_index(corpus, idx, IndexConfig(shard_size=16))
    n = stats["N"]
    delete_docs(idx, [2, n])  # interior AND max-assigned id
    store = DocStore(idx)
    st = store.get_all_status()
    assert st.num_rows == n  # deleting the max id must not shrink range
    assert st["doc_id"].to_pylist() == list(range(1, n + 1))
    by_id = dict(zip(st["doc_id"].to_pylist(), st["status"].to_pylist()))
    assert by_id[2] == "NOT_FOUND" and by_id[n] == "NOT_FOUND"
    assert by_id[1] == "FOUND"
    assert sorted(st["status"].to_pylist()).count("NOT_FOUND") == 2
    # live reads unchanged
    assert store.get_all().num_rows == n - 2
