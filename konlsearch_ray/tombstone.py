"""Document deletion: tombstone table + segment-rewrite compaction.

The reference deletes a document inline — removing its docstore row,
token set, hash entry and every posting entry under a global lock
(reference index.py:332-356, inverted_index.py:41-48, 89-95 — SURVEY.md
SO5). Immutable segments can't be point-updated, so the Ray-native design
is the standard two-phase one:

1. **delete_docs** — append the doc IDs to an append-only ``tombstones/``
   Parquet table (cheap, no segment touched). ``IndexReader`` masks
   tombstoned docs out of every posting list at decode time, so Boolean,
   PHRASE and BM25 results exclude them immediately; BM25 collection
   stats (N, avgdl) are recomputed over live docs at reader open.
2. **compact_index** — a Ray job that rewrites each shard's segment and
   doclens files without the tombstoned entries (one task per shard — the
   shard is the unit of parallelism and of resume), refreshes manifests,
   dictionary and stats, then clears the tombstone table.

Re-indexing content equal to a deleted doc assigns a fresh ID on the next
build — the reference behaves the same after delete (Q3,
test_konlsearch.py:345-356).
"""

from __future__ import annotations

import json
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

TOMBSTONE_DIR = "tombstones"


def delete_docs(index_dir: str, doc_ids: list[int]) -> int:
    """Append doc IDs to the tombstone table. Returns count appended."""
    if not doc_ids:
        return 0
    d = os.path.join(index_dir, TOMBSTONE_DIR)
    os.makedirs(d, exist_ok=True)
    t = pa.table({"doc_id": pa.array(sorted(set(int(x) for x in doc_ids)),
                                     pa.int64())})
    name = f"batch-{uuid.uuid4().hex[:12]}.parquet"
    tmp = os.path.join(d, "." + name + ".tmp")
    pq.write_table(t, tmp)
    os.replace(tmp, os.path.join(d, name))
    return t.num_rows


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted unique tombstoned doc IDs (empty array if none)."""
    d = os.path.join(index_dir, TOMBSTONE_DIR)
    if not os.path.isdir(d):
        return np.array([], dtype=np.int64)
    parts = [
        pq.read_table(os.path.join(d, n))["doc_id"].to_numpy()
        for n in sorted(os.listdir(d)) if n.endswith(".parquet")
    ]
    if not parts:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(parts)).astype(np.int64)


def _binary_col_data(col) -> memoryview:
    """Binary column → its rows' concatenation. The Arrow data buffer
    already stores the per-row blobs contiguously in row order, so this
    is a zero-copy buffer slice — no per-row Python bytes objects."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.cast(pa.large_binary())
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int64,
                         count=len(col) + 1 + col.offset)[col.offset:]
    if bufs[2] is None or offs[-1] == offs[0]:
        return memoryview(b"")
    return memoryview(bufs[2])[int(offs[0]):int(offs[-1])]


def _rewrite_shard(batch: pa.Table, index_dir: str, dead: np.ndarray) -> pa.Table:
    """Task body: rewrite one shard's segment + doclens without dead docs.

    Whole-segment vectorized: ONE fused (doc-gap, tf) decode plus one
    position decode (doc-id gaps re-absolutize via cumsum with per-term
    reset — ``codec.decode_postings``, the reader's cross-shard decode),
    one mask, one grouped re-encode
    (``encode_postings_grouped``, byte-identical to the per-term
    encoder). The per-term decode/encode Python loop this replaces would
    crawl on a 100-TB compaction."""
    from konlsearch_ray.build import SEGMENT_SCHEMA, _atomic_write_parquet, _file_sha
    from konlsearch_ray.codec import (decode_postings,
                                      encode_postings_grouped, varint_decode)

    out_rows = []
    for shard in batch["shard"].to_pylist():
        seg_path = os.path.join(index_dir, "segments", f"shard-{shard:06d}.parquet")
        dl_path = os.path.join(index_dir, "doclens", f"shard-{shard:06d}.parquet")
        seg = pq.read_table(seg_path)
        nterms = seg.num_rows
        df = (seg["df"].to_numpy().astype(np.int64)
              if nterms else np.zeros(0, np.int64))
        ids, tfs = decode_postings(_binary_col_data(seg["doc_ids_bin"]),
                                   _binary_col_data(seg["tfs_bin"]), df)
        poss = varint_decode(_binary_col_data(seg["pos_bin"]), len(ids))
        keep = ~np.isin(ids, dead)
        term_of = np.repeat(np.arange(nterms, dtype=np.int64), df)
        new_df = np.bincount(term_of[keep], minlength=nterms)
        live = new_df > 0
        live_df = new_df[live]
        starts = (np.concatenate(([0], np.cumsum(live_df)[:-1]))
                  if len(live_df) else np.zeros(0, np.int64))
        enc = encode_postings_grouped(
            starts.astype(np.int64), ids[keep], tfs[keep], poss[keep])
        terms_out = (pc.filter(seg["term"], pa.array(live)).combine_chunks()
                     if nterms else pa.array([], pa.string()))
        bl_off = pa.array(
            np.concatenate(([0], np.cumsum(enc["nblocks"]))), pa.int32())
        new_seg = pa.table(
            {
                "term": terms_out.cast(pa.string()),
                "df": pa.array(enc["df"], pa.int64()),
                "cf": pa.array(enc["cf"], pa.int64()),
                "doc_ids_bin": pa.array(list(enc["doc_ids_bin"]), pa.large_binary()),
                "tfs_bin": pa.array(list(enc["tfs_bin"]), pa.large_binary()),
                "pos_bin": pa.array(list(enc["pos_bin"]), pa.large_binary()),
                "block_last_doc": pa.ListArray.from_arrays(
                    bl_off, pa.array(enc["block_last_flat"], pa.int64())),
                "block_max_tf": pa.ListArray.from_arrays(
                    bl_off, pa.array(enc["block_max_flat"], pa.int32())),
            },
            schema=SEGMENT_SCHEMA,
        )
        _atomic_write_parquet(new_seg, seg_path)

        dl = pq.read_table(dl_path)
        dl_ids = dl["doc_id"].to_numpy()
        dl_keep = ~np.isin(dl_ids, dead, assume_unique=True)
        new_dl = dl.filter(pa.array(dl_keep))
        _atomic_write_parquet(new_dl, dl_path)

        manifest = {
            "shard": int(shard),
            "n_docs": int(new_dl.num_rows),
            "n_terms": int(new_seg.num_rows),
            "total_tokens": int(pc.sum(new_dl["doc_len"]).as_py() or 0),
            "segment_sha256": _file_sha(seg_path),
            "doclens_sha256": _file_sha(dl_path),
            "version": 1,
        }
        mf_dir = os.path.join(index_dir, "manifests")
        tmp = os.path.join(mf_dir, f".shard-{shard:06d}.json.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f, sort_keys=True)
        os.replace(tmp, os.path.join(mf_dir, f"shard-{shard:06d}.json"))
        out_rows.append(int(shard))
    return pa.table({"shard": pa.array(out_rows, pa.int64())})


def _rewrite_docs_file_body(path: str, dead: np.ndarray) -> int:
    """Drop dead rows from one docstore file. The doc_id column probes
    first (columnar, cheap) so untouched files skip the full
    decompress/re-compress entirely."""
    from konlsearch_ray.build import _atomic_write_parquet

    ids = pq.read_table(path, columns=["doc_id"],
                        use_threads=False)["doc_id"].to_numpy()
    keep = ~np.isin(ids, dead)
    if keep.all():
        return 0
    t = pq.read_table(path, use_threads=False)
    _atomic_write_parquet(t.filter(pa.array(keep)), path)
    return int(len(keep) - keep.sum())


def _drop_vanished_frequency_terms(index_dir: str, freq_dir: str) -> int:
    """Reference ``trie.delete`` parity (trie.py:163-181): after
    compaction, tokens whose last posting died are gone from the
    dictionary — their suggest-frequency entries must vanish too (the
    frequency table only tracks tokens the index still contains).
    Returns the number of dropped terms."""
    from konlsearch_ray.pipelines.logagg import (current_frequency_table,
                                                 delete_frequency_terms)

    freq = current_frequency_table(freq_dir)
    if not freq.num_rows:
        return 0
    dict_dir = os.path.join(index_dir, "dictionary")
    dict_files = ([os.path.join(dict_dir, n)
                   for n in sorted(os.listdir(dict_dir))
                   if n.endswith(".parquet")]
                  if os.path.isdir(dict_dir) else [])
    if dict_files:
        terms = pa.concat_tables(
            [pq.read_table(f, columns=["term"]) for f in dict_files])["term"]
        alive = pc.is_in(freq["term"],
                         value_set=terms.combine_chunks())
        vanished = freq.filter(pc.invert(alive))["term"]
    else:  # the whole index compacted away
        vanished = freq["term"]
    if not len(vanished):
        return 0
    delete_frequency_terms(freq_dir, vanished.combine_chunks())
    return len(vanished)


def compact_index(index_dir: str, freq_dir: str | None = None) -> dict:
    """Physically remove tombstoned docs from every shard, refresh stats
    and dictionary, clear the tombstone table. Returns the new stats.

    ``freq_dir``: optional suggest-frequency table (see
    ``pipelines.logagg``) — tokens the compaction removes from the
    dictionary entirely are dropped from it, mirroring the reference's
    ``trie.delete`` → ``__delete_counter`` on doc delete."""
    import ray
    import ray.data

    from konlsearch_ray.build import _finalize, _max_doc_id, _write_id_counter

    # Snapshot the tombstone FILES, not just the id set: batches written
    # while the rewrite runs (a concurrent delete_docs) are not reflected
    # in this compaction and must survive it — clearing the whole
    # directory at the end would silently resurrect those docs.
    ts_dir = os.path.join(index_dir, TOMBSTONE_DIR)
    snap_files = ([n for n in sorted(os.listdir(ts_dir))
                   if n.endswith(".parquet")]
                  if os.path.isdir(ts_dir) else [])
    parts = [pq.read_table(os.path.join(ts_dir, n))["doc_id"].to_numpy()
             for n in snap_files]
    dead = (np.unique(np.concatenate(parts)).astype(np.int64)
            if parts else np.array([], dtype=np.int64))
    if len(dead) == 0:
        stats = _finalize(index_dir)
        if freq_dir is not None:  # reconcile against the live dictionary
            _drop_vanished_frequency_terms(index_dir, freq_dir)
        return stats
    # Persist the id high-water mark BEFORE rows leave the docstore, so a
    # compacted-away top shard can never cause doc-id reuse on append
    # (the reference's counter is monotone, index.py:20-23).
    _write_id_counter(index_dir, _max_doc_id(
        index_dir, os.path.join(index_dir, "docs")))
    seg_dir = os.path.join(index_dir, "segments")
    shards = sorted(
        int(n[len("shard-"):-len(".parquet")])
        for n in os.listdir(seg_dir) if n.endswith(".parquet"))
    dead_ref = ray.put(dead)

    def task(batch: pa.Table) -> pa.Table:
        return _rewrite_shard(batch, index_dir, ray.get(dead_ref))

    # One BLOCK per shard: map_batches parallelism follows blocks, so a
    # single from_arrow block would rewrite every shard inside one task.
    (ray.data.from_items([{"shard": int(s)} for s in shards],
                         override_num_blocks=len(shards))
     .map_batches(task, batch_format="pyarrow", batch_size=1)
     .materialize())

    # Also drop tombstoned rows from the docstore partitions — one task
    # per file (the driver-serial loop this replaces decompressed and
    # re-compressed the whole docstore single-threaded; the docstore is
    # the BULK of the index bytes, so this dominated compaction time).
    docs_dir = os.path.join(index_dir, "docs")
    doc_files = []
    for name in sorted(os.listdir(docs_dir)):
        sub = os.path.join(docs_dir, name)
        if os.path.isdir(sub) and name.startswith("shard="):
            doc_files += [os.path.join(sub, fn) for fn in sorted(os.listdir(sub))
                          if fn.endswith(".parquet")]
    rewrite_file = ray.remote(_rewrite_docs_file_body)
    ray.get([rewrite_file.remote(p, dead_ref) for p in doc_files])

    stats = _finalize(index_dir)
    if freq_dir is not None:
        _drop_vanished_frequency_terms(index_dir, freq_dir)
    for n in snap_files:  # only the batches this compaction consumed
        os.remove(os.path.join(ts_dir, n))
    try:
        os.rmdir(ts_dir)  # succeeds only if no new batches arrived
    except OSError:
        pass
    return stats
