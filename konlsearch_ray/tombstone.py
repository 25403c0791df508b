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
2. **compact_index** — a Ray job that rewrites each shard's segment,
   doclens and docstore files without the tombstoned entries (one task
   per CPU over strided chunks of shards, ``segment.run_per_shard`` — the
   shard is the unit of work), refreshes manifests, dictionary and
   stats, then clears the tombstone table.

Re-indexing content equal to a deleted doc assigns a fresh ID on the next
build — the reference behaves the same after delete (Q3,
test_konlsearch.py:345-356).
"""

from __future__ import annotations

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


def _compact_shards(shards: list[tuple[int, list[str]]], index_dir: str,
                    dead: np.ndarray) -> None:
    """Compaction task: for each ``(shard, docstore files)`` of one
    ``run_per_shard`` chunk, rewrite the shard's segment + doclens (when
    it has a segment) and its docstore files without the dead docs.

    A segment rewrites whole-segment vectorized: one decode, one mask,
    one re-encode (the grouped encoder, byte-identical to the per-term
    one). A docstore file's doc_id column probes first (columnar, cheap)
    so an untouched file skips the full decompress/re-compress."""
    from konlsearch_ray.segment import (decode_segment, doclens_path,
                                        encode_segment, segment_path,
                                        write_docs_file, write_shard)

    for shard, files in shards:
        if os.path.exists(segment_path(index_dir, shard)):
            seg = pq.read_table(segment_path(index_dir, shard))
            df, ids, tfs, pos, rest = decode_segment(seg)
            keep = ~np.isin(ids, dead)
            term_of = np.repeat(np.arange(len(df), dtype=np.int64), df)
            new_df = np.bincount(term_of[keep], minlength=len(df))
            live = new_df > 0
            live_df = new_df[live]
            terms = pc.filter(seg["term"], pa.array(live)).combine_chunks()
            dl = pq.read_table(doclens_path(index_dir, shard))
            dl_keep = ~np.isin(dl["doc_id"].to_numpy(), dead,
                               assume_unique=True)
            write_shard(index_dir, shard,
                        encode_segment(terms, np.cumsum(live_df) - live_df,
                                       ids[keep], tfs[keep], pos[keep],
                                       rest[np.repeat(keep, tfs - 1)]),
                        dl.filter(pa.array(dl_keep)))
        for path in files:
            ids = pq.read_table(path, columns=["doc_id"],
                                use_threads=False)["doc_id"].to_numpy()
            keep = ~np.isin(ids, dead)
            if not keep.all():
                t = pq.read_table(path, use_threads=False)
                write_docs_file(t.filter(pa.array(keep)), path)


def _drop_vanished_frequency_terms(index_dir: str, freq_dir: str) -> int:
    """Reference ``trie.delete`` parity (trie.py:163-181): after
    compaction, tokens whose last posting died are gone from the
    dictionary — their suggest-frequency entries must vanish too (the
    frequency table only tracks tokens the index still contains).
    Returns the number of dropped terms."""
    from konlsearch_ray.pipelines.logagg import (current_frequency_table,
                                                 delete_frequency_terms)
    from konlsearch_ray.segment import read_dictionary

    freq = current_frequency_table(freq_dir)
    if not freq.num_rows:
        return 0
    # an index compacted away has no dictionary: every term vanished
    terms = read_dictionary(index_dir, ["term"])["term"].combine_chunks()
    vanished = freq.filter(
        pc.invert(pc.is_in(freq["term"], value_set=terms)))["term"]
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

    from konlsearch_ray.build import _finalize, _max_doc_id, _write_id_counter
    from konlsearch_ray.segment import (check_version, docs_files,
                                        run_per_shard, shard_nums)

    check_version(index_dir)
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
    _write_id_counter(index_dir, _max_doc_id(index_dir))
    # Every shard with a segment or a docstore directory: a crashed
    # append can leave docstore rows in a shard it never segmented, and
    # the next postings rebuild would index their dead rows.
    files = docs_files(index_dir)
    shards = sorted(set(shard_nums(index_dir)) | set(files))
    run_per_shard(_compact_shards, [(s, files.get(s, [])) for s in shards],
                  index_dir, ray.put(dead))

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
