"""Merge independently built indexes into ONE global segment layout.

The north-star build "merges [per-partition posting lists] into a global
segment layout"; this module is the cross-INDEX version of that step:
two (or more) indexes built separately — different corpora, different
clusters, different days — become one index whose readers, sharded
engines, docstore, term table and stats behave exactly as if the
union corpus had been built in one run.

Why this is cheap here: every per-shard artifact (segment, doclens,
docstore partition, manifest) is an immutable file keyed by an
ARITHMETIC shard number ``(doc_id - 1) // shard_size``, and every
global structure (stats.json, dictionary/) is derived from
the shards by ``build._finalize``. So a merge is:

1. **Disjoint path** (default): verify the indexes' shard sets are
   pairwise disjoint (which implies disjoint doc-id ranges at shard
   granularity) and hard-union the files, then re-finalize. Zero
   decode, zero re-encode — file copies only.
2. **Remap path** (``remap_ids=True``): shift each subsequent index's
   doc ids by a multiple of ``shard_size`` chosen to clear everything
   before it. A shard_size-multiple shift leaves every intra-shard
   structure byte-identical EXCEPT the id-bearing spots, each rewritten
   vectorized per shard: the segment's absolute doc ids
   (``segment.shift_segment``) and the doclens / docstore ``doc_id``
   columns. Tombstones shift the same way.

Per-shard rewrites run through ``segment.run_per_shard`` — plain Ray
tasks over strided chunks of shards, for a file-manifest-driven job (N
independent file→file rewrites) that the Dataset API has no useful
expression for. Each rewrite touches one shard's files; nothing is ever
all-to-all.

Preconditions (validated): identical ``shard_size``, ``id_col`` and
``content_col`` across inputs, each at layout version
``segment.FORMAT_VERSION``. NOT validated (the meta does not record
it): the indexes must have been built with the same analyzer — merging
indexes of different analyzers silently mixes vocabularies, exactly as
it would in any segment-merging engine.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from konlsearch_ray.build import _finalize, _write_id_counter
from konlsearch_ray.segment import (_atomic_write_parquet, check_version,
                                    docs_files, doclens_path, manifest_path,
                                    run_per_shard, segment_path, shard_nums,
                                    shift_segment, write_docs_file,
                                    write_shard)
from konlsearch_ray.tombstone import TOMBSTONE_DIR, load_tombstones


def _load_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "index_meta.json")) as f:
        return json.load(f)


def _rewrite_shards(items: list[tuple], out_dir: str,
                    shard_size: int) -> None:
    """Merge task: for each ``(src_dir, shard, shard_off, docstore
    files)`` of one ``run_per_shard`` chunk, write the shard's segment +
    doclens + docstore files + manifest into ``out_dir`` under a doc-id
    shift of ``shard_off * shard_size``. ``shard_off == 0`` degrades to
    plain file copies."""
    for src_dir, shard, shard_off, files in items:
        id_off = shard_off * shard_size
        new_shard = shard + shard_off
        for f in files:
            dst = os.path.join(out_dir, "docs", f"shard={new_shard}",
                               os.path.basename(f))
            if id_off == 0:
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                shutil.copy2(f, dst)
                continue
            t = pq.read_table(f)
            write_docs_file(t.set_column(
                t.schema.get_field_index("doc_id"), "doc_id",
                pc.add(t["doc_id"], id_off)), dst)
        if id_off == 0:
            for path in (segment_path, doclens_path, manifest_path):
                os.makedirs(os.path.dirname(path(out_dir, shard)),
                            exist_ok=True)
                shutil.copy2(path(src_dir, shard), path(out_dir, shard))
            continue
        dl = pq.read_table(doclens_path(src_dir, shard))
        dl = dl.set_column(dl.schema.get_field_index("doc_id"), "doc_id",
                           pc.add(dl["doc_id"], id_off))
        write_shard(out_dir, new_shard,
                    shift_segment(pq.read_table(segment_path(src_dir, shard)),
                                  id_off), dl)


def merge_indexes(index_dirs: list[str], out_dir: str,
                  remap_ids: bool = False) -> dict:
    """Merge the indexes at ``index_dirs`` into a new index at
    ``out_dir``; returns the merged stats (same dict ``build_index``
    returns). See the module docstring for the two paths; with
    ``remap_ids=False`` (default) overlapping shard ranges raise."""
    if len(index_dirs) < 2:
        raise ValueError("merge_indexes needs at least two indexes")
    if os.path.exists(os.path.join(out_dir, "stats.json")):
        raise ValueError(f"output {out_dir} already holds an index")
    for d in index_dirs:
        check_version(d)
    metas = [_load_meta(d) for d in index_dirs]
    for key in ("shard_size", "id_col", "content_col", "store_cols",
                "version", "dedup", "sort_keys"):
        vals = {json.dumps(m.get(key)) for m in metas}
        if len(vals) != 1:
            raise ValueError(
                f"indexes disagree on index_meta[{key!r}]: {sorted(vals)}")
    shard_size = int(metas[0]["shard_size"])
    shard_sets = [shard_nums(d) for d in index_dirs]
    for i, (d, s) in enumerate(zip(index_dirs, shard_sets)):
        if not s:
            raise ValueError(f"index {d} has no segments")

    # Per-index shard offset (multiples of shard_size in id space).
    offsets: list[int] = []
    if remap_ids:
        next_free = 0
        for s in shard_sets:
            off = max(0, next_free - s[0])
            offsets.append(off)
            next_free = s[-1] + off + 1
        # Doc id 0 is clamped into shard 0 at build time ((0-1)//size
        # floors to -1), so a SHIFTED id 0 would land one arithmetic
        # shard below its rewritten directory and break point lookups.
        # 1-based ids are the engine contract (reference id counter
        # starts at 1); enforce it exactly where the shift corrupts.
        for d, s, off in zip(index_dirs, shard_sets, offsets):
            if off == 0:
                continue
            # The lowest shard can be EMPTY (compaction after deleting
            # every doc in it leaves a 0-row file): scan forward to the
            # first shard that has rows; an all-empty index needs no
            # guard (nothing shifts into an unaddressable id).
            min_id = None
            for num in s:
                col = pq.read_table(doclens_path(d, num),
                                    columns=["doc_id"])["doc_id"]
                if len(col):
                    min_id = int(pc.min(col).as_py())
                    break
            if min_id is not None and min_id < 1:
                raise ValueError(
                    f"remap_ids would shift index {d} (min doc_id "
                    f"{min_id}) — the id-0 clamp makes shifted 0-based "
                    "ids unaddressable; re-key the corpus to 1-based ids")
    else:
        offsets = [0] * len(index_dirs)
        seen: set[int] = set()
        for d, s in zip(index_dirs, shard_sets):
            overlap = seen & set(s)
            if overlap:
                raise ValueError(
                    f"index {d} reuses shard range {sorted(overlap)[:5]} — "
                    "doc-id ranges overlap; pass remap_ids=True")
            seen |= set(s)

    os.makedirs(os.path.join(out_dir, "docs"), exist_ok=True)
    files = [docs_files(d) for d in index_dirs]
    run_per_shard(_rewrite_shards, [
        (d, shard, off, f.get(shard, []))
        for d, s, off, f in zip(index_dirs, shard_sets, offsets, files)
        for shard in s], out_dir, shard_size)

    # Tombstones: union, shifted per source index.
    dead_parts = []
    for d, off in zip(index_dirs, offsets):
        dead = load_tombstones(d)
        if len(dead):
            dead_parts.append(dead + off * shard_size)
    if dead_parts:
        ts_dir = os.path.join(out_dir, TOMBSTONE_DIR)
        os.makedirs(ts_dir, exist_ok=True)
        merged_dead = np.unique(np.concatenate(dead_parts))
        _atomic_write_parquet(
            pa.table({"doc_id": pa.array(merged_dead, pa.int64())}),
            os.path.join(ts_dir, "merged-000000.parquet"))

    # index_meta: the validated-identical fields, from the first index.
    with open(os.path.join(out_dir, "index_meta.json"), "w") as f:
        json.dump(metas[0], f, sort_keys=True)
    # Highest ever-assigned id across inputs (keeps append semantics:
    # compacted-away ids are never reused).
    max_id = 0
    for d, off in zip(index_dirs, offsets):
        counter = os.path.join(d, "id_counter.json")
        if os.path.exists(counter):
            with open(counter) as f:
                max_id = max(max_id, int(json.load(f)["max_id"])
                             + off * shard_size)
    top = max(s[-1] + off for s, off in zip(shard_sets, offsets))
    dl_top = pq.read_table(doclens_path(out_dir, top), columns=["doc_id"])
    max_id = max(max_id, int(pc.max(dl_top["doc_id"]).as_py() or 0))
    _write_id_counter(out_dir, max_id)
    with open(os.path.join(out_dir, "_DOCS_DONE"), "w") as f:
        f.write("merged\n")
    return _finalize(out_dir)
