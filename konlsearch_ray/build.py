"""Distributed index build — a streaming Ray Data pipeline.

Replaces the reference's serial, lock-guarded ingest loop (reference
index.py:299-327 — per-(token, doc) RocksDB point writes, SURVEY.md §3.1)
with two phases over ``ray.data.Dataset``:

**Phase A — canonical docs** (runs once, marker-gated):
  read input Parquet → vectorized sha256 (per-row invariant column
  ``content_sha256``) → exact dedup = ``groupby(content_sha256)`` keep the
  first row in canonical order (first-wins, reference index.py:299-305) →
  deterministic dense 1-based ``doc_id`` (sort + metadata prefix-sum, see
  ids.py) → ``shard = (doc_id - 1) // shard_size`` → write the docstore
  ``docs/`` partitioned by shard.

**Phase B — posting segments** (resumable per shard):
  The docstore write in phase A already hash-partitioned docs by shard on
  disk (``docs/shard=K/``), so phase B needs NO exchange at all: one task
  per incomplete shard reads its own partition (column-pruned to doc_id +
  content), tokenizes in bounded sub-batches, sorts (term, doc_id),
  delta-gap + varint encodes with block-max metadata, and atomically
  writes segment + doclens + manifest. Shards are equal doc-ID ranges, so
  head-term postings are split across shards into disjoint ordered
  sub-lists that concatenate back into a globally sorted posting list with
  no merge logic — the "salt by doc-range" skew strategy of SURVEY.md
  §7(b), realized as physical partitioning instead of a shuffle. (An
  earlier design shuffled exploded (term, doc, tf, pos) rows through
  ``groupby("shard")``; the sort-exchange cost ~3x the useful compute.)

**Finalize**: global ``stats.json`` (N, avgdl, total_tokens) from shard
manifests; ``dictionary/`` = groupby(term) over the segments' (term, df,
cf) columns only (column-pruned read).

Per-shard manifests carry lineage (input files), counters, and output
sha256s; a re-run skips complete shards and reproduces byte-identical
segments (encoder output depends only on the shard's rows, not on task
scheduling order).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.aggregate import Sum

from konlsearch_ray.codec import encode_postings_grouped

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("doc_ids_bin", pa.large_binary()),
        ("tfs_bin", pa.large_binary()),
        ("pos_bin", pa.large_binary()),
        ("block_last_doc", pa.list_(pa.int64())),
        ("block_max_tf", pa.list_(pa.int32())),
    ]
)


@dataclass
class IndexConfig:
    content_col: str = "content"
    id_col: str | None = None  # None → assign dense IDs by sort_keys
    sort_keys: list[str] = field(default_factory=lambda: ["repo", "path", "commit"])
    shard_size: int = 32768  # docs per shard (the resumable / bounded unit)
    dedup: bool = True
    store_cols: list[str] | None = None  # extra columns persisted in docs/
    tokenize_batch_size: int = 512
    tokenize_concurrency: int | tuple[int, int] | None = None
    # Actor-pool tokenizer (SURVEY.md ST1): required when the pluggable
    # analyzer holds real per-worker state (a morpheme model / dictionary,
    # loaded once per actor in __init__). The normative default analyzer is
    # a stateless vectorized regex pass, so plain tasks — which reuse warm
    # workers and skip actor-pool spin-up — are the default.
    tokenizer_actors: bool = False
    # Pluggable analyzer (SURVEY.md ST1 / §2.10): a zero-arg factory whose
    # product exposes tokenize_many(texts) -> list[list[str]]. Loaded once
    # per worker; setting it implies the actor-pool tokenizer so the state
    # loads once per actor, not once per batch.
    analyzer_factory: object | None = None
    id_start: int = 1


# --------------------------------------------------------------------------
# Stages
# --------------------------------------------------------------------------


def hash_hex_column(col, algo: str = "sha256") -> pa.Array:
    """Per-row hex digest over the Arrow string buffer directly — no
    Python string materialization (hashlib accepts memoryview slices)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    bin_col = col.cast(pa.large_binary())
    # buffers(): [validity, offsets(int64), data]
    bufs = bin_col.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int64,
                         count=len(bin_col) + 1 + bin_col.offset)
    offs = offs[bin_col.offset:]
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    valid = (np.ones(len(bin_col), dtype=bool) if bin_col.null_count == 0
             else pc.is_valid(bin_col).to_numpy(zero_copy_only=False))
    ctor = getattr(hashlib, algo)
    hashes = [
        ctor(data[offs[i]:offs[i + 1]]).hexdigest() if valid[i] else None
        for i in range(len(bin_col))
    ]
    return pa.array(hashes, pa.string())


def _sha256_batch(batch: pa.Table, content_col: str,
                  drop_null_content: bool = False) -> pa.Table:
    """Per-row content sha256. ``drop_null_content`` excludes null-
    content rows (no sha, no tokens): the BUILD path sets it so bulk
    ingest matches the append path's per-row ERROR semantics (appends
    keep the rows to report a status; builds have no status channel —
    previously all null rows dedup'd into ONE indexed empty doc)."""
    if drop_null_content:
        valid = pc.is_valid(batch[content_col])
        if not pc.all(valid).as_py():
            batch = batch.filter(valid)
    return batch.append_column(
        "content_sha256", hash_hex_column(batch[content_col], "sha256"))


class ShardBuildStage:
    """Actor-pool shard builder for stateful analyzers (SURVEY.md ST1):
    the analyzer state loads once per actor in ``__init__``; each call
    builds one shard end-to-end (tokenize sub-batches + encode + write)."""

    def __init__(self, cfg: IndexConfig, index_dir: str,
                 shard_files: dict[int, list[str]]):
        self.cfg = cfg
        self.index_dir = index_dir
        self.shard_files = shard_files
        self.analyzer = (cfg.analyzer_factory()
                         if cfg.analyzer_factory else None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = [
            _build_shard(int(s), self.shard_files[int(s)], self.cfg,
                         self.index_dir, analyzer=self.analyzer)
            for s in batch["shard"].to_pylist()
        ]
        return pa.concat_tables(outs)


def _build_shard(shard: int, shard_files: list[str], cfg: IndexConfig,
                 index_dir: str, analyzer=None) -> pa.Table:
    """Tokenize + encode + write ONE shard end-to-end inside a single task.

    The docstore write already hash-partitioned docs by shard on disk
    (``docs/shard=K/``), so the posting build needs NO exchange: each task
    reads its own partition (column-pruned), tokenizes in bounded
    sub-batches, and encodes. This replaces an earlier groupby("shard")
    design whose sort-shuffle of the exploded (term, doc, tf, pos) stream
    cost ~3x the useful tokenize+encode compute.

    Per-batch occurrence rows stay FLAT and UNGROUPED: term codes are
    carried as Arrow dictionary chunks whose dictionaries unify in C on
    ``combine_chunks``, and the shard pays exactly ONE stable sort over
    its raw occurrence stream — (doc, term) grouping (tf / first_pos)
    falls out of the same sorted run-length pass that orders the
    postings. (Earlier versions grouped+sorted every batch and then
    re-sorted the grouped rows — roughly double the memory traffic of
    the postings phase, the limiting factor for on-node scaling.)
    """
    from konlsearch_ray.analyzer import (
        _coded_from_token_lists,
        analyze_strings_coded,
    )

    t = pa.concat_tables(
        pq.read_table(f, columns=["doc_id", cfg.content_col],
                      use_threads=False)
        for f in shard_files)
    term_chunks: list[pa.DictionaryArray] = []
    doc_parts, pos_parts = [], []
    dl_doc_parts, dl_val_parts = [], []
    step = cfg.tokenize_batch_size
    for i in range(0, max(t.num_rows, 1), step):
        sub = t.slice(i, step)
        col = sub[cfg.content_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if analyzer is None:
            doc_idx, codes, pos, dictionary = analyze_strings_coded(col)
        else:
            doc_idx, codes, pos, dictionary = _coded_from_token_lists(
                analyzer.tokenize_many(col.to_pylist()))
        all_doc = sub["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        term_chunks.append(pa.DictionaryArray.from_arrays(
            pa.array(codes.astype(np.int32)), dictionary))
        doc_parts.append(all_doc[doc_idx] if len(doc_idx) else
                         np.zeros(0, dtype=np.int64))
        pos_parts.append(pos)
        # Doclen = kept occurrences per doc (zero-token docs included).
        dl_doc_parts.append(all_doc)
        dl_val_parts.append(
            np.bincount(doc_idx, minlength=len(all_doc)).astype(np.int64))
    denc = pa.chunked_array(term_chunks).combine_chunks()
    flat_doc = np.concatenate(doc_parts)
    flat_pos = np.concatenate(pos_parts)
    dl_docs = np.concatenate(dl_doc_parts)
    dl_vals = np.concatenate(dl_val_parts)
    o = np.argsort(dl_docs, kind="stable")
    dl_sorted = dl_docs[o]
    # Auto-assigned ids are unique by construction; a caller-owned
    # id_col is not — two rows sharing an id would silently MERGE their
    # postings (one entry with summed tf), duplicate doclens rows and
    # inflate N. Ids partition into shards by range, so this per-shard
    # check is complete.
    if len(dl_sorted) > 1:
        eq = dl_sorted[1:] == dl_sorted[:-1]
        if np.any(eq):
            dup = int(dl_sorted[1:][eq][0])
            raise ValueError(
                f"duplicate doc_id {dup} in shard {shard}: ids must be "
                "unique (id_col mode passes caller ids through unchecked "
                "until here)")
    return _encode_shard(shard, denc, flat_doc, flat_pos,
                         dl_sorted, dl_vals[o], index_dir)


def _encode_shard(shard: int, denc: pa.DictionaryArray, flat_doc: np.ndarray,
                  flat_pos: np.ndarray,
                  dl_docs: np.ndarray, dl_vals: np.ndarray,
                  index_dir: str) -> pa.Table:
    """Encode + atomically write one shard's segment, doclens and manifest.

    Input: the RAW occurrence stream — one row per kept token occurrence
    (terms as one unified-dictionary array, pos ascending within each
    doc) — plus doc_id-sorted doclens. One stable combined-key sort by
    (term rank, doc) orders occurrences; a run-length pass then yields
    per-(term, doc) tf + first_pos (stability keeps pos ascending within
    each group, so the group head IS the first occurrence) and the
    term-level group starts for the varint encoder. Deterministic:
    output depends only on the shard's (doc, term) content — batch
    layout is erased by the sort.
    """
    row_code = (denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
                if len(denc) else np.zeros(0, dtype=np.int64))
    dict_np = denc.dictionary.to_numpy(zero_copy_only=False)
    dict_order = np.argsort(dict_np, kind="stable")
    rank_of_code = np.empty(len(dict_order), dtype=np.int64)
    rank_of_code[dict_order] = np.arange(len(dict_order))
    occ_rank = (rank_of_code[row_code]
                if len(row_code) else np.zeros(0, dtype=np.int64))

    # Single combined-key stable sort by (term rank, doc): doc ids within
    # a shard span at most shard_size, so rank * span + doc_offset fits
    # int64 with huge margin.
    base = flat_doc.min() if len(flat_doc) else 0
    span = int(flat_doc.max()) - int(base) + 1 if len(flat_doc) else 1
    if not len(occ_rank) or int(occ_rank.max()) < (1 << 62) // span:
        order = np.argsort(occ_rank * span + (flat_doc - base),
                           kind="stable")
    else:  # overflow-safe fallback (absurd shard_size)
        order = np.lexsort((flat_doc, occ_rank))
    r_s = occ_rank[order]
    d_s = flat_doc[order]
    p_s = flat_pos[order]
    m = len(r_s)
    occ_new = np.ones(m, dtype=bool)
    if m > 1:
        occ_new[1:] = (r_s[1:] != r_s[:-1]) | (d_s[1:] != d_s[:-1])
    e_starts = np.flatnonzero(occ_new)
    # Per-(term, doc) entries: tf = run length, first_pos = run head.
    tf_s = np.diff(np.append(e_starts, m)).astype(np.int64)
    pos_s = p_s[e_starts].astype(np.int64)
    rank_s = r_s[e_starts]
    doc_s = d_s[e_starts]
    n = len(rank_s)
    new = np.ones(n, dtype=bool)
    if n > 1:
        new[1:] = rank_s[1:] != rank_s[:-1]
    starts = np.flatnonzero(new)

    enc = encode_postings_grouped(starts, doc_s, tf_s, pos_s)
    sorted_terms = dict_np[dict_order]
    out_terms = sorted_terms[rank_s[starts]] if n else np.array([], dtype=object)
    bl_off = pa.array(
        np.concatenate(([0], np.cumsum(enc["nblocks"]))), pa.int32())
    seg_table = pa.table(
        {
            "term": pa.array(out_terms, pa.string()),
            "df": pa.array(enc["df"], pa.int64()),
            "cf": pa.array(enc["cf"], pa.int64()),
            "doc_ids_bin": pa.array(enc["doc_ids_bin"], pa.large_binary()),
            "tfs_bin": pa.array(enc["tfs_bin"], pa.large_binary()),
            "pos_bin": pa.array(enc["pos_bin"], pa.large_binary()),
            "block_last_doc": pa.ListArray.from_arrays(
                bl_off, pa.array(enc["block_last_flat"], pa.int64())),
            "block_max_tf": pa.ListArray.from_arrays(
                bl_off, pa.array(enc["block_max_flat"], pa.int32())),
        },
        schema=SEGMENT_SCHEMA,
    )

    seg_dir = os.path.join(index_dir, "segments")
    dl_dir = os.path.join(index_dir, "doclens")
    mf_dir = os.path.join(index_dir, "manifests")
    for d in (seg_dir, dl_dir, mf_dir):
        os.makedirs(d, exist_ok=True)

    seg_path = os.path.join(seg_dir, f"shard-{shard:06d}.parquet")
    dl_path = os.path.join(dl_dir, f"shard-{shard:06d}.parquet")
    _atomic_write_parquet(seg_table, seg_path)
    dl_table = pa.table(
        {"doc_id": pa.array(dl_docs), "doc_len": pa.array(dl_vals)})
    _atomic_write_parquet(dl_table, dl_path)

    manifest = {
        "shard": shard,
        "n_docs": int(len(dl_docs)),
        "n_terms": int(len(starts)),
        "total_tokens": int(dl_vals.sum()),
        "segment_sha256": _file_sha(seg_path),
        "doclens_sha256": _file_sha(dl_path),
        "version": 1,
    }
    tmp = os.path.join(mf_dir, f".shard-{shard:06d}.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, sort_keys=True)
    os.replace(tmp, os.path.join(mf_dir, f"shard-{shard:06d}.json"))
    return pa.table({k: [v] for k, v in manifest.items()
                     if k in ("shard", "n_docs", "n_terms", "total_tokens")})


def _atomic_write_parquet(
    table: pa.Table, path: str, compression: str = "zstd"
) -> None:
    tmp = path + ".tmp"
    pq.write_table(table, tmp, compression=compression, use_dictionary=False)
    os.replace(tmp, path)


def _file_sha(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------


_KEY_SEP = "\x00"


def _col_as_sortable_str(t: pa.Table, col: str):
    """String projection that preserves order — integer columns are
    bias-encoded (x + 2^63 as uint64) then zero-padded, so min-by-string
    equals min-by-value for signed values too (plain zero-padding would
    sort '-5' before '-7').

    The projection is chosen per column TYPE only, never per block state
    (null_count): a per-block branch would mix incompatible encodings of
    the same column within one driver-rank argsort. Nulls map to the ""
    sentinel (sorts before every padded digit / non-empty string) in every
    branch.
    """
    c = t[col]
    if pa.types.is_integer(c.type):
        v = (c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c)
        if pa.types.is_unsigned_integer(c.type) and c.type.bit_width == 64:
            # uint64 is already order-correct as zero-padded decimals (max
            # value is exactly 20 digits); an int64 bias cast would
            # overflow for values >= 2^63.
            return pc.fill_null(
                pc.ascii_lpad(pc.cast(v, pa.string()), 20, "0"), "")
        valid = pc.is_valid(v)
        filled = pc.fill_null(v, 0).cast(pa.int64())
        np_v = filled.to_numpy(zero_copy_only=False).astype(np.int64)
        biased = np_v.view(np.uint64) + np.uint64(1 << 63)  # wraps: order-preserving
        s = pc.ascii_lpad(pc.cast(pa.array(biased), pa.string()), 20, "0")
        return pc.if_else(valid, s, "")
    if pa.types.is_floating(c.type):
        # A plain string cast orders '10.5' < '2' — the two size paths
        # would then keep DIFFERENT dedup winners (the huge path sorts
        # by true value). IEEE trick: flip all bits of negatives and
        # the sign bit of non-negatives, and the uint64 order equals
        # the float order (NaN sorts last, as the largest exponent
        # pattern); render as fixed-width hex.
        v = (c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c)
        valid = pc.is_valid(v)
        bits = (pc.fill_null(v, 0.0).cast(pa.float64())
                .to_numpy(zero_copy_only=False).view(np.uint64))
        flipped = np.where(bits >> np.uint64(63),
                           ~bits, bits | np.uint64(1 << 63))
        hexes = np.char.zfill(
            np.char.mod("%x", flipped.astype(object)), 16)
        s = pa.array(hexes.astype("U16"), pa.string())
        return pc.if_else(valid, s, "")
    return pc.fill_null(c.cast(pa.string()), "")


def _add_dedup_key(t: pa.Table, key_cols: list[str]) -> pa.Table:
    key = _col_as_sortable_str(t, key_cols[0])
    for k in key_cols[1:]:
        key = pc.binary_join_element_wise(
            key, _col_as_sortable_str(t, k), _KEY_SEP)
    return t.append_column("__dedup_key", key)


def _dedup_winners(ds: ray.data.Dataset, key_cols: list[str]):
    """Light-column dedup pre-pass: returns ``(dup_shas, winner_keys)`` as
    Arrow arrays (empty when the corpus has no duplicates).

    Only (sha, canonical key) go through the groupby — full rows never
    move, and nothing is materialized. The winner set is restricted to
    shas with count > 1, so the broadcast is proportional to the duplicate
    volume, not the corpus. Scale path for extreme duplicate volumes:
    replace the broadcast with a sha-partitioned semi-join.

    First-wins = keep the row with the minimum canonical key (matches the
    reference's earliest-doc dedup, reference index.py:299-305).
    """
    from ray.data.aggregate import Count as _Count
    from ray.data.aggregate import Min as _Min

    light = (
        ds.map_batches(
            lambda t: _add_dedup_key(t, key_cols)
            .select(["content_sha256", "__dedup_key"]),
            batch_format="pyarrow")
        .groupby("content_sha256")
        .aggregate(_Min("__dedup_key", alias_name="winner"),
                   _Count(alias_name="n"))
    )
    dups = pa.Table.from_pandas(
        light.map_batches(
            lambda t: t.filter(pc.greater(t["n"], 1)), batch_format="pyarrow")
        .select_columns(["content_sha256", "winner"]).to_pandas())
    if dups.num_rows == 0:
        return pa.array([], pa.string()), pa.array([], pa.string())
    return (dups["content_sha256"].combine_chunks().cast(pa.string()),
            dups["winner"].combine_chunks().cast(pa.string()))


def _winner_filter(t: pa.Table, dup_shas, winner_keys, key_cols: list[str]) -> pa.Table:
    """Vectorized first-wins filter: a row is dropped iff its sha is a
    duplicate sha AND its canonical key is not that sha's winner."""
    if len(dup_shas) == 0:
        return t
    t = _add_dedup_key(t, key_cols)
    idx = pc.index_in(t["content_sha256"], value_set=dup_shas)
    is_dup = pc.is_valid(idx)
    winner = pc.take(winner_keys, pc.fill_null(idx, 0))
    keep = pc.or_(pc.invert(is_dup), pc.equal(t["__dedup_key"], winner))
    return t.filter(pc.fill_null(keep, True)).drop_columns(["__dedup_key"])


def _tie_row_hash(t: pa.Table) -> np.ndarray:
    """Deterministic 128-bit per-row fingerprint (md5 hex as ``S32``
    bytes) over every orderable column, via the same order-preserving
    sortable-string projection the canonical key uses.

    Used to pick ONE winner among winner-key TIES (rows identical in
    sha and canonical key): min-by-fingerprint is partition- and
    run-independent, fully identical rows fingerprint identically, and
    8+24 bytes per dup row is cheap enough to ship to the driver —
    unlike the rows themselves (a tie row carries the full content)."""
    cols = [f.name for f in t.schema
            if not (pa.types.is_nested(f.type)
                    or pa.types.is_dictionary(f.type))]
    key = _col_as_sortable_str(t, cols[0])
    for k in cols[1:]:
        key = pc.binary_join_element_wise(
            key, _col_as_sortable_str(t, k), _KEY_SEP)
    hx = hash_hex_column(key, "md5")
    return hx.to_numpy(zero_copy_only=False).astype("S32")


@ray.remote
def _block_tie_info(block: pa.Table, dup_shas) -> dict | None:
    """Light tie metadata for one sorted block: per duplicate sha
    (coded as its index in ``dup_shas``) the block's row count and
    minimal row fingerprint, plus the block's total dup-row count.
    Ships O(dup shas in block) bytes to the driver — never rows."""
    idx = pc.index_in(block["content_sha256"], value_set=dup_shas)
    is_dup = pc.is_valid(idx).to_numpy(zero_copy_only=False)
    if not is_dup.any():
        return None
    di = np.flatnonzero(is_dup)
    h = _tie_row_hash(block.take(pa.array(di)))
    codes = (pc.fill_null(idx, 0).to_numpy(zero_copy_only=False)
             .astype(np.int64)[di])
    order = np.lexsort((h, codes))
    cs = codes[order]
    starts = np.flatnonzero(np.concatenate(([True], cs[1:] != cs[:-1])))
    return {"code": cs[starts], "min_hash": h[order][starts],
            "total": int(len(di))}


def _resolve_tie_owners(block_refs, shas_ref, counts):
    """Driver side of the tie-break: one light task per sorted block,
    then a numpy pass assigns each duplicate sha an OWNER block (the
    block holding its globally minimal row fingerprint). Mutates
    ``counts`` to the post-tie-break per-block row counts and returns
    ``per_block`` (block idx -> (sorted codes, hashes)) for the task-side
    keep masks. Driver memory is O(dup-sha block occurrences) — bounded
    by duplicate volume, never corpus volume."""
    infos = ray.get(
        [_block_tie_info.remote(ref, shas_ref) for ref, _ in block_refs])
    codes, hashes, blks = [], [], []
    for i, info in enumerate(infos):
        if info is None:
            continue
        codes.append(info["code"])
        hashes.append(info["min_hash"])
        blks.append(np.full(len(info["code"]), i, dtype=np.int64))
        counts[i] -= info["total"]
    if not codes:
        return {}
    codes = np.concatenate(codes)
    hashes = np.concatenate(hashes)
    blks = np.concatenate(blks)
    order = np.lexsort((blks, hashes, codes))
    cs = codes[order]
    first = np.concatenate(([True], cs[1:] != cs[:-1]))
    own_code, own_hash, own_blk = (
        cs[first], hashes[order][first], blks[order][first])
    per_block: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for b in np.unique(own_blk):
        sel = own_blk == b
        per_block[int(b)] = (own_code[sel], own_hash[sel])
        counts[int(b)] += int(sel.sum())
    return per_block


# Above this many input rows the driver-side dedup pass (which pulls one
# light (sha) column to the driver) hands off to the shuffle-based
# pre-pass. ~64 B/row → ~3 GB driver heap at the threshold.
DEDUP_DRIVER_MAX_ROWS = 50_000_000


def _estimate_rows(source) -> int:
    """Cheap row-count estimate: Parquet footer metadata for path sources,
    ``ds.count()`` for Dataset sources (metadata-cheap for read_parquet /
    from_arrow; an already-transformed Dataset pays one pass, which a
    correct path choice at scale is worth).

    UNESTIMABLE sources (remote URIs this process can't stat, nested
    layouts with no top-level parquet files, any reader error) return a
    huge sentinel, NOT 0: the caller compares against
    ``DEDUP_DRIVER_MAX_ROWS`` to pick the driver-rank path, and a 0
    fallback would route an arbitrarily large corpus onto the driver —
    the exact OOM the guard exists to prevent. Unknown size must take
    the shuffle path (correct at any scale, merely slower when small)."""
    unknown = DEDUP_DRIVER_MAX_ROWS + 1
    try:
        if isinstance(source, ray.data.Dataset):
            return int(source.count())
        if isinstance(source, str):
            paths = [source]
        elif isinstance(source, (list, tuple)):
            paths = list(source)
        else:
            return unknown
        total = 0
        saw_file = False
        for p in paths:
            if os.path.isdir(p):
                files = [os.path.join(p, n) for n in os.listdir(p)
                         if n.endswith(".parquet")]
            else:
                files = [p]
            for f in files:
                total += pq.ParquetFile(f).metadata.num_rows
                saw_file = True
        return total if saw_file else unknown
    except Exception:
        return unknown


@ray.remote
def _block_light(ref: pa.Table, key_cols: list[str]) -> dict:
    """Per-block (sha, key) as fixed-width numpy byte arrays.

    Keys ship as UTF-8 bytes in numpy "S" form so the expensive
    object→fixed-width conversion runs IN the task; the driver only
    concatenates (numpy pads narrower blocks to the widest) and argsorts
    — memcmp over UTF-8 == code-point order, at 1/4 the memory of a
    fixed-width unicode cast."""
    keyed = _add_dedup_key(ref, key_cols)
    # Null content/keys normalize to "" (null shas compared equal under
    # the previous pandas-duplicated dedup as well).
    sha = pc.fill_null(keyed["content_sha256"], "")
    sha = sha.combine_chunks() if isinstance(sha, pa.ChunkedArray) else sha
    key = pc.fill_null(keyed["__dedup_key"].cast(pa.large_binary()), b"")
    # 0x01 terminator: the S-cast below pads with NUL and numpy S-compare
    # ignores trailing NULs, so two keys differing only by a trailing
    # \x00 would otherwise compare equal (NUL is also the column
    # separator). The terminator is appended to EVERY key, so relative
    # order is unchanged for NUL-free values (the documented constraint).
    key = pc.binary_join_element_wise(
        key, pa.scalar(b"\x01", pa.large_binary()),
        pa.scalar(b"", pa.large_binary()))
    key = key.combine_chunks() if isinstance(key, pa.ChunkedArray) else key
    return {
        "sha": sha.to_numpy(zero_copy_only=False).astype("S64"),
        "key": key.to_numpy(zero_copy_only=False).astype("S"),
    }


@ray.remote
def _finish_docs_block(
    block: pa.Table, keep: np.ndarray | None, ids: np.ndarray,
    shard_size: int, keep_cols: list[str], docs_dir: str, block_idx: int,
    name_prefix: str = "block",
) -> int:
    """Filter losers, attach doc_id + shard, and write this block's rows
    into ``docs/shard=K/`` — one fused task, no follow-up write pipeline.

    Rows within a shard file are NOT doc_id-sorted (blocks are in input
    order); phase B sorts per (term, doc_id) anyway and the docstore is
    accessed by filter, so only the partitioning matters.
    """
    if keep is not None and not keep.all():
        block = block.filter(pa.array(keep))
    # The incoming block may already carry doc_id/shard columns (e.g. a
    # CLI append using the same file format the build ingested) — the
    # ASSIGNED ids are authoritative, so drop them before attaching.
    stale = [c for c in ("doc_id", "shard") if c in block.schema.names]
    if stale:
        block = block.drop_columns(stale)
    block = block.append_column("doc_id", pa.array(ids, pa.int64()))
    shard = (ids - 1) // shard_size
    block = block.append_column("shard", pa.array(shard, pa.int64()))
    cols = [c for c in block.schema.names if c in set(keep_cols) | {"shard"}]
    block = block.select(cols)
    n = 0
    for s in np.unique(shard):
        sub = block.filter(pa.array(shard == s)).drop_columns(["shard"])
        d = os.path.join(docs_dir, f"shard={int(s)}")
        os.makedirs(d, exist_ok=True)
        _atomic_write_parquet(
            sub, os.path.join(d, f"{name_prefix}-{block_idx:05d}.parquet"))
        n += sub.num_rows
    return n


def _concat_s(parts: list[np.ndarray], wmax: int | None = None) -> np.ndarray:
    """Concatenate fixed-width bytes ("S") arrays via their uint8 views.

    ``np.concatenate`` on S dtype takes a slow per-element casting path
    (measured ~1-3 s for 1.5M S75 keys on its FIRST call in a process —
    exactly where the driver-rank step runs — vs ~0.15 s for pad +
    uint8 memcpy), and mixed widths (each block's ``astype("S")`` is
    width-local) always cast. Pads narrower parts to the widest, then
    one memcpy-speed uint8 concat."""
    parts = [p for p in parts if len(p)]
    if not parts:
        return np.zeros(0, dtype="S1")
    if wmax is None:
        wmax = max(p.dtype.itemsize for p in parts)
    padded = [p if p.dtype.itemsize == wmax else p.astype(f"S{wmax}")
              for p in parts]
    return np.concatenate(
        [p.view(np.uint8) for p in padded]).view(f"S{wmax}")


def _concat_s_parallel(parts: list[np.ndarray]) -> np.ndarray:
    """_concat_s with the per-bucket pad+copy fanned out over threads —
    the parts are plasma-backed views, so the dominant cost is faulting
    their cold pages in, which parallelizes."""
    parts = [p for p in parts if len(p)]
    n = sum(len(p) for p in parts)
    if n < 200_000 or len(parts) < 2:
        return _concat_s(parts)
    import concurrent.futures as cf

    wmax = max(p.dtype.itemsize for p in parts)
    P = int(min(16, os.cpu_count() or 8, len(parts)))
    groups = np.array_split(np.arange(len(parts)), P)
    with cf.ThreadPoolExecutor(P) as ex:
        chunks = list(ex.map(
            lambda g: _concat_s([parts[i] for i in g], wmax),
            [g for g in groups if len(g)]))
    return np.concatenate(
        [c.view(np.uint8) for c in chunks]).view(f"S{wmax}")


def _parallel_argsort_s_parts(
    parts: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted-merge order, bucket arrays concatenated) for a LIST of
    fixed-width bytes parts, without ever materializing the full key
    array serially: parts group into P consecutive buckets whose
    pad+concat AND argsort run in threads — so the cold object-store
    pages (the parts are plasma-backed zero-copy views) fault in on P
    cores, not one. Returns ``(keys, order)`` where ``keys`` is the
    concatenation (same layout as ``_concat_s(parts)``) and ``order``
    is bit-identical to ``np.argsort(keys, kind="stable")``."""
    parts = [p for p in parts if len(p)]
    if not parts:
        e = np.zeros(0, dtype="S1")
        return e, np.zeros(0, dtype=np.int64)
    lens = np.array([len(p) for p in parts], dtype=np.int64)
    n = int(lens.sum())
    wmax = max(p.dtype.itemsize for p in parts)
    if n < 200_000 or len(parts) == 1:
        keys = _concat_s(parts, wmax)
        return keys, np.argsort(keys, kind="stable")
    import concurrent.futures as cf

    P = int(min(16, os.cpu_count() or 8, max(2, n // 100_000),
                len(parts)))
    # consecutive part ranges with ~equal row counts
    csum = np.cumsum(lens)
    targets = np.linspace(0, n, P + 1)[1:-1]
    cut = np.unique(np.searchsorted(csum, targets) + 1)
    groups = np.split(np.arange(len(parts)), cut)
    groups = [g for g in groups if len(g)]
    with cf.ThreadPoolExecutor(len(groups)) as ex:
        chunks = list(ex.map(
            lambda g: _concat_s([parts[i] for i in g], wmax), groups))
        orders = list(ex.map(
            lambda c: np.argsort(c, kind="stable"), chunks))
        sorted_chunks = [c[o] for c, o in zip(chunks, orders)]

        def global_pos(i: int) -> np.ndarray:
            ki = sorted_chunks[i]
            pos = np.arange(len(ki), dtype=np.int64)
            for j in range(len(groups)):
                if j == i:
                    continue
                side = "left" if j > i else "right"
                pos += np.searchsorted(sorted_chunks[j], ki, side=side)
            return pos

        poss = list(ex.map(global_pos, range(len(groups))))
    bounds = np.concatenate(([0], np.cumsum(
        [len(c) for c in chunks])))
    order = np.empty(n, dtype=np.int64)
    for i in range(len(groups)):
        order[poss[i]] = orders[i] + bounds[i]
    keys = np.concatenate(
        [c.view(np.uint8) for c in chunks]).view(f"S{wmax}")
    return keys, order


def _parallel_stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of one fixed-width bytes key array using all
    driver cores — bit-identical to ``np.argsort(keys, kind="stable")``.
    Thin wrapper over ``_parallel_argsort_s_parts`` (position-chunk
    views in, no copies). Measured 0.94 s -> 0.41 s at P=8 on 1.49M
    S75 keys."""
    n = len(keys)
    if n < 200_000:
        return np.argsort(keys, kind="stable")
    P = int(min(16, os.cpu_count() or 8, max(2, n // 100_000)))
    return _parallel_argsort_s_parts(list(np.array_split(keys, P)))[1]


def _driver_rank_docs(
    ds: ray.data.Dataset, cfg: IndexConfig, docs_dir: str
) -> dict:
    """Small/medium-corpus docs phase: canonical IDs by *driver-side rank*
    instead of a full-data sort exchange.

    The read→sha pipeline is consumed as a STREAM of blocks: each block's
    light (sha, key) extraction task launches the moment the block exists
    (overlapped with the read — no ``materialize()`` barrier), while the
    driver holds the block refs for the second wave. After the light wave,
    a driver argsort over the keys as fixed-width *UTF-8 bytes* (numpy "S"
    memcmp == code-point order, 1/4 the memory of a "U" cast; the
    ``DEDUP_DRIVER_MAX_ROWS`` guard bounds the footprint) gives each row
    its dense rank (= doc_id) with first-wins dedup, and a fused task wave
    filters, attaches IDs, and writes each block's rows into the
    shard-partitioned docstore. Full rows never shuffle at all — the
    partitioned write is the only data movement. Returns sub-phase timings.
    """
    import time

    t0 = time.perf_counter()
    block_refs: list[tuple] = []
    light_futs = []
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:  # empty split blocks may carry empty schemas
                block_refs.append((ref, meta.num_rows))
                light_futs.append(_block_light.remote(ref, cfg.sort_keys))
    if not block_refs:
        os.makedirs(docs_dir, exist_ok=True)
        return {}
    light = ray.get(light_futs)
    t1 = time.perf_counter()
    shas = _concat_s_parallel([d["sha"] for d in light])
    t1b = time.perf_counter()
    # keys never materialize serially: bucket pad+concat+argsort all run
    # in threads (the parts are plasma-backed — cold pages fault in on P
    # cores); the full key array itself is not needed after the order.
    _, order = _parallel_argsort_s_parts([d["key"] for d in light])
    t1c = time.perf_counter()
    if cfg.dedup:
        # First-wins: first occurrence of each sha in canonical key order.
        # Hash-based duplicated() beats a sort-based np.unique ~5x on the
        # fixed-width sha bytes.
        import pandas as pd

        keep_sorted = (~pd.Series(shas[order]).duplicated()).to_numpy()
    else:
        keep_sorted = np.ones(len(order), dtype=bool)
    t1d = time.perf_counter()
    ids_sorted = cfg.id_start - 1 + np.cumsum(keep_sorted)
    keep = np.empty(len(order), dtype=bool)
    keep[order] = keep_sorted
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = ids_sorted  # meaningful only where keep is True

    t2 = time.perf_counter()
    keep_cols = {"doc_id", "content_sha256", cfg.content_col}
    keep_cols |= set(cfg.store_cols or [])
    keep_cols |= set(cfg.sort_keys)
    waves, off = [], 0
    for i, (ref, n) in enumerate(block_refs):
        k = keep[off:off + n]
        waves.append(_finish_docs_block.remote(
            ref, None if k.all() else k, ids[off:off + n][k],
            cfg.shard_size, sorted(keep_cols), docs_dir, i))
        off += n
    ray.get(waves)
    return {
        "read_sha_light": round(t1 - t0, 3),
        "rank": round(t2 - t1, 3),
        # rank sub-steps, for throttle forensics (the rank step is the
        # serial-driver floor that amplifies host drift in benches)
        "rank_concat": round(t1b - t1, 3),
        "rank_argsort": round(t1c - t1b, 3),
        "rank_dedup": round(t1d - t1c, 3),
        "write": round(time.perf_counter() - t2, 3),
    }


@ray.remote
def _filter_and_id_block(
    block: pa.Table, offset: int, dup_shas=None, owned=None,
) -> pa.Table:
    """Attach dense ids to one sorted block, optionally applying the
    tie-break keep rule: drop every duplicate-sha row except, in the
    sha's OWNER block, the first row matching the sha's globally
    minimal fingerprint (see ``_resolve_tie_owners``)."""
    if dup_shas is not None:
        idx = pc.index_in(block["content_sha256"], value_set=dup_shas)
        is_dup = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        keep = ~is_dup
        own_code, own_hash = owned if owned is not None else (None, None)
        if own_code is not None and len(own_code) and is_dup.any():
            di = np.flatnonzero(is_dup)
            codes = (pc.fill_null(idx, 0).to_numpy(zero_copy_only=False)
                     .astype(np.int64)[di])
            pos = np.clip(np.searchsorted(own_code, codes), 0,
                          len(own_code) - 1)
            cand = own_code[pos] == codes
            if cand.any():
                h = _tie_row_hash(block.take(pa.array(di[cand])))
                hit = h == own_hash[pos[cand]]
                hit_codes = codes[cand][hit]
                _, first = np.unique(hit_codes, return_index=True)
                keep[di[cand][hit][first]] = True
        if not keep.all():
            block = block.filter(pa.array(keep))
    ids = pa.array(np.arange(offset, offset + block.num_rows, dtype=np.int64))
    return block.append_column("doc_id", ids)


def _sorted_dedup_ids(
    ds: ray.data.Dataset, sort_keys: list[str], start: int, tie_shas=None,
) -> ray.data.Dataset:
    """Canonical sort → dense 1-based doc IDs, in ONE full-data pass:
    a single task wave applies ``doc_id = offset + arange`` per sorted
    block (offsets from a driver prefix-sum over post-filter counts —
    metadata only). The huge-corpus path dedups with the shuffle
    pre-pass (``_dedup_winners``/``_winner_filter``) first and passes
    ``tie_shas`` (the duplicate-sha set): winner-key TIES the filter
    cannot break (rows identical in sha AND canonical key) are then
    resolved on the already-pinned sorted blocks — a light fingerprint
    wave plus in-task keep masks (``_resolve_tie_owners``) — so the
    corpus is pinned exactly once, by this sort, and the driver holds
    only dup-sha metadata.
    """
    mat = ds.sort(sort_keys).materialize()
    block_refs = []
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:  # skip empty split blocks (empty schemas)
                block_refs.append((ref, meta.num_rows))
    if not block_refs:
        empty = pa.table({"doc_id": pa.array([], pa.int64())})
        return ray.data.from_arrow(empty)

    counts = [n for _, n in block_refs]
    tie = tie_shas is not None and len(tie_shas) > 0
    shas_ref = ray.put(tie_shas) if tie else None
    per_block = (_resolve_tie_owners(block_refs, shas_ref, counts)
                 if tie else {})
    offsets = start + np.concatenate(([0], np.cumsum(counts)[:-1]))
    out_refs = [
        _filter_and_id_block.remote(
            ref, int(offsets[i]), dup_shas=shas_ref if tie else None,
            owned=per_block.get(i))
        for i, (ref, _) in enumerate(block_refs)
    ]
    return ray.data.from_arrow_refs(out_refs)


def _write_index_meta(index_dir: str, cfg: IndexConfig) -> None:
    meta = {
        "shard_size": cfg.shard_size,
        "content_col": cfg.content_col,
        "id_col": cfg.id_col,
        # id_col mode has NO canonical sort — persisting the cfg default
        # (repo/path/commit) would make append reorder by columns the
        # index never had (and KeyError when they're absent).
        "sort_keys": [] if cfg.id_col is not None else cfg.sort_keys,
        "store_cols": cfg.store_cols,
        "dedup": cfg.dedup,
        "version": 1,
    }
    tmp = os.path.join(index_dir, ".index_meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f, sort_keys=True)
    os.replace(tmp, os.path.join(index_dir, "index_meta.json"))


def _restore_cfg_from_meta(index_dir: str, cfg: IndexConfig) -> bool:
    """Overwrite ``cfg``'s layout/canonical-order fields from the
    persisted ``index_meta.json``. Layout parameters are properties of
    the INDEX, not the call: a resume or append running with a different
    (e.g. default) cfg must not fragment shards, reorder by the wrong
    keys, or flip dedup. Returns True when a meta file existed."""
    meta_path = os.path.join(index_dir, "index_meta.json")
    if not os.path.exists(meta_path):
        return False
    with open(meta_path) as f:
        meta = json.load(f)
    cfg.shard_size = int(meta["shard_size"])
    cfg.content_col = meta["content_col"]
    if "id_col" in meta:
        cfg.id_col = meta["id_col"]
    if "sort_keys" in meta:
        cfg.sort_keys = list(meta["sort_keys"] or [])
    if meta.get("store_cols") is not None:
        cfg.store_cols = list(meta["store_cols"])
    # Dedup is a property of the index: an index built with dedup=False
    # must also ingest duplicate content on append (pre-flag indexes
    # default to True, the old behavior).
    cfg.dedup = bool(meta.get("dedup", True))
    return True


# Per-merge-run heap bound for docstore compaction: a shard of huge
# docs (shard_size × doc bytes) must never concat into one task's
# memory whole; runs above the cap merge into multiple sorted files
# (reads already handle several files per shard — the win is dropping
# O(blocks) files to O(shard_bytes / cap), not reaching exactly one).
COMPACT_RUN_MAX_BYTES = 512 << 20


_COMPACT_SWAP = "_COMPACT_SWAP.json"


def _compact_recover(d: str) -> None:
    """Make a shard dir consistent after a torn compaction attempt.

    Ray RETRIES a compaction task whose worker died (OOM mid-concat is
    the realistic case), so the task must be idempotent: without
    recovery, a retry that lands after remove-inputs/before
    rename-outputs would see no ``.parquet`` files, 'succeed', and the
    shard's rows would be silently gone even though the resume rmtree
    never ran (the build as a whole did not crash). Protocol: outputs
    are fully written under unique names as ``.tmpnew`` first, then a
    swap marker records (condemned inputs, output names), then inputs
    are removed and outputs renamed, then the marker is removed. Every
    step re-runs safely: marker present → the outputs are complete, so
    finish the swap; no marker → discard stray ``.tmpnew`` (inputs are
    still intact). Output names never collide with input names (uuid
    component), so recovery cannot delete a renamed output."""
    swap = os.path.join(d, _COMPACT_SWAP)
    if os.path.exists(swap):
        with open(swap) as f:
            plan = json.load(f)
        for name in plan["condemned"]:
            p = os.path.join(d, name)
            if os.path.exists(p):
                os.remove(p)
        for name in plan["outputs"]:
            tmp = os.path.join(d, name + ".tmpnew")
            if os.path.exists(tmp):
                os.replace(tmp, os.path.join(d, name))
        os.remove(swap)
    for n in os.listdir(d):
        if n.endswith(".tmpnew") or n == _COMPACT_SWAP + ".tmp":
            os.remove(os.path.join(d, n))


@ray.remote
def _compact_shard_dir(d: str, max_bytes: int = COMPACT_RUN_MAX_BYTES) -> int:
    """Merge one docstore shard dir's block files into few (usually one)
    doc_id-sorted files; returns the number of files replaced.
    Idempotent under task retry (see ``_compact_recover``)."""
    import uuid as _uuid

    _compact_recover(d)
    files = [os.path.join(d, n) for n in sorted(os.listdir(d))
             if n.endswith(".parquet")]
    if len(files) <= 1:
        return 0
    # Greedy size-bounded runs over the on-disk (compressed) sizes; the
    # in-heap table is larger than compressed bytes, but the cap is a
    # coarse guard, not an accountant.
    runs: list[list[str]] = [[]]
    run_bytes = 0
    for f in files:
        sz = os.path.getsize(f)
        if runs[-1] and run_bytes + sz > max_bytes:
            runs.append([])
            run_bytes = 0
        runs[-1].append(f)
        run_bytes += sz
    if len(runs) == len(files):
        return 0  # every file already at/above the cap — nothing to gain
    attempt = _uuid.uuid4().hex[:8]
    outputs = []
    for j, run in enumerate(runs):
        t = pa.concat_tables(pq.read_table(f) for f in run)
        t = t.sort_by("doc_id")
        # Small row groups: files are doc_id-sorted, so point/multi/
        # range filters prune to the few groups whose [min,max]
        # intersect — the whole point of compacting is selective reads.
        out = f"docs-{attempt}-{j:05d}.parquet"
        pq.write_table(t, os.path.join(d, out + ".tmpnew"),
                       compression="zstd", use_dictionary=False,
                       row_group_size=1024)
        # The marker is fsynced below; a durable marker over
        # page-cache-only outputs would let a power loss commit the
        # input removal against truncated outputs — sync data first.
        with open(os.path.join(d, out + ".tmpnew"), "rb") as f:
            os.fsync(f.fileno())
        outputs.append(out)
    dfd = os.open(d, os.O_RDONLY)
    try:
        os.fsync(dfd)  # directory entries for the .tmpnew files
    finally:
        os.close(dfd)
    swap = os.path.join(d, _COMPACT_SWAP)
    with open(swap + ".tmp", "w") as f:
        json.dump({"condemned": [os.path.basename(p) for p in files],
                   "outputs": outputs}, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(swap + ".tmp", swap)
    for f in files:
        os.remove(f)
    for out in outputs:
        os.replace(os.path.join(d, out + ".tmpnew"), os.path.join(d, out))
    os.remove(swap)
    return len(files)


def _compact_docstore(docs_dir: str) -> None:
    """One file per docstore shard. The fused block writers emit one
    file per (input block × shard) — O(blocks × shards) tiny files when
    canonical order is uncorrelated with input order — and every point/
    multi/range read (and the proximity recheck) then pays thousands of
    parquet footer opens per call (measured: 2.2 s of a 2.8 s NEAR query
    on a 147k-doc index with ~7k block files). Compacting to one
    doc_id-SORTED file per shard restores O(shards) opens and gives
    range/isin filters real row-group pruning. Runs BEFORE the
    _DOCS_DONE marker: a crash mid-compaction (merged file + stale
    blocks would double rows) is cleaned by the resume rmtree. The
    APPEND path deliberately does NOT compact: post-marker there is no
    rmtree to clean a torn remove/rename window, and each append adds
    only O(touched shards) small files, which reads tolerate."""
    dirs = [os.path.join(docs_dir, n)
            for n in (sorted(os.listdir(docs_dir))
                      if os.path.isdir(docs_dir) else [])
            if n.startswith("shard=")]
    refs = [_compact_shard_dir.remote(d) for d in dirs]
    if refs:
        ray.get(refs)


def _docs_phase(source, index_dir: str, cfg: IndexConfig) -> dict:
    docs_dir = os.path.join(index_dir, "docs")
    marker = os.path.join(index_dir, "_DOCS_DONE")
    if os.path.exists(marker):
        # Completed docs phase: this is a resume/refresh — the on-disk
        # layout wins over the caller's cfg (which build_index already
        # restored from meta); never rewrite meta out of sync with it.
        return {}
    _write_index_meta(index_dir, cfg)
    if os.path.isdir(docs_dir):
        # A prior run died after writing part of docs/ but before the
        # marker. Block names are not stable across runs (UUIDs on the
        # write_parquet path, block splits on the driver-rank path), so a
        # rewrite over stale files would duplicate the corpus — clear it.
        import shutil

        shutil.rmtree(docs_dir)

    def read():
        ds = (source if isinstance(source, ray.data.Dataset)
              else ray.data.read_parquet(source))
        return ds.map_batches(
            _sha256_batch, batch_format="pyarrow",
            fn_kwargs={"content_col": cfg.content_col,
                       "drop_null_content": True})

    ds = read()
    tie_tmp = None
    if cfg.id_col is None:
        small = _estimate_rows(source) <= DEDUP_DRIVER_MAX_ROWS
        if small:
            # Driver-rank path: one streamed full-data pipeline with
            # overlapped light key wave, then a fused
            # filter+ids+partitioned-write task wave. No shuffle.
            sub = _driver_rank_docs(ds, cfg, docs_dir)
            _compact_docstore(docs_dir)
            with open(marker, "w") as f:
                f.write("ok")
            return sub
        # Huge-scale path: shuffle dedup pre-pass + canonical sort + ids.
        # Winner-key ties resolve INSIDE the sort's materialization
        # (tie_shas) — the corpus is pinned exactly once.
        tie_shas = None
        if cfg.dedup:
            dup_shas, winner_keys = _dedup_winners(read(), cfg.sort_keys)
            ds = ds.map_batches(
                _winner_filter, batch_format="pyarrow",
                fn_kwargs={"dup_shas": dup_shas, "winner_keys": winner_keys,
                           "key_cols": cfg.sort_keys})
            tie_shas = dup_shas if len(dup_shas) else None
        ds = _sorted_dedup_ids(ds, cfg.sort_keys, cfg.id_start,
                               tie_shas=tie_shas)
    else:
        if cfg.dedup:
            dup_shas, winner_keys = _dedup_winners(read(), [cfg.id_col])
            ds = ds.map_batches(
                _winner_filter, batch_format="pyarrow",
                fn_kwargs={"dup_shas": dup_shas, "winner_keys": winner_keys,
                           "key_cols": [cfg.id_col]})
            if len(dup_shas):
                # No sort barrier on this path — divert the (bounded)
                # duplicate-sha rows to a temp dir during the single
                # consuming pass; the group pass after the main write
                # appends one winner per sha. Never pins the corpus.
                tie_tmp = os.path.join(index_dir, ".tie_tmp")
                import shutil

                shutil.rmtree(tie_tmp, ignore_errors=True)
                os.makedirs(tie_tmp)
                ds = ds.map_batches(
                    _divert_tie_rows, batch_format="pyarrow",
                    fn_kwargs={"dup_shas": dup_shas, "tmp_dir": tie_tmp})
        if cfg.id_col != "doc_id":
            ds = ds.rename_columns({cfg.id_col: "doc_id"})

    def add_shard(batch: pa.Table) -> pa.Table:
        shard = pc.divide(pc.subtract(batch["doc_id"], 1), cfg.shard_size)
        return batch.append_column("shard", pc.cast(shard, pa.int64()))

    ds = ds.map_batches(add_shard, batch_format="pyarrow")
    keep = {"doc_id", "shard", "content_sha256", cfg.content_col}
    keep |= set(cfg.store_cols or [])
    if cfg.id_col is None:
        keep |= set(cfg.sort_keys)
    sch = ds.schema()
    # sch is None iff every row was a tie and got diverted (the main
    # stream is empty); the winner append below writes the whole corpus.
    cols = None if sch is None else [c for c in sch.names if c in keep]
    if cols is not None:
        ds.select_columns(cols).write_parquet(
            docs_dir, partition_cols=["shard"])
    if tie_tmp is not None:
        # The write above is the barrier: every divert task has finished,
        # so the temp dir is complete. One winner per duplicate sha joins
        # the docstore via the same shard-partitioned layout.
        _append_tie_winners(tie_tmp, docs_dir, cfg, cols, keep, add_shard)
    _compact_docstore(docs_dir)
    with open(marker, "w") as f:
        f.write("ok")
    return {}


def _divert_tie_rows(t: pa.Table, dup_shas, tmp_dir: str) -> pa.Table:
    """Single-consume tie-break, pass 1 (id_col mode): stream unique-sha
    rows onward; side-write duplicate-sha rows (duplicate volume, never
    corpus volume) for the post-write group pass. Replaces a
    whole-corpus ``materialize()`` that pinned/spilled the full stream
    just so two branches could read it. Atomic per-file writes plus the
    per-sha group downstream make task retries / speculative
    re-execution harmless (re-written dup rows collapse per sha)."""
    m = pc.is_in(t["content_sha256"], value_set=dup_shas)
    dup = t.filter(m)
    if dup.num_rows:
        import uuid

        _atomic_write_parquet(
            dup, os.path.join(tmp_dir, f"ties-{uuid.uuid4().hex}.parquet"))
    return t.filter(pc.invert(m))


def _first_tie_row(g: pa.Table) -> pa.Table:
    """Deterministic winner among one sha's tie rows: min by every
    orderable column, so fully identical rows and store-col variants
    both resolve reproducibly, independent of partitioning."""
    if g.num_rows <= 1:
        return g
    keys = [(f.name, "ascending") for f in g.schema
            if not (pa.types.is_nested(f.type)
                    or pa.types.is_dictionary(f.type))]
    if keys:
        return g.take(pc.sort_indices(g, sort_keys=keys)[:1])
    return g.slice(0, 1)


def _append_tie_winners(tie_tmp: str, docs_dir: str, cfg: IndexConfig,
                        cols: list[str] | None, keep: set, add_shard) -> None:
    """Single-consume tie-break, pass 2 (id_col mode): group the
    diverted duplicate-sha rows per sha, keep each group's deterministic
    first row, and append the winners to the shard-partitioned docstore
    (UUID file names — no collision with the main write)."""
    import shutil

    from konlsearch_ray.functions.blocks import arrow_schema, keyed_fold

    files = [os.path.join(tie_tmp, n) for n in sorted(os.listdir(tie_tmp))
             if n.endswith(".parquet")]
    if files:
        ties = ray.data.read_parquet(files)
        grouped = keyed_fold(ties, "content_sha256", _first_tie_row,
                             fallback=arrow_schema(ties).empty_table())
        if cfg.id_col != "doc_id":
            grouped = grouped.rename_columns({cfg.id_col: "doc_id"})
        grouped = grouped.map_batches(add_shard, batch_format="pyarrow")
        if cols is None:  # main stream was empty — derive from winners
            cols = [c for c in grouped.schema().names if c in keep]
        grouped.select_columns(cols).write_parquet(
            docs_dir, partition_cols=["shard"])
    shutil.rmtree(tie_tmp, ignore_errors=True)


def _completed_shards(index_dir: str) -> set[int]:
    mf_dir = os.path.join(index_dir, "manifests")
    if not os.path.isdir(mf_dir):
        return set()
    done = set()
    for name in os.listdir(mf_dir):
        if name.startswith("shard-") and name.endswith(".json"):
            done.add(int(name[len("shard-"):-len(".json")]))
    return done


def _postings_phase(index_dir: str, cfg: IndexConfig) -> None:
    docs_dir = os.path.join(index_dir, "docs")
    done = _completed_shards(index_dir)
    shard_files: dict[int, list[str]] = {}
    for name in sorted(os.listdir(docs_dir)):
        if not name.startswith("shard="):
            continue
        shard = int(name.split("=", 1)[1])
        if shard not in done:
            sub = os.path.join(docs_dir, name)
            shard_files[shard] = [
                os.path.join(sub, f) for f in sorted(os.listdir(sub))
                if f.endswith(".parquet")]
    if not shard_files:
        return
    def build_batch(batch: pa.Table) -> pa.Table:
        outs = [
            _build_shard(int(s), shard_files[int(s)], cfg, index_dir)
            for s in batch["shard"].to_pylist()
        ]
        return pa.concat_tables(outs)

    # One block per shard — map_batches parallelism follows blocks, so a
    # single-block from_arrow would serialize every shard into one task.
    shard_ids = sorted(shard_files)
    shards_ds = ray.data.from_items(
        [{"shard": s} for s in shard_ids],
        override_num_blocks=len(shard_ids))
    if cfg.tokenizer_actors or cfg.analyzer_factory is not None:
        # Stateful-analyzer path (SURVEY.md ST1): shard tasks run on an
        # actor pool that loads the analyzer once per worker.
        concurrency = cfg.tokenize_concurrency
        if concurrency is None:
            import ray as _ray

            ncpu = int(_ray.cluster_resources().get("CPU", 4))
            concurrency = (1, max(2, ncpu - 2))
        shards_ds.map_batches(
            ShardBuildStage, fn_constructor_kwargs={
                "cfg": cfg, "index_dir": index_dir,
                "shard_files": shard_files},
            batch_format="pyarrow", batch_size=1, concurrency=concurrency,
        ).materialize()
    else:
        shards_ds.map_batches(
            build_batch, batch_format="pyarrow", batch_size=1,
        ).materialize()


def _finalize(index_dir: str) -> dict:
    mf_dir = os.path.join(index_dir, "manifests")
    manifests = []
    for name in sorted(os.listdir(mf_dir)) if os.path.isdir(mf_dir) else []:
        if name.startswith("shard-") and name.endswith(".json"):
            with open(os.path.join(mf_dir, name)) as f:
                manifests.append(json.load(f))
    n_docs = sum(m["n_docs"] for m in manifests)
    total_tokens = sum(m["total_tokens"] for m in manifests)
    stats = {
        "N": n_docs,
        "total_tokens": total_tokens,
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
        "num_shards": len(manifests),
        "version": 1,
    }
    # Global dictionary: column-pruned groupby over segment stats.
    seg_dir = os.path.join(index_dir, "segments")
    seg_files = [os.path.join(seg_dir, n)
                 for n in (sorted(os.listdir(seg_dir))
                           if os.path.isdir(seg_dir) else [])
                 if n.endswith(".parquet")]
    dict_dir = os.path.join(index_dir, "dictionary")
    if seg_files:
        tmp_dir = dict_dir + ".tmp"
        if os.path.isdir(tmp_dir):
            import shutil

            shutil.rmtree(tmp_dir)
        n_terms = sum(m["n_terms"] for m in manifests)
        if n_terms <= 4_000_000:
            # Small dictionary: merge on the driver — a Ray groupby
            # pipeline costs seconds of fixed latency for kilobytes of
            # stats. (Columns are pruned either way.)
            t = pa.concat_tables(
                pq.read_table(f, columns=["term", "df", "cf"])
                for f in seg_files)
            agg = (t.group_by("term")
                   .aggregate([("df", "sum"), ("cf", "sum")])
                   .rename_columns(["term", "df", "cf"]))
            os.makedirs(tmp_dir, exist_ok=True)
            pq.write_table(agg, os.path.join(tmp_dir, "dict-000000.parquet"),
                           compression="zstd")
        else:
            dct = (
                ray.data.read_parquet(seg_files, columns=["term", "df", "cf"])
                .groupby("term")
                .aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))
            )
            dct.write_parquet(tmp_dir)
        if os.path.isdir(dict_dir):
            import shutil

            shutil.rmtree(dict_dir)
        os.replace(tmp_dir, dict_dir)
    stats["vocab"] = int(pq.ParquetDataset(dict_dir).read(["term"]).num_rows) if seg_files else 0
    if seg_files:
        # Sorted (jamo_key, term) suggestion table — the trie equivalent
        # (range scans replace full-dictionary filters; SURVEY.md J5/O2).
        from konlsearch_ray.pipelines.suggest import build_suggest_table

        build_suggest_table(index_dir)
    tmp = os.path.join(index_dir, ".stats.json.tmp")
    with open(tmp, "w") as f:
        json.dump(stats, f, sort_keys=True)
    os.replace(tmp, os.path.join(index_dir, "stats.json"))
    return stats


def build_index(source, index_dir: str, cfg: IndexConfig | None = None) -> dict:
    """Build (or resume) the full index at ``index_dir``; returns stats.

    ``source`` is a Parquet path/paths or an existing ``ray.data.Dataset``.
    Ray must already be initialised by the caller (driver contract).
    """
    import time

    import copy

    # Work on a COPY: the resume path below overwrites layout fields from
    # the persisted meta, and mutating the caller's cfg would corrupt a
    # later build that reuses the same object for a different index.
    cfg = copy.copy(cfg) if cfg is not None else IndexConfig()
    os.makedirs(index_dir, exist_ok=True)
    if os.path.exists(os.path.join(index_dir, "_DOCS_DONE")):
        # Resuming an existing index: layout parameters come from the
        # persisted meta, not the caller's (possibly default) cfg — a
        # mismatched shard_size would rebuild postings misaligned with
        # the docstore partitions.
        _restore_cfg_from_meta(index_dir, cfg)
    t0 = time.perf_counter()
    docs_sub = _docs_phase(source, index_dir, cfg)
    t1 = time.perf_counter()
    _postings_phase(index_dir, cfg)
    t2 = time.perf_counter()
    stats = _finalize(index_dir)
    stats["phase_sec"] = {
        "docs": round(t1 - t0, 3),
        "postings": round(t2 - t1, 3),
        "finalize": round(time.perf_counter() - t2, 3),
        "docs_sub": docs_sub or None,
    }
    return stats


def _docstore_files(docs_dir: str) -> list[str]:
    files = []
    for name in sorted(os.listdir(docs_dir)) if os.path.isdir(docs_dir) else []:
        sub = os.path.join(docs_dir, name)
        if os.path.isdir(sub) and name.startswith("shard="):
            files += [os.path.join(sub, f) for f in sorted(os.listdir(sub))
                      if f.endswith(".parquet")]
    return files


def _max_doc_id(index_dir: str, docs_dir: str) -> int:
    """Highest ever-assigned doc id: the persisted monotone counter
    (reference's id counter, index.py:20-23 — survives compaction of the
    top shard so deleted ids are never reused), falling back to the top
    shard's doc_id column for pre-counter indexes."""
    counter_path = os.path.join(index_dir, "id_counter.json")
    persisted = 0
    if os.path.exists(counter_path):
        with open(counter_path) as f:
            persisted = int(json.load(f)["max_id"])
    shard_dirs = [n for n in os.listdir(docs_dir)
                  if n.startswith("shard=")] if os.path.isdir(docs_dir) else []
    scanned = 0
    if shard_dirs:
        top = max(shard_dirs, key=lambda n: int(n.split("=", 1)[1]))
        sub = os.path.join(docs_dir, top)
        parts = [
            pq.read_table(os.path.join(sub, f), columns=["doc_id"])
            for f in sorted(os.listdir(sub)) if f.endswith(".parquet")]
        if parts:
            scanned = int(pc.max(pa.concat_tables(parts)["doc_id"]).as_py() or 0)
    return max(persisted, scanned)


def _write_id_counter(index_dir: str, max_id: int) -> None:
    tmp = os.path.join(index_dir, ".id_counter.json.tmp")
    with open(tmp, "w") as f:
        json.dump({"max_id": int(max_id)}, f)
    os.replace(tmp, os.path.join(index_dir, "id_counter.json"))


# Ingest status codes (reference index.py:36-45, IndexingStatusCode).
STATUS_SUCCESS = "SUCCESS"
STATUS_CONFLICT = "CONFLICT"
STATUS_ERROR = "ERROR"


def append_documents(
    index_dir: str, source, cfg: IndexConfig | None = None
) -> dict:
    """Incrementally ingest new documents into an existing index.

    The reference's primary API is one-at-a-time/batch ingest with
    arrival-order IDs, hash-dict CONFLICT dedup and per-document statuses
    (reference index.py:36-90, 299-327); the batch-build equivalent:

    - new docs get dense IDs ``N+1..`` in the canonical order of the
      APPENDED batch (arrival order between batches, canonical within —
      matching the reference's monotone counter, which is persisted in
      ``id_counter.json`` so compacted-away ids are never reused);
    - exact dedup is global against LIVE docs: content whose sha256
      already exists in the docstore (excluding tombstoned doc ids — Q3:
      deleted content re-ingests under a fresh id) is skipped with
      ``CONFLICT`` carrying the existing doc's id (index.py:55-63,
      test_konlsearch.py:345-356); in-batch duplicates get ``CONFLICT``
      with the batch winner's id; null content rows get ``ERROR``;
    - appended docs extend the tail shard / open new shards; affected
      shards' manifests are invalidated so the (idempotent, resumable)
      postings phase rebuilds exactly those segments;
    - dictionary and stats re-finalize from the shard manifests.

    Scale shape (no driver materialization of data): the new batch
    streams block-by-block with a light (sha, key) wave exactly like the
    build's docs phase; dedup against the docstore is a broadcast
    semi-join — the NEW batch's distinct shas broadcast once via
    ``ray.put``, the docstore scanned distributed and column-pruned, and
    only matching (sha, doc_id) pairs return to the driver (bounded by
    the append size, not the index size); appended rows write into shard
    partitions in a parallel fused task wave. For appends so large their
    sha set cannot broadcast, run a fresh ``build_index`` over the union
    instead — the hash-partitioned-join variant buys nothing over it.

    Returns the refreshed stats dict plus ``statuses`` (one row per input
    row, canonical order: content_sha256, status, doc_id), also persisted
    under ``append_log/``.

    Crash semantics: docstore files write atomically, so a run that dies
    mid-wave leaves whole rows only; re-running the same append skips the
    rows that landed (their shas now conflict) and ingests the rest under
    fresh ids — no duplication, though ids can differ from an
    uninterrupted run. Touched shards' manifests are invalidated BEFORE
    any row lands, and every append run (even an all-CONFLICT rerun)
    executes the idempotent postings phase, so no crash point can leave
    landed rows docstore-only and unsearchable.
    """
    import uuid as _uuid

    import copy

    cfg = copy.copy(cfg) if cfg is not None else IndexConfig()
    # Layout + canonical-order parameters are properties of the INDEX,
    # not the call — read them from the persisted meta (into the local
    # COPY, never the caller's object) so appends can't fragment the
    # layout or reorder by the wrong keys (an id_col-mode index has
    # sort_keys=[], a default cfg would wrongly sort by
    # repo/path/commit).
    _restore_cfg_from_meta(index_dir, cfg)
    docs_dir = os.path.join(index_dir, "docs")
    max_id = _max_doc_id(index_dir, docs_dir)

    # --- stream the new batch; light (sha, key) wave overlapped ---------
    ds = (source if isinstance(source, ray.data.Dataset)
          else ray.data.read_parquet(source))
    # NOTE: appends ALWAYS auto-assign dense tail ids (arrival order —
    # the reference's monotone counter), including on id_col indexes: a
    # carried id column in the batch is deliberately ignored, assigned
    # ids win (tested: test_advice_fixes.py
    # test_append_with_preexisting_doc_id_column). Callers who need
    # their own ids honored rebuild over the unioned source.
    ds = ds.map_batches(
        _sha256_batch, batch_format="pyarrow",
        fn_kwargs={"content_col": cfg.content_col})
    key_cols = cfg.sort_keys or ["content_sha256"]
    block_refs: list[tuple] = []
    light_futs = []
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta_b in bundle.blocks:
            if meta_b.num_rows:
                block_refs.append((ref, meta_b.num_rows))
                light_futs.append(_block_light.remote(ref, key_cols))
    if not block_refs:
        stats = _finalize(index_dir)
        stats["appended"] = 0
        stats["statuses"] = _empty_status_table()
        return stats
    light = ray.get(light_futs)
    keys = np.concatenate([d["key"] for d in light])
    shas = np.concatenate([d["sha"] for d in light])
    n_in = len(shas)

    # --- conflicts vs live docstore: broadcast semi-join ----------------
    from konlsearch_ray.tombstone import load_tombstones

    dead = load_tombstones(index_dir)
    uniq_shas = np.unique(shas)
    cand_ref = ray.put(pa.array(np.char.decode(uniq_shas.astype("S64"))))

    def _match(t: pa.Table) -> pa.Table:
        m = pc.is_in(t["content_sha256"], value_set=ray.get(cand_ref))
        return t.filter(pc.fill_null(m, False))

    files = _docstore_files(docs_dir)
    conflict_of: dict[bytes, int] = {}
    if files and cfg.dedup:
        hits = (ray.data.read_parquet(
                    files, columns=["doc_id", "content_sha256"])
                .map_batches(_match, batch_format="pyarrow")
                .to_pandas())  # bounded by append size, not index size
        if len(hits):  # empty to_pandas drops the schema entirely
            if len(dead):
                hits = hits[~np.isin(hits["doc_id"].to_numpy(), dead)]
            for sha_s, did in zip(hits["content_sha256"], hits["doc_id"]):
                b = sha_s.encode()
                prev = conflict_of.get(b)
                if prev is None or did < prev:  # first-wins: lowest live id
                    conflict_of[b] = int(did)

    # --- canonical order, statuses, dense tail ids ----------------------
    # Canonical-key order when the index has sort keys; otherwise the
    # batch's arrival order (the reference's ingest-order counter).
    order = (np.argsort(keys, kind="stable") if cfg.sort_keys
             else np.arange(n_in))
    sh_sorted = shas[order]
    is_err_sorted = sh_sorted == b""  # null content (sha filled to "")
    import pandas as pd

    if cfg.dedup:
        first_sorted = (~pd.Series(sh_sorted).duplicated()).to_numpy()
        conf_arr = (np.array(sorted(conflict_of), dtype="S64")
                    if conflict_of else np.array([], dtype="S64"))
        existing_sorted = np.isin(sh_sorted, conf_arr)
    else:
        # dedup=False index: duplicate content ingests (same as build);
        # every non-error row is its own winner.
        first_sorted = np.ones(n_in, dtype=bool)
        existing_sorted = np.zeros(n_in, dtype=bool)
    keep_sorted = first_sorted & ~existing_sorted & ~is_err_sorted
    ids_sorted = max_id + np.cumsum(keep_sorted)
    n_new = int(keep_sorted.sum())

    # Status doc_id per row: kept → its new id; existing-conflict → the
    # live doc's id; in-batch dup → the batch winner's id (which is the
    # existing id when the winner itself conflicted); error → null.
    if cfg.dedup:
        codes, uniq_first = pd.factorize(pd.Series(sh_sorted))
        winner_id_by_code = np.zeros(len(uniq_first), dtype=np.int64)
        winner_pos = np.flatnonzero(first_sorted)
        winner_id_by_code[codes[winner_pos]] = np.where(
            keep_sorted[winner_pos], ids_sorted[winner_pos],
            [conflict_of.get(bytes(s), 0) for s in sh_sorted[winner_pos]])
        status_doc_sorted = winner_id_by_code[codes]
    else:
        status_doc_sorted = np.where(keep_sorted, ids_sorted, 0)
    status_sorted = np.where(
        is_err_sorted, STATUS_ERROR,
        np.where(keep_sorted, STATUS_SUCCESS, STATUS_CONFLICT))

    statuses = pa.table({
        "content_sha256": pa.array(
            np.char.decode(sh_sorted.astype("S64")), pa.string()),
        "status": pa.array(status_sorted, pa.string()),
        "doc_id": pa.array(
            np.where(status_sorted == STATUS_ERROR, 0, status_doc_sorted),
            pa.int64()),
    })
    statuses = statuses.set_column(
        2, "doc_id",
        pc.if_else(pc.equal(statuses["status"], STATUS_ERROR),
                   pa.scalar(None, pa.int64()), statuses["doc_id"]))

    log_dir = os.path.join(index_dir, "append_log")
    os.makedirs(log_dir, exist_ok=True)
    run_id = _uuid.uuid4().hex[:10]
    _atomic_write_parquet(
        statuses, os.path.join(log_dir, f"append-{run_id}.parquet"))

    if n_new == 0:
        # Still run the (idempotent, cheap-when-clean) postings phase: a
        # PRIOR append may have crashed after its docstore writes landed
        # but before its postings rebuilt — this rerun sees those rows as
        # CONFLICTs, and skipping the rebuild would leave them docstore-
        # only (present but unsearchable) forever.
        _postings_phase(index_dir, cfg)
        stats = _finalize(index_dir)
        stats["appended"] = 0
        stats["statuses"] = statuses
        return stats

    # Invalidate the touched shards' manifests BEFORE any doc row lands:
    # if the run dies mid-wave, the stale manifests are already gone, so
    # the next append/build rebuilds exactly those segments over whatever
    # rows landed — no crash window in which docs exist without postings
    # and nothing is marked stale.
    new_ids = ids_sorted[keep_sorted]
    touched = sorted(set(((new_ids - 1) // cfg.shard_size).tolist()))
    mf_dir = os.path.join(index_dir, "manifests")
    for s in touched:
        mf = os.path.join(mf_dir, f"shard-{int(s):06d}.json")
        if os.path.exists(mf):
            os.remove(mf)

    # --- parallel fused write wave (same shape as the build docs phase) -
    keep = np.empty(n_in, dtype=bool)
    keep[order] = keep_sorted
    ids = np.empty(n_in, dtype=np.int64)
    ids[order] = ids_sorted
    keep_cols = {"doc_id", "content_sha256", cfg.content_col}
    keep_cols |= set(cfg.store_cols or []) | set(cfg.sort_keys)
    waves, off = [], 0
    for i, (ref, n) in enumerate(block_refs):
        k = keep[off:off + n]
        if k.any():
            waves.append(_finish_docs_block.remote(
                ref, None if k.all() else k, ids[off:off + n][k],
                cfg.shard_size, sorted(keep_cols), docs_dir, i,
                name_prefix=f"append-{run_id}"))
        off += n
    ray.get(waves)
    _write_id_counter(index_dir, max_id + n_new)
    _postings_phase(index_dir, cfg)
    stats = _finalize(index_dir)
    stats["appended"] = n_new
    stats["touched_shards"] = [int(s) for s in touched]
    stats["statuses"] = statuses
    return stats


def _empty_status_table() -> pa.Table:
    return pa.table({
        "content_sha256": pa.array([], pa.string()),
        "status": pa.array([], pa.string()),
        "doc_id": pa.array([], pa.int64()),
    })
