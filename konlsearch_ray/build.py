"""Distributed index build — a streaming Ray Data pipeline.

Replaces the reference's serial, lock-guarded ingest loop (reference
index.py:299-327 — per-(token, doc) RocksDB point writes, SURVEY.md §3.1)
with two phases over ``ray.data.Dataset``:

**Phase A — canonical docs** (runs once, marker-gated):
  read input Parquet → vectorized sha256 (per-row invariant column
  ``content_sha256``) → exact dedup, the first row of each sha in
  canonical order wins (first-wins, reference index.py:299-305) → dense
  1-based ``doc_id`` in that order. Up to ``DEDUP_DRIVER_MAX_ROWS`` rows
  the driver ranks one light (sha, key) array per block
  (``_driver_rank_docs``; appends share it); beyond, a shuffle pre-pass
  keeps each sha's winner-key rows and a canonical sort numbers them
  (``_sorted_dedup_ids``); in id_col mode the caller's id is the key.
  Rows equal in sha AND winning key are a tie, and every path keeps the
  same row of it (the tie rule, ``_tie_winners``). Then
  ``segment.shard_of`` → each block splits into one piece per
  shard it touches, and one task per shard writes ``docs/shard=K/``
  once: one doc_id-sorted file under a fixed name.

**Phase B — posting segments** (resumable per shard):
  The docstore write in phase A already partitioned docs by doc-range
  shard on disk (``docs/shard=K/``), so phase B needs NO exchange: every
  shard without a manifest goes to ``segment.run_per_shard``, one plain
  Ray task per CPU over a strided chunk of shards. A task builds one
  analyzer, then for each of its shards reads the shard's own files
  (column-pruned to doc_id + content), tokenizes in bounded sub-batches,
  sorts (term, doc_id), delta-gap + varint encodes with block-max
  metadata, and atomically writes segment + doclens + manifest. Shards
  are equal doc-ID ranges, so head-term postings are split across shards
  into disjoint ordered sub-lists that concatenate back into a globally
  sorted posting list with no merge logic — the "salt by doc-range" skew
  strategy of SURVEY.md §7(b), realized as physical partitioning instead
  of a shuffle.

**Finalize**: global ``stats.json`` (N, avgdl, total_tokens) from shard
manifests; ``dictionary/``, the one global term table = groupby(term)
over the segments' (term, df, cf) columns only (column-pruned read),
each term's ``jamo_key`` appended, sorted by (jamo_key, term).

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

from konlsearch_ray.analyzer import analyze_strings_coded, group_postings
from konlsearch_ray.functions.blocks import key_codes, keyed_int_fold, runs
from konlsearch_ray.pipelines.suggest import decompose_jamo_bulk
from konlsearch_ray.segment import (DICTIONARY_ROW_GROUP, DICTIONARY_SCHEMA,
                                    FORMAT_VERSION,
                                    _atomic_write_parquet, binary_view,
                                    check_version, docs_files, encode_segment,
                                    manifest_path, read_manifests,
                                    run_per_shard, segment_path, shard_nums,
                                    shard_of, write_docs_file, write_shard)


@dataclass
class IndexConfig:
    content_col: str = "content"
    id_col: str | None = None  # None → assign dense IDs by sort_keys
    # Doc ids follow these keys. Rows with DIFFERENT content and the same
    # key are numbered in block arrival order on the driver-rank path
    # (up to DEDUP_DRIVER_MAX_ROWS rows), which can change with the
    # input's file layout; keys unique per content give the same ids
    # from every layout.
    sort_keys: list[str] = field(default_factory=lambda: ["repo", "path", "commit"])
    shard_size: int = 32768  # docs per shard (the resumable / bounded unit)
    dedup: bool = True
    store_cols: list[str] | None = None  # extra columns persisted in docs/
    tokenize_batch_size: int = 512
    # Pluggable analyzer (SURVEY.md ST1 / §2.10): a zero-arg factory whose
    # product has a ``tokenize_many`` method (see analyzer.py). Built once
    # per postings task, and a build runs at most one task per CPU, so
    # its state (a morpheme model, a dictionary) loads once per worker,
    # never once per shard or batch. None = the normative analyzer.
    analyzer_factory: object | None = None


# --------------------------------------------------------------------------
# Stages
# --------------------------------------------------------------------------


def hash_hex_column(col, algo: str = "sha256") -> pa.Array:
    """Per-row hex digest over the Arrow string buffer directly — no
    Python string materialization (hashlib accepts memoryview slices)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offs, data = binary_view(col)
    valid = (np.ones(len(col), dtype=bool) if col.null_count == 0
             else pc.is_valid(col).to_numpy(zero_copy_only=False))
    ctor = getattr(hashlib, algo)
    hashes = [
        ctor(data[offs[i]:offs[i + 1]]).hexdigest() if valid[i] else None
        for i in range(len(col))
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


def _build_shard(shard: int, shard_files: list[str], cfg: IndexConfig,
                 index_dir: str, analyzer=None) -> None:
    """Tokenize + encode + write ONE shard's segment, doclens and manifest.

    The docs phase already wrote each shard's rows into its own doc-range
    partition (``docs/shard=K/``), so the postings build needs NO
    exchange: it reads that partition's files (column-pruned to doc_id +
    content), tokenizes in bounded sub-batches with ``analyzer`` (None =
    the normative analyzer), and encodes.

    Per-batch occurrence rows stay FLAT and UNGROUPED: term codes are
    carried as Arrow dictionary chunks whose dictionaries unify in C on
    ``combine_chunks``, and the shard pays exactly ONE stable sort over
    its raw occurrence stream — (doc, term) grouping (tf / first_pos)
    falls out of the same sorted run-length pass that orders the
    postings (``analyzer.group_postings``).
    """
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
        doc_idx, codes, pos, dictionary = analyze_strings_coded(
            sub[cfg.content_col], analyzer)
        all_doc = sub["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        term_chunks.append(pa.DictionaryArray.from_arrays(
            pa.array(codes.astype(np.int32)), dictionary))
        doc_parts.append(all_doc[doc_idx])
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
    _encode_shard(shard, denc, flat_doc, flat_pos,
                  dl_sorted, dl_vals[o], index_dir)


def _encode_shard(shard: int, denc: pa.DictionaryArray, flat_doc: np.ndarray,
                  flat_pos: np.ndarray,
                  dl_docs: np.ndarray, dl_vals: np.ndarray,
                  index_dir: str) -> None:
    """Encode + atomically write one shard's segment, doclens and manifest.

    Input: the RAW occurrence stream — one row per kept token occurrence
    (terms as one unified-dictionary array, pos ascending within each
    doc), grouped into postings by ``analyzer.group_postings`` — plus
    doc_id-sorted doclens.
    """
    terms, starts, _, doc_s, tf_s, pos_s, pos_rest = group_postings(
        denc.indices.to_numpy(zero_copy_only=False).astype(np.int64),
        denc.dictionary, flat_doc, flat_pos)
    seg = encode_segment(terms, starts, doc_s, tf_s, pos_s, pos_rest)
    dl = pa.table({"doc_id": pa.array(dl_docs), "doc_len": pa.array(dl_vals)})
    write_shard(index_dir, shard, seg, dl)


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
    light = keyed_int_fold(
        ds.map_batches(
            lambda t: _add_dedup_key(t, key_cols)
            .select(["content_sha256", "__dedup_key"])
            .rename_columns(["content_sha256", "winner"]),
            batch_format="pyarrow"),
        "content_sha256", {"winner": "min", "n": "count"},
        out={"content_sha256": pa.string(), "winner": pa.string(),
             "n": pa.int64()})
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


def _winner_filtered(ds: ray.data.Dataset, read, key_cols: list[str]):
    """The shuffle dedup pre-pass (``_dedup_winners`` over a second
    ``read()``) applied to ``ds``: returns ``(filtered ds, dup_shas)``.
    What survives of a duplicate sha is its winner-key rows — one row,
    or a tie for ``_tie_drops`` to settle."""
    dup_shas, winner_keys = _dedup_winners(read(), key_cols)
    return ds.map_batches(
        _winner_filter, batch_format="pyarrow",
        fn_kwargs={"dup_shas": dup_shas, "winner_keys": winner_keys,
                   "key_cols": key_cols}), dup_shas


# --------------------------------------------------------------------------
# The tie rule. A tie is the rows that share a sha AND the winning
# canonical key (in id_col mode, the caller's id); they can still differ
# in their other columns. Every docs-phase path keeps the same row of a
# tie: the smallest over every orderable column (``_orderable``) in
# schema order, ascending, nulls last, as ``pc.sort_indices`` orders
# them — then the earliest row. The kept row takes its tie's canonical
# slot, so doc ids never depend on which row that is. Every row of a
# tie has the same content, so the content column never leaves its
# block.
# --------------------------------------------------------------------------


def _orderable(typ: pa.DataType) -> bool:
    """Whether the tie rule orders by a column of this type: not nested,
    not dictionary, and sortable by Arrow (no extension, interval or
    view type)."""
    if pa.types.is_nested(typ) or pa.types.is_dictionary(typ):
        return False
    try:
        pc.sort_indices(pa.table({"c": pa.nulls(0, typ)}),
                        sort_keys=[("c", "ascending")])
    except pa.ArrowException:
        return False
    return True


@ray.remote
def _tie_candidates(block: pa.Table, shas: pa.Array, content_col: str,
                    start: int) -> pa.Table:
    """The block half of the tie rule: ``block``'s rows whose sha is in
    ``shas``, as their orderable columns except the content, plus
    ``__pos`` = ``start`` + their block row (a global row position)."""
    rows = np.flatnonzero(pc.is_in(block["content_sha256"], value_set=shas)
                          .to_numpy(zero_copy_only=False))
    cols = [f.name for f in block.schema
            if f.name != content_col and _orderable(f.type)]
    return block.select(cols).take(pa.array(rows)).append_column(
        "__pos", pa.array(start + rows, pa.int64()))


def _block_starts(block_refs: list[tuple]) -> np.ndarray:
    """Global row position of each ``(ref, num_rows)`` block's first row."""
    return np.concatenate(([0], np.cumsum([n for _, n in block_refs])))


def _tie_winners(block_refs: list[tuple], shas: pa.Array, content_col: str,
                 rows: np.ndarray | None = None):
    """The driver half of the tie rule. The candidates are the rows whose
    sha is in ``shas`` — only those at the sorted global positions
    ``rows`` when given, and only blocks holding one are asked. One sort
    by (sha, columns…, position) puts each sha's kept row first. Returns
    ``(pos, won)``: every candidate's global position and whether it is
    kept. Memory is bounded by the duplicate volume."""
    starts = _block_starts(block_refs)
    blks = (range(len(block_refs)) if rows is None else
            np.unique(np.searchsorted(starts, rows, side="right") - 1))
    shas_ref = ray.put(shas)
    cand = pa.concat_tables(ray.get([
        _tie_candidates.remote(block_refs[b][0], shas_ref, content_col,
                               int(starts[b])) for b in blks]),
        promote_options="permissive")
    if rows is not None:
        cand = cand.filter(pa.array(np.isin(cand["__pos"].to_numpy(), rows)))
    keys = ["content_sha256"] + [c for c in cand.column_names
                                 if c != "content_sha256"]
    order = pc.sort_indices(cand, sort_keys=[(c, "ascending") for c in keys],
                            null_placement="at_end").to_numpy()
    first, _ = runs(cand["content_sha256"].take(order)
                    .to_numpy(zero_copy_only=False))
    won = np.zeros(cand.num_rows, dtype=bool)
    won[order[first]] = True
    return cand["__pos"].to_numpy(), won


def _tie_drops(block_refs: list[tuple], shas: pa.Array,
               content_col: str) -> dict[int, np.ndarray]:
    """For paths whose blocks keep every winner-key row (the shuffle and
    id_col paths): block index → the block rows that lose their tie."""
    if not len(shas):
        return {}
    pos, won = _tie_winners(block_refs, shas, content_col)
    lost = pos[~won]
    starts = _block_starts(block_refs)
    blk = np.searchsorted(starts, lost, side="right") - 1
    return {int(b): lost[blk == b] - starts[b] for b in np.unique(blk)}


def _drop_rows(block: pa.Table, drop: np.ndarray | None) -> pa.Table:
    """``block`` without its rows ``drop`` (block-local; None = none)."""
    if drop is None:
        return block
    keep = np.ones(block.num_rows, dtype=bool)
    keep[drop] = False
    return block.filter(pa.array(keep))


# Above this many input rows the driver-side dedup pass (which pulls one
# light (sha) column to the driver) hands off to the shuffle-based
# pre-pass. ~64 B/row → ~3 GB driver heap at the threshold.
DEDUP_DRIVER_MAX_ROWS = 50_000_000
# Up to this many terms, finalize builds the dictionary on the driver: a
# Ray pipeline costs seconds of fixed latency for kilobytes of stats.
# Above it, the dictionary builds as one Ray Data pipeline.
DRIVER_MAX_TERMS = 4_000_000


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


# Every build writes one docstore file per shard under this name; each
# append adds one ``append-{run_id}.parquet`` per shard it touches.
DOCS_FILE = "docs.parquet"


def _stored_cols(cfg: IndexConfig) -> list[str]:
    """The columns the docstore keeps (canonical sort keys only when the
    index has a canonical order, i.e. no caller-owned id column)."""
    cols = {"doc_id", "content_sha256", cfg.content_col}
    cols |= set(cfg.store_cols or [])
    if cfg.id_col is None:
        cols |= set(cfg.sort_keys)
    return sorted(cols)


def _block_refs(ds: ray.data.Dataset) -> list[tuple]:
    """Stream ``ds`` and keep its non-empty blocks as ``(ref, num_rows)``
    (empty split blocks may carry empty schemas)."""
    return [(ref, meta.num_rows)
            for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]


@ray.remote
def _block_shards(block: pa.Table, shard_size: int,
                  drop: np.ndarray | None) -> np.ndarray:
    """The sorted shards one doc_id-carrying block touches once its rows
    ``drop`` are gone (light: only its doc_id column is read)."""
    return np.unique(shard_of(
        _drop_rows(block.select(["doc_id"]), drop)["doc_id"], shard_size))


@ray.remote
def _split_docs_block(
    block: pa.Table, drop: np.ndarray | None, ids: np.ndarray | None,
    shard_size: int, keep_cols: list[str],
):
    """Drop the losing rows (``drop``, block-local), attach doc_id
    (``ids``; None = the block's own doc_id column), keep the stored
    columns, and cut the block into one piece per shard it touches, in
    shard order. The caller sets ``num_returns`` to that count, so each
    shard writer fetches only its own pieces, never a whole block."""
    block = _drop_rows(block, drop)
    if ids is not None:
        # The incoming block may already carry doc_id/shard columns (e.g.
        # a CLI append using the same file format the build ingested) —
        # the ASSIGNED ids are authoritative, so drop them before
        # attaching.
        stale = [c for c in ("doc_id", "shard") if c in block.schema.names]
        block = block.drop_columns(stale).append_column(
            "doc_id", pa.array(ids, pa.int64()))
    shard = shard_of(block["doc_id"], shard_size)
    block = block.select([c for c in block.schema.names if c in keep_cols])
    shards = np.unique(shard)
    if len(shards) == 1:
        return block
    return tuple(block.filter(pa.array(shard == s)) for s in shards)


@ray.remote
def _write_docs_shard(path: str, *pieces: pa.Table) -> int:
    """Write one shard's pieces as ONE docstore file
    (``segment.write_docs_file``); returns its row count."""
    return write_docs_file(pa.concat_tables(pieces), path)


def _ranked_blocks(block_refs: list[tuple], keep: np.ndarray,
                   ids: np.ndarray, shard_size: int) -> list[tuple]:
    """Writer input for blocks whose ids the driver assigned: per block
    with a kept row, ``(ref, dropped rows or None, kept ids, shards)``."""
    out, off = [], 0
    for ref, n in block_refs:
        k = keep[off:off + n]
        b_ids = ids[off:off + n][k]
        off += n
        if len(b_ids):
            out.append((ref, None if k.all() else np.flatnonzero(~k), b_ids,
                        np.unique(shard_of(b_ids, shard_size))))
    return out


def _id_blocks(refs: list, shard_size: int,
               drops: dict[int, np.ndarray] | None = None) -> list[tuple]:
    """Writer input for blocks that already carry doc_id: each block's
    shards come from one light task over its doc_id column, after the
    rows ``drops[i]`` of block ``i`` are gone."""
    drops = drops or {}
    shards = ray.get([_block_shards.remote(r, shard_size, drops.get(i))
                      for i, r in enumerate(refs)])
    return [(r, drops.get(i), None, s)
            for i, (r, s) in enumerate(zip(refs, shards)) if len(s)]


def _write_docstore(docs_dir: str, blocks: list[tuple], shard_size: int,
                    keep_cols: list[str], name: str = DOCS_FILE) -> None:
    """Write ``blocks`` (``(ref, drop, ids, shards)``, see
    ``_ranked_blocks``/``_id_blocks``) into the docstore: one split task
    per block, then one writer per touched shard that writes
    ``docs/shard=K/{name}`` exactly once. The only data movement is each
    row going from its block to its shard — no shuffle, no rewrite."""
    os.makedirs(docs_dir, exist_ok=True)
    pieces: dict[int, list] = {}
    for ref, drop, ids, shards in blocks:
        outs = _split_docs_block.options(num_returns=len(shards)).remote(
            ref, drop, ids, shard_size, keep_cols)
        for s, piece in zip(shards, outs if len(shards) > 1 else [outs]):
            pieces.setdefault(int(s), []).append(piece)
    ray.get([
        _write_docs_shard.remote(
            os.path.join(docs_dir, f"shard={s}", name), *ps)
        for s, ps in sorted(pieces.items())])


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


def _light_wave(ds: ray.data.Dataset, key_cols: list[str]):
    """Stream ``ds`` once: its non-empty blocks as ``(ref, num_rows)``
    and, per block, the light (sha, key) arrays of ``_block_light``.
    Each light task launches the moment its block exists (overlapped
    with the read — no ``materialize()`` barrier); full rows stay in
    the object store for the docstore writer."""
    block_refs, futs = [], []
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:  # empty split blocks may carry empty schemas
                block_refs.append((ref, meta.num_rows))
                futs.append(_block_light.remote(ref, key_cols))
    return block_refs, ray.get(futs)


def _canonical_rank(light: list[dict], sort: bool, dedup: bool):
    """The first-wins ranking build and append share, over one light
    wave. Canonical order is key order when ``sort`` (stable: equal keys
    keep arrival order), else arrival order; the first row of each sha
    in it wins (every row when not ``dedup``). In canonical positions,
    returns ``(order, sh, first, dup, win, tied)``: the permutation, the
    shas, the winner mask, every other row of a repeated sha (``dup``),
    its sha's winner (``win``) and whether it has its winner's key
    (``tied``: a tie, see ``_settle_ties``). Beyond the one hash pass
    over the shas this costs O(duplicates)."""
    import pandas as pd

    shas = _concat_s_parallel([d["sha"] for d in light])
    # The key array never materializes serially: bucket pad+concat and
    # argsort run in threads (the parts are plasma-backed, so their cold
    # pages fault in on P cores).
    keys, order = (_parallel_argsort_s_parts([d["key"] for d in light])
                   if sort else (_concat_s([d["key"] for d in light]),
                                 np.arange(len(shas))))
    sh = shas[order]
    if not dedup:
        none = np.zeros(0, dtype=np.int64)
        return (order, sh, np.ones(len(sh), dtype=bool), none, none,
                np.zeros(0, dtype=bool))
    # Hash-based duplicated() beats a sort-based np.unique ~5x on the
    # fixed-width sha bytes; only repeated shas are coded after it.
    pos = np.flatnonzero(pd.Series(sh).duplicated(keep=False).to_numpy())
    codes, head = key_codes(sh[pos])
    first = np.ones(len(sh), dtype=bool)
    first[pos] = False
    first[pos[head]] = True
    win = pos[head[codes]]
    dup = win != pos
    dup, win = pos[dup], win[dup]
    return order, sh, first, dup, win, keys[order[dup]] == keys[order[win]]


def _unsorted(order: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a``, given in canonical positions, in input row order."""
    out = np.empty_like(a)
    out[order] = a
    return out


def _settle_ties(block_refs: list[tuple], sh: np.ndarray, order: np.ndarray,
                 tie: np.ndarray, win: np.ndarray, keep: np.ndarray,
                 ids: np.ndarray, content_col: str) -> None:
    """The tie rule on the driver-ranked paths: the rows of each tie —
    canonical positions ``win`` (the kept one so far) and ``tie`` — hand
    the kept slot and its doc id to the row ``_tie_winners`` picks.
    Updates ``keep`` and ``ids`` (input row order) in place."""
    if not len(tie):
        return
    heads = order[win]
    rows, i = np.unique(np.concatenate([heads, order[tie]]),
                        return_index=True)
    heads = np.concatenate([heads, heads])[i]
    shas = pa.array(np.char.decode(np.unique(sh[win])), pa.string())
    pos, won = _tie_winners(block_refs, shas, content_col, rows)
    got = pos[won]
    keep[rows] = False
    keep[got] = True
    ids[got] = ids[heads[np.searchsorted(rows, got)]]


def _driver_rank_docs(ds: ray.data.Dataset, cfg: IndexConfig):
    """Small/medium-corpus docs phase: canonical IDs by *driver-side rank*
    instead of a full-data sort exchange. One light wave, then a driver
    argsort over the keys as fixed-width *UTF-8 bytes* (numpy "S" memcmp
    == code-point order; the ``DEDUP_DRIVER_MAX_ROWS`` guard bounds the
    footprint) gives each row its dense rank (= doc_id) with first-wins
    dedup. Full rows never shuffle: the docstore writer is the only data
    movement. Returns ``(writer blocks, sub-phase timings)``."""
    import time

    t0 = time.perf_counter()
    block_refs, light = _light_wave(ds, cfg.sort_keys)
    if not block_refs:
        return [], {}
    t1 = time.perf_counter()
    order, sh, first, dup, win, tied = _canonical_rank(light, True, cfg.dedup)
    keep = _unsorted(order, first)
    ids = _unsorted(order, np.cumsum(first))
    _settle_ties(block_refs, sh, order, dup[tied], win[tied], keep, ids,
                 cfg.content_col)
    return _ranked_blocks(block_refs, keep, ids, cfg.shard_size), {
        "read_sha_light": round(t1 - t0, 3),
        "rank": round(time.perf_counter() - t1, 3),
    }


@ray.remote
def _filter_and_id_block(block: pa.Table, offset: int,
                         drop: np.ndarray | None) -> pa.Table:
    """Attach dense ids ``offset, offset + 1, …`` to one sorted block
    once its rows ``drop`` (the losers of their ties) are gone."""
    block = _drop_rows(block, drop)
    ids = pa.array(np.arange(offset, offset + block.num_rows, dtype=np.int64))
    return block.append_column("doc_id", ids)


def _sorted_dedup_ids(ds: ray.data.Dataset, sort_keys: list[str],
                      dup_shas: pa.Array, content_col: str) -> list:
    """Canonical sort → dense 1-based doc IDs, in ONE full-data pass:
    a single task wave applies ``doc_id = offset + arange`` per sorted
    block (offsets from a driver prefix-sum over post-drop counts). The
    huge-corpus path runs the shuffle dedup pre-pass first, so of each
    duplicate sha in ``dup_shas`` only its winner-key rows are left; the
    tie rule settles them on the already-pinned sorted blocks, so the
    corpus is pinned exactly once, by this sort. Returns the id-carrying
    block refs."""
    block_refs = _block_refs(ds.sort(sort_keys).materialize())
    if not block_refs:
        return []
    drops = _tie_drops(block_refs, dup_shas, content_col)
    counts = [n - len(drops.get(i, ())) for i, (_, n) in enumerate(block_refs)]
    offsets = 1 + np.concatenate(([0], np.cumsum(counts)[:-1]))
    return [_filter_and_id_block.remote(ref, int(offsets[i]), drops.get(i))
            for i, (ref, _) in enumerate(block_refs)]


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
        "version": FORMAT_VERSION,
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


def _docs_phase(source, index_dir: str, cfg: IndexConfig) -> dict:
    import time

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
        # marker. Its shard files may hold rows (or whole shards) this
        # run would not overwrite — clear it.
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
    sub = {}
    if cfg.id_col is not None:
        blocks = _id_col_docs(ds, read, cfg)
    elif _estimate_rows(source) <= DEDUP_DRIVER_MAX_ROWS:
        # Driver-rank path: one streamed full-data pipeline with an
        # overlapped light key wave. No shuffle.
        blocks, sub = _driver_rank_docs(ds, cfg)
    else:
        # Huge-scale path: shuffle dedup pre-pass + canonical sort + ids.
        dup_shas = pa.array([], pa.string())
        if cfg.dedup:
            ds, dup_shas = _winner_filtered(ds, read, cfg.sort_keys)
        blocks = _id_blocks(
            _sorted_dedup_ids(ds, cfg.sort_keys, dup_shas,
                              cfg.content_col), cfg.shard_size)
    t0 = time.perf_counter()
    _write_docstore(docs_dir, blocks, cfg.shard_size, _stored_cols(cfg))
    sub["write"] = round(time.perf_counter() - t0, 3)
    with open(marker, "w") as f:
        f.write("ok")
    return sub


def _id_col_docs(ds: ray.data.Dataset, read, cfg: IndexConfig) -> list:
    """id_col path: stream the (winner-filtered) corpus once; returns the
    docstore writer's input for its doc_id-carrying blocks, with the
    rows that lose their tie dropped."""
    dup_shas = pa.array([], pa.string())
    if cfg.dedup:
        ds, dup_shas = _winner_filtered(ds, read, [cfg.id_col])
    if cfg.id_col != "doc_id":
        ds = ds.rename_columns({cfg.id_col: "doc_id"})
    block_refs = _block_refs(ds)
    return _id_blocks([ref for ref, _ in block_refs], cfg.shard_size,
                      _tie_drops(block_refs, dup_shas, cfg.content_col))


def _build_shards(shards: list[tuple[int, list[str]]], cfg: IndexConfig,
                  index_dir: str) -> None:
    """Postings task: build each ``(shard, docstore files)`` of one
    ``run_per_shard`` chunk with one analyzer built here."""
    analyzer = cfg.analyzer_factory() if cfg.analyzer_factory else None
    for shard, files in shards:
        _build_shard(shard, files, cfg, index_dir, analyzer=analyzer)


def _postings_phase(index_dir: str, cfg: IndexConfig) -> None:
    """Build every docstore shard that has no manifest yet."""
    todo = [(s, f) for s, f in docs_files(index_dir).items()
            if not os.path.exists(manifest_path(index_dir, s))]
    run_per_shard(_build_shards, todo, cfg, index_dir)


def _with_jamo_key(t: pa.Table) -> pa.Table:
    """(term, df, cf) rows with each term's jamo decomposition appended."""
    keys = decompose_jamo_bulk(t["term"].to_pylist())
    return t.append_column("jamo_key", pa.array(keys, pa.string()))


def _write_dictionary(dict_dir: str, tables) -> int:
    """Write the term table — ``tables``, its rows in (jamo_key, term)
    order — as one file, ``dict-000000.parquet`` (``DICTIONARY_SCHEMA``,
    zstd, ``DICTIONARY_ROW_GROUP``-row groups), so a build writes the
    same bytes whichever path folded it; returns the row count."""
    os.makedirs(dict_dir)
    rows = 0
    with pq.ParquetWriter(os.path.join(dict_dir, "dict-000000.parquet"),
                          DICTIONARY_SCHEMA, compression="zstd") as w:
        for t in tables:
            w.write_table(t.select(DICTIONARY_SCHEMA.names)
                          .cast(DICTIONARY_SCHEMA).combine_chunks(),
                          row_group_size=DICTIONARY_ROW_GROUP)
            rows += t.num_rows
    return rows


def _finalize(index_dir: str) -> dict:
    import shutil

    manifests = read_manifests(index_dir)
    n_docs = sum(m["n_docs"] for m in manifests)
    total_tokens = sum(m["total_tokens"] for m in manifests)
    stats = {
        "N": n_docs,
        "total_tokens": total_tokens,
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
        "num_shards": len(manifests),
        "version": FORMAT_VERSION,
        "vocab": 0,
    }
    # The global term table: a column-pruned groupby over the segments'
    # (term, df, cf), keyed and sorted by jamo_key for prefix scans.
    seg_files = [segment_path(index_dir, s) for s in shard_nums(index_dir)]
    dict_dir = os.path.join(index_dir, "dictionary")
    if seg_files:
        tmp_dir = dict_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        cols = ["term", "df", "cf"]
        keys = ["jamo_key", "term"]
        if sum(m["n_terms"] for m in manifests) <= DRIVER_MAX_TERMS:
            t = pa.concat_tables(pq.read_table(f, columns=cols)
                                 for f in seg_files)
            agg = (t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
                   .rename_columns(cols))
            tables = [_with_jamo_key(agg).sort_by(
                [(k, "ascending") for k in keys])]
        else:
            # Streamed in row-group-sized batches: the sorted Dataset
            # never lands on the driver whole.
            tables = (keyed_int_fold(
                          ray.data.read_parquet(seg_files, columns=cols),
                          "term", {"df": "sum", "cf": "sum"})
                      .map_batches(_with_jamo_key, batch_format="pyarrow")
                      .sort(keys)
                      .iter_batches(batch_size=DICTIONARY_ROW_GROUP,
                                    batch_format="pyarrow"))
        stats["vocab"] = _write_dictionary(tmp_dir, tables)
        shutil.rmtree(dict_dir, ignore_errors=True)
        os.replace(tmp_dir, dict_dir)
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
        check_version(index_dir)
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


def _max_doc_id(index_dir: str) -> int:
    """Highest ever-assigned doc id: the persisted monotone counter
    (reference's id counter, index.py:20-23 — survives compaction of the
    top shard so deleted ids are never reused), falling back to the top
    shard's doc_id column for pre-counter indexes."""
    counter_path = os.path.join(index_dir, "id_counter.json")
    persisted = 0
    if os.path.exists(counter_path):
        with open(counter_path) as f:
            persisted = int(json.load(f)["max_id"])
    files = docs_files(index_dir)
    scanned = 0
    if files and files[max(files)]:
        top = pa.concat_tables(pq.read_table(f, columns=["doc_id"])
                               for f in files[max(files)])
        scanned = int(pc.max(top["doc_id"]).as_py() or 0)
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
    goes through the build's light wave and first-wins ranking, in-batch
    ties included (``_canonical_rank``, ``_settle_ties``); dedup against the docstore is a broadcast
    semi-join — the NEW batch's distinct shas broadcast once via
    ``ray.put``, the docstore scanned distributed and column-pruned, and
    only matching (sha, doc_id) pairs return to the driver (bounded by
    the append size, not the index size); appended rows go through the
    build's docstore writer, one ``append-{run_id}.parquet`` per touched
    shard. For appends so large their
    sha set cannot broadcast, run a fresh ``build_index`` over the union
    instead — the hash-partitioned-join variant buys nothing over it.

    Returns the refreshed stats dict plus ``statuses`` (one row per input
    row, canonical order: content_sha256, status, doc_id), also persisted
    under ``append_log/``.

    Crash semantics: docstore files write atomically, so a run that dies
    mid-write leaves whole shard files only; re-running the same append skips the
    rows that landed (their shas now conflict) and ingests the rest under
    fresh ids — no duplication, though ids can differ from an
    uninterrupted run. Touched shards' manifests are invalidated BEFORE
    any row lands, and every append run (even an all-CONFLICT rerun)
    executes the idempotent postings phase, so no crash point can leave
    landed rows docstore-only and unsearchable.
    """
    import uuid as _uuid

    import copy

    check_version(index_dir)
    cfg = copy.copy(cfg) if cfg is not None else IndexConfig()
    # Layout + canonical-order parameters are properties of the INDEX,
    # not the call — read them from the persisted meta (into the local
    # COPY, never the caller's object) so appends can't fragment the
    # layout or reorder by the wrong keys (an id_col-mode index has
    # sort_keys=[], a default cfg would wrongly sort by
    # repo/path/commit).
    _restore_cfg_from_meta(index_dir, cfg)
    docs_dir = os.path.join(index_dir, "docs")
    max_id = _max_doc_id(index_dir)

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
    block_refs, light = _light_wave(ds, cfg.sort_keys or ["content_sha256"])
    if not block_refs:
        stats = _finalize(index_dir)
        stats["appended"] = 0
        stats["statuses"] = _empty_status_table()
        return stats
    # Canonical-key order when the index has sort keys; otherwise the
    # batch's arrival order (the reference's ingest-order counter).
    order, sh_sorted, first_sorted, dup, win, tied = _canonical_rank(
        light, bool(cfg.sort_keys), cfg.dedup)

    # --- conflicts vs live docstore: broadcast semi-join ----------------
    from konlsearch_ray.tombstone import load_tombstones

    dead = load_tombstones(index_dir)
    cand_ref = ray.put(pa.array(np.char.decode(np.unique(sh_sorted))))

    def _match(t: pa.Table) -> pa.Table:
        m = pc.is_in(t["content_sha256"], value_set=ray.get(cand_ref))
        return t.filter(pc.fill_null(m, False))

    files = [f for fs in docs_files(index_dir).values() for f in fs]
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

    # --- statuses, dense tail ids ---------------------------------------
    is_err_sorted = sh_sorted == b""  # null content (sha filled to "")
    conf_arr = np.array(sorted(conflict_of), dtype="S64")
    existing_sorted = np.isin(sh_sorted, conf_arr)
    keep_sorted = first_sorted & ~existing_sorted & ~is_err_sorted
    ids_sorted = max_id + np.cumsum(keep_sorted)
    n_new = int(keep_sorted.sum())

    # Status doc_id per row: kept → its new id; existing-conflict → the
    # live doc's id; in-batch dup → its winner's (which is the existing
    # id when the winner itself conflicted); error → null.
    status_doc_sorted = np.where(keep_sorted, ids_sorted, 0)
    conf_pos = np.flatnonzero(existing_sorted & first_sorted)
    status_doc_sorted[conf_pos] = [conflict_of[bytes(s)]
                                   for s in sh_sorted[conf_pos]]
    status_doc_sorted[dup] = status_doc_sorted[win]
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
    touched = sorted(set(shard_of(new_ids, cfg.shard_size).tolist()))
    for s in touched:
        mf = manifest_path(index_dir, int(s))
        if os.path.exists(mf):
            os.remove(mf)

    # --- one file per touched shard (the build's docstore writer) -------
    keep = _unsorted(order, keep_sorted)
    ids = _unsorted(order, ids_sorted)
    tie = tied & keep_sorted[win]
    _settle_ties(block_refs, sh_sorted, order, dup[tie], win[tie], keep, ids,
                 cfg.content_col)
    _write_docstore(docs_dir,
                    _ranked_blocks(block_refs, keep, ids, cfg.shard_size),
                    cfg.shard_size, _stored_cols(cfg),
                    name=f"append-{run_id}.parquet")
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
