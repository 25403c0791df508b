"""The shard segment format: the one module that writes, rewrites and reads it.

An index keeps one immutable segment per shard (``segments/``), beside
that shard's doc lengths (``doclens/``) and a manifest (``manifests/``)
holding both files' sha256. One global term table (``dictionary/``,
``DICTIONARY_SCHEMA``) sums every term's ``df``/``cf`` over the segments
and carries its Hangul jamo decomposition (``jamo_key``), sorted by
(jamo_key, term) in ``DICTIONARY_ROW_GROUP``-row groups: it serves the
global df, spelling and prefix suggestions.

A segment is one Parquet table with one row per term, in term order
(``SEGMENT_SCHEMA``):

- ``df``/``cf``: the term's posting count and tf sum within the shard;
- ``doc_ids_bin``: LEB128 doc-id gaps, the first gap the absolute id;
- ``tfs_bin``/``pos_bin``: LEB128 tfs and first positions, in doc order;
- ``pos_rest_bin``: every posting's positions 2..tf, in doc order, each a
  LEB128 gap from the posting's previous position (``cf - df`` values,
  so the tfs split it and no count stream is needed);
- ``block_last_doc``/``block_max_tf``: each ``BLOCK_SIZE``-entry block's
  last doc id and max tf.

Every other module reaches the format through this one:

- layout: ``FORMAT_VERSION`` (2: ``pos_rest_bin`` added; 3: the
  dictionary carries ``jamo_key``), its guard ``check_version``,
  ``shard_of`` (doc id to shard), the shard paths, ``shard_nums``,
  ``docs_files`` (each shard's docstore files), ``read_doclens``,
  ``dictionary_files``/``read_dictionary`` (the global term table) and
  ``read_manifests``;
- per-shard jobs: ``run_per_shard``, the one task fan-out of the build's
  postings phase, compaction and merge;
- write: ``encode_segment`` and ``write_shard`` (build, compaction,
  merge), and ``write_docs_file``, the one docstore-file writer;
- rewrite: ``decode_segment``/``decode_columns`` (compaction, export)
  and ``shift_segment`` (merge);
- read: ``PostingStore``, the reader's posting lists, their positions
  and their cache. At open it reads only the reader's columns (not
  ``cf`` or ``block_last_doc``) and sorts every segment's rows by
  (term, segment), gathering each stream it reads into that order, so
  a term's cells are one row range and each of its streams one buffer
  slice.

Nothing here imports ray at module scope: ``query`` imports this module
and stays importable without ray.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from konlsearch_ray.codec import (BLOCK_SIZE, decode_postings,
                                  encode_postings_grouped, varint_decode,
                                  varint_encode_with_sizes)

# The layout version in stats.json, index_meta.json and every manifest.
FORMAT_VERSION = 3

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("doc_ids_bin", pa.large_binary()),
        ("tfs_bin", pa.large_binary()),
        ("pos_bin", pa.large_binary()),
        ("pos_rest_bin", pa.large_binary()),
        ("block_last_doc", pa.list_(pa.int64())),
        ("block_max_tf", pa.list_(pa.int32())),
    ]
)

# The global term table; its row groups stay small so a jamo-prefix
# range scan prunes them by their jamo_key min/max statistics.
DICTIONARY_SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64()),
                               ("cf", pa.int64()), ("jamo_key", pa.string())])
DICTIONARY_ROW_GROUP = 4096


# --- layout ---------------------------------------------------------------

def check_version(index_dir: str) -> None:
    """Raise ``ValueError`` unless every layout file of the index at
    ``index_dir`` (``index_meta.json``, ``stats.json``; either may be
    missing) records ``FORMAT_VERSION``: a reader must not open, and a
    writer must not add shards to, an index of another layout."""
    for name in ("index_meta.json", "stats.json"):
        path = os.path.join(index_dir, name)
        if os.path.exists(path):
            with open(path) as f:
                found = json.load(f).get("version")
            if found != FORMAT_VERSION:
                raise ValueError(
                    f"{path} records index layout version {found}, "
                    f"expected {FORMAT_VERSION}: rebuild the index")


def segment_path(index_dir: str, shard: int) -> str:
    return os.path.join(index_dir, "segments", f"shard-{shard:06d}.parquet")


def doclens_path(index_dir: str, shard: int) -> str:
    return os.path.join(index_dir, "doclens", f"shard-{shard:06d}.parquet")


def manifest_path(index_dir: str, shard: int) -> str:
    return os.path.join(index_dir, "manifests", f"shard-{shard:06d}.json")


def shard_nums(index_dir: str) -> list[int]:
    """Ascending numbers of the shards that have a segment; empty when
    there is no ``segments/`` (a zero-document index writes none)."""
    d = os.path.join(index_dir, "segments")
    if not os.path.isdir(d):
        return []
    return sorted(int(n[len("shard-"):-len(".parquet")])
                  for n in os.listdir(d)
                  if n.startswith("shard-") and n.endswith(".parquet"))


def shard_of(doc_id, shard_size: int):
    """The shard of a doc id (an int gives an int) or of each id of an
    array (numpy or Arrow gives an int64 array): ``(doc_id - 1) /
    shard_size`` truncated toward zero, so doc id 0 lives in shard 0.
    The build, append and the docstore all route ids by this rule."""
    n = np.asarray(doc_id, dtype=np.int64) - 1
    q = np.sign(n) * (np.abs(n) // shard_size)
    return q if q.ndim else int(q)


def docs_files(index_dir: str) -> dict[int, list[str]]:
    """Each docstore shard's files (``docs/shard=K/*.parquet``, in name
    order), by ascending shard number; a shard directory may hold none.
    Empty when there is no ``docs/``."""
    d = os.path.join(index_dir, "docs")
    out = {}
    for name in os.listdir(d) if os.path.isdir(d) else []:
        sub = os.path.join(d, name)
        if name.startswith("shard=") and os.path.isdir(sub):
            out[int(name[len("shard="):])] = [
                os.path.join(sub, f) for f in sorted(os.listdir(sub))
                if f.endswith(".parquet")]
    return dict(sorted(out.items()))


def run_per_shard(fn, items: list, *args) -> None:
    """Run ``fn(chunk, *args)`` over per-shard work ``items`` as plain
    Ray tasks and wait for them: ``P = min(len(items), cluster CPUs)``
    tasks, task ``i`` taking the strided chunk ``items[i::P]``. A chunk
    is the unit of per-task set-up (one analyzer per build task). An
    ObjectRef in ``args`` reaches each task resolved."""
    if not items:
        return
    import ray

    p = max(1, min(len(items), int(ray.cluster_resources().get("CPU", 1))))
    task = ray.remote(fn)
    ray.get([task.remote(items[i::p], *args) for i in range(p)])


def _read_tables(paths: list[str],
                 columns: list[str] | None = None) -> list[pa.Table]:
    # Parquet reads release the GIL: a thread pool keeps reader and
    # actor start-up from paying one serial read per shard file.
    with ThreadPoolExecutor(max_workers=8) as pool:
        return list(pool.map(
            lambda p: pq.read_table(p, columns=columns), paths))


def read_doclens(index_dir: str, shards: list[int]) -> pa.Table:
    """The shards' ``(doc_id, doc_len)`` rows, ascending by doc_id when
    ``shards`` ascend."""
    tables = _read_tables([doclens_path(index_dir, s) for s in shards])
    return pa.concat_tables(tables) if tables else pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "doc_len": pa.array([], pa.int64())})


def dictionary_files(index_dir: str) -> list[str]:
    """The global term table's files (``dictionary/*.parquet``, in name
    order); empty when there is no ``dictionary/``."""
    d = os.path.join(index_dir, "dictionary")
    return [os.path.join(d, n) for n in sorted(os.listdir(d))
            if n.endswith(".parquet")] if os.path.isdir(d) else []


def read_dictionary(index_dir: str, columns: list[str]) -> pa.Table:
    """The global term table's rows (``columns`` of
    ``DICTIONARY_SCHEMA``), typed and empty when the index has none."""
    tables = _read_tables(dictionary_files(index_dir), columns)
    return pa.concat_tables(tables) if tables else (
        DICTIONARY_SCHEMA.empty_table().select(columns))


def read_manifests(index_dir: str) -> list[dict]:
    """Every committed shard manifest, in shard order."""
    d = os.path.join(index_dir, "manifests")
    out = []
    for name in sorted(os.listdir(d)) if os.path.isdir(d) else []:
        if name.startswith("shard-") and name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                out.append(json.load(f))
    return out


def binary_view(col) -> tuple[np.ndarray, memoryview]:
    """Zero-copy ``(offsets, data)`` view of a binary or string column:
    row ``i`` is ``data[offsets[i]:offsets[i + 1]]``. Rows lie back to
    back in row order, so ``data[offsets[0]:offsets[-1]]`` is their
    concatenation — no per-row Python bytes objects."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.cast(pa.large_binary())
    bufs = col.buffers()  # [validity, offsets (int64), data]
    offs = np.frombuffer(bufs[1], dtype=np.int64,
                         count=len(col) + 1 + col.offset)[col.offset:]
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    return offs, data


def _concat(col) -> memoryview:
    offs, data = binary_view(col)
    return data[offs[0]:offs[-1]]


def _string_col_to_S(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Arrow string column → numpy fixed-width bytes (``"S"``) array
    WITHOUT materializing Python strings: the bytes scatter straight from
    the Arrow data buffer with numpy fancy indexing. memcmp over UTF-8
    equals code-point order, so searchsorted over the result agrees with
    the segment writer's term sort."""
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype="S1")
    offs, data = binary_view(col)
    data = np.frombuffer(data[offs[0]:offs[-1]], dtype=np.uint8)
    offs = offs - offs[0]
    lens = np.diff(offs)
    width = max(int(lens.max()), 1)
    out = np.zeros((n, width), dtype=np.uint8)
    total = int(offs[-1])
    if total:
        rows = np.repeat(np.arange(n, dtype=np.int64), lens)
        cols_idx = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], lens)
        out[rows, cols_idx] = data
    return out.ravel().view(f"S{width}")


# --- write ----------------------------------------------------------------

def _atomic_write_parquet(
    table: pa.Table, path: str, compression: str = "zstd",
    row_group_size: int | None = None,
) -> None:
    tmp = path + ".tmp"
    pq.write_table(table, tmp, compression=compression, use_dictionary=False,
                   row_group_size=row_group_size)
    os.replace(tmp, path)


def write_docs_file(t: pa.Table, path: str) -> int:
    """Write ``t`` as one docstore file at ``path``, atomically: sorted
    by doc_id, in 1,024-row groups, so point, multi and range reads
    prune to the groups whose doc_id [min, max] intersect. The bytes
    depend only on the rows, so a retried task rewrites the same file.
    Returns the row count."""
    t = t.sort_by("doc_id").combine_chunks()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    _atomic_write_parquet(t, path, row_group_size=1024)
    return t.num_rows


def _file_sha(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _blob_column(buf: bytes, sizes: np.ndarray,
                 counts: np.ndarray) -> pa.Array:
    """A large_binary column over one varint buffer, without copying it:
    row ``i`` holds the next ``counts[i]`` values, and ``sizes`` are the
    values' encoded byte lengths."""
    csizes = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    offsets = np.ascontiguousarray(
        csizes[np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))],
        dtype=np.int64)
    return pa.Array.from_buffers(
        pa.large_binary(), len(counts),
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(buf)])


def encode_segment(terms: pa.Array, starts: np.ndarray, doc_s: np.ndarray,
                   tf_s: np.ndarray, pos_s: np.ndarray,
                   pos_rest: np.ndarray) -> pa.Table:
    """A shard's posting entries, sorted by (term, doc_id), as one
    segment table. ``starts`` marks each term's first entry and ``terms``
    holds one string per term. ``pos_s`` is each entry's first position;
    ``pos_rest`` holds, entry after entry, its other ``tf - 1`` positions
    as gaps from the position before."""
    enc = encode_postings_grouped(starts, doc_s, tf_s, pos_s)
    n_rest = enc["cf"] - enc["df"]
    if len(pos_rest) != int(n_rest.sum()):
        raise ValueError(
            f"encode_segment: {len(pos_rest)} rest positions for "
            f"{int(n_rest.sum())} non-first occurrences")
    rest_buf, rest_nb = varint_encode_with_sizes(
        np.asarray(pos_rest, dtype=np.uint64))
    bl_off = pa.array(
        np.concatenate(([0], np.cumsum(enc["nblocks"]))), pa.int32())
    return pa.table(
        {
            "term": terms,
            "df": pa.array(enc["df"], pa.int64()),
            "cf": pa.array(enc["cf"], pa.int64()),
            "doc_ids_bin": _blob_column(*enc["doc_ids_bin"], enc["df"]),
            "tfs_bin": _blob_column(*enc["tfs_bin"], enc["df"]),
            "pos_bin": _blob_column(*enc["pos_bin"], enc["df"]),
            "pos_rest_bin": _blob_column(rest_buf, rest_nb, n_rest),
            "block_last_doc": pa.ListArray.from_arrays(
                bl_off, pa.array(enc["block_last_flat"], pa.int64())),
            "block_max_tf": pa.ListArray.from_arrays(
                bl_off, pa.array(enc["block_max_flat"], pa.int32())),
        },
        schema=SEGMENT_SCHEMA,
    )


def write_shard(index_dir: str, shard: int, seg: pa.Table,
                doclens: pa.Table) -> dict:
    """Atomically write one shard's segment and ``(doc_id, doc_len)``
    table, then its manifest — the shard's commit point: a shard without
    one is rebuilt on resume. Returns the manifest."""
    seg_path = segment_path(index_dir, shard)
    dl_path = doclens_path(index_dir, shard)
    mf_path = manifest_path(index_dir, shard)
    for p in (seg_path, dl_path, mf_path):
        os.makedirs(os.path.dirname(p), exist_ok=True)
    _atomic_write_parquet(seg, seg_path)
    _atomic_write_parquet(doclens, dl_path)
    manifest = {
        "shard": int(shard),
        "n_docs": doclens.num_rows,
        "n_terms": seg.num_rows,
        "total_tokens": int(pc.sum(doclens["doc_len"]).as_py() or 0),
        "segment_sha256": _file_sha(seg_path),
        "doclens_sha256": _file_sha(dl_path),
        "version": FORMAT_VERSION,
    }
    tmp = os.path.join(os.path.dirname(mf_path), f".shard-{shard:06d}.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, sort_keys=True)
    os.replace(tmp, mf_path)
    return manifest


# --- rewrite --------------------------------------------------------------

def decode_columns(positions: bool) -> list[str]:
    """The columns ``decode_segment`` reads; the position stream only
    when ``positions``."""
    return ["term", "df", "doc_ids_bin", "tfs_bin"] + (
        ["pos_bin"] if positions else [])


def decode_segment(seg: pa.Table):
    """Whole-table decode → ``(df, doc_ids, tfs, first_pos, rest_gaps)``:
    each row's df, then every row's postings concatenated in row order
    (int64 ids, int32 tfs, int64 first positions and rest gaps, the
    latter ``tf - 1`` per posting). ``first_pos``/``rest_gaps`` are None
    when the table has no ``pos_bin``/``pos_rest_bin`` column. One fused
    varint pass covers all the rows' doc-gap and tf streams
    (``codec.decode_postings``)."""
    df = seg["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    ids, tfs = decode_postings(_concat(seg["doc_ids_bin"]),
                               _concat(seg["tfs_bin"]), df)
    pos = rest = None
    if "pos_bin" in seg.column_names:
        pos = varint_decode(_concat(seg["pos_bin"]), len(ids)).view(np.int64)
    if "pos_rest_bin" in seg.column_names:
        rest = varint_decode(_concat(seg["pos_rest_bin"]),
                             int(tfs.sum()) - len(ids)).view(np.int64)
    return df, ids, tfs, pos, rest


def _shift_binary_firsts(col: pa.ChunkedArray, dfs: np.ndarray,
                         id_off: int) -> pa.Array:
    """Add ``id_off`` to the FIRST delta-gap of every term's varint blob
    (the absolute doc id; later gaps are shift-invariant), in ONE fused
    decode→shift→encode pass over the whole column: the per-term blobs
    concatenate into a single gap stream, the firsts sit at the
    df-prefix offsets, and the re-encoded stream slices back into
    per-term blobs by the per-value byte sizes."""
    total = int(dfs.sum())
    gaps = varint_decode(_concat(col), total)
    first_idx = np.concatenate(([0], np.cumsum(dfs)[:-1])).astype(np.int64)
    first_idx = first_idx[dfs > 0]
    gaps = gaps.astype(np.uint64)
    gaps[first_idx] += np.uint64(id_off)
    return _blob_column(*varint_encode_with_sizes(gaps), dfs)


def shift_segment(seg: pa.Table, id_off: int) -> pa.Table:
    """``seg`` with every doc id raised by ``id_off``. Only two spots hold
    absolute ids: each term's first ``doc_ids_bin`` gap and the
    ``block_last_doc`` lists; every other byte is shift-invariant."""
    dfs = seg["df"].to_numpy().astype(np.int64)
    seg = seg.set_column(
        seg.schema.get_field_index("doc_ids_bin"), "doc_ids_bin",
        _shift_binary_firsts(seg["doc_ids_bin"], dfs, id_off))
    bld = seg["block_last_doc"].combine_chunks()
    return seg.set_column(
        seg.schema.get_field_index("block_last_doc"), "block_last_doc",
        pa.ListArray.from_arrays(bld.offsets, pc.add(bld.values, id_off)))


# --- read -----------------------------------------------------------------

# The columns a reader reads: ``cf`` and ``block_last_doc`` serve the
# rewrites (the dictionary and merge's shift) only.
_STORE_COLUMNS = ["term", "df", "doc_ids_bin", "tfs_bin", "pos_bin",
                  "pos_rest_bin", "block_max_tf"]


def _row_bytes(view: tuple[np.ndarray, memoryview], spans) -> bytes:
    """The bytes of each row range in ``spans`` of a ``binary_view``,
    concatenated: rows lie back to back, so a range is one slice."""
    offs, data = view
    return b"".join([data[offs[r.start]:offs[r.stop]] for r in spans])


class _TermEntry:
    """Everything a store keeps for one queried term, in one place.

    ``locs`` is the term's range of the store's term-sorted rows (one
    row per (term, segment) cell, in segment order; empty when no segment
    holds the term); ``ids``/``tfs`` its live postings and ``live`` the
    mask that removed tombstoned entries from the stored ones (None when
    none was removed). ``maxtf``, the max of the live tfs (0 when there
    are none), is set at decode: it bounds every posting and is never
    looser than the stored block maxima. First positions (``pos``,
    PHRASE), every position (``allpos``, NEAR) and the per-block bounds
    (``bmax``/``bcount``) decode on first use. Bounds stay per stored
    block: ``bmax[b]`` is block b's max tf and ``bcount[b]`` its stored
    entry count, so ``np.repeat(x, bcount)`` followed by ``[live]``
    aligns a per-block value with the postings.

    ``imp`` and ``dimp`` are reader state kept on the store's entry; the
    store never reads them. ``imp`` is the term's unboosted BM25 impact of
    each live posting (float64, aligned with ``ids``):
    ``IndexReader._impacts`` fills it the first time BM25 scores the term,
    as the store fills ``bmax``. ``dimp`` is the same impacts scattered
    over the reader's doc-id window of W ids (float64, 0.0 where the term
    has no live posting), filled the first time the dense BM25 scorer
    (``IndexReader._bm25_dense``) scores the term. It takes 8·W bytes, and
    a term is scored densely only when W ≤ 8 × its live df, so at most
    64 B per live posting.
    """

    __slots__ = ("locs", "ids", "tfs", "live", "pos", "allpos", "bmax",
                 "bcount", "maxtf", "imp", "dimp")

    def __init__(self, locs, ids, tfs, live):
        self.locs, self.ids, self.tfs, self.live = locs, ids, tfs, live
        self.maxtf = int(tfs.max()) if len(tfs) else 0
        self.pos = self.allpos = self.bmax = self.bcount = None
        self.imp = self.dimp = None


class PostingStore:
    """The posting lists of a set of shard segments, decoded on demand and
    cached as one entry per queried term.

    At open the segments' reader columns (``_STORE_COLUMNS``) load in
    full, and their rows are sorted by (term bytes, segment): ``keys``
    holds the sorted term bytes, and each column the store reads is
    gathered into that order (``_column``). A term's cells are then one
    contiguous row range, and each of its streams one buffer slice: a
    query's cold terms cost one ``searchsorted`` pair in total and one
    slice per stream per term, however many shards hold them, and
    decode together in one fused pass (``entries``). ``dead`` holds
    tombstoned doc ids (sorted, unique), masked out of every entry.
    Block bounds are built only when asked (``bounds``).
    """

    def __init__(self, index_dir: str, shards: list[int], dead: np.ndarray):
        from konlsearch_ray.build import _parallel_argsort_s_parts

        tables = _read_tables([segment_path(index_dir, s) for s in shards],
                              columns=_STORE_COLUMNS)
        self._dead = dead
        self._terms: dict[str, _TermEntry] = {}
        # Empty segments add no key part and no rows: ``order`` indexes
        # the concatenated rows either way. The stable sort keeps
        # segment order within a term.
        keys, order = _parallel_argsort_s_parts(
            [_string_col_to_S(t["term"]) for t in tables])
        self.keys = keys[order]
        self._order = order.astype(np.int32)  # 4 B a cell
        # Rows in segment order; ``_column`` gathers a column into term
        # order on first use.
        self._rows = (pa.concat_tables(tables) if tables else
                      pa.schema([SEGMENT_SCHEMA.field(c) for c in
                                 _STORE_COLUMNS]).empty_table())
        self._df = self._rows["df"].to_numpy()[order]
        # Row i's postings are entries cdf[i]:cdf[i + 1] of the streams.
        self._cdf = np.concatenate(([0], np.cumsum(self._df)))
        self._docs = binary_view(self._column("doc_ids_bin"))
        self._tfs = binary_view(self._column("tfs_bin"))

    def _column(self, name: str) -> pa.ChunkedArray:
        """Column ``name`` in term order; its segment-order copy goes.
        Every decode reads the doc-gap and tf streams, so they are
        gathered at open; the position streams wait for a PHRASE or NEAR
        query and the block maxima for a block skip, so a reader that
        never runs them never gathers them."""
        col = self._rows[name].take(self._order)
        self._rows = self._rows.drop_columns([name])
        return col

    def _count(self, rows: range) -> int:
        """The stored postings of a range of rows."""
        return int(self._cdf[rows.stop] - self._cdf[rows.start])

    @property
    def term_column(self) -> pa.ChunkedArray:
        """Every (term, segment) cell's term, in segment order."""
        return self._rows["term"]

    @cached_property
    def _pos(self) -> tuple[np.ndarray, memoryview]:
        return binary_view(self._column("pos_bin"))

    @cached_property
    def _rest(self) -> tuple[np.ndarray, memoryview]:
        return binary_view(self._column("pos_rest_bin"))

    @cached_property
    def _bmax(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, flat values) of ``block_max_tf``: row ``i``'s blocks
        are ``vals[offs[i]:offs[i + 1]]``."""
        col = self._column("block_max_tf").combine_chunks()
        return (col.offsets.to_numpy().astype(np.int64),
                col.values.to_numpy(zero_copy_only=False))

    def entry(self, term: str) -> _TermEntry:
        """The term's cached entry; a cold term decodes here. (The warm
        lookup comes first: BM25's idf reaches here once per term.)"""
        e = self._terms.get(term)
        return e if e is not None else self.entries([term])[0]

    def entries(self, terms: list[str]) -> list[_TermEntry]:
        """The terms' cached entries, in ``terms`` order; the cold ones
        (repeats allowed) decode together here, in one batch:

        - ONE ``searchsorted`` pair over ``keys`` locates every cold
          term's row range (an empty term, or one longer than the
          longest stored term, gets none);
        - each term's doc-gap and tf bytes are one slice per stream, and
          all of them concatenate into ONE fused varint pass
          (``codec.decode_postings``): each cell's first gap is its
          absolute doc id, so the segmented cumsum resets at every
          cell, across shards and terms alike;
        - the decoded streams split back per term by the terms' df sums.

        A query's first touch of its terms, head terms spanning hundreds
        of shards included, costs one decode, not one per term or per
        shard. Positions are left for ``postings`` (first ones) and
        ``positions`` (all of them)."""
        cache = self._terms
        try:
            return [cache[t] for t in terms]
        except KeyError:  # a cold term
            pass
        self._decode([t for t in dict.fromkeys(terms) if t not in cache])
        return [cache[t] for t in terms]

    def _decode(self, cold: list[str]) -> None:
        """Decode and cache the entries of ``cold``: distinct, uncached."""
        keys = self.keys
        width = keys.dtype.itemsize
        tbs = [t.encode("utf-8") for t in cold]
        q = np.array(tbs, dtype=keys.dtype)  # an over-long term truncates
        lo = keys.searchsorted(q, side="left").tolist()
        hi = keys.searchsorted(q, side="right").tolist()
        spans = [range(a, b if 0 < len(tb) <= width else a)
                 for tb, a, b in zip(tbs, lo, hi)]
        # dfs: one per cell, so the cumsum resets per cell; ns: per term.
        ns = [self._count(r) for r in spans]
        dfs = np.concatenate([self._df[r.start:r.stop] for r in spans])
        ids, tf = decode_postings(_row_bytes(self._docs, spans),
                                  _row_bytes(self._tfs, spans), dfs)
        keep = None
        d = self._dead
        if len(d) and len(ids):
            # One probe per posting: ids repeat across the batch's terms,
            # which ``np.isin(..., assume_unique=True)`` would get wrong.
            # Probing d[:-1] lands past-the-end ids on d's last entry.
            keep = d[d[:-1].searchsorted(ids)] != ids
            if keep.all():
                keep = None
        end = 0
        for t, n, locs in zip(cold, ns, spans):
            start, end = end, end + n
            e_ids, e_tf, live = ids[start:end], tf[start:end], None
            if keep is not None:
                live = keep[start:end]
                if live.all():
                    live = None
                else:
                    e_ids, e_tf = e_ids[live], e_tf[live]
            self._terms[t] = _TermEntry(locs, e_ids, e_tf, live)

    def bounds(self, e: _TermEntry) -> _TermEntry:
        """Fill the entry's per-block bounds from its rows'
        ``block_max_tf`` lists (block b of a row's list holds BLOCK_SIZE
        entries, its last block the rest; an empty row has no blocks)."""
        if e.bmax is None:
            offs, vals = self._bmax
            r = e.locs
            nb = np.diff(offs[r.start:r.stop + 1])
            e.bmax = vals[offs[r.start]:offs[r.stop]].astype(np.int64)
            e.bcount = np.full(len(e.bmax), BLOCK_SIZE, dtype=np.int64)
            has = nb > 0
            e.bcount[np.cumsum(nb)[has] - 1] = (
                self._df[r.start:r.stop][has] - BLOCK_SIZE * (nb[has] - 1))
        return e

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """term → (doc_ids asc, tfs, first_positions)."""
        e = self.entry(term)
        if e.pos is None:
            pos = varint_decode(_row_bytes(self._pos, [e.locs]),
                                self._count(e.locs)).astype(np.int32)
            e.pos = pos if e.live is None else pos[e.live]
        return e.ids, e.tfs, e.pos

    def positions(self, terms: list[str]) -> list[np.ndarray]:
        """Every position of each term's live postings, in ``terms``
        order: posting ``i`` of the term's entry (``ids[i]``) owns the
        next ``tfs[i]`` values, ascending. Decoded on first use, all the
        cold terms together: one varint pass over their rows' first
        positions and stored tfs, one over their rest gaps; a segmented
        cumsum, reset at each posting's first position, turns the gaps
        into positions.
        The stored tfs split the rest stream: an entry's own tfs hold
        only the live postings when ``live`` is set."""
        es = self.entries(terms)
        cold = list({id(e): e for e in es if e.allpos is None}.values())
        if cold:
            spans = [e.locs for e in cold]
            ns = [self._count(r) for r in spans]
            n = sum(ns)
            vals = varint_decode(_row_bytes(self._pos, spans)
                                 + _row_bytes(self._tfs, spans),
                                 2 * n).view(np.int64)
            first, tf = vals[:n], vals[n:]
            # Posting i's occurrences are occ[i]:occ[i + 1].
            occ = np.concatenate(([0], np.cumsum(tf)))
            heads = occ[:-1]
            gaps = np.empty(occ[-1], dtype=np.int64)
            rest = np.ones(occ[-1], dtype=bool)
            rest[heads] = False
            gaps[heads] = first
            gaps[rest] = varint_decode(_row_bytes(self._rest, spans),
                                       occ[-1] - n)
            pos = np.cumsum(gaps)
            pos -= np.repeat(pos[heads] - first, tf)
            end = 0
            for e, k in zip(cold, ns):
                start, end = end, end + k
                p = pos[occ[start]:occ[end]]
                if e.live is not None:
                    p = p[np.repeat(e.live, tf[start:end])]
                e.allpos = p.astype(np.int32)
        return [e.allpos for e in es]
