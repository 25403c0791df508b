"""Query engine: Boolean search + BM25 top-k over immutable segments.

Read-only engine over the segment layout written by build.py — the
Ray-native replacement for the reference's query path (reference
inverted_index.py:98-116, index.py:413-444 — SURVEY.md §3.2):

- ``search(tokens, AND|OR)`` — union / intersection over decoded
  posting lists, ascending doc-ID result (reference semantics, including
  "empty first posting ⇒ empty AND result", which plain intersection
  reproduces). AND probes the shorter sorted list into the longer with
  ``searchsorted``; nothing is re-sorted.
- ``search(tokens, PHRASE)`` — AND result filtered by the reference's
  first-occurrence monotonicity quirk (reference index.py:443-444,
  utility.py:25-26 — SURVEY.md Q5) using the stored first-occurrence
  positions; no re-tokenization needed.
- ``search_complex(tree)`` — recursive binary AND/OR evaluation
  (reference index.py:72-77, 413-429).
- ``bm25_topk(tokens, k)`` — extension spec'd in oracle.py (k1=1.2,
  b=0.75, always-positive idf, dedup'd query terms, ties by ascending
  doc_id). Scoring is fully vectorized numpy over decoded postings; the
  stored block-max metadata enables block-skip pruning
  (``bm25_topk(..., prune=True)``) once a top-k threshold is known.

Scale model: one ``IndexReader`` per query actor. Shards are doc-ID
ranges, so per-term shard posting lists concatenate (in shard order) into
the globally sorted posting list — the distributed layout costs no merge
logic. On a real cluster each actor would own a subset of shards and a
scatter-gather layer would merge per-shard top-k; in this single-node
build an actor loads all (test-scale) segments once in ``__init__`` and
serves batches of queries via ``map_batches`` (SURVEY.md ST5). Hit ids
stay sorted unique int64 arrays inside the reader — each id-returning
public method is one ``.tolist()`` over a private array method
(``_search_ids``, ``_eval``, ``_min_should_ids``, ``_near_ids``) — and
the scatter-gather actors serve those array methods, so ids become
Python ints only at the public edge.
"""

from __future__ import annotations

import json
import math
import os
import sys
from enum import Enum

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from konlsearch_ray.analyzer import normalize_query_tokens
from konlsearch_ray.codec import BLOCK_SIZE, decode_postings, varint_decode

K1 = 1.2
B = 0.75


def _string_col_to_S(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Arrow string column → numpy fixed-width bytes (``"S"``) array
    WITHOUT materializing Python strings: the bytes scatter straight from
    the Arrow data buffer with numpy fancy indexing. memcmp over UTF-8
    equals code-point order, so searchsorted over the result agrees with
    the segment writer's term sort."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    arr = col.cast(pa.large_binary())
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype="S1")
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int64,
                         count=n + 1 + arr.offset)[arr.offset:]
    start, end = int(offs[0]), int(offs[-1])
    data = (np.frombuffer(bufs[2], dtype=np.uint8, count=end)[start:]
            if bufs[2] is not None and end > start
            else np.zeros(0, np.uint8))
    offs = (offs - start).astype(np.int64)
    lens = np.diff(offs)
    width = max(int(lens.max()) if n else 1, 1)
    out = np.zeros((n, width), dtype=np.uint8)
    total = int(offs[-1])
    if total:
        rows = np.repeat(np.arange(n, dtype=np.int64), lens)
        cols_idx = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], lens)
        out[rows, cols_idx] = data
    return out.ravel().view(f"S{width}")


def _read_dictionary(index_dir: str) -> pa.Table:
    """The global ``dictionary/`` (term, df) table — ONE loader shared
    by the reader's global-df init and the spell suggester so the file
    walk / projection / concat logic lives in one place."""
    d = os.path.join(index_dir, "dictionary")
    parts = [
        pq.read_table(os.path.join(d, n), columns=["term", "df"])
        for n in (sorted(os.listdir(d)) if os.path.isdir(d) else [])
        if n.endswith(".parquet")
    ]
    if not parts:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64())})
    return pa.concat_tables(parts)


def _prefix_upper(pb: bytes) -> bytes | None:
    """Smallest byte string greater than every string with prefix ``pb``
    (big-endian increment with 0xFF carry); None when no upper bound
    exists (all-0xFF prefix — every longer string matches)."""
    b = bytearray(pb)
    while b:
        if b[-1] < 0xFF:
            b[-1] += 1
            return bytes(b)
        b.pop()
    return None


_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


def _in_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``a`` present in the sorted array ``b``: one
    binary-search probe per entry of ``a``. Probing ``b[:-1]`` lands
    past-the-end probes on b's last entry, so the position needs no
    clamp."""
    if not len(b):
        return np.zeros(len(a), dtype=bool)
    return b[b[:-1].searchsorted(a)] == a


def _intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique id arrays, sorted: the shorter
    probes the longer, so the cost is short·log(long) with no sort
    (``np.intersect1d`` sorts the concatenation of both)."""
    if len(a) > len(b):
        a, b = b, a
    return a[_in_sorted(a, b)]


# Fan the NEAR positional recheck out as Ray tasks once the AND
# candidate set is this large; below it, driver-inline numpy wins on
# task round-trips. Chunks adapt between a floor (don't slice a small
# set into sub-batches smaller than one task's overhead amortizes —
# measured: 128-id chunks run a 2.5k-candidate head query 7.3× faster
# than inline, 0.11 s vs 0.79 s on a 147k-doc code corpus) and a task
# cap (a 100 TB-scale candidate set must not explode into unbounded
# task counts; 256 tasks saturate any single node and stay cheap to
# schedule on a cluster).
NEAR_FANOUT_MIN_CANDIDATES = 512
NEAR_FANOUT_CHUNK_MIN = 128
NEAR_FANOUT_MAX_TASKS = 256

# Facet counts above this hit-set size stop pushing an `isin(ids)`
# predicate into the Parquet read (the filter expression itself scales
# with the hit set) and instead stream the docstore as a Dataset with
# the sorted ids broadcast once — see IndexReader.facet_counts.
FACET_SCAN_MIN_HITS = 50_000


def _empty_facets(ftype: "pa.DataType | None" = None) -> pa.Table:
    return pa.table({"facet": pa.array([], ftype or pa.string()),
                     "n": pa.array([], pa.int64())})


def _named_facet_n(g: pa.Table) -> pa.Table:
    """Normalize a one-aggregate group_by output to (facet, n) by NAME
    (the aggregate column's generated name varies by kernel/version)."""
    n_name = [c for c in g.column_names if c != "facet"][0]
    return pa.table({"facet": g["facet"],
                     "n": pc.cast(g[n_name], pa.int64())})


def _fold_facet_counts(vals) -> pa.Table:
    """(facet, n) value counts of an Arrow (chunked) array, keeping the
    null group (SQL GROUP BY semantics) and the array's own type — the
    ONE fold shared by every facet path so they cannot diverge."""
    return _named_facet_n(
        pa.table({"facet": vals}).group_by("facet")
        .aggregate([([], "count_all")]))


def _sort_facets(t: pa.Table, k: int) -> pa.Table:
    """The facet output contract: (n desc, facet asc, nulls last),
    top ``k`` when k > 0."""
    order = pc.sort_indices(t, sort_keys=[("n", "descending"),
                                          ("facet", "ascending")])
    t = t.take(order)
    if k > 0:
        t = t.slice(0, k)
    return t.combine_chunks()


def _near_recheck(doc_ids: np.ndarray, contents, seq: list[str],
                  tset: list[str], slop: int, ordered: bool,
                  analyzer) -> np.ndarray:
    """Positional recheck over a batch of candidate docs: re-tokenize
    ``contents`` (tokenization is a pure function of content, so the
    streams equal what was indexed) and keep the docs where some window
    of ``slop + 1`` positions holds every term of ``tset`` (or, with
    ``ordered``, where ``seq`` appears in order within span ≤ slop).
    Pure function of its arguments — each candidate chunk rechecks
    independently, which is what lets search_near fan out. Ascending
    int64 doc ids (input doc_ids are ascending and only filtered here)."""
    # Occurrences come back INTEGER-CODED (Arrow dictionary_encode in
    # C) and filter by an int isin against the few query-term codes —
    # the object-dtype term filtering this replaces dominated NEAR
    # latency at head-term candidate counts.
    if analyzer is None:
        from konlsearch_ray.analyzer import analyze_strings_coded

        doc_idx, codes, pos, dictionary = analyze_strings_coded(contents)
    else:
        from konlsearch_ray.analyzer import _coded_from_token_lists

        doc_idx, codes, pos, dictionary = _coded_from_token_lists(
            analyzer.tokenize_many(contents.to_pylist()))
    qcode_arr = pc.index_in(pa.array(tset, pa.string()),
                            value_set=dictionary)
    qcodes = {t: c for t, c in zip(tset, qcode_arr.to_pylist())}
    if any(c is None for c in qcodes.values()):
        return doc_ids[:0]  # some query term has no occurrence in candidates
    keep = np.isin(codes, np.fromiter(qcodes.values(), dtype=np.int64))
    doc_idx, codes, pos = doc_idx[keep], codes[keep], pos[keep]
    if not len(doc_idx):
        return doc_ids[:0]
    # Doc-scoped positions → one global coordinate so the whole
    # candidate set checks in k·O(n log n) flat-array passes; the
    # stride keeps windows from crossing doc boundaries.
    stride = int(pos.max()) + slop + 2
    g = doc_idx * stride + pos.astype(np.int64)
    order = np.argsort(g, kind="stable")
    g, doc_idx, codes = g[order], doc_idx[order], codes[order]
    if ordered:
        # Greedy chain: from each first-term anchor, hop to the
        # earliest strictly-later occurrence of each next term.
        sentinel = np.iinfo(np.int64).max // 2  # "no next occurrence"
        first = codes == qcodes[seq[0]]
        anchors = g[first]
        anchor_docs = doc_idx[first]
        cur = anchors
        for t in seq[1:]:
            pos_t = g[codes == qcodes[t]]
            idx = np.searchsorted(pos_t, cur, side="right")
            nxt = np.append(pos_t, sentinel)
            cur = nxt[np.minimum(idx, len(pos_t))]
        ok = (cur - anchors) <= slop
        return doc_ids[np.unique(anchor_docs[ok])]
    ok = np.ones(len(g), dtype=bool)
    for t in tset:
        pos_t = g[codes == qcodes[t]]  # sorted (slice of a sorted array)
        lo = np.searchsorted(pos_t, g, side="left")
        hi = np.searchsorted(pos_t, g + slop, side="right")
        ok &= lo < hi
    return doc_ids[np.unique(doc_idx[ok])]


def _near_recheck_chunk(index_dir: str, cand: np.ndarray, seq: list[str],
                        tset: list[str], slop: int, ordered: bool,
                        analyzer, store=None, meta=None,
                        dead=None) -> np.ndarray:
    """One fan-out unit of the NEAR recheck: shard-pruned column-pruned
    multi-get of this chunk's candidates, then the pure recheck. The
    inline path calls it too (with its cached ``store``) so the fetch
    contract lives in exactly one place; fan-out tasks get the small
    ``meta`` dict and the tombstone array shipped from the driver
    (``dead`` rides an ObjectRef put once per reader) instead of
    re-reading both from disk per task."""
    if store is None:
        from konlsearch_ray.docstore import DocStore

        store = DocStore(index_dir, _meta=meta, _dead=dead)
    content_col = store.meta.get("content_col", "content")
    tbl = store.get_multi(cand, columns=["doc_id", content_col])
    return _near_recheck(tbl["doc_id"].to_numpy(), tbl[content_col],
                         seq, tset, slop, ordered, analyzer)


_NEAR_CHUNK_REMOTE = None


def _near_chunk_remote():
    """Lazy ``ray.remote`` wrapper around ``_near_recheck_chunk`` —
    query.py stays importable without ray (module-scope imports here
    are stdlib + arrow + numpy only, by design)."""
    global _NEAR_CHUNK_REMOTE
    if _NEAR_CHUNK_REMOTE is None:
        import ray

        _NEAR_CHUNK_REMOTE = ray.remote(_near_recheck_chunk)
    return _NEAR_CHUNK_REMOTE


class _TermEntry:
    """Everything a reader keeps for one queried term, in one place.

    ``locs`` are the term's (segment, row) cells; ``ids``/``tfs`` its live
    postings and ``live`` the mask that removed tombstoned entries from
    the stored ones (None when none was removed). Positions (``pos``) and
    the block-max bounds (``bmax``/``bcount``/``maxtf``) decode on first
    use. Bounds stay per stored block: ``bmax[b]`` is block b's max tf and
    ``bcount[b]`` its stored entry count, so ``np.repeat(x, bcount)``
    followed by ``[live]`` aligns a per-block value with the postings.
    """

    __slots__ = ("locs", "ids", "tfs", "live", "pos", "bmax", "bcount",
                 "maxtf")

    def __init__(self, locs, ids, tfs, live):
        self.locs, self.ids, self.tfs, self.live = locs, ids, tfs, live
        self.pos = self.bmax = self.bcount = self.maxtf = None


class SearchMode(str, Enum):
    AND = "AND"
    OR = "OR"
    PHRASE = "PHRASE"


class IndexReader:
    """Loads stats + doclens eagerly, posting lists lazily (cached)."""

    def __init__(self, index_dir: str, log_dir: str | None = None,
                 shards: list[int] | None = None,
                 use_global_df: bool = False):
        """``shards``: restrict to a subset of shard segments — the
        scatter-gather layer gives each query actor its own subset (each
        doc lives in exactly one shard, so per-doc BM25 scores are
        complete within an actor). ``use_global_df=True`` loads per-term
        global df from ``dictionary/`` so idf matches the whole-index
        reader exactly (local df would skew scores)."""
        self.index_dir = index_dir
        self.shards = set(shards) if shards is not None else None
        # Optional search-token log (reference log.py; Q7: only tokens
        # with non-empty postings are logged).
        if log_dir is not None:
            from konlsearch_ray.pipelines.logagg import SearchLog

            self.search_log = SearchLog(log_dir)
        else:
            self.search_log = None
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self.n_docs = int(self.stats["N"])
        self.avgdl = float(self.stats["avgdl"]) or 1.0

        def _want(fname: str) -> bool:
            if self.shards is None:
                return True
            return int(fname[len("shard-"):-len(".parquet")]) in self.shards

        # Shard files load through a thread pool (parquet reads release
        # the GIL) — reader/actor startup is dominated by this IO, and a
        # serial loop over hundreds of shard files made every query actor
        # pay seconds of init.
        from concurrent.futures import ThreadPoolExecutor

        dl_dir = os.path.join(index_dir, "doclens")
        dl_files = [
            os.path.join(dl_dir, n)
            for n in (sorted(os.listdir(dl_dir))
                      if os.path.isdir(dl_dir) else [])
            if n.endswith(".parquet") and _want(n)
        ]
        seg_dir = os.path.join(index_dir, "segments")
        seg_files = [
            os.path.join(seg_dir, n)
            for n in (sorted(os.listdir(seg_dir))
                      if os.path.isdir(seg_dir) else [])
            if n.endswith(".parquet") and _want(n)
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            dl_tables = list(pool.map(pq.read_table, dl_files))
            seg_tables = list(pool.map(pq.read_table, seg_files))
        dl = pa.concat_tables(dl_tables) if dl_tables else pa.table(
            {"doc_id": pa.array([], pa.int64()), "doc_len": pa.array([], pa.int64())})
        self._dl_docs = dl["doc_id"].to_numpy()  # ascending across shards
        self._dl_vals = dl["doc_len"].to_numpy().astype(np.float64)
        # Dense fast path: build-assigned ids are 1-based consecutive, so
        # doc_len is a direct index (doc_id - first) — no binary search
        # per scoring batch. Falls back to searchsorted for shard-subset
        # readers / post-compaction gaps.
        n_dl = len(self._dl_docs)
        self._dl_dense = bool(
            n_dl and int(self._dl_docs[-1]) - int(self._dl_docs[0]) == n_dl - 1)
        self._dl_first = int(self._dl_docs[0]) if n_dl else 0

        # Per-shard segment tables (term-sorted), loaded once. Term
        # resolution goes through ONE global sorted (term bytes, segment,
        # row) index: a cold term costs two binary searches TOTAL instead
        # of one numpy searchsorted call per segment (~25 us of dispatch
        # overhead each — 95 segments made every cold term pay ~2.4 ms,
        # the dominant serving cost for rare terms). Total bytes equal
        # the per-segment sorted arrays this replaces (zero Python
        # objects per term, same as before); the sort is the parallel
        # chunked argsort, so init stays IO-dominated.
        self._segments = [(t,) for t in seg_tables]
        nz = [(i, p) for i, p in
              ((i, _string_col_to_S(t["term"]))
               for i, t in enumerate(seg_tables)) if len(p)]
        if nz:
            from konlsearch_ray.build import _parallel_argsort_s_parts

            keys, order = _parallel_argsort_s_parts([p for _, p in nz])
            seg_i = np.concatenate(
                [np.full(len(p), i, np.int32) for i, p in nz])
            row_i = np.concatenate(
                [np.arange(len(p), dtype=np.int32) for _, p in nz])
            self._vocab = (keys[order], seg_i[order], row_i[order])
        else:
            self._vocab = (np.zeros(0, "S1"), np.zeros(0, np.int32),
                           np.zeros(0, np.int32))

        # Global df: sorted term bytes + aligned df values (probed with
        # searchsorted, memoized) — same no-Python-dict rationale.
        self._global_df: tuple[np.ndarray, np.ndarray] | None = None
        self._gdf_memo: dict[str, int] = {}
        if use_global_df:
            dt = _read_dictionary(index_dir)
            if dt.num_rows:
                terms_s = _string_col_to_S(dt["term"])
                order = np.argsort(terms_s, kind="stable")
                dfs = dt["df"].to_numpy(zero_copy_only=False).astype(np.int64)
                self._global_df = (terms_s[order], dfs[order])
        self._terms: dict[str, _TermEntry] = {}  # one entry per term
        # Per-(segment, column) zero-copy views (offsets + data buffer /
        # flat values), built lazily once per segment: per-term cell
        # access is then a pure buffer slice — no per-cell .as_py()
        # Python-object materialization on the serving path.
        self._segbin_cache: dict[tuple[int, str], tuple] = {}
        self._seglist_cache: dict[tuple[int, str], tuple] = {}
        self._segdf_cache: dict[int, np.ndarray] = {}

        # Tombstones: deleted docs are masked out of every posting list at
        # decode time; collection stats are recomputed over live docs so
        # BM25 reflects deletions immediately (segment rewrite happens
        # lazily via tombstone.compact_index — SURVEY.md SO5).
        from konlsearch_ray.tombstone import load_tombstones

        self._dead = load_tombstones(index_dir)
        if len(self._dead):
            if self.shards is None:
                g_docs, g_vals = self._dl_docs, self._dl_vals
            else:
                # Shard-subset reader: collection stats must stay GLOBAL
                # for idf/avgdl to match the whole-index reader; read every
                # shard's (small) doclens just for the stats.
                tables = [
                    pq.read_table(os.path.join(dl_dir, n))
                    for n in sorted(os.listdir(dl_dir))
                    if n.endswith(".parquet")
                ]
                g = pa.concat_tables(tables)
                g_docs = g["doc_id"].to_numpy()
                g_vals = g["doc_len"].to_numpy().astype(np.float64)
            live = ~np.isin(g_docs, self._dead, assume_unique=True)
            self.n_docs = int(live.sum())
            live_tokens = float(g_vals[live].sum())
            self.avgdl = (live_tokens / self.n_docs) if self.n_docs else 1.0
        self._min_dl = float(self._dl_vals.min()) if len(self._dl_vals) else 1.0

    def sample_terms(self, n: int) -> list[str]:
        """First ``n`` stored terms in segment order — bench/test helper
        (term enumeration is not a serving-path operation)."""
        out: list[str] = []
        for (tab,) in self._segments:
            col = tab["term"]
            take = min(n - len(out), len(col))
            out.extend(col.slice(0, take).to_pylist())
            if len(out) >= n:
                break
        return out

    # --- posting access -------------------------------------------------
    def _seg_bin(self, si: int, name: str) -> tuple[np.ndarray, memoryview]:
        """(absolute offsets, data buffer) of a binary segment column —
        cell ``i`` is ``data[offs[i]:offs[i+1]]``, a zero-copy slice."""
        hit = self._segbin_cache.get((si, name))
        if hit is None:
            col = self._segments[si][0][name]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            col = col.cast(pa.large_binary())
            bufs = col.buffers()
            offs = np.frombuffer(bufs[1], np.int64,
                                 count=len(col) + 1 + col.offset)[col.offset:]
            data = (memoryview(bufs[2]) if bufs[2] is not None
                    else memoryview(b""))
            hit = (offs, data)
            self._segbin_cache[(si, name)] = hit
        return hit

    def _seg_list(self, si: int, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, flat values) of a list-typed segment column — cell
        ``i`` is ``vals[offs[i]:offs[i+1]]``, a numpy view."""
        hit = self._seglist_cache.get((si, name))
        if hit is None:
            col = self._segments[si][0][name]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            vals = col.values.to_numpy(zero_copy_only=False)
            hit = (offs, vals)
            self._seglist_cache[(si, name)] = hit
        return hit

    def _seg_df(self, si: int) -> np.ndarray:
        hit = self._segdf_cache.get(si)
        if hit is None:
            hit = self._segments[si][0]["df"].to_numpy(zero_copy_only=False)
            self._segdf_cache[si] = hit
        return hit

    def _locate(self, term: str) -> list[tuple[int, int]]:
        """term → [(segment_idx, row), ...] ascending by segment, via TWO
        binary searches over the global sorted (term, segment, row) index
        (the result is kept in the term's entry — the queried vocabulary
        is tiny next to the stored one, while init never touches Python
        objects). The previous one-searchsorted-per-segment probe paid
        ~25 us of numpy dispatch per segment: ~2.4 ms per cold term on a
        95-shard index — the dominant rare-term serving cost."""
        tb = term.encode("utf-8")
        keys, seg_i, row_i = self._vocab
        if not len(keys) or len(tb) > keys.dtype.itemsize:
            return []  # longer than the longest stored term
        i0 = int(np.searchsorted(keys, tb, side="left"))
        i1 = int(np.searchsorted(keys, tb, side="right"))
        # stable sort preserved concat order -> ascending segment
        return list(zip(seg_i[i0:i1].tolist(), row_i[i0:i1].tolist()))

    def _entry(self, term: str) -> _TermEntry:
        """The term's cached entry; a cold term decodes here.

        A term's per-shard sub-lists decode in ONE fused pass
        (``codec.decode_postings``): the doc-gap and tf blobs concatenate
        into one varint stream, and the delta-gap cumsum resets at each
        shard boundary (each sub-list's first gap is its absolute doc
        id). A head term spanning hundreds of shards costs one decode,
        not one per shard. Positions are left for ``postings``."""
        e = self._terms.get(term)
        if e is not None:
            return e
        locs = self._locate(term)
        docs, tfs, dfs = [], [], []
        for si, i in locs:
            dfs.append(self._seg_df(si)[i])
            offs, data = self._seg_bin(si, "doc_ids_bin")
            docs.append(data[offs[i]:offs[i + 1]])
            offs, data = self._seg_bin(si, "tfs_bin")
            tfs.append(data[offs[i]:offs[i + 1]])
        ids, tf = decode_postings(b"".join(docs), b"".join(tfs), dfs)
        live = None
        if len(self._dead) and len(ids):
            keep = ~np.isin(ids, self._dead, assume_unique=True)
            if not keep.all():
                live = keep
                ids, tf = ids[keep], tf[keep]
        e = self._terms[term] = _TermEntry(locs, ids, tf, live)
        return e

    def _bounds(self, e: _TermEntry) -> _TermEntry:
        """Fill the entry's per-block bounds from the segments'
        ``block_max_tf`` lists (block b of a sub-list holds BLOCK_SIZE
        entries, its last block the rest)."""
        if e.bmax is None:
            maxes, counts = [], []
            for si, i in e.locs:
                offs, vals = self._seg_list(si, "block_max_tf")
                m = vals[offs[i]:offs[i + 1]]
                if not len(m):
                    continue  # an empty sub-list has no blocks
                maxes.append(m)
                counts += [BLOCK_SIZE] * (len(m) - 1)
                counts.append(int(self._seg_df(si)[i])
                              - BLOCK_SIZE * (len(m) - 1))
            e.bmax = (np.concatenate(maxes, dtype=np.int64) if maxes
                      else np.zeros(0, dtype=np.int64))
            e.bcount = np.array(counts, dtype=np.int64)
            e.maxtf = int(e.bmax.max()) if len(e.bmax) else 0
        return e

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """term → (doc_ids asc, tfs, first_positions)."""
        e = self._entry(term)
        if e.pos is None:
            blobs, n = [], 0
            for si, i in e.locs:
                n += int(self._seg_df(si)[i])
                offs, data = self._seg_bin(si, "pos_bin")
                blobs.append(data[offs[i]:offs[i + 1]])
            pos = varint_decode(b"".join(blobs), n).astype(np.int32)
            e.pos = pos if e.live is None else pos[e.live]
        return e.ids, e.tfs, e.pos

    def postings_scores(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """term → (doc_ids asc, tfs) WITHOUT the position stream —
        Boolean and BM25 paths never touch positions, so their decode is
        deferred until a PHRASE query asks (``postings``)."""
        e = self._entry(term)
        return e.ids, e.tfs

    def df(self, term: str) -> int:
        return len(self._entry(term).ids)

    def block_upper_tf(self, term: str) -> np.ndarray:
        """Per-posting-entry block-max tf, aligned with ``postings_scores``.

        Entry ``i`` of term's posting list gets the max tf of the
        BLOCK_SIZE-entry block it belongs to (within its shard segment).
        The reader keeps one value per block; this expands it on demand.
        """
        e = self._bounds(self._entry(term))
        out = np.repeat(e.bmax, e.bcount)
        return out if e.live is None else out[e.live]

    def doc_len(self, doc_ids: np.ndarray) -> np.ndarray:
        if self._dl_dense:
            return self._dl_vals[doc_ids - self._dl_first]
        pos = np.searchsorted(self._dl_docs, doc_ids)
        return self._dl_vals[pos]

    # --- Boolean search -------------------------------------------------
    # Every id-returning method is a ``.tolist()`` over a private method
    # that returns a sorted unique int64 array; internal callers and the
    # scatter-gather actors use the array methods directly.
    def search(self, tokens: list[str], mode: SearchMode | str = SearchMode.AND) -> list[int]:
        return self._search_ids(tokens, mode).tolist()

    def _search_ids(self, tokens: list[str],
                    mode: SearchMode | str = SearchMode.AND) -> np.ndarray:
        """Boolean/PHRASE hits as a sorted int64 array (may be a cached
        posting array: read-only by contract)."""
        mode = SearchMode(mode)
        toks = normalize_query_tokens(tokens)
        if mode is SearchMode.PHRASE:
            return self._phrase(toks)
        parts = []
        for t in toks:
            ids = self.postings_scores(t)[0]
            if self.search_log is not None and len(ids):
                self.search_log.log(t, len(ids))
            parts.append(ids)
        if not parts:
            return _NO_IDS
        if mode is SearchMode.OR and len(parts) > 1:
            return np.unique(np.concatenate(parts))
        # AND: intersect from the shortest list up, so every probe set
        # is at most the running result.
        parts.sort(key=len)
        result = parts[0]
        for ids in parts[1:]:
            result = _intersect(result, ids)
        return result

    def _phrase(self, toks: list[str]) -> np.ndarray:
        cand = self._search_ids(toks, SearchMode.AND)
        if len(cand) == 0 or not toks:
            return cand
        # Gather each term's first-occurrence position for the candidates
        # and keep docs where positions are non-decreasing in query order.
        ok = np.ones(len(cand), dtype=bool)
        prev = None
        for t in toks:
            ids, _, pos = self.postings(t)
            cur = pos[np.searchsorted(ids, cand)].astype(np.int64)
            if prev is not None:
                ok &= prev <= cur
            prev = cur
        return cand[ok]

    def search_min_should(self, tokens: list[str], m: int) -> list[int]:
        """Docs matching at least ``m`` DISTINCT query terms (Lucene
        ``minimum_should_match``): OR with a match-count threshold —
        ``m=1`` is OR, ``m=len(terms)`` is AND, anything between is the
        recall/precision dial neither reaches. Ascending doc ids.

        Query terms dedup (a repeated term must not double-count a
        match). Per-term posting lists hold unique doc ids, so the
        match count per doc is one ``np.unique(return_counts=True)``
        over the concatenated postings — no per-doc Python.
        """
        return self._min_should_ids(tokens, m).tolist()

    def _min_should_ids(self, tokens: list[str], m: int) -> np.ndarray:
        """Array form of :meth:`search_min_should`."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        toks = sorted(set(normalize_query_tokens(tokens)))
        if not toks or m > len(toks):
            return _NO_IDS
        parts = []
        for t in toks:
            ids = self.postings_scores(t)[0]
            if self.search_log is not None and len(ids):
                self.search_log.log(t, len(ids))
            parts.append(ids)
        vals, counts = np.unique(np.concatenate(parts), return_counts=True)
        return vals[counts >= m]

    def expand_prefix(self, prefix: str, limit: int = 64) -> list[str]:
        """Distinct stored terms starting with ``prefix``, bytewise
        (= codepoint) lexicographic order, capped at ``limit``.

        Wildcard/prefix term expansion (``pre*``) over the SAME global
        sorted term index the posting lookup uses — one range locate
        (two binary searches) + a slice, so cost is proportional to the
        match range, never the vocabulary. The cap bounds worst-case
        wildcard explosion (``a*`` over a 10^9-term vocab); when it
        binds, the lexicographically smallest ``limit`` terms win
        (deterministic). The prefix goes through the query normalizer,
        so ``Tab`` expands the same terms as ``tab``.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        norm = normalize_query_tokens([prefix])
        if not norm:
            return []
        pb = norm[0].encode("utf-8")
        keys = self._vocab[0]
        if not len(keys) or len(pb) > keys.dtype.itemsize:
            return []
        i0 = int(np.searchsorted(keys, pb, side="left"))
        ub = _prefix_upper(pb)
        i1 = (int(np.searchsorted(keys, ub, side="left"))
              if ub is not None else len(keys))
        if i0 >= i1:
            return []
        # The vocab repeats a term once per segment holding it; unique
        # over the (already sorted) range dedups without re-sorting.
        uniq = np.unique(keys[i0:i1])
        return [t.decode("utf-8") for t in uniq[:limit].tolist()]

    def search_prefix(self, prefix: str, limit: int = 64) -> list[int]:
        """Docs containing ANY term that starts with ``prefix`` —
        wildcard search as expansion + OR over the expanded terms.
        Ascending doc ids, same contract as :meth:`search`."""
        return self._search_ids(self.expand_prefix(prefix, limit=limit),
                                SearchMode.OR).tolist()

    def expand_match(self, pattern: str, *, regex: bool = False,
                     limit: int = 64) -> list[str]:
        """Distinct stored terms containing substring ``pattern`` (or,
        with ``regex=True``, matching the RE2 pattern anywhere — anchor
        with ``^``/``$`` for full-term match), sorted, capped.

        Infix/regex wildcards can't use the sorted-range trick prefix
        expansion uses, so this is the Lucene-style fallback: a full
        vocabulary scan — but vectorized, not per-term Python. Each
        segment's ``term`` column is already an Arrow string column, so
        the scan is one zero-copy :func:`pyarrow.compute` RE2 kernel per
        segment; cost is proportional to VOCABULARY size (terms × avg
        term bytes), never corpus size, and in the sharded engine each
        actor scans only its own shards, so wall-time divides by the
        actor count. Substrings go through the query normalizer (terms
        are stored sanitized/lowercased); regex patterns are used as
        given against the lowercase term strings.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        import pyarrow.compute as pc

        if regex:
            pat = pattern
        else:
            norm = normalize_query_tokens([pattern])
            if not norm:
                return []
            pat = norm[0]
        matched: set[str] = set()
        for (t,) in self._segments:
            col = t["term"]
            if not len(col):
                continue
            mask = (pc.match_substring_regex(col, pat) if regex
                    else pc.match_substring(col, pat))
            hits = pc.unique(col.filter(mask))
            if len(hits):
                matched.update(hits.to_pylist())
        return sorted(matched)[:limit]

    def search_contains(self, substring: str, limit: int = 64) -> list[int]:
        """Docs containing ANY term with ``substring`` anywhere in it
        (``*sub*`` wildcard) — vocabulary scan + OR. Ascending doc ids."""
        return self._search_ids(
            self.expand_match(substring, regex=False, limit=limit),
            SearchMode.OR).tolist()

    def search_regex(self, pattern: str, limit: int = 64) -> list[int]:
        """Docs containing ANY term matching the RE2 ``pattern``
        (unanchored, same partial-match semantics as DuckDB's
        ``regexp_matches``) — vocabulary scan + OR. Ascending doc ids."""
        return self._search_ids(
            self.expand_match(pattern, regex=True, limit=limit),
            SearchMode.OR).tolist()

    def search_near(self, tokens: list[str], slop: int = 2,
                    analyzer=None, ordered: bool = False) -> list[int]:
        """Proximity search (NEAR/slop): docs where some window of
        ``slop + 1`` consecutive kept-token positions contains at least
        one occurrence of EVERY distinct query term — equivalently,
        there exist per-term positions whose span (max − min) is ≤
        ``slop``. With k distinct terms a match therefore needs
        ``slop >= k - 1`` (distinct terms cannot share a position).

        Two-phase, the standard positional-recheck design: (1) the AND
        intersection over postings yields the candidate set; (2) the
        candidates' contents are fetched from the docstore (shard-pruned
        multi-get) and re-tokenized in ONE vectorized pass
        (analyzer.analyze_strings — tokenization is a pure function of
        content, so the streams equal what was indexed), then a single
        flat-array window check runs over every occurrence: an anchor
        occurrence ``a`` matches iff every term has an occurrence in
        ``[a, a + slop]``; the minimal window starts at an occurrence of
        one of the terms, so anchoring at every occurrence is exact.
        Cost is ∝ query-term occurrences in the CANDIDATE docs only,
        never the corpus; at cluster scale phase (2) is shard-local (see
        ShardedQueryEngine.search_near), and on the driver it fans out
        as Ray tasks over adaptive candidate-id chunks once the AND set
        passes ``NEAR_FANOUT_MIN_CANDIDATES``. ``analyzer``: pass the index's
        analyzer for indexes built with a custom analyzer_factory; None →
        the normative vectorized path. Ascending doc ids.

        ``ordered=True`` is the ordered-span (sloppy-phrase) variant:
        occurrences must appear in QUERY order (strictly increasing
        positions, duplicates in the query need distinct occurrences)
        with total span ≤ ``slop``. Checked by a greedy searchsorted
        chain from every first-term anchor — greedy takes the earliest
        legal next occurrence, which only loosens the constraint on the
        terms after it, so existence is decided exactly."""
        return self._near_ids(tokens, slop, analyzer, ordered).tolist()

    def _near_ids(self, tokens: list[str], slop: int = 2,
                  analyzer=None, ordered: bool = False) -> np.ndarray:
        """Array form of :meth:`search_near`."""
        if slop < 0:
            raise ValueError(f"slop must be >= 0, got {slop}")
        seq = normalize_query_tokens(tokens)
        tset = sorted(set(seq))
        cand = self._search_ids(tset, SearchMode.AND)
        if len(seq) <= 1 or not len(cand):
            return cand
        # ray stays a LAZY dependency of this module: only consult it if
        # something else already imported it (never initialized == never
        # imported == inline), so ray-free installs and small queries
        # pay nothing.
        _ray = sys.modules.get("ray")
        if (len(cand) >= NEAR_FANOUT_MIN_CANDIDATES
                and _ray is not None and _ray.is_initialized()
                and _ray.get_runtime_context().get_task_id() is None
                and _ray.get_runtime_context().get_actor_id() is None):
            hits = self._near_fanout(_ray, cand, seq, tset, slop, ordered,
                                     analyzer)
            if hits is not None:
                return hits
        store = getattr(self, "_docstore", None)
        if store is None:
            from konlsearch_ray.docstore import DocStore

            store = self._docstore = DocStore(self.index_dir)
        return _near_recheck_chunk(self.index_dir, cand, seq, tset, slop,
                                   ordered, analyzer, store=store)

    def _near_fanout(self, _ray, cand, seq, tset, slop, ordered,
                     analyzer) -> np.ndarray | None:
        """Fan the NEAR recheck out as Ray tasks over contiguous
        candidate-id chunks (cand is ascending, so each task's
        shard-pruned multi-get touches few shard files and the
        concatenated results stay sorted). Driver-only — a nested-task
        wave launched from a saturated actor pool (QueryStage /
        ShardedQueryEngine, whose shards already parallelize the
        recheck) would deadlock waiting for CPUs its parents hold.
        Assumes ``index_dir`` is on storage the workers can read — the
        same contract every actor-pool serving path already has.
        Returns None when the analyzer won't serialize (C-extension
        backends like mecab/Kiwi): the caller falls back inline."""
        store = getattr(self, "_docstore", None)
        if store is None:
            from konlsearch_ray.docstore import DocStore

            store = self._docstore = DocStore(self.index_dir)
        an = None
        if analyzer is not None:
            # Ship the analyzer to the object store ONCE per reader (a
            # lexicon analyzer can carry MBs of state), re-shipping only
            # if the caller passes a different instance.
            if getattr(self, "_near_an_src", None) is not analyzer:
                try:
                    ref = _ray.put(analyzer)
                except Exception:
                    ref = None
                self._near_an_src = analyzer
                self._near_an_ref = ref
            an = self._near_an_ref
            if an is None:
                return None
        if getattr(self, "_near_dead_ref", None) is None:
            # Tombstones ride one ObjectRef per reader — NOT re-read
            # from disk by each task. Staleness matches the reader's
            # own cached docstore.
            self._near_dead_ref = _ray.put(store._dead)
        chunk = max(NEAR_FANOUT_CHUNK_MIN,
                    -(-len(cand) // NEAR_FANOUT_MAX_TASKS))
        task = _near_chunk_remote()
        # Workers resolve relative paths against their own cwd.
        index_dir = os.path.abspath(self.index_dir)
        refs = [
            task.remote(index_dir, cand[i:i + chunk], seq, tset, slop,
                        ordered, an, None, store.meta,
                        self._near_dead_ref)
            for i in range(0, len(cand), chunk)]
        return np.concatenate(_ray.get(refs))

    def search_complex(self, tree) -> list[int]:
        """tree = (left, right, 'AND'|'OR'|'ANDNOT'); leaves are
        (tokens, mode)."""
        return self._eval(tree).tolist()

    def _eval(self, node) -> np.ndarray:
        if len(node) == 2:
            return self._search_ids(node[0], node[1])
        left, right, op = node
        lres, rres = self._eval(left), self._eval(right)
        if op == "AND":
            return _intersect(lres, rres)
        if op == "ANDNOT":
            # Set difference (SQL EXCEPT / Lucene MUST_NOT). Distributes
            # over the sharded engine unchanged: every doc lives in
            # exactly one shard, so per-shard differences union to the
            # global difference.
            return lres[~_in_sorted(lres, rres)]
        return np.union1d(lres, rres)

    # --- BM25 -----------------------------------------------------------
    def idf(self, term: str) -> float:
        if self._global_df is not None:
            df = self._gdf_memo.get(term)
            if df is None:
                terms_s, dfs = self._global_df
                tb = term.encode("utf-8")
                df = 0
                if len(terms_s) and len(tb) <= terms_s.dtype.itemsize:
                    i = int(np.searchsorted(terms_s, tb))
                    if i < len(terms_s) and terms_s[i] == tb:
                        df = int(dfs[i])
                self._gdf_memo[term] = df
        else:
            df = self.df(term)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def _kernel(self, w: float, tf, dl):
        """BM25 term kernel — the ONE formula behind the exact path, the
        pruned path, its bounds and ``explain``, so their scores are
        bit-identical (ranking ties included). Takes numpy arrays or
        Python scalars alike (an integer tf converts exactly in the first
        multiply)."""
        return w * tf * (K1 + 1) / (tf + K1 * (1 - B + B * dl / self.avgdl))

    def bm25_topk(
        self, tokens: list[str], k: int = 10, prune: bool = True,
        allowed: "np.ndarray | None" = None,
        boosts: "dict[str, float] | None" = None,
    ) -> list[tuple[int, float]]:
        """BM25 top-k, rank-identical to the exact path.

        ``prune=True`` (default) runs term-at-a-time MaxScore with
        block-max upper bounds from the segments' ``block_max_tf``
        metadata (the block-max-WAND family — north-star requirement):
        terms are processed in descending max-impact order; a posting
        entry is skipped when its block's score upper bound plus the
        remaining terms' upper bounds is strictly below the running
        top-k threshold. Pruning is *safe*: only docs provably below
        the k-th best score are skipped, so results (ids AND scores)
        equal ``prune=False`` exactly (ties broken by ascending doc_id).

        ``allowed``: optional SORTED int64 array of doc ids — filtered
        search (e.g. a metadata predicate resolved through
        ``DocStore.ids_matching``). Scoring statistics (idf, avgdl, N)
        stay corpus-level — the standard filtered-search semantics, so a
        doc's score is identical with and without the filter and equals
        the unfiltered ranking restricted to the allowed set. The
        filtered path uses the exact scorer: block-max metadata is
        unfiltered, so its bounds are valid but loose under heavy
        filtering; correctness over micro-pruning.

        ``boosts``: optional per-term positive weight (query-time term
        boosting — Lucene's ``term^w``): a term's score contribution is
        multiplied by its boost (default 1.0). Boosting composes exactly
        with MaxScore pruning: bounds are computed per query from the
        cached per-block max tf with the boosted weight, the same weight
        the scores use, keeping pruned results bit-identical to the
        exact path.
        """
        toks = sorted(set(normalize_query_tokens(tokens)))
        if boosts is not None:
            boosts = {
                nt: float(w)
                for t, w in boosts.items()
                for nt in normalize_query_tokens([t])}
            if any(w <= 0 for w in boosts.values()):
                raise ValueError("boosts must be positive")
        if allowed is not None:
            allowed = np.asarray(allowed, dtype=np.int64)
        elif prune and len(toks) > 1:
            return self._bm25_maxscore(toks, k, boosts=boosts)
        id_parts, score_parts = [], []
        for t in toks:
            ids, tfs = self.postings_scores(t)
            if allowed is not None and len(ids):
                pos = np.searchsorted(allowed, ids)
                posc = np.minimum(pos, max(len(allowed) - 1, 0))
                m = ((pos < len(allowed)) & (allowed[posc] == ids)
                     if len(allowed) else np.zeros(len(ids), dtype=bool))
                ids, tfs = ids[m], tfs[m]
            if len(ids) == 0:
                continue
            w = self.idf(t)
            if boosts is not None:
                w *= boosts.get(t, 1.0)
            id_parts.append(ids)
            score_parts.append(self._kernel(w, tfs, self.doc_len(ids)))
        if not id_parts:
            return []
        uniq, inv = np.unique(np.concatenate(id_parts), return_inverse=True)
        return _topk(uniq, np.bincount(inv, weights=np.concatenate(score_parts)),
                     k)

    def _bm25_maxscore(self, toks: list[str], k: int,
                       boosts: "dict[str, float] | None" = None,
                       ) -> list[tuple[int, float]]:
        """Term-at-a-time MaxScore with block-max skip (see bm25_topk).

        Invariants that make this exact:
        - A doc added at the first of its terms in bound order has no
          posting in the terms processed before it, so only the terms
          still to come are probed (its own tfs are already aligned):
          its score is its full sum, added in sorted-token order — the
          order the exact path's bincount adds them — so sums are
          bit-identical and ties order identically.
        - Any other doc was block-skipped at the first of its terms (or
          the loop stopped before it), so its full score — and the
          partial sum it gets if a later term adds it — is strictly
          below a θ seen there: it can neither reach the top-k nor
          move θ.
        - θ is the k-th best candidate score, a lower bound on the final
          k-th best; pruning uses strict ``< θ`` so boundary ties
          (broken by ascending doc_id) are never lost.
        """
        terms = []  # (weight, entry) of terms with postings, sorted-token order
        for t in toks:
            e = self._entry(t)
            if len(e.ids):
                w = self.idf(t)
                if boosts is not None:
                    w *= boosts.get(t, 1.0)
                terms.append((w, self._bounds(e)))
        # Term upper bound: its max block-max tf at the shortest doc.
        ubs = [self._kernel(w, e.maxtf, self._min_dl) for w, e in terms]
        order = sorted(range(len(terms)), key=lambda j: -ubs[j])
        suffix = [0.0] * (len(order) + 1)
        for r in range(len(order) - 1, -1, -1):
            suffix[r] = suffix[r + 1] + ubs[order[r]]
        done = [False] * len(terms)
        cand_ids = cand_scores = None
        theta = -math.inf
        for r, j in enumerate(order):
            if suffix[r] < theta:
                break  # no unseen doc can reach the top-k
            w, e = terms[j]
            ids, tfs = e.ids, e.tfs
            done[j] = True
            if theta > -math.inf:
                keep = (self._kernel(w, e.bmax, self._min_dl)
                        + suffix[r + 1] >= theta)
                if not keep.all():
                    keep = np.repeat(keep, e.bcount)
                    if e.live is not None:
                        keep = keep[e.live]
                    ids, tfs = ids[keep], tfs[keep]
            if cand_ids is not None:
                # Probing a[:-1] lands past-the-end queries on a's last
                # entry, so the position needs no clamp.
                new = cand_ids[cand_ids[:-1].searchsorted(ids)] != ids
                ids, tfs = ids[new], tfs[new]
            if not len(ids):
                continue
            dl = self.doc_len(ids)
            scores = np.zeros(len(ids))
            for jj, (wj, ej) in enumerate(terms):
                if jj == j:
                    scores += self._kernel(w, tfs, dl)
                elif not done[jj]:
                    p = ej.ids[:-1].searchsorted(ids)
                    hit = ej.ids[p] == ids
                    if hit.any():
                        scores[hit] += self._kernel(wj, ej.tfs[p[hit]],
                                                    dl[hit])
            if cand_ids is None:
                cand_ids, cand_scores = ids, scores
            else:
                cand_ids = np.concatenate((cand_ids, ids))
                cand_scores = np.concatenate((cand_scores, scores))
            if r + 1 < len(order):  # the next term probes and prunes
                if cand_ids is not ids:
                    o = np.argsort(cand_ids, kind="stable")
                    cand_ids, cand_scores = cand_ids[o], cand_scores[o]
                n = len(cand_ids)
                if 0 < k <= n:
                    theta = np.partition(cand_scores, n - k)[n - k]
        if cand_ids is None:
            return []
        return _topk(cand_ids, cand_scores, k)

    def explain(self, tokens: list[str], doc_id: int) -> list[dict]:
        """Per-term BM25 score breakdown for ONE document — the
        search-engine debugging surface (Lucene ``explain`` shape).

        Returns one row per query term present in the doc:
        ``{"term", "tf", "idf", "contrib"}``, ordered by term
        ascending; ``sum(contrib)`` equals the doc's ``bm25_topk``
        score exactly (same kernel, same float ops). A term absent
        from the doc (or the doc absent entirely) contributes no row.
        """
        toks = sorted(set(normalize_query_tokens(tokens)))
        did = int(doc_id)
        dl = None  # constant per doc — resolved on the FIRST matching
        # term (doc_len on an id absent from the corpus is undefined,
        # so it must not run for docs no query term contains)
        out = []
        for t in toks:
            ids, tfs = self.postings_scores(t)
            if not len(ids):
                continue
            i = int(np.searchsorted(ids, did))
            if i >= len(ids) or int(ids[i]) != did:
                continue
            tf = int(tfs[i])
            w = self.idf(t)
            if dl is None:
                dl = float(self.doc_len(np.array([did], dtype=np.int64))[0])
            out.append({"term": t, "tf": tf, "idf": w,
                        "contrib": self._kernel(w, tf, dl)})
        return out

    def suggest_spelling(self, term: str, k: int = 5) -> list[tuple[int, str]]:
        """Did-you-mean: vocabulary terms at Levenshtein distance
        EXACTLY 1 from ``term``, ranked by global df descending (term
        ascending on ties) — the classic spell-correction suggester.

        Returns ``[(df, term), ...]`` (at most ``k``). The scan is the
        same cost-∝-vocabulary contract as ``search_contains`` /
        ``search_regex``: a length-(±1) prefilter over the dictionary's
        term column, then the shared exact vectorized ed==1 verifier
        (``functions.fuzzy._ed1_mask`` — pure integer codepoint
        comparisons, so a SQL ``levenshtein(term, q) = 1`` oracle agrees
        bit-for-bit). The dictionary (term, global df) loads once per
        reader and is cached.
        """
        from konlsearch_ray.functions.fuzzy import _ed1_mask

        q = normalize_query_tokens([term])
        if not q:
            return []
        qs = q[0]
        cache = getattr(self, "_dict_cache", None)
        if cache is None:
            # Cache the Arrow term column + codepoint lengths + dfs; the
            # padded U-dtype conversion (4 bytes x longest term PER term
            # — hundreds of MB on a wide source-code vocabulary) happens
            # per query on the length-prefiltered CANDIDATE subset only.
            # (The global-df init keeps UTF-8 BYTES for searchsorted;
            # ed1 needs CODEPOINTS — bytes→str astype would mangle
            # Hangul — hence this second, lazily-built representation.)
            t = _read_dictionary(self.index_dir)
            term_col = t["term"].combine_chunks()
            lens = pc.utf8_length(term_col).to_numpy(
                zero_copy_only=False).astype(np.int64)
            cache = self._dict_cache = (
                term_col, lens,
                t["df"].to_numpy(zero_copy_only=False).astype(np.int64))
        term_col, lens, dfs = cache
        if not len(term_col):
            return []
        cand = np.flatnonzero(np.abs(lens - len(qs)) <= 1)
        if not len(cand):
            return []
        cand_u = np.asarray(
            term_col.take(pa.array(cand)).to_numpy(zero_copy_only=False),
            dtype="U")
        # NOTE: dtype="U" would silently truncate to U1 — let numpy
        # infer the itemsize from qs.
        ok = _ed1_mask(cand_u, np.full(len(cand), qs))
        hits = cand[ok]
        ranked = sorted(
            ((int(dfs[i]), str(u)) for i, u in zip(hits, cand_u[ok])),
            key=lambda t2: (-t2[0], t2[1]))[:k]
        return ranked

    def more_like_this(self, doc_id: int, n_terms: int = 5, k: int = 10,
                       prune: bool = True,
                       analyzer=None) -> list[tuple[int, float]]:
        """Similar-document search (Lucene MoreLikeThis shape): select
        the source doc's ``n_terms`` highest tf·idf terms, run them as a
        BM25 OR query, exclude the source doc, return top ``k``.

        Determinism contract (oracle-mirrored): the selection weight is
        the ONE float expression ``tf · ln(1 + (N − df + 0.5)/(df + 0.5))``
        over exact integer tf/df/N — identical to the BM25 idf — with
        ties broken by ascending term; the scoring leg is the standard
        ``bm25_topk`` (exact under pruning). Fetching ``k+1`` then
        dropping the source is exact: at most one excluded doc means the
        k best non-source docs all sit inside the overall top ``k+1``.

        The source doc's term stream re-derives from the docstore
        (same contract as ``get_ordered_tokens``); indexes built with a
        custom analyzer_factory must pass the SAME ``analyzer`` here or
        the tf counts won't match the indexed stream. An absent/deleted
        ``doc_id`` returns [].
        """
        store = getattr(self, "_docstore", None)
        if store is None:
            from konlsearch_ray.docstore import DocStore

            store = self._docstore = DocStore(self.index_dir)
        toks = store.get_ordered_tokens(doc_id, analyzer=analyzer)
        if not toks:
            return []
        sel_terms = _mlt_select(toks, self.idf, n_terms)
        hits = self.bm25_topk(sel_terms, k + 1, prune=prune)
        return [(d, s) for d, s in hits if d != int(doc_id)][:k]

    def facet_counts(self, tokens: list[str], facet_col: str,
                     mode: SearchMode | str = SearchMode.AND,
                     k: int = 0) -> pa.Table:
        """Faceted search: hit counts grouped by a stored metadata
        column (Lucene facets / terms-aggregation shape). Runs the
        Boolean search, then counts ``facet_col`` values over ONLY the
        matching docs' metadata rows.

        Returns ``(facet, n)`` ordered by ``n`` desc, ``facet`` asc
        (nulls last); ``k > 0`` keeps the top ``k`` facets. A null
        facet value counts as its own group (SQL ``GROUP BY``
        semantics). ``facet_col`` must have been persisted at build
        time via ``IndexConfig.store_cols``.

        Scale shape: metadata leaves storage column-pruned to
        ``(doc_id, facet_col)``. Small hit sets resolve through the
        id-pushdown multi-get (shard + row-group pruning); past
        ``FACET_SCAN_MIN_HITS`` the sorted hit ids are broadcast ONCE
        (``ray.put``) and the docstore streams as a Dataset whose
        per-block partial is a searchsorted membership test +
        ``count_all`` group; a ``keyed_fold`` routed by the facet's
        ``key_bucket`` sums the partials inside the Dataset, so only
        the folded rows — one per distinct facet — reach the driver.
        """
        ids = self._search_ids(tokens, mode)
        store = getattr(self, "_docstore", None)
        if store is None:
            from konlsearch_ray.docstore import DocStore

            store = self._docstore = DocStore(self.index_dir)
        if len(ids) <= FACET_SCAN_MIN_HITS:
            if not len(ids):
                return _empty_facets()
            meta = store.get_multi(ids, columns=["doc_id", facet_col])
            out = _fold_facet_counts(meta[facet_col])
        else:
            import ray

            from konlsearch_ray.functions.blocks import (default_nbuckets,
                                                         key_bucket,
                                                         keyed_fold)

            # The stored column's own type — the fold must return it
            # whatever the hit-set size (footer-only read).
            ftype = store.schema().field(facet_col).type
            ids_ref = ray.put(ids)
            nbuckets = default_nbuckets()

            def _facet_partial(t: pa.Table) -> pa.Table:
                hit_ids = ray.get(ids_ref)  # zero-copy shared-memory read
                col = t["doc_id"].to_numpy()
                pos = np.searchsorted(hit_ids, col)
                pos[pos >= len(hit_ids)] = 0
                mask = hit_ids[pos] == col
                f = _fold_facet_counts(t[facet_col].filter(pa.array(mask)))
                return f.append_column(
                    "bucket", pa.array(key_bucket(f["facet"], nbuckets)))

            def _facet_merge(g: pa.Table) -> pa.Table:
                return _named_facet_n(g.select(["facet", "n"])
                                      .group_by("facet")
                                      .aggregate([("n", "sum")]))

            folded = keyed_fold(store.scan(columns=[facet_col]), "bucket",
                                _facet_merge, partial=_facet_partial,
                                fallback=_empty_facets(ftype))
            out = pa.concat_tables(ray.get(folded.to_arrow_refs()))
        return _sort_facets(out, k)


def _mlt_select(toks: list[str], idf, n_terms: int) -> list[str]:
    """The ONE more-like-this term-selection rule, shared by the single
    reader and the sharded engine so their results stay rank-identical:
    weight = ``tf · idf(term)`` (float product of exact inputs, mirrored
    by the SQL oracle), ties broken by ascending term."""
    from collections import Counter

    tf = Counter(toks)
    weighted = sorted(
        tf.items(), key=lambda kv: (-(float(kv[1]) * idf(kv[0])), kv[0]))
    return [t for t, _ in weighted[:n_terms]]


# Query-table modes → (IndexReader call on (reader, tokens, k), merge
# kind). The ``k`` column carries the top-k for BM25, the slop for the
# proximity modes and m for MSM. "ids" modes return ascending doc ids
# (a doc's match is complete within its owning shard, so partials over
# disjoint shard subsets concatenate); "topk" partials merge by
# (score desc, doc_id asc) and cut at k.
_STAGE_MODES = {
    "BM25": (lambda r, t, k: r.bm25_topk(t, k), "topk"),
    "NEAR": (lambda r, t, k: r.search_near(t, slop=k), "ids"),
    "ONEAR": (lambda r, t, k: r.search_near(t, slop=k, ordered=True), "ids"),
    "MSM": (lambda r, t, k: r.search_min_should(t, k), "ids"),
    **{m.value: (lambda r, t, k, m=m: r.search(t, m), "ids")
       for m in SearchMode},
}
_TOPK_MODES = pa.array([m for m, (_, kind) in _STAGE_MODES.items()
                        if kind == "topk"])


def _merge_ids(parts) -> list[int]:
    """Disjoint per-subset ascending id arrays (or lists) → one
    ascending list."""
    return np.sort(np.concatenate(
        [np.asarray(p, dtype=np.int64) for p in parts])).tolist()


def _topk(ids: np.ndarray, scores: np.ndarray,
          k: int) -> list[tuple[int, float]]:
    """The ``k`` best (doc_id, score) pairs by (score desc, doc_id asc) —
    the ONE ranking every BM25 path returns. Only the entries tied with
    or above the k-th best score are sorted, so ties at the cut keep
    the lowest doc ids."""
    n = len(ids)
    if 0 < k < n:
        sel = scores >= np.partition(scores, n - k)[n - k]
        ids, scores = ids[sel], scores[sel]
    order = np.lexsort((ids, -scores))[:k]
    return list(zip(ids[order].tolist(), scores[order].tolist()))


def _merge_topk(parts, k: int) -> list[tuple[int, float]]:
    """Per-subset partial top-k lists → the global top-k, in the single
    reader's order."""
    return _topk(np.array([d for p in parts for d, _ in p], dtype=np.int64),
                 np.array([s for p in parts for _, s in p], dtype=np.float64),
                 k)


class QueryStage:
    """Actor-pool query server for ``map_batches`` over a query table.

    Input batch columns: ``qid: int64, tokens: list<string>, mode: string,
    k: int64`` (modes and the meaning of k: ``_STAGE_MODES``). Output
    rows: one per result doc — ``qid, doc_id, rank, score`` (score 0.0,
    rank = position for id modes).

    ``shards`` + ``partial=True`` turn the stage into one leg of the
    scatter-gather layout (``sharded_query_pipeline``): the actor holds
    only its shard subset (actor-pool memory = index/K, the
    ShardedQueryEngine layout behind the Dataset API) and emits per-doc
    PARTIAL rows (mode + k carried through) for a downstream per-qid
    merge. Per-doc BM25 scores are complete within a subset (a doc lives
    in exactly one shard; idf/N/avgdl are global via ``use_global_df``),
    so the merged top-k is bit-identical to a whole-index reader.
    """

    def __init__(self, index_dir: str, shards: list[int] | None = None,
                 partial: bool = False):
        self.reader = IndexReader(index_dir, shards=shards,
                                  use_global_df=shards is not None)
        self.partial = partial

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, docs, ranks, scores = [], [], [], []
        modes, ks = [], []
        for qid, tokens, mode, k in zip(
            batch["qid"].to_pylist(),
            batch["tokens"].to_pylist(),
            batch["mode"].to_pylist(),
            batch["k"].to_pylist(),
        ):
            if mode not in _STAGE_MODES:
                raise ValueError(f"unknown query mode {mode!r}")
            call, kind = _STAGE_MODES[mode]
            hits = call(self.reader, tokens, int(k))
            if kind == "ids":
                hits = [(d, 0.0) for d in hits]
            for r, (d, s) in enumerate(hits):
                qids.append(qid); docs.append(d); ranks.append(r); scores.append(s)
                modes.append(mode); ks.append(int(k))
        out = _result_table(qids, docs, ranks, scores)
        if self.partial:
            out = out.append_column("mode", pa.array(modes, pa.string()))
            out = out.append_column("k", pa.array(ks, pa.int64()))
        return out


def _result_table(qids, docs, ranks, scores) -> pa.Table:
    return pa.table({
        "qid": pa.array(qids, pa.int64()),
        "doc_id": pa.array(docs, pa.int64()),
        "rank": pa.array(ranks, pa.int64()),
        "score": pa.array(scores, pa.float64()),
    })


def _merge_partials(t: pa.Table) -> pa.Table:
    """Per-qid merge of partial ``QueryStage`` rows: one ranking over
    (qid, -score, doc_id). Id-mode rows score 0.0, so the same sort
    orders them by doc_id; only top-k rows are cut at ``k`` (for the
    other modes the k column is the slop or m)."""
    q = t["qid"].to_numpy()
    d = t["doc_id"].to_numpy()
    s = t["score"].to_numpy()
    order = np.lexsort((d, -s, q))
    q, d, s = q[order], d[order], s[order]
    first = np.ones(len(q), dtype=bool)
    first[1:] = q[1:] != q[:-1]
    pos = np.arange(len(q))
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    topk = pc.is_in(t["mode"], value_set=_TOPK_MODES).to_numpy(
        zero_copy_only=False)[order]
    keep = ~topk | (rank < t["k"].to_numpy()[order])
    return _result_table(q[keep], d[keep], rank[keep], s[keep])


def sharded_query_pipeline(
    index_dir: str,
    queries: "ray.data.Dataset",
    num_subsets: int = 4,
    concurrency_per_subset: int | tuple[int, int] = 1,
):
    """Scatter-gather query serving entirely in the Dataset API.

    The index's shards split into ``num_subsets`` disjoint groups; the
    query stream fans out through one ``map_batches(QueryStage)`` actor
    pool per group (each actor holds ONLY its group — memory per actor =
    index/K instead of the whole index), the partial streams union, and
    one merge task (``_merge_partials``) produces final ranks. Results
    are identical to a whole-index ``QueryStage``: id-mode partials
    concatenate over disjoint doc sets; BM25 per-doc scores are complete
    within a group and global-df idf keeps scores equal, so the merged
    top-k (ties by ascending doc_id) matches bit-for-bit.
    """
    from ray.data import from_arrow

    groups = _sharded_groups(index_dir, num_subsets,
                             "sharded_query_pipeline")
    parts = [
        queries.map_batches(
            QueryStage,
            fn_constructor_kwargs={"index_dir": index_dir, "shards": g,
                                   "partial": True},
            batch_format="pyarrow", concurrency=concurrency_per_subset)
        for g in groups
    ]
    u = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    # Partials are k·Q·num_subsets tiny rows: coalescing them into ONE
    # vectorized merge task beats a sort-shuffle groupby at serving
    # batch sizes. Ray never calls the merge on zero rows, so an all-miss
    # batch would leave the stream without a schema; the typed empty
    # block keeps the whole-index stage's four columns.
    return (u.repartition(1)
            .map_batches(_merge_partials, batch_format="pyarrow",
                         batch_size=None)
            .union(from_arrow(_result_table([], [], [], []))))


def _sharded_groups(index_dir: str, k: int, caller: str) -> list[list[int]]:
    """Validated round-robin shard groups for the sharded serving paths
    (``sharded_query_pipeline`` and ``ShardedQueryEngine`` share this so
    the compaction precondition and shard naming live in one place).
    Requires a compacted index: dictionary/ df is physical (pre-delete)
    and a subset reader cannot recompute live df for terms outside its
    subset, so scores would drift from the whole-index reader."""
    from konlsearch_ray.tombstone import load_tombstones

    if len(load_tombstones(index_dir)):
        raise ValueError(
            f"{caller} requires a compacted index — run "
            "konlsearch_ray.tombstone.compact_index() first")
    seg_dir = os.path.join(index_dir, "segments")
    shard_ids = sorted(
        int(n[len("shard-"):-len(".parquet")])
        for n in os.listdir(seg_dir) if n.endswith(".parquet"))
    k = max(1, min(k, len(shard_ids)))
    return [g for g in (shard_ids[i::k] for i in range(k)) if g]


class ShardQueryActor:
    """One scatter-gather worker: serves queries over its shard subset.

    Plain class — wrap with ``ray.remote(ShardQueryActor)``. Raw actors
    (not a Dataset stage) because the routed, shared, long-lived index
    state is exactly what the Dataset API cannot express (a map_batches
    actor pool cannot pin specific shards to specific actors).
    """

    # Calls that need the actor's own DocStore; every other op is an
    # IndexReader method.
    _OWN_OPS = frozenset({"bm25_topk_filtered", "mlt_terms",
                          "facet_partial"})

    def __init__(self, index_dir: str, shards: list[int]):
        from konlsearch_ray.docstore import DocStore

        self.index_dir = index_dir
        self.shard_set = set(shards)
        self.reader = IndexReader(index_dir, shards=shards, use_global_df=True)
        # Long-lived serving state loads ONCE per actor: the filtered-
        # BM25 path was rebuilding a DocStore (meta read + tombstone
        # load) on every query.
        self._docstore = DocStore(index_dir)
        self._mlt_analyzers: dict = {}

    def run(self, op: str, *args, **kw):
        """Serve one scatter-gather call: the named method of this actor
        (``_OWN_OPS``) or of its subset ``IndexReader``."""
        target = self if op in self._OWN_OPS else self.reader
        return getattr(target, op)(*args, **kw)

    def bm25_topk_filtered(self, tokens, k, flt):
        """Filtered BM25 over this actor's shard subset: the metadata
        scan resolves ``flt`` against its OWN docstore shards only, so
        the allowed-id work parallelizes with the shards."""
        allowed = self._docstore.ids_matching(flt, shards=self.shard_set)
        return self.reader.bm25_topk(tokens, k, allowed=allowed)

    def mlt_terms(self, doc_id: int, n_terms: int, analyzer_factory=None):
        """More-like-this term selection, answered ONLY by the actor
        whose shard subset owns ``doc_id`` (None otherwise — exactly one
        actor responds per query). tf comes from this actor's docstore
        row; idf is global (dictionary-backed), so the selection equals
        the single reader's bit-for-bit (shared ``_mlt_select``).
        ``analyzer_factory``: same contract as the single reader's
        ``analyzer`` arg — custom-analyzer indexes must select over the
        SAME token stream that was indexed. The built analyzer caches
        per actor (keyed by factory)."""
        if self._docstore._shard_of(int(doc_id)) not in self.shard_set:
            return None
        analyzer = None
        if analyzer_factory is not None:
            analyzer = self._mlt_analyzers.get(analyzer_factory)
            if analyzer is None:
                analyzer = self._mlt_analyzers[analyzer_factory] = \
                    analyzer_factory()
        toks = self._docstore.get_ordered_tokens(int(doc_id),
                                                 analyzer=analyzer)
        if not toks:
            return [] if toks is not None else None
        return _mlt_select(toks, self.reader.idf, n_terms)

    def facet_partial(self, tokens, facet_col, mode="AND"):
        """Per-actor facet partial: Boolean hits over this actor's
        shard subset, metadata read from its OWN docstore shards only
        (``get_multi`` prunes to the dirs the hit ids live in) — hit
        ids never leave the actor; only the bounded ``(facet, n)``
        pairs cross the wire, plus the stored column's Arrow type so
        the merged table keeps it even when every facet is null."""
        ftype = self._docstore.schema().field(facet_col).type
        ids = self.reader._search_ids(tokens, mode)
        if not len(ids):
            return ftype, []
        meta = self._docstore.get_multi(ids, columns=["doc_id", facet_col])
        folded = _fold_facet_counts(meta[facet_col])
        return ftype, list(zip(folded["facet"].to_pylist(),
                               folded["n"].to_pylist()))


class ShardedQueryEngine:
    """Distributed query serving: K actors × disjoint shard subsets.

    Each doc lives in exactly one shard, so id results (Boolean, complex,
    NEAR, MSM, prefix/contains/regex) concatenate and sort
    (``_merge_ids``) — the actors serve the reader's int64 array methods
    for all but the three term-expanding searches;
    BM25 per-doc scores are complete within one actor
    (global N/avgdl from stats.json, global df from dictionary/), so the
    merge is a top-k over the per-actor partial top-k lists
    (``_merge_topk``) — rank-identical to the single-reader path. This is
    the cluster layout of the north star: on N nodes each actor owns
    ~num_shards/K shards; scatter-gather fan-out is one RPC per actor
    per query.

    Term-expanding searches (prefix/contains/regex) expand over each
    actor's OWN shard vocabulary, so when ``limit`` binds the union can
    differ from the single reader's globally capped expansion; with
    expansions under the cap — the operational case — results are
    identical.
    """

    def __init__(self, index_dir: str, num_actors: int = 4):
        import ray as _ray

        groups = _sharded_groups(index_dir, num_actors,
                                 "ShardedQueryEngine")
        cls = _ray.remote(ShardQueryActor)
        self._actors = [cls.remote(index_dir, g) for g in groups]

    def _gather(self, op: str, *args, **kw) -> list:
        """Scatter ``op`` to every actor; its partials in actor order."""
        import ray as _ray

        return _ray.get([a.run.remote(op, *args, **kw)
                         for a in self._actors])

    def search(self, tokens, mode="AND"):
        return _merge_ids(self._gather("_search_ids", tokens, mode))

    def search_complex(self, tree):
        return _merge_ids(self._gather("_eval", tree))

    def search_prefix(self, prefix, limit=64):
        return _merge_ids(self._gather("search_prefix", prefix, limit=limit))

    def search_contains(self, substring, limit=64):
        return _merge_ids(
            self._gather("search_contains", substring, limit=limit))

    def search_regex(self, pattern, limit=64):
        return _merge_ids(self._gather("search_regex", pattern, limit=limit))

    def search_near(self, tokens, slop=2, ordered=False):
        return _merge_ids(self._gather("_near_ids", tokens, slop=slop,
                                       ordered=ordered))

    def search_min_should(self, tokens, m):
        return _merge_ids(self._gather("_min_should_ids", tokens, m))

    def bm25_topk(self, tokens, k=10, boosts=None):
        return _merge_topk(
            self._gather("bm25_topk", tokens, k, boosts=boosts), k)

    def bm25_topk_filtered(self, tokens, k, flt):
        """Filtered BM25 (pyarrow dataset expression ``flt``, e.g.
        ``pads.field("lang") == "ko"``): each actor resolves the
        predicate over its own shards; scores keep corpus-level stats."""
        return _merge_topk(
            self._gather("bm25_topk_filtered", tokens, k, flt), k)

    def more_like_this(self, doc_id: int, n_terms: int = 5,
                       k: int = 10,
                       analyzer_factory=None) -> list[tuple[int, float]]:
        """Scatter-gather more-like-this, rank-identical to
        ``IndexReader.more_like_this``: term selection runs on the ONE
        actor owning the doc's shard (tf local, idf global), then the
        selected terms fan out through the standard sharded BM25 with
        the exact k+1 source-exclusion argument. Custom-analyzer indexes
        pass the FACTORY (actors build + cache it; same contract as the
        single reader's ``analyzer`` arg)."""
        parts = self._gather("mlt_terms", int(doc_id), n_terms,
                             analyzer_factory)
        sel = next((p for p in parts if p is not None), None)
        if not sel:
            return []
        hits = self.bm25_topk(sel, k + 1)
        return [(d, s) for d, s in hits if d != int(doc_id)][:k]

    def facet_counts(self, tokens: list[str], facet_col: str,
                     mode="AND", k: int = 0) -> pa.Table:
        """Scatter-gather faceted search, count-identical to
        ``IndexReader.facet_counts``: each doc lives in exactly one
        shard, so the per-actor ``(facet, n)`` partials SUM — the only
        cross-actor traffic is one bounded partial list per actor per
        query, never the hit sets. Same output contract: ``(facet, n)``
        ordered by ``n`` desc, facet asc (nulls last), top ``k`` if
        ``k > 0``."""
        parts = self._gather("facet_partial", tokens, facet_col, mode)
        ftype = parts[0][0] if parts else None
        cnt: dict = {}
        for _, p in parts:
            for f, n in p:
                cnt[f] = cnt.get(f, 0) + int(n)
        if not cnt:
            return _empty_facets(ftype)
        return _sort_facets(
            pa.table({"facet": pa.array(list(cnt.keys()), ftype),
                      "n": pa.array(list(cnt.values()), pa.int64())}), k)

    def shutdown(self):
        import ray as _ray

        for a in self._actors:
            _ray.kill(a)
        self._actors = []
