"""Query engine: Boolean search + BM25 top-k over immutable segments.

Read-only engine over the segment layout written by build.py — the
Ray-native replacement for the reference's query path (reference
inverted_index.py:98-116, index.py:413-444 — SURVEY.md §3.2):

- ``search(tokens, AND|OR)`` — union / intersection over decoded
  posting lists, ascending doc-ID result (reference semantics, including
  "empty first posting ⇒ empty AND result", which plain intersection
  reproduces). AND probes the shorter sorted list into the longer
  (``_probe``: a table gather when their ids are dense, else
  ``searchsorted``); nothing is re-sorted.
- ``search(tokens, PHRASE)`` — AND result filtered by the reference's
  first-occurrence monotonicity quirk (reference index.py:443-444,
  utility.py:25-26 — SURVEY.md Q5) using the stored first-occurrence
  positions; no re-tokenization needed.
- ``search_near(tokens, slop)`` — proximity: AND candidates, then one
  window check over the query terms' stored positions in them (every
  occurrence, ``PostingStore.positions``). One phase inside the index:
  no docstore read, no re-tokenization, no task fan-out.
- ``search_complex(tree)`` — recursive binary AND/OR evaluation
  (reference index.py:72-77, 413-429).
- ``bm25_topk(tokens, k)`` — extension spec'd in oracle.py (k1=1.2,
  b=0.75, always-positive idf, dedup'd query terms, ties by ascending
  doc_id). Scoring is fully vectorized numpy over decoded postings; the
  stored block-max metadata enables block-skip pruning
  (``bm25_topk(..., prune=True)``) once a top-k threshold is known, and
  a query whose terms each cover much of the doc-id window adds cached
  per-term impact vectors over it instead.

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
from enum import Enum
from functools import cached_property

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from konlsearch_ray.analyzer import normalize_query_tokens
from konlsearch_ray.codec import BLOCK_SIZE
from konlsearch_ray.segment import (PostingStore, _string_col_to_S,
                                    check_version, read_dictionary,
                                    read_doclens, shard_nums)

K1 = 1.2
B = 0.75


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


# A probe whose two id arrays span at most this many times the shorter
# one's length gathers through a dense doc-id table (``_probe``).
_DENSE = 8


def _probe(hay: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Positions ``p`` into the sorted unique id array ``hay`` (non-empty)
    with ``hay[p] == needles`` wherever a needle is in ``hay``; at a miss
    ``p`` is still a valid position, and ``hay[p]`` differs from the
    needle. ``needles`` is sorted too. The ONE id-into-id probe of the
    reader.

    Dense window: when the ids of both arrays lie in a window of at most
    ``_DENSE`` × the shorter array's length, ``hay``'s positions scatter
    into a transient table over the window and the needles gather from
    it, linear in the window. Otherwise one binary search per needle;
    probing ``hay[:-1]`` lands past-the-end probes on hay's last entry,
    so the position needs no clamp. The lengths alone rule the table out
    first, before any id is read."""
    n, m = len(hay), len(needles)
    if n <= _DENSE * m and m <= _DENSE * n:
        lo = min(int(hay[0]), int(needles[0]))
        hi = max(int(hay[-1]), int(needles[-1]))
        if hi - lo < _DENSE * min(n, m):
            table = np.zeros(hi - lo + 1, dtype=np.intp)
            table[hay - lo] = np.arange(n)
            return table[needles - lo]
    return hay[:-1].searchsorted(needles)


def _in_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the entries of the sorted array ``a`` present in the sorted
    array ``b``: one ``_probe`` (a table gather when their ids are dense,
    else a binary search per probing entry) of the shorter array into the
    longer; when ``b`` is the shorter, its hits scatter onto the mask."""
    if not len(b):
        return np.zeros(len(a), dtype=bool)
    if len(b) < len(a):
        p = _probe(a, b)
        m = np.zeros(len(a), dtype=bool)
        m[p[a[p] == b]] = True
        return m
    return b[_probe(b, a)] == a


def _intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique id arrays, sorted: the shorter
    probes the longer (``_probe``), so the cost is short·log(long) — or
    linear in their joint id window when it is dense — with no sort
    (``np.intersect1d`` sorts the concatenation of both)."""
    if len(a) > len(b):
        a, b = b, a
    return a[_in_sorted(a, b)]


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


def _sum_facet_counts(t: pa.Table) -> pa.Table:
    """Sum ``(facet, n)`` partials per facet with one Arrow hash
    group-by — the merge every multi-part facet path shares: it keeps
    the null group and folds every NaN into one group."""
    return _named_facet_n(t.select(["facet", "n"]).group_by("facet")
                          .aggregate([("n", "sum")]))


def _sort_facets(t: pa.Table, k: int) -> pa.Table:
    """The facet output contract: (n desc, facet asc, nulls last),
    top ``k`` when k > 0."""
    order = pc.sort_indices(t, sort_keys=[("n", "descending"),
                                          ("facet", "ascending")])
    t = t.take(order)
    if k > 0:
        t = t.slice(0, k)
    return t.combine_chunks()


def _near_windows(doc_ids: np.ndarray, doc_idx: np.ndarray,
                  codes: np.ndarray, pos: np.ndarray, seq: list[str],
                  slop: int, ordered: bool) -> np.ndarray:
    """The NEAR window checks over candidate docs ``doc_ids`` (ascending
    int64): keep the docs where some window of ``slop + 1`` positions
    holds every distinct term of ``seq`` (or, with ``ordered``, where
    ``seq`` appears in order within span ≤ slop). The query terms'
    occurrences in the candidates come as flat arrays: candidate index
    ``doc_idx``, term code ``codes`` (the term's index in
    ``sorted(set(seq))``) and position ``pos``. Ascending int64 doc ids
    (``doc_ids`` are only filtered here)."""
    tset = sorted(set(seq))
    qcodes = {t: c for c, t in enumerate(tset)}
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


class SearchMode(str, Enum):
    AND = "AND"
    OR = "OR"
    PHRASE = "PHRASE"


class IndexReader:
    """Loads stats + doclens eagerly, posting lists lazily (cached), and
    a BM25 length norm per id of its doc-id window W: 8·W bytes."""

    def __init__(self, index_dir: str, log_dir: str | None = None,
                 shards: list[int] | None = None,
                 use_global_df: bool = False):
        """``shards``: restrict to a subset of shard segments — the
        scatter-gather layer gives each query actor its own subset (each
        doc lives in exactly one shard, so per-doc BM25 scores are
        complete within an actor). ``use_global_df=True`` loads per-term
        global df from ``dictionary/`` so idf matches the whole-index
        reader exactly (local df would skew scores). That df is the
        build's: ``delete_docs`` never lowers it, so on an uncompacted
        tombstoned index it can exceed the live N and give idf ≤ 0 (such
        queries take the exact scorer); run ``compact_index`` first."""
        self.index_dir = index_dir
        self.shards = set(shards) if shards is not None else None
        # Optional search-token log (reference log.py; Q7: only tokens
        # with non-empty postings are logged).
        if log_dir is not None:
            from konlsearch_ray.pipelines.logagg import SearchLog

            self.search_log = SearchLog(log_dir)
        else:
            self.search_log = None
        check_version(index_dir)
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self.n_docs = int(self.stats["N"])
        self.avgdl = float(self.stats["avgdl"]) or 1.0

        # Tombstones: deleted docs are masked out of every posting list at
        # decode time; collection stats are recomputed over live docs so
        # BM25 reflects deletions immediately (segment rewrite happens
        # lazily via tombstone.compact_index — SURVEY.md SO5).
        from konlsearch_ray.tombstone import load_tombstones

        self._dead = load_tombstones(index_dir)
        nums = [s for s in shard_nums(index_dir)
                if self.shards is None or s in self.shards]
        self._store = PostingStore(index_dir, nums, self._dead)
        dl = read_doclens(index_dir, nums)
        dl_docs = dl["doc_id"].to_numpy()  # ascending across shards
        dl_vals = dl["doc_len"].to_numpy().astype(np.float64)
        # The doc-id window [_dl_first, _dl_first + _dl_span) holds every
        # id of the reader's shards; dense BM25 and _lnorm index it.
        n_dl = len(dl_docs)
        self._dl_first = int(dl_docs[0]) if n_dl else 0
        self._dl_span = int(dl_docs[-1]) - self._dl_first + 1 if n_dl else 0

        # Global df: sorted term bytes + aligned df values (probed with
        # searchsorted, memoized) — no Python dict over the vocabulary.
        self._global_df: tuple[np.ndarray, np.ndarray] | None = None
        self._gdf_memo: dict[str, int] = {}
        if use_global_df:
            dt = read_dictionary(index_dir, ["term", "df"])
            if dt.num_rows:
                terms_s = _string_col_to_S(dt["term"])
                order = np.argsort(terms_s, kind="stable")
                dfs = dt["df"].to_numpy(zero_copy_only=False).astype(np.int64)
                self._global_df = (terms_s[order], dfs[order])

        if len(self._dead):
            if self.shards is None:
                g_docs, g_vals = dl_docs, dl_vals
            else:
                # Shard-subset reader: collection stats must stay GLOBAL
                # for idf/avgdl to match the whole-index reader; read every
                # shard's (small) doclens just for the stats.
                g = read_doclens(index_dir, shard_nums(index_dir))
                g_docs = g["doc_id"].to_numpy()
                g_vals = g["doc_len"].to_numpy().astype(np.float64)
            live = ~np.isin(g_docs, self._dead, assume_unique=True)
            self.n_docs = int(live.sum())
            live_tokens = float(g_vals[live].sum())
            self.avgdl = live_tokens / self.n_docs if live_tokens else 1.0
        # BM25's length norm K1·(1 − B + B·dl/avgdl) per window id (NaN
        # off doclens), set once avgdl is live: scoring gathers it per
        # posting. MaxScore's bounds take it at the shortest doc.
        self._lnorm = np.full(self._dl_span, np.nan)
        self._lnorm[dl_docs - self._dl_first] = (
            K1 * (1 - B + B * dl_vals / self.avgdl))
        min_dl = float(dl_vals.min()) if n_dl else 1.0
        self._min_norm = K1 * (1 - B + B * min_dl / self.avgdl)

    @cached_property
    def _docstore(self):
        """The index's docstore, opened on first use: more-like-this and
        facets read stored rows, no other query does."""
        from konlsearch_ray.docstore import DocStore

        return DocStore(self.index_dir)

    # --- posting access -------------------------------------------------
    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """term → (doc_ids asc, tfs, first_positions)."""
        return self._store.postings(term)

    def postings_scores(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """term → (doc_ids asc, tfs) WITHOUT the position stream —
        Boolean and BM25 paths never touch positions, so their decode is
        deferred until a PHRASE query asks (``postings``)."""
        e = self._store.entry(term)
        return e.ids, e.tfs

    def df(self, term: str) -> int:
        return len(self._store.entry(term).ids)

    def block_upper_tf(self, term: str) -> np.ndarray:
        """Per-posting-entry block-max tf, aligned with ``postings_scores``.

        Entry ``i`` of term's posting list gets the max tf of the
        BLOCK_SIZE-entry block it belongs to (within its shard segment).
        The store keeps one value per block; this expands it on demand.
        """
        e = self._store.bounds(self._store.entry(term))
        out = np.repeat(e.bmax, e.bcount)
        return out if e.live is None else out[e.live]

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
        parts = self._posting_ids(toks)
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

    def _posting_ids(self, toks: list[str]) -> list[np.ndarray]:
        """Each token's live posting ids, the cold ones decoded in one
        batch; logs every token with postings to the search log."""
        parts = [e.ids for e in self._store.entries(toks)]
        if self.search_log is not None:
            for t, ids in zip(toks, parts):
                if len(ids):
                    self.search_log.log(t, len(ids))
        return parts

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
            cur = pos[_probe(ids, cand)].astype(np.int64)
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
        parts = self._posting_ids(toks)
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
        keys = self._store.keys
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
        vocabulary scan — but vectorized, not per-term Python. The
        store's ``term_column`` is already an Arrow string column (one
        row per (term, segment) cell), so the scan is one zero-copy
        :func:`pyarrow.compute` RE2 kernel; cost is proportional to
        VOCABULARY size (terms × avg term bytes), never corpus size,
        and in the sharded engine each
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
        col = self._store.term_column
        mask = (pc.match_substring_regex(col, pat) if regex
                else pc.match_substring(col, pat))
        return sorted(pc.unique(col.filter(mask)).to_pylist())[:limit]

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

        Filter then verify, both from the index: (1) the AND
        intersection over postings yields the candidate set; (2) each
        query term's stored positions (``PostingStore.positions``, every
        occurrence the build tokenized) are cut to the candidates, and a
        single flat-array window check runs over those occurrences: an
        anchor occurrence ``a`` matches iff every term has an occurrence
        in ``[a, a + slop]``; the minimal window starts at an occurrence
        of one of the terms, so anchoring at every occurrence is exact.
        No docstore read and no re-tokenization: cost is ∝ query-term
        occurrences in the CANDIDATE docs, and in the sharded engine
        each actor verifies its own shards. ``analyzer`` is accepted for
        compatibility and ignored: positions come from the index's own
        analyzer at build time. Ascending doc ids.

        ``ordered=True`` is the ordered-span (sloppy-phrase) variant:
        occurrences must appear in QUERY order (strictly increasing
        positions, duplicates in the query need distinct occurrences)
        with total span ≤ ``slop``. Checked by a greedy searchsorted
        chain from every first-term anchor — greedy takes the earliest
        legal next occurrence, which only loosens the constraint on the
        terms after it, so existence is decided exactly."""
        return self._near_ids(tokens, slop, ordered).tolist()

    def _near_ids(self, tokens: list[str], slop: int = 2,
                  ordered: bool = False) -> np.ndarray:
        """Array form of :meth:`search_near`."""
        if slop < 0:
            raise ValueError(f"slop must be >= 0, got {slop}")
        seq = normalize_query_tokens(tokens)
        tset = sorted(set(seq))
        cand = self._search_ids(tset, SearchMode.AND)
        if len(seq) <= 1 or not len(cand):
            return cand
        # Each term's occurrences in the candidates. cand is a subset of
        # every term's postings, so the probe finds its postings.
        doc_idx, codes, pos = [], [], []
        store = self._store
        for c, (e, allpos) in enumerate(zip(store.entries(tset),
                                            store.positions(tset))):
            m = np.zeros(len(e.ids), dtype=bool)
            m[_probe(e.ids, cand)] = True
            tf = e.tfs[m]
            doc_idx.append(np.repeat(np.arange(len(cand)), tf))
            codes.append(np.full(len(doc_idx[-1]), c))
            pos.append(allpos[np.repeat(m, e.tfs)])
        return _near_windows(cand, np.concatenate(doc_idx),
                             np.concatenate(codes), np.concatenate(pos),
                             seq, slop, ordered)

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

    @staticmethod
    def _kernel(w: float, tf, norm):
        """BM25 term kernel over a doc's length norm (``_lnorm``) — the
        ONE formula behind the exact path, the pruned path, its bounds and
        ``explain``, so their scores are bit-identical (ranking ties
        included). Takes numpy arrays or Python scalars alike (an integer
        tf converts exactly in the first multiply). The cached impacts
        (``_impacts``) are its output over a term's whole posting list;
        the BM25 scorers add slices of them."""
        return w * tf * (K1 + 1) / (tf + norm)

    def _impacts(self, t: str, e, boost: "float | None" = None,
                 at: "np.ndarray | None" = None) -> np.ndarray:
        """The BM25 contribution of term ``t``'s live postings at
        positions ``at`` of ``e.ids`` (an index array or mask; None =
        all). Unboosted (``boost`` None or 1.0) the whole list is computed
        once per reader and kept on the entry (``e.imp``): idf, tf and the
        length norms never change during a reader's life. A boosted term's
        impacts are computed per call, only at ``at``, and never cached."""
        if boost is None or boost == 1.0:
            if e.imp is None:
                e.imp = self._kernel(self.idf(t), e.tfs,
                                     self._lnorm[e.ids - self._dl_first])
            return e.imp if at is None else e.imp[at]
        ids, tfs = (e.ids, e.tfs) if at is None else (e.ids[at], e.tfs[at])
        return self._kernel(self.idf(t) * boost, tfs,
                            self._lnorm[ids - self._dl_first])

    def bm25_topk(
        self, tokens: list[str], k: int = 10, prune: bool = True,
        allowed: "np.ndarray | None" = None,
        boosts: "dict[str, float] | None" = None,
    ) -> list[tuple[int, float]]:
        """BM25 top-k, rank-identical to the exact path. Three scorers,
        whose results (ids AND scores) are the same bit for bit:

        - dense (``_bm25_dense``): an unfiltered, unboosted query whose
          non-empty terms are all dense on this reader (each in at least
          1/``_DENSE`` of its doc-id window) with idf > 0, pruned or
          not. It adds per-term impact vectors over the window, cached
          per term, and takes one top-k: such terms cover nearly every
          doc, so MaxScore would skip little;
        - MaxScore (``_bm25_maxscore``), described below;
        - exact (``_bm25_exact``): every other query, and any query
          with a term of idf ≤ 0 (a global-df reader on an uncompacted
          tombstoned index can see a df above the live N).

        ``prune=True`` (default) runs term-at-a-time MaxScore with
        block-max upper bounds from the segments' per-block max tf
        metadata (the block-max-WAND family — north-star requirement):
        terms are processed in descending max-impact order; a posting
        entry is skipped when its block's score upper bound plus the
        remaining terms' upper bounds is strictly below the running
        top-k threshold. Pruning is *safe*: only docs provably below
        the k-th best score are skipped, so results (ids AND scores)
        equal ``prune=False`` exactly (ties broken by ascending doc_id).
        MaxScore skips whole ``BLOCK_SIZE``-entry blocks, so a query
        whose terms hold at most ``BLOCK_SIZE`` live postings in all
        gives it nothing to skip: it takes the exact scorer instead
        (same sums, same order). A candidate's probes into the other
        terms' lists go through ``_probe``: a table gather where the
        ids are dense, a binary search elsewhere. ``k`` must be ≥ 0
        (``ValueError`` otherwise); ``k = 0`` returns ``[]``.

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

        All three add each term's per-posting impacts (``_impacts``).
        An unboosted term's impacts are computed once per reader, the
        first time BM25 scores it, and cached on its posting entry; a
        boosted term (boost other than 1.0) computes them on every query,
        uncached, for only the postings the query scores or probes.
        ``boosts={}`` is no boosts.
        """
        _check_k(k)
        toks = sorted(set(normalize_query_tokens(tokens)))
        if boosts is not None:
            boosts = {
                nt: float(w)
                for t, w in boosts.items()
                for nt in normalize_query_tokens([t])}
            if any(w <= 0 for w in boosts.values()):
                raise ValueError("boosts must be positive")
        entries = self._store.entries(toks)
        if allowed is not None:
            return self._bm25_exact(toks, k, entries, boosts,
                                    np.asarray(allowed, dtype=np.int64))
        if not boosts and self._all_dense(toks, entries):
            return self._bm25_dense(toks, k, entries)
        if (prune and len(toks) > 1
                and sum([len(e.ids) for e in entries]) > BLOCK_SIZE):
            return self._bm25_maxscore(toks, k, entries, boosts)
        return self._bm25_exact(toks, k, entries, boosts)

    def _bm25_exact(self, toks: list[str], k: int, entries: list,
                    boosts: "dict[str, float] | None" = None,
                    allowed: "np.ndarray | None" = None,
                    ) -> list[tuple[int, float]]:
        """The exact scorer over ``entries`` (the store's entries of
        ``toks``, in their order): every live posting of every term (the
        ``allowed`` ones only, when given) is scored, and one ``bincount``
        over their id union adds each doc's impacts in sorted-token
        order."""
        id_parts, score_parts = [], []
        for t, e in zip(toks, entries):
            m = None if allowed is None else _in_sorted(e.ids, allowed)
            ids = e.ids if m is None else e.ids[m]
            if len(ids) == 0:
                continue
            id_parts.append(ids)
            score_parts.append(
                self._impacts(t, e, boosts.get(t) if boosts else None, m))
        if not id_parts:
            return []
        uniq, inv = np.unique(np.concatenate(id_parts), return_inverse=True)
        return _topk(uniq, np.bincount(inv, weights=np.concatenate(score_parts)),
                     k)

    def _all_dense(self, toks: list[str], entries: list) -> bool:
        """Whether the query's non-empty terms (at least one) are all
        dense on this reader, ``_DENSE`` × live df ≥ the doc-id window,
        with idf > 0: a stale global df above the live N makes idf ≤ 0,
        and a score ≤ 0 cannot be told from the zeros of an absent doc.
        A term that has an impact vector (``dimp``) passed this check
        before, and idf never changes during a reader's life."""
        n = 0
        for t, e in zip(toks, entries):
            if e.dimp is not None:
                n += 1
            elif len(e.ids):
                if (_DENSE * len(e.ids) < self._dl_span
                        or self.idf(t) <= 0):
                    return False
                n += 1
        return n > 0

    def _bm25_dense(self, toks: list[str], k: int,
                    entries: list) -> list[tuple[int, float]]:
        """The dense exact scorer over ``entries`` (the store's entries of
        ``toks``, in their order, see ``_all_dense``): each non-empty
        term's impacts scatter once into a vector over the doc-id window,
        cached on its entry (``dimp``); a query adds the vectors in
        sorted-token order (0.0 + x is x, so each doc's sum is the one
        ``bincount`` and MaxScore form, bit for bit) and takes one top-k
        over the window. Every impact is > 0 (idf > 0, tf ≥ 1), so the
        docs with no query term are the zeros and never rank."""
        if k == 0:
            return []
        acc = None
        for t, e in zip(toks, entries):
            if not len(e.ids):
                continue
            if e.dimp is None:
                e.dimp = np.zeros(self._dl_span)
                e.dimp[e.ids - self._dl_first] = self._impacts(t, e)
            acc = e.dimp if acc is None else acc + e.dimp
        n = len(acc)
        kth = np.partition(acc, n - k)[n - k] if k < n else 0.0
        if kth > 0:  # at least k docs score: the ones ≥ the k-th best
            at = np.flatnonzero(acc >= kth)
            return _topk(at + self._dl_first, acc[at], k, kth=kth)
        at = np.flatnonzero(acc)  # fewer than k docs hold a query term
        return _topk(at + self._dl_first, acc[at], k)

    def _bm25_maxscore(self, toks: list[str], k: int, entries: list,
                       boosts: "dict[str, float] | None" = None,
                       ) -> list[tuple[int, float]]:
        """Term-at-a-time MaxScore with block-max skip (see bm25_topk)
        over ``entries``, the store's entries of ``toks`` in their order.

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
        terms = []  # (weight, entry, token, boost), sorted-token order
        for t, e in zip(toks, entries):
            if len(e.ids):
                boost = boosts.get(t) if boosts else None
                terms.append((self.idf(t) * (boost or 1.0), e, t, boost))
        if any(w <= 0 for w, *_ in terms):
            # A stale global df above the live N gives idf ≤ 0, and the
            # bounds below are maxima only for a positive weight.
            return self._bm25_exact(toks, k, entries, boosts)
        # Term upper bound: its max live tf at the shortest doc. Block
        # bounds are built at the term's first block skip, once θ is
        # finite; a query whose candidates never reach k builds none.
        ubs = [self._kernel(w, e.maxtf, self._min_norm) for w, e, *_ in terms]
        order = sorted(range(len(terms)), key=lambda j: -ubs[j])
        suffix = [0.0] * (len(order) + 1)
        for r in range(len(order) - 1, -1, -1):
            suffix[r] = suffix[r + 1] + ubs[order[r]]
        done = [False] * len(terms)
        cand_ids = cand_scores = None
        theta, theta_n = -math.inf, -1  # θ and the candidate count it saw
        for r, j in enumerate(order):
            if suffix[r] < theta:
                break  # no unseen doc can reach the top-k
            w, e, t, boost = terms[j]
            at = None  # positions in e.ids still to score; None = all
            done[j] = True
            if theta > -math.inf:
                self._store.bounds(e)
                keep = (self._kernel(w, e.bmax, self._min_norm)
                        + suffix[r + 1] >= theta)
                if not keep.all():
                    keep = np.repeat(keep, e.bcount)
                    if e.live is not None:
                        keep = keep[e.live]
                    at = np.flatnonzero(keep)
            ids = e.ids if at is None else e.ids[at]
            if cand_ids is not None:
                new = np.flatnonzero(~_in_sorted(ids, cand_ids))
                at = new if at is None else at[new]
                ids = ids[new]
            if not len(ids):
                continue
            scores = np.zeros(len(ids))
            for jj, (_, ej, tj, bj) in enumerate(terms):
                if jj == j:
                    scores += self._impacts(t, e, boost, at)
                elif not done[jj]:
                    p = _probe(ej.ids, ids)
                    hit = ej.ids[p] == ids
                    if hit.any():
                        scores[hit] += self._impacts(tj, ej, bj, p[hit])
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
                    theta_n = n
        if cand_ids is None:
            return []
        # θ is still the k-th best score when no candidate came after it.
        return _topk(cand_ids, cand_scores, k,
                     kth=theta if theta_n == len(cand_ids) else None)

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
            norm = float(self._lnorm[did - self._dl_first])  # did is live
            out.append({"term": t, "tf": tf, "idf": w,
                        "contrib": self._kernel(w, tf, norm)})
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
            t = read_dictionary(self.index_dir, ["term", "df"])
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
        _check_k(k)
        toks = self._docstore.get_ordered_tokens(doc_id, analyzer=analyzer)
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
        ``count_all`` group; a ``bucket_fold`` routed by the facet
        sums the partials inside the Dataset, so only
        the folded rows — one per distinct facet — reach the driver.
        """
        ids = self._search_ids(tokens, mode)
        store = self._docstore
        if len(ids) <= FACET_SCAN_MIN_HITS:
            if not len(ids):
                return _empty_facets()
            meta = store.get_multi(ids, columns=["doc_id", facet_col])
            out = _fold_facet_counts(meta[facet_col])
        else:
            import ray

            from konlsearch_ray.functions.blocks import bucket_fold

            # The stored column's own type — the fold must return it
            # whatever the hit-set size (footer-only read).
            ftype = store.schema().field(facet_col).type
            ids_ref = ray.put(ids)

            def _facet_partial(t: pa.Table) -> pa.Table:
                hit_ids = ray.get(ids_ref)  # zero-copy shared-memory read
                col = t["doc_id"].to_numpy()
                pos = np.searchsorted(hit_ids, col)
                pos[pos >= len(hit_ids)] = 0
                mask = hit_ids[pos] == col
                return _fold_facet_counts(t[facet_col].filter(pa.array(mask)))

            folded = bucket_fold(store.scan(columns=[facet_col]), "facet",
                                 _sum_facet_counts, partial=_facet_partial,
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


def _check_k(k: int) -> None:
    """Reject a negative top-k size: ``[:k]`` would keep all but the
    last ``-k`` hits. ``k = 0`` is an empty result."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def _merge_ids(parts) -> list[int]:
    """Disjoint per-subset ascending id arrays (or lists) → one
    ascending list."""
    return np.sort(np.concatenate(
        [np.asarray(p, dtype=np.int64) for p in parts])).tolist()


def _topk(ids: np.ndarray, scores: np.ndarray, k: int,
          kth: "float | None" = None) -> list[tuple[int, float]]:
    """The ``k`` best (doc_id, score) pairs by (score desc, doc_id asc) —
    the ONE ranking every BM25 path returns. Only the entries tied with
    or above the k-th best score are sorted, so ties at the cut keep
    the lowest doc ids. ``kth``: that k-th best score when the caller
    already knows it (MaxScore's θ), saving the partition."""
    n = len(ids)
    if 0 < k < n:
        if kth is None:
            kth = np.partition(scores, n - k)[n - k]
        sel = scores >= kth
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
    only its shard subset, a contiguous run of about 1/K of the shards
    (``_sharded_groups``, the ShardedQueryEngine layout behind the
    Dataset API), so its segments and its doc-id window — the
    ``_lnorm`` table and dense impact vectors, 8 B per window id — are
    about index/K. The cached postings grow with the terms it serves
    (unbounded today). It emits per-doc
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
    from konlsearch_ray.functions.blocks import runs

    q = t["qid"].to_numpy()
    d = t["doc_id"].to_numpy()
    s = t["score"].to_numpy()
    order = np.lexsort((d, -s, q))
    q, d, s = q[order], d[order], s[order]
    starts, lens = runs(q)
    rank = np.arange(len(q)) - np.repeat(starts, lens)
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
    pool per group (each actor holds ONLY its group, a contiguous run of
    shards: segments and doc-id window about index/K instead of the
    whole index), the partial streams union, and
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
    """Validated shard groups for the sharded serving paths
    (``sharded_query_pipeline`` and ``ShardedQueryEngine`` share this so
    the compaction precondition lives in one place): ``k`` contiguous
    runs of the ascending shard numbers whose sizes differ by at most
    one. A shard holds a contiguous doc-id range, so a group's reader
    window W (its ``_lnorm`` and dense impact vectors, 8·W bytes each)
    spans at most (group size × ``shard_size``) ids, not the whole
    index, and its dense rule sees the group's own docs. A zero-document
    index gets one empty group, so it serves empty results as the
    whole-index reader does. Requires a compacted index: dictionary/ df
    is physical (pre-delete) and a subset reader cannot recompute live df
    for terms outside its subset, so scores would drift from the
    whole-index reader."""
    from konlsearch_ray.tombstone import load_tombstones

    if len(load_tombstones(index_dir)):
        raise ValueError(
            f"{caller} requires a compacted index — run "
            "konlsearch_ray.tombstone.compact_index() first")
    shard_ids = shard_nums(index_dir)
    k = max(1, min(k, len(shard_ids)))
    size, extra = divmod(len(shard_ids), k)
    cuts = [i * size + min(i, extra) for i in range(k + 1)]
    return [shard_ids[a:b] for a, b in zip(cuts, cuts[1:])]


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
        pairs cross the wire, in the stored column's Arrow type so the
        merged table keeps it even when every facet is null."""
        ids = self.reader._search_ids(tokens, mode)
        if not len(ids):
            return _empty_facets(
                self._docstore.schema().field(facet_col).type)
        meta = self._docstore.get_multi(ids, columns=["doc_id", facet_col])
        return _fold_facet_counts(meta[facet_col])


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
        _check_k(k)
        return _merge_topk(
            self._gather("bm25_topk", tokens, k, boosts=boosts), k)

    def bm25_topk_filtered(self, tokens, k, flt):
        """Filtered BM25 (pyarrow dataset expression ``flt``, e.g.
        ``pads.field("lang") == "ko"``): each actor resolves the
        predicate over its own shards; scores keep corpus-level stats."""
        _check_k(k)
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
        _check_k(k)
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
        return _sort_facets(_sum_facet_counts(pa.concat_tables(parts)), k)

    def shutdown(self):
        import ray as _ray

        for a in self._actors:
            _ray.kill(a)
        self._actors = []
