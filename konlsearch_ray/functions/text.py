"""Text analysis over a document table — vectorized Ray Data stages.

All functions take/return ``ray.data.Dataset`` and use the normative
analyzer (analyzer.py) so results agree with the DuckDB oracle SQL that
re-derives the same token stream.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from konlsearch_ray.analyzer import analyze_strings, analyze_strings_coded

# Small fixed stopword lists for the heuristic language-ID vote. Order of
# ``LANG_ORDER`` is the deterministic tie-break (first wins on equal votes).
STOPWORDS = {
    "en": ("the", "a", "of", "to", "and", "in", "is"),
    "es": ("el", "la", "de", "y", "que", "los"),
    "de": ("der", "die", "und", "das", "ist", "nicht"),
    "fr": ("le", "et", "les", "des", "une", "dans"),
}
LANG_ORDER = ("en", "es", "de", "fr")

# Rolling-hash fingerprint parameters (spec'd; M31 keeps every product in
# 62 bits so the whole pipeline stays in vectorized uint64 arithmetic).
FP_MOD = np.uint64(2**31 - 1)
FP_BASE = np.uint64(131)


def _doc_token_arrays(batch: pa.Table, content_col: str):
    """batch → (doc_ids np, per-doc slices of the kept token stream)."""
    occ = analyze_strings(batch[content_col])
    doc_idx, terms = occ["doc_idx"], occ["term"]
    n_docs = batch.num_rows
    counts = np.bincount(doc_idx, minlength=n_docs).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return counts, offsets, terms


def _doc_coded_arrays(batch: pa.Table, content_col: str):
    """batch → (per-doc counts, occ doc_idx, occ term codes, dictionary).

    The factorized-code form: per-token work happens once per DISTINCT
    term (over the dictionary) and fans out via codes — no Python loop
    ever touches the occurrence stream."""
    doc_idx, codes, _pos, dictionary = analyze_strings_coded(batch[content_col])
    counts = np.bincount(doc_idx, minlength=batch.num_rows).astype(np.int64)
    return counts, doc_idx, codes, dictionary


def token_counts(ds: ray.data.Dataset, content_col: str, id_col: str) -> ray.data.Dataset:
    """Per doc: total kept tokens + distinct terms — one combined-key
    np.unique over (doc, code), no per-doc Python sets."""

    def fn(batch: pa.Table) -> pa.Table:
        counts, doc_idx, codes, dictionary = _doc_coded_arrays(batch, content_col)
        nvocab = len(dictionary) + 1
        if len(codes):
            uniq = np.unique(doc_idx * nvocab + codes)
            distinct = np.bincount(uniq // nvocab, minlength=batch.num_rows)
        else:
            distinct = np.zeros(batch.num_rows, dtype=np.int64)
        return pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                "n_tokens": pa.array(counts),
                "n_distinct": pa.array(distinct.astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def quality_profile(ds: ray.data.Dataset, content_col: str, id_col: str) -> ray.data.Dataset:
    """Per doc: token counts, type-token ratio, stopword ratio, mean token len.

    Ratios are raw IEEE double divisions of exact integer counts — the SQL
    oracle performs the same division on the same ints, so values match
    bit-for-bit without rounding. Fully vectorized: stopword membership
    and token length are computed once per distinct term (``pc.is_in`` /
    ``pc.utf8_length`` over the dictionary) and per-doc sums are
    ``np.bincount`` over the code stream.
    """
    stop_en = pa.array(list(STOPWORDS["en"]), pa.string())

    def fn(batch: pa.Table) -> pa.Table:
        counts, doc_idx, codes, dictionary = _doc_coded_arrays(batch, content_col)
        n = batch.num_rows
        nvocab = len(dictionary) + 1
        ttr = np.zeros(n); stop_ratio = np.zeros(n); mean_len = np.zeros(n)
        if len(codes):
            uniq = np.unique(doc_idx * nvocab + codes)
            distinct = np.bincount(uniq // nvocab, minlength=n)
            is_stop = pc.is_in(dictionary, value_set=stop_en).to_numpy(
                zero_copy_only=False).astype(np.float64)
            tok_len = pc.utf8_length(dictionary.cast(pa.string())).to_numpy(
                zero_copy_only=False).astype(np.float64)
            stop_sum = np.bincount(doc_idx, weights=is_stop[codes], minlength=n)
            len_sum = np.bincount(doc_idx, weights=tok_len[codes], minlength=n)
            nz = counts > 0
            ttr[nz] = distinct[nz] / counts[nz]
            stop_ratio[nz] = stop_sum[nz] / counts[nz]
            mean_len[nz] = len_sum[nz] / counts[nz]
        return pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                "n_tokens": pa.array(counts),
                "ttr": pa.array(ttr),
                "stop_ratio": pa.array(stop_ratio),
                "mean_token_len": pa.array(mean_len),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def lang_id(ds: ray.data.Dataset, content_col: str, id_col: str) -> ray.data.Dataset:
    """Heuristic language ID: stopword vote per language, deterministic
    tie-break by ``LANG_ORDER`` (argmax over columns in that order picks
    the first maximum); zero votes → 'und'. Votes are per-distinct-term
    ``pc.is_in`` fanned out through ``np.bincount`` — no Python loops."""

    def fn(batch: pa.Table) -> pa.Table:
        counts, doc_idx, codes, dictionary = _doc_coded_arrays(batch, content_col)
        n = batch.num_rows
        votes = np.zeros((n, len(LANG_ORDER)), dtype=np.int64)
        if len(codes):
            for li, lg in enumerate(LANG_ORDER):
                is_stop = pc.is_in(
                    dictionary, value_set=pa.array(list(STOPWORDS[lg]))
                ).to_numpy(zero_copy_only=False).astype(np.float64)
                votes[:, li] = np.bincount(
                    doc_idx, weights=is_stop[codes], minlength=n).astype(np.int64)
        best = votes.max(axis=1)
        pick = np.argmax(votes, axis=1)  # first max in LANG_ORDER
        langs = np.array(LANG_ORDER, dtype=object)
        labels = np.where(best == 0, "und", langs[pick])
        return pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                "lang_guess": pa.array(labels, pa.string()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# GPT-2-style pre-tokenizer pattern (the public BPE regex shape:
# contraction suffixes, letter runs, digit runs, punctuation runs,
# whitespace). RE2 syntax — identical semantics in pyarrow and DuckDB,
# so the count is oracle-checkable.
BPE_RE = r"'(?:[sdmt]|ll|ve|re)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def bpe_token_counts(
    ds: ray.data.Dataset, content_col: str, id_col: str
) -> ray.data.Dataset:
    """Per doc: BPE-ish token count — the training-cost estimator.

    One vectorized ``pc.count_substring_regex`` pass per batch counts the
    GPT-2-style pre-tokenizer matches (an upper bound proxy for BPE piece
    count without a merges table; exact relative ordering of documents by
    token cost, which is what corpus budgeting needs)."""

    def fn(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            pc.cast(batch[content_col], pa.string()), pattern=BPE_RE)
        return pa.table({
            id_col: batch[id_col].cast(pa.int64()),
            "n_bpe_tokens": pc.cast(pc.fill_null(n, 0), pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def _token_hashes(terms: np.ndarray) -> np.ndarray:
    """Deterministic 31-bit hash per token: md5 4-byte prefix mod M31.

    md5 (not blake2b) so SQL engines reproduce the fingerprint
    bit-identically (DuckDB ``md5()``) — the same digest trade the
    SimHash and hash-split paths make; per-UNIQUE-term cost, bounded per
    batch."""
    uniq, inv = np.unique(terms, return_inverse=True) if len(terms) else (
        np.array([], dtype=object), np.array([], dtype=np.int64))
    hashes = np.array(
        [int.from_bytes(hashlib.md5(t.encode()).digest()[:4], "big")
         % int(FP_MOD) for t in uniq],
        dtype=np.uint64,
    )
    return hashes[inv] if len(terms) else hashes


def fingerprints(ds: ray.data.Dataset, content_col: str, id_col: str) -> ray.data.Dataset:
    """Rolling polynomial hash of each doc's kept token stream.

    fp(doc) = Σ_i h(tok_i) · BASE^(n-1-i) mod M31 — vectorized with
    precomputed powers + segment sums (np.add.reduceat), no per-token loop.
    """

    def fn(batch: pa.Table) -> pa.Table:
        counts, offsets, terms = _doc_token_arrays(batch, content_col)
        h = _token_hashes(terms)
        n_docs = batch.num_rows
        fp = np.zeros(n_docs, dtype=np.uint64)
        if len(h):
            maxlen = int(counts.max())
            powers = np.ones(maxlen, dtype=np.uint64)
            for j in range(1, maxlen):
                powers[j] = (powers[j - 1] * FP_BASE) % FP_MOD
            # exponent for token at flat index t in doc i: counts[i]-1-(t-offsets[i])
            doc_of = np.repeat(np.arange(n_docs), counts)
            local = np.arange(len(h)) - offsets[doc_of]
            exp = counts[doc_of] - 1 - local
            prod = (h * powers[exp]) % FP_MOD  # ≤ (2^31)^2 < 2^62, no overflow
            nonempty = counts > 0
            sums = np.add.reduceat(prod, offsets[:-1][nonempty])
            fp[nonempty] = sums % FP_MOD
        return pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                "fingerprint": pa.array(fp.astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def repetition_profile(
    ds: ray.data.Dataset, content_col: str, id_col: str
) -> ray.data.Dataset:
    """Per doc: within-document repetition signals for quality filtering
    (the Gopher-rules shape — Rae et al. 2021, public): duplicate-token
    fraction and the fraction of bigram slots taken by the single most
    frequent bigram.  Reported in integer basis points
    (``x * 10000 // denom``) so any engine reproduces them bit-identically
    (float rounding modes differ across engines).

    Fully vectorized: tokens come factorized from the analyzer, distinct
    counts are one combined-key ``np.unique``, and per-doc top-bigram
    counts are one ``np.unique`` over (doc, code, code) composite keys +
    ``np.maximum.reduceat`` over the doc segments — no Python loop over
    occurrences.
    """

    def fn(batch: pa.Table) -> pa.Table:
        counts, doc_idx, codes, dictionary = _doc_coded_arrays(batch, content_col)
        n = batch.num_rows
        distinct = np.zeros(n, dtype=np.int64)
        top_bg = np.zeros(n, dtype=np.int64)
        if len(codes):
            nv = np.int64(len(dictionary) + 1)
            uniq = np.unique(doc_idx * nv + codes)
            distinct = np.bincount(uniq // nv, minlength=n).astype(np.int64)
            same = doc_idx[:-1] == doc_idx[1:]
            if same.any():
                bd = doc_idx[:-1][same]
                key = (bd * nv + codes[:-1][same]) * nv + codes[1:][same]
                uk, cnt = np.unique(key, return_counts=True)
                docs_of = uk // (nv * nv)  # sorted ⇒ non-decreasing
                starts = np.concatenate(
                    ([0], np.flatnonzero(np.diff(docs_of)) + 1))
                top_bg[docs_of[starts]] = np.maximum.reduceat(cnt, starts)
        dup_bp = np.zeros(n, dtype=np.int64)
        nz = counts > 0
        dup_bp[nz] = (counts[nz] - distinct[nz]) * 10000 // counts[nz]
        bg_bp = np.zeros(n, dtype=np.int64)
        m2 = counts >= 2
        bg_bp[m2] = top_bg[m2] * 10000 // (counts[m2] - 1)
        return pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                "n_tokens": pa.array(counts),
                "dup_token_bp": pa.array(dup_bp),
                "top_bigram_bp": pa.array(bg_bp),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def json_int_field(
    ds: ray.data.Dataset,
    col: str,
    key: str,
    id_col: str,
    out_col: str | None = None,
) -> ray.data.Dataset:
    """Extract an integer field from FLAT JSON metadata strings — the
    source-normalization shape for simple props columns — as one
    vectorized ``pc.extract_regex`` pass per batch (no per-row parser).
    Rows without the field yield null. For nested or general JSON,
    use a real parser inside an actor-pool stage instead; this fast
    path is spec'd for non-nested numeric fields only (the regex
    anchors on the quoted key, so it cannot cross into nested objects
    that repeat the key — callers with such schemas need the parser).

    The key match requires a preceding ``{`` or ``,``: inside a valid
    JSON string VALUE every quote is escaped (``\\"``) and therefore
    preceded by a backslash, so the anchor cannot fire on a quoted key
    that merely appears as text inside another field's value.
    """
    import re as _re

    out_col = out_col or key
    pattern = f'[{{,]\\s*"{_re.escape(key)}"\\s*:\\s*(?P<v>-?\\d+)'

    def fn(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t[col], pattern)
        v = pc.cast(pc.struct_field(m, "v"), pa.int64())
        return pa.table({id_col: t[id_col].cast(pa.int64()), out_col: v})

    return ds.map_batches(fn, batch_format="pyarrow")


# Redaction patterns: RE2 syntax, which BOTH Arrow and DuckDB compile —
# the oracle's regexp_replace(..., 'g') is semantics-identical.
URL_RE = r"https?://[^\s]+"
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+"
NUM_RE = r"[0-9]+"


def clean_text(
    ds: ray.data.Dataset,
    content_col: str,
    id_col: str,
    url_token: str = "<URL>",
    email_token: str = "<EMAIL>",
    num_token: str = "<NUM>",
) -> ray.data.Dataset:
    """Normalize/redact text for training: URLs, emails and digit runs
    become sentinel tokens, whitespace collapses to single spaces, and
    the result is trimmed — plus per-doc redaction counts (the audit
    signal a PII/dedup pass wants).

    Pure per-row work: one ``map_batches`` stage, five vectorized RE2
    kernel passes, no Python loop, no shuffle.  Counts are taken on the
    progressively-redacted string (an email inside a URL counts as URL
    only) so engine and oracle agree exactly.
    """

    def fn(t: pa.Table) -> pa.Table:
        col = t[content_col]
        n_urls = pc.cast(pc.count_substring_regex(col, URL_RE), pa.int64())
        col = pc.replace_substring_regex(col, URL_RE, url_token)
        n_emails = pc.cast(pc.count_substring_regex(col, EMAIL_RE), pa.int64())
        col = pc.replace_substring_regex(col, EMAIL_RE, email_token)
        n_nums = pc.cast(pc.count_substring_regex(col, NUM_RE), pa.int64())
        col = pc.replace_substring_regex(col, NUM_RE, num_token)
        col = pc.replace_substring_regex(col, r"\s+", " ")
        col = pc.utf8_trim(col, " ")
        return pa.table({
            id_col: t[id_col].cast(pa.int64()),
            "text_clean": col,
            "n_urls": n_urls,
            "n_emails": n_emails,
            "n_nums": n_nums,
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def tfidf_keywords(
    ds: ray.data.Dataset,
    content_col: str,
    id_col: str,
    k: int = 3,
    num_partitions: int = 8,
    broadcast_df_max: int = 2_000_000,
) -> ray.data.Dataset:
    """Per-document top-k keywords by tf·idf.

    The classic IR composition, shaped for scale: (1) per-block per-doc
    term counts (``tf``) via one combined-key sort — these rows are
    already the DISTINCT (doc, term) pairs; (2) ``df`` reduces map-side
    to per-block term counts (Arrow C++ group_by, ≤ vocab rows per
    block) before any exchange.

    Then TWO paths, auto-selected on the measured vocabulary size:

    - **broadcast** (vocab ≤ ``broadcast_df_max``): the folded df table
      is ``ray.put`` once and every tf block scores + takes its own
      per-doc top-k LOCALLY — a doc's tf rows never leave their block,
      so the whole pipeline has ZERO wide exchanges.
    - **join** (vocab too large to broadcast): hash-partitioned join of
      tf rows with the df table, then the grouped_topk partial+final
      kernel — every wide step moves data ∝ tf rows, never raw tokens.

    Both paths produce identical rows.  Scoring is integer-only —
    ``score = tf * ((N * 1_000_000) // df)`` — so any engine (numpy
    here, SQL window functions in the oracle) reproduces the ranking
    bit-identically; ties break by term asc.  Overflow is REFUSED, not
    wrapped: at billions of docs a df=1 term's multiplier times a large
    tf can exceed int64, which would silently rank a doc's most
    distinctive keyword last — such corpora get a clear error telling
    them to lower the idf scale.
    """
    from konlsearch_ray.functions.aggregates import grouped_topk
    from konlsearch_ray.functions.blocks import keyed_fold, pinned_nonempty

    n_docs = ds.count()

    def _scores(tf: np.ndarray, dfv: np.ndarray) -> np.ndarray:
        mult = (n_docs * 1_000_000) // dfv
        # Elementwise overflow check: a rare term's huge multiplier pairs
        # with ITS OWN tf, so comparing batch-wide maxima from different
        # rows would refuse corpora whose every real product fits.
        if len(tf) and np.any(mult > (2**63 - 1) // np.maximum(tf, 1)):
            raise ValueError(
                "tf-idf integer score would overflow int64 at this corpus "
                "size; rescale the idf multiplier (N * 1_000_000) for "
                f"n_docs={n_docs}")
        return tf * mult
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "term": pa.array([], pa.string()),
                      "tf": pa.array([], pa.int64())})

    def tf_batch(t: pa.Table) -> pa.Table:
        _counts, doc_idx, codes, dictionary = _doc_coded_arrays(t, content_col)
        if not len(codes):
            return empty
        v = len(dictionary)
        comb = doc_idx.astype(np.int64) * v + codes.astype(np.int64)
        order = np.argsort(comb, kind="stable")
        cs = comb[order]
        starts = np.flatnonzero(np.concatenate(([True], cs[1:] != cs[:-1])))
        tf = np.diff(np.append(starts, len(cs)))
        u = cs[starts]
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            id_col: pa.array(ids[u // v], pa.int64()),
            "term": pc.take(dictionary, pa.array(u % v, pa.int64())),
            "tf": pa.array(tf, pa.int64()),
        })

    tf_ds, tf_rows = pinned_nonempty(
        ds.map_batches(tf_batch, batch_format="pyarrow"),
        (id_col, "term", "tf"), fallback=empty)
    out_empty = pa.table({id_col: pa.array([], pa.int64()),
                          "term": pa.array([], pa.string()),
                          "tf": pa.array([], pa.int64()),
                          "df": pa.array([], pa.int64()),
                          "score": pa.array([], pa.int64())})
    if not tf_rows:
        return ray.data.from_arrow(out_empty)

    def df_partial(t: pa.Table) -> pa.Table:
        # tf rows ARE the distinct (doc, term) pairs, so a per-block
        # count by term is a df partial — ≤ vocab rows per block
        out = t.select(["term"]).group_by("term").aggregate([("term", "count")])
        return (out.rename_columns(["term", "pdf"])
                .replace_schema_metadata(None))

    from konlsearch_ray.functions.blocks import nonempty_refs

    refs, partial_rows = nonempty_refs(
        tf_ds.map_batches(df_partial, batch_format="pyarrow").materialize())

    if partial_rows <= broadcast_df_max:
        # Broadcast path: fold the vocab-sized partials on the driver,
        # ray.put once; a second streaming pass over the DOCUMENT rows
        # re-derives tf, scores and takes the per-doc top-k inside one
        # UDF — a doc is a single input row, so its term rows can never
        # straddle a block boundary, and nothing wide runs at all.
        from konlsearch_ray.functions.aggregates import _topk_within

        folded = (pa.concat_tables([ray.get(r) for r in refs])
                  .group_by("term").aggregate([("pdf", "sum")])
                  .rename_columns(["term", "df"]))
        df_ref = ray.put(folded.combine_chunks())

        def score_topk(t: pa.Table) -> pa.Table:
            tf_t = tf_batch(t)
            if not tf_t.num_rows:
                return out_empty
            dft = ray.get(df_ref)
            idx = pc.index_in(tf_t["term"], value_set=dft["term"])
            dfv = (pc.take(dft["df"], idx)
                   .to_numpy(zero_copy_only=False).astype(np.int64))
            tf = tf_t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
            s = _scores(tf, dfv)
            tf_t = (tf_t.append_column("df", pa.array(dfv, pa.int64()))
                    .append_column("score", pa.array(s, pa.int64())))
            return _topk_within(
                tf_t, id_col,
                [("score", "descending"), ("term", "ascending")], k)

        return ds.map_batches(score_topk, batch_format="pyarrow")

    # Join path (vocabulary too large to broadcast): fold partials with
    # one vocab-sized groupby, hash-join df back onto the tf rows, then
    # the grouped_topk partial+final kernel.
    def df_emit(g: pa.Table) -> pa.Table:
        tot = pc.sum(g["pdf"]).as_py()
        return pa.table({"term": g["term"][:1],
                         "df": pa.array([tot], pa.int64())})

    df_ds = keyed_fold(ray.data.from_arrow_refs(refs), "term", df_emit,
                       fallback=pa.table({"term": pa.array([], pa.string()),
                                          "df": pa.array([], pa.int64())}))

    j = tf_ds.join(df_ds, "inner", num_partitions=num_partitions,
                   on=("term",))

    def score(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = _scores(tf, df)
        return (t.append_column("score", pa.array(s, pa.int64()))
                .replace_schema_metadata(None))

    scored, s_rows = pinned_nonempty(
        j.map_batches(score, batch_format="pyarrow"),
        (id_col, "term", "tf", "df", "score"), fallback=out_empty)
    if not s_rows:
        return ray.data.from_arrow(out_empty)
    return grouped_topk(scored, id_col,
                        [("score", "descending"), ("term", "ascending")], k)


def url_domain_counts(
    ds: ray.data.Dataset,
    content_col: str,
    max_per_row: int = 16,
) -> ray.data.Dataset:
    """Per-domain URL counts over a text column — the source-attribution
    profile a web-corpus curation pass wants (per-domain quotas, block
    lists, dedup-by-origin).

    Vectorized extract-all: pyarrow has no extract_all kernel, so each
    pass extracts every row's FIRST remaining URL's host (one RE2
    ``extract_regex``), replaces it with a space (a bare removal could
    concatenate a URL-like prefix with the remainder and fabricate a
    match that never existed in the text), and repeats while any row
    still matches — each pass a C kernel over the whole batch, never a
    per-row Python loop. A row with more than ``max_per_row`` URLs
    RAISES rather than silently undercounting. Domains lowercase; the
    groupby moves domain-vocabulary rows only (per-batch value_counts
    partials).
    """
    pat_full = r"https?://[^/\s]+"
    pat_host = r"https?://(?P<host>[^/\s]+)"

    def partial(t: pa.Table) -> pa.Table:
        s = pc.cast(t[content_col], pa.string())
        parts = []
        for _ in range(max_per_row):
            m = pc.extract_regex(s, pat_host)
            if isinstance(m, pa.ChunkedArray):
                m = m.combine_chunks()
            if m.null_count == len(m):
                break
            host = pc.struct_field(m, 0).drop_null()
            parts.append(pc.utf8_lower(host))
            s = pc.replace_substring_regex(s, pat_full, " ",
                                           max_replacements=1)
        else:
            still = pc.extract_regex(s, pat_host)
            n_left = len(still) - still.null_count
            if n_left:
                raise ValueError(
                    f"{n_left} rows carry more than max_per_row="
                    f"{max_per_row} URLs — raise max_per_row (refusing "
                    f"to silently undercount)")
        if not parts:
            return pa.table({"domain": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        allh = pa.concat_arrays([p.combine_chunks()
                                 if isinstance(p, pa.ChunkedArray) else p
                                 for p in parts])
        vc = allh.value_counts()
        return pa.table({"domain": vc.field(0).cast(pa.string()),
                         "n": pc.cast(vc.field(1), pa.int64())})

    from ray.data.aggregate import Sum

    from konlsearch_ray.functions.blocks import nonempty_blocks

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("domain").aggregate(Sum("n", alias_name="n")))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"domain": t["domain"],
                         "n": pc.cast(t["n"], pa.int64())})

    empty = pa.table({"domain": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})
    return nonempty_blocks(out.map_batches(finish, batch_format="pyarrow"),
                           ("domain", "n"), fallback=empty)


def token_cooccurrence(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    window: int = 3,
    min_count: int = 5,
) -> ray.data.Dataset:
    """Windowed token co-occurrence counts — the skip-gram / PMI
    preparation table: for kept-token positions ``i < j`` within one
    document and ``j - i <= window``, count the UNORDERED pair
    ``(min(a, b), max(a, b))``.

    Scale shape: the whole partial runs on INTEGER token codes (the
    same ``analyze_strings_coded`` + shifted-slice pattern as
    ``ngrams._ngram_count_partial`` — object-string grouping is the
    slow path that dictionary encoding exists to avoid): positions in
    the kept stream are consecutive, so offset-``d`` pairs are two
    aligned code slices; one Arrow sort of the per-block DICTIONARY
    (vocabulary-sized, not stream-sized) yields lexicographic ranks so
    unordered pairs normalize by string order with integer min/max;
    one combined-key sort + run-length count collapses occurrences to
    distinct-pair partials BEFORE the exchange, and one keyed merge
    sums them and applies ``min_count``. The exchange moves the pair
    vocabulary, never the occurrence stream.

    Rows with a null id or text are dropped. Output: ``t1``, ``t2``
    (``t1 <= t2``), ``n`` (int64, ``>= min_count``).
    """
    from ray.data.aggregate import Sum

    from konlsearch_ray.analyzer import analyze_strings_coded

    if window < 1:
        raise ValueError("window must be >= 1")

    p_empty = pa.table({"t1": pa.array([], pa.string()),
                        "t2": pa.array([], pa.string()),
                        "n": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t[id_col]), pc.is_valid(t[text_col]))
        t = t.filter(mask)
        if not t.num_rows:
            return p_empty
        doc, codes, _pos, dictionary = analyze_strings_coded(t[text_col])
        lefts, rights = [], []
        for d in range(1, window + 1):
            if len(doc) <= d:
                break
            same = doc[:-d] == doc[d:]  # kept positions are consecutive
            lefts.append(codes[:-d][same])
            rights.append(codes[d:][same])
        if not lefts or not sum(len(a) for a in lefts):
            return p_empty
        x = np.concatenate(lefts)
        y = np.concatenate(rights)
        # lexicographic ranks from ONE vocabulary-sized Arrow sort
        # (bytewise UTF-8 order = DuckDB least/greatest collation)
        nvocab = len(dictionary)
        sort_idx = (pc.sort_indices(dictionary)
                    .to_numpy(zero_copy_only=False).astype(np.int64))
        rank = np.empty(nvocab, dtype=np.int64)
        rank[sort_idx] = np.arange(nvocab)
        r1, r2 = rank[x], rank[y]
        comb = np.minimum(r1, r2) * nvocab + np.maximum(r1, r2)
        comb.sort(kind="stable")
        first = np.ones(len(comb), dtype=bool)
        first[1:] = comb[1:] != comb[:-1]
        idx = np.flatnonzero(first)
        cnt = np.diff(np.append(idx, len(comb)))
        u = comb[idx]
        by_rank = pc.take(dictionary, pa.array(sort_idx))
        t1 = pc.take(by_rank, pa.array(u // nvocab))
        t2 = pc.take(by_rank, pa.array(u % nvocab))
        return pa.table({"t1": pc.cast(t1, pa.string()),
                         "t2": pc.cast(t2, pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    merged = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby(["t1", "t2"]).aggregate(Sum("n", alias_name="n_sum")))

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["n_sum"], min_count))
        return pa.table({"t1": t["t1"], "t2": t["t2"],
                         "n": pc.cast(t["n_sum"], pa.int64())})

    from konlsearch_ray.functions.blocks import nonempty_blocks

    return nonempty_blocks(merged.map_batches(finish,
                                              batch_format="pyarrow"),
                           ("t1", "t2", "n"), fallback=p_empty)
