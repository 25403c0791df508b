"""Corpus n-gram statistics and benchmark decontamination.

Two standard large-corpus training-data steps the reference has no
analog for:

- :func:`ngram_counts` — the corpus n-gram frequency table (LM-style
  occurrence counts, NOT per-doc-distinct). Per-batch run-length
  counting collapses each block to its distinct n-grams before the
  global exchange, so shuffle volume tracks vocabulary, not token count
  — the same map-side-combine shape as the window aggregates.
- :func:`contamination` — per-document n-gram overlap against a
  benchmark corpus (the decontamination pass every training pipeline
  runs before evaluation). Both sides shingle with the SAME vectorized
  kernel the dedup family uses (functions/dedup.py ``_shingle_batch``),
  overlap resolves through hash-partitioned joins — no driver state, no
  broadcast assumption on the benchmark size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from konlsearch_ray.functions.blocks import (default_join_partitions,
                                             keyed_int_fold, nonempty_blocks,
                                             pinned_nonempty, runs)
from konlsearch_ray.functions.dedup import _shingle_batch


def _ngram_count_partial(batch: pa.Table, content_col: str, n: int) -> pa.Table:
    """Per-batch (ngram, cnt) occurrence partials: one factorize pass,
    shifted-slice windows, one lexsort, run-length counts — no per-doc
    Python."""
    from konlsearch_ray.analyzer import analyze_strings_coded

    empty = pa.table({"ngram": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64())})
    doc_idx, codes, _pos, dictionary = analyze_strings_coded(batch[content_col])
    m = len(doc_idx)
    if m < n:
        return empty
    w = m - n + 1
    valid = np.ones(w, dtype=bool)
    for j in range(1, n):  # window must stay inside one doc
        valid &= doc_idx[:w] == doc_idx[j:w + j]
    starts = np.flatnonzero(valid)
    if not len(starts):
        return empty
    cols = [codes[starts + j] for j in range(n)]
    order = np.lexsort(tuple(reversed(cols)))
    cols_s = [c[order] for c in cols]
    idx, cnt = runs(*cols_s)
    parts = [pc.take(dictionary,
                     pa.array(cols_s[j][idx].astype(np.int64))).cast(pa.string())
             for j in range(n)]
    return pa.table({"ngram": pc.binary_join_element_wise(*parts, " "),
                     "cnt": pa.array(cnt.astype(np.int64))})


def ngram_counts(
    ds: ray.data.Dataset,
    content_col: str,
    n: int = 2,
    min_count: int = 1,
) -> ray.data.Dataset:
    """Corpus n-gram occurrence counts over the kept token stream
    (analyzer semantics — same tokens the index sees). Output:
    ``ngram`` (terms joined by one space), ``cnt``."""
    counts = keyed_int_fold(
        ds.map_batches(_ngram_count_partial, batch_format="pyarrow",
                       fn_kwargs={"content_col": content_col, "n": n}),
        "ngram", {"cnt": "sum"}, out={"ngram": pa.string(), "cnt": pa.int64()})
    if min_count <= 1:
        return counts
    return nonempty_blocks(
        counts.map_batches(
            lambda t: t.filter(pc.greater_equal(t["cnt"], min_count)),
            batch_format="pyarrow"), ("ngram", "cnt"),
        fallback=pa.table({"ngram": pa.array([], pa.string()),
                           "cnt": pa.array([], pa.int64())}))


def _empty_contamination() -> pa.Table:
    return pa.table({"doc_id": pa.array([], pa.int64()),
                     "n_shingles": pa.array([], pa.int64()),
                     "n_hit": pa.array([], pa.int64()),
                     "frac_bp": pa.array([], pa.int64())})


def contamination(
    corpus: ray.data.Dataset,
    bench: ray.data.Dataset,
    content_col: str,
    id_col: str,
    n: int = 3,
) -> ray.data.Dataset:
    """Per-corpus-document benchmark overlap: of the document's DISTINCT
    n-gram shingles, how many occur anywhere in ``bench``.

    Output: ``doc_id``, ``n_shingles`` (distinct shingles in the doc),
    ``n_hit`` (of those, present in the benchmark), ``frac_bp``
    (``n_hit * 10000 // n_shingles`` — overlap in basis points as exact
    integer arithmetic, so every engine reproduces it bit-identically;
    float division + rounding differs between pyarrow's half-to-even and
    SQL's half-away). Documents shorter than ``n`` kept tokens emit no
    shingles and are absent (nothing to decontaminate on).

    Scale: the benchmark side dedups to its distinct-shingle set via one
    keyed fold (benchmarks are small, but nothing here REQUIRES that — the
    overlap is a hash-partitioned inner join either way), and the corpus
    side is the same shingle stream the dedup family already computes.
    """
    def _sh(ds: ray.data.Dataset) -> ray.data.Dataset:
        return ds.map_batches(
            _shingle_batch, batch_format="pyarrow",
            fn_kwargs={"content_col": content_col, "id_col": id_col, "n": n})

    corp_sh, corp_rows = pinned_nonempty(_sh(corpus), ("doc_id", "shingle"))
    if not corp_rows:
        return ray.data.from_arrow(_empty_contamination())
    totals = keyed_int_fold(corp_sh, "doc_id", {"n_shingles": "count"})

    # Benchmark distinct-shingle set (a keyed fold, so the join cannot
    # multiply corpus rows).
    bench_sh, bench_rows = pinned_nonempty(
        keyed_int_fold(_sh(bench), "shingle", {},
                       out={"shingle": pa.string()}), ("shingle",))

    nparts = default_join_partitions()
    if bench_rows:
        hits = corp_sh.join(bench_sh, "inner", num_partitions=nparts,
                            on=("shingle",))
        hits, hit_rows = pinned_nonempty(
            keyed_int_fold(hits, "doc_id", {"n_hit": "count"},
                           out={"doc_id": pa.int64(), "n_hit": pa.int64()}),
            ("doc_id", "n_hit"))
    else:
        hit_rows = 0

    if hit_rows:
        joined = totals.join(hits, "left_outer", num_partitions=nparts,
                             on=("doc_id",))
    else:  # nothing overlaps: n_hit is 0 everywhere, skip the join
        joined = totals.map_batches(
            lambda t: t.append_column(
                "n_hit", pa.nulls(t.num_rows, pa.int64())),
            batch_format="pyarrow")

    def finish(t: pa.Table) -> pa.Table:
        tot = t["n_shingles"].cast(pa.int64())
        hit = pc.fill_null(t["n_hit"].cast(pa.int64()), 0)
        frac_bp = pc.divide(pc.multiply(hit, 10_000), tot)
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "n_shingles": tot, "n_hit": hit,
                         "frac_bp": frac_bp})

    return nonempty_blocks(
        joined.map_batches(finish, batch_format="pyarrow"),
        ("doc_id", "n_shingles", "n_hit", "frac_bp"))
