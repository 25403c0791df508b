"""End-to-end corpus curation — the composed training-data pipeline.

``curate_documents`` chains the cleaning operators a large-scale
training-data run needs, entirely as streaming Dataset stages:

1. **annotate + quality filter** — one vectorized ``map_batches`` pass
   computes per-doc token count, type-token ratio and the stopword
   language vote (same kernels as functions/text.py, same values as the
   DuckDB oracle) and filters on them; annotation columns are dropped so
   the surviving rows keep their original schema.
2. **exact dedup** — first-wins by content md5:
   ``dedup.exact_dedup_groups`` produces the winner id per distinct
   content, then a ``left_semi`` hash join keeps exactly the winners.
   No driver state.
3. **near-dup drop (optional)** — MinHash+LSH pairs (functions/dedup.py,
   itself join-verified) → ``connected_components`` over the pair graph
   (O(log diameter) rounds of hash joins) → drop every non-representative
   cluster member via one ``left_anti`` hash join. Pair-greedy b-side
   dropping (``cluster_near_dups=False``) remains as the cheaper
   single-pass mode, but it over-keeps when a non-minimal doc has only
   larger neighbors (pairs (2,3),(1,3) greedily keep {1,2}; the cluster
   is {1,2,3} and only 1 should survive).

Every wide step is a keyed fold or a hash-partitioned join; per-stage data
movement is one pass over the rows plus the pair set. Nothing
materializes on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from konlsearch_ray.functions.blocks import pinned_nonempty
from konlsearch_ray.functions.dedup import (
    connected_components,
    exact_dedup_groups,
    minhash_lsh_pairs,
)
from konlsearch_ray.functions.text import LANG_ORDER, STOPWORDS, _doc_coded_arrays


def annotate_quality(
    ds: ray.data.Dataset, content_col: str
) -> ray.data.Dataset:
    """Append ``n_tokens``, ``ttr``, ``lang_guess`` to every row (one
    vectorized pass; values identical to token_counts/quality_profile/
    lang_id so the oracle SQL re-derives them)."""
    clash = {"n_tokens", "ttr", "lang_guess"} & set(ds.schema().names or [])
    if clash:
        # append_column would create DUPLICATE field names; the gate's
        # column lookup and drop_columns then corrupt the caller's data.
        raise ValueError(
            f"input already has annotation column(s) {sorted(clash)}; "
            f"rename them before curation")

    def fn(batch: pa.Table) -> pa.Table:
        counts, doc_idx, codes, dictionary = _doc_coded_arrays(batch, content_col)
        n = batch.num_rows
        nvocab = len(dictionary) + 1
        ttr = np.zeros(n)
        votes = np.zeros((n, len(LANG_ORDER)), dtype=np.int64)
        if len(codes):
            uniq = np.unique(doc_idx * nvocab + codes)
            distinct = np.bincount(uniq // nvocab, minlength=n)
            nz = counts > 0
            ttr[nz] = distinct[nz] / counts[nz]
            for li, lg in enumerate(LANG_ORDER):
                is_stop = pc.is_in(
                    dictionary, value_set=pa.array(list(STOPWORDS[lg]))
                ).to_numpy(zero_copy_only=False).astype(np.float64)
                votes[:, li] = np.bincount(
                    doc_idx, weights=is_stop[codes], minlength=n).astype(np.int64)
        best = votes.max(axis=1)
        langs = np.array(LANG_ORDER, dtype=object)
        labels = np.where(best == 0, "und", langs[np.argmax(votes, axis=1)])
        return (batch
                .append_column("n_tokens", pa.array(counts))
                .append_column("ttr", pa.array(ttr))
                .append_column("lang_guess", pa.array(labels, pa.string())))

    return ds.map_batches(fn, batch_format="pyarrow")


def curate_documents(
    ds: ray.data.Dataset,
    content_col: str,
    id_col: str,
    *,
    min_tokens: int = 1,
    max_tokens: int | None = None,
    min_ttr: float = 0.0,
    langs: list[str] | None = None,
    near_dup_tau: float | None = None,
    ngram_n: int = 3,
    cluster_near_dups: bool = True,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """The composed cleaning pipeline; returns the surviving rows with
    their ORIGINAL schema. See module docstring for the stage shapes."""
    # Hash-join/shuffle fixed cost grows with partition count (aggregator
    # actors); default modestly and let 100-TB callers size
    # ``num_partitions`` to their data (partitions ≈ data / 1 GB).
    from konlsearch_ray.functions.blocks import default_join_partitions

    nparts = num_partitions or default_join_partitions()

    # 1. quality + language gate.
    ann = annotate_quality(ds, content_col)

    def gate(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t["n_tokens"], min_tokens)
        if max_tokens is not None:
            keep = pc.and_(keep, pc.less_equal(t["n_tokens"], max_tokens))
        if min_ttr > 0.0:
            keep = pc.and_(keep, pc.greater_equal(t["ttr"], min_ttr))
        if langs is not None:
            keep = pc.and_(keep, pc.is_in(
                t["lang_guess"], value_set=pa.array(list(langs))))
        # Metadata-free schema: parquet-read blocks carry pandas metadata
        # dicts that make pa.Schema unhashable — the downstream hash-join
        # aggregators then log "Failed to hash the schemas" per partition.
        return (t.filter(keep)
                .drop_columns(["n_tokens", "ttr", "lang_guess"])
                .replace_schema_metadata(None))

    # Pin the gated stage once (refs only): it feeds BOTH the winner
    # computation and the join's left side — left lazy, Ray would
    # re-execute the whole annotate+gate chain per consumer.
    gated, gated_rows = pinned_nonempty(
        ann.map_batches(gate, batch_format="pyarrow"),
        (id_col, content_col))
    if not gated_rows:  # empty join sides crash the hash-shuffle join
        return gated

    # 2. exact dedup: winner id per content hash, kept via left_semi join.
    winners = exact_dedup_groups(gated, content_col, id_col)
    deduped = gated.join(
        winners.select_columns(["keep_id"]), "left_semi",
        num_partitions=nparts, on=(id_col,), right_on=("keep_id",))

    if near_dup_tau is None:
        return deduped

    # 3. near-dup drop: MinHash pairs → cluster → left_anti the
    # non-representatives (or pair-greedy: left_anti the b sides).
    # Same pinning: deduped feeds pair generation AND the anti-join.
    deduped, deduped_rows = pinned_nonempty(deduped, (id_col, content_col))
    if not deduped_rows:
        return deduped
    pairs = minhash_lsh_pairs(
        deduped, content_col, id_col, n=ngram_n, tau=near_dup_tau)
    if cluster_near_dups:
        clusters = connected_components(pairs, num_partitions=nparts)
        drops = clusters.map_batches(
            lambda t: (t.filter(pc.not_equal(t["doc_id"], t["cluster_id"]))
                       .select(["doc_id"]).rename_columns(["b"])),
            batch_format="pyarrow")
    else:
        drops = pairs.select_columns(["b"])
    drops, drop_rows = pinned_nonempty(drops, ("b",))
    if not drop_rows:  # nothing to drop — skip the anti-join entirely
        return deduped
    return deduped.join(
        drops, "left_anti",
        num_partitions=nparts, on=(id_col,), right_on=("b",))
