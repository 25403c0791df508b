"""Index export / introspection: decode the physical segment layout back
into logical Datasets, and serve highlight snippets from the index.

Two surfaces a search engine owes its downstream consumers:

- :func:`export_postings` — the inverted index as a flat
  ``(term, doc_id, tf)`` Dataset, the sparse term-document matrix every
  downstream ML job (sparse retrieval training, LSA, keyword-weight
  mining) wants. It decodes the segments DISTRIBUTED — one
  ``map_batches`` over the segment parquet files with the same fused
  varint pass the reader uses — so a 10^12-file index exports as a
  stream, never through the driver. (Reference parity: KonlSearch's
  postings live behind RocksDB gets, inverted_index.py:64-116, with no
  bulk-export surface at all — this is an extension the Dataset
  formulation gives for free.)
- :func:`snippet_table` — first-occurrence highlight windows for a
  term's matching docs (the classic search-result snippet), served from
  the index's stored first positions + a docstore actor stage. The
  position stream already exists for PHRASE support (analyzer.py
  ``group_postings``: per-(term, doc) ``first_pos``); snippets are its
  natural user-facing read.

Scale shape: ``export_postings`` ships only the projected binary
columns out of storage (term-range filter pushes down to parquet
row-group pruning); each batch decodes in one vectorized varint pass
with segmented-cumsum gap reconstruction — no per-term Python. Dead
docs are masked with the tombstone set broadcast once via ``ray.put``.
``snippet_table`` touches only the matching docs: the postings lookup
is two binary searches on the reader, and the window slice is one
Arrow ``binary_join`` over list arrays — the docstore read is
shard- and row-group-pruned, since the build writes each shard as one
doc_id-sorted file with 1,024-row groups.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from konlsearch_ray.analyzer import analyze_strings, normalize_query_tokens

__all__ = ["export_postings", "snippet_table"]


def export_postings(
    index_dir: str,
    *,
    term_start: str | None = None,
    term_stop: str | None = None,
    include_positions: bool = False,
) -> ray.data.Dataset:
    """The inverted index as a flat ``(term, doc_id, tf)`` Dataset.

    ``term_start``/``term_stop`` restrict to the half-open term range
    ``[term_start, term_stop)`` — the filter pushes down to the parquet
    read, so segments prune at row-group granularity (segment rows are
    term-sorted within each shard file). ``include_positions`` adds the
    stored ``first_pos`` column (0-based kept-stream position of the
    first occurrence, the same stream ``IndexReader.postings`` serves).

    Tombstoned docs are excluded: the (bounded) dead set rides ONE
    ``ray.put`` ObjectRef into every decode task, never per batch.

    Each batch decodes in one fused varint pass over all its rows
    (``segment.decode_segment``). A batch of 10k terms costs one decode
    pass, not 10k.
    """
    import pyarrow.dataset as pads

    from konlsearch_ray.segment import (decode_columns, segment_path,
                                        shard_nums)
    from konlsearch_ray.tombstone import load_tombstones

    out_schema = pa.schema(
        [("term", pa.string()), ("doc_id", pa.int64()), ("tf", pa.int64())]
        + ([("first_pos", pa.int64())] if include_positions else []))
    files = [segment_path(index_dir, s) for s in shard_nums(index_dir)]
    if not files:  # a zero-document index has no segments
        return ray.data.from_arrow(out_schema.empty_table())
    flt = None
    if term_start is not None:
        flt = pads.field("term") >= term_start
    if term_stop is not None:
        f2 = pads.field("term") < term_stop
        flt = f2 if flt is None else (flt & f2)

    dead = load_tombstones(index_dir)
    dead_ref = ray.put(dead) if len(dead) else None

    def decode(batch: pa.Table) -> pa.Table:
        from konlsearch_ray.segment import decode_segment

        df, docs, tfs, pos, _ = decode_segment(batch)
        term_col = (batch["term"].combine_chunks()
                    if isinstance(batch["term"], pa.ChunkedArray)
                    else batch["term"])
        terms = term_col.take(
            pa.array(np.repeat(np.arange(len(df), dtype=np.int64), df)))
        cols_out = {"term": terms,
                    "doc_id": pa.array(docs, pa.int64()),
                    "tf": pa.array(tfs, pa.int64())}
        if include_positions:
            cols_out["first_pos"] = pa.array(pos, pa.int64())
        t = pa.table(cols_out, schema=out_schema)
        if dead_ref is not None:
            dead_np = ray.get(dead_ref)
            keep = ~np.isin(docs, dead_np)
            t = t.filter(pa.array(keep))
        return t

    ds = ray.data.read_parquet(
        files, columns=decode_columns(include_positions), filter=flt)
    # No nonempty_blocks wrapper: it would iterate the internal ref
    # bundles and pin the whole decoded matrix — the export must stay a
    # stream. decode already emits schema-correct (possibly empty)
    # tables, so every block carries out_schema.
    return ds.map_batches(decode, batch_format="pyarrow")


_SNIPPET_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("pos", pa.int64()), ("snippet", pa.string())])


class _SnippetStage:
    """Actor-pool stage: docstore handle + analyzer load once per actor
    (``__init__``), window slicing per batch (``__call__``)."""

    def __init__(self, index_dir: str, width: int, analyzer_factory=None):
        from konlsearch_ray.docstore import DocStore

        self.store = DocStore(index_dir)
        self.content_col = self.store.meta.get("content_col", "content")
        self.width = int(width)
        self.analyzer = analyzer_factory() if analyzer_factory else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return _SNIPPET_SCHEMA.empty_table()
        req_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        req_fp = batch["first_pos"].to_numpy(zero_copy_only=False)
        rows = self.store.get_multi(req_ids,
                                    columns=["doc_id", self.content_col])
        if not rows.num_rows:
            return _SNIPPET_SCHEMA.empty_table()
        got_ids = rows["doc_id"].to_numpy(zero_copy_only=False)
        # get_multi returns ascending doc_id; requested ids are unique,
        # so searchsorted maps fetched row -> requested slot. Drop
        # requested ids the store no longer has (deleted between the
        # postings read and here) instead of mis-slicing.
        order = np.argsort(req_ids, kind="stable")
        pos_in_req = order[np.searchsorted(req_ids[order], got_ids)]
        fp = req_fp[pos_in_req]
        # The analyzer that built the index (``analyzer_factory``), or
        # the normative one: positions must match the stored first_pos.
        toks = analyze_strings(rows[self.content_col], self.analyzer)
        doc_idx, term_np, pos = toks["doc_idx"], toks["term"], toks["pos"]
        lo = (fp - self.width)[doc_idx]
        hi = (fp + self.width)[doc_idx]
        keep = (pos >= lo) & (pos <= hi)
        kept_parent = doc_idx[keep]
        kept_terms = term_np[keep]
        # One list row per fetched doc (ascending parent — analyze
        # preserves row order), then a single Arrow binary_join.
        counts = np.bincount(kept_parent, minlength=rows.num_rows)
        offsets = pa.array(
            np.concatenate(([0], np.cumsum(counts))), pa.int32())
        la = pa.ListArray.from_arrays(
            offsets, pa.array(kept_terms, pa.string()))
        snippets = pc.binary_join(la, " ")
        return pa.table({
            "doc_id": pa.array(got_ids, pa.int64()),
            # 1-based first-occurrence position (SQL list_position
            # parity; the stored stream is 0-based).
            "pos": pa.array(fp + 1, pa.int64()),
            "snippet": snippets.cast(pa.string()),
        }, schema=_SNIPPET_SCHEMA)


def snippet_table(
    index_dir: str,
    term: str,
    *,
    width: int = 2,
    concurrency: int = 4,
    batch_size: int = 1024,
    analyzer_factory=None,
) -> ray.data.Dataset:
    """Highlight snippets for every live doc matching ``term``.

    Output: ``doc_id``, ``pos`` (1-based kept-stream position of the
    first occurrence — ``list_position`` parity), ``snippet`` (the
    kept tokens within ``width`` positions either side of it, joined
    with single spaces).

    The doc list and first positions come straight off the index
    (``IndexReader.postings`` — tombstone-masked, two binary searches
    per term); only the matching docs' content is fetched, through a
    docstore actor pool whose reads are shard- and row-group-pruned.
    The normative analyzer re-derives the kept stream (tokenization is
    a pure function of content — same contract as
    ``DocStore.get_ordered_tokens``); indexes built with a custom
    ``analyzer_factory`` must pass the SAME factory here so windows
    align with the stored first_pos stream.
    """
    from konlsearch_ray.query import IndexReader

    # Same normalization as every query path (uppercase-ASCII input
    # would silently miss the lowercased stored vocabulary otherwise).
    norm = normalize_query_tokens([term])
    if not norm:
        return ray.data.from_arrow(_SNIPPET_SCHEMA.empty_table())
    term = norm[0]
    reader = IndexReader(index_dir)
    doc_ids, _tfs, first_pos = reader.postings(term)
    if not len(doc_ids):
        return ray.data.from_arrow(_SNIPPET_SCHEMA.empty_table())
    src = pa.table({"doc_id": pa.array(doc_ids.astype(np.int64), pa.int64()),
                    "first_pos": pa.array(first_pos.astype(np.int64),
                                          pa.int64())})
    # Cap the pool at the cluster's CPUs and autoscale UP from one
    # actor, so the pool grows only into free CPUs.
    import ray as _ray

    cpu_cap = max(1, int(_ray.cluster_resources().get("CPU", 1)))
    concurrency = max(1, min(concurrency, cpu_cap))
    # Up to two blocks per actor, capped so a small match list is not
    # shattered into confetti. The driver cuts them: an upstream Ray
    # task (a repartition) would wait forever for a CPU whenever the
    # pool holds every CPU, as its one actor does on a 1-CPU session.
    nblocks = max(1, min(concurrency * 2, src.num_rows // 64))
    step = -(-src.num_rows // nblocks)
    ds = ray.data.from_arrow(
        [src.slice(i, step) for i in range(0, src.num_rows, step)])
    out = ds.map_batches(
        _SnippetStage, batch_format="pyarrow",
        fn_constructor_args=(index_dir, width, analyzer_factory),
        concurrency=(1, min(concurrency, nblocks)),
        batch_size=batch_size)
    from konlsearch_ray.functions.blocks import nonempty_blocks

    return nonempty_blocks(out, tuple(_SNIPPET_SCHEMA.names),
                           fallback=_SNIPPET_SCHEMA.empty_table())
