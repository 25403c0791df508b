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
  position stream already exists for phrase/NEAR support (build.py
  ``_encode_shard``: per-(term, doc) ``first_pos``); snippets are its
  natural user-facing read.

Scale shape: ``export_postings`` ships only the projected binary
columns out of storage (term-range filter pushes down to parquet
row-group pruning); each batch decodes in one vectorized varint pass
with segmented-cumsum gap reconstruction — no per-term Python. Dead
docs are masked with the tombstone set broadcast once via ``ray.put``.
``snippet_table`` touches only the matching docs: the postings lookup
is two binary searches on the reader, and the window slice is one
Arrow ``binary_join`` over list arrays — the docstore read is
shard- and row-group-pruned by the compacted layout.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

__all__ = ["export_postings", "snippet_table"]


def _segment_files(index_dir: str) -> list[str]:
    seg_dir = os.path.join(index_dir, "segments")
    return [os.path.join(seg_dir, n) for n in sorted(os.listdir(seg_dir))
            if n.endswith(".parquet")]


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

    Decode is the reader's fused shape, batch-wide: all gap blobs in a
    batch concatenate into one varint stream, one vectorized decode
    runs, and per-row absolute doc ids come back with a segmented
    cumsum (each row's first gap is absolute — codec
    ``encode_postings_grouped``). A batch of 10k terms costs one decode
    pass, not 10k.
    """
    import pyarrow.dataset as pads

    from konlsearch_ray.tombstone import load_tombstones

    cols = ["term", "df", "doc_ids_bin", "tfs_bin"]
    if include_positions:
        cols.append("pos_bin")
    flt = None
    if term_start is not None:
        flt = pads.field("term") >= term_start
    if term_stop is not None:
        f2 = pads.field("term") < term_stop
        flt = f2 if flt is None else (flt & f2)

    dead = load_tombstones(index_dir)
    dead_ref = ray.put(dead) if len(dead) else None

    out_schema = pa.schema(
        [("term", pa.string()), ("doc_id", pa.int64()), ("tf", pa.int64())]
        + ([("first_pos", pa.int64())] if include_positions else []))

    def _blob(batch: pa.Table, name: str) -> memoryview:
        """All rows of a binary column as ONE zero-copy buffer slice —
        the shared tombstone helper, not an O(rows) ``b"".join``."""
        from konlsearch_ray.tombstone import _binary_col_data

        return _binary_col_data(batch[name])

    def decode(batch: pa.Table) -> pa.Table:
        from konlsearch_ray.codec import decode_postings, varint_decode

        if not batch.num_rows:
            return out_schema.empty_table()
        df = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        if np.any(df <= 0):  # never written (encode drops empty terms);
            # guard so a hypothetical zero-df row can't skew the cumsum
            batch = batch.filter(pa.array(df > 0))
            df = df[df > 0]
        total = int(df.sum())
        if not total:
            return out_schema.empty_table()
        # Shared fused decode with segmented-cumsum re-absolutization
        # (first gap per segment row is the absolute doc id).
        docs, tfs = decode_postings(_blob(batch, "doc_ids_bin"),
                                    _blob(batch, "tfs_bin"), df)
        term_col = (batch["term"].combine_chunks()
                    if isinstance(batch["term"], pa.ChunkedArray)
                    else batch["term"])
        terms = term_col.take(
            pa.array(np.repeat(np.arange(len(df), dtype=np.int64), df)))
        cols_out = {"term": terms,
                    "doc_id": pa.array(docs, pa.int64()),
                    "tf": pa.array(tfs, pa.int64())}
        if include_positions:
            cols_out["first_pos"] = pa.array(
                varint_decode(_blob(batch, "pos_bin"),
                              total).astype(np.int64), pa.int64())
        t = pa.table(cols_out, schema=out_schema)
        if dead_ref is not None:
            dead_np = ray.get(dead_ref)
            keep = ~np.isin(docs, dead_np)
            t = t.filter(pa.array(keep))
        return t

    files = _segment_files(index_dir)
    ds = ray.data.read_parquet(files, columns=cols, filter=flt)
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

    def _flat_tokens(self, col: pa.Array | pa.ChunkedArray) -> dict:
        """Flat (doc_idx, term, pos) kept-occurrence streams — the
        normative vectorized analyzer, or the injected analyzer's
        ``tokenize_many`` flattened to the same shape (indexes built
        with a custom analyzer_factory must snippet with the same one,
        or positions won't match the stored first_pos stream)."""
        from konlsearch_ray.analyzer import analyze_strings

        if self.analyzer is None:
            return analyze_strings(col)
        texts = [x if x is not None else "" for x in col.to_pylist()]
        lists = self.analyzer.tokenize_many(texts)
        lens = np.array([len(x) for x in lists], dtype=np.int64)
        return {
            "doc_idx": np.repeat(np.arange(len(lists), dtype=np.int64),
                                 lens),
            "term": np.array([t for toks in lists for t in toks],
                             dtype=object),
            "pos": np.concatenate(
                [np.arange(n, dtype=np.int32) for n in lens]
                or [np.array([], dtype=np.int32)]),
        }

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
        toks = self._flat_tokens(rows[self.content_col])
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
    from konlsearch_ray.analyzer import normalize_query_tokens
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
    ds = ray.data.from_arrow(src)
    # Cap the pool at the cluster's CPUs and autoscale UP from one
    # actor: a fixed pool of size >= cluster CPUs pre-acquires every
    # CPU before the upstream repartition can run — observed deadlock
    # with a 2-CPU session and a fixed concurrency=2 pool. A (1, n)
    # pool starts work immediately and grows only into free CPUs.
    import ray as _ray

    cpu_cap = max(1, int(_ray.cluster_resources().get("CPU", 1)))
    concurrency = max(1, min(concurrency, cpu_cap))
    # One block per ~batch_size docs, capped so every pool actor gets
    # work without shattering a small match list into confetti.
    nblocks = max(1, min(concurrency * 2, src.num_rows // 64))
    if nblocks > 1:
        ds = ds.repartition(nblocks)
    out = ds.map_batches(
        _SnippetStage, batch_format="pyarrow",
        fn_constructor_args=(index_dir, width, analyzer_factory),
        concurrency=(1, min(concurrency, nblocks)),
        batch_size=batch_size)
    from konlsearch_ray.functions.blocks import nonempty_blocks

    return nonempty_blocks(out, tuple(_SNIPPET_SCHEMA.names),
                           fallback=_SNIPPET_SCHEMA.empty_table())
