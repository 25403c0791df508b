"""Docstore point/range access — reference J3 parity.

The reference exposes ``get(id)``, ``get_multi(ids)``, ``get_range(start,
end)`` (half-open) and ``get_all`` over its RocksDB docstore (reference
index.py:364-408). Here the docstore is the shard-partitioned Parquet
written by the build (``docs/shard=K/``); reads prune at two levels:

1. **shard pruning** — ``shard = trunc((doc_id - 1) / shard_size)``
   (toward-zero, matching the build-side Arrow ``pc.divide``) maps an
   ID set/range to the shard directories that can contain it;
2. **row-group pruning** — the residual ``doc_id`` filter is pushed into
   the Parquet read (``pyarrow.parquet`` predicate pushdown).

Tombstoned (deleted) docs are excluded, matching the reference's
delete-then-get behavior (KeyError → here: absent row).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq


def _unique_ids(doc_ids) -> np.ndarray:
    """Any iterable of doc ids (list, array, set, ...) → its distinct ids
    as an ascending int64 array."""
    if not isinstance(doc_ids, np.ndarray):
        doc_ids = np.fromiter(doc_ids, dtype=np.int64)
    return np.unique(doc_ids.astype(np.int64, copy=False))


class DocStore:
    def __init__(self, index_dir: str, *, _meta: dict | None = None,
                 _dead: np.ndarray | None = None):
        """``_meta`` / ``_dead`` inject pre-loaded state (the NEAR
        fan-out ships them from the driver so each task skips the
        index_meta.json read and the tombstone load)."""
        self.index_dir = index_dir
        self.docs_dir = os.path.join(index_dir, "docs")
        if _meta is not None:
            self.meta = _meta
        else:
            with open(os.path.join(index_dir, "index_meta.json")) as f:
                self.meta = json.load(f)
        self.shard_size = int(self.meta["shard_size"])
        if _dead is not None:
            self._dead = _dead
        else:
            from konlsearch_ray.tombstone import load_tombstones

            self._dead = load_tombstones(index_dir)
        self._n_dead_live: int | None = None  # memoized live-dead count

    def _shard_dirs(self, shards: set[int] | None) -> list[str]:
        out = []
        for name in sorted(os.listdir(self.docs_dir)):
            if not name.startswith("shard="):
                continue
            if shards is None or int(name.split("=", 1)[1]) in shards:
                out.append(os.path.join(self.docs_dir, name))
        return out

    def _read(self, shards: set[int] | None, flt,
              columns: list[str] | None = None) -> pa.Table:
        files = []
        for d in self._shard_dirs(shards):
            files.extend(
                os.path.join(d, n) for n in sorted(os.listdir(d))
                if n.endswith(".parquet"))
        if not files:
            return pa.table({})
        dataset = pads.dataset(files, format="parquet")
        t = dataset.to_table(filter=flt, columns=columns)
        if len(self._dead):
            keep = ~np.isin(t["doc_id"].to_numpy(), self._dead)
            t = t.filter(pa.array(keep))
        return t.sort_by("doc_id")

    def _shard_of(self, doc_id):
        """Shard of one id (an int) or of each id of an int64 array (an
        array), with TRUNCATING (toward-zero) division — the id_col build
        path partitions with Arrow ``pc.divide`` (build.py add_shard),
        which truncates, so doc_id 0 lives in ``shard=0``; floor division
        would look in shard -1 and silently miss a live document."""
        n = np.asarray(doc_id, dtype=np.int64) - 1
        q = np.sign(n) * (np.abs(n) // self.shard_size)
        return q if q.ndim else int(q)

    def get(self, doc_id: int) -> dict | None:
        """Point lookup; None when absent or deleted (reference raises
        KeyError — callers can translate)."""
        t = self._read({self._shard_of(doc_id)},
                       pads.field("doc_id") == int(doc_id))
        if t.num_rows == 0:
            return None
        return {c: t[c][0].as_py() for c in t.schema.names}

    def get_ordered_tokens(self, doc_id: int, analyzer=None) -> list[str] | None:
        """Ordered kept-token stream of one document (the reference's
        tokenize-with-order, index.py:448) — re-derived from the docstore
        row through the same analyzer that built the index (tokenization
        is a pure function of content, so this equals what was indexed).
        ``analyzer``: pluggable object exposing ``tokenize_many`` for
        indexes built with a custom analyzer_factory; None → the
        normative analyzer. None result = absent or deleted doc."""
        row = self.get(doc_id)
        if row is None:
            return None
        content = row.get(self.meta.get("content_col", "content"))
        if content is None:
            return []
        if analyzer is not None:
            return analyzer.tokenize_many([content])[0]
        from konlsearch_ray.analyzer import tokenize

        return tokenize(content)

    def get_tokens(self, doc_id: int, analyzer=None) -> set[str] | None:
        """Token SET of one document — reference J3 parity (reference
        index.py:410 returns the persisted per-doc token set; here it
        re-derives from content, same values)."""
        toks = self.get_ordered_tokens(doc_id, analyzer=analyzer)
        return set(toks) if toks is not None else None

    def get_multi(self, doc_ids: list[int],
                  columns: list[str] | None = None) -> pa.Table:
        """Multi-get (reference RocksDB multiget): rows for the IDs that
        exist, ascending doc_id. ``columns`` projects the read — only
        the named columns leave storage (the proximity recheck fetches
        just (doc_id, content))."""
        ids = _unique_ids(doc_ids)
        if not len(ids):
            return pa.table({})
        shards = set(np.unique(self._shard_of(ids)).tolist())
        return self._read(shards, pads.field("doc_id").isin(pa.array(ids)),
                          columns=columns)

    def get_multi_status(self, doc_ids: list[int]) -> pa.Table:
        """Multi-get with per-id statuses (reference GetStatusCode,
        index.py:41-63): one row per REQUESTED id in ascending order —
        ``doc_id, status`` where status ∈ {FOUND, NOT_FOUND} — so callers
        can tell a miss from a deleted/never-ingested id instead of
        silently losing it. Pair with ``get_multi`` for the payloads."""
        ids = _unique_ids(doc_ids)
        found_t = self.get_multi(ids, columns=["doc_id"])  # ids only —
        # statuses never need the payload columns decompressed
        found = (np.isin(ids, found_t["doc_id"].to_numpy())
                 if found_t.num_rows else np.zeros(len(ids), dtype=bool))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "status": pa.array(np.where(found, "FOUND", "NOT_FOUND"),
                               pa.string()),
        })

    def get_range(self, start: int, end: int) -> pa.Table:
        """Half-open ``[start, end)`` (reference index.py:387-395)."""
        if end <= start:
            return pa.table({})
        shards = set(range(self._shard_of(start),
                           self._shard_of(end - 1) + 1))
        return self._read(
            shards,
            (pads.field("doc_id") >= int(start))
            & (pads.field("doc_id") < int(end)))

    def get_all(self) -> pa.Table:
        """Full-table read — test/debug scale only; use ``scan`` for the
        streaming path."""
        return self._read(None, None)

    def ids_matching(self, flt, shards: set[int] | None = None) -> np.ndarray:
        """Sorted live doc ids whose stored row matches the pyarrow
        dataset filter expression ``flt`` (e.g.
        ``pads.field("lang") == "ko"``). The filter pushes down to the
        parquet scan and only the ``doc_id`` column leaves storage —
        this is the metadata side of filtered search
        (``IndexReader.bm25_topk(allowed=...)``). ``shards`` restricts
        the scan (scatter-gather actors pass their own subset)."""
        files = []
        for d in self._shard_dirs(shards):
            files.extend(
                os.path.join(d, n) for n in sorted(os.listdir(d))
                if n.endswith(".parquet"))
        if not files:
            return np.zeros(0, dtype=np.int64)
        dataset = pads.dataset(files, format="parquet")
        ids = dataset.to_table(columns=["doc_id"], filter=flt)["doc_id"]
        out = ids.to_numpy().astype(np.int64)
        if len(self._dead):
            out = out[~np.isin(out, self._dead)]
        out.sort()
        return out

    def get_all_status(self) -> pa.Table:
        """Reference ``KonlIndex.get_all`` parity (reference
        index.py:372-383): the reference walks the FULL assigned-ID
        range and reports deleted/missing ids as FAILURE statuses
        instead of silently dropping them. One row per id in
        ``[1, max assigned id]`` — ``doc_id, status`` with status ∈
        {FOUND, NOT_FOUND} — ascending. Payloads come from ``get_all``
        / ``scan``; test/debug scale only, like ``get_all``."""
        live = self.get_all()
        ids = (live["doc_id"].to_numpy().astype(np.int64)
               if live.num_rows else np.zeros(0, np.int64))
        hi = int(ids.max()) if len(ids) else 0
        if len(self._dead):  # a tombstoned max id is still "assigned"
            hi = max(hi, int(np.max(self._dead)))
        if not hi:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "status": pa.array([], pa.string())})
        found = np.zeros(hi, dtype=bool)
        found[ids - 1] = True
        return pa.table({
            "doc_id": pa.array(np.arange(1, hi + 1), pa.int64()),
            "status": pa.array(
                np.where(found, "FOUND", "NOT_FOUND")),
        })

    def schema(self) -> pa.Schema:
        """Parquet schema of the docstore rows — a footer-only read of
        the first shard file (all shards share one schema; the build
        writes them from a single Dataset)."""
        for d in self._shard_dirs(None):
            for n in sorted(os.listdir(d)):
                if n.endswith(".parquet"):
                    return pq.read_schema(os.path.join(d, n))
        return pa.schema([("doc_id", pa.int64())])

    def scan(self, columns: list[str] | None = None):
        """The docstore as a streaming ``ray.data.Dataset`` (column-pruned
        read over the shard partitions, tombstones filtered per batch) —
        the scale path for whole-corpus consumers like the curation or
        dedup pipelines; ``get_all`` materializes and is test-scale only.
        """
        import ray.data

        files = []
        for d in self._shard_dirs(None):
            files.extend(
                os.path.join(d, n) for n in sorted(os.listdir(d))
                if n.endswith(".parquet"))
        if not files:
            return ray.data.from_arrow(pa.table({"doc_id": pa.array([], pa.int64())}))
        cols = columns
        if cols is not None and "doc_id" not in cols:
            cols = ["doc_id"] + list(cols)
        ds = ray.data.read_parquet(files, columns=cols)
        if len(self._dead):
            import ray as _ray

            dead_ref = _ray.put(self._dead)

            def drop_dead(t: pa.Table) -> pa.Table:
                dead = _ray.get(dead_ref)
                keep = ~np.isin(t["doc_id"].to_numpy(), dead)
                return t.filter(pa.array(keep))

            ds = ds.map_batches(drop_dead, batch_format="pyarrow")
        return ds

    def __len__(self) -> int:
        """Live doc count (reference __len__, index.py:457-463).

        Only tombstones that name an EXISTING doc reduce the count —
        deleting a never-assigned id must not skew it (IndexReader.n_docs
        applies the same isin-against-doclens rule, so the two live-count
        surfaces agree). The intersect is memoized; doclens are the light
        per-shard (doc_id, doc_len) files, not the docstore rows."""
        with open(os.path.join(self.index_dir, "stats.json")) as f:
            n = json.load(f)["N"]
        if not len(self._dead):
            return int(n)
        if self._n_dead_live is None:
            dl_dir = os.path.join(self.index_dir, "doclens")
            parts = [
                pq.read_table(os.path.join(dl_dir, f),
                              columns=["doc_id"])["doc_id"].to_numpy()
                for f in (sorted(os.listdir(dl_dir))
                          if os.path.isdir(dl_dir) else [])
                if f.endswith(".parquet")
            ]
            self._n_dead_live = (
                int(np.isin(self._dead, np.concatenate(parts)).sum())
                if parts else len(self._dead))
        return int(n) - self._n_dead_live
