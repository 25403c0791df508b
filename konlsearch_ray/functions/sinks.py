"""Resumable partitioned Parquet sink.

A 100-TB job that dies at 93% must not redo the 93%.  The index build
already has manifested resume (build.py shard manifests); this is the
same contract as a GENERIC sink any pipeline can end in:

- output is one directory per partition-key value
  (``out_dir/<col>=<value>/data-SSSS.parquet``) — never one giant file,
  and never one TASK per partition: each partition's rows salt across
  up to ``files_per_partition`` commit tasks, so a skewed value (one
  giant date/lang) parallelizes instead of funnelling through a single
  writer;
- each data file commits atomically (tmp file + ``os.replace``; file
  names are deterministic per (partition, salt), so task retries
  overwrite their own file, never duplicate it); the partition-level
  ``_SUCCESS`` marker — the unit of resume — is written once every salt
  of the partition has landed;
- a rerun lists the markers (one cheap driver-side listdir,
  O(partitions)), clears partition dirs that have files but no marker
  (a dead run's partials), filters the input to UNFINISHED partitions
  inside ``map_batches`` (vectorized ``pc.is_in`` against the
  finished-value set), and only those partitions shuffle and write.

The exchange is the one keyed groupby every partitioned write needs;
rows of finished partitions are dropped at the map stage, BEFORE the
shuffle, so a 93%-done rerun moves only the missing 7%.

Commit-window note: ``_SUCCESS`` markers land after the commit wave
(the groupby barrier means no commit task starts until every map task
finished, so per-salt incremental markers would only shave the tail of
the wave); a run that dies mid-wave redoes its unmarked partitions —
whose stale files the rerun clears first.
"""

from __future__ import annotations

import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from konlsearch_ray.functions.blocks import keyed_fold

_SAFE = re.compile(r"[^A-Za-z0-9_.\-]")

_RESERVED_COLS = ("__part_token", "__part_salt")


def _part_token(v) -> str:
    """Filesystem-safe, INJECTIVE token for a partition value
    (hive-style dirs).  Null maps to the reserved ``__null__``; any
    string value whose escaped form would start with ``__`` gets its
    first character percent-escaped, so no value can collide with the
    reserved token (or with each other: null and the literal string
    ``'None'`` are different partitions, not one clobbered directory)."""
    if v is None:
        return "__null__"
    tok = _SAFE.sub(lambda m: f"%{ord(m.group(0)[0]):02X}", str(v))
    if tok.startswith("__"):
        tok = f"%{ord(tok[0]):02X}" + tok[1:]
    return tok


def finished_partitions(out_dir: str, partition_col: str) -> set[str]:
    """Partition tokens already committed (``_SUCCESS`` marker present)."""
    done = set()
    prefix = f"{partition_col}="
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            if name.startswith(prefix) and os.path.exists(
                    os.path.join(out_dir, name, "_SUCCESS")):
                done.add(name[len(prefix):])
    return done


def write_partitioned_parquet(
    ds: ray.data.Dataset,
    out_dir: str,
    partition_col: str,
    format: str = "parquet",
    files_per_partition: int = 8,
) -> dict:
    """Write ``ds`` as ``out_dir/<col>=<token>/data-SSSS.<ext>``, one
    atomic commit per partition value; reruns skip committed partitions.

    ``format``: ``"parquet"`` (columnar, default) or ``"jsonl"`` (one
    JSON object per row — the interchange format most text-pipeline
    consumers expect).  Same resume contract for both.

    ``files_per_partition``: maximum commit tasks (and data files) per
    partition value.  Rows salt deterministically within each input
    block, so a hot partition's rows spread across up to this many
    parallel writers; a partition confined to one block region still
    lands in few files.  ``1`` reproduces the single-file-per-partition
    layout.

    Returns ``{"written": n_new_partitions, "skipped": n_already_done}``.
    Partition count should be cluster-scale (key ranges, dates, shards,
    buckets) — the driver holds one token string per partition.
    """
    if format not in ("parquet", "jsonl"):
        raise ValueError(f"format must be 'parquet' or 'jsonl', got {format!r}")
    bad = [c for c in _RESERVED_COLS if c in (ds.schema().names or [])]
    if bad:
        raise ValueError(f"column names {bad} are reserved by the sink")
    if files_per_partition < 1:
        raise ValueError("files_per_partition must be >= 1")
    nsalt = int(files_per_partition)
    os.makedirs(out_dir, exist_ok=True)
    done = finished_partitions(out_dir, partition_col)
    # Clear partials: a dir without _SUCCESS is a dead run's leftovers;
    # this rerun rewrites the partition, and stale files (possibly from
    # a different salt layout) must not survive next to the new ones.
    prefix = f"{partition_col}="
    for name in os.listdir(out_dir):
        if name.startswith(prefix) and name[len(prefix):] not in done:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    done_arr = pa.array(sorted(done), pa.string())

    def tokenize_and_drop(t: pa.Table) -> pa.Table:
        # The groupby key is the TOKEN, not the raw value: tokens are
        # never null (Ray's sort shuffle cannot range-partition a null
        # key), and deriving them once here keeps the resume filter and
        # the commit directory name from ever disagreeing.  Token
        # derivation is per DISTINCT value in the batch (dictionary-
        # sized), vectorized back over the rows.
        col = pc.cast(t[partition_col], pa.string()).combine_chunks()
        denc = col.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        toks = pa.array([_part_token(v) for v in denc.dictionary.to_pylist()],
                        pa.string())
        idx = denc.indices
        if len(toks):
            tok_col = toks.take(pc.fill_null(idx, 0))
            if idx.null_count:
                tok_col = pc.if_else(pc.is_null(idx),
                                     pa.scalar(_part_token(None)), tok_col)
        else:  # all-null batch
            tok_col = pa.array([_part_token(None)] * len(col), pa.string())
        t = t.append_column("__part_token", tok_col)
        # Contiguous block-position salt: a hot partition spanning many
        # blocks hits every salt (full write parallelism); a small
        # partition clustered in one block region stays in few files.
        n = t.num_rows
        salt = (np.arange(n, dtype=np.int64) * nsalt) // max(n, 1)
        t = t.append_column("__part_salt", pa.array(salt))
        if len(done):
            t = t.filter(pc.invert(
                pc.is_in(t["__part_token"], value_set=done_arr)))
        # parquet-read tables carry schema metadata, which is unhashable
        # and makes the hash-shuffle log "Failed to hash the schemas"
        return t.replace_schema_metadata(None)

    ext = "parquet" if format == "parquet" else "jsonl"

    def commit(g: pa.Table) -> pa.Table:
        token = g["__part_token"][0].as_py()
        salt = int(g["__part_salt"][0].as_py())
        g = g.drop_columns(list(_RESERVED_COLS))
        pdir = os.path.join(out_dir, f"{partition_col}={token}")
        os.makedirs(pdir, exist_ok=True)
        # Deterministic name per (partition, salt): a retried task
        # atomically overwrites its own file — never a duplicate.
        path = os.path.join(pdir, f"data-{salt:04d}.{ext}")
        tmp = path + ".tmp"
        if format == "parquet":
            pq.write_table(g, tmp)
        else:
            # vectorized row-JSON via pandas (C-implemented serializer)
            g.to_pandas().to_json(tmp, orient="records", lines=True,
                                  force_ascii=False)
        os.replace(tmp, path)
        return pa.table({"partition": pa.array([token], pa.string()),
                         "rows": pa.array([g.num_rows], pa.int64())})

    out = keyed_fold(ds, ["__part_token", "__part_salt"], commit,
                     partial=tokenize_and_drop,
                     fallback=pa.table({"partition": pa.array([], pa.string()),
                                        "rows": pa.array([], pa.int64())}))
    # The consume is the commit-wave barrier: every salt of every
    # partition has landed once take_all returns — mark partitions done.
    # Driver holds O(partitions x salts) light rows.
    parts: dict[str, int] = {}
    for r in out.take_all():
        if r.get("partition"):
            parts[r["partition"]] = parts.get(r["partition"], 0) + r["rows"]
    for token, nrows in parts.items():
        with open(os.path.join(out_dir, f"{partition_col}={token}",
                               "_SUCCESS"), "w") as f:
            f.write(str(nrows))
    return {"written": len(parts), "skipped": len(done)}
