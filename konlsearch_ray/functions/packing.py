"""Token-budget packing: assign each document to a fixed-budget pack by
its exclusive prefix-sum offset in global ID order.

Building training shards of ~equal token cost needs, for every doc, the
total weight of all docs BEFORE it — a global ordered prefix sum, which
no single Ray Data primitive provides.  The house decomposition is the
classic distributed scan:

1. one column-pruned pass computes per-RANGE-BUCKET weight sums
   (bucket = (id - min_id) // width, so buckets are contiguous ID
   ranges and bucket order == ID order);
2. the driver exclusive-scans the ``blocks.default_nbuckets()`` range
   sums (tiny — one int per bucket, independent of corpus size) into
   bucket base offsets;
3. one keyed exchange routes rows to their bucket, and inside each
   bucket a single vectorized sort + cumsum finishes the scan:
   ``pack_id = (base + cumsum(w) - w) // budget``.

Every row moves exactly once (step 3's groupby); steps 1-2 move one row
per bucket.  The assignment depends only on (id, weight, budget) — never
on partitioning — so it is reproducible across runs and engines
(SQL: ``(sum(w) OVER (ORDER BY id ROWS UNBOUNDED PRECEDING) - w) //
budget``).  IDs must be unique (they are the order key).

A doc belongs to the pack its STARTING offset lands in, so packs can
overhang their budget by at most one document — the standard
offset-chunking contract (documents are never split; a greedy
first-fit that restarts at each boundary would be sequential and
partition-dependent).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Max, Min

from konlsearch_ray.functions import blocks
from konlsearch_ray.functions.blocks import keyed_fold, keyed_int_fold


def pack_by_offset(
    ds: ray.data.Dataset,
    id_col: str,
    weight_col: str,
    budget: int,
) -> ray.data.Dataset:
    """Attach ``pack_id`` = (exclusive prefix sum of ``weight_col`` in
    ``id_col`` order) // ``budget``.  Null weights count as 0."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    nbuckets = blocks.default_nbuckets()

    empty = pa.table({id_col: pa.array([], pa.int64()),
                      weight_col: pa.array([], pa.int64()),
                      "pack_id": pa.array([], pa.int64())})
    light = ds.select_columns([id_col, weight_col])
    bounds = light.aggregate(Min(id_col), Max(id_col))
    lo = bounds.get(f"min({id_col})")
    if lo is None:  # empty input
        return ray.data.from_arrow(empty)
    hi = bounds[f"max({id_col})"]
    width = max((int(hi) - int(lo)) // nbuckets + 1, 1)

    def _ids_weights(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        ids = pc.cast(t[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        w = pc.fill_null(pc.cast(t[weight_col], pa.int64()), 0).to_numpy(
            zero_copy_only=False)
        return ids, w

    def partial_sums(t: pa.Table) -> pa.Table:
        ids, w = _ids_weights(t)
        b = (ids - int(lo)) // width
        sums = np.zeros(nbuckets, dtype=np.int64)
        np.add.at(sums, b, w)  # exact int64, unlike bincount's float path
        nz = np.flatnonzero(sums)
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "wsum": pa.array(sums[nz], pa.int64())})

    # ≤ nbuckets rows per block reach this fold; the result is ≤
    # nbuckets rows total — driver-safe at any corpus size.
    agg = keyed_int_fold(
        light.map_batches(partial_sums, batch_format="pyarrow"), "bucket",
        {"wsum": "sum"}, out={"bucket": pa.int64(), "wsum": pa.int64()})
    bucket_sums = np.zeros(nbuckets, dtype=np.int64)
    for row in agg.take_all():
        bucket_sums[int(row["bucket"])] = int(row["wsum"])
    base = np.concatenate(([0], np.cumsum(bucket_sums)))[:nbuckets]

    def attach_bucket(t: pa.Table) -> pa.Table:
        ids, w = _ids_weights(t)
        b = (ids - int(lo)) // width
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         weight_col: pa.array(w, pa.int64()),
                         "bucket": pa.array(b, pa.int64())})

    def emit(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy(zero_copy_only=False)
        w = g[weight_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids, w = ids[order], w[order]
        b = int(g["bucket"][0].as_py())
        before = int(base[b]) + np.cumsum(w) - w
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         weight_col: pa.array(w, pa.int64()),
                         "pack_id": pa.array(before // budget, pa.int64())})

    return keyed_fold(light, "bucket", emit, partial=attach_bucket,
                      fallback=empty)
