"""Shared Dataset block-ref utilities and the one keyed exchange.

``keyed_fold(ds, key, merge, fallback=..., partial=...)`` is the
package's only keyed ``groupby`` + ``map_groups`` exchange: an optional
per-block ``partial`` (map-side combine), then Ray's default sort
shuffle on ``key`` and ``merge`` once per group.  Every wide step —
per-key folds, and the bucket-routed joins, windows and ranks whose
``partial`` adds a ``key_bucket`` column — goes through it, so swapping
the exchange is a one-place change.

It owns the Ray Data landmine every keyed exchange hits: empty
shuffle partitions emit 0-row blocks that either reach the group UDF
as an empty batch or BYPASS map UDFs entirely, so they travel
downstream with empty (or stale upstream) schemas, which the hash-join
operator rejects ("No match for FieldRef").  ``keyed_fold`` answers an
empty group with the typed ``fallback`` (``merge`` never sees one),
then rebuilds the output from its non-empty block refs — only refs
move to the driver, the blocks stay in the object store — and returns
exactly ``fallback`` when nothing survives, so an empty input keeps
the non-empty schema.

``nonempty_refs`` additionally reports the row count, so join chains can
SHORT-CIRCUIT on an empty side: Ray's hash-shuffle join crashes when a
side contributes zero rows (the aggregator's empty partition loses its
schema and Acero raises "No match or multiple matches for key field
reference ... on left side of the join"), so an empty input must never
reach a join at all.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def default_nbuckets() -> int:
    """Bucket count for the house bucketed-groupby pattern: a few
    buckets per cluster CPU (enough parallelism, small enough that the
    per-bucket merge state stays trivial)."""
    return max(16, 4 * int(ray.cluster_resources().get("CPU", 4)))


def default_join_partitions() -> int:
    """Hash-join/shuffle partition count: the join's fixed cost grows
    with aggregator-actor count, so default modestly; 100-TB callers
    should size partitions to their data (~1 GB each) instead."""
    return max(2, min(8, int(ray.cluster_resources().get("CPU", 4))))


def arrow_schema(ds: ray.data.Dataset) -> pa.Schema:
    """Dataset schema as a real ``pyarrow.Schema`` — unwraps Ray's lazy
    schema wrapper (``base_schema``) when present."""
    s = ds.schema(fetch_if_missing=True)
    if isinstance(s, pa.Schema):
        return s
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    return pa.schema(list(zip(s.names, s.types)))


def nonempty_refs(ds: ray.data.Dataset) -> tuple[list, int]:
    """Collect the dataset's non-empty Arrow block refs plus the total
    row count (refs only — no block data moves to the driver)."""
    refs, rows = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
                rows += meta.num_rows
    return refs, rows


def key_bucket(col, nbuckets: int) -> np.ndarray:
    """Vectorized bucket id for a key column: integers hash by value,
    strings and binaries by bytes, any other scalar type by its string
    cast. Routing only — in-bucket grouping compares exact values.
    Null keys route deterministically (as 0 / empty string)."""
    t = col.type
    if pa.types.is_integer(t):
        hv = (pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
              .astype(np.int64).view(np.uint64))
        hv = hv * np.uint64(0xFF51AFD7ED558CCD)
        hv ^= hv >> np.uint64(33)
    else:
        from konlsearch_ray.functions.dedup import _string_bucket_hash

        if not (pa.types.is_string(t) or pa.types.is_large_string(t)
                or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
            col = pc.cast(col, pa.string())
        hv = _string_bucket_hash(
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
    return (hv % np.uint64(nbuckets)).astype(np.int64)


def keyed_fold(
    ds: ray.data.Dataset,
    key: str | list[str],
    merge: Callable,
    *,
    fallback: pa.Table,
    partial: Callable | None = None,
    batch_format: str = "pyarrow",
) -> ray.data.Dataset:
    """``map_batches(partial)``, then ``groupby(key)`` + ``map_groups``
    of ``merge``, with the empty-partition landmine handled once (see
    the module docstring).

    ``partial`` and ``merge`` both see ``batch_format`` batches;
    ``merge`` sees only non-empty groups.  ``fallback`` is the typed
    empty output table: it answers empty groups, and it is the result
    when no group emits a row."""
    if partial is not None:
        ds = ds.map_batches(partial, batch_format=batch_format)

    def fold(g):
        return merge(g) if len(g) else fallback

    refs, _ = nonempty_refs(
        ds.groupby(key).map_groups(fold, batch_format=batch_format))
    return (ray.data.from_arrow_refs(refs) if refs
            else ray.data.from_arrow(fallback))


def nonempty_blocks(
    ds: ray.data.Dataset,
    cols: tuple[str, ...],
    fallback: pa.Table | None = None,
) -> ray.data.Dataset:
    """Rebuild a dataset from its non-empty Arrow block refs (refs only —
    no data moves).  Falls back to ``fallback`` (or one empty int64-typed
    block carrying ``cols``) when nothing survives."""
    refs, _ = nonempty_refs(ds)
    if not refs:
        return ray.data.from_arrow(
            fallback if fallback is not None
            else pa.table({c: pa.array([], pa.int64()) for c in cols}))
    return ray.data.from_arrow_refs(refs)


def pinned_nonempty(
    ds: ray.data.Dataset,
    cols: tuple[str, ...],
    fallback: pa.Table | None = None,
) -> tuple[ray.data.Dataset, int]:
    """``nonempty_blocks`` + the surviving row count, for callers that
    must short-circuit a downstream join when a side is empty."""
    refs, rows = nonempty_refs(ds)
    if not refs:
        return ray.data.from_arrow(
            fallback if fallback is not None
            else pa.table({c: pa.array([], pa.int64()) for c in cols})), 0
    return ray.data.from_arrow_refs(refs), rows


def cents_col(t: "pa.Table", col: str = "value"):
    """value*100 -> int64 cents: THE money-quantization rule every
    engine-vs-oracle money aggregate and bench kernel shares. Integer
    cents fold exactly in any partial order (a float64 sum is
    order-dependent, and round(2) near a .xx5 boundary could flip the
    last digit engine-vs-oracle). half_towards_infinity (= half away
    from zero) matches SQL round(); Arrow's default half_to_even would
    flip an exact .5-cent tie."""
    import pyarrow.compute as pc

    return pc.cast(
        pc.round(pc.multiply(t[col], 100.0),
                 round_mode="half_towards_infinity"),
        pa.int64())


def cents_np(values) -> "np.ndarray":
    """Numpy-level twin of :func:`cents_col` for kernels that already
    hold a float64 column (the window partials): the SAME Arrow kernel,
    so quantization is bit-equal by construction (a hand-rolled
    floor(x+0.5) differs at doubles like 0.49999999999999994). Callers
    drop null rows first; a non-null NaN raises here (ArrowInvalid on
    the int64 cast) — loud, exactly like the oracle's CAST."""
    import numpy as np
    import pyarrow.compute as pc

    arr = pa.array(np.asarray(values, dtype=np.float64))
    return pc.cast(
        pc.round(pc.multiply(arr, 100.0),
                 round_mode="half_towards_infinity"),
        pa.int64()).to_numpy()
