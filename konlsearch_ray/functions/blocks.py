"""Shared Dataset block-ref utilities and the one keyed exchange.

``bucket_fold(ds, key, merge, fallback=..., partial=...)`` holds the
package's only Ray ``groupby`` (a test guards it): an optional
per-block ``partial`` (map-side combine), then one route column —
``key_bucket`` of ``key`` (one column or a list) over a bucket count
read once on the driver from ``default_nbuckets()`` — then Ray's sort
shuffle on that one non-null int64 column and ``merge`` once per route
bucket, with every row of every key routed there.  ``keyed_fold`` is
that exchange plus a per-key split inside the bucket (one ``merge``
call per key), and ``keyed_int_fold`` folds whole buckets.  Every wide
step goes through these, so swapping the exchange is a one-place
change.

It owns the Ray Data landmine every keyed exchange hits: empty
shuffle partitions emit 0-row blocks that either reach the group UDF
as an empty batch or BYPASS map UDFs entirely, so they travel
downstream with empty (or stale upstream) schemas, which the hash-join
operator rejects ("No match for FieldRef").  ``bucket_fold`` answers an
empty group with the typed ``fallback`` (``merge`` never sees one),
then rebuilds the output from its non-empty block refs — only refs
move to the driver, the blocks stay in the object store — and returns
exactly ``fallback`` when nothing survives, so an empty input keeps
the non-empty schema.  The null-key landmine (the sort shuffle can
neither order a null beside a value nor keep null dates or float NaNs
in one group) is a routing fact: the shuffle only ever sees the route
column, which is never null, and ``key_bucket`` sends every null key of
a column to one bucket, every NaN to one bucket, and −0.0 with 0.0.
The keys themselves cross the exchange as stored.

``nonempty_refs`` additionally reports the row count, so join chains can
SHORT-CIRCUIT on an empty side: Ray's hash-shuffle join crashes when a
side contributes zero rows (the aggregator's empty partition loses its
schema and Acero raises "No match or multiple matches for key field
reference ... on left side of the join"), so an empty input must never
reach a join at all.

After an exchange, every in-bucket kernel finds its key runs and key
codes through the two rules here, so null handling is decided once:
``runs(*sorted_cols)`` gives the ``(starts, lens)`` of the runs over
aligned, already-sorted columns (a new run wherever ANY column
changes), and ``key_codes(col)`` codes a key column — codes in order of
first appearance — plus the row of each code's first appearance, so
distinct key values come back as ``col.take(first)`` in the column's
own type.  ``_segmented_order`` builds the per-key ordered operators'
scaffold from the two.

The one key rule (DuckDB's ``GROUP BY``) lives in two places only:
``key_bucket`` routes by it and ``key_codes`` groups by it.  A null key
is dropped or forms one group of its own, as each operator documents —
``_required_rows`` is the one filter that drops it; a float NaN is a
key of its own, never null; −0.0 and 0.0 are one key.  ``key_codes``
codes a null −1 and nothing else −1.

``keyed_int_fold`` is the one per-key fold — counts, exact int64
sums, and mins and maxes in the column's own Arrow type — over one key
column or a list.  Inside each block it drops the rows with a null in
the caller's ``required`` columns, codes the key tuples and folds them
to one partial row per key; the partial rows route by their keys, so
one merge call reduces a whole bucket, however many keys it holds (a
pair or n-gram count has one key per pair or n-gram), summing exactly
(Python ints past int64) before an operator's ``finish`` applies its
one final expression.  A caller drops null keys by naming its key
columns in ``required``: the integer statistics (corr, covar, stddev,
regression, min-max, z-score, weighted mean, rollup, cube) and the
funnel counts do, and the windows drop them before their fold; the
exact-dedup, label-propagation, pair, n-gram, shingle, term-table,
search-log, domain and pack-bucket folds keep a null key as a group of
its own (SQL ``GROUP BY``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
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


_FNV_BASIS, _FNV_PRIME = 0xCBF29CE484222325, 1099511628211


def key_bucket(cols, nbuckets: int) -> np.ndarray:
    """Vectorized bucket id for one key column or a list of them:
    integers hash by value, strings and binaries by bytes
    (``_string_bucket_hash``), any other scalar type by its string
    cast, and several columns combine their hashes in order. Routing
    only — in-bucket grouping compares exact values. Null keys route
    deterministically (as 0 / empty string); −0.0 and 0.0 route
    together, as do all NaNs."""
    if isinstance(cols, (pa.Array, pa.ChunkedArray)):
        cols = [cols]
    h = None
    for col in cols:
        t = col.type
        if pa.types.is_integer(t):
            hv = (pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
                  .astype(np.int64).view(np.uint64))
            hv = hv * np.uint64(0xFF51AFD7ED558CCD)
            hv ^= hv >> np.uint64(33)
        else:
            col = _one_zero(col)
            if not (pa.types.is_string(t) or pa.types.is_large_string(t)
                    or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
                col = pc.cast(col, pa.string())
            hv = _string_bucket_hash(col)
        h = hv if h is None else h * np.uint64(0x100000001B3) + hv
    return (h % np.uint64(nbuckets)).astype(np.int64)


def _string_bucket_hash(col) -> np.ndarray:
    """Vectorized 64-bit string hash — ``h = h * P + byte`` over each
    key's bytes from the FNV offset basis — used only for BUCKETING,
    never for identity (grouping inside a bucket compares exact
    values).  One pass over the column's data buffer: a key of ``L``
    bytes hashes to ``basis * P**L + sum(byte_j * P**(L-1-j))``, summed
    per key with ``reduceat`` at the offsets, so the cost is the total
    key bytes, not rows x widest key.  A key hashes the same in every
    batch, and a null hashes like the empty string (in-bucket grouping
    still tells null from "" by exact value)."""
    from konlsearch_ray.segment import binary_view

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offs, data = binary_view(col)
    rel = offs - offs[0]
    lens = np.diff(rel)
    data = np.frombuffer(data[offs[0]:offs[-1]], dtype=np.uint8)
    powers = np.full(int(lens.max(initial=0)) + 1, _FNV_PRIME, np.uint64)
    powers[0] = 1
    powers = np.cumprod(powers)  # P**i mod 2**64
    sums = np.zeros(len(lens), dtype=np.uint64)
    live = lens > 0
    if live.any():
        # byte j of a key ending at ``end`` weighs P**(end - 1 - j)
        expo = np.repeat(rel[1:], lens) - 1 - np.arange(len(data))
        sums[live] = np.add.reduceat(data * powers[expo], rel[:-1][live])
    if col.null_count:
        valid = col.is_valid().to_numpy(zero_copy_only=False)
        sums[~valid], lens[~valid] = 0, 0
    return np.uint64(_FNV_BASIS) * powers[lens] + sums


def runs(*sorted_cols) -> tuple[np.ndarray, np.ndarray]:
    """Runs over aligned, already-sorted numpy columns: a run starts at
    row 0 and wherever ANY column differs from the row before.  Returns
    ``(starts, lens)``; the last row of each run is ``starts + lens - 1``
    and the per-row run start is ``np.repeat(starts, lens)``."""
    n = len(sorted_cols[0])
    change = np.zeros(n, dtype=bool)
    change[:1] = True
    for c in sorted_cols:
        change[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(change)
    return starts, np.diff(starts, append=n)


def key_codes(col) -> tuple[np.ndarray, np.ndarray]:
    """Codes of a key column (Arrow, pandas or numpy) as int64, in
    order of first appearance, by the one key rule (module docstring):
    -1 for a null key and for nothing else; a float NaN is a key of its
    own; -0.0 and 0.0 are one key.  A pandas or numpy column has no
    null apart from NaN (pandas reads a null int as a NaN float), so
    there NaN is the null, as in ``pd.factorize``: -1.
    Returns ``(codes, first)``, ``first[c]`` being the row where code
    ``c`` first appears.  Arrow columns other than float ones are coded
    by Arrow's hash kernel, without a pandas round trip."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.Array) and pa.types.is_dictionary(col.type):
        col = col.dictionary_decode()
    if isinstance(col, pa.Array) and pa.types.is_floating(col.type):
        valid = col.is_valid().to_numpy(zero_copy_only=False)
        codes = np.full(len(col), -1, dtype=np.int64)
        codes[valid] = pd.factorize(col.drop_null().to_numpy(),
                                    sort=False, use_na_sentinel=False)[0]
    elif isinstance(col, pa.Array):
        codes = (pc.fill_null(pc.dictionary_encode(col).indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
    else:
        codes = pd.factorize(col, sort=False)[0].astype(np.int64)
    # codes rise by one at each first appearance
    first = np.flatnonzero(np.diff(np.maximum.accumulate(codes), prepend=-1))
    return codes, first


def _one_zero(col):
    """A key column with -0.0 as 0.0 (-0.0 + 0.0 is 0.0): Arrow's hash
    kernels and string casts tell the two zeros apart, the key rule
    does not."""
    return (pc.add(col, pa.scalar(0.0, col.type))
            if pa.types.is_floating(col.type) else col)


def key_index(col, keys) -> pa.Array:
    """``pc.index_in(col, value_set=keys)`` by the one key rule: a NaN
    finds the NaN key, and -0.0 finds 0.0."""
    return pc.index_in(_one_zero(col), value_set=_one_zero(keys))


def _required_rows(t: pa.Table, cols: tuple[str, ...]) -> pa.Table:
    """Drop rows where ANY of ``cols`` is null — the one null-key filter
    (a NaN key is a key, never dropped here), and the ordering contract
    of the per-key ordered operators (an unguarded null ts/id would
    NaN-cast to INT64_MIN and corrupt its neighbors' ordering — see
    ``key_lag_deltas``)."""
    mask = pc.is_valid(t[cols[0]])
    for c in cols[1:]:
        mask = pc.and_kleene(mask, pc.is_valid(t[c]))
    return t.filter(mask)


def _segmented_order(
    g: pa.Table, minor_keys: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared in-bucket scaffold for the per-key ordered operators
    (lag, rolling frames, sequences, percent_rank, ntile): one stable
    lexsort by (key, *minor_keys) plus the key-run segment geometry.

    ``g`` must carry the routed key in column ``"k"``; ``minor_keys``
    are numpy sort keys HIGHEST significance LAST (np.lexsort order).
    Returns ``(order, first, starts, seg_start)``: the sort
    permutation, the key-change mask over sorted rows, the segment
    start indices, and the per-row segment start (broadcast).
    """
    codes, _ = key_codes(g["k"])
    order = np.lexsort((*minor_keys, codes))
    starts, lens = runs(codes[order])
    first = np.zeros(len(order), dtype=bool)
    first[starts] = True
    return order, first, starts, np.repeat(starts, lens)


_ROUTE = "__route"


def bucket_fold(
    ds: ray.data.Dataset,
    key: str | list[str],
    merge: Callable[[pa.Table], pa.Table],
    *,
    fallback: pa.Table,
    partial: Callable[[pa.Table], pa.Table] | None = None,
) -> ray.data.Dataset:
    """The one keyed exchange (see the module docstring):
    ``map_batches(partial)``, a ``key_bucket`` route column over the
    ``key`` column(s) of each (partial) batch, then ``groupby`` on the
    route and ``merge`` once per route bucket.

    ``partial`` and ``merge`` take and return Arrow tables; ``merge``
    sees only non-empty buckets, every row of every key routed there,
    with the keys as stored and without the route column.
    ``fallback`` is the typed empty output table: it answers empty
    groups, and it is the result when no bucket emits a row."""
    keys = [key] if isinstance(key, str) else list(key)
    nbuckets = default_nbuckets()  # read once, on the driver

    def route(t: pa.Table) -> pa.Table:
        t = t if partial is None else partial(t)
        if _ROUTE in t.column_names:
            raise ValueError(f"column {_ROUTE!r} is reserved for routing")
        return t.append_column(_ROUTE, pa.array(
            key_bucket([t[k] for k in keys], nbuckets), pa.int64()))

    def fold(g: pa.Table) -> pa.Table:
        return merge(g.drop_columns([_ROUTE])) if len(g) else fallback

    refs, _ = nonempty_refs(
        ds.map_batches(route, batch_format="pyarrow", batch_size=None)
        .groupby(_ROUTE).map_groups(fold, batch_format="pyarrow"))
    return (ray.data.from_arrow_refs(refs) if refs
            else ray.data.from_arrow(fallback))


def keyed_fold(
    ds: ray.data.Dataset,
    key: str | list[str],
    merge: Callable[[pa.Table], pa.Table],
    *,
    fallback: pa.Table,
    partial: Callable[[pa.Table], pa.Table] | None = None,
) -> ray.data.Dataset:
    """``bucket_fold`` with ``merge`` called once per key: inside each
    route bucket the rows split by ``_row_codes`` of the ``key``
    column(s) (the one key rule: null keys form one group of their
    own, NaN keys another, and -0.0 and 0.0 one), and ``merge`` sees
    each key's rows in arrival order, with the key values as stored."""
    keys = [key] if isinstance(key, str) else list(key)

    def per_key(g: pa.Table) -> pa.Table:
        codes, _ = _row_codes(g, keys)
        order = np.argsort(codes, kind="stable")
        starts, lens = runs(codes[order])
        g = g.take(pa.array(order))
        return pa.concat_tables(
            [merge(g.slice(s, n)) for s, n in zip(starts.tolist(),
                                                  lens.tolist())],
            promote_options="default")

    return bucket_fold(ds, keys, per_key, fallback=fallback, partial=partial)


def _row_codes(t: pa.Table, keys: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``key_codes`` over the combination of several key columns: one
    code per distinct tuple of the columns' keys, a null key being a
    key here like any other, plus each code's first row."""
    codes = first = np.zeros(t.num_rows, dtype=np.int64)
    for k in keys:
        c, _ = key_codes(t[k])
        codes, first = key_codes(codes * (int(c.max(initial=-1)) + 2) + c + 1)
    return codes, first


def _fold_codes(t: pa.Table, codes: np.ndarray, aggs: list) -> pa.Table:
    """Arrow's hash aggregation of ``t`` per code: one row per code, in
    code order."""
    return (t.append_column("__code", pa.array(codes, pa.int64()))
            .group_by("__code", use_threads=False).aggregate(aggs)
            .sort_by("__code"))


def _exact_sum(hi: np.ndarray, lo: np.ndarray):
    """``hi * 2**32 + lo`` per key from the per-key sums of each partial
    value's high and low 32 bits: int64 where every total fits, else
    Python ints."""
    hi, lo = hi + (lo >> 32), lo & 0xFFFFFFFF
    if not len(hi) or (hi.min() >= -2**31 and hi.max() < 2**31):
        return (hi << 32) | lo
    return np.array([(h << 32) | w for h, w in zip(hi.tolist(), lo.tolist())],
                    dtype=object)


def keyed_int_fold(
    ds: ray.data.Dataset,
    key: str | list[str],
    folds: dict[str, str],
    vectors: Callable[[pa.Table], dict] | None = None,
    *,
    required: tuple[str, ...] = (),
    out: dict[str, pa.DataType] | None = None,
    finish: Callable[[dict], dict] | None = None,
) -> ray.data.Dataset:
    """The one per-key fold: ``count``, exact integer ``sum``, ``min``
    and ``max`` per key (one column or a list) through one
    ``bucket_fold``.

    Inside each block: drop the rows with a null in ``required``
    (``_required_rows`` — a caller that drops null keys names its key
    columns there; the others keep a null key as a group of its own),
    code the key tuples (``key_codes``: a NaN key is a key of its own,
    -0.0 and 0.0 are one key), and fold each ``folds`` entry per key
    into one partial row per key: a ``"count"`` counts the rows, and a
    ``"sum"``, ``"min"`` or ``"max"`` folds the named per-row vector of
    ``vectors(t)`` — a numpy or Arrow array over the surviving rows
    ``t`` (default: ``t``'s column of that name); sums take int64
    values, min and max keep the vector's type, cast to their ``out``
    type when ``out`` names them.  The partial rows route by their
    keys, so one merge call folds a whole bucket: it reduces the
    partial counts and sums of each key exactly (past int64, as Python
    ints) and the partial mins and maxes by Arrow's ordering.

    The output is the key columns, then ``out`` (default: the folds,
    int64) in its order; a key column ``out`` does not name takes its
    type from ``ds``'s schema, which runs ``ds``'s first blocks when it
    is not known.  ``finish`` (default: the totals as they are) maps
    each key's ``{name: value}`` — counts and sums as Python ints — to
    its output row; a ``None`` value emits a null."""
    keys = [key] if isinstance(key, str) else list(key)
    out = dict(out or dict.fromkeys(folds, pa.int64()))
    if any(k not in out for k in keys):
        sch = arrow_schema(ds)
        out = {k: sch.field(k).type for k in keys} | out
    ktyps = {k: out.pop(k) for k in keys}
    counted = {n for n, op in folds.items() if op in ("count", "sum")}

    # A count or sum crosses the exchange as the per-key sums of each
    # value's high and low 32 bits (".hi", ".lo"): neither can overflow
    # int64 below 2**31 rows per key, so the totals are exact.
    def partial(t: pa.Table) -> pa.Table:
        t = _required_rows(t, required) if required else t
        t = t.combine_chunks()
        codes, first = _row_codes(t, keys)
        vecs = t if vectors is None else vectors(t)
        parts, aggs = {}, [([], "count_all")]
        for n, op in folds.items():
            if op == "sum":
                v = np.asarray(vecs[n], dtype=np.int64)
                parts[n + ".hi"], parts[n + ".lo"] = v >> 32, v & 0xFFFFFFFF
                aggs += [(n + ".hi", "sum"), (n + ".lo", "sum")]
            elif op != "count":
                parts[n] = vecs[n]
                aggs.append((n, op))
        folded = _fold_codes(pa.table(parts) if parts else t.select([]),
                             codes, aggs)
        cols = {k: t[k].take(first) for k in keys}
        for n, op in folds.items():
            if op == "count":
                cols[n + ".hi"] = pa.array(np.zeros(len(first), np.int64))
                cols[n + ".lo"] = folded["count_all"]
            elif op == "sum":
                cols[n + ".hi"] = folded[n + ".hi_sum"]
                cols[n + ".lo"] = folded[n + ".lo_sum"]
            else:
                c = folded[f"{n}_{op}"]
                cols[n] = pc.cast(c, out.get(n, c.type))
        return pa.table(cols)

    def merge(g: pa.Table) -> pa.Table:
        codes, first = _row_codes(g, keys)
        aggs = [(n + part, "sum") for n in counted for part in (".hi", ".lo")]
        aggs += [(n, op) for n, op in folds.items() if n not in counted]
        folded = _fold_codes(g.select([c for c, _ in aggs]), codes, aggs)
        vals = {n: (_exact_sum(folded[n + ".hi_sum"].to_numpy(),
                               folded[n + ".lo_sum"].to_numpy())
                    if n in counted else folded[f"{n}_{folds[n]}"])
                for n in folds}
        cols = {k: g[k].take(first) for k in keys}
        if finish is None:
            cols |= {c: pa.array(vals[c], typ) if c in counted
                     else pc.cast(vals[c], typ) for c, typ in out.items()}
        else:
            rows = [finish(dict(zip(vals, row))) for row in zip(
                *(v.tolist() if isinstance(v, np.ndarray) else v.to_pylist()
                  for v in vals.values()))]
            cols |= {c: pa.array([r[c] for r in rows], typ)
                     for c, typ in out.items()}
        return pa.table(cols)

    fallback = pa.table({**{k: pa.array([], typ) for k, typ in ktyps.items()},
                         **{c: pa.array([], typ) for c, typ in out.items()}})
    return bucket_fold(ds, keys, merge, partial=partial, fallback=fallback)


def nonempty_blocks(
    ds: ray.data.Dataset,
    cols: tuple[str, ...],
    fallback: pa.Table | None = None,
) -> ray.data.Dataset:
    """Rebuild a dataset from its non-empty Arrow block refs (refs only —
    no data moves).  Falls back to ``fallback`` (or one empty int64-typed
    block carrying ``cols``) when nothing survives."""
    return pinned_nonempty(ds, cols, fallback)[0]


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
