"""Broadcast lookup join — small-side enrichment without a shuffle.

The canonical 100-TB pattern: a dimension table that fits in memory
(countries, licenses, source metadata, label maps) must NOT trigger an
all-to-all exchange of the big side.  The small side is ``ray.put`` into
the object store ONCE; each map task resolves it zero-copy from the
node-local object store (one inter-node transfer per node) and every
batch resolves keys with one hashed ``pc.index_in`` kernel — the big
side never moves.

Contrast with ``Dataset.join`` (used in the dedup/curation pipelines
where BOTH sides are large): that is a hash-partitioned exchange of both
inputs.  Use this operator whenever one side is O(dimension).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from konlsearch_ray.functions.blocks import (arrow_schema,
                                             default_join_partitions,
                                             default_nbuckets,
                                             key_bucket, keyed_fold,
                                             pinned_nonempty)


def broadcast_lookup_join(
    ds: ray.data.Dataset,
    right: pa.Table,
    left_key: str,
    right_key: str,
    take_cols: list[str] | None = None,
    how: str = "left",
) -> ray.data.Dataset:
    """Enrich ``ds`` with columns from the small table ``right``.

    ``right[right_key]`` must be unique (dimension-table contract —
    checked here, on the driver, where the table is O(dimension)).
    ``how="left"`` attaches nulls for unmatched keys; ``"inner"`` drops
    those rows.  The big side streams; only ``right`` is broadcast.
    """
    if how not in ("left", "inner"):
        raise ValueError(f"how must be 'left' or 'inner', got {how!r}")
    if take_cols is None:
        take_cols = [c for c in right.column_names if c != right_key]
    overlap = set(take_cols) & set(ds.schema().names)
    if overlap:
        raise ValueError(f"take_cols collide with left columns: {sorted(overlap)}")
    n_distinct = len(pc.unique(right[right_key]))
    if n_distinct != right.num_rows:
        raise ValueError(
            f"right key {right_key!r} is not unique "
            f"({right.num_rows} rows, {n_distinct} distinct)")
    # Broadcast ONCE; every task's ray.get resolves zero-copy from the
    # node-local object store (one inter-node transfer per node).
    right_ref = ray.put(right.select([right_key, *take_cols]).combine_chunks())

    def lookup(batch: pa.Table) -> pa.Table:
        dim: pa.Table = ray.get(right_ref)
        idx = pc.index_in(batch[left_key], value_set=dim[right_key])
        if how == "inner":
            sel = pc.is_valid(idx)
            batch = batch.filter(sel)
            idx = idx.filter(sel)
        for name in take_cols:
            batch = batch.append_column(name, pc.take(dim[name], idx))
        return batch.replace_schema_metadata(None)

    return ds.map_batches(lookup, batch_format="pyarrow")


def equi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    how: str = "inner",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Large×large hash equi-join — the shuffle path beside
    :func:`broadcast_lookup_join` for when NEITHER side is O(dimension).

    Wraps Ray's hash-partitioned ``Dataset.join`` with the house guards
    that make it safe in real pipelines:

    - all four SQL join types: ``inner`` / ``left`` / ``right`` /
      ``full``. The surviving key column is named ``left_key`` except
      on ``right`` (``right_key``); ``full`` emits one key column
      coalesced across both sides (SQL USING semantics);
    - SQL NULL semantics: null-key rows never match. Inner-ish sides
      have them filtered up front (they can contribute nothing); on an
      outer side they are KEPT and come back padded with null columns
      from the other side — exactly SQL OUTER JOIN (Ray's hash join
      already treats null keys as never-equal; verified by test);
    - schema metadata stripped (unhashable pandas metadata trips the
      hash-shuffle aggregator's schema dedup);
    - empty-block/empty-side handling (0-row shuffle partitions with
      stale schemas crash the join — ``pinned_nonempty`` both sides and
      short-circuit an empty input).

    Both sides move exactly once (one hash exchange each). Key columns
    must share a comparable type; non-key column names must not collide.
    """
    if how not in ("inner", "left", "right", "full"):
        raise ValueError(
            f"how must be 'inner'/'left'/'right'/'full', got {how!r}")
    lcols = list(left.schema().names)
    rcols = list(right.schema().names)
    overlap = (set(lcols) - {left_key}) & (set(rcols) - {right_key})
    if overlap:
        raise ValueError(
            f"non-key columns collide: {sorted(overlap)} (rename upstream)")

    def _clean(key: str | None):
        def fn(t: pa.Table) -> pa.Table:
            if key is not None:
                t = t.filter(pc.is_valid(t[key]))
            return t.replace_schema_metadata(None)
        return fn

    lsch, rsch = left.schema(), right.schema()
    ltypes = dict(zip(lsch.names, lsch.types))
    rtypes = dict(zip(rsch.names, rsch.types))
    l_extra = [(n, ltypes[n]) for n in lcols if n != left_key]
    r_extra = [(n, t) for n, t in zip(rsch.names, rsch.types)
               if n != right_key]
    # Output layout. Ray's join names the surviving key column after the
    # side that owns it: inner/left_outer emit ``left_key``; right_outer
    # emits ``right_key`` (left key dropped); full_outer emits ONE
    # ``left_key`` column already coalesced across both sides —
    # SQL USING / COALESCE(l.k, r.k) semantics (verified by test).
    key_name = right_key if how == "right" else left_key
    key_type = rtypes[right_key] if how == "right" else ltypes[left_key]
    keep = ([key_name] + [n for n, _ in l_extra] + [n for n, _ in r_extra])

    def _empty_joined() -> ray.data.Dataset:
        # 0-row result WITH the exact joined schema — never the generic
        # all-int64 fallback (a wrong empty schema breaks downstream
        # unions/selects).
        cols = {key_name: pa.array([], key_type)}
        cols.update({n: pa.array([], t) for n, t in l_extra})
        cols.update({n: pa.array([], t) for n, t in r_extra})
        return ray.data.from_arrow(pa.table({n: cols[n] for n in keep}))

    def _pad_left_rows(t: pa.Table) -> pa.Table:
        # Every left row survives with null right columns (left/full
        # against an empty right side).
        for n, typ in r_extra:
            t = t.append_column(n, pa.nulls(t.num_rows, typ))
        return t.select(keep)

    def _pad_right_rows(t: pa.Table) -> pa.Table:
        # Every right row survives with null left columns (right/full
        # against an empty left side); full names the key after the
        # left side (the coalesce collapses to the right values here).
        if key_name != right_key:
            t = t.rename_columns(
                [key_name if c == right_key else c for c in t.schema.names])
        for n, typ in l_extra:
            t = t.append_column(n, pa.nulls(t.num_rows, typ))
        return t.select(keep)

    # SQL NULL semantics: null keys never match, so null-key rows on an
    # inner-ish side are dropped up front; on an outer side they are
    # KEPT and come back padded (Ray's hash join treats null keys as
    # never-equal, so they flow through).
    l_filter = left_key if how in ("inner", "right") else None
    r_filter = right_key if how in ("inner", "left") else None
    lds = left.map_batches(_clean(l_filter), batch_format="pyarrow")
    rds = right.map_batches(_clean(r_filter), batch_format="pyarrow")
    lds, l_rows = pinned_nonempty(lds, tuple(lcols))
    if not l_rows:  # empty (or all-null-key on an inner-ish side) left
        if how in ("inner", "left"):
            return _empty_joined()
        rds, r_rows = pinned_nonempty(rds, tuple(rcols))
        if not r_rows:
            return _empty_joined()
        return rds.map_batches(_pad_right_rows, batch_format="pyarrow")
    rds, r_rows = pinned_nonempty(rds, tuple(rcols))
    if not r_rows:
        # A 0-row join input crashes the hash-shuffle aggregator —
        # short-circuit instead.
        if how in ("inner", "right"):
            return _empty_joined()
        return lds.map_batches(_pad_left_rows, batch_format="pyarrow")
    jt = {"inner": "inner", "left": "left_outer",
          "right": "right_outer", "full": "full_outer"}[how]
    out = lds.join(rds, jt,
                   num_partitions=num_partitions or default_join_partitions(),
                   on=(left_key,), right_on=(right_key,))

    # Project inside the stream (out.schema() on the driver would execute
    # the whole join plan once just for names, then re-execute it below).
    def proj(t: pa.Table) -> pa.Table:
        return t.select([c for c in keep if c in t.schema.names])

    from konlsearch_ray.functions.blocks import nonempty_blocks

    return nonempty_blocks(out.map_batches(proj, batch_format="pyarrow"),
                           tuple(keep))

def filter_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    mode: str = "semi",
    nbuckets: int | None = None,
) -> ray.data.Dataset:
    """Semi / anti join — keep left rows whose key does (``semi``) or
    does not (``anti``) appear in ``right``; SQL ``WHERE [NOT] EXISTS
    (SELECT 1 FROM right r WHERE r.key = l.key)``.

    This is the existence-filter shape (decontamination against a
    blocklist, "customers with no orders", drop-already-processed):
    attaching right columns with ``equi_join`` and dropping them would
    multiply matched rows and ship the right payload. Here the right
    side is projected to its KEY column and pre-distinct-ed per block
    before the exchange, so the shuffle moves the left rows once plus
    O(distinct right keys) — never the right payload.

    SQL NULL semantics: a null left key matches nothing — ``semi``
    drops such rows, ``anti`` keeps them; null right keys are ignored.
    Key columns must share a comparable Arrow type.
    """
    if mode not in ("semi", "anti"):
        raise ValueError(f"mode must be 'semi' or 'anti', got {mode!r}")
    nbuckets = nbuckets or default_nbuckets()
    lsch = arrow_schema(left)
    lcols = list(lsch.names)
    if "__fj_side" in lcols or "__fj_bucket" in lcols:
        raise ValueError("left columns collide with filter_join internals")
    ktyp = lsch.field(left_key).type

    def prep_left(t: pa.Table) -> pa.Table:
        # Null left keys route to bucket 0 deterministically; they are
        # resolved in-bucket (never match) so semantics hold wherever
        # they land.
        return (t.append_column("__fj_side",
                                pa.nulls(t.num_rows, pa.int8()).fill_null(0))
                 .append_column("__fj_bucket",
                                pa.array(key_bucket(t[left_key], nbuckets)))
                 .replace_schema_metadata(None))

    def prep_right(t: pa.Table) -> pa.Table:
        # Project to the key, drop nulls, per-block distinct BEFORE the
        # exchange: the shuffle carries O(distinct keys per block).
        # Type mismatch rule (SQL EXISTS parity): a right key that is
        # unrepresentable in the left key type (non-integral float,
        # out-of-range int, NaN) can never equal any left key, so it is
        # DROPPED — verified by a round-trip cast — rather than raising
        # (data-dependent crash) or truncating (fabricated matches).
        rk = t[right_key]
        if rk.type != ktyp:
            down = pc.cast(rk, ktyp, safe=False)
            back = pc.cast(down, rk.type, safe=False)
            exact = pc.fill_null(pc.equal(back, rk), False)
            rk = down.filter(exact)
        keys = pc.unique(pc.drop_null(rk))
        n = len(keys)
        cols: dict[str, object] = {}
        for name in lcols:
            if name == left_key:
                cols[name] = keys
            else:
                cols[name] = pa.nulls(n, lsch.field(name).type)
        cols["__fj_side"] = pa.nulls(n, pa.int8()).fill_null(1)
        cols["__fj_bucket"] = pa.array(key_bucket(keys, nbuckets))
        return pa.table(cols)

    fallback = pa.table(
        {name: pa.array([], lsch.field(name).type) for name in lcols})

    def emit(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = g["__fj_side"].to_numpy(zero_copy_only=False)
        lrows = g.filter(pa.array(side == 0)).drop_columns(
            ["__fj_side", "__fj_bucket"])
        rkeys = pc.unique(g.filter(pa.array(side == 1))[left_key]
                          .combine_chunks())
        if len(rkeys) == 0:
            match = pa.nulls(lrows.num_rows, pa.bool_()).fill_null(False)
        else:
            # index_in gives a NULL index for a null left key -> no
            # match, exactly the SQL EXISTS contract.
            match = pc.is_valid(pc.index_in(lrows[left_key],
                                            value_set=rkeys))
        keep = match if mode == "semi" else pc.invert(match)
        return lrows.filter(keep).select(lcols)

    lds = left.map_batches(prep_left, batch_format="pyarrow")
    rds = right.map_batches(prep_right, batch_format="pyarrow")
    return keyed_fold(lds.union(rds), "__fj_bucket", emit, fallback=fallback)
