"""Grouped numeric profiling: exact discrete quantiles per key.

The quantile spec is deliberately integer-indexed — ``q`` in basis
points picks ``sorted_values[(n-1) * q_bp // 10000]`` — so any engine
(numpy, SQL row_number arithmetic) reproduces the result bit-identically
with no interpolation or float round-mode ambiguity.

Scale note: exact quantiles need each key's values co-located, so this
is a ``keyed_fold`` on the key — the standard keyed-shuffle
assumption (one key's values fit one task, same contract as any
keyed fold). For keys too hot for that, bucket values into a fixed-point
histogram inside ``map_batches`` and aggregate histograms instead; the
exact path here is the oracle-comparable configuration.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from konlsearch_ray.functions.blocks import (_required_rows,
                                             _segmented_order,
                                             arrow_schema as _arrow_schema,
                                             bucket_fold, key_index,
                                             keyed_fold,
                                             keyed_int_fold, nonempty_refs,
                                             runs)

DEFAULT_QS = (("p50", 5000), ("p90", 9000), ("p99", 9900))


def grouped_quantiles(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    qs: tuple[tuple[str, int], ...] = DEFAULT_QS,
) -> ray.data.Dataset:
    """Per-key exact discrete quantiles of ``value_col``.

    Output: ``key_col``, ``n`` (group row count), one float64 column per
    ``(label, q_bp)`` entry holding ``sorted[(n-1) * q_bp // 10000]``.
    """
    labels = [lb for lb, _ in qs]
    bps = np.array([bp for _, bp in qs], dtype=np.int64)
    fallback = pa.table({
        key_col: pa.array([], _arrow_schema(ds).field(key_col).type),
        "n": pa.array([], pa.int64()),
        **{lb: pa.array([], pa.float64()) for lb in labels},
    })

    def emit(g: pa.Table) -> pa.Table:
        # Nulls are not values (SQL quantile semantics): NaN would sort
        # to the end and both shift the real quantiles and land the top
        # ones on NaN.
        raw = (g[value_col].drop_null().to_numpy(zero_copy_only=False)
               .astype(np.float64))
        v = np.sort(raw[~np.isnan(raw)])
        n = len(v)
        if not n:  # all-null group: emit nothing for it
            return fallback
        idx = (n - 1) * bps // 10_000
        return pa.table({key_col: g[key_col][:1], "n": [n],
                         **{lb: [float(v[i])] for lb, i in zip(labels, idx)}},
                        schema=fallback.schema)

    return keyed_fold(ds, key_col, emit, fallback=fallback)


def global_topk(
    ds: ray.data.Dataset,
    sort_keys: list[tuple[str, str]],
    k: int,
) -> ray.data.Dataset:
    """Global top-k rows WITHOUT a global sort.

    ``Dataset.sort(...).limit(k)`` range-shuffles every block; for a
    top-k that is pure waste.  Here each block reduces to its own top-k
    inside ``map_batches`` (one ``pc.sort_indices`` + ``take`` per
    block), and the surviving ``k × n_blocks`` rows — k rows per block,
    independent of data size — collapse in one final merge task
    (``repartition(1)``).  At 100 TB the exchange volume is O(k·blocks)
    rows instead of the whole table.

    ``sort_keys``: ``[(col, "ascending"|"descending"), ...]``; include a
    unique tie-break column (e.g. the ID) for deterministic output.
    """

    def topk(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        idx = pc.sort_indices(t, sort_keys=sort_keys)[:k]
        return t.take(idx).replace_schema_metadata(None)

    partial = ds.map_batches(topk, batch_format="pyarrow", batch_size=None)
    return partial.repartition(1).map_batches(topk, batch_format="pyarrow",
                                              batch_size=None)


def winsorize(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    id_col: str,
    lo_bp: int = 100,
    hi_bp: int = 9900,
) -> ray.data.Dataset:
    """Per-key winsorization: clip ``value_col`` to its key's exact
    discrete [lo_bp, hi_bp] basis-point quantiles — the outlier-taming
    normalization quality-score and reward columns get before training.

    Two bounded stages: the per-key quantile bounds come from
    :func:`grouped_quantiles` (one keyed exchange of values, O(keys)
    result), broadcast via ``ray.put``; the clip itself is a single
    vectorized map pass (the raw stream never shuffles for the clip).
    Null values pass through as null (SQL semantics: they are not
    values, so they neither shift the quantiles nor get clipped). A row
    whose key has NO bounds row — a null key, or a key whose values are
    all null — emits a null ``v_clip`` (SQL LEFT-JOIN-on-bounds
    parity), never a NaN. Output: ``id_col``, ``key_col``, ``v_clip``
    (float64).
    """
    import ray as _ray

    if not (0 <= lo_bp <= hi_bp <= 10_000):
        raise ValueError("need 0 <= lo_bp <= hi_bp <= 10000")
    refs, _ = nonempty_refs(grouped_quantiles(
        ds, key_col, value_col, qs=(("lo", lo_bp), ("hi", hi_bp))))
    # The fold emits a null-key group; SQL NULL = NULL is false, so a
    # null key must never find bounds (index_in WOULD match a null
    # entry in the value_set) — drop it from the broadcast table.
    bt = (_required_rows(pa.concat_tables(_ray.get(refs)), (key_col,))
          if refs else None)
    if not bt:
        # Every value is null (grouped_quantiles emits nothing): all
        # rows pass through with null v_clip.
        def passthru(t: pa.Table) -> pa.Table:
            return pa.table({
                id_col: t[id_col].cast(pa.int64()),
                key_col: t[key_col],
                "v_clip": pa.nulls(t.num_rows, pa.float64()),
            })

        return ds.map_batches(passthru, batch_format="pyarrow")
    ref = _ray.put(bt.combine_chunks())

    def clip(t: pa.Table) -> pa.Table:
        b: pa.Table = _ray.get(ref)
        idx = key_index(t[key_col], b[key_col])
        # A key with no bounds row (null key, or a key whose values are
        # all null) must emit NULL — not the float NaN an unmasked null
        # lo/hi would silently produce (SQL LEFT JOIN parity; same
        # has_bounds mask as grouped_minmax_norm).
        has_bounds = pc.is_valid(idx)
        lo = pc.fill_null(pc.take(b["lo"], idx), 0.0).to_numpy(
            zero_copy_only=False)
        hi = pc.fill_null(pc.take(b["hi"], idx), 0.0).to_numpy(
            zero_copy_only=False)
        v = pc.fill_null(pc.cast(t[value_col], pa.float64()), 0.0).to_numpy(
            zero_copy_only=False)
        clipped = np.minimum(np.maximum(v, lo), hi)
        ok = pc.and_(pc.is_valid(t[value_col]), has_bounds)
        vcol = pc.if_else(ok, pa.array(clipped),
                          pa.nulls(t.num_rows, pa.float64()))
        return pa.table({
            id_col: t[id_col].cast(pa.int64()),
            key_col: t[key_col],
            "v_clip": vcol,
        })

    return ds.map_batches(clip, batch_format="pyarrow")

def _check_abs_below(col, name: str, op: str, bound: int = 2**31) -> None:
    """Raise if any value in ``col`` has ``|x| >= bound`` — checked at
    the ARROW level (exact Python ints from min_max), because a numpy
    route is bypassable: ``np.abs(int64 min)`` stays negative and a
    uint64 column wraps through ``.astype(np.int64)`` before any
    magnitude check could see it."""
    mm = pc.min_max(col)
    lo, hi = mm["min"].as_py(), mm["max"].as_py()
    if lo is None:
        return
    if lo <= -bound or hi >= bound:
        raise ValueError(
            f"{op}: |{name}| >= 2**31 would overflow the exact int64 "
            f"product accumulation (a conservative cap, stricter than "
            f"the oracle's BIGINT); rescale the column upstream")


def _require_int(ds: ray.data.Dataset, cols: tuple[str, ...],
                 what: str) -> None:
    sch = _arrow_schema(ds)
    for c in cols:
        if not pa.types.is_integer(sch.field(c).type):
            raise ValueError(
                f"{c!r} must be integer-typed for exact {what} partials "
                f"(got {sch.field(c).type}); quantize upstream")


def _suffstat_fold(ds: ray.data.Dataset, key_col: str, x_col: str,
                   y_col: str, stats: tuple[str, ...], what: str,
                   out: dict, finish) -> ray.data.Dataset:
    """Shared fold of :func:`grouped_corr`, :func:`grouped_covar`,
    :func:`grouped_stddev` and :func:`grouped_regression`: exact int64
    per-key sums of the requested statistics (from ``n``, ``sx``,
    ``sy``, ``sxx``, ``syy``, ``sxy``) over the rows with a non-null
    key, x and y, then ``finish``. Keeping the fold in ONE place keeps
    the four operators' overflow and NULL contracts provably
    identical."""
    _require_int(ds, (x_col, y_col), what)

    def vectors(t: pa.Table) -> dict:
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # thunks: only the REQUESTED statistics pay their O(rows)
        # multiply (regression never computes y*y).
        vecs = {"sx": lambda: x, "sy": lambda: y, "sxx": lambda: x * x,
                "syy": lambda: y * y, "sxy": lambda: x * y}
        return {name: vecs[name]() for name in stats if name != "n"}

    return keyed_int_fold(ds, key_col,
                          {s: "count" if s == "n" else "sum" for s in stats},
                          vectors, required=(key_col, x_col, y_col),
                          out={"n": pa.int64(), **out}, finish=finish)


def grouped_corr(
    ds: ray.data.Dataset,
    key_col: str,
    x_col: str,
    y_col: str,
) -> ray.data.Dataset:
    """Per-key exact Pearson correlation between two INTEGER columns.

    Both columns must be integer-typed (quantize floats upstream — same
    cents rationale as every money aggregate here): the six sufficient
    statistics ``(n, Sx, Sy, Sxx, Syy, Sxy)`` then fold as exact int64
    sums in any order, and the one float expression

        (n*Sxy - Sx*Sy) / (sqrt(n*Sxx - Sx^2) * sqrt(n*Syy - Sy^2))

    is evaluated once per key from exact inputs — so the result is
    bit-identical to any engine (e.g. a SQL oracle) that computes the
    same expression from the same sums, with none of the order-dependent
    drift a streaming float covariance accumulates.

    Scale shape: per-batch vectorized partials (one ``np.add.at`` pass
    per statistic) reduce the exchange to ``O(keys x blocks)`` partial
    rows; one keyed merge sums them and applies the final expression.
    SQL aggregate NULL semantics: a row with a null in ``x_col`` or
    ``y_col`` contributes to neither sum nor count (matching
    ``corr(x, y)``, which skips pairs with any null); null keys are
    dropped, and NaN keys form a group of their own. Zero variance in
    either column yields a null ``corr`` (SQL corr returns NULL there
    too... via NaN; we emit NULL).

    Output: ``key_col``, ``n`` (int64), ``corr`` (float64).

    Overflow contract (checked nowhere — document at call sites): each
    per-key ``sum(x*x)`` etc. must fit int64 and stay below 2^53 if the
    oracle casts through doubles; |x|,|y| <= ~3e4 with <= ~1e8 rows/key
    is safe.
    """
    def finish(s: dict) -> dict:
        n, sx, sy = s["n"], s["sx"], s["sy"]
        # The one float expression — mirror it EXACTLY in any oracle:
        # every operand cast to double first, same operation order.
        vx = float(n) * float(s["sxx"]) - float(sx) * float(sx)
        vy = float(n) * float(s["syy"]) - float(sy) * float(sy)
        if vx <= 0.0 or vy <= 0.0:
            return {"n": n, "corr": None}
        num = float(n) * float(s["sxy"]) - float(sx) * float(sy)
        return {"n": n, "corr": num / (np.sqrt(vx) * np.sqrt(vy))}

    return _suffstat_fold(ds, key_col, x_col, y_col,
                          ("n", "sx", "sy", "sxx", "syy", "sxy"), "corr",
                          {"corr": pa.float64()}, finish)


def grouped_covar(
    ds: ray.data.Dataset,
    key_col: str,
    x_col: str,
    y_col: str,
) -> ray.data.Dataset:
    """Per-key exact SAMPLE covariance between two INTEGER columns —
    SQL ``covar_samp`` — from the same exact integer sufficient
    statistics as :func:`grouped_corr` (quantize floats upstream). The
    one float expression

        covar = (n·Sxy − Sx·Sy) / (n·(n−1))

    evaluates once per key from exact int64 sums, so it is bit-identical
    to any oracle that mirrors the expression (every operand cast to
    double first, same operation order) — none of the order-dependent
    drift of a streaming float covariance. ``n < 2`` emits NULL (SQL
    ``covar_samp`` semantics); null keys and null-x/y rows are dropped
    exactly as in ``grouped_corr`` (the fold is shared code).

    Output: ``key_col``, ``n`` (int64), ``covar`` (float64). Same
    overflow contract as ``grouped_corr``: per-key ``sum(x*y)`` must
    fit int64 and stay below 2^53 for double-casting oracles.
    """
    def finish(s: dict) -> dict:
        n = s["n"]
        if n < 2:
            return {"n": n, "covar": None}
        num = float(n) * float(s["sxy"]) - float(s["sx"]) * float(s["sy"])
        return {"n": n, "covar": num / (float(n) * float(n - 1))}

    return _suffstat_fold(ds, key_col, x_col, y_col, ("n", "sx", "sy", "sxy"),
                          "covar", {"covar": pa.float64()}, finish)


def grouped_stddev(
    ds: ray.data.Dataset,
    key_col: str,
    x_col: str,
) -> ray.data.Dataset:
    """Per-key exact SAMPLE standard deviation of an INTEGER column —
    SQL ``stddev_samp`` — from the shared suffstat fold (quantize
    floats upstream). The one float expression

        stddev = sqrt(greatest((n·Sxx − Sx²) / (n·(n−1)), 0))

    evaluates from exact int64 sums. The numerator is ≥ 0 EXACTLY but
    its float evaluation can round a few ulp negative on constant
    groups with large values, so both sides clamp at 0 (the oracle via
    ``greatest``); ``n < 2`` emits NULL, a constant column emits 0.0 —
    both matching ``stddev_samp``. Null keys / null values drop exactly
    as in ``grouped_corr``.

    Output: ``key_col``, ``n`` (int64), ``stddev`` (float64). Same
    overflow contract as the other suffstat operators.
    """
    def finish(s: dict) -> dict:
        n, sx = s["n"], s["sx"]
        if n < 2:
            return {"n": n, "stddev": None}
        # Clamp at 0: the EXACT numerator n·Sxx − Sx² is ≥ 0, but the
        # float evaluation can round a few ulp negative for
        # constant/near-constant groups with large values (observed:
        # 13 × 123456789 → −3.28), which would NaN here and hard-error
        # a SQL oracle's sqrt. Mirror with greatest(.., 0).
        var = (float(n) * float(s["sxx"]) - float(sx) * float(sx)) / (
            float(n) * float(n - 1))
        return {"n": n, "stddev": np.sqrt(max(var, 0.0))}

    return _suffstat_fold(ds, key_col, x_col, x_col, ("n", "sx", "sxx"),
                          "stddev", {"stddev": pa.float64()}, finish)


def grouped_regression(
    ds: ray.data.Dataset,
    key_col: str,
    x_col: str,
    y_col: str,
) -> ray.data.Dataset:
    """Per-key ordinary least squares of ``y`` on ``x`` — SQL
    ``regr_slope`` / ``regr_intercept`` — from the SAME exact integer
    sufficient statistics as :func:`grouped_corr` (both columns must be
    integer-typed; quantize upstream). Unlike a streaming float
    covariance, the sums fold exactly in any partial order, and the two
    float expressions

        slope     = (n·Sxy − Sx·Sy) / (n·Sxx − Sx²)
        intercept = (Sy − slope·Sx) / n

    (every operand cast to double first, same operation order) are
    bit-reproducible by any oracle that mirrors them. Zero x-variance
    keys emit null slope/intercept (SQL regr_slope does too, via
    NULL-on-zero-denominator). Same scale shape, NULL semantics and
    overflow contract as grouped_corr.

    Output: ``key_col``, ``n`` (int64), ``slope``, ``intercept``
    (float64).
    """
    def finish(s: dict) -> dict:
        n, sx, sy = s["n"], s["sx"], s["sy"]
        # The two float expressions — mirror EXACTLY in any oracle.
        den = float(n) * float(s["sxx"]) - float(sx) * float(sx)
        if den <= 0.0:
            return {"n": n, "slope": None, "intercept": None}
        slope = (float(n) * float(s["sxy"]) - float(sx) * float(sy)) / den
        return {"n": n, "slope": slope,
                "intercept": (float(sy) - slope * float(sx)) / float(n)}

    return _suffstat_fold(ds, key_col, x_col, y_col,
                          ("n", "sx", "sy", "sxx", "sxy"), "regression",
                          {"slope": pa.float64(), "intercept": pa.float64()},
                          finish)


def grouped_percent_rank(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    id_col: str,
) -> ray.data.Dataset:
    """Per-key percent rank — SQL ``percent_rank() OVER (PARTITION BY
    key ORDER BY v)`` = ``(rank - 1) / (n - 1)`` with RANK tie
    semantics (ties share the min rank) and 0.0 for single-row keys —
    the per-source score-calibration primitive (turn a raw quality
    score into its within-source percentile before cross-source
    filtering).

    Output: ``key_col``, ``id_col``, ``v`` (int64), ``pct`` (float64,
    computed as the one expression ``double(rank-1) / double(n-1)`` —
    mirror it exactly in any oracle). ``value_col`` must be
    integer-typed (rank ties on floats are representation-dependent;
    quantize upstream). Rows with a null key, value or id are dropped
    (SQL orders null values as a rank group, but they carry no rank
    signal and the null-ordering convention differs per engine).

    One hash exchange on the key bucket (same partitioning contract as
    every keyed op here); in-bucket it is one lexsort + run-length
    first-occurrence scan — no per-row Python.
    """

    sch = _arrow_schema(ds)
    ktyp = sch.field(key_col).type
    ityp = sch.field(id_col).type
    if not pa.types.is_integer(sch.field(value_col).type):
        raise ValueError(
            f"value_col {value_col!r} must be integer-typed "
            f"(got {sch.field(value_col).type}); quantize upstream")

    def prep(t: pa.Table) -> pa.Table:
        t = _required_rows(t, (key_col, value_col, id_col))
        return pa.table({
            "k": t[key_col],
            "i": t[id_col],
            "v": pc.cast(t[value_col], pa.int64()),
        })

    fallback = pa.table({
        key_col: pa.array([], ktyp),
        id_col: pa.array([], ityp),
        "v": pa.array([], pa.int64()),
        "pct": pa.array([], pa.float64()),
    })

    def emit(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        v = g["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = g["i"].to_numpy(zero_copy_only=False)
        order, first_k, starts, seg_start = _segmented_order(g, (ids, v))
        vs = v[order]
        n = len(order)
        # segment sizes -> per-row n
        seg_n = np.diff(np.append(starts, n))[np.cumsum(first_k) - 1]
        # RANK with ties: first row of each row's (key, v) run
        v_starts, v_lens = runs(seg_start, vs)
        rank = np.repeat(v_starts, v_lens) - seg_start + 1
        denom = seg_n - 1
        # The one float expression — mirror in the oracle exactly.
        pct = np.where(denom > 0,
                       (rank - 1).astype(np.float64)
                       / np.maximum(denom, 1).astype(np.float64),
                       0.0)
        oi = pa.array(order)
        return pa.table({
            key_col: g["k"].take(oi),
            id_col: g["i"].take(oi),
            "v": pa.array(vs),
            "pct": pa.array(pct),
        })

    return bucket_fold(ds, "k", emit, partial=prep, fallback=fallback)

def grouped_ntile(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    id_col: str,
    n_tiles: int,
) -> ray.data.Dataset:
    """Per-key NTILE bucketing — SQL ``ntile(n) OVER (PARTITION BY key
    ORDER BY v, id)`` — the quantile-bucket assignment behind
    difficulty tiers, stratified curriculum buckets, and per-source
    balanced batch mixes.

    Exact SQL tile sizing: with ``n`` rows and ``b`` tiles, the first
    ``n % b`` tiles get ``n // b + 1`` rows, the rest ``n // b`` —
    pure integer arithmetic over the per-key row number (ordered by
    value then id: ROW_NUMBER, not RANK — equal values in different
    rows may land in different tiles, exactly like SQL). Output:
    ``key_col``, ``id_col``, ``v`` (int64), ``tile`` (int64, 1-based).

    ``value_col`` must be integer-typed (float order ties are
    representation-dependent; quantize upstream). Rows with a null
    key, value or id are dropped (same contract and rationale as
    :func:`grouped_percent_rank`). One hash exchange on the key
    bucket; in-bucket one lexsort + integer arithmetic.
    """

    if n_tiles < 1:
        raise ValueError(f"n_tiles must be >= 1, got {n_tiles}")
    sch = _arrow_schema(ds)
    ktyp = sch.field(key_col).type
    ityp = sch.field(id_col).type
    if not pa.types.is_integer(sch.field(value_col).type):
        raise ValueError(
            f"value_col {value_col!r} must be integer-typed "
            f"(got {sch.field(value_col).type}); quantize upstream")

    def prep(t: pa.Table) -> pa.Table:
        t = _required_rows(t, (key_col, value_col, id_col))
        return pa.table({
            "k": t[key_col],
            "i": t[id_col],
            "v": pc.cast(t[value_col], pa.int64()),
        })

    fallback = pa.table({
        key_col: pa.array([], ktyp),
        id_col: pa.array([], ityp),
        "v": pa.array([], pa.int64()),
        "tile": pa.array([], pa.int64()),
    })

    def emit(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        v = g["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = g["i"].to_numpy(zero_copy_only=False)
        order, first, starts, seg_start = _segmented_order(g, (ids, v))
        n = len(order)
        rn = np.arange(n, dtype=np.int64) - seg_start  # 0-based row num
        seg_n = np.diff(np.append(starts, n))[np.cumsum(first) - 1]
        q, rem = seg_n // n_tiles, seg_n % n_tiles
        big = q + 1                       # size of the first `rem` tiles
        cut = rem * big                   # rows covered by the big tiles
        in_big = rn < cut
        # q can be 0 (more tiles than rows): every row is then in a
        # "big" tile of size 1, so the else-branch divisor never sees 0.
        tile = np.where(in_big, rn // np.maximum(big, 1) + 1,
                        rem + (rn - cut) // np.maximum(q, 1) + 1)
        oi = pa.array(order)
        return pa.table({
            key_col: g["k"].take(oi),
            id_col: g["i"].take(oi),
            "v": pa.array(v[order]),
            "tile": pa.array(tile.astype(np.int64)),
        })

    return bucket_fold(ds, "k", emit, partial=prep, fallback=fallback)

def grouped_minmax_norm(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    id_col: str,
) -> ray.data.Dataset:
    """Per-key min-max normalization of an INTEGER column —
    ``(v - min) / (max - min)`` per key — the [0,1] feature scaling
    quality/reward columns get before mixing across sources.

    Two bounded stages, zero raw-row shuffles: per-block (key, min,
    max) partials collapse inside ``map_batches``, one tiny keyed merge
    produces the O(keys) bounds table, which broadcasts via ``ray.put``;
    the normalization itself is a single vectorized map pass over the
    stream. The one float expression ``double(v - min) / double(max -
    min)`` is evaluated from exact integers — mirror it
    operand-for-operand in any oracle. A zero-range key (min == max)
    yields null (SQL division by zero); null values pass through as
    null; null keys are dropped (no partition).

    Output: ``key_col``, ``id_col``, ``v`` (int64), ``norm`` (float64).
    """
    import ray as _ray

    _require_int(ds, (value_col,), "min-max")

    def vectors(t: pa.Table) -> dict:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return {"mn": v, "mx": v}

    refs, rows = nonempty_refs(keyed_int_fold(
        ds, key_col, {"mn": "min", "mx": "max"}, vectors,
        required=(key_col, value_col)))
    if not rows:
        def passthru(t: pa.Table) -> pa.Table:
            t2 = _required_rows(t, (key_col,))
            return pa.table({
                key_col: t2[key_col],
                id_col: t2[id_col],
                "v": pc.cast(t2[value_col], pa.int64()),
                "norm": pa.nulls(t2.num_rows, pa.float64()),
            })

        return ds.map_batches(passthru, batch_format="pyarrow")
    bt = pa.concat_tables(_ray.get(refs)).combine_chunks()
    # int64 wrap guard: a key range that does not fit int64 would wrap
    # silently in the numpy (mx - mn) below — the oracle's BIGINT
    # arithmetic raises there, so raise here too (subtract_checked
    # throws ArrowInvalid on overflow; O(keys) cost, once).
    pc.subtract_checked(bt["mx"], bt["mn"])
    ref = _ray.put(bt)

    def norm(t: pa.Table) -> pa.Table:
        b: pa.Table = _ray.get(ref)
        t = _required_rows(t, (key_col,))
        idx = key_index(t[key_col], b[key_col])
        # STAY int64: a null idx (key with only null values) must not
        # promote the whole batch's mn/mx to float64 — that would both
        # degrade (v - mn) below 2^53-exactness and make results depend
        # on batch composition. Track missing bounds as a mask instead.
        has_bounds = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        mn = pc.fill_null(pc.take(b["mn"], idx), 0).to_numpy(
            zero_copy_only=False)
        mx = pc.fill_null(pc.take(b["mx"], idx), 0).to_numpy(
            zero_copy_only=False)
        vcol = pc.cast(t[value_col], pa.int64())
        v = pc.fill_null(vcol, 0).to_numpy(zero_copy_only=False)
        rng = mx - mn
        with np.errstate(divide="ignore", invalid="ignore"):
            # The one float expression — mirror in the oracle exactly.
            # v lies in [mn, mx] for its key, so v - mn cannot wrap when
            # mx - mn did not (guarded at broadcast time).
            out = (v - mn).astype(np.float64) / rng.astype(np.float64)
        # both operands are non-null boolean arrays: plain AND suffices
        ok = pc.and_(pc.is_valid(vcol),
                     pa.array(has_bounds & (rng != 0)))
        ncol = pc.if_else(ok,
                          pa.array(np.nan_to_num(out, nan=0.0, posinf=0.0,
                                                 neginf=0.0)),
                          pa.nulls(t.num_rows, pa.float64()))
        return pa.table({
            key_col: t[key_col],
            id_col: t[id_col],
            "v": vcol,
            "norm": ncol,
        })

    return ds.map_batches(norm, batch_format="pyarrow")


def grouped_zscore(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    id_col: str,
) -> ray.data.Dataset:
    """Per-key z-score normalization of an INTEGER column —
    ``(v - mean) / stddev_pop`` per key — the standardization features
    get before cross-source mixing (complements
    :func:`grouped_minmax_norm`'s [0,1] scaling).

    Same two-bounded-stage shape as minmax: per-block ``(key, n, sum,
    sumsq)`` partials collapse inside ``map_batches``, one tiny keyed
    merge folds them in arbitrary-precision Python ints (exact — the
    SQL oracle's HUGEINT does the same), and the O(keys) stats table
    broadcasts via ``ray.put`` for a single vectorized map pass. No raw
    row ever shuffles.

    Exactness contract: the float result is derived from exact integer
    sufficient statistics through ONE fixed expression —
    ``(v::double - s::double/n::double) /
    sqrt((n*ssq - s*s)::double / (n::double * n::double))`` —
    mirror it operand-for-operand in any oracle. ``sum(v*v)`` is
    accumulated wrap-free at any block size via a two-limb split
    (``v² = a²·2³² + 2ab·2¹⁶ + b²`` with ``a = |v|>>16``,
    ``b = |v|&0xffff`` — each limb sum fits int64 for any block below
    2³¹ rows) and recombined in Python ints at merge. ``|v| ≥ 2³¹``
    raises — a conservative cap (BIGINT ``v*v`` itself survives up to
    ``|v| < 2^31.5``), chosen so the failure is loud on the engine side
    before anything can be silently wrong; rescale upstream.

    A zero-variance key yields null ``z`` (SQL CASE, division by zero);
    rows with a null key or value are dropped (no partition / no rank
    signal). Output: ``key_col``, ``id_col``, ``v`` (int64), ``z``
    (float64).
    """
    import ray as _ray

    _require_int(ds, (value_col,), "z-score")

    def vectors(t: pa.Table) -> dict:
        _check_abs_below(t[value_col], value_col, "grouped_zscore")
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        av = np.abs(v)
        # two-limb v² = a²·2³² + 2ab·2¹⁶ + b²: every limb sum fits
        # int64 for any realistic block (see docstring).
        a, b = av >> 16, av & 0xFFFF
        return {"s": v, "saa": a * a, "sab": a * b, "sbb": b * b}

    def finish(t: dict) -> dict:
        n, s = t["n"], t["s"]
        ssq = t["saa"] * (1 << 32) + 2 * t["sab"] * (1 << 16) + t["sbb"]
        num = n * ssq - s * s                # >= 0 (Cauchy-Schwarz)
        return {"n": n, "s_d": float(s),
                "var_d": (float(num) / (float(n) * float(n))
                          if num > 0 else None)}

    refs, rows = nonempty_refs(keyed_int_fold(
        ds, key_col,
        {"n": "count", **dict.fromkeys(("s", "saa", "sab", "sbb"), "sum")},
        vectors, required=(key_col, value_col), finish=finish,
        out={"n": pa.int64(), "s_d": pa.float64(), "var_d": pa.float64()}))
    ktyp = _arrow_schema(ds).field(key_col).type
    out_schema = pa.schema([(key_col, ktyp), (id_col, pa.int64()),
                            ("v", pa.int64()), ("z", pa.float64())])
    if not rows:
        return ray.data.from_arrow(out_schema.empty_table())
    bt = pa.concat_tables(_ray.get(refs)).combine_chunks()
    ref = _ray.put(bt)

    def zmap(t: pa.Table) -> pa.Table:
        b: pa.Table = _ray.get(ref)
        t = _required_rows(t, (key_col, value_col))
        idx = key_index(t[key_col], b[key_col])
        # every surviving (non-null-key, non-null-value) row HAS a
        # stats row by construction; a missing one would be a bug.
        n_d = pc.take(b["n"], idx).to_numpy(
            zero_copy_only=False).astype(np.float64)
        s_d = pc.take(b["s_d"], idx).to_numpy(zero_copy_only=False)
        var = pc.take(b["var_d"], idx)
        has_var = pc.is_valid(var).to_numpy(zero_copy_only=False)
        var_d = pc.fill_null(var, 1.0).to_numpy(zero_copy_only=False)
        v = pc.cast(t[value_col], pa.int64())
        vf = v.to_numpy(zero_copy_only=False).astype(np.float64)
        # THE expression (see docstring) — keep operand order.
        z = (vf - s_d / n_d) / np.sqrt(var_d)
        zcol = pc.if_else(pa.array(has_var), pa.array(z),
                          pa.nulls(t.num_rows, pa.float64()))
        return pa.table({key_col: t[key_col], id_col: t[id_col],
                         "v": v, "z": zcol})

    return ds.map_batches(zmap, batch_format="pyarrow")


def _histogram_quantile_op(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    qs: tuple[tuple[str, int], ...],
    pick,
) -> ray.data.Dataset:
    """Shared scaffold of the distinct-pair-bounded quantile operators
    (:func:`grouped_quantiles_int`, :func:`grouped_quantiles_cont`):
    per-block ``(key, value, count)`` partials via Arrow's C++ hash
    group-by (exchange bounded by distinct pairs per block, never row
    count), one keyed merge into the per-key SORTED value histogram
    ``(v, cum, n)``, then ``pick(v, cum, n, bps) -> float64 per
    quantile`` — the only step the two operators differ in.

    Null values are not values; all-null (or empty) keys emit nothing;
    null keys are dropped (no partition). ``value_col`` must be
    integer-typed.
    """
    sch = _arrow_schema(ds)
    ktyp = sch.field(key_col).type
    if not pa.types.is_integer(sch.field(value_col).type):
        raise ValueError(
            f"value_col {value_col!r} must be integer-typed "
            f"(got {sch.field(value_col).type}); use grouped_quantiles "
            f"or quantize upstream")
    labels = [lb for lb, _ in qs]
    bps = np.array([bp for _, bp in qs], dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        t = _required_rows(t.select([key_col, value_col]),
                           (key_col, value_col))
        out = (t.group_by([key_col, value_col]).aggregate([([], "count_all")])
               .rename_columns([key_col, value_col, "cnt"]))
        return out.replace_schema_metadata(None)

    fallback = pa.table({
        key_col: pa.array([], ktyp),
        "n": pa.array([], pa.int64()),
        **{lb: pa.array([], pa.float64()) for lb in labels},
    })

    def emit(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        summed = (g.group_by([value_col]).aggregate([("cnt", "sum")])
                  .rename_columns([value_col, "cnt"]))
        v = summed[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        c = summed["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(v, kind="stable")
        v, c = v[order], c[order]
        cum = np.cumsum(c)
        n = int(cum[-1])
        out_q = pick(v, cum, n, bps)
        row = {key_col: g[key_col][:1], "n": pa.array([n], pa.int64())}
        for lb, val in zip(labels, out_q):
            row[lb] = pa.array([float(val)], pa.float64())
        return pa.table(row)

    return keyed_fold(ds, key_col, emit, partial=partial, fallback=fallback)


def grouped_quantiles_int(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    qs: tuple[tuple[str, int], ...] = DEFAULT_QS,
) -> ray.data.Dataset:
    """:func:`grouped_quantiles` for INTEGER columns WITHOUT co-locating
    each key's raw rows — the hot-key scale path the exact operator's
    docstring promises: identical integer-indexed quantile spec
    (``sorted[(n-1) * q_bp // 10000]``), resolved from cumulative counts
    over the merged distinct-value histogram (see
    :func:`_histogram_quantile_op` for the shared exchange shape and
    NULL semantics). For a bounded value domain (scores, cents,
    lengths) a key of ANY row count reduces to its distinct values —
    exact, not a sketch. Output matches :func:`grouped_quantiles`.
    """

    def pick(v, cum, n, bps):
        idx = (n - 1) * bps // 10_000  # the shared integer-indexed spec
        return v[np.searchsorted(cum, idx, side="right")].astype(np.float64)

    return _histogram_quantile_op(ds, key_col, value_col, qs, pick)


def grouped_quantiles_cont(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    qs: tuple[tuple[str, int], ...] = DEFAULT_QS,
) -> ray.data.Dataset:
    """Linearly INTERPOLATED per-key quantiles (SQL ``percentile_cont``
    / DuckDB ``quantile_cont`` semantics) over an INTEGER column — the
    same scaffold as :func:`grouped_quantiles_int`, differing only in
    the final pick.

    Interpolation is pinned to ONE explicit expression so any oracle
    can mirror it operand-for-operand instead of trusting an engine
    built-in's private float order: with ``pos = (n-1)·q_bp``,
    ``lo = pos // 10000``, ``fr = pos % 10000`` (exact ints) and
    ``v_hi`` the next order statistic when ``fr > 0`` (else ``v_lo``):

        double(v_lo) + (double(fr) / 10000.0) · (double(v_hi) − double(v_lo))
    """

    def pick(v, cum, n, bps):
        pos = (n - 1) * bps
        lo_idx, fr = pos // 10_000, pos % 10_000
        hi_idx = lo_idx + (fr > 0)
        v_lo = v[np.searchsorted(cum, lo_idx, side="right")]
        v_hi = v[np.searchsorted(cum, hi_idx, side="right")]
        # THE interpolation expression (see docstring) — keep the order.
        return (v_lo.astype(np.float64)
                + (fr.astype(np.float64) / 10000.0)
                * (v_hi.astype(np.float64) - v_lo.astype(np.float64)))

    return _histogram_quantile_op(ds, key_col, value_col, qs, pick)


def grouped_mad(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
) -> ray.data.Dataset:
    """Per-key median absolute deviation — ``median(|v - median(v)|)``
    with the shared integer-indexed discrete-median spec — the robust
    spread statistic quality-score pipelines prefer over stddev (one
    outlier can't move it).

    Composition of two bounded stages, zero raw-row shuffles: the
    per-key median comes from the distinct-pair histogram exchange
    (:func:`_histogram_quantile_op`), broadcasts as an O(keys) table
    via ``ray.put``, a single vectorized map pass rewrites each row to
    its exact integer deviation ``|v - med|``, and the SAME histogram
    exchange computes the deviation median. Every intermediate is an
    exact int64 (medians of an int column are data values), so oracle
    parity is arithmetic-free until the final float cast.

    Rows with a null key or value are dropped (no partition / not a
    value — matching the oracle's inner-join-on-medians shape).
    Output: ``key_col``, ``n``, ``mad`` (float64). ``value_col`` must
    be integer-typed.
    """
    import ray as _ray


    sch = _arrow_schema(ds)
    ktyp = sch.field(key_col).type
    med_ds = grouped_quantiles_int(ds, key_col, value_col,
                                   qs=(("med", 5000),))
    refs, rows = nonempty_refs(med_ds)
    out_schema = pa.schema([(key_col, ktyp), ("n", pa.int64()),
                            ("mad", pa.float64())])
    if not rows:
        return ray.data.from_arrow(out_schema.empty_table())
    mt = pa.concat_tables(_ray.get(refs)).combine_chunks()
    # Discrete medians of an int column ARE data values, but they ride
    # through the quantile op's float64 column — exact only below 2^53.
    # Guard loudly (the sibling grouped_zscore raises on its analogous
    # overflow too) instead of silently diverging from a BIGINT oracle.
    mx = pc.max(pc.abs(mt["med"])).as_py()
    if mx is not None and mx >= 2.0**53:
        raise ValueError(
            "grouped_mad: |median| >= 2**53 does not round-trip the "
            "quantile op's float64 column exactly; rescale upstream")
    bt = pa.table({key_col: mt[key_col],
                   "med": pc.cast(mt["med"], pa.int64())})
    ref = _ray.put(bt)

    def dev(t: pa.Table) -> pa.Table:
        b: pa.Table = _ray.get(ref)
        t = _required_rows(t, (key_col, value_col))
        idx = key_index(t[key_col], b[key_col])
        # every surviving row's key HAS a median by construction
        med = pc.take(b["med"], idx)
        dv = pc.abs_checked(pc.subtract_checked(
            pc.cast(t[value_col], pa.int64()), med))
        return pa.table({key_col: t[key_col], "dv": dv})

    dev_ds = ds.map_batches(dev, batch_format="pyarrow")

    def pick(v, cum, n, bps):
        i = (n - 1) * bps // 10_000
        return v[np.searchsorted(cum, i, side="right")].astype(np.float64)

    return _histogram_quantile_op(dev_ds, key_col, "dv",
                                  (("mad", 5000),), pick)


def grouped_weighted_mean(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    weight_col: str,
) -> ray.data.Dataset:
    """Per-key weighted mean ``Σ(w·v) / Σw`` of INTEGER columns — the
    quantity-weighted price / importance-weighted score aggregate —
    from exact integer sufficient statistics.

    Exactness: per-element ``w·v`` fits int64 because both inputs are
    capped at ``|x| < 2³¹`` (raises otherwise, like grouped_zscore);
    block sums of the product fold wrap-free through the same two-limb
    split (``wv = hi·2³² + lo``) and recombine in Python ints at merge.
    The one float expression — ``Σ(w·v)::double / Σw::double`` — is
    mirrored operand-for-operand by any oracle. ``Σw == 0`` (or an
    empty key) yields a null mean (SQL division-by-zero CASE).

    Rows with a null key, value or weight are dropped (SQL aggregates
    skip them). Output: ``key_col``, ``n`` (int64), ``sw`` (int64),
    ``wmean`` (float64).
    """
    _require_int(ds, (value_col, weight_col), "weighted-mean")

    def vectors(t: pa.Table) -> dict:
        _check_abs_below(t[value_col], value_col, "grouped_weighted_mean")
        _check_abs_below(t[weight_col], weight_col, "grouped_weighted_mean")
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        wv = w * v  # < 2^62 in magnitude: exact
        # floor/remainder: exact split
        return {"sw": w, "hi": wv >> 32, "lo": wv & 0xFFFFFFFF}

    def finish(t: dict) -> dict:
        sw = t["sw"]
        swv = t["hi"] * (1 << 32) + t["lo"]
        return {"n": t["n"], "sw": sw,
                "wmean": float(swv) / float(sw) if sw != 0 else None}

    return keyed_int_fold(
        ds, key_col,
        {"n": "count", **dict.fromkeys(("sw", "hi", "lo"), "sum")}, vectors,
        required=(key_col, value_col, weight_col), finish=finish,
        out={"n": pa.int64(), "sw": pa.int64(), "wmean": pa.float64()})
