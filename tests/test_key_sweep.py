"""Block-layout sweep over every keyed operator in ``functions/`` and
the keyed pipeline steps.

One key rule holds for every operator (``blocks`` module docstring):
a null key is dropped or forms one group of its own, as the operator
documents; a float NaN is a key of its own; -0.0 and 0.0 are one key
(DuckDB's ``GROUP BY``). Each operator runs on random tables whose keys
mix those values, on 1 block and on 3, and must return the same rows
on both; where a small DuckDB query covers the operator, its rows must
equal DuckDB's too. Every exchange reads its bucket count once, on the
driver, from ``blocks.default_nbuckets``: on float keys each operator
must return the same rows at 1 bucket and at 64.
"""

import datetime
import decimal
import math

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from konlsearch_ray.functions import (aggregates, blocks, joins, sampling,
                                      setops, stats, temporal)
from konlsearch_ray.functions.blocks import arrow_schema
from konlsearch_ray.pipelines import logagg

N_ROWS = 40

# Key domains: every type holds a null; float holds NaN, -0.0 and 0.0.
KEYS = {
    "float64": (pa.float64(), [None, float("nan"), -0.0, 0.0, 1.5, -2.0]),
    "string": (pa.string(), [None, "", "a", "b"]),
    "int64": (pa.int64(), [None, 0, 1, -3]),
    "date32": (pa.date32(), [None, datetime.date(1970, 1, 1),
                             datetime.date(2020, 1, 1)]),
    "bool": (pa.bool_(), [None, False, True]),
    "decimal": (pa.decimal128(6, 2), [None, decimal.Decimal("0.00"),
                                      decimal.Decimal("1.50"),
                                      decimal.Decimal("-2.25")]),
}
OTHER_TYPES = ["string", "int64", "date32", "bool", "decimal"]


def _table(typ: str, seed: int) -> pa.Table:
    """``N_ROWS`` rows: key ``k`` drawn from ``KEYS[typ]``; int64 ``v``
    (some nulls), ``x``, ``y``, ``w``; distinct ``id`` and ``ts``
    (seconds); event ``ev`` and category ``cat`` strings."""
    rng = np.random.default_rng(seed)
    atyp, domain = KEYS[typ]
    n = N_ROWS
    v = rng.integers(-20, 20, n)
    return pa.table({
        "k": pa.array([domain[i] for i in rng.integers(0, len(domain), n)],
                      atyp),
        "v": pa.array([None if i % 9 == 4 else int(x)
                       for i, x in enumerate(v)], pa.int64()),
        "x": pa.array(rng.integers(-9, 9, n), pa.int64()),
        "y": pa.array(rng.integers(-9, 9, n), pa.int64()),
        "w": pa.array(rng.integers(0, 5, n), pa.int64()),
        "id": pa.array(rng.permutation(n) + 1, pa.int64()),
        "ts": pa.array(np.sort(rng.choice(400, n, replace=False)),
                       pa.int64()),
        "ev": pa.array(rng.choice(["a", "b"], n)),
        "cat": pa.array(rng.choice(["p", "q", "r"], n)),
    })


def _ds(t: pa.Table, blocks: int) -> ray.data.Dataset:
    ds = ray.data.from_arrow(t)
    return ds.repartition(blocks) if blocks > 1 else ds


def _canon(v):
    """A value comparable across runs: NaN as a marker (``nan != nan``),
    -0.0 as 0.0, and floats to 9 digits against DuckDB's rounding."""
    if isinstance(v, float):
        return ("NaN",) if math.isnan(v) else round(v + 0.0, 9)
    if isinstance(v, list):
        return tuple(_canon(x) for x in v)
    return v


def _rows(out) -> tuple:
    t = out if isinstance(out, pa.Table) else pa.concat_tables(
        ray.get(out.to_arrow_refs()))
    rows = sorted((tuple(_canon(x) for x in r.values())
                   for r in t.to_pylist()), key=repr)
    return tuple(t.column_names), rows


def _sql(t: pa.Table, query: str) -> list:
    con = duckdb.connect()
    con.register("t", t)
    return sorted((tuple(_canon(x) for x in r)
                   for r in con.execute(query).fetchall()), key=repr)


def _side(ds, ev):
    return ds.filter(lambda r: r["ev"] == ev)


def _dim(ds) -> pa.Table:
    """A dimension table over the key domain of ``ds``'s key type: one
    row per non-null key (0.0 standing for -0.0 too)."""
    atyp = arrow_schema(ds).field("k").type
    domain = next(d for t, d in KEYS.values() if t == atyp)
    keys = [k for k in domain if k is not None
            and not (isinstance(k, float) and math.copysign(1, k) < 0
                     and k == 0)]
    return pa.table({"k": pa.array(keys, atyp),
                     "label": pa.array(range(len(keys)), pa.int64())})


# name -> (run(ds), DuckDB query over table ``t`` or None). The
# two-sided operators split ``ds`` by ``ev``; the temporal ones read
# ``ts`` as seconds.
OPS = {
    # aggregates
    "distinct_count": (lambda ds: aggregates.distinct_count(ds, "k", "v"),
                       "SELECT k, count(DISTINCT v) FROM t GROUP BY k"),
    "approx_distinct": (lambda ds: aggregates.approx_distinct(ds, "k", "v"),
                        None),
    "grouped_topk": (lambda ds: aggregates.grouped_topk(
        ds, "k", [("v", "descending"), ("id", "ascending")], 2), None),
    "grouped_topk_ties": (
        lambda ds: aggregates.grouped_topk_ties(
            ds, "k", [("v", "descending")], 2),
        "SELECT * EXCLUDE (r) FROM (SELECT *, rank() OVER (PARTITION BY k "
        "ORDER BY v DESC) AS r FROM t WHERE k IS NOT NULL AND v IS NOT NULL) "
        "WHERE r <= 2"),
    "pivot_counts": (lambda ds: aggregates.pivot_counts(
        ds, "k", "cat", ["p", "q"]), None),
    "rollup_counts": (
        lambda ds: aggregates.rollup_counts(ds, "k", "v"),
        "SELECT k, count(*), sum(v) FROM (SELECT * FROM t "
        "WHERE k IS NOT NULL) GROUP BY ROLLUP (k)"),
    "rollup_counts_dataset": (
        lambda ds: aggregates.rollup_counts_dataset(ds, "k", "v"),
        "SELECT k, count(*), sum(v) FROM (SELECT * FROM t "
        "WHERE k IS NOT NULL) GROUP BY ROLLUP (k)"),
    "cube_counts": (
        lambda ds: aggregates.cube_counts(ds, "k", "cat", "v"),
        "SELECT k, cat, count(*), sum(v) FROM (SELECT * FROM t "
        "WHERE k IS NOT NULL) GROUP BY CUBE (k, cat)"),
    "grouped_mode": (lambda ds: aggregates.grouped_mode(ds, "k", "v"), None),
    "grouped_entropy": (lambda ds: aggregates.grouped_entropy(ds, "k", "v"),
                        None),
    "heavy_hitters": (lambda ds: aggregates.heavy_hitters(ds, "k", k=3),
                      None),
    # stats
    "grouped_quantiles": (
        lambda ds: stats.grouped_quantiles(ds, "k", "v"),
        "SELECT k, count(v), " + ", ".join(
            f"list_sort(list(v) FILTER (v IS NOT NULL))"
            f"[(count(v) - 1) * {bp} // 10000 + 1]::DOUBLE"
            for bp in (5000, 9000, 9900))
        + " FROM t GROUP BY k HAVING count(v) > 0"),
    "winsorize": (lambda ds: stats.winsorize(ds, "k", "v", "id"), None),
    "grouped_corr": (
        lambda ds: stats.grouped_corr(ds, "k", "x", "y"),
        "SELECT k, count(*), corr(x, y) FROM t WHERE k IS NOT NULL "
        "GROUP BY k"),
    "grouped_covar": (
        lambda ds: stats.grouped_covar(ds, "k", "x", "y"),
        "SELECT k, count(*), covar_samp(x, y) FROM t WHERE k IS NOT NULL "
        "GROUP BY k"),
    "grouped_stddev": (
        lambda ds: stats.grouped_stddev(ds, "k", "x"),
        "SELECT k, count(*), stddev_samp(x) FROM t WHERE k IS NOT NULL "
        "GROUP BY k"),
    "grouped_regression": (
        lambda ds: stats.grouped_regression(ds, "k", "x", "y"),
        "SELECT k, count(*), regr_slope(y, x), regr_intercept(y, x) "
        "FROM t WHERE k IS NOT NULL GROUP BY k"),
    "grouped_percent_rank": (
        lambda ds: stats.grouped_percent_rank(ds, "k", "v", "id"), None),
    "grouped_ntile": (lambda ds: stats.grouped_ntile(ds, "k", "v", "id", 3),
                      None),
    "grouped_minmax_norm": (
        lambda ds: stats.grouped_minmax_norm(ds, "k", "v", "id"),
        "SELECT k, id, v, (v - min(v) OVER w)::DOUBLE / "
        "nullif(max(v) OVER w - min(v) OVER w, 0)::DOUBLE FROM t "
        "WHERE k IS NOT NULL WINDOW w AS (PARTITION BY k)"),
    "grouped_zscore": (
        lambda ds: stats.grouped_zscore(ds, "k", "v", "id"),
        "SELECT k, id, v, (v - avg(v) OVER w) / "
        "nullif(stddev_pop(v) OVER w, 0) FROM t "
        "WHERE k IS NOT NULL AND v IS NOT NULL "
        "WINDOW w AS (PARTITION BY k)"),
    "grouped_quantiles_int": (
        lambda ds: stats.grouped_quantiles_int(ds, "k", "v"), None),
    "grouped_quantiles_cont": (
        lambda ds: stats.grouped_quantiles_cont(ds, "k", "v"), None),
    "grouped_mad": (lambda ds: stats.grouped_mad(ds, "k", "v"), None),
    "grouped_weighted_mean": (
        lambda ds: stats.grouped_weighted_mean(ds, "k", "v", "w"),
        "SELECT k, count(*), sum(w), "
        "sum(w * v)::DOUBLE / nullif(sum(w), 0)::DOUBLE FROM t "
        "WHERE k IS NOT NULL AND v IS NOT NULL GROUP BY k"),
    # temporal
    "tumbling_window": (
        lambda ds: temporal.tumbling_window(
            ds, "ts", 60, "v", key_col="k", int_unit="s"),
        "SELECT ts // 60 * 60, k, count(*), sum(v * 100), min(v)::DOUBLE, "
        "max(v)::DOUBLE FROM t WHERE k IS NOT NULL AND v IS NOT NULL "
        "GROUP BY ALL"),
    "sliding_window": (
        lambda ds: temporal.sliding_window(
            ds, "ts", 60, 30, "v", key_col="k", int_unit="s"),
        "SELECT s * 30, k, count(*), sum(v * 100), min(v)::DOUBLE, "
        "max(v)::DOUBLE FROM t, range(-2, 15) r(s) WHERE k IS NOT NULL "
        "AND v IS NOT NULL AND ts >= s * 30 AND ts < s * 30 + 60 "
        "GROUP BY ALL"),
    "sessionize": (lambda ds: temporal.sessionize(
        ds, "ts", "k", 30, int_unit="s"), None),
    "asof_join": (lambda ds: temporal.asof_join(
        _side(ds, "b"), _side(ds, "a"), "k", "ts", left_cols=("id",),
        right_cols=("id",), how="left", int_unit="s"), None),
    "band_join": (lambda ds: temporal.band_join(
        _side(ds, "b"), _side(ds, "a"), "k", "ts", -60, 60,
        left_cols=("id",), int_unit="s"), None),
    "key_lag_deltas": (lambda ds: temporal.key_lag_deltas(
        ds, "k", "ts", "id", int_unit="s"), None),
    "rolling_agg": (lambda ds: temporal.rolling_agg(
        ds, "k", "ts", "id", "v", 3, int_unit="s"), None),
    "grouped_sequence": (lambda ds: temporal.grouped_sequence(
        ds, "k", "ts", "id", "cat", int_unit="s"), None),
    "funnel_counts": (lambda ds: temporal.funnel_counts(
        ds, "k", "ts", "ev", "a", "b", 60, int_unit="s"), None),
    "latest_by_key": (lambda ds: temporal.latest_by_key(
        ds, "k", "ts", "id", int_unit="s"), None),
    "time_weighted_mean": (
        lambda ds: temporal.time_weighted_mean(
            ds, "k", "ts", "v", "id", int_unit="s"),
        "SELECT k, count(*), sum(wt), sum(wt * v)::DOUBLE / "
        "nullif(sum(wt), 0)::DOUBLE FROM (SELECT k, v, "
        "(lead(ts) OVER (PARTITION BY k ORDER BY ts, id) - ts) AS wt "
        "FROM t WHERE k IS NOT NULL AND v IS NOT NULL) "
        "WHERE wt IS NOT NULL GROUP BY k"),
    # sampling
    "stratified_sample": (lambda ds: sampling.stratified_sample(
        ds, "id", "k", {"a": 0.5, "nan": 0.5, "0": 1.0},
        default_rate=0.3), None),
    "exact_stratified_sample": (lambda ds: sampling.exact_stratified_sample(
        ds, "id", "k", 2), None),
    "keyed_fraction_sample": (lambda ds: sampling.keyed_fraction_sample(
        ds, "k", "id", {}, default_bp=5000), None),
    # set operations and joins, keyed on the whole row or on ``k``
    "union_distinct": (lambda ds: setops.union_distinct(
        _side(ds, "a").select_columns(["k", "cat"]),
        _side(ds, "b").select_columns(["k", "cat"])), None),
    "intersect_distinct": (lambda ds: setops.intersect_distinct(
        _side(ds, "a").select_columns(["k", "cat"]),
        _side(ds, "b").select_columns(["k", "cat"])), None),
    "except_distinct": (lambda ds: setops.except_distinct(
        _side(ds, "a").select_columns(["k", "cat"]),
        _side(ds, "b").select_columns(["k", "cat"])), None),
    "filter_join": (lambda ds: joins.filter_join(
        _side(ds, "a"), _side(ds, "b"), "k", "k"), None),
    "equi_join": (lambda ds: joins.equi_join(
        _side(ds, "a").select_columns(["k", "id"]),
        _side(ds, "b").select_columns(["k", "cat"]), "k", "k"), None),
    "broadcast_lookup_join": (lambda ds: joins.broadcast_lookup_join(
        ds.select_columns(["k", "id"]), _dim(ds), "k", "k"), None),
    # pipelines
    "aggregate_from_offset": (
        lambda ds: logagg.aggregate_from_offset(ds, 0, "k", "v"),
        "SELECT k, count(*), sum(v) FROM t WHERE ts >= 0 GROUP BY k"),
}

# Every operator on float keys (NaN, -0.0 and 0.0); every second one
# also on one of the other key types in turn, to bound the run time.
CASES = [(name, typ) for i, name in enumerate(OPS)
         for typ in ("float64", OTHER_TYPES[i // 2 % len(OTHER_TYPES)])
         [:2 - i % 2]]


@pytest.mark.parametrize("name, typ", CASES,
                         ids=[f"{n}-{t}" for n, t in CASES])
def test_same_rows_on_any_block_layout(ray_session, name, typ):
    run, query = OPS[name]
    t = _table(typ, seed=len(name) * 7 + len(typ))
    one = _rows(run(_ds(t, 1)))
    assert one[1], f"{name}: no rows to compare"
    assert _rows(run(_ds(t, 3))) == one
    if query is not None:
        assert one[1] == _sql(t, query)


@pytest.mark.parametrize("name", list(OPS))
def test_same_rows_at_any_bucket_count(ray_session, monkeypatch, name):
    run, _ = OPS[name]
    t = _table("float64", seed=len(name) * 7 + 7)
    want = _rows(run(_ds(t, 3)))
    for nb in (1, 64):
        monkeypatch.setattr(blocks, "default_nbuckets", lambda: nb)
        assert _rows(run(_ds(t, 3))) == want, nb


def test_stratified_sample_reads_one_rate_for_both_zeros(ray_session):
    # Rates are looked up by the group's string cast, where -0.0 reads
    # "-0": the key rule makes it the key 0.0, whose rate is "0".
    t = pa.table({"id": pa.array(range(1, 21), pa.int64()),
                  "k": pa.array([-0.0, 0.0] * 10, pa.float64())})
    out = sampling.stratified_sample(ray.data.from_arrow(t), "id", "k",
                                     {"0": 1.0})
    assert out.count() == 20
