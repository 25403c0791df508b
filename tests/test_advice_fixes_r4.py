"""Regression tests for the round-3 ADVICE items (null-key join
semantics, HLL null handling, null-safe string bucket hash).

- asof_join/band_join: NULL keys must never match (SQL/DuckDB ASOF
  semantics) — previously pd.factorize coded ALL nulls -1 on both
  sides, silently joining null-keyed left rows to null-keyed right rows.
- approx_distinct: null keys/values must be dropped (matching
  distinct_count) — previously a null value hit an undefined NaN->int64
  cast and was counted.
- _string_bucket_hash: a null string's binary_length is null -> NaN,
  and NaN->int64 is platform-dependent — nulls must route
  deterministically.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from konlsearch_ray.functions.aggregates import approx_distinct, distinct_count
from konlsearch_ray.functions.blocks import _string_bucket_hash
import functools as _ft

from konlsearch_ray.functions.temporal import asof_join as _asof_join
from konlsearch_ray.functions.temporal import band_join as _band_join

# Timestamps here are raw int64 microseconds — state the unit once.
asof_join = _ft.partial(_asof_join, int_unit="us")
band_join = _ft.partial(_band_join, int_unit="us")

US = 1_000_000


def _ds(tbl: dict):
    import ray.data

    return ray.data.from_arrow(pa.table(tbl))


@pytest.fixture()
def null_key_sides(ray_session):
    # Left: one real key (k=1) and one null key; right: a match for k=1
    # and a null-keyed row that would "match" both left rows by time if
    # nulls joined.
    left = _ds({
        "k": pa.array([1, None], pa.int64()),
        "t": pa.array([10 * US, 10 * US], pa.int64()),
        "lv": pa.array([100, 200], pa.int64()),
    })
    right = _ds({
        "k": pa.array([1, None], pa.int64()),
        "t": pa.array([5 * US, 5 * US], pa.int64()),
        "rv": pa.array([7, 9], pa.int64()),
    })
    return left, right


def test_asof_inner_drops_null_keys(null_key_sides):
    left, right = null_key_sides
    out = asof_join(left, right, "k", "t", right_ts="t",
                    left_cols=("lv",), right_cols=("rv",)).to_pandas()
    # Only the k=1 pair survives; the null-keyed rows never join.
    assert out["k"].tolist() == [1]
    assert out["lv"].tolist() == [100]
    assert out["r_rv"].tolist() == [7]


def test_asof_left_keeps_null_key_unmatched(null_key_sides):
    left, right = null_key_sides
    out = asof_join(left, right, "k", "t", right_ts="t",
                    left_cols=("lv",), right_cols=("rv",),
                    how="left").to_pandas().sort_values(
                        "lv").reset_index(drop=True)
    assert out["lv"].tolist() == [100, 200]
    # k=1 matched; the null-keyed left row is kept with null right cols.
    assert out["r_rv"].tolist()[0] == 7
    assert pd.isna(out["k"].tolist()[1])
    assert pd.isna(out["r_rv"].tolist()[1])
    assert pd.isna(out["r_ts_us"].tolist()[1])


def test_band_count_null_key_counts_zero(null_key_sides):
    left, right = null_key_sides
    out = band_join(left, right, "k", "t", lo_s=-20.0, hi_s=20.0,
                    right_ts="t", left_cols=("lv",),
                    mode="count").to_pandas().sort_values(
                        "lv").reset_index(drop=True)
    assert out["lv"].tolist() == [100, 200]
    assert out["n_matches"].tolist() == [1, 0]


def test_band_pairs_drops_null_keys(null_key_sides):
    left, right = null_key_sides
    out = band_join(left, right, "k", "t", lo_s=-20.0, hi_s=20.0,
                    right_ts="t", left_cols=("lv",), right_cols=("rv",),
                    mode="pairs").to_pandas()
    assert out["lv"].tolist() == [100]
    assert out["r_rv"].tolist() == [7]


def test_asof_null_keys_string_typed(ray_session):
    # String keys go through _string_bucket_hash — null routing must be
    # deterministic and nulls must still never match.
    left = _ds({"k": pa.array(["a", None]),
                "t": pa.array([10 * US, 10 * US], pa.int64())})
    right = _ds({"k": pa.array(["a", None]),
                 "t": pa.array([5 * US, 5 * US], pa.int64()),
                 "rv": pa.array([1, 2], pa.int64())})
    out = asof_join(left, right, "k", "t", right_ts="t",
                    right_cols=("rv",)).to_pandas()
    assert out["k"].tolist() == ["a"]
    assert out["r_rv"].tolist() == [1]


def test_approx_distinct_null_semantics_match_distinct_count(ray_session):
    # SQL semantics shared with distinct_count: null VALUES are dropped
    # (previously: undefined NaN->int64 cast, silently counted); null
    # KEYS form their own group (previously: garbage register index).
    rng = np.random.RandomState(7)
    vals = rng.randint(0, 500, size=2000)
    clean = _ds({"k": pa.array(["g"] * 2000),
                 "v": pa.array(vals, pa.int64())})
    with_nulls = _ds({
        "k": pa.array(["g"] * 2000 + [None, "g", None]),
        "v": pa.array(list(vals) + [123, None, None],
                      pa.int64()),
    })
    a = approx_distinct(clean, "k", "v").to_pandas()
    b = approx_distinct(with_nulls, "k", "v").to_pandas()
    b_g = b[b["k"].notna()]
    b_null = b[b["k"].isna()]
    # the "g" estimate is unchanged by the null rows
    assert b_g["n_approx"].tolist() == a["n_approx"].tolist()
    # the null-key group counts exactly its one non-null value
    assert b_null["n_approx"].tolist() == [1]
    exact = distinct_count(with_nulls, "k", "v").to_pandas()
    assert sorted(exact["n_distinct"].tolist()) == sorted(
        [len(set(vals)), 1])


def test_string_bucket_hash_null_deterministic():
    col = pa.array(["abc", None, "", "xyz"])
    h = _string_bucket_hash(col)
    assert h.dtype == np.uint64
    # null hashes exactly like the empty string (fill_null(0) length).
    assert h[1] == h[2]
    # and the real strings are unaffected by the null in the batch
    h2 = _string_bucket_hash(pa.array(["abc", "xyz"]))
    assert h[0] == h2[0] and h[3] == h2[1]
