"""Temporal operators: tumbling window, sessionization, as-of join,
band join (functions/temporal.py).

Timestamps here are raw int64 microseconds (the operators accept both
timestamp columns and integers); oracle expectations are hand-derived on
purpose-built inputs, including the composite-key int64-overflow
fallback and the empty-right-bucket edge the first implementation
crashed on.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from konlsearch_ray.functions.temporal import (  # noqa: F401
    asof_join as _asof_join,
    band_join as _band_join,
    sessionize as _sessionize,
    tumbling_window as _tumbling_window,
)

US = 1_000_000

# Timestamps in this file are raw int64 microseconds (module docstring):
# state the unit once — bare-int ts columns now RAISE without it.
import functools as _ft

asof_join = _ft.partial(_asof_join, int_unit="us")
band_join = _ft.partial(_band_join, int_unit="us")
sessionize = _ft.partial(_sessionize, int_unit="us")
tumbling_window = _ft.partial(_tumbling_window, int_unit="us")


def _ds(tbl: dict):
    import ray.data

    return ray.data.from_arrow(pa.table(tbl))


def _sorted(ds, cols):
    return ds.to_pandas().sort_values(cols).reset_index(drop=True)


@pytest.fixture()
def events(ray_session):
    # Two keys; key 1 has two sessions split by a > 60 s gap (gap == 60 s
    # exactly must NOT split), key 2 one session.
    return _ds({
        "k": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
        "t": pa.array([0, 60 * US, 121 * US + 1, 130 * US,
                       5 * US, 65 * US], pa.int64()),
        "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], pa.float64()),
    })


def test_tumbling_window_keyed(events):
    out = _sorted(tumbling_window(events, "t", 60, "v", key_col="k"),
                  ["win_start", "k"])
    # windows of 60 s: key1 -> {0: [1.0], 60: [2.0], 120: [3.0, 4.0]},
    # key2 -> {0: [5.0], 60: [6.0]}
    assert out["win_start"].tolist() == [0, 0, 60, 60, 120]
    assert out["k"].tolist() == [1, 2, 1, 2, 1]
    assert out["n"].tolist() == [1, 1, 1, 1, 2]
    assert out["sum_cents"].tolist() == [100, 500, 200, 600, 700]
    assert out["min_value"].tolist() == [1.0, 5.0, 2.0, 6.0, 3.0]
    assert out["max_value"].tolist() == [1.0, 5.0, 2.0, 6.0, 4.0]


def test_tumbling_window_unkeyed(events):
    out = _sorted(tumbling_window(events, "t", 3600, "v"), ["win_start"])
    assert out["win_start"].tolist() == [0]
    assert out["n"].tolist() == [6]
    assert out["sum_cents"].tolist() == [2100]


def test_sessionize(events):
    out = _sorted(sessionize(events, "t", "k", gap_s=60), ["k", "session_seq"])
    # key 1: gap 0->60 is exactly 60 s (same session); 60->121.000001 s
    # splits; 121.000001->130 stays. key 2: 5->65 is 60 s, same session.
    assert out["k"].tolist() == [1, 1, 2]
    assert out["session_seq"].tolist() == [1, 2, 1]
    assert out["session_start_us"].tolist() == [0, 121 * US + 1, 5 * US]
    assert out["session_end_us"].tolist() == [60 * US, 130 * US, 65 * US]
    assert out["n_events"].tolist() == [2, 2, 2]


def test_asof_inner_and_ties(ray_session):
    left = _ds({"k": pa.array([1, 1, 2, 3], pa.int64()),
                "t": pa.array([100, 200, 150, 10], pa.int64()),
                "lv": pa.array([10, 20, 30, 40], pa.int64())})
    right = _ds({"k": pa.array([1, 1, 2], pa.int64()),
                 "t": pa.array([100, 150, 250], pa.int64()),
                 "rv": pa.array([7, 8, 9], pa.int64())})
    out = _sorted(asof_join(left, right, "k", "t",
                            left_cols=("lv",), right_cols=("rv",)),
                  ["k", "ts_us"])
    # (1,100) matches the EQUAL right ts (backward as-of is <=);
    # (1,200)->150; (2,150) has no right <= 150; key 3 has no right rows.
    assert out["k"].tolist() == [1, 1]
    assert out["ts_us"].tolist() == [100, 200]
    assert out["r_ts_us"].tolist() == [100, 150]
    assert out["r_rv"].tolist() == [7, 8]


def test_asof_left_with_tolerance(ray_session):
    left = _ds({"k": pa.array([1, 1, 9], pa.int64()),
                "t": pa.array([100 * US, 500 * US, 50], pa.int64())})
    right = _ds({"k": pa.array([1, 1], pa.int64()),
                 "t": pa.array([90 * US, 100 * US], pa.int64()),
                 "rv": pa.array([5, 6], pa.int64())})
    out = _sorted(asof_join(left, right, "k", "t", right_cols=("rv",),
                            how="left", tolerance_s=60),
                  ["k", "ts_us"])
    # (1,100s)->100s (in tolerance); (1,500s) best match is 400 s stale ->
    # null; key 9 unmatched -> null row kept by how="left".
    assert out["k"].tolist() == [1, 1, 9]
    assert out["r_rv"].fillna(-1).tolist() == [6, -1, -1]
    assert out["r_ts_us"].fillna(-1).tolist() == [100 * US, -1, -1]


def test_band_join_count_and_pairs(ray_session):
    left = _ds({"k": pa.array([1, 2], pa.int64()),
                "t": pa.array([100 * US, 100 * US], pa.int64()),
                "lv": pa.array([1, 2], pa.int64())})
    right = _ds({"k": pa.array([1, 1, 1, 2], pa.int64()),
                 "t": pa.array([40 * US, 100 * US, 161 * US, 300 * US],
                               pa.int64()),
                 "rv": pa.array([4, 5, 6, 7], pa.int64())})
    cnt = _sorted(band_join(left, right, "k", "t", lo_s=-60, hi_s=60,
                            left_cols=("lv",), mode="count"), ["k"])
    # key1 window [40s, 160s]: right 40, 100 in; 161 out. key2: nothing.
    assert cnt["n_matches"].tolist() == [2, 0]
    pairs = _sorted(band_join(left, right, "k", "t", lo_s=-60, hi_s=60,
                              left_cols=("lv",), right_cols=("rv",),
                              mode="pairs"), ["k", "r_ts_us"])
    assert pairs["k"].tolist() == [1, 1]
    assert pairs["r_rv"].tolist() == [4, 5]


def test_asof_composite_overflow_fallback(ray_session, monkeypatch):
    # A time span wide enough that code * span overflows int64 with >= 2
    # keys in one bucket — exercises the per-key-segment fallback path.
    from konlsearch_ray.functions import blocks

    monkeypatch.setattr(blocks, "default_nbuckets", lambda: 1)
    big = np.int64(1) << 61
    left = _ds({"k": pa.array([1, 2], pa.int64()),
                "t": pa.array([int(big), 10], pa.int64())})
    right = _ds({"k": pa.array([1, 1, 2], pa.int64()),
                 "t": pa.array([0, int(big) - 5, 20], pa.int64()),
                 "rv": pa.array([1, 2, 3], pa.int64())})
    out = _sorted(asof_join(left, right, "k", "t", right_cols=("rv",)),
                  ["k"])
    assert out["k"].tolist() == [1]
    assert out["r_rv"].tolist() == [2]
    band = _sorted(band_join(left, right, "k", "t", lo_s=-1e12, hi_s=0,
                             mode="count"), ["k"])
    assert band["n_matches"].tolist() == [1, 0]


def test_band_pairs_empty_result(ray_session):
    left = _ds({"k": pa.array([1], pa.int64()),
                "t": pa.array([0], pa.int64())})
    right = _ds({"k": pa.array([2], pa.int64()),
                 "t": pa.array([0], pa.int64()),
                 "rv": pa.array([1], pa.int64())})
    out = band_join(left, right, "k", "t", lo_s=-1, hi_s=1,
                    right_cols=("rv",), mode="pairs").to_pandas()
    assert len(out) == 0


def test_sliding_window(events):
    from konlsearch_ray.functions.temporal import \
        sliding_window as _sw
    import functools as _f
    sliding_window = _f.partial(_sw, int_unit="us")

    out = _sorted(sliding_window(events, "t", 120, 60, "v"),
                  ["win_start"])
    # width 120 s / slide 60 s: a row at t lands in windows
    # floor((t-120)/60)+1 .. floor(t/60). Events at 0, 60, 121.000001,
    # 130, 5, 65 s -> window -60 covers [_-60,60): {0, 5};
    # window 0 covers [0,120): {0, 60, 5, 65}; window 60 covers
    # [60,180): {60, 121.000001, 130, 65}; window 120 covers [120,240):
    # {121.000001, 130}.
    assert out["win_start"].tolist() == [-60, 0, 60, 120]
    assert out["n"].tolist() == [2, 4, 4, 2]
    # tumbling is the width == slide special case
    t1 = _sorted(tumbling_window(events, "t", 60, "v"), ["win_start"])
    t2 = _sorted(sliding_window(events, "t", 60, 60, "v"), ["win_start"])
    pd.testing.assert_frame_equal(t1, t2)


def test_hash_split_and_sample(ray_session):
    from konlsearch_ray.functions.sampling import hash_sample, hash_split

    ids = list(range(1000))
    ds = _ds({"doc_id": pa.array(ids, pa.int64())})
    out = hash_split(ds, "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1},
                     salt="s").to_pandas()
    assert len(out) == 1000 and set(out["split"]) == {"train", "val", "test"}
    frac = out["split"].value_counts(normalize=True)
    assert 0.7 < frac["train"] < 0.9  # hash spread, not exact
    # determinism + partitioning-independence: same labels at 1 block
    # and at 8 blocks
    ds8 = ds.repartition(8)
    out8 = hash_split(ds8, "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1},
                      salt="s").to_pandas()
    merged = out.merge(out8, on="doc_id", suffixes=("_1", "_8"))
    assert (merged["split_1"] == merged["split_8"]).all()
    # sample is the prefix of the same bucket order: a 10% sample is a
    # subset of the 25% sample
    s10 = set(hash_sample(ds, "doc_id", 0.10, salt="s").to_pandas()["doc_id"])
    s25 = set(hash_sample(ds, "doc_id", 0.25, salt="s").to_pandas()["doc_id"])
    assert s10 <= s25 and len(s25) > len(s10) > 0


def test_hash_split_bad_fractions(ray_session):
    from konlsearch_ray.functions.sampling import hash_split

    ds = _ds({"doc_id": pa.array([1], pa.int64())})
    with pytest.raises(ValueError):
        hash_split(ds, "doc_id", {"a": 0.5, "b": 0.2})


def test_string_key_bucketing(ray_session):
    # String keys route through the byte-matrix hash; grouping inside a
    # bucket still compares exact values.
    ds = _ds({"k": pa.array(["a", "a", "bb", "bb"], pa.string()),
              "t": pa.array([0, 10 * US, 0, 200 * US], pa.int64())})
    out = _sorted(sessionize(ds, "t", "k", gap_s=60), ["k", "session_seq"])
    assert out["k"].tolist() == ["a", "bb", "bb"]
    assert out["n_events"].tolist() == [2, 1, 1]
    right = _ds({"k": pa.array(["a", "bb"], pa.string()),
                 "t": pa.array([5 * US, 100 * US], pa.int64()),
                 "rv": pa.array([1, 2], pa.int64())})
    j = _sorted(asof_join(ds, right, "k", "t", right_cols=("rv",),
                          how="left"), ["k", "ts_us"])
    assert j["r_rv"].fillna(-1).tolist() == [-1, 1, -1, 2]


def test_timestamp_column_input(ray_session):
    # timestamp[us] columns normalize identically to raw int64 us.
    ts = pd.to_datetime(["2024-01-01 00:00:00", "2024-01-01 00:02:00"])
    ds = _ds({"k": pa.array([1, 1], pa.int64()),
              "t": pa.array(ts, pa.timestamp("us")),
              "v": pa.array([1.5, 2.5], pa.float64())})
    out = _sorted(tumbling_window(ds, "t", 60, "v"), ["win_start"])
    assert out["n"].tolist() == [1, 1]
    sess = _sorted(sessionize(ds, "t", "k", gap_s=60), ["k", "session_seq"])
    assert sess["n_events"].tolist() == [1, 1]  # 120 s gap > 60 s splits


def test_key_lag_deltas(ray_session):
    from konlsearch_ray.functions.temporal import \
        key_lag_deltas as _kld
    import functools as _f
    key_lag_deltas = _f.partial(_kld, int_unit="us")

    ds = _ds({
        "k": pa.array([1, 1, 1, 2, None], pa.int64()),
        "t": pa.array([10 * US, 4 * US, 7 * US, 5 * US, 1 * US], pa.int64()),
        "i": pa.array([100, 101, 102, 103, 104], pa.int64()),
    })
    out = (key_lag_deltas(ds, "k", "t", "i").to_pandas()
           .sort_values(["k", "ts_us"]).reset_index(drop=True))
    # null-key row dropped; first event per key has null delta
    assert out["i"].tolist() == [101, 102, 100, 103]
    assert pd.isna(out["delta_us"][0])
    assert out["delta_us"].tolist()[1:3] == [3 * US, 3 * US]
    assert pd.isna(out["delta_us"][3])


def test_key_lag_deltas_ties_break_by_id(ray_session):
    from konlsearch_ray.functions.temporal import \
        key_lag_deltas as _kld
    import functools as _f
    key_lag_deltas = _f.partial(_kld, int_unit="us")

    ds = _ds({
        "k": pa.array([7, 7, 7], pa.int64()),
        "t": pa.array([5 * US, 5 * US, 6 * US], pa.int64()),
        "i": pa.array([2, 1, 3], pa.int64()),
    })
    out = (key_lag_deltas(ds, "k", "t", "i").to_pandas()
           .sort_values(["ts_us", "i"]).reset_index(drop=True))
    # equal ts: order by id — id 1 first (null), id 2 delta 0, id 3 delta 1s
    d = dict(zip(out["i"], out["delta_us"]))
    assert pd.isna(d[1]) and d[2] == 0 and d[3] == US


def test_bare_int_ts_requires_explicit_unit(ray_session):
    """VERDICT r4 #5: an epoch-SECONDS integer ts column must raise (it
    used to be silently read as microseconds, collapsing every window),
    and the error must name the fix (int_unit). int_unit='s' scales
    exactly; a unit that would overflow int64 raises instead of
    wrapping."""
    epoch_s = 1_700_000_000  # a normal epoch-seconds value
    ds = _ds({"k": pa.array([1, 1], pa.int64()),
              "t": pa.array([epoch_s, epoch_s + 120], pa.int64()),
              "v": pa.array([1.0, 2.0], pa.float64())})
    with pytest.raises(Exception, match="int_unit"):
        _tumbling_window(ds, "t", 60, "v").to_pandas()
    with pytest.raises(Exception, match="int_unit"):
        _sessionize(ds, "t", "k", gap_s=60).to_pandas()
    # stated unit: epoch-seconds scale exactly — two 60 s windows
    out = _sorted(_tumbling_window(ds, "t", 60, "v", int_unit="s"),
                  ["win_start"])
    assert out["win_start"].tolist() == [
        (epoch_s // 60) * 60, ((epoch_s + 120) // 60) * 60]
    # ns-scale ints mislabeled 's' would overflow int64: loud, not wrapped
    big = _ds({"k": pa.array([1], pa.int64()),
               "t": pa.array([1 << 62], pa.int64()),
               "v": pa.array([1.0], pa.float64())})
    with pytest.raises(Exception, match="overflow|invalid"):
        _tumbling_window(big, "t", 60, "v", int_unit="s").to_pandas()


def test_window_null_rows_dropped_and_half_away_cents(ray_session):
    """Null ts/value/key rows are DROPPED (not INT64_MIN-poisoned), and
    cents quantize half-away-from-zero like the shared cents_col rule
    (np.round's half-to-even would give 2 for 0.025*100)."""
    from konlsearch_ray.functions.temporal import sliding_window

    ds = _ds({
        "k": pa.array([1, 1, None, 1], pa.int64()),
        "t": pa.array([0, None, 5 * US, 10 * US], pa.int64()),
        "v": pa.array([0.025, 1.0, 1.0, None], pa.float64()),
    })
    out = _sorted(tumbling_window(ds, "t", 60, "v", key_col="k"),
                  ["win_start", "k"])
    assert out["n"].tolist() == [1]          # 3 of 4 rows dropped
    assert out["sum_cents"].tolist() == [3]  # 0.025 -> 3, not 2
    out = _sorted(
        sliding_window(ds, "t", 120, 60, "v", key_col="k", int_unit="us"),
        ["win_start", "k"])
    assert out["sum_cents"].tolist() == [3, 3]  # two hops, same row


def test_latest_by_key(ray_session):
    """CDC compaction: newest row per key, ties -> max id; null
    key/ts/id rows drop; empty result keeps the input schema."""
    import ray.data

    from konlsearch_ray.functions.temporal import latest_by_key

    t = pa.table({
        "k": pa.array([1, 1, 1, 2, 2, None, 3], pa.int64()),
        "t": pa.array([10, 30, 30, 5, 5, 9, None], pa.int64()),
        "id": pa.array([100, 101, 102, 200, 201, 300, 400], pa.int64()),
        "payload": pa.array(list("abcdefg")),
    })
    out = (latest_by_key(ray.data.from_arrow(t).repartition(3),
                         "k", "t", "id", int_unit="us")
           .to_pandas().sort_values("k").reset_index(drop=True))
    # k=1: ts tie at 30 -> id 102 wins; k=2: ts tie at 5 -> id 201;
    # null key and null ts rows drop entirely
    assert out["k"].tolist() == [1, 2]
    assert out["id"].tolist() == [102, 201]
    assert out["payload"].tolist() == ["c", "e"]

    empty = latest_by_key(ray.data.from_arrow(pa.table({
        "k": pa.array([None], pa.int64()),
        "t": pa.array([1], pa.int64()),
        "id": pa.array([1], pa.int64()),
        "payload": pa.array(["x"])})), "k", "t", "id", int_unit="us")
    assert empty.count() == 0
    assert empty.schema() is not None and "payload" in empty.schema().names


def test_latest_by_key_earliest(ray_session):
    import ray.data

    from konlsearch_ray.functions.temporal import latest_by_key

    t = pa.table({
        "k": pa.array([1, 1, 2, 2], pa.int64()),
        "t": pa.array([10, 10, 5, 3], pa.int64()),
        "id": pa.array([101, 100, 200, 201], pa.int64()),
    })
    out = (latest_by_key(ray.data.from_arrow(t).repartition(2),
                         "k", "t", "id", int_unit="us", newest=False)
           .to_pandas().sort_values("k").reset_index(drop=True))
    # k=1: ts tie -> SMALLEST id (100); k=2: oldest ts 3 -> id 201
    assert out["id"].tolist() == [100, 201]


def test_time_weighted_mean(ray_session):
    import ray.data

    from konlsearch_ray.functions.temporal import time_weighted_mean

    # key 1: obs (t=0s, v=10) weighted 5s, (t=5s, v=20) weighted 10s,
    # last obs excluded -> twap = (10*5 + 20*10)/15 = 250/15
    # key 2: single row -> no weighted obs -> key absent
    # key 3: two rows in the same second -> sw=0 -> null twap
    t = _ds({
        "k": pa.array([1, 1, 1, 2, 3, 3], pa.int64()),
        "t": pa.array([0, 5 * US, 15 * US, 7, 0, 500_000], pa.int64()),
        "v": pa.array([10, 20, 99, 5, 1, 2], pa.int64()),
        "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
    })
    out = (time_weighted_mean(t.repartition(2), "k", "t", "v", "id",
                              int_unit="us")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["k"].tolist() == [1, 3]
    assert out["n"].tolist() == [2, 1]
    assert out["sw"].tolist() == [15, 0]
    assert out.loc[0, "twap"] == 250.0 / 15.0
    assert out["twap"].isna().tolist() == [False, True]
