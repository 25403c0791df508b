"""``blocks.keyed_fold``: the one keyed exchange every wide operator
goes through, and the typed-empty contract it gives them.
"""

import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data

from konlsearch_ray.functions.blocks import key_bucket, keyed_fold

PKG = pathlib.Path(__file__).resolve().parent.parent / "konlsearch_ray"


def _tables(ds: ray.data.Dataset) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _fields(t: pa.Table) -> list:
    return [(f.name, f.type) for f in t.schema]


SUMS = pa.table({"k": pa.array([], pa.string()),
                 "total": pa.array([], pa.int64())})


def test_keyed_fold_more_buckets_than_keys(ray_session):
    # 3 keys routed into 64 buckets over 8 input blocks: most shuffle
    # partitions are empty, and none of them may leak a stale schema.
    keys = ["a", "b", None]
    src = pa.table({"k": pa.array([keys[i % 3] for i in range(300)]),
                    "v": pa.array(np.arange(300), pa.int64())})
    ds = ray.data.from_arrow(src).repartition(8)

    def partial(t: pa.Table) -> pa.Table:
        return t.append_column("bucket",
                               pa.array(key_bucket(t["k"], 64)))

    def per_key_sums(g: pa.Table) -> pa.Table:
        s = g.group_by("k").aggregate([("v", "sum")])
        return pa.table({"k": s["k"],
                         "total": pc.cast(s["v_sum"], pa.int64())})

    out = keyed_fold(ds, "bucket", per_key_sums, partial=partial,
                     fallback=SUMS)
    got = _tables(out)
    assert _fields(got) == _fields(SUMS)
    want = src.group_by("k").aggregate([("v", "sum")])
    assert (sorted(zip(got["k"].to_pylist(), got["total"].to_pylist()),
                   key=str)
            == sorted(zip(want["k"].to_pylist(), want["v_sum"].to_pylist()),
                      key=str))


def test_keyed_fold_multi_column_key(ray_session):
    src = pa.table({"a": pa.array([i % 3 for i in range(60)], pa.int64()),
                    "b": pa.array([f"x{i % 2}" for i in range(60)]),
                    "v": pa.array(np.ones(60, dtype=np.int64))})
    fallback = pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})

    def merge(g: pa.Table) -> pa.Table:
        return pa.table({"a": g["a"][:1], "b": g["b"][:1],
                         "n": pa.array([g.num_rows], pa.int64())})

    got = _tables(keyed_fold(ray.data.from_arrow(src).repartition(4),
                             ["a", "b"], merge, fallback=fallback))
    assert _fields(got) == _fields(fallback)
    assert sorted(zip(got["a"].to_pylist(), got["b"].to_pylist(),
                      got["n"].to_pylist())) == [
        (a, b, 10) for a in range(3) for b in ("x0", "x1")]


def test_keyed_fold_pandas_batches(ray_session):
    src = pa.table({"k": pa.array([i % 4 for i in range(40)], pa.int64()),
                    "v": pa.array(np.arange(40), pa.int64())})
    fallback = pa.table({"k": pa.array([], pa.int64()),
                         "hi": pa.array([], pa.int64())})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        assert isinstance(df, pd.DataFrame)
        return df[df["v"] % 2 == 0]

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        assert isinstance(g, pd.DataFrame)
        return pd.DataFrame({"k": [g["k"].iloc[0]], "hi": [g["v"].max()]})

    got = _tables(keyed_fold(ray.data.from_arrow(src), "k", merge,
                             partial=partial, fallback=fallback,
                             batch_format="pandas"))
    assert _fields(got) == _fields(fallback)
    assert sorted(zip(got["k"].to_pylist(), got["hi"].to_pylist())) == [
        (0, 36), (2, 38)]


def test_keyed_fold_all_empty_returns_fallback(ray_session):
    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.string()),
                                          "v": pa.array([], pa.int64())}))

    def merge(g: pa.Table) -> pa.Table:
        raise AssertionError(f"merge called on {g.num_rows} rows")

    assert _tables(keyed_fold(empty, "k", merge, fallback=SUMS)).equals(SUMS)
    # A partial that filters every row away ends the same way.
    src = ray.data.from_arrow(pa.table({"k": pa.array(["a", "b"]),
                                        "v": pa.array([1, 2], pa.int64())}))
    out = keyed_fold(src, "k", merge, fallback=SUMS,
                     partial=lambda t: t.slice(0, 0))
    assert _tables(out).equals(SUMS)


def test_map_groups_only_in_keyed_fold():
    # Every keyed exchange goes through blocks.keyed_fold, so the
    # empty-partition handling lives in one place.
    hits = [(p.relative_to(PKG).as_posix(), i)
            for p in sorted(PKG.rglob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if "map_groups(" in line]
    assert [h[0] for h in hits] == ["functions/blocks.py"], hits


# --- typed empty outputs -------------------------------------------------

def _quantiles(empty):
    from konlsearch_ray.functions.stats import grouped_quantiles

    n = 0 if empty else 20
    return grouped_quantiles(ray.data.from_arrow(pa.table({
        "k": pa.array([f"k{i % 3}" for i in range(n)], pa.string()),
        "v": pa.array([float(i) for i in range(n)], pa.float64())})),
        "k", "v")


def _prefix(empty):
    from konlsearch_ray.pipelines.suggest import topk_per_prefix

    terms = [] if empty else ["apple", "apply", "banana", "berry"]
    return topk_per_prefix(ray.data.from_arrow(pa.table({
        "term": pa.array(terms, pa.string()),
        "df": pa.array(range(len(terms)), pa.int64())})))


def _jamo_prefix(empty):
    from konlsearch_ray.pipelines.suggest import topk_per_jamo_prefix

    terms = [] if empty else ["마법", "모래", "마법사"]
    return topk_per_jamo_prefix(ray.data.from_arrow(pa.table({
        "term": pa.array(terms, pa.string()),
        "hits": pa.array([3] * len(terms), pa.int64())})))


def _seq_ids(empty):
    from konlsearch_ray.pipelines.logagg import assign_seq_ids

    n = 0 if empty else 10
    return assign_seq_ids(ray.data.from_arrow(pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array([i * 400_000 for i in range(n)], pa.int64())})))


def _packs(empty):
    from konlsearch_ray.functions.packing import pack_by_offset

    n = 0 if empty else 12
    return pack_by_offset(ray.data.from_arrow(pa.table({
        "id": pa.array(range(n), pa.int64()),
        "w": pa.array([5] * n, pa.int64())})), "id", "w", budget=20)


def _setop(fn_name):
    def run(empty):
        from konlsearch_ray.functions import setops

        n = 0 if empty else 6
        t = pa.table({"a": pa.array([i % 4 for i in range(n)], pa.int64()),
                      "b": pa.array([f"s{i % 2}" for i in range(n)],
                                    pa.string())})
        return getattr(setops, fn_name)(ray.data.from_arrow(t),
                                        ray.data.from_arrow(t.slice(0, n // 2)))
    return run


@pytest.mark.parametrize("run", [
    _quantiles, _prefix, _jamo_prefix, _seq_ids, _packs,
    _setop("union_distinct"), _setop("intersect_distinct"),
    _setop("except_distinct")],
    ids=["grouped_quantiles", "topk_per_prefix", "topk_per_jamo_prefix",
         "assign_seq_ids", "pack_by_offset", "union_distinct",
         "intersect_distinct", "except_distinct"])
def test_empty_input_keeps_nonempty_schema(ray_session, run):
    full = _tables(run(False))
    assert full.num_rows
    empty = _tables(run(True))
    assert empty.num_rows == 0
    assert _fields(empty) == _fields(full)
