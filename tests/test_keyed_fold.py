"""``blocks.keyed_fold``: the one keyed exchange every wide operator
goes through, and the typed-empty contract it gives them.
"""

import datetime
import decimal
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


def test_factorize_only_in_blocks():
    # Every key column in the operator library is coded through
    # blocks.key_codes, so null (and NaN) keys code one way.
    hits = {p.name
            for p in sorted((PKG / "functions").glob("*.py"))
            if "pd.factorize(" in p.read_text()}
    assert hits == {"blocks.py"}, hits


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


# --- null string keys across blocks --------------------------------------

def _null_key_rows(typ=pa.string()):
    """60 rows whose string key holds nulls beside "" and real values,
    split over 3 blocks: Ray's sort shuffle compares key values in
    Python, and a null beside a string raised TypeError there."""
    keys = ["a", None, "b", "", None, "c"]
    vals = [k.encode() if k is not None and typ == pa.binary() else k
            for k in keys]
    t = pa.table({"g": pa.array([vals[i % 6] for i in range(60)], typ),
                  "v": pa.array(np.arange(60), pa.int64())})
    return t, ray.data.from_arrow(t).repartition(3)


def _by_key(rows) -> dict:
    out: dict = {}
    for k, v in rows:
        out.setdefault(k, []).append(v)
    return out


def test_grouped_topk_null_string_keys_over_blocks(ray_session):
    from konlsearch_ray.functions.aggregates import grouped_topk

    t, ds = _null_key_rows()
    got = _tables(grouped_topk(ds, "g", [("v", "descending")], 3))
    want = {k: sorted(vs)[-3:] for k, vs in _by_key(
        zip(t["g"].to_pylist(), t["v"].to_pylist())).items()}
    assert {k: sorted(vs) for k, vs in _by_key(
        zip(got["g"].to_pylist(), got["v"].to_pylist())).items()} == want
    assert set(want) == {"a", "b", "c", "", None}


def test_grouped_quantiles_null_string_keys_over_blocks(ray_session):
    # A pandas-format fold: its group batches decode the key too.
    from konlsearch_ray.functions.stats import grouped_quantiles

    t, ds = _null_key_rows()
    got = _tables(grouped_quantiles(ds, "g", "v", qs=(("p0", 0),)))
    want = {k: (len(vs), float(min(vs))) for k, vs in _by_key(
        zip(t["g"].to_pylist(), t["v"].to_pylist())).items()}
    assert dict(zip(got["g"].to_pylist(),
                    zip(got["n"].to_pylist(), got["p0"].to_pylist()))) == want


def test_distinct_count_null_string_keys_over_blocks(ray_session):
    from konlsearch_ray.functions.aggregates import distinct_count

    t, ds = _null_key_rows()
    ds = ds.map_batches(
        lambda b: b.set_column(1, "v", pc.bit_wise_and(b["v"], 7)),
        batch_format="pyarrow")
    got = _tables(distinct_count(ds, "g", "v"))
    want = {k: len({v & 7 for v in vs}) for k, vs in _by_key(
        zip(t["g"].to_pylist(), t["v"].to_pylist())).items()}
    cnt = [c for c in got.column_names if c not in ("g",)][0]
    assert dict(zip(got["g"].to_pylist(), got[cnt].to_pylist())) == want


def test_keyed_fold_null_binary_keys_over_blocks(ray_session):
    # The merge sees the stored key values: nulls and b"" stay apart.
    t, ds = _null_key_rows(pa.binary())

    def merge(g: pa.Table) -> pa.Table:
        assert g["g"].type == pa.binary()
        return pa.table({"g": g["g"].slice(0, 1),
                         "n": pa.array([len(g)], pa.int64())})

    got = _tables(keyed_fold(ds, "g", merge, fallback=pa.table({
        "g": pa.array([], pa.binary()), "n": pa.array([], pa.int64())})))
    assert dict(zip(got["g"].to_pylist(), got["n"].to_pylist())) == {
        b"a": 10, b"b": 10, b"c": 10, b"": 10, None: 20}


@pytest.mark.parametrize("typ, values", [
    (pa.decimal128(10, 2), [decimal.Decimal("1.50"), decimal.Decimal("0.00"),
                            decimal.Decimal("-2.25")]),
    (pa.bool_(), [True, False]),
    (pa.date32(), [datetime.date(2020, 1, 1), datetime.date(1970, 1, 1),
                   datetime.date(1999, 3, 1)]),
], ids=["decimal128", "bool", "date32"])
@pytest.mark.parametrize("fmt", ["pyarrow", "pandas"])
def test_keyed_fold_null_keys_of_any_type_over_blocks(ray_session, typ,
                                                      values, fmt):
    # 60 rows, a third of them null-keyed, over 3 blocks: null decimal
    # and bool keys raised TypeError in the sort shuffle, and null dates
    # split into one group per row. The merge sees the exact stored
    # values in their own type; the nulls form one group. The zero of
    # each type (0, False, the epoch) is a real key beside the null one.
    keys = [values[(i // 3) % len(values)] if i % 3 else None
            for i in range(60)]
    t = pa.table({"g": pa.array(keys, typ),
                  "v": pa.array(np.arange(60), pa.int64())})
    ds = ray.data.from_arrow(t).repartition(3)

    def merge(g):
        if fmt == "pandas":
            g = pa.Table.from_pandas(g, preserve_index=False)
            g = g.set_column(0, "g", g["g"].cast(typ))
        return pa.table({"g": g["g"].slice(0, 1),
                         "n": pa.array([len(g)], pa.int64())})

    got = _tables(keyed_fold(ds, "g", merge, batch_format=fmt,
                             fallback=pa.table({
                                 "g": pa.array([], typ),
                                 "n": pa.array([], pa.int64())})))
    want: dict = {}
    for k in keys:
        want[k] = want.get(k, 0) + 1
    assert got["g"].type == typ
    assert dict(zip(got["g"].to_pylist(), got["n"].to_pylist())) == want
    assert got.num_rows == len(want) == len(values) + 1


@pytest.mark.parametrize("fmt", ["pyarrow", "pandas"])
def test_keyed_fold_nan_keys_form_one_group(ray_session, fmt):
    # 15 NaN + 5 null + 10 x 1.0 over 3 blocks: the sort shuffle split
    # every NaN row into a group of its own. All NaN rows form one group
    # (DuckDB's GROUP BY), apart from the null one, and merge sees NaN.
    keys = [float("nan")] * 15 + [None] * 5 + [1.0] * 10
    t = pa.table({"g": pa.array(keys, pa.float64()),
                  "v": pa.array(np.arange(30), pa.int64())})
    ds = ray.data.from_arrow(t).repartition(3)

    def merge(g):
        if fmt == "pandas":  # a float null reads back as NaN in pandas
            kind = "value" if g["g"].notna().all() else "unset"
        else:
            k = g["g"]
            kind = ("null" if k.null_count == len(g)
                    else "nan" if pc.all(pc.is_nan(k)).as_py() else "value")
        return pa.table({"kind": [kind], "n": pa.array([len(g)], pa.int64())})

    got = _tables(keyed_fold(ds, "g", merge, batch_format=fmt,
                             fallback=pa.table({
                                 "kind": pa.array([], pa.string()),
                                 "n": pa.array([], pa.int64())})))
    want = ([("nan", 15), ("null", 5), ("value", 10)] if fmt == "pyarrow"
            else [("unset", 5), ("unset", 15), ("value", 10)])
    assert sorted(zip(got["kind"].to_pylist(), got["n"].to_pylist())) == want
