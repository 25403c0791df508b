"""``blocks.bucket_fold``: the one keyed exchange every wide operator
goes through (``keyed_fold`` splits its buckets per key), and the
typed-empty contract it gives them.
"""

import ast
import datetime
import decimal
import pathlib
import tracemalloc

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data

from konlsearch_ray.functions import blocks
from konlsearch_ray.functions.blocks import (bucket_fold, key_bucket,
                                             keyed_fold, keyed_int_fold)

PKG = pathlib.Path(__file__).resolve().parent.parent / "konlsearch_ray"


def _tables(ds: ray.data.Dataset) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _fields(t: pa.Table) -> list:
    return [(f.name, f.type) for f in t.schema]


SUMS = pa.table({"k": pa.array([], pa.string()),
                 "total": pa.array([], pa.int64())})


def test_keyed_fold_more_buckets_than_keys(ray_session, monkeypatch):
    # 3 keys routed into 64 buckets over 8 input blocks: most shuffle
    # partitions are empty, and none of them may leak a stale schema.
    keys = ["a", "b", None]
    src = pa.table({"k": pa.array([keys[i % 3] for i in range(300)]),
                    "v": pa.array(np.arange(300), pa.int64())})
    ds = ray.data.from_arrow(src).repartition(8)
    monkeypatch.setattr(blocks, "default_nbuckets", lambda: 64)

    def per_key_sums(g: pa.Table) -> pa.Table:
        assert "__route" not in g.column_names
        s = g.group_by("k").aggregate([("v", "sum")])
        return pa.table({"k": s["k"],
                         "total": pc.cast(s["v_sum"], pa.int64())})

    out = bucket_fold(ds, "k", per_key_sums, fallback=SUMS)
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


def test_keyed_int_fold_key_list_and_typed_folds(ray_session):
    # Two key columns (a float one with NaN, -0.0, 0.0 and null), 6
    # blocks, 64 routing buckets: counts, sums past int64 (exact in
    # Python ints), and a string min in its own type; a null key is a
    # group of its own unless the caller names its column in required.
    big = 2**62
    a = [float("nan"), -0.0, 0.0, None, 1.5] * 12
    src = pa.table({
        "a": pa.array(a, pa.float64()),
        "b": pa.array([f"b{i % 2}" for i in range(60)]),
        "v": pa.array([big] * 60, pa.int64()),
        "s": pa.array([f"s{(i * 7) % 60:02d}" for i in range(60)]),
    })
    ds = ray.data.from_arrow(src).repartition(6)
    folds = {"n": "count", "v": "sum", "s": "min"}

    def run(required=()):
        out = keyed_int_fold(
            ds, ["a", "b"], folds, required=required,
            out={"n": pa.int64(), "v": pa.string(), "s": pa.string()},
            finish=lambda r: {**r, "v": str(r["v"])})
        t = _tables(out)
        assert [t.schema.field(c).type for c in ("a", "b", "s")] == [
            pa.float64(), pa.string(), pa.string()]
        return {("nan" if k is not None and k != k else k and k + 0.0, b):
                (n, v, m) for k, b, n, v, m in zip(*t.to_pydict().values())}

    want: dict = {}
    for k, b, s in zip(a, src["b"].to_pylist(), src["s"].to_pylist()):
        key = ("nan" if k is not None and k != k else k and k + 0.0, b)
        n, _, m = want.get(key, (0, "", "~"))
        want[key] = (n + 1, str((n + 1) * big), min(m, s))
    assert run() == want
    assert run(required=("a",)) == {
        k: v for k, v in want.items() if k[0] is not None}


def test_map_groups_only_in_keyed_fold():
    # Every keyed exchange goes through blocks.bucket_fold, so the
    # empty-partition handling lives in one place.
    hits = [(p.relative_to(PKG).as_posix(), i)
            for p in sorted(PKG.rglob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if "map_groups(" in line]
    assert [h[0] for h in hits] == ["functions/blocks.py"], hits


# The one Ray aggregation outside blocks.py: pack_by_offset's keyless
# Min/Max id bounds, a single row that no key rule applies to.
KEYLESS_BOUNDS = "functions/packing.py"


def test_dataset_groupby_only_in_blocks():
    # Every keyed Dataset group-by goes through blocks.py, so the
    # exchange, the empty-partition fallback and the null/NaN key rule
    # live in one place. A pandas group-by (it takes ``sort=``) stays
    # inside one block; a Ray aggregation needs ray.data.aggregate.
    hits = []
    for p in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if ((isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "groupby"
                 and not any(k.arg == "sort" for k in node.keywords))
                    or (isinstance(node, ast.ImportFrom)
                        and node.module == "ray.data.aggregate")):
                hits.append((p.relative_to(PKG).as_posix(), node.lineno))
    # packing.py: its one ray.data.aggregate import, no group-by
    assert [h[0] for h in hits if h[0] != "functions/blocks.py"] == [
        KEYLESS_BOUNDS], hits


def _calls(name: str) -> list:
    return [(p.relative_to(PKG).as_posix(), node)
            for p in sorted(PKG.rglob("*.py"))
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) == name
                or getattr(node.func, "id", None) == name)]


def test_one_groupby_on_one_route_column():
    # The package's one Ray group-by groups by the exchange's int64
    # route column, which is never null: the null/NaN key rule is a
    # routing fact, not a shuffle encoding.
    hits = [(f, ast.unparse(n)) for f, n in _calls("groupby")
            if not any(k.arg == "sort" for k in n.keywords)]
    assert [(f, c.split(".groupby")[1]) for f, c in hits] == [
        ("functions/blocks.py", "(_ROUTE)")], hits
    for gone in ("_encode_keys", "_decode_keys", "_zero", "_KIND"):
        assert not hasattr(blocks, gone), gone


def test_key_bucket_called_only_in_blocks():
    # Every exchange routes through blocks.bucket_fold, so no operator
    # builds a bucket column of its own (no exemptions).
    hits = [(f, n.lineno) for f, n in _calls("key_bucket")]
    assert {f for f, _ in hits} == {"functions/blocks.py"}, hits


def test_nbuckets_only_in_key_bucket():
    # The bucket count is read once, on the driver, by the exchange:
    # no operator takes a bucket-count knob.
    hits = [(p.relative_to(PKG).as_posix(), node.name)
            for p in sorted(PKG.rglob("*.py"))
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(a.arg == "nbuckets" for a in (
                node.args.args + node.args.kwonlyargs
                + node.args.posonlyargs))]
    assert hits == [("functions/blocks.py", "key_bucket")], hits


def test_key_bucket_costs_total_key_bytes():
    # 1,000 keys, one of them 100 KB: the hash reads each key's bytes
    # once (a rows x widest-key matrix took ~100 MB here), and a key
    # gets the same bucket whatever the widest key in its batch.
    keys = [f"key-{i}" for i in range(999)] + ["x" * 100_000]
    col = pa.array(keys)
    tracemalloc.start()
    try:
        got = key_bucket(col, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak
    assert (got[:999] == key_bucket(pa.array(keys[:999]), 64)).all()
    for i in (0, 17, 998):
        assert got[i] == key_bucket(pa.array([keys[i]]), 64)[0]
        assert got[i] == key_bucket(pa.array([keys[i], "y" * 5000]), 64)[0]


def test_string_bucket_hash_matches_byte_loop():
    # The reference: h = h * P + byte over each key's bytes, mod 2**64,
    # from the FNV offset basis; a null hashes like "".
    from konlsearch_ray.functions.blocks import _string_bucket_hash

    def loop(b: bytes) -> int:
        h = 0xCBF29CE484222325
        for x in b:
            h = (h * 1099511628211 + x) % 2**64
        return h

    keys = ["", "a", None, "가나다", "x" * 300, "ab", None, "ba"]
    col = pa.array(keys)
    want = [loop((k or "").encode()) for k in keys]
    assert _string_bucket_hash(col).tolist() == want
    assert _string_bucket_hash(col.slice(2, 4)).tolist() == want[2:6]
    assert _string_bucket_hash(pa.chunked_array(
        [col.slice(0, 3), col.slice(3)])).tolist() == want


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
    # A per-key fold: its merge sees the stored key too.
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
    # and bool keys raised TypeError in a sort shuffle on the key, and
    # null dates split into one group per row. The merge sees the exact
    # stored values in their own type; the nulls form one group. The
    # zero of each type (0, False, the epoch) is a real key beside the
    # null one. ``fmt`` is the format the merge works in: a pandas
    # merge converts its Arrow group itself.
    keys = [values[(i // 3) % len(values)] if i % 3 else None
            for i in range(60)]
    t = pa.table({"g": pa.array(keys, typ),
                  "v": pa.array(np.arange(60), pa.int64())})
    ds = ray.data.from_arrow(t).repartition(3)

    def merge(g):
        if fmt == "pandas":
            g = pa.Table.from_pandas(g.to_pandas(), preserve_index=False)
            g = g.set_column(0, "g", g["g"].cast(typ))
        return pa.table({"g": g["g"].slice(0, 1),
                         "n": pa.array([len(g)], pa.int64())})

    got = _tables(keyed_fold(ds, "g", merge,
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
    # 15 NaN + 5 null + 10 x 1.0 over 3 blocks: a sort shuffle on the
    # key split every NaN row into a group of its own. All NaN rows form
    # one group (DuckDB's GROUP BY), apart from the null one, and merge
    # sees NaN; a pandas merge (``fmt``) sees both as NaN, in two groups.
    keys = [float("nan")] * 15 + [None] * 5 + [1.0] * 10
    t = pa.table({"g": pa.array(keys, pa.float64()),
                  "v": pa.array(np.arange(30), pa.int64())})
    ds = ray.data.from_arrow(t).repartition(3)

    def merge(g):
        if fmt == "pandas":  # a float null reads back as NaN in pandas
            kind = "value" if g.to_pandas()["g"].notna().all() else "unset"
        else:
            k = g["g"]
            kind = ("null" if k.null_count == len(g)
                    else "nan" if pc.all(pc.is_nan(k)).as_py() else "value")
        return pa.table({"kind": [kind], "n": pa.array([len(g)], pa.int64())})

    got = _tables(keyed_fold(ds, "g", merge,
                             fallback=pa.table({
                                 "kind": pa.array([], pa.string()),
                                 "n": pa.array([], pa.int64())})))
    want = ([("nan", 15), ("null", 5), ("value", 10)] if fmt == "pyarrow"
            else [("unset", 5), ("unset", 15), ("value", 10)])
    assert sorted(zip(got["kind"].to_pylist(), got["n"].to_pylist())) == want
