"""edit1_pairs (FastSS deletion-neighborhood blocking + exact
vectorized verification) and funnel_counts (EXISTS-within-window via
backward as-of). Oracles: brute-force DP Levenshtein and DuckDB window
SQL on purpose-built inputs."""

import itertools
import random

import numpy as np
import pyarrow as pa
import pytest


def _lev(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1,
                                     prev + (ca != cb))
    return dp[len(b)]


def test_edit1_pairs_matches_bruteforce(ray_session):
    import ray.data

    from konlsearch_ray.functions.fuzzy import _ed1_mask, edit1_pairs

    rng = random.Random(0)
    vocab = sorted({"".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
                    for _ in range(300)})
    truth = sorted((a, b) for a, b in itertools.combinations(vocab, 2)
                   if _lev(a, b) == 1)
    ds = ray.data.from_arrow(
        pa.table({"term": pa.array(vocab)})).repartition(3)
    got = edit1_pairs(ds, "term").to_pandas()
    assert sorted(zip(got["a"], got["b"])) == truth

    # kernel property check on mixed-length pairs (incl. the
    # first-mismatch-at-pad edge: prefix pairs like "ab"/"abc")
    pairs = [(a, b) for a in vocab[:60] for b in vocab[:60]
             if a < b and abs(len(a) - len(b)) <= 1]
    m = _ed1_mask([p[0] for p in pairs], [p[1] for p in pairs])
    ref = np.array([_lev(a, b) == 1 for a, b in pairs])
    assert (m == ref).all()

    # duplicates/nulls ignored; hot-bucket cap drops pairs (recall
    # knob), never crashes
    t = pa.table({"term": pa.array(["ab", "ab", None, "ax", "ay", "az"])})
    exact = edit1_pairs(ray.data.from_arrow(t), "term").to_pandas()
    assert len(exact) == 6  # ab-ax ab-ay ab-az ax-ay ax-az ay-az
    capped = edit1_pairs(ray.data.from_arrow(t), "term",
                         max_bucket=2).to_pandas()
    assert len(capped) < 6


def test_funnel_counts_matches_exists_sql(ray_session):
    import duckdb
    import ray.data

    from konlsearch_ray.functions.temporal import funnel_counts

    rng = np.random.default_rng(3)
    n = 600
    t = pa.table({
        "u": pa.array(rng.integers(1, 25, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 3600, n) * 1_000_000, pa.int64()),
        "ev": pa.array(rng.choice(["view", "purchase", "click"], n)),
    })
    out = (funnel_counts(ray.data.from_arrow(t).repartition(4),
                         "u", "ts", "ev", first="view", then="purchase",
                         within_s=300, int_unit="us")
           .to_pandas().sort_values("u").reset_index(drop=True))
    sql = duckdb.sql("""
        WITH e AS (SELECT u, ts, ev FROM t),
        s AS (SELECT u, ts FROM e WHERE ev = 'purchase')
        SELECT u, count(*) AS n_then,
               sum(CASE WHEN EXISTS (
                   SELECT 1 FROM e f WHERE f.ev = 'view' AND f.u = s.u
                     AND f.ts <= s.ts AND s.ts - f.ts <= 300 * 1000000
               ) THEN 1 ELSE 0 END)::BIGINT AS n_converted
        FROM s GROUP BY u ORDER BY u
    """).df()
    assert out["u"].tolist() == sql["u"].tolist()
    assert out["n_then"].tolist() == sql["n_then"].tolist()
    assert out["n_converted"].tolist() == sql["n_converted"].tolist()
    # equal-timestamp first/then counts as converted (f.ts <= s.ts)
    t2 = pa.table({"u": pa.array([1, 1], pa.int64()),
                   "ts": pa.array([50, 50], pa.int64()),
                   "ev": pa.array(["view", "purchase"])})
    o2 = funnel_counts(ray.data.from_arrow(t2), "u", "ts", "ev",
                       first="view", then="purchase", within_s=1,
                       int_unit="us").to_pandas()
    assert o2["n_then"].tolist() == [1]
    assert o2["n_converted"].tolist() == [1]


@pytest.mark.parametrize("nbuckets", [1, None])
def test_funnel_counts_drops_null_keys(ray_session, monkeypatch, nbuckets):
    """Null-key ``then`` events are dropped, whether they share a block
    with other keys (one bucket) or fill a block of their own."""
    import ray.data

    from konlsearch_ray.functions import blocks
    from konlsearch_ray.functions.temporal import funnel_counts

    if nbuckets:
        monkeypatch.setattr(blocks, "default_nbuckets", lambda: nbuckets)

    t = pa.table({
        "u": pa.array([1, 1, 2, None, None], pa.int64()),
        "ts": pa.array([10, 20, 30, 40, 50], pa.int64()),
        "ev": pa.array(["view"] + ["purchase"] * 4),
    })
    out = (funnel_counts(ray.data.from_arrow(t), "u", "ts", "ev",
                         first="view", then="purchase", within_s=100,
                         int_unit="us")
           .to_pandas().sort_values("u"))
    assert out["u"].tolist() == [1, 2]
    assert out["n_then"].tolist() == [1, 1]
    assert out["n_converted"].tolist() == [1, 0]


def test_exact_stratified_sample_partition_invariant(ray_session):
    """Exactly k per group, identical row set at any partitioning, and
    small groups keep everything."""
    import ray.data

    from konlsearch_ray.functions.sampling import exact_stratified_sample

    rng = np.random.default_rng(5)
    n = 500
    t = pa.table({
        "id": pa.array(np.arange(n), pa.int64()),
        "g": pa.array(rng.choice(["en", "es", "de"], n, p=[.8, .15, .05])),
        "x": pa.array(rng.integers(0, 9, n), pa.int64()),
    })
    # tiny group: only 2 rows of "zz"
    t = pa.concat_tables([t, pa.table({
        "id": pa.array([900, 901], pa.int64()),
        "g": pa.array(["zz", "zz"]),
        "x": pa.array([1, 2], pa.int64()),
    })])
    picks = []
    for parts in (1, 3, 7):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        out = exact_stratified_sample(ds, "id", "g", 10,
                                      salt="t").to_pandas()
        counts = out.groupby("g").size().to_dict()
        assert counts == {"en": 10, "es": 10, "de": 10, "zz": 2}
        assert set(out.columns) == {"id", "g", "x"}
        picks.append(sorted(out["id"].tolist()))
    assert picks[0] == picks[1] == picks[2]
    # salt redraw changes the selection
    other = exact_stratified_sample(ray.data.from_arrow(t), "id", "g",
                                    10, salt="u").to_pandas()
    assert sorted(other["id"]) != picks[0]


def test_grouped_quantiles_int_matches_exact(ray_session):
    """The distinct-pair-bounded integer quantile path must equal the
    keyed-shuffle exact operator on the same data (same integer-indexed
    spec), at any partitioning, with null keys/values dropped."""
    import ray.data

    from konlsearch_ray.functions.stats import (grouped_quantiles,
                                                grouped_quantiles_int)

    rng = np.random.default_rng(9)
    n = 2000
    t = pa.table({
        "k": pa.array(rng.choice(["a", "b", "c"], n)),
        "v": pa.array(rng.integers(-50, 50, n), pa.int64()),
    })
    t = pa.concat_tables([t, pa.table({
        "k": pa.array([None, "z", "z"]),
        "v": pa.array([7, None, None], pa.int64()),
    })])

    def canon(df):
        # the exact operator lets Ray's null-key group through; the int
        # variant documents dropping it (no partition) — compare on
        # real keys
        df = df[df["k"].notna()]
        return (df.sort_values("k").reset_index(drop=True)
                [["k", "n", "p50", "p90", "p99"]].to_dict("records"))

    for parts in (1, 5):
        ds = ray.data.from_arrow(t).repartition(parts)
        exact = canon(grouped_quantiles(ds, "k", "v").to_pandas())
        fast = canon(grouped_quantiles_int(ds, "k", "v").to_pandas())
        assert fast == exact
        # null key dropped, all-null-value key emits nothing
        assert [r["k"] for r in fast] == ["a", "b", "c"]

    import pytest as _pt
    tf = ray.data.from_arrow(pa.table({
        "k": pa.array(["a"]), "v": pa.array([1.5], pa.float64())}))
    with _pt.raises(ValueError, match="integer-typed"):
        grouped_quantiles_int(tf, "k", "v")
