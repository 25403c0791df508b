"""Deterministic hash-based splitting / sampling for training-data
pipelines.

A train/val/test split over 100 TB must be (a) reproducible across runs
and engines, (b) stable under re-partitioning (a row's split cannot
depend on which block it landed in), and (c) computable per batch with
no global state. Hashing the row's ID gives all three: bucket =
``md5(salt || str(id))`` first 8 hex digits mod 10_000, and the split
label is a cumulative-fraction table lookup. md5 is deliberate — it is
the one digest both this engine and SQL oracles (DuckDB ``md5()``)
produce bit-identically, the same trade the exact-dedup path makes
(functions/dedup.py). The digest runs buffer-direct per row
(build.hash_hex_column), matching the ingest sha256 cost profile.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from konlsearch_ray.functions.blocks import _one_zero, key_codes

BUCKETS = 10_000  # basis points: fractions resolve to 0.01%


def _hash32_of(ids: pa.ChunkedArray | pa.Array, salt: str) -> np.ndarray:
    """md5-derived uint32 per row (first 8 hex digits) —
    engine-independent (DuckDB: ``CAST('0x' || substr(md5(salt ||
    CAST(id AS VARCHAR)), 1, 8) AS UBIGINT)``)."""
    from konlsearch_ray.build import hash_hex_column

    s = pc.cast(ids, pa.string())
    if salt:
        s = pc.binary_join_element_wise(pa.scalar(salt), s, "")
    hx = hash_hex_column(s, "md5")
    # first 8 hex chars -> uint32; vectorized via the fixed-width bytes
    # view (digests are constant-width, so the "S" cast is exact)
    from konlsearch_ray.segment import _string_col_to_S

    if not len(hx):  # the empty S-matrix is 1 byte wide, not 32
        return np.zeros(0, dtype=np.uint64)
    s = _string_col_to_S(hx)
    mat = s.view(np.uint8).reshape(len(s), s.dtype.itemsize)
    nib = np.where(mat[:, :8] >= ord("a"), mat[:, :8] - ord("a") + 10,
                   mat[:, :8] - ord("0")).astype(np.uint64)
    val = np.zeros(len(hx), dtype=np.uint64)
    for j in range(8):  # 8 fixed passes, each vectorized
        val = (val << np.uint64(4)) | nib[:, j]
    return val


def _bucket_of(ids: pa.ChunkedArray | pa.Array, salt: str) -> np.ndarray:
    """md5-derived bucket in [0, BUCKETS) per row — engine-independent
    (DuckDB: ``CAST('0x' || substr(md5(salt || CAST(id AS VARCHAR)), 1, 8)
    AS UBIGINT) % 10000``)."""
    return (_hash32_of(ids, salt) % np.uint64(BUCKETS)).astype(np.int64)


def hash_split(
    ds: ray.data.Dataset,
    id_col: str,
    fractions: dict[str, float],
    salt: str = "",
) -> ray.data.Dataset:
    """Attach a ``split`` label column by deterministic ID hash.

    ``fractions`` maps label -> fraction (must sum to 1 within 1e-6);
    labels take cumulative bucket ranges in the given dict order, e.g.
    ``{"train": .8, "val": .1, "test": .1}`` -> buckets [0,8000) /
    [8000,9000) / [9000,10000).
    """
    total = sum(fractions.values())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"fractions must sum to 1, got {total}")
    labels = list(fractions)
    bounds = np.cumsum([int(round(f * BUCKETS)) for f in fractions.values()])
    bounds[-1] = BUCKETS  # absorb rounding drift into the last label

    def assign(t: pa.Table) -> pa.Table:
        b = _bucket_of(t[id_col], salt)
        lab = np.searchsorted(bounds, b, side="right")
        return t.append_column(
            "split", pa.DictionaryArray.from_arrays(
                pa.array(lab, pa.int32()), pa.array(labels)).cast(pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def hash_sample(
    ds: ray.data.Dataset,
    id_col: str,
    fraction: float,
    salt: str = "",
) -> ray.data.Dataset:
    """Deterministic ~``fraction`` subsample by ID hash (bucket <
    fraction * 10_000). Stable across runs, partitionings and engines —
    unlike ``Dataset.random_sample``, re-running selects the SAME rows."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    cut = int(round(fraction * BUCKETS))

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(_bucket_of(t[id_col], salt) < cut))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(
    ds: ray.data.Dataset,
    id_col: str,
    group_col: str,
    rates: dict[str, float],
    default_rate: float = 0.0,
    salt: str = "",
) -> ray.data.Dataset:
    """Per-group deterministic subsample — the corpus-rebalancing op
    (e.g. downsample over-represented languages): keep a row iff its ID
    bucket < its GROUP's rate.  Same hash, same guarantees as
    ``hash_sample``; the per-row cut resolves through the batch's
    dictionary-encoded group column (one lookup per DISTINCT group value,
    fanned out by codes — no per-row Python)."""
    for g, r in rates.items():
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"rate for {g!r} must be in [0, 1]")
    if not 0.0 <= default_rate <= 1.0:
        raise ValueError("default_rate must be in [0, 1]")
    default_cut = int(round(default_rate * BUCKETS))
    cuts = {g: int(round(r * BUCKETS)) for g, r in rates.items()}

    def keep(t: pa.Table) -> pa.Table:
        # -0.0 reads the rate of 0.0: one key (``blocks`` key rule)
        groups = pc.cast(_one_zero(t[group_col]), pa.string())
        codes, first = key_codes(groups)
        per_value = [cuts.get(v, default_cut)
                     for v in groups.take(first).to_pylist()]
        # code -1 (the null group) takes the last entry: the default
        cut = np.array(per_value + [default_cut], dtype=np.int64)[codes]
        return t.filter(pa.array(_bucket_of(t[id_col], salt) < cut))

    return ds.map_batches(keep, batch_format="pyarrow")

def exact_sample(
    ds: ray.data.Dataset,
    id_col: str,
    k: int,
    salt: str = "",
) -> ray.data.Dataset:
    """Exactly-k deterministic uniform sample — the fixed-budget eval /
    inspection draw (``hash_sample`` gives a *rate*; this gives a
    *count*).

    Each row's priority is the full md5 hex digest of
    ``salt || str(id)`` and the sample is the k smallest priorities
    (ties broken by id) — a deterministic reservoir: reproducible
    across runs, engines (SQL: ``ORDER BY md5(salt || CAST(id AS
    VARCHAR)), id LIMIT k``) and partitionings, and uniform because the
    digest is uniform over ids. Changing ``salt`` redraws; growing the
    corpus only ever swaps rows in/out by priority, never reshuffles
    the kept set wholesale.

    Scale shape: per-block top-k inside ``map_batches`` then one
    O(k x blocks)-row merge (:func:`~konlsearch_ray.functions.stats.
    global_topk`) — the corpus itself never shuffles. Output: the
    sampled rows with their original columns (the priority column is
    dropped).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    from konlsearch_ray.build import hash_hex_column
    from konlsearch_ray.functions.stats import global_topk

    def prio(t: pa.Table) -> pa.Table:
        if "__prio" in t.schema.names:
            raise ValueError("column __prio collides with exact_sample")
        s = pc.cast(t[id_col], pa.string())
        if salt:
            s = pc.binary_join_element_wise(pa.scalar(salt), s, "")
        return t.append_column("__prio", hash_hex_column(s, "md5"))

    orig = list(ds.schema().names)
    out = global_topk(
        ds.map_batches(prio, batch_format="pyarrow"),
        [("__prio", "ascending"), (id_col, "ascending")], k)
    return out.map_batches(lambda t: t.select(orig),
                           batch_format="pyarrow")

def exact_stratified_sample(
    ds: ray.data.Dataset,
    id_col: str,
    group_col: str,
    k: int,
    salt: str = "",
) -> ray.data.Dataset:
    """Exactly-k-PER-GROUP deterministic sample — the balanced eval-set
    draw (k examples per language/source/label, however skewed the
    corpus): :func:`exact_sample`'s md5 priority ranked WITHIN each
    group (groups smaller than k keep all their rows).

    Same determinism contract as ``exact_sample`` (reproducible across
    runs, engines — SQL: ``row_number() OVER (PARTITION BY g ORDER BY
    md5(salt || CAST(id AS VARCHAR)), id) <= k`` — and partitionings;
    string priority comparisons are byte-exact, no float anywhere).

    Scale shape: per-block per-group top-k then a keyed merge of
    <= k x blocks rows per group (:func:`~konlsearch_ray.functions.
    aggregates.grouped_topk`) — the corpus never shuffles raw; null
    group values form their own group (SQL PARTITION BY semantics).
    Output: the sampled rows, original columns.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    from konlsearch_ray.build import hash_hex_column
    from konlsearch_ray.functions.aggregates import grouped_topk

    def prio(t: pa.Table) -> pa.Table:
        if "__prio" in t.schema.names:
            raise ValueError(
                "column __prio collides with exact_stratified_sample")
        s = pc.cast(t[id_col], pa.string())
        if salt:
            s = pc.binary_join_element_wise(pa.scalar(salt), s, "")
        return t.append_column("__prio", hash_hex_column(s, "md5"))

    orig = list(ds.schema().names)
    out = grouped_topk(
        ds.map_batches(prio, batch_format="pyarrow"), group_col,
        [("__prio", "ascending"), (id_col, "ascending")], k)
    return out.map_batches(lambda t: t.select(orig),
                           batch_format="pyarrow")


def keyed_fraction_sample(
    ds: ray.data.Dataset,
    key_col: str,
    id_col: str,
    fractions_bp: dict,
    salt: str = "mix1",
    default_bp: int = 0,
) -> ray.data.Dataset:
    """Per-source mixture reweighting: keep each row with its KEY's
    fraction (basis points, exact) by the deterministic md5 bucket of
    its ID — the data-mixture downsampling step in front of training
    (e.g. keep 100% of books, 15% of web, 0% of a blocked source).

    Zero shuffle, zero state: the (tiny) fraction table rides the task
    closure and every row resolves map-side — partition-invariant and
    rerun-stable because the bucket depends only on ``(salt, id)``.
    Keys absent from ``fractions_bp`` fall back to ``default_bp``
    (0 = drop, the blocklist default). Null keys use ``default_bp``;
    null ids are dropped (no deterministic bucket).

    All columns pass through. Oracle shape: ``bucket(id) < bp(key)``
    with the shared md5 expression (see :func:`_bucket_of`).
    """
    for k, bp in fractions_bp.items():
        # integral basis points ONLY: int(0.15) == 0 would silently
        # turn "keep 15%" into a blocklist entry.
        if int(bp) != bp or not (0 <= int(bp) <= BUCKETS):
            raise ValueError(
                f"fraction for {k!r} must be INTEGRAL basis points in "
                f"[0, {BUCKETS}] (e.g. 15% = 1500), got {bp!r}")
    if int(default_bp) != default_bp or not (0 <= int(default_bp) <= BUCKETS):
        raise ValueError(
            f"default_bp must be integral basis points in [0, {BUCKETS}],"
            f" got {default_bp!r}")
    frac = {k: int(bp) for k, bp in fractions_bp.items()}
    dbp = int(default_bp)

    def keep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[id_col]))
        if not t.num_rows:
            return t
        t = t.combine_chunks()
        buckets = _bucket_of(t[id_col], salt)
        # vectorized key -> bp lookup (index_in against the tiny table;
        # unknown and null keys fall back to default_bp)
        kt = pa.array(list(frac.keys())).cast(t[key_col].type)
        bpt = pa.array([frac[k] for k in frac], pa.int64())
        idx = pc.index_in(t[key_col], value_set=kt)
        bps = pc.fill_null(pc.take(bpt, idx), dbp).to_numpy(
            zero_copy_only=False)
        return t.filter(pa.array(buckets < bps))

    return ds.map_batches(keep, batch_format="pyarrow")


def weighted_sample(
    ds: ray.data.Dataset,
    id_col: str,
    weight_col: str,
    k: int,
    salt: str = "",
) -> ray.data.Dataset:
    """Exactly-k deterministic WEIGHTED sample without replacement —
    the mixture draw (inclusion probability ∝ row weight: quality
    score, source multiplier, token count) behind curated training
    mixes. Efraimidis–Spirakis A-Res priorities: each row draws the
    md5-uniform u = (hash32(salt||id) + 1) / 2^32 ∈ (0, 1] and the
    sample is the k SMALLEST −ln(u)/w (equivalently the k largest
    u^(1/w); ties broken by id). Deterministic and partition-invariant
    like :func:`exact_sample`; changing ``salt`` redraws.

    Rows with null or non-positive weight are dropped (a zero-weight
    row must never be sampled; SQL mirrors with ``WHERE w > 0``).
    Engine/SQL float parity caveat: ln() is not required to be
    correctly rounded, so numpy and an SQL engine may differ by an ulp
    — a rank flip needs two priorities within that ulp, which the
    uniform hash makes vanishingly unlikely (and any such flip swaps
    only the boundary row).

    Scale shape: per-block top-k + one O(k × blocks)-row merge; the
    corpus never shuffles. Output: sampled rows, original columns.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    from konlsearch_ray.functions.stats import global_topk

    def prio(t: pa.Table) -> pa.Table:
        if "__prio" in t.schema.names:
            raise ValueError("column __prio collides with weighted_sample")
        t = t.filter(pc.and_(pc.is_valid(t[id_col]),
                             pc.fill_null(pc.greater(
                                 pc.cast(t[weight_col], pa.float64()), 0.0),
                                 False)))
        if not t.num_rows:
            return t.append_column("__prio", pa.array([], pa.float64()))
        t = t.combine_chunks()
        u = ((_hash32_of(t[id_col], salt).astype(np.float64) + 1.0)
             / 4294967296.0)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return t.append_column("__prio", pa.array(-np.log(u) / w))

    orig = list(ds.schema().names)
    out = global_topk(
        ds.map_batches(prio, batch_format="pyarrow"),
        [("__prio", "ascending"), (id_col, "ascending")], k)
    return out.map_batches(lambda t: t.select(orig),
                           batch_format="pyarrow")
