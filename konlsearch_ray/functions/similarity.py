"""Similarity search over an embedding column (``list<float>``).

Brute-force cosine top-k as the exact baseline: the (small) query matrix is
broadcast once with ``ray.put`` and every batch does one numpy matmul
against it — no shuffle at all. The scale path (`lsh_bucketed_pairs`)
buckets vectors by random-hyperplane LSH signs so the all-pairs step only
runs within buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def _matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    arr = batch[vec_col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(arr[0])
    return flat.reshape(-1, dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _grouped_topk_merge(parts_ds: ray.data.Dataset, k: int) -> pa.Table:
    """Merge per-block partial top-k tables INSIDE the Dataset: a per-qid
    grouped merge reduces k·blocks rows per query down to k before
    anything reaches the driver — the driver receives exactly k·Q rows,
    independent of block/cell count (the previous driver-side concat grew
    linearly with block count). Ordering/tie-break: cos desc, neighbor
    asc; output sorted (qid asc, rk asc), cos rounded to 4."""
    from konlsearch_ray.functions.blocks import keyed_fold, nonempty_blocks

    def merge(g: pa.Table) -> pa.Table:
        # Arrow-native (no pandas round-trip); metadata-free schema keeps
        # block formats uniform downstream.
        idx = np.lexsort((g["neighbor"].to_numpy(zero_copy_only=False),
                          -g["cos"].to_numpy(zero_copy_only=False)))[:k]
        sel = g.select(["qid", "neighbor", "cos"]).take(pa.array(idx))
        return sel.append_column(
            "rk", pa.array(np.arange(1, sel.num_rows + 1, dtype=np.int64))
        ).replace_schema_metadata(None)

    fallback = pa.table({"qid": pa.array([], pa.int64()),
                         "neighbor": pa.array([], pa.int64()),
                         "cos": pa.array([], pa.float64()),
                         "rk": pa.array([], pa.int64())})
    res = keyed_fold(nonempty_blocks(parts_ds, ("qid", "neighbor", "cos")),
                     "qid", merge, fallback=fallback).to_pandas()
    if not len(res):
        res = pd.DataFrame({"qid": pd.Series(dtype="int64"),
                            "neighbor": pd.Series(dtype="int64"),
                            "cos": pd.Series(dtype="float64"),
                            "rk": pd.Series(dtype="int64")})
    res = res.sort_values(["qid", "rk"], kind="stable").reset_index(drop=True)
    res["cos"] = res["cos"].round(4)
    return pa.Table.from_pandas(res, preserve_index=False)


def _gather_queries(
    ds: ray.data.Dataset, query_ids: list[int], id_col: str, vec_col: str,
) -> tuple[np.ndarray, np.ndarray]:
    """One filtered pass collecting the (small) query vectors, returned
    id-sorted and L2-normalized — the broadcast side of every ANN path."""
    qset = sorted(set(int(q) for q in query_ids))
    q_rows = ds.filter(expr=f"{id_col} in {qset}").to_pandas()
    q_ids = q_rows[id_col].to_numpy().astype(np.int64)
    q_mat = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in q_rows[vec_col]]))
    order = np.argsort(q_ids)
    return q_ids[order], q_mat[order]


def _emit_topk(out_q, out_n, out_s, qid: int, s: np.ndarray,
               nid: np.ndarray, k: int) -> None:
    """Append one query's partial top-k (self already masked OUT of s/nid
    — masking, not -inf poisoning, so a short candidate list can never
    surface the query as its own neighbor)."""
    if not len(s):
        return
    kk = min(k, len(s))
    top = (np.argpartition(-s, kk - 1)[:kk]
           if kk < len(s) else np.arange(len(s)))
    out_q.extend([qid] * len(top))
    out_n.extend(nid[top])
    out_s.extend(s[top])


def ann_topk(
    ds: ray.data.Dataset,
    query_ids: list[int],
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Exact cosine top-k neighbors (self excluded) for each query vector.

    Two passes: (1) stream once to collect the query vectors (a filter —
    cheap), broadcast them; (2) ``map_batches`` matmul producing per-batch
    partial top-k, reduced to k rows per query by a per-qid grouped merge
    IN the Dataset (the driver sees exactly k·Q rows regardless of block
    count). Ties broken by ascending neighbor id via lexsort.
    """
    q_ref = ray.put(_gather_queries(ds, query_ids, id_col, vec_col))

    def partial(batch: pa.Table) -> pa.Table:
        qi, qm = ray.get(q_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _normalize(_matrix(batch, vec_col))
        sims = qm @ m.T  # (nq, nb)
        out_q, out_n, out_s = [], [], []
        for i in range(len(qi)):
            not_self = ids != qi[i]
            _emit_topk(out_q, out_n, out_s, qi[i],
                       sims[i][not_self], ids[not_self], k)
        return pa.table(
            {"qid": pa.array(out_q, pa.int64()),
             "neighbor": pa.array(out_n, pa.int64()),
             "cos": pa.array(out_s, pa.float64())})

    return _grouped_topk_merge(
        ds.map_batches(partial, batch_format="pyarrow"), k)


def default_n_centroids(n_rows: int) -> int:
    """IVF sizing rule of thumb: ``~sqrt(N)`` cells, so probed work per
    query scales ``O(n_probe * sqrt(N))``. Clamped to [4, 4096] — above
    the cap the driver-sample Lloyd fit stops being the right tool; fit
    centroids with the distributed k-means (functions/clustering.py) and
    pass them explicitly instead."""
    return int(min(4096, max(4, round(np.sqrt(max(n_rows, 1))))))


def _resolve_centroids(ds, n_centroids, n_probe):
    if n_centroids is None:
        n_centroids = default_n_centroids(ds.count())
    if n_probe is None:
        # probe ~1/4 of the cells, at least 1 — the recall/compute knob
        n_probe = max(1, n_centroids // 4)
    return n_centroids, n_probe


def ivf_topk(
    ds: ray.data.Dataset,
    query_ids: list[int],
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_centroids: int | None = None,
    n_probe: int | None = None,
    seed: int = 13,
    lloyd_iters: int = 3,
) -> pa.Table:
    """IVF (inverted-file) approximate top-k — the scale path for ANN.

    Coarse quantizer: k-means centroids fitted on a driver-side sample
    (a few Lloyd iterations — centroids are tiny and broadcast via
    ``ray.put``). Every batch assigns its vectors to their nearest
    centroid and emits per-batch partial top-k only for vectors whose
    centroid is among each query's ``n_probe`` closest — so each batch
    does one matmul against the queries but scores only the probed
    subset. With ``n_probe == n_centroids`` results are exact (equal to
    ``ann_topk``); smaller ``n_probe`` trades recall for compute. At
    cluster scale the natural layout keys the dataset by centroid id so
    probing reads only ``n_probe/n_centroids`` of the blocks.

    ``n_centroids`` defaults to ``~sqrt(N)`` (``default_n_centroids``);
    ``n_probe`` defaults to a quarter of the cells.
    """
    n_centroids, n_probe = _resolve_centroids(ds, n_centroids, n_probe)
    q_ids, q_mat = _gather_queries(ds, query_ids, id_col, vec_col)
    cent = _fit_centroids(ds, vec_col, n_centroids, seed, lloyd_iters)
    # Queries probe their n_probe closest centroids.
    q_probe = np.argsort(-(q_mat @ cent.T), axis=1)[:, :n_probe]
    ref = ray.put((q_ids, q_mat, cent, q_probe))

    def partial(batch: pa.Table) -> pa.Table:
        qi, qm, ce, qp = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _normalize(_matrix(batch, vec_col))
        centroid_of = np.argmax(m @ ce.T, axis=1)
        sims = qm @ m.T
        out_q, out_n, out_s = [], [], []
        for i in range(len(qi)):
            probed = np.isin(centroid_of, qp[i]) & (ids != qi[i])
            _emit_topk(out_q, out_n, out_s, qi[i],
                       sims[i][probed], ids[probed], k)
        return pa.table(
            {"qid": pa.array(out_q, pa.int64()),
             "neighbor": pa.array(out_n, pa.int64()),
             "cos": pa.array(out_s, pa.float64())})

    return _grouped_topk_merge(
        ds.map_batches(partial, batch_format="pyarrow"), k)


@ray.remote
def _block_pair_cos(
    ta: pa.Table, tb: pa.Table, same: bool, tau: float,
    id_col: str, vec_col: str,
) -> pa.Table:
    ids_a = ta[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ids_b = tb[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ma = _normalize(_matrix(ta, vec_col))
    mb = ma if same else _normalize(_matrix(tb, vec_col))
    sims = ma @ mb.T
    rows, cols = np.nonzero(sims >= tau)
    if same:
        tri = rows < cols  # upper triangle once; diagonal (self) dropped
        rows, cols = rows[tri], cols[tri]
    a, b = ids_a[rows], ids_b[cols]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = lo < hi  # orients each cross-block pair; drops equal ids
    return pa.table({"a": pa.array(lo[keep]), "b": pa.array(hi[keep])})


def _fit_centroids(
    ds: ray.data.Dataset, vec_col: str, n_centroids: int, seed: int,
    lloyd_iters: int,
) -> np.ndarray:
    """Deterministic k-means on a driver-side sample (centroids are tiny
    and broadcast; the sample is bounded at max(4096, 16 per centroid),
    capped at 64k rows — past that, fit with the distributed k-means)."""
    cap = min(65_536, max(4096, 16 * n_centroids))
    sample = ds.random_sample(
        min(1.0, cap / max(ds.count(), 1)), seed=seed).to_pandas()
    smat = _normalize(np.stack(
        [np.asarray(v, np.float64) for v in sample[vec_col]]))
    rng = np.random.default_rng(seed)
    n_centroids = min(n_centroids, len(smat))
    cent = smat[rng.choice(len(smat), size=n_centroids, replace=False)]
    for _ in range(lloyd_iters):
        assign = np.argmax(smat @ cent.T, axis=1)
        for c in range(n_centroids):
            members = smat[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def build_ivf_store(
    ds: ray.data.Dataset,
    out_dir: str,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_centroids: int | None = None,
    seed: int = 13,
    lloyd_iters: int = 3,
) -> dict:
    """Materialize the IVF cluster layout: embeddings written as Parquet
    PARTITIONED BY nearest-centroid cell (``cell=K/``), plus the centroid
    matrix. This is the physical realization of the ivf_topk docstring's
    scale path — a query probing ``n_probe`` cells then READS only
    ``n_probe/n_centroids`` of the data (partition pruning), instead of
    filtering every batch post-read. ``n_centroids`` defaults to
    ``~sqrt(N)`` (``default_n_centroids``)."""
    import json
    import os

    if n_centroids is None:
        n_centroids = default_n_centroids(ds.count())
    cent = _fit_centroids(ds, vec_col, n_centroids, seed, lloyd_iters)
    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        ce = ray.get(cent_ref)
        m = _normalize(_matrix(batch, vec_col))
        cell = np.argmax(m @ ce.T, axis=1).astype(np.int64)
        return pa.table({
            id_col: batch[id_col].cast(pa.int64()),
            vec_col: batch[vec_col],
            "cell": pa.array(cell),
        })

    os.makedirs(out_dir, exist_ok=True)
    (ds.select_columns([id_col, vec_col])
     .map_batches(assign, batch_format="pyarrow")
     .write_parquet(out_dir, partition_cols=["cell"]))
    np.save(os.path.join(out_dir, "centroids.npy"), cent)
    meta = {"n_centroids": int(len(cent)), "dim": int(cent.shape[1]),
            "id_col": id_col, "vec_col": vec_col, "version": 1}
    with open(os.path.join(out_dir, "ivf_meta.json"), "w") as f:
        json.dump(meta, f, sort_keys=True)
    return meta


@ray.remote
def _cell_topk(
    files: list[str], q_ids: np.ndarray, q_mat: np.ndarray, k: int,
    id_col: str, vec_col: str,
) -> pa.Table:
    import pyarrow.parquet as pq

    t = pa.concat_tables(
        pq.read_table(f, columns=[id_col, vec_col], use_threads=False)
        for f in files)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    m = _normalize(_matrix(t, vec_col))
    sims = q_mat @ m.T
    out_q, out_n, out_s = [], [], []
    for i in range(len(q_ids)):
        not_self = ids != q_ids[i]
        _emit_topk(out_q, out_n, out_s, q_ids[i],
                   sims[i][not_self], ids[not_self], k)
    return pa.table({"qid": pa.array(out_q, pa.int64()),
                     "neighbor": pa.array(out_n, pa.int64()),
                     "cos": pa.array(out_s, pa.float64())})


def ivf_store_topk(
    store_dir: str,
    q_ids: np.ndarray,
    q_mat: np.ndarray,
    k: int = 10,
    n_probe: int = 4,
) -> pa.Table:
    """Top-k over the partitioned IVF store: each query probes its
    ``n_probe`` nearest cells and only those PARTITIONS are read (one
    task per touched cell, scoring just the queries probing it; the
    k-rows-per-query-per-cell partials reduce through a per-qid grouped
    Dataset merge, so the driver receives exactly k rows per query).
    With ``n_probe == n_centroids`` results equal the exact brute force,
    same tie-break (cos desc, neighbor asc)."""
    import json
    import os

    with open(os.path.join(store_dir, "ivf_meta.json")) as f:
        meta = json.load(f)
    cent = np.load(os.path.join(store_dir, "centroids.npy"))
    q_mat = _normalize(np.asarray(q_mat, dtype=np.float64))
    q_ids = np.asarray(q_ids, dtype=np.int64)
    order = np.argsort(q_ids)
    q_ids, q_mat = q_ids[order], q_mat[order]
    n_probe = min(n_probe, len(cent))
    probes = np.argsort(-(q_mat @ cent.T), axis=1)[:, :n_probe]

    futs = []
    for cell in np.unique(probes):
        d = os.path.join(store_dir, f"cell={int(cell)}")
        if not os.path.isdir(d):
            continue
        files = [os.path.join(d, n) for n in sorted(os.listdir(d))
                 if n.endswith(".parquet")]
        mask = (probes == cell).any(axis=1)
        futs.append(_cell_topk.remote(
            files, q_ids[mask], q_mat[mask], k,
            meta["id_col"], meta["vec_col"]))
    if not futs:
        return _grouped_topk_merge(ray.data.from_arrow(pa.table(
            {"qid": pa.array([], pa.int64()),
             "neighbor": pa.array([], pa.int64()),
             "cos": pa.array([], pa.float64())})), k)
    # Cell partials stay in the object store (refs only) and reduce
    # through the same per-qid grouped merge as the streaming paths.
    return _grouped_topk_merge(ray.data.from_arrow_refs(futs), k)


def cosine_pairs(
    ds: ray.data.Dataset,
    tau: float,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Exact all-pairs cosine ≥ tau (a < b) as a blocked self-join.

    The dataset's blocks pair up (i ≤ j); one task per block pair loads
    exactly two blocks from the object store and emits its qualifying
    pairs. The driver holds only block refs — no full-table
    materialization anywhere — and per-task memory is two blocks, so the
    exact O(N²/2) similarity join distributes over B(B+1)/2 tasks on any
    cluster size. A pair spanning two blocks is emitted exactly once
    (its block pair), within-block pairs once via the diagonal task.
    ``lsh_bucketed_pairs`` is the subquadratic approximate path.
    """
    light = ds.select_columns([id_col, vec_col])
    refs = []
    for bundle in light.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
    futs = [
        _block_pair_cos.remote(refs[i], refs[j], i == j, tau, id_col, vec_col)
        for i in range(len(refs)) for j in range(i, len(refs))
    ]
    if not futs:
        return ray.data.from_arrow(
            pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64())}))
    return ray.data.from_arrow_refs(futs)


def lsh_bucketed_pairs(
    ds: ray.data.Dataset,
    tau: float,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_planes: int = 8,
    n_tables: int = 1,
    seed: int = 11,
) -> ray.data.Dataset:
    """Scale path: random-hyperplane sign buckets → within-bucket exact
    cosine. Approximate — a pair whose vectors straddle a plane in EVERY
    table is missed; per-table collision probability for angle θ is
    (1-θ/π)^n_planes, so recall = 1-(1-p)^n_tables rises quickly with
    ``n_tables`` (OR-amplification). The all-to-all is one
    groupby(table, bucket); a pair found in several tables dedups in the
    final (a, b) fold."""
    head = ds.take(1)
    if not head:  # empty corpus → empty pair table, like cosine_pairs
        return ray.data.from_arrow(
            pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64())}))
    dim = len(head[0][vec_col])
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(n_tables, n_planes, dim))
    planes_ref = ray.put(planes)

    def bucketize(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        m = _matrix(batch, vec_col)
        parts = []
        for t in range(pl.shape[0]):
            signs = (m @ pl[t].T) > 0
            bucket = signs @ (1 << np.arange(n_planes))
            parts.append(pa.table(
                {id_col: batch[id_col].cast(pa.int64()),
                 vec_col: batch[vec_col],
                 "table": pa.array(np.full(len(m), t, np.int64)),
                 "bucket": pa.array(bucket.astype(np.int64))}))
        return pa.concat_tables(parts)

    no_pairs = pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64())})

    def within(g: pd.DataFrame) -> pd.DataFrame | pa.Table:
        ids = g[id_col].to_numpy().astype(np.int64)
        if len(ids) < 2:
            return no_pairs
        m = _normalize(np.stack([np.asarray(v, np.float64) for v in g[vec_col]]))
        sims = m @ m.T
        rows, cols = np.nonzero(sims >= tau)
        a, b = ids[rows], ids[cols]
        keep = a < b
        return pd.DataFrame({"a": a[keep], "b": b[keep]})

    from konlsearch_ray.functions.blocks import keyed_fold, keyed_int_fold

    pairs = keyed_fold(ds.map_batches(bucketize, batch_format="pyarrow"),
                       ["table", "bucket"], within, fallback=no_pairs,
                       batch_format="pandas")
    return keyed_int_fold(pairs, ["a", "b"], {})


def embedding_pca(
    ds: ray.data.Dataset,
    id_col: str,
    vec_col: str,
    k: int,
) -> ray.data.Dataset:
    """Distributed PCA projection of an embedding column — the
    dimensionality reduction in front of clustering / ANN / near-dup
    when the raw dimension is wasteful.

    Scale shape: each block collapses to ONE moment row — ``(n, Σv,
    MᵀM)``, d + d² floats regardless of row count — so the driver
    folds O(blocks) tiny partials into the d×d covariance (d is the
    embedding dim, never N), takes the top-``k`` eigenvectors with
    ``np.linalg.eigh``, and broadcasts the (mean, components) pair back
    through a single vectorized projection pass. The corpus streams
    twice and never shuffles; driver state is O(d²).

    Determinism: eigenvector SIGNS are pinned (largest-|entry|
    positive) so reruns and different partitionings agree up to float
    summation order of the partials. Rows with a null id or vector are
    dropped. Output: ``id_col``, ``proj`` (list<double>, length k).
    """
    import ray as _ray

    from konlsearch_ray.functions.blocks import nonempty_refs

    def moments(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t[id_col]), pc.is_valid(t[vec_col]))
        t = t.filter(mask)
        if not t.num_rows:
            return pa.table({"n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.list_(pa.float64())),
                             "ss": pa.array([], pa.list_(pa.float64()))})
        m = _matrix(t, vec_col)
        return pa.table({
            "n": pa.array([m.shape[0]], pa.int64()),
            "s": pa.array([m.sum(axis=0)], pa.list_(pa.float64())),
            "ss": pa.array([(m.T @ m).ravel()], pa.list_(pa.float64())),
        })

    from konlsearch_ray.functions.blocks import arrow_schema

    ityp = arrow_schema(ds).field(id_col).type
    refs, rows = nonempty_refs(ds.map_batches(moments,
                                              batch_format="pyarrow"))
    out_schema = pa.schema([(id_col, ityp),
                            ("proj", pa.list_(pa.float64()))])
    if not rows:
        return ray.data.from_arrow(out_schema.empty_table())
    mt = pa.concat_tables(_ray.get(refs))
    n = int(pc.sum(mt["n"]).as_py())
    s_rows = np.vstack(
        [np.asarray(x, dtype=np.float64) for x in mt["s"].to_pylist()])
    ss_rows = np.vstack(
        [np.asarray(x, dtype=np.float64) for x in mt["ss"].to_pylist()])
    d = s_rows.shape[1]
    if not (1 <= k <= d):
        raise ValueError(f"need 1 <= k <= dim ({d}), got {k}")
    mean = s_rows.sum(axis=0) / n
    cov = ss_rows.sum(axis=0).reshape(d, d) / n - np.outer(mean, mean)
    w, v = np.linalg.eigh((cov + cov.T) / 2.0)  # symmetrize float noise
    comp = v[:, np.argsort(-w)[:k]]             # d × k, top variance first
    # pin signs: the largest-|entry| coordinate of each component is
    # positive (eigh's sign is arbitrary and run-dependent otherwise)
    flip = np.sign(comp[np.abs(comp).argmax(axis=0),
                        np.arange(comp.shape[1])])
    flip[flip == 0] = 1.0
    comp = comp * flip
    ref = _ray.put((mean, comp))

    def project(t: pa.Table) -> pa.Table:
        mean_b, comp_b = _ray.get(ref)
        mask = pc.and_(pc.is_valid(t[id_col]), pc.is_valid(t[vec_col]))
        t = t.filter(mask)
        if not t.num_rows:
            return out_schema.empty_table()
        m = _matrix(t, vec_col)
        proj = (m - mean_b) @ comp_b
        return pa.table({
            id_col: t[id_col],  # caller's id type passes through
            "proj": pa.array(list(proj), pa.list_(pa.float64())),
        })

    return ds.map_batches(project, batch_format="pyarrow")
