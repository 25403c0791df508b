"""Deduplication pipelines: exact, n-gram Jaccard, MinHash+LSH, SimHash.

All Dataset-first. The wide steps are groupbys over content-derived keys
(hash / shingle / band / simhash-chunk); MinHash candidate verification is
a hash-partitioned join against the distributed shingle-set table — no
per-doc state ever lands on the driver. Scale notes per function
docstring.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from konlsearch_ray.analyzer import analyze_strings
from konlsearch_ray.functions.blocks import (arrow_schema, bucket_fold,
                                             default_join_partitions,
                                             key_codes, keyed_int_fold,
                                             nonempty_blocks,
                                             pinned_nonempty, runs)
from konlsearch_ray.functions.text import FP_MOD, _token_hashes
from konlsearch_ray.segment import binary_view


def _empty_pairs(*extra: tuple[str, pa.DataType]) -> pa.Table:
    """Typed empty (a, b[, ...]) result — returned directly whenever a
    join input has zero rows (Ray's hash join crashes on empty sides)."""
    cols = {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
    for name, typ in extra:
        cols[name] = pa.array([], typ)
    return pa.table(cols)


def _md5_batch(batch: pa.Table, content_col: str) -> pa.Table:
    from konlsearch_ray.build import hash_hex_column

    return batch.append_column(
        "h", hash_hex_column(batch[content_col], "md5"))


def exact_dedup_groups(
    ds: ray.data.Dataset, content_col: str, id_col: str
) -> ray.data.Dataset:
    """Exact dedup summary: content hash → surviving (min) id + group size.

    First-wins semantics match the reference's hash-dict dedup (reference
    index.py:299-305). One keyed fold on the hash — hash keys are
    uniform, so no skew handling needed.
    """
    hashed = ds.map_batches(
        _md5_batch, batch_format="pyarrow", fn_kwargs={"content_col": content_col}
    )
    return keyed_int_fold(
        hashed, "h", {"keep_id": "min", "n": "count"},
        lambda t: {"keep_id": t[id_col]},
        out={"h": pa.string(),
             "keep_id": arrow_schema(ds).field(id_col).type,
             "n": pa.int64()})


def _shingle_codes(batch: pa.Table, content_col: str, id_col: str, n: int):
    """Vectorized shingle core: per doc, the DISTINCT ordered n-gram code
    tuples of the kept token stream. Returns ``(ids, doc_row, code_cols,
    dictionary)`` where ``doc_row`` indexes the batch row of each
    distinct shingle and ``code_cols[j]`` is its j-th term code — no
    per-doc Python loop anywhere (the token stream factorizes once, the
    n-gram windows are shifted slices, dedup is one lexsort)."""
    from konlsearch_ray.analyzer import analyze_strings_coded

    doc_idx, codes, _pos, dictionary = analyze_strings_coded(batch[content_col])
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    m = len(doc_idx)
    empty = np.zeros(0, dtype=np.int64)
    if m < n:
        return ids, empty, [empty] * n, dictionary
    w = m - n + 1
    valid = np.ones(w, dtype=bool)
    for j in range(1, n):  # window stays inside one doc
        valid &= doc_idx[:w] == doc_idx[j:w + j]
    starts = np.flatnonzero(valid)
    if not len(starts):
        return ids, empty, [empty] * n, dictionary
    d = doc_idx[starts]
    cols = [codes[starts + j] for j in range(n)]
    order = np.lexsort(tuple(reversed(cols)) + (d,))
    d_s = d[order]
    cols_s = [c[order] for c in cols]
    first, _ = runs(d_s, *cols_s)
    return ids, d_s[first], [c[first] for c in cols_s], dictionary


def _shingle_batch(batch: pa.Table, content_col: str, id_col: str, n: int) -> pa.Table:
    """Per doc: distinct n-gram (token) shingles, exploded to (doc, shingle).

    The shingle strings build in ONE vectorized pass: dictionary take per
    window position + ``binary_join_element_wise`` — values identical to
    the per-doc ``" ".join`` they replace (the DuckDB oracle is unchanged
    and stays green)."""
    ids, d, cols, dictionary = _shingle_codes(batch, content_col, id_col, n)
    if not len(d):
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "shingle": pa.array([], pa.string())})
    parts = [pc.take(dictionary, pa.array(c.astype(np.int64))).cast(pa.string())
             for c in cols]
    sh = pc.binary_join_element_wise(*parts, " ")
    return pa.table({"doc_id": pa.array(ids[d], pa.int64()), "shingle": sh})


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    content_col: str,
    id_col: str,
    n: int = 3,
    tau: float = 0.5,
    max_shingle_df: int | None = None,
) -> ray.data.Dataset:
    """Exact n-gram-shingle Jaccard near-dup pairs (J ≥ tau, a < b).

    Exact because any pair with J > 0 shares ≥ 1 shingle, so candidate
    generation via groupby(shingle) has recall 1. Stages:
    shingle explode → groupby(shingle) pair emission → per-pair count fold
    (= |A∩B|) → J from broadcast per-doc set sizes.

    ``max_shingle_df`` is the stop-shingle guard for scale: a shingle
    whose group exceeds it emits NO pairs, clipping the O(df²) blow-up at
    the source. The cap is conservative, never wrong: capped shingles
    also drop out of the |A∩B| count, so the computed J only ever
    UNDERestimates — every emitted pair truly satisfies J ≥ tau (no
    false positives), and a pair can be missed only if its qualifying
    overlap consists entirely of stop-shingles (vanishing at J ≥ tau,
    where ≥ tau/(1+tau) of the union is shared). ``None`` (default) =
    exact, the oracle-comparable configuration.
    """
    # Pin the shingle table once: it feeds both the size aggregation and
    # pair emission (left lazy it would tokenize the corpus twice).
    shingles = nonempty_blocks(
        ds.map_batches(
            _shingle_batch, batch_format="pyarrow",
            fn_kwargs={"content_col": content_col, "id_col": id_col, "n": n}),
        ("doc_id", "shingle"))
    sizes_ds = keyed_int_fold(shingles, "doc_id", {"sz": "count"})
    pairs = _emit_pairs_bucketed(shingles, ["shingle"],
                                 cap=max_shingle_df)
    inter, inter_rows = pinned_nonempty(
        keyed_int_fold(pairs, ["a", "b"], {"inter": "count"}),
        ("a", "b", "inter"))
    if not inter_rows:  # no co-shingling pair anywhere: done, skip joins
        return ray.data.from_arrow(_empty_pairs())

    # Per-doc set sizes attach via hash joins (once per side) — the sizes
    # table is one row per doc and never lands on the driver.
    nparts = default_join_partitions()
    j = inter.join(sizes_ds, "inner", num_partitions=nparts,
                   on=("a",), right_on=("doc_id",)).rename_columns({"sz": "sz_a"})
    j, j_rows = pinned_nonempty(j, ("a", "b", "inter", "sz_a"))
    if not j_rows:
        return ray.data.from_arrow(_empty_pairs())
    j = j.join(sizes_ds, "inner", num_partitions=nparts,
               on=("b",), right_on=("doc_id",)).rename_columns({"sz": "sz_b"})

    def score(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        it = batch["inter"].to_numpy(zero_copy_only=False).astype(np.float64)
        sa = batch["sz_a"].to_numpy(zero_copy_only=False).astype(np.float64)
        sb = batch["sz_b"].to_numpy(zero_copy_only=False).astype(np.float64)
        jac = it / (sa + sb - it)
        keep = jac >= tau
        return pa.table(
            {"a": pa.array(a[keep].astype(np.int64)),
             "b": pa.array(b[keep].astype(np.int64))})

    # Empty join partitions bypass `score` and would surface with the
    # join schema — keep real (a, b) blocks only (typed empty fallback).
    return nonempty_blocks(j.map_batches(score, batch_format="pyarrow"),
                           ("a", "b"), fallback=_empty_pairs())


def _emit_pairs_bucketed(
    ds: ray.data.Dataset,
    group_cols: list[str],
    id_col: str = "doc_id",
    cap: int | None = None,
) -> ray.data.Dataset:
    """All within-group (a < b) id pairs, emitted with ONE vectorized
    call per hash BUCKET instead of one Python call per group.

    ``groupby(shingle).map_groups`` pays per-group slicing + a Python
    call for every distinct shingle / band key — billions of groups at
    corpus scale. Here groups route by their key columns
    (``blocks.bucket_fold``), and inside a bucket the pairs derive from
    one lexsort + run-length pass; the only Python-level loop is over
    DISTINCT GROUP SIZES (bounded by ``cap``), each iteration emitting
    every pair of every group of that size via a triangular index
    template. Group identity inside a bucket is exact (factorized
    columns), the hash only routes.

    ``cap``: groups larger than this emit nothing (the stop-shingle
    guard — same semantics as the per-group emitters this replaces).
    """
    def emit(g: pa.Table) -> pa.Table:
        codes_list = [key_codes(g[c])[0] for c in group_cols]
        docs = g[id_col].to_numpy().astype(np.int64)
        order = np.lexsort((docs,) + tuple(reversed(codes_list)))
        c_s = [c[order] for c in codes_list]
        # Drop duplicate (group, doc) rows so sizes count distinct docs.
        d_s = docs[order]
        keep, _ = runs(d_s, *c_s)
        d_s = d_s[keep]
        gstart, gsize = runs(*(c[keep] for c in c_s))
        ok = gsize >= 2
        if cap is not None:
            ok &= gsize <= cap
        out_a, out_b = [], []
        for s in np.unique(gsize[ok]):
            offs = gstart[ok & (gsize == s)]
            ti, tj = np.triu_indices(int(s), k=1)
            out_a.append(d_s[(offs[:, None] + ti[None, :]).ravel()])
            out_b.append(d_s[(offs[:, None] + tj[None, :]).ravel()])
        if not out_a:
            return _empty_pairs()
        return pa.table({"a": pa.array(np.concatenate(out_a), pa.int64()),
                         "b": pa.array(np.concatenate(out_b), pa.int64())})

    return bucket_fold(ds, group_cols, emit, fallback=_empty_pairs())


# --------------------------------------------------------------------------
# MinHash + LSH
# --------------------------------------------------------------------------

NUM_PERM = 64
BANDS = 16  # rows per band r = NUM_PERM // BANDS = 4


def _minhash_params(seed: int = 7):
    rng = np.random.default_rng(seed)
    M = int(FP_MOD)
    a = rng.integers(1, M, size=NUM_PERM, dtype=np.uint64)
    b = rng.integers(0, M, size=NUM_PERM, dtype=np.uint64)
    return a, b


# Polynomial combine base for shingle hashes (any odd constant < M works;
# order-sensitive so "a b c" and "c b a" hash differently).
_SHINGLE_BASE = np.uint64(1_000_003)


def _shingle_hash_sets(batch: pa.Table, content_col: str, id_col: str, n: int):
    """Per doc: the sorted-unique 31-bit hash set of its distinct ordered
    n-gram shingles — fully vectorized: per-TERM hashes compute once over
    the batch dictionary and combine per shingle with a rolling
    polynomial mod M31 (every product < 2^62, exact in uint64). The hash
    function is spec'd here (not an oracle surface): MinHash/Jaccard
    consumers only need a deterministic, well-mixed shingle→int map."""
    ids, d, cols, dictionary = _shingle_codes(batch, content_col, id_col, n)
    out_sets = [np.array([], dtype=np.uint64)] * len(ids)
    if len(d):
        tok_h = _token_hashes(
            dictionary.to_numpy(zero_copy_only=False)) if len(dictionary) \
            else np.zeros(0, np.uint64)
        h = np.zeros(len(d), dtype=np.uint64)
        for c in cols:
            h = (h * _SHINGLE_BASE + tok_h[c]) % FP_MOD
        order = np.lexsort((h, d))
        d_s, h_s = d[order], h[order]
        keep, _ = runs(d_s, h_s)  # collide-equal hashes dedup
        d_s, h_s = d_s[keep], h_s[keep]
        counts = np.bincount(d_s, minlength=len(ids))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for i in np.flatnonzero(counts):
            out_sets[i] = h_s[offsets[i]:offsets[i + 1]]
    return [(int(ids[i]), out_sets[i]) for i in range(len(ids))]


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    content_col: str,
    id_col: str,
    n: int = 3,
    tau: float = 0.5,
    seed: int = 7,
) -> ray.data.Dataset:
    """MinHash(64 perms) + LSH(16 bands × 4 rows) near-dup candidates,
    verified with exact shingle-hash Jaccard ≥ tau. Output: a, b, jacc.

    Scale shape end-to-end: signature computation is embarrassingly
    parallel; candidate generation shuffles once on the hash-uniform
    (band, key) bucket; verification joins candidates against the
    DISTRIBUTED per-doc shingle-set table with Ray's hash-partitioned
    join (once per pair side) — data moved is proportional to the
    candidate volume plus one pass over the set table, and nothing
    materializes on the driver.
    """
    a_p, b_p = _minhash_params(seed)
    M = FP_MOD
    r = NUM_PERM // BANDS
    empty_out = _empty_pairs(("jacc", pa.float64()))

    def to_sets(batch: pa.Table) -> pa.Table:
        rows = _shingle_hash_sets(batch, content_col, id_col, n)
        # Sets serialize to little-endian uint64 bytes: Acero hash joins
        # carry binary payloads but not nested list columns.
        return pa.table({
            "doc_id": pa.array([d for d, _ in rows], pa.int64()),
            "hs": pa.array([h.astype("<u8").tobytes() for _, h in rows],
                           pa.large_binary()),
        })

    # ONE tokenize + shingle-hash pass over the corpus: the pinned
    # per-doc set table feeds BOTH the signature stage (which decodes the
    # hash blobs zero-copy) and the verification joins. The previous
    # layout ran _shingle_hash_sets twice — once for signatures, once for
    # sets — doubling the dominant per-row cost.
    sets_ds, sets_rows = pinned_nonempty(
        ds.map_batches(to_sets, batch_format="pyarrow"), ("doc_id", "hs"))
    if not sets_rows:
        return ray.data.from_arrow(empty_out)

    def signatures(batch: pa.Table) -> pa.Table:
        """Whole-batch vectorized signatures over the DECODED set blobs:
        64 fixed permutation lanes, each ONE C pass over the batch's
        concatenated shingle-hash stream with ``np.minimum.reduceat`` at
        doc starts (arithmetic identical to the per-doc outer product
        this replaces). Band keys are the RAW r-value signature chunks
        carried as k0..k{r-1} columns — equal iff the chunk is equal,
        i.e. exactly the groups the per-(doc, band) blake2b hashing
        produced, with zero Python hash calls (and zero collision
        risk)."""
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "band": pa.array([], pa.int32()),
             **{f"k{j}": pa.array([], pa.int64()) for j in range(r)}})
        offs, data = binary_view(batch["hs"])
        lens = np.diff(offs) // 8  # whole uint64s per row
        docs_all = batch["doc_id"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        nz = lens > 0
        docs = docs_all[nz]
        if not len(docs):
            return empty
        # Rows concatenate contiguously in the data buffer; every offset
        # is 8-byte aligned (each value is whole uint64s).
        hs_all = np.frombuffer(data[offs[0]:offs[-1]], dtype="<u8")
        lens_nz = lens[nz]
        starts = np.concatenate(([0], np.cumsum(lens_nz)[:-1]))
        ndocs = len(docs)
        sigs = np.empty((ndocs, NUM_PERM), dtype=np.uint64)
        for j in range(NUM_PERM):
            v = ((a_p[j] * hs_all) % M + b_p[j]) % M  # < 2^62: exact
            sigs[:, j] = np.minimum.reduceat(v, starts)
        sig3 = sigs.reshape(ndocs, BANDS, r)
        cols = {
            "doc_id": pa.array(np.tile(docs, BANDS), pa.int64()),
            "band": pa.array(
                np.repeat(np.arange(BANDS, dtype=np.int32), ndocs)),
        }
        for j in range(r):
            cols[f"k{j}"] = pa.array(
                sig3[:, :, j].T.reshape(-1).astype(np.int64))
        return pa.table(cols)

    sig_ds = sets_ds.map_batches(signatures, batch_format="pyarrow")

    # A pair can share several bands — dedupe before the joins.
    cand = keyed_int_fold(
        _emit_pairs_bucketed(sig_ds, ["band"] + [f"k{j}" for j in range(r)]),
        ["a", "b"], {})

    # Exact-Jaccard verification WITHOUT driver state: the per-doc
    # shingle-hash sets stay a distributed Dataset, and candidates join
    # against it twice with Ray's hash-partitioned join (once per side).
    # Everything that moves is proportional to the candidate volume plus
    # one pass over the set table — no ``to_pandas``/``ray.put`` of
    # per-doc state, so the verify half scales like the bucket half.
    # Modest default partition count — join fixed costs grow with it;
    # size to data volume at cluster scale.
    nparts = default_join_partitions()
    # A side with ZERO rows must not reach the join at all (the empty
    # partition loses its schema inside the hash-shuffle aggregator) —
    # short-circuit instead.
    cand, cand_rows = pinned_nonempty(cand, ("a", "b"))
    if not cand_rows:
        return ray.data.from_arrow(empty_out)
    j = cand.join(sets_ds, "inner", num_partitions=nparts,
                  on=("a",), right_on=("doc_id",))
    j, j_rows = pinned_nonempty(j.rename_columns({"hs": "hs_a"}),
                                ("a", "b", "hs_a"))
    if not j_rows:
        return ray.data.from_arrow(empty_out)
    j = j.join(sets_ds, "inner", num_partitions=nparts,
               on=("b",), right_on=("doc_id",))
    j = j.rename_columns({"hs": "hs_b"})

    def verify(batch: pa.Table) -> pa.Table:
        """Vectorized exact-Jaccard verification over the whole batch of
        candidate pairs: both sides' set blobs view as ONE concatenated
        uint64 stream each (zero-copy from the Arrow binary buffer), and
        |A∩B| per pair falls out of a single sort over (pair, hash, side)
        — within a pair each side's hashes are unique and sorted, so an
        intersection element is exactly an adjacent duplicate (hash equal,
        side differing). No per-pair Python loop."""
        def flat(col) -> np.ndarray:
            offs, data = binary_view(col)
            return np.frombuffer(data[offs[0]:offs[-1]], dtype="<u8")

        npairs = batch.num_rows
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "jacc": pa.array([], pa.float64())})
        if not npairs:
            return empty
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        blen_a = pc.binary_length(batch["hs_a"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        blen_b = pc.binary_length(batch["hs_b"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        len_a, len_b = blen_a // 8, blen_b // 8
        flat_a, flat_b = flat(batch["hs_a"]), flat(batch["hs_b"])
        pair_of = np.concatenate([np.repeat(np.arange(npairs), len_a),
                                  np.repeat(np.arange(npairs), len_b)])
        hashes = np.concatenate([flat_a, flat_b]).astype(np.uint64)
        side = np.concatenate([np.zeros(len(flat_a), np.int8),
                               np.ones(len(flat_b), np.int8)])
        order = np.lexsort((side, hashes, pair_of))
        p_s, h_s, s_s = pair_of[order], hashes[order], side[order]
        if len(p_s) > 1:
            dup = ((p_s[1:] == p_s[:-1]) & (h_s[1:] == h_s[:-1])
                   & (s_s[1:] != s_s[:-1]))
            inter = np.bincount(p_s[1:][dup], minlength=npairs)
        else:
            inter = np.zeros(npairs, dtype=np.int64)
        union = len_a + len_b - inter
        jac = np.divide(inter, union, out=np.zeros(npairs, dtype=np.float64),
                        where=union > 0)
        keep = jac >= tau
        return pa.table(
            {"a": pa.array(a[keep]), "b": pa.array(b[keep]),
             "jacc": pa.array(np.round(jac[keep], 4), pa.float64())})

    return nonempty_blocks(j.map_batches(verify, batch_format="pyarrow"),
                           ("a", "b", "jacc"), fallback=empty_out)


# --------------------------------------------------------------------------
# SimHash
# --------------------------------------------------------------------------


def simhash64(ds: ray.data.Dataset, content_col: str, id_col: str) -> ray.data.Dataset:
    """64-bit SimHash per doc over (term, tf) — vectorized bit counting.

    The per-term 64-bit hash is the big-endian md5 prefix — md5 is
    DuckDB-expressible (``CAST('0x' || substr(md5(term), 1, 16) AS
    UBIGINT)``), which makes the whole pairs pipeline oracle-checkable
    end-to-end (the hash choice is otherwise arbitrary)."""

    def fn(batch: pa.Table) -> pa.Table:
        occ = analyze_strings(batch[content_col])
        doc_idx, terms = occ["doc_idx"], occ["term"]
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n_docs = batch.num_rows
        sums = np.zeros((n_docs, 64), dtype=np.int64)
        if len(terms):
            uniq, inv = np.unique(terms, return_inverse=True)
            h64 = np.array(
                [int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
                 for t in uniq], dtype=np.uint64)
            bits = np.unpackbits(
                h64[inv].view(np.uint8).reshape(-1, 8)[:, ::-1], axis=1, bitorder="little"
            ).astype(np.int64)  # (n_occ, 64), bit j of the hash
            signed = 2 * bits - 1
            np.add.at(sums, doc_idx, signed)
        bits_out = (sums > 0).astype(np.uint64)
        vals = (bits_out << np.arange(64, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
        return pa.table(
            {id_col: pa.array(ids), "simhash": pa.array(vals.astype(np.int64))})

    return ds.map_batches(fn, batch_format="pyarrow")


def simhash_pairs(
    ds: ray.data.Dataset, content_col: str, id_col: str,
    max_hamming: int = 3, approximate: bool = False,
) -> ray.data.Dataset:
    """Near-dup pairs with SimHash Hamming distance ≤ max_hamming.

    Candidate generation: split the 64-bit hash into 4 16-bit chunks —
    any pair within Hamming ≤ 3 agrees on ≥ 1 chunk (pigeonhole) —
    bucketed vectorized pair emission over (chunk, value) groups (one
    Python call per hash bucket, not per group), dedup via a keyed
    fold on (a, b), then hamming verification by joining the per-doc
    simhash table onto both pair sides and one vectorized
    xor + unpackbits popcount pass — the same join-verify scale shape
    as the MinHash pipeline.

    ``max_hamming > 3`` exceeds what the 4-chunk pigeonhole guarantees
    (4+ differing bits can land one per chunk, sharing no chunk value),
    so some qualifying pairs are silently missed; pass
    ``approximate=True`` to accept that chunk-conditioned recall
    explicitly — otherwise such a radius is refused rather than
    silently under-recalling.
    """
    if not 0 <= max_hamming <= 3 and not approximate:
        raise ValueError(
            f"max_hamming={max_hamming} exceeds the 4-chunk pigeonhole "
            f"guarantee (<= 3); pass approximate=True to accept "
            f"chunk-conditioned recall")
    sh = simhash64(ds, content_col, id_col)
    sh = nonempty_blocks(sh, (id_col, "simhash"))

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        doc_out, chunk_out, val_out = [], [], []
        for c in range(4):
            chunk = ((v >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64)
            doc_out.append(ids); chunk_out.append(np.full(len(ids), c, np.int64))
            val_out.append(chunk)
        return pa.table(
            {"doc_id": pa.array(np.concatenate(doc_out)),
             "chunk": pa.array(np.concatenate(chunk_out)),
             "val": pa.array(np.concatenate(val_out))})

    exploded = sh.map_batches(explode, batch_format="pyarrow")
    # A pair can match on several chunks — dedupe before the joins.
    cand = keyed_int_fold(_emit_pairs_bucketed(exploded, ["chunk", "val"]),
                          ["a", "b"], {})
    empty_out = _empty_pairs(("hamming", pa.int64()))
    cand, cand_rows = pinned_nonempty(cand, ("a", "b"))
    if not cand_rows:  # empty join sides crash the hash-shuffle join
        return ray.data.from_arrow(empty_out)
    nparts = default_join_partitions()
    j = cand.join(sh, "inner", num_partitions=nparts,
                  on=("a",), right_on=(id_col,))
    j, j_rows = pinned_nonempty(j.rename_columns({"simhash": "sim_a"}),
                                ("a", "b", "sim_a"))
    if not j_rows:
        return ray.data.from_arrow(empty_out)
    j = j.join(sh, "inner", num_partitions=nparts,
               on=("b",), right_on=(id_col,))
    j = j.rename_columns({"simhash": "sim_b"})

    def verify(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = (batch["sim_a"].to_numpy(zero_copy_only=False).astype(np.int64)
             ^ batch["sim_b"].to_numpy(zero_copy_only=False).astype(np.int64))
        ham = (np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1)
               .sum(axis=1).astype(np.int64) if len(x)
               else np.zeros(0, np.int64))
        keep = ham <= max_hamming
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep]),
                         "hamming": pa.array(ham[keep])})

    return nonempty_blocks(j.map_batches(verify, batch_format="pyarrow"),
                           ("a", "b", "hamming"), fallback=empty_out)


# --------------------------------------------------------------------------
# Duplicate clusters (connected components over the pair graph)
# --------------------------------------------------------------------------


def connected_components(
    pairs: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    max_iters: int = 50,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Connected components over a near-dup pair graph: every node that
    appears in ``pairs`` gets ``cluster_id`` = the MINIMUM id reachable
    from it. Output columns: ``doc_id``, ``cluster_id``.

    This is the stage that turns pair detection (ngram / MinHash /
    SimHash / cosine pairs) into actual duplicate CLUSTERS — the
    canonical corpus-dedup step: keep one representative per cluster
    (the row where ``cluster_id == doc_id``), drop the rest. Pair-greedy
    dropping (remove the b side of each pair) over-keeps when a
    non-minimal node has only larger neighbors — e.g. pairs (2,3),(1,3)
    keep {1, 2} greedily but form ONE cluster {1,2,3} here.

    Scale shape: distributed min-label propagation. Each round does
    (1) neighbor propagation — one hash join of the symmetric edge table
    against the label table, so every node offers its label to its
    neighbors — plus (2) pointer jumping — one label-table self-join so
    labels hop to their label's label — then one per-node min fold.
    Data moved per round is O(E + V) through hash-partitioned exchanges;
    pointer jumping makes chain-shaped clusters converge in O(log
    diameter) rounds instead of O(diameter). Convergence is detected
    with a driver-side scalar: the label-sum is strictly decreasing
    until the fixpoint (labels only ever decrease). Per-round label
    tables are pinned as block refs so no round re-executes its
    predecessors. Near-dup graphs have tiny components in practice;
    ``max_iters`` bounds adversarial inputs.
    """
    out_empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "cluster_id": pa.array([], pa.int64())})
    pairs, prows = pinned_nonempty(pairs, (a_col, b_col))
    if not prows:
        return ray.data.from_arrow(out_empty)
    nparts = num_partitions or max(
        2, min(8, int(ray.cluster_resources().get("CPU", 4))))

    def to_edges(t: pa.Table) -> pa.Table:
        a = t[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"u": pa.array(np.concatenate([a, b])),
                         "v": pa.array(np.concatenate([b, a]))})

    edges = nonempty_blocks(
        pairs.map_batches(to_edges, batch_format="pyarrow"), ("u", "v"))

    def to_labels(t: pa.Table) -> pa.Table:
        u = np.unique(t["u"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({"node": pa.array(u), "lab": pa.array(u)})

    def min_label(ds: ray.data.Dataset) -> ray.data.Dataset:
        return keyed_int_fold(ds, "node", {"lab": "min"},
                              out={"node": pa.int64(), "lab": pa.int64()})

    labels = min_label(edges.map_batches(to_labels, batch_format="pyarrow"))

    prev_sum = None
    for _ in range(max_iters):
        # (1) neighbor propagation: u offers lab(u) to v.
        nbr = (edges.join(labels, "inner", num_partitions=nparts,
                          on=("u",), right_on=("node",))
               .select_columns(["v", "lab"])
               .rename_columns({"v": "node"}))
        nbr, nbr_rows = pinned_nonempty(nbr, ("node", "lab"))
        # (2) pointer jump: node takes lab(lab(node)).
        jump = (labels.join(
                    labels.rename_columns({"node": "n2", "lab": "lab2"}),
                    "inner", num_partitions=nparts,
                    on=("lab",), right_on=("n2",))
                .select_columns(["node", "lab2"])
                .rename_columns({"lab2": "lab"}))
        jump, jump_rows = pinned_nonempty(jump, ("node", "lab"))
        # Union only the non-empty parts (an all-empty fallback block
        # would trigger per-iteration schema-mismatch log noise).
        merged = labels
        if nbr_rows:
            merged = merged.union(nbr)
        if jump_rows:
            merged = merged.union(jump)
        labels = min_label(merged)
        cur_sum = labels.sum("lab")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["node"].cast(pa.int64()),
                         "cluster_id": t["lab"].cast(pa.int64())})

    return nonempty_blocks(
        labels.map_batches(finish, batch_format="pyarrow"),
        ("doc_id", "cluster_id"), fallback=out_empty)
