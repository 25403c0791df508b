"""Edit-distance-1 string pair mining (fuzzy vocabulary dedup).

The spell-variant / near-token discovery shape behind query correction,
OCR-noise dedup and vocabulary normalization: find every unordered pair
of distinct strings at Levenshtein distance exactly 1, WITHOUT the
all-pairs join.

Blocking is the FastSS deletion neighborhood (Bocek et al. 2007, public
algorithm): two strings are within edit distance 1 **iff** their
deletion-1 neighborhoods (each string plus every single-character
deletion of it) intersect —

- substitution at position i: both share the variant with position i
  deleted;
- insertion/deletion: the shorter string IS a deletion variant of the
  longer;
- the neighborhood contains the string itself, so equal strings also
  collide (they are filtered: pairs are of distinct strings).

So candidate generation is one ``groupby`` on the variant string — the
exchange moves O(vocabulary x mean-length) variant rows, never term
pairs — and a vectorized EXACT ed==1 verification (pure integer
codepoint comparisons, no libm, so any engine agrees bit-for-bit)
removes the false positives the blocking admits (e.g. "ab"/"ba" share
variants but have distance 2).

Scale notes: the input should be a VOCABULARY (e.g. the distinct-term
dictionary), not the raw corpus. A pathologically hot variant bucket
(many terms sharing one deletion) costs m^2 candidate rows for that
bucket; ``max_bucket`` optionally drops such buckets (documented recall
trade, same pattern as the stop-shingle df cap in
``dedup.ngram_jaccard_pairs``) — leave it None for the exact,
oracle-comparable configuration.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from konlsearch_ray.functions.blocks import keyed_fold, nonempty_blocks

_PAIR_FALLBACK = pa.table({"a": pa.array([], pa.string()),
                           "b": pa.array([], pa.string())})


def _codepoint_matrix(strs: np.ndarray, width: int) -> np.ndarray:
    """(n, width) uint32 codepoint matrix of a numpy "U" array —
    trailing zeros pad (zero never appears in real tokens)."""
    u = strs.astype(f"U{width}")
    return u.view(np.uint32).reshape(len(u), width)


def _ed1_mask(a, b) -> np.ndarray:
    """Exact vectorized ``levenshtein(a_i, b_i) == 1`` for paired
    DISTINCT strings: equal lengths → exactly one mismatching position;
    lengths differing by 1 → deleting the first-mismatch character of
    the longer yields the shorter. Pure integer comparisons."""
    n = len(a)
    if not n:
        return np.zeros(0, dtype=bool)
    au = np.asarray(a, dtype="U")
    bu = np.asarray(b, dtype="U")
    la = np.char.str_len(au).astype(np.int64)
    lb = np.char.str_len(bu).astype(np.int64)
    w = int(max(la.max(), lb.max())) + 1
    am = _codepoint_matrix(au, w)
    bm = _codepoint_matrix(bu, w)
    out = np.zeros(n, dtype=bool)

    same = la == lb
    if same.any():
        mism = (am[same] != bm[same]).sum(axis=1)
        out[np.flatnonzero(same)] = mism == 1

    diff1 = np.abs(la - lb) == 1
    if diff1.any():
        rows = np.flatnonzero(diff1)
        swap = la[rows] > lb[rows]  # S = shorter, T = longer
        S = np.where(swap[:, None], bm[rows], am[rows])
        T = np.where(swap[:, None], am[rows], bm[rows])
        neq = S != T
        # first mismatch ALWAYS exists at index <= len(short) <= w - 2
        # (if S is a prefix of T, S's zero-pad mismatches T's extra
        # char there).
        k = neq.argmax(axis=1)
        # after deleting T[k], the tails must agree: S[j] == T[j+1]
        # for all j >= k.
        eq_shift = S[:, : w - 1] == T[:, 1:]
        suffix_all = np.flip(
            np.logical_and.accumulate(np.flip(eq_shift, axis=1), axis=1),
            axis=1)
        out[rows] = suffix_all[np.arange(len(rows)), np.minimum(k, w - 2)]
    return out


def _deletion_variants(terms: pa.Array) -> pa.Table:
    """(variant, term) rows: each distinct term plus all its
    single-character deletions — built column-at-a-time over the
    codepoint matrix (one O(n) pass per DELETED POSITION, never a
    per-term Python loop)."""
    tu = np.asarray(terms.to_numpy(zero_copy_only=False), dtype="U")
    if not len(tu):
        return pa.table({"variant": pa.array([], pa.string()),
                         "term": pa.array([], pa.string())})
    lens = np.char.str_len(tu).astype(np.int64)
    w = int(lens.max()) + 1
    mat = _codepoint_matrix(tu, w)
    var_parts = [tu]  # the term itself (covers insert/delete + equality)
    term_parts = [tu]
    for j in range(w - 1):
        rows = lens > j  # deleting position j only exists when len > j
        if not rows.any():
            break
        sub = np.concatenate(
            [mat[rows][:, :j], mat[rows][:, j + 1:],
             np.zeros((int(rows.sum()), 1), np.uint32)], axis=1)
        var_parts.append(sub.reshape(-1).view(f"U{w}"))
        term_parts.append(tu[rows])
    return pa.table({
        "variant": pa.array(np.concatenate(var_parts)),
        "term": pa.array(np.concatenate(term_parts)),
    })


def edit1_pairs(
    ds: ray.data.Dataset,
    term_col: str,
    max_bucket: int | None = None,
) -> ray.data.Dataset:
    """All unordered pairs of distinct strings in ``term_col`` at
    Levenshtein distance EXACTLY 1 (see module docstring for the
    blocking + verification design). Output: ``a``, ``b`` (string,
    ``a < b``), one row per pair.

    ``max_bucket``: optional stop-variant cap — variant buckets with
    more distinct terms are dropped (recall trade for pathological
    collisions); None = exact, the oracle-comparable configuration.
    Null terms are ignored.
    """

    def variants(t: pa.Table) -> pa.Table:
        terms = pc.unique(pc.drop_null(t[term_col]))
        return _deletion_variants(terms)

    def bucket_pairs(g: pa.Table) -> pa.Table:
        terms = pc.unique(g["term"].combine_chunks())
        m = len(terms)
        if m < 2 or (max_bucket is not None and m > max_bucket):
            return _PAIR_FALLBACK
        tu = np.sort(np.asarray(terms.to_numpy(zero_copy_only=False),
                                dtype="U"))
        i, j = np.triu_indices(m, k=1)
        return pa.table({"a": pa.array(tu[i]), "b": pa.array(tu[j])})

    def verify(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return _PAIR_FALLBACK
        t = t.combine_chunks()
        keep = _ed1_mask(t["a"].to_numpy(zero_copy_only=False),
                         t["b"].to_numpy(zero_copy_only=False))
        return t.filter(pa.array(keep)).select(["a", "b"])

    cand = keyed_fold(ds, "variant", bucket_pairs, partial=variants,
                      fallback=_PAIR_FALLBACK)
    # a pair can collide through several variants — dedupe BEFORE the
    # (more expensive) verification, moving distinct pairs only.
    distinct = keyed_fold(cand, ["a", "b"], lambda g: g[:1],
                          fallback=_PAIR_FALLBACK)
    out = distinct.map_batches(verify, batch_format="pyarrow")
    return nonempty_blocks(out, ("a", "b"), fallback=_PAIR_FALLBACK)
