"""Prefix suggestions + per-prefix frequency top-k (trie/counter parity).

Replaces the reference's jamo-decomposed RocksDB trie (reference
trie.py:38-67, 139-154) and bounded per-prefix top-5 counter (reference
counter.py:41-90, trie.py:200-216 — SURVEY.md J5/A4/O3) with plain
relational shapes over the dictionary table: a prefix range filter and a
grouped top-k. The reference's bit-flipped count key encoding (counter.py:
96-105) is unnecessary — a (count desc, term asc) sort expresses it.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

TOP_K = 5  # the reference counter's bound (counter.py:12-18)

# --- Hangul jamo decomposition (reference trie.py:29-30 uses hgtk) --------
# Pure-arithmetic decomposition of precomposed syllables (U+AC00..U+D7A3)
# into compatibility jamo: 마법 → ㅁㅏㅂㅓㅂ. Non-Hangul chars pass through,
# so mixed/ASCII terms still get sensible prefixes.

_CHO = "ㄱㄲㄴㄷㄸㄹㅁㅂㅃㅅㅆㅇㅈㅉㅊㅋㅌㅍㅎ"
_JUNG = "ㅏㅐㅑㅒㅓㅔㅕㅖㅗㅘㅙㅚㅛㅜㅝㅞㅟㅠㅡㅢㅣ"
_JONG = ["", "ㄱ", "ㄲ", "ㄳ", "ㄴ", "ㄵ", "ㄶ", "ㄷ", "ㄹ", "ㄺ", "ㄻ", "ㄼ",
         "ㄽ", "ㄾ", "ㄿ", "ㅀ", "ㅁ", "ㅂ", "ㅄ", "ㅅ", "ㅆ", "ㅇ", "ㅈ",
         "ㅊ", "ㅋ", "ㅌ", "ㅍ", "ㅎ"]


def decompose_jamo(s: str) -> str:
    """Decompose Hangul syllables to compatibility jamo (trie key space).

    Equivalent role to the reference's ``hgtk.text.decompose`` minus its
    syllable terminator chars — prefix matching over the jamo stream is
    what the reference trie provides (trie.py:38-67), so ``마`` and even
    the partial ``ㅁ`` match tokens starting with 마법.
    """
    out = []
    for ch in s:
        o = ord(ch)
        if 0xAC00 <= o <= 0xD7A3:
            i = o - 0xAC00
            cho, rem = divmod(i, 21 * 28)
            jung, jong = divmod(rem, 28)
            out.append(_CHO[cho])
            out.append(_JUNG[jung])
            if jong:
                out.append(_JONG[jong])
        else:
            out.append(ch)
    return "".join(out)


_TRANS_TABLE: dict[int, str] | None = None


def _jamo_trans_table() -> dict[int, str]:
    """str.translate table for all 11,172 precomposed syllables — bulk
    decomposition runs as one C pass instead of per-char Python."""
    global _TRANS_TABLE
    if _TRANS_TABLE is None:
        _TRANS_TABLE = {
            0xAC00 + i: decompose_jamo(chr(0xAC00 + i)) for i in range(11172)}
    return _TRANS_TABLE


def decompose_jamo_bulk(terms) -> list[str]:
    """Decompose many terms at once: join → one ``str.translate`` over the
    concatenation → split. NUL never appears in kept tokens."""
    if len(terms) == 0:
        return []
    return "\x00".join(terms).translate(_jamo_trans_table()).split("\x00")


# --- precomputed suggestion key table (the trie equivalent) ---------------
# ``suggest/`` under the index dir: (jamo_key, term) sorted by jamo_key,
# written with small row groups so a prefix range scan prunes row groups
# via parquet min/max statistics — per-query cost tracks the match range,
# not the vocabulary (the relational analogue of the reference's
# RocksDB-trie prefix seek, trie.py:38-67).

SUGGEST_DIR = "suggest"


def build_suggest_table(index_dir: str) -> int:
    """Materialize the sorted (jamo_key, term) table from ``dictionary/``.
    Called at finalize; returns the number of terms."""
    import pyarrow.parquet as pq

    d = os.path.join(index_dir, "dictionary")
    files = [os.path.join(d, n) for n in (sorted(os.listdir(d))
                                          if os.path.isdir(d) else [])
             if n.endswith(".parquet")]
    if not files:
        return 0
    import shutil

    n_terms = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    out_dir = os.path.join(index_dir, SUGGEST_DIR)
    tmp_dir = out_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)

    def _swap() -> None:
        shutil.rmtree(out_dir, ignore_errors=True)
        os.replace(tmp_dir, out_dir)

    if n_terms <= 4_000_000:
        # Same small/huge split as the dictionary finalize: a driver
        # build is cheaper than a Ray sort pipeline for ≤ a few M terms.
        terms = pa.concat_tables(
            pq.read_table(f, columns=["term"]) for f in files)["term"]
        terms_py = terms.to_pylist()
        keys = decompose_jamo_bulk(terms_py)
        t = pa.table(
            {"jamo_key": pa.array(keys, pa.string()),
             "term": pa.array(terms_py, pa.string())}).sort_by("jamo_key")
        pq.write_table(t, os.path.join(tmp_dir, "keys.parquet"),
                       compression="zstd", row_group_size=4096)
        _swap()
        return t.num_rows
    # Huge-vocab path: distributed key computation + range-partitioned
    # sort; each output file carries jamo_key min/max stats for pruning.
    def add_key(t: pa.Table) -> pa.Table:
        terms_py = t["term"].to_pylist()
        return pa.table(
            {"jamo_key": pa.array(decompose_jamo_bulk(terms_py), pa.string()),
             "term": t["term"].cast(pa.string())})

    # Same small row groups as the driver path: _prefix_range_scan prunes
    # on jamo_key min/max PER ROW GROUP, so default (huge) groups would
    # make every prefix query scan near-full files exactly at the scale
    # where pruning matters.
    (ray.data.read_parquet(files, columns=["term"])
     .map_batches(add_key, batch_format="pyarrow")
     .sort("jamo_key")
     .write_parquet(tmp_dir, compression="zstd", row_group_size=4096))
    _swap()
    return n_terms


def _prefix_range_scan(index_dir: str, jamo_prefix: str) -> pa.Table:
    """Row-group-pruned range read [prefix, next(prefix)) over suggest/."""
    import pyarrow.dataset as pads

    out_dir = os.path.join(index_dir, SUGGEST_DIR)
    files = [os.path.join(out_dir, n) for n in sorted(os.listdir(out_dir))
             if n.endswith(".parquet")] if os.path.isdir(out_dir) else []
    if not files:
        return pa.table({"jamo_key": pa.array([], pa.string()),
                         "term": pa.array([], pa.string())})
    f = pads.field("jamo_key") >= jamo_prefix
    if jamo_prefix:
        hi = jamo_prefix[:-1] + chr(ord(jamo_prefix[-1]) + 1)
        f = f & (pads.field("jamo_key") < hi)
    return pads.dataset(files, format="parquet").to_table(filter=f)


def suggest_indexed(index_dir: str, prefix: str) -> pa.Table:
    """Term-prefix suggestions via the precomputed key table: jamo range
    scan prunes, an exact ``starts_with`` filter restores plain-prefix
    semantics (an ASCII term's jamo key is the term itself, so the scan
    range always covers every plain match). Sorted by term."""
    t = _prefix_range_scan(index_dir, decompose_jamo(prefix))
    t = t.filter(pc.starts_with(t["term"], prefix))
    return t.select(["term"]).sort_by("term")


def suggest_jamo_indexed(index_dir: str, prefix: str) -> pa.Table:
    """Jamo-prefix suggestions (reference trie semantics, J5) as a pure
    range scan over the sorted key table. Sorted by term."""
    t = _prefix_range_scan(index_dir, decompose_jamo(prefix))
    return t.select(["term"]).sort_by("term")


def suggest(dictionary: ray.data.Dataset, prefix: str) -> ray.data.Dataset:
    """Sorted terms with the given prefix (reference trie search semantics,
    sorted lexicographically like trie.py:41)."""
    hits = dictionary.map_batches(
        lambda t: t.filter(pc.starts_with(t["term"], prefix)),
        batch_format="pyarrow",
    )
    return hits.select_columns(["term"]).sort("term")


def suggest_jamo(dictionary: ray.data.Dataset, prefix: str) -> ray.data.Dataset:
    """Jamo-level prefix suggestions (reference trie semantics, J5):
    decompose every term and the query prefix to compatibility jamo and
    prefix-match there, so partial-syllable queries (``특``, ``ㅌ``)
    match ``특급``/``특별``; results sorted lexicographically by the
    original term (trie.py:41)."""
    q = decompose_jamo(prefix)

    def f(t: pa.Table) -> pa.Table:
        terms = t["term"].to_pylist()
        mask = pa.array([decompose_jamo(x).startswith(q) for x in terms])
        return t.filter(mask)

    return (dictionary.map_batches(f, batch_format="pyarrow")
            .select_columns(["term"]).sort("term"))


def topk_per_jamo_prefix(
    frequency: ray.data.Dataset,
    term_col: str = "term",
    count_col: str = "hits",
    k: int = TOP_K,
) -> ray.data.Dataset:
    """Reference A4 parity: for every jamo prefix of every term, the
    bounded top-k (term, count) by count desc / term asc — the
    flat-table form of trie.increase_frequency + KonlCounter (trie.py:
    207-216, counter.py:41-90). ``flat_map`` explodes term → its jamo
    prefixes; a grouped top-k replaces the evict-min counter."""

    def explode(t: pa.Table) -> pa.Table:
        """term → every jamo prefix, vectorized: one bulk decompose, one
        np.repeat fan-out, and all prefixes built at once by masking the
        fixed-width UCS4 codepoint matrix (trailing zeros terminate numpy
        "U" strings) — no per-term Python loop."""
        terms = t[term_col]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        counts = t[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = decompose_jamo_bulk(terms.to_pylist())
        empty = pa.table({"prefix": pa.array([], pa.string()),
                          "term": pa.array([], pa.string()),
                          "hits": pa.array([], pa.int64())})
        if not keys:
            return empty
        ku = np.asarray(keys, dtype="U")
        width = ku.dtype.itemsize // 4
        if width == 0:
            return empty
        lens = np.char.str_len(ku).astype(np.int64)
        rep = np.repeat(np.arange(len(ku), dtype=np.int64), lens)
        total = int(lens.sum())
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        plen = np.arange(total, dtype=np.int64) - np.repeat(starts, lens) + 1
        mat = ku.view(np.uint32).reshape(len(ku), width)
        rows = mat[rep] * (np.arange(width)[None, :] < plen[:, None])
        prefixes = rows.reshape(-1).view(f"U{width}")
        return pa.table({
            "prefix": pa.array(prefixes),
            "term": pc.take(terms, pa.array(rep)).cast(pa.string()),
            "hits": pa.array(counts[rep], pa.int64()),
        })

    def topk(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[("hits", "descending"),
                                            ("term", "ascending")])[:k]
        g = g.take(idx).select(["prefix", "term", "hits"])
        return g.append_column(
            "rk", pa.array(np.arange(1, g.num_rows + 1), pa.int64()))

    from konlsearch_ray.functions.blocks import keyed_fold

    return keyed_fold(frequency, "prefix", topk, partial=explode,
                      fallback=pa.table({"prefix": pa.array([], pa.string()),
                                         "term": pa.array([], pa.string()),
                                         "hits": pa.array([], pa.int64()),
                                         "rk": pa.array([], pa.int64())}))


def topk_per_prefix(
    dictionary: ray.data.Dataset, count_col: str = "df", k: int = TOP_K
) -> ray.data.Dataset:
    """Per first-character prefix: top-k terms by count desc, term asc,
    with rank — the reference's bounded per-prefix counter as a grouped
    top-k (evicting the min ≡ keeping the top-k)."""

    def add_prefix(t: pa.Table) -> pa.Table:
        return t.append_column("prefix", pc.utf8_slice_codeunits(t["term"], 0, 1))

    def topk(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[(count_col, "descending"),
                                            ("term", "ascending")])[:k]
        g = g.take(idx).select(["prefix", "term", count_col])
        return g.append_column(
            "rk", pa.array(np.arange(1, g.num_rows + 1), pa.int64()))

    from konlsearch_ray.functions.blocks import arrow_schema, keyed_fold

    sch = arrow_schema(dictionary)
    ttyp = sch.field("term").type
    fallback = pa.table({"prefix": pa.array([], ttyp),
                         "term": pa.array([], ttyp),
                         count_col: pa.array([], sch.field(count_col).type),
                         "rk": pa.array([], pa.int64())})
    return keyed_fold(dictionary, "prefix", topk, partial=add_prefix,
                      fallback=fallback)
