"""Normative tokenizer spec + vectorized Arrow batch analyzer.

Semantics derive from the reference's sanitize/tokenize/is_indexable chain
(reference index.py:27, 98-127, 111-113 — see SURVEY.md §2.2):

1. **sanitize** — strip every character in ``SANITIZE_CHARS`` (the exact
   reference charset; note ``[ ; . ' + - =`` are NOT stripped).
2. **split** — on whitespace (the reference unions mecab morphemes with a
   whitespace split; the morpheme analyzer is a pluggable slot — this
   sandbox has no mecab/Kiwi, so the normative default is the deterministic
   whitespace path, which is what all goldens are computed against).
3. **keep** a token iff it fully matches ``[A-Za-z]+`` (then **lowercased**
   — a spec'd deviation from the case-preserving reference, per
   BASELINE.json's "lowercase/ASCII fallback for code tokens") or fully
   matches ``[가-힣]+`` (kept as-is).

Derived per-document quantities (new, spec'd — the reference stores tokens
as an unordered *set* (index.py:98-102) so tf/positions do not exist there):

- ``tf(term, doc)`` — occurrence count of *term* in the kept ordered stream.
- ``first_pos(term, doc)`` — 0-based index of the term's **first**
  occurrence in the kept ordered stream. This powers the PHRASE check,
  which replicates the reference's first-occurrence monotonicity quirk
  (reference index.py:443-444, utility.py:25-26 — SURVEY.md Q5).
- ``doc_len(doc)`` — total kept tokens (Σ tf), the BM25 ``dl``.

This module is the one path from text to postings:

- ``analyze_strings`` / ``analyze_strings_coded`` are the batch path from
  a string column to its kept occurrences (row, term, position): the
  chain above, vectorized in pyarrow.compute, or — given ``analyzer``,
  an object with ``tokenize_many(texts) -> list[list[str]]`` such as
  ``KoreanLexiconAnalyzer`` — that analyzer's streams flattened to the
  same shape. They are the one entry point for a pluggable analyzer:
  the build, snippets and the docstore's token reads all call them.
- ``group_postings`` turns an occurrence stream into per-(term, doc)
  postings in (term, doc) order, the grouping every segment is encoded
  from; ``analyze_batch`` is that grouping over one batch.

The row path (``tokenize``) is the single-process oracle used by tests
and must agree exactly with the batch path. The DuckDB oracle SQL in
``__ray_entry__`` re-derives the same spec with regexp_replace /
regexp_split_to_array / list_filter.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from konlsearch_ray.functions.blocks import runs

# Exact reference charset (reference index.py:27).
SANITIZE_CHARS = '@_!#$%^&*()<>?/\\|}{~:]",'
_SANITIZE_TABLE = str.maketrans("", "", SANITIZE_CHARS)
# Same class, escaped for RE2 (pyarrow) / DuckDB regexp.
SANITIZE_RE = r'[@_!#$%^&*()<>?/\\|}{~:\]",]'

ALPHA_RE = r"[A-Za-z]+"
HANGUL_RE = r"[가-힣]+"
_ALPHA = re.compile(ALPHA_RE)
_HANGUL = re.compile(HANGUL_RE)


def sanitize(text: str) -> str:
    """Strip the reference sanitize charset (reference index.py:111-113)."""
    return text.translate(_SANITIZE_TABLE)


def normalize_token(tok: str) -> str | None:
    """Keep-and-normalize one raw whitespace token, else None."""
    if _ALPHA.fullmatch(tok):
        return tok.lower()
    if _HANGUL.fullmatch(tok):
        return tok
    return None


def tokenize(text: str) -> list[str]:
    """Ordered kept-token stream of one document (single-process oracle path)."""
    out = []
    for raw in sanitize(text).split():
        t = normalize_token(raw)
        if t is not None:
            out.append(t)
    return out


def normalize_query_tokens(tokens: list[str]) -> list[str]:
    """Apply the same normalization to user query tokens.

    The reference passes raw caller tokens straight to the posting lookup
    (reference index.py:431-434); our spec normalizes them through the same
    analyzer so queries match what was indexed.
    """
    out = []
    for tok in tokens:
        t = normalize_token(sanitize(tok))
        if t is not None:
            out.append(t)
    return out


def _positions_in_runs(doc_idx: np.ndarray) -> np.ndarray:
    """Each occurrence's position in its doc's kept stream: its index
    within its run of equal ``doc_idx``. Requires NON-DECREASING doc_idx
    (row order, which every kept stream comes in)."""
    starts, lens = runs(doc_idx)
    return (np.arange(len(doc_idx)) - np.repeat(starts, lens)).astype(np.int32)


def _emit_morph_union(texts: list[str], morphs) -> list[list[str]]:
    """Shared ordered emission for the morpheme analyzers (reference
    index.py:98-102 shape, ``morphs(w) ∪ split`` as a stream): each
    normalized word followed by its segmentation when it decomposes."""
    out = []
    for text in texts:
        toks = []
        for raw in sanitize(text).split():
            t = normalize_token(raw)
            if t is None:
                continue
            toks.append(t)
            toks.extend(morphs(t))
        out.append(toks)
    return out


def _kept_tokens(col: pa.Array | pa.ChunkedArray,
                 analyzer=None) -> tuple[pa.Array, np.ndarray]:
    """The kept-token stream of a string column, in row then stream
    order: ``(terms, doc_idx)`` — a string array and each term's int64
    row. ``analyzer`` (``tokenize_many``) replaces the normative chain;
    a null row yields no token on either path."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if analyzer is not None:
        lists = analyzer.tokenize_many(
            [x if x is not None else "" for x in col.to_pylist()])
        lens = np.array([len(t) for t in lists], dtype=np.int64)
        return (pa.array([t for row in lists for t in row], pa.string()),
                np.repeat(np.arange(len(lists), dtype=np.int64), lens))
    sanitized = pc.replace_substring_regex(col, pattern=SANITIZE_RE, replacement="")
    toks = pc.utf8_split_whitespace(sanitized)
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    # One keep-class pass; lowercasing runs on the kept subset only and is
    # the identity on Hangul, so results equal the two-pass formulation.
    keep = pc.match_substring_regex(flat, f"^({ALPHA_RE}|{HANGUL_RE})$")
    kept_parent = pc.filter(parent, keep)
    return (pc.utf8_lower(pc.filter(flat, keep)),
            kept_parent.to_numpy(zero_copy_only=False).astype(np.int64))


def analyze_strings(col: pa.Array | pa.ChunkedArray,
                    analyzer=None) -> dict[str, np.ndarray]:
    """Vectorized analyzer over a string column (``analyzer``: see the
    module docstring; None = the normative chain).

    Returns flat numpy arrays describing every kept token occurrence:
    ``doc_idx`` (int64 index into the batch), ``term`` (object/str),
    ``pos`` (int32 position in the kept ordered stream of that doc).
    """
    terms, doc_idx = _kept_tokens(col, analyzer)
    return {
        "doc_idx": doc_idx,
        "term": terms.to_numpy(zero_copy_only=False),
        "pos": _positions_in_runs(doc_idx),
    }


def analyze_strings_coded(
    col: pa.Array | pa.ChunkedArray, analyzer=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, pa.Array]:
    """Like ``analyze_strings`` but terms come back factorized: returns
    ``(doc_idx, term_code int64, pos, dictionary)``. Factorization uses
    Arrow ``dictionary_encode`` (C) — an order of magnitude faster than
    ``np.unique`` over a Python-object string array, which dominated the
    tokenizer profile."""
    terms, doc_idx = _kept_tokens(col, analyzer)
    denc = terms.dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return doc_idx, codes, _positions_in_runs(doc_idx), denc.dictionary


class KoreanLexiconAnalyzer:
    """Bundled-lexicon morpheme analyzer — the pluggable slot (SURVEY.md ST1).

    The reference tokenizes with ``set(mecab.morphs(s)) | set(s.split())``
    (index.py:98-102): morphemes UNION whitespace tokens. mecab/Kiwi are
    not in this sandbox, so the normative stand-in is deterministic
    greedy longest-match segmentation over a lexicon (default: the
    bundled Korean morpheme + identifier-atom lexicon,
    data/lexicon.py): every kept token is emitted as-is, followed by its
    morphemes when the WHOLE token segments into ≥2 lexicon entries
    (greedy, full-or-nothing — the same rule the DuckDB oracle
    re-derives with a recursive CTE, so the analyzer is oracle-gated
    end-to-end). Applies to Hangul and ASCII tokens alike (compound
    identifiers segment the way compound nouns do). Memoized per worker;
    the lexicon is the per-worker state loaded once per actor in
    ``__init__`` — what ``IndexConfig(analyzer_factory=...)`` exists for.
    """

    def __init__(self, lexicon: list[str] | None = None):
        if lexicon is None:
            from konlsearch_ray.data.lexicon import DEFAULT_LEXICON

            lexicon = DEFAULT_LEXICON
        self.lexicon = set(lexicon)
        self.max_len = max((len(w) for w in lexicon), default=1)
        self._memo: dict[str, list[str]] = {}

    def _morphs(self, word: str) -> list[str]:
        hit = self._memo.get(word)
        if hit is not None:
            return hit
        out, i = [], 0
        while i < len(word):
            for ln in range(min(self.max_len, len(word) - i), 0, -1):
                if word[i:i + ln] in self.lexicon:
                    out.append(word[i:i + ln])
                    i += ln
                    break
            else:
                out = []  # not fully segmentable → no morpheme emission
                break
        if len(out) < 2:
            out = []  # single-morpheme segmentation adds nothing
        if len(self._memo) < 1_000_000:  # bounded per-worker cache
            self._memo[word] = out
        return out

    def tokenize_many(self, texts: list[str]) -> list[list[str]]:
        return _emit_morph_union(texts, self._morphs)


class MecabMorphemeAnalyzer:
    """Adapter for a REAL morphological analyzer — the reference's exact
    tokenizer shape (reference index.py:24, 98-102: tokens =
    ``set(mecab.morphs(s)) | set(s.split())``), expressed in this
    engine's ordered-stream form: every kept surface token is emitted
    as-is, followed by its morphemes when the analyzer splits it into
    ≥ 2 pieces (same emission rule as ``KoreanLexiconAnalyzer``, so the
    two are drop-in interchangeable via ``IndexConfig.analyzer_factory``).

    Import-guarded: requires one of the public Korean analyzers —
    ``python-mecab-ko`` (``mecab.MeCab()``, what the reference imports)
    or ``kiwipiepy`` (``Kiwi``). Neither ships in this sandbox, so tests
    cover the duck-typed injection path and the ImportError fallback;
    on a cluster with mecab installed the factory works unchanged:
    ``IndexConfig(analyzer_factory=MecabMorphemeAnalyzer)``.

    ``backend``: optional pre-built object exposing ``morphs(text) ->
    list[str]`` (dependency injection for tests / custom analyzers).
    """

    def __init__(self, backend=None):
        if backend is None:
            backend = self._load_backend()
        self._m = backend
        self._memo: dict[str, list[str]] = {}

    @staticmethod
    def _load_backend():
        try:
            import mecab  # python-mecab-ko

            return mecab.MeCab()
        except ImportError:
            pass
        try:
            from kiwipiepy import Kiwi

            kiwi = Kiwi()

            class _KiwiMorphs:  # adapt to the mecab.morphs() protocol
                def morphs(self, text: str) -> list[str]:
                    return [t.form for t in kiwi.tokenize(text)]

            return _KiwiMorphs()
        except ImportError:
            raise ImportError(
                "MecabMorphemeAnalyzer needs python-mecab-ko or kiwipiepy; "
                "neither is installed. Use KoreanLexiconAnalyzer (bundled) "
                "or pass a backend exposing morphs(text) -> list[str].")

    def _morphs(self, word: str) -> list[str]:
        hit = self._memo.get(word)
        if hit is not None:
            return hit
        out = list(self._m.morphs(word))
        if len(out) < 2:
            out = []  # single-morpheme segmentation adds nothing
        if len(self._memo) < 1_000_000:  # bounded per-worker cache
            self._memo[word] = out
        return out

    def tokenize_many(self, texts: list[str]) -> list[list[str]]:
        return _emit_morph_union(texts, self._morphs)


def group_postings(codes: np.ndarray, dictionary: pa.Array,
                   doc: np.ndarray, pos: np.ndarray):
    """A raw occurrence stream as per-(term, doc) postings in (term, doc)
    order — the grouping every segment is encoded from.

    Input: one row per kept occurrence — its term (``codes`` into
    ``dictionary``), ``doc`` id and ``pos``, positions ascending within
    each doc. One stable combined-key sort by (term rank, doc) orders the
    occurrences; its runs give each entry's tf (run length) and first_pos
    (run head: stability keeps positions ascending), the gaps of every
    later position, and each term's run of entries. Deterministic: the
    output depends only on the (doc, term, pos) content, not on how the
    stream was batched.

    Returns ``(terms, starts, lens, doc, tf, first_pos, pos_rest)``:
    one string per term in code-point order; each term's run of entries
    (``starts``/``lens``); per entry its doc, tf and first position
    (int64); and, entry after entry, its other ``tf - 1`` positions as
    gaps from the position before.
    """
    # Arrow sorts strings by UTF-8 bytes, which is code-point order, and
    # stably: no Python string is made.
    dict_idx = pc.sort_indices(dictionary)
    dict_order = dict_idx.to_numpy().astype(np.int64)
    rank_of_code = np.empty(len(dict_order), dtype=np.int64)
    rank_of_code[dict_order] = np.arange(len(dict_order))
    occ_rank = rank_of_code[codes]

    # Single combined-key stable sort by (term rank, doc): a build shard's
    # doc ids span at most shard_size, so rank * span + doc_offset fits
    # int64 with huge margin.
    base = doc.min() if len(doc) else 0
    span = int(doc.max()) - int(base) + 1 if len(doc) else 1
    if not len(occ_rank) or int(occ_rank.max()) < (1 << 62) // span:
        order = np.argsort(occ_rank * span + (doc - base), kind="stable")
    else:  # overflow-safe fallback (absurd doc-id spans)
        order = np.lexsort((doc, occ_rank))
    r_s, d_s, p_s = occ_rank[order], doc[order], pos[order]
    e_starts, tf = runs(r_s, d_s)
    head = np.zeros(len(r_s), dtype=bool)
    head[e_starts] = True
    # Every non-head occurrence, as a gap from the one before it.
    pos_rest = np.diff(p_s)[~head[1:]]
    rank_s = r_s[e_starts]
    starts, lens = runs(rank_s)
    terms = pc.take(dictionary, dict_idx).take(rank_s[starts])
    return (terms.cast(pa.string()), starts, lens, d_s[e_starts], tf,
            p_s[e_starts].astype(np.int64), pos_rest)


def analyze_batch(
    batch: pa.Table, content_col: str, id_col: str = "doc_id"
) -> pa.Table:
    """Batch → per-(term, doc) rows: doc_id, term, tf, first_pos.

    The normative analyzer, then the build's own grouping
    (``group_postings``), so the rows come out in a segment's
    (term, doc_id) order. Emits nothing per doc: ``doc_len`` is Σ tf
    per doc.
    """
    doc_idx, codes, pos, dictionary = analyze_strings_coded(batch[content_col])
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    terms, _, lens, doc, tf, first_pos, _ = group_postings(
        codes, dictionary, ids[doc_idx], pos)
    return pa.table({
        "doc_id": pa.array(doc, pa.int64()),
        "term": terms.take(pa.array(np.repeat(np.arange(len(lens)), lens))),
        "tf": pa.array(tf, pa.int32()),
        "first_pos": pa.array(first_pos, pa.int32()),
    })
