"""Pluggable stateful analyzer (SURVEY.md ST1/§2.10): the actor-pool
tokenizer loads per-worker state once and the index reflects morpheme ∪
whitespace-token semantics like the reference's mecab path
(reference index.py:98-102; golden behavior: compound 마법소녀 is findable
via 마법 and 소녀, test_konlsearch.py:191-213)."""

import pyarrow as pa
import pytest

from konlsearch_ray.analyzer import KoreanLexiconAnalyzer
from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.query import IndexReader

LEXICON = ["마법", "소녀", "모래", "특급", "특별", "건담"]

# partial over the library class pickles by value — a factory defined in
# this (non-importable) test module would strand the Ray workers.
import functools

_analyzer_factory = functools.partial(KoreanLexiconAnalyzer, LEXICON)


def test_lexicon_analyzer_unit():
    a = KoreanLexiconAnalyzer(LEXICON)
    assert a.tokenize_many(["마법소녀 returns"]) == [["마법소녀", "마법", "소녀", "returns"]]
    # Unsegmentable hangul → kept whole, no morpheme emission.
    assert a.tokenize_many(["함수세계"]) == [["함수세계"]]
    # Sanitize + case rules still apply.
    assert a.tokenize_many(["SEED! 마법소녀,"]) == [["seed", "마법소녀", "마법", "소녀"]]


def test_build_with_custom_analyzer(ray_session, tmp_path):
    docs = pa.table({
        "repo": pa.array(["r"] * 4),
        "path": pa.array([f"p{i}" for i in range(4)]),
        "commit": pa.array(["c" * 40] * 4),
        "lang": pa.array(["python"] * 4),
        "content": pa.array([
            "마법소녀 alpha beta",
            "마법 단독 doc",
            "소녀 단독 doc two",
            "plain ascii only",
        ], pa.large_string()),
    })
    src = str(tmp_path / "docs.parquet")
    import pyarrow.parquet as pq

    pq.write_table(docs, src)
    idx = str(tmp_path / "i")
    build_index(src, idx, IndexConfig(
        shard_size=2, analyzer_factory=_analyzer_factory))
    r = IndexReader(idx)
    # Compound doc matches both morphemes (reference mecab-union behavior).
    assert r.search(["마법"], "OR") == [1, 2]
    assert r.search(["소녀"], "OR") == [1, 3]
    assert r.search(["마법소녀"], "OR") == [1]
    assert r.search(["alpha", "마법"], "AND") == [1]


def test_bundled_lexicon_korean_morphology():
    """The bundled lexicon segments real Korean morphology: noun+josa,
    compounds, verb forms — greedy longest-match, full-or-nothing."""
    a = KoreanLexiconAnalyzer()  # bundled default
    assert a.tokenize_many(["마법을 봤다"])[0][:2] == ["마법을", "마법"]
    out = a.tokenize_many(["함수세계 검색은"])[0]
    assert out == ["함수세계", "함수", "세계", "검색은", "검색", "은"]
    # ASCII compounds segment with the same rule (identifier atoms).
    assert a.tokenize_many(["window table"])[0] == [
        "window", "win", "dow", "table", "ta", "ble"]
    # Whole-token lexicon hits add nothing; unsegmentable stays whole.
    assert a.tokenize_many(["scan stream"])[0] == ["scan", "stream"]


def test_morph_entry_matches_oracle(ray_session):
    """The end-to-end analyzer entry (build + query through the bundled
    lexicon) hash-matches its recursive-CTE DuckDB oracle."""
    import sys

    sys.path.insert(0, "tests")
    from entry_harness import run

    assert run("/root/testdata/sf0.001", only=["search_morph"]) == 0


def test_mecab_adapter_injected_backend(ray_session, tmp_path):
    """MecabMorphemeAnalyzer with a duck-typed backend: surface token
    followed by its morphemes when the split yields >= 2 pieces — the
    reference's mecab-union shape (index.py:98-102) in ordered form."""
    import ray.data

    from konlsearch_ray.analyzer import MecabMorphemeAnalyzer
    from konlsearch_ray.build import IndexConfig, build_index
    from konlsearch_ray.query import IndexReader

    class FakeMecab:
        def morphs(self, text):
            # Split camel-free compounds at a fixed point, like a tiny
            # morphological analyzer would.
            if text == "searchindex":
                return ["search", "index"]
            return [text]

    an = MecabMorphemeAnalyzer(backend=FakeMecab())
    assert an.tokenize_many(["searchindex plain"]) == [
        ["searchindex", "search", "index", "plain"]]

    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["searchindex here", "nothing else"]),
    })
    idx = str(tmp_path / "i")
    cfg = IndexConfig(content_col="text", id_col="doc_id", sort_keys=[],
                      shard_size=8,
                      analyzer_factory=lambda: MecabMorphemeAnalyzer(
                          backend=FakeMecab()))
    build_index(ray.data.from_arrow(t), idx, cfg)
    r = IndexReader(idx)
    # Findable by surface AND by morpheme.
    assert r.search(["searchindex"], "AND") == [1]
    assert r.search(["search", "index"], "AND") == [1]


def test_mecab_adapter_import_error_without_libs():
    from konlsearch_ray.analyzer import MecabMorphemeAnalyzer

    with pytest.raises(ImportError, match="KoreanLexiconAnalyzer"):
        MecabMorphemeAnalyzer()


def test_search_near_custom_analyzer(ray_session, tmp_path):
    """search_near with a custom analyzer: repeated calls return the
    same lists."""
    import pyarrow.parquet as pq

    docs = pa.table({
        "repo": pa.array(["r"] * 6),
        "path": pa.array([f"p{i}" for i in range(6)]),
        "commit": pa.array(["c" * 40] * 6),
        "lang": pa.array(["python"] * 6),
        "content": pa.array([
            "마법소녀 alpha beta",          # 마법..소녀 adjacent (compound)
            "마법 x y z 소녀",              # span 4
            "마법 close 소녀 tail",         # span 2
            "소녀 first then 마법",         # reversed, span 3
            "마법 only here",
            "소녀 only here",
        ], pa.large_string()),
    })
    src = str(tmp_path / "docs.parquet")
    pq.write_table(docs, src)
    idx = str(tmp_path / "i")
    build_index(src, idx, IndexConfig(
        shard_size=2, analyzer_factory=_analyzer_factory))
    r = IndexReader(idx)
    an = _analyzer_factory()
    golden2 = r.search_near(["마법", "소녀"], slop=2, analyzer=an)
    golden4 = r.search_near(["마법", "소녀"], slop=4, analyzer=an)
    ordered = r.search_near(["마법", "소녀"], slop=3, analyzer=an,
                            ordered=True)
    assert golden2 == [1, 3] and golden4 == [1, 2, 3, 4]
    assert ordered == [1, 3]
    assert r.search_near(["마법", "소녀"], slop=2, analyzer=an) == golden2
    assert r.search_near(["마법", "소녀"], slop=4, analyzer=an) == golden4
    assert r.search_near(["마법", "소녀"], slop=3, analyzer=an,
                         ordered=True) == ordered


def test_search_near_unserializable_analyzer(ray_session, tmp_path):
    """An analyzer holding a C-extension-like unpicklable resource (the
    mecab/Kiwi shape): search_near must accept it, not crash."""
    import threading

    import pyarrow.parquet as pq

    class LockedAnalyzer:
        """Greedy lexicon analyzer with an unpicklable member."""

        def __init__(self):
            self._lock = threading.Lock()  # cloudpickle refuses locks
            self._inner = _analyzer_factory()

        def tokenize_many(self, texts):
            with self._lock:
                return self._inner.tokenize_many(texts)

    docs = pa.table({
        "repo": pa.array(["r"] * 3),
        "path": pa.array([f"p{i}" for i in range(3)]),
        "commit": pa.array(["c" * 40] * 3),
        "lang": pa.array(["python"] * 3),
        "content": pa.array(["마법 x 소녀", "마법 far far far far 소녀",
                             "소녀 마법"], pa.large_string()),
    })
    src = str(tmp_path / "docs.parquet")
    pq.write_table(docs, src)
    idx = str(tmp_path / "i")
    build_index(src, idx, IndexConfig(
        shard_size=2, analyzer_factory=_analyzer_factory))
    r = IndexReader(idx)
    an = LockedAnalyzer()
    assert r.search_near(["마법", "소녀"], slop=2, analyzer=an) == [1, 3]
    # slop=1 keeps only the adjacent pair in doc 3.
    assert r.search_near(["마법", "소녀"], slop=1, analyzer=an) == [3]


def test_snippet_table_custom_analyzer_matches_bruteforce(ray_session,
                                                          tmp_path):
    """Snippets over a custom-analyzer index, given the same factory,
    are windows of that analyzer's own stream: the stored first
    positions count its morphemes, so the normative stream would cut
    them in the wrong place."""
    from konlsearch_ray.analyzer import tokenize
    from konlsearch_ray.corpus import write_corpus
    from konlsearch_ray.docstore import DocStore
    from konlsearch_ray.export import snippet_table

    idx = str(tmp_path / "i")
    build_index(write_corpus(str(tmp_path / "c"), 120, seed=7), idx,
                IndexConfig(shard_size=32,
                            analyzer_factory=KoreanLexiconAnalyzer))
    rows = DocStore(idx).get_all()
    texts = rows["content"].to_pylist()
    streams = dict(zip(rows["doc_id"].to_pylist(),
                       KoreanLexiconAnalyzer().tokenize_many(texts)))
    plain = dict(zip(rows["doc_id"].to_pylist(), map(tokenize, texts)))
    # Terms only the analyzer emits, and plain terms it moves.
    morphemes = sorted(set().union(*streams.values())
                       - set().union(*plain.values()))
    moved = sorted({t for d, toks in plain.items() for t in toks
                    if streams[d].index(t) != toks.index(t)})
    assert morphemes and moved
    width = 2
    for term in morphemes[:3] + moved[:3]:
        want = set()
        for d, toks in streams.items():
            if term in toks:
                fp = toks.index(term)
                want.add((d, fp + 1, " ".join(
                    toks[max(0, fp - width):fp + width + 1])))
        got = snippet_table(idx, term, width=width,
                            analyzer_factory=KoreanLexiconAnalyzer)
        got = got.to_pandas()
        assert set(zip(got["doc_id"], got["pos"], got["snippet"])) == want
