"""Index export / snippet surfaces (konlsearch_ray.export) vs brute force,
plus grouped_covar's exact-suffstat contract."""

import collections

import numpy as np
import pyarrow as pa
import pytest

from konlsearch_ray.analyzer import tokenize
from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.corpus import write_corpus
from konlsearch_ray.docstore import DocStore

N_DOCS = 240
SHARD_SIZE = 64


@pytest.fixture(scope="module")
def export_built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("konl_export")
    corpus_dir = write_corpus(str(root / "corpus"), N_DOCS, seed=11)
    index_dir = str(root / "index")
    build_index(corpus_dir, index_dir,
                IndexConfig(shard_size=SHARD_SIZE, tokenize_batch_size=64))
    store = DocStore(index_dir)
    all_rows = store.get_all()
    docs = dict(zip(all_rows["doc_id"].to_pylist(),
                    all_rows["content"].to_pylist()))
    return index_dir, docs


def brute_postings(docs: dict) -> dict:
    """(term, doc_id) -> tf, from re-tokenizing every doc."""
    out = {}
    for d, text in docs.items():
        for t, n in collections.Counter(tokenize(text)).items():
            out[(t, d)] = n
    return out


def test_export_postings_roundtrip(export_built):
    from konlsearch_ray.export import export_postings

    index_dir, docs = export_built
    got = export_postings(index_dir).to_pandas()
    truth = brute_postings(docs)
    assert len(got) == len(truth)
    for t, d, tf in zip(got["term"], got["doc_id"], got["tf"]):
        assert truth[(t, int(d))] == int(tf)


def test_export_postings_term_range(export_built):
    from konlsearch_ray.export import export_postings

    index_dir, docs = export_built
    got = export_postings(index_dir, term_start="m",
                          term_stop="s").to_pandas()
    assert ((got["term"] >= "m") & (got["term"] < "s")).all()
    truth = {k: v for k, v in brute_postings(docs).items()
             if "m" <= k[0] < "s"}
    assert len(got) == len(truth)
    for t, d, tf in zip(got["term"], got["doc_id"], got["tf"]):
        assert truth[(t, int(d))] == int(tf)


def test_export_postings_first_positions(export_built):
    from konlsearch_ray.export import export_postings

    index_dir, docs = export_built
    got = export_postings(index_dir, term_start="a", term_stop="d",
                          include_positions=True).to_pandas()
    assert len(got)
    for t, d, fp in zip(got["term"], got["doc_id"], got["first_pos"]):
        assert tokenize(docs[int(d)]).index(t) == int(fp)


def test_export_postings_respects_tombstones(export_built, tmp_path):
    import shutil

    from konlsearch_ray.export import export_postings
    from konlsearch_ray.tombstone import delete_docs

    index_dir, docs = export_built
    twin = str(tmp_path / "twin")
    shutil.copytree(index_dir, twin)
    dead = sorted(docs)[:5]
    delete_docs(twin, dead)
    got = export_postings(twin).to_pandas()
    assert not np.isin(got["doc_id"].to_numpy(), dead).any()
    truth = {k: v for k, v in brute_postings(docs).items()
             if k[1] not in set(dead)}
    assert len(got) == len(truth)


def test_snippet_table_matches_bruteforce(export_built):
    from konlsearch_ray.export import snippet_table

    index_dir, docs = export_built
    # A term with a healthy df: most frequent first token.
    counts = collections.Counter(
        t for text in docs.values() for t in set(tokenize(text)))
    term = counts.most_common(1)[0][0]
    width = 2
    got = snippet_table(index_dir, term, width=width).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    expect = {}
    for d, text in docs.items():
        toks = tokenize(text)
        if term in toks:
            p = toks.index(term)
            expect[d] = (p + 1,
                         " ".join(toks[max(0, p - width):p + width + 1]))
    assert sorted(expect) == got["doc_id"].tolist()
    for d, p1, sn in zip(got["doc_id"], got["pos"], got["snippet"]):
        assert expect[int(d)] == (int(p1), sn)


def test_snippet_table_cuts_its_blocks_on_the_driver(export_built,
                                                     monkeypatch):
    """A term in 128+ docs still runs no repartition: an upstream Ray
    task would wait forever for a CPU whenever the snippet actor pool
    holds every CPU, as its one actor does on a 1-CPU session."""
    import ray.data

    from konlsearch_ray.export import snippet_table

    index_dir, docs = export_built
    counts = collections.Counter(
        t for text in docs.values() for t in set(tokenize(text)))
    term, df = counts.most_common(1)[0]
    assert df >= 128

    def no_repartition(*_a, **_k):
        raise AssertionError("snippet_table ran a repartition")

    monkeypatch.setattr(ray.data.Dataset, "repartition", no_repartition)
    got = snippet_table(index_dir, term).to_pandas()
    assert sorted(got["doc_id"]) == sorted(
        d for d, text in docs.items() if term in tokenize(text))


def test_snippet_normalizes_query_term(export_built):
    from konlsearch_ray.export import snippet_table

    index_dir, docs = export_built
    counts = collections.Counter(
        t for text in docs.values() for t in set(tokenize(text)))
    term = counts.most_common(1)[0][0]
    lower = snippet_table(index_dir, term).to_pandas()
    upper = snippet_table(index_dir, term.upper()).to_pandas()
    assert len(lower) and lower.equals(upper)


def test_snippet_unknown_term_empty_with_schema(export_built):
    from konlsearch_ray.export import snippet_table

    index_dir, _docs = export_built
    out = snippet_table(index_dir, "zzqqxxnotaterm")
    df = out.to_pandas()
    assert len(df) == 0
    assert list(out.schema().names) == ["doc_id", "pos", "snippet"]


def _brute_mlt(docs: dict, src: int, n_terms: int, k: int):
    """Independent recompute of more_like_this: tf·idf term selection
    (term-asc tie-break) + full BM25 over the selected terms."""
    import math

    tok = {d: tokenize(t) for d, t in docs.items()}
    n = len(docs)
    df = collections.Counter(
        t for toks in tok.values() for t in set(toks))
    avgdl = sum(len(v) for v in tok.values()) / n
    src_tf = collections.Counter(tok[src])

    def idf(t):
        return math.log(1.0 + (n - df[t] + 0.5) / (df[t] + 0.5))

    sel = [t for t, _ in sorted(
        src_tf.items(), key=lambda kv: (-(float(kv[1]) * idf(kv[0])),
                                        kv[0]))[:n_terms]]
    scores = {}
    for d, toks in tok.items():
        if d == src:
            continue
        c = collections.Counter(toks)
        s = 0.0
        for t in sel:
            if c[t]:
                tf = float(c[t])
                s += idf(t) * tf * 2.2 / (
                    tf + 1.2 * (1 - 0.75 + 0.75 * len(toks) / avgdl))
        if s > 0:
            scores[d] = s
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def test_more_like_this_matches_bruteforce(export_built):
    from konlsearch_ray.query import IndexReader

    index_dir, docs = export_built
    reader = IndexReader(index_dir)
    for src in list(sorted(docs))[:8]:
        got = reader.more_like_this(src, n_terms=4, k=10)
        want = _brute_mlt(docs, src, n_terms=4, k=10)
        assert [d for d, _ in got] == [d for d, _ in want]
        assert np.allclose([s for _, s in got], [s for _, s in want],
                           rtol=0, atol=1e-12)
        assert src not in [d for d, _ in got]


def test_more_like_this_absent_doc_empty(export_built):
    from konlsearch_ray.query import IndexReader

    index_dir, _docs = export_built
    assert IndexReader(index_dir).more_like_this(10 ** 9) == []


def test_more_like_this_sharded_parity(export_built):
    from konlsearch_ray.query import IndexReader, ShardedQueryEngine

    index_dir, docs = export_built
    reader = IndexReader(index_dir)
    eng = ShardedQueryEngine(index_dir, num_actors=2)
    try:
        for src in list(sorted(docs))[:6] + [10 ** 9]:
            assert eng.more_like_this(src, n_terms=4, k=10) == \
                reader.more_like_this(src, n_terms=4, k=10)
    finally:
        eng.shutdown()


def test_more_like_this_sharded_custom_analyzer_parity(export_built):
    """The analyzer pass-through must keep sharded == single even when
    the selection stream comes from a non-normative analyzer (parity of
    the plumbing; both sides see the same token stream)."""
    from konlsearch_ray.analyzer import KoreanLexiconAnalyzer
    from konlsearch_ray.query import IndexReader, ShardedQueryEngine

    index_dir, docs = export_built
    reader = IndexReader(index_dir)
    eng = ShardedQueryEngine(index_dir, num_actors=2)
    try:
        for src in list(sorted(docs))[:3]:
            assert eng.more_like_this(
                src, n_terms=4, k=10,
                analyzer_factory=KoreanLexiconAnalyzer) == \
                reader.more_like_this(src, n_terms=4, k=10,
                                      analyzer=KoreanLexiconAnalyzer())
    finally:
        eng.shutdown()


def test_explain_sums_to_bm25_score(export_built):
    from konlsearch_ray.query import IndexReader

    index_dir, docs = export_built
    reader = IndexReader(index_dir)
    counts = collections.Counter(
        t for text in docs.values() for t in set(tokenize(text)))
    toks = [t for t, _ in counts.most_common(3)]
    top = reader.bm25_topk(toks, 5)
    assert top
    for doc, score in top:
        rows = reader.explain(toks, doc)
        assert rows == sorted(rows, key=lambda r: r["term"])
        assert sum(r["contrib"] for r in rows) == pytest.approx(
            score, rel=0, abs=1e-12)
        for r in rows:
            assert r["tf"] == tokenize(docs[doc]).count(r["term"])
    # Absent doc / absent term contribute no rows.
    assert reader.explain(toks, 10 ** 9) == []
    assert reader.explain(["zzqqxxnotaterm"], top[0][0]) == []


def _dp_lev(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_suggest_spelling_matches_bruteforce(export_built):
    from konlsearch_ray.query import IndexReader

    index_dir, docs = export_built
    reader = IndexReader(index_dir)
    vocab = collections.Counter(
        t for text in docs.values() for t in set(tokenize(text)))
    for q in ["tabl", "merg", "xmerge", "a", "zzzz"]:
        want = sorted(((df, t) for t, df in vocab.items()
                       if _dp_lev(t, q) == 1),
                      key=lambda x: (-x[0], x[1]))[:5]
        assert reader.suggest_spelling(q, k=5) == want, q
    assert reader.suggest_spelling("") == []


def test_grouped_covar_exact(ray_session):
    import ray

    from konlsearch_ray.functions.stats import grouped_covar

    rng = np.random.default_rng(3)
    k = np.repeat(["a", "b", "c"], 40)
    x = rng.integers(-50, 50, size=120)
    y = rng.integers(0, 24, size=120)
    t = pa.table({"k": pa.array(k), "x": pa.array(x, pa.int64()),
                  "y": pa.array(y, pa.int64())})
    out = (grouped_covar(ray.data.from_arrow(t).repartition(5), "k", "x", "y")
           .to_pandas().sort_values("k").reset_index(drop=True))
    for i, key in enumerate(["a", "b", "c"]):
        m = k == key
        n = int(m.sum())
        sx, sy = int(x[m].sum()), int(y[m].sum())
        sxy = int((x[m].astype(np.int64) * y[m]).sum())
        want = (float(n) * float(sxy) - float(sx) * float(sy)) / (
            float(n) * float(n - 1))
        assert out.loc[i, "k"] == key and out.loc[i, "n"] == n
        assert out.loc[i, "covar"] == want  # bit-identical, not allclose


def test_search_andnot_matches_bruteforce(export_built):
    from konlsearch_ray.query import IndexReader, ShardedQueryEngine

    index_dir, docs = export_built
    counts = collections.Counter(
        t for text in docs.values() for t in set(tokenize(text)))
    a, b, c = [t for t, _ in counts.most_common(3)]
    tree = (([a, b], "AND"), ([c], "AND"), "ANDNOT")
    reader = IndexReader(index_dir)
    got = reader.search_complex(tree)
    want = sorted(d for d, text in docs.items()
                  if {a, b} <= set(tokenize(text))
                  and c not in set(tokenize(text)))
    assert got == want
    eng = ShardedQueryEngine(index_dir, num_actors=2)
    try:
        assert eng.search_complex(tree) == want
    finally:
        eng.shutdown()


def test_grouped_stddev_exact(ray_session):
    import math

    import ray

    from konlsearch_ray.functions.stats import grouped_stddev

    rng = np.random.default_rng(5)
    k = np.repeat(["a", "b"], 50)
    x = rng.integers(-100, 100, size=100)
    t = pa.table({"k": pa.array(k), "x": pa.array(x, pa.int64())})
    out = (grouped_stddev(ray.data.from_arrow(t).repartition(4), "k", "x")
           .to_pandas().sort_values("k").reset_index(drop=True))
    for i, key in enumerate(["a", "b"]):
        m = k == key
        n = int(m.sum())
        sx = int(x[m].sum())
        sxx = int((x[m].astype(np.int64) ** 2).sum())
        want = math.sqrt((float(n) * float(sxx) - float(sx) * float(sx))
                         / (float(n) * float(n - 1)))
        assert out.loc[i, "stddev"] == want  # bit-identical

    # n=1 -> NULL; constant column -> exactly 0.0
    t2 = pa.table({"k": pa.array(["a", "b", "b", "b"]),
                   "x": pa.array([5, 7, 7, 7], pa.int64())})
    out2 = (grouped_stddev(ray.data.from_arrow(t2), "k", "x")
            .to_pandas().sort_values("k").reset_index(drop=True))
    assert np.isnan(out2.loc[0, "stddev"]) and out2.loc[1, "stddev"] == 0.0

    # Large constant values: the float numerator rounds a few ulp
    # negative (13 x 123456789 -> -3.28 exactly-0 numerator) — the
    # clamp must emit 0.0, never NaN, matching the greatest(.., 0)
    # oracle side.
    t3 = pa.table({"k": pa.array(["c"] * 13),
                   "x": pa.array([123456789] * 13, pa.int64())})
    out3 = grouped_stddev(ray.data.from_arrow(t3), "k", "x").take_all()
    assert out3[0]["stddev"] == 0.0


def test_grouped_covar_null_and_single_row(ray_session):
    import ray

    from konlsearch_ray.functions.stats import grouped_covar

    t = pa.table({
        "k": pa.array(["a", "a", "b", None, "c"]),
        "x": pa.array([1, 2, 7, 9, None], pa.int64()),
        "y": pa.array([3, None, 5, 1, 4], pa.int64()),
    })
    out = (grouped_covar(ray.data.from_arrow(t), "k", "x", "y")
           .to_pandas().sort_values("k").reset_index(drop=True))
    # "a" keeps one full pair (n=1 -> NULL covar), null-y row dropped;
    # "b" single row -> NULL; null key dropped; "c" null-x dropped -> gone.
    assert out["k"].tolist() == ["a", "b"]
    assert out["n"].tolist() == [1, 1]
    assert out["covar"].isna().all()
