"""End-to-end: Ray Data build → segment layout → query engine vs oracle.

Mirrors the reference's golden-output strategy (reference
test_konlsearch.py:191-254) with the pure-Python oracle as the source of
truth over a deterministic synthetic source-code corpus (FIXTURES.md F1).
"""

import math
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from konlsearch_ray.analyzer import normalize_query_tokens
from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.codec import BLOCK_SIZE
from konlsearch_ray.corpus import generate_corpus, write_corpus
from konlsearch_ray.oracle import build_oracle
from konlsearch_ray.query import IndexReader
from konlsearch_ray.tombstone import delete_docs


N_DOCS = 600
SHARD_SIZE = 128  # several shards at test scale


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("konl")
    corpus_dir = write_corpus(str(root / "corpus"), N_DOCS, seed=42)
    index_dir = str(root / "index")
    stats = build_index(
        corpus_dir,
        index_dir,
        IndexConfig(shard_size=SHARD_SIZE, tokenize_batch_size=100),
    )
    reader = IndexReader(index_dir)
    # Oracle over the same canonical ID assignment: dedup first-wins by
    # (repo, path, commit), then dense 1-based IDs in sorted order.
    table = generate_corpus(N_DOCS, seed=42)
    rows = sorted(
        zip(table["repo"].to_pylist(), table["path"].to_pylist(),
            table["commit"].to_pylist(), table["content"].to_pylist())
    )
    seen, docs = set(), {}
    next_id = 1
    for repo, path, commit, content in rows:
        if content in seen:
            continue
        seen.add(content)
        docs[next_id] = content
        next_id += 1
    oracle = build_oracle(docs)
    return stats, reader, oracle, index_dir, docs


def test_stats_match(built):
    stats, reader, oracle, _, docs = built
    assert stats["N"] == oracle.n_docs == len(docs)
    assert stats["total_tokens"] == sum(oracle.doc_len.values())
    assert math.isclose(reader.avgdl, oracle.avgdl)


def test_df_tf_match(built):
    _, reader, oracle, _, _ = built
    for term in ["def", "return", "import", "self", "class", "마법", "건담",
                 "nonexistenttermxyz"]:
        ids, tfs, _ = reader.postings(term)
        exp = oracle.postings.get(term, {})
        assert list(ids) == sorted(exp), term
        assert {int(d): int(t) for d, t in zip(ids, tfs)} == exp, term


def test_boolean_search_matches_oracle(built):
    _, reader, oracle, _, _ = built
    cases = [
        (["def", "return"], "AND"),
        (["def", "건담"], "AND"),
        (["마법", "소녀"], "OR"),
        (["zzznope", "def"], "AND"),  # absent first token → empty
        (["zzznope"], "OR"),
        (["def", "class", "import"], "AND"),
        (["특급", "특별"], "OR"),
    ]
    for tokens, mode in cases:
        assert reader.search(tokens, mode) == oracle.search(tokens, mode), (tokens, mode)


def test_min_should_matches_oracle(built):
    _, reader, oracle, _, _ = built
    for tokens in (["def", "return", "class"], ["def", "마법", "건담"],
                   ["zzznope", "def", "import"]):
        for m in (1, 2, 3, 4):
            assert reader.search_min_should(tokens, m) == \
                oracle.search_min_should(tokens, m), (tokens, m)


def test_phrase_matches_oracle(built):
    _, reader, oracle, _, _ = built
    for tokens in [["def", "return"], ["return", "def"], ["import", "self"],
                   ["self", "import"]]:
        assert reader.search(tokens, "PHRASE") == oracle.search(tokens, "PHRASE"), tokens


def test_complex_matches_oracle(built):
    _, reader, oracle, _, _ = built
    tree = (((["def"], "AND"), (["마법"], "OR"), "AND"),
            ((["특급"], "OR"), (["건담"], "OR"), "OR"), "OR")
    assert reader.search_complex(tree) == oracle.search_complex(tree)


def test_bm25_matches_oracle(built):
    _, reader, oracle, _, _ = built
    for tokens in [["def"], ["def", "마법"], ["tokdoc1", "def"],
                   ["class", "self", "import"]]:
        got = reader.bm25_topk(tokens, 10)
        exp = oracle.bm25_topk(tokens, 10)
        assert [d for d, _ in got] == [d for d, _ in exp], tokens
        for (gd, gs), (ed, es) in zip(got, exp):
            assert math.isclose(gs, es, rel_tol=1e-12), (tokens, gd)


HEADS = ["def", "return", "import", "self", "class"]


def _regime_queries(oracle, rng, n=40) -> list[list[str]]:
    """Tail + mid term pairs (df ≤ 3 and BLOCK_SIZE..400) for each branch
    of the MaxScore loop: the tail term has the higher bound and goes
    first; at k=10/50 (df < k) it sets no θ, at k=1 (df ≥ k) it does, and
    the mid term's blocks are then partly skipped. Every pair holds more
    than BLOCK_SIZE postings, so ``bm25_topk`` runs MaxScore on it, not
    the exact scorer."""
    df = {t: len(p) for t, p in oracle.postings.items()}
    vocab = sorted(df)
    tail = [t for t in vocab if df[t] <= 3]
    mid = [t for t in vocab if BLOCK_SIZE <= df[t] <= 400]
    pairs = [list(p) for p in zip(rng.sample(tail, n), rng.sample(mid, n))]
    assert all(df[a] + df[b] > BLOCK_SIZE for a, b in pairs)
    return pairs


def _assert_pruned_equals_exact(reader, queries, boosts=None):
    """The routed ``bm25_topk`` and MaxScore itself both equal the exact
    scorer: a query with at most BLOCK_SIZE postings is routed to the
    exact scorer, so MaxScore is also called directly."""
    for tokens in queries:
        toks = sorted(set(normalize_query_tokens(tokens)))
        for k in (1, 3, 10, 50):
            exact = reader.bm25_topk(tokens, k, prune=False, boosts=boosts)
            assert reader.bm25_topk(tokens, k, boosts=boosts) == exact, \
                (tokens, k, boosts)
            if len(toks) > 1:
                assert reader._bm25_maxscore(
                    toks, k, reader._store.entries(toks), boosts) == exact, \
                    (tokens, k, boosts)


def test_bm25_pruned_rank_identical(built):
    """Block-max MaxScore pruning must return exactly the exact scorer's
    (doc_id, score) list — bit-identical scores — for every query,
    including head/tail/absent term mixes and boosted terms."""
    import random

    _, reader, oracle, _, _ = built
    vocab = sorted(oracle.postings)
    rng = random.Random(7)
    queries = [
        ["def", "return", "import"], ["def"], ["zzznope", "def"],
        ["마법", "소녀", "건담"], ["self", "class", "def", "return", "import"],
    ]
    for _ in range(40):
        queries.append(rng.sample(vocab, rng.randint(2, 5)))
    queries += _regime_queries(oracle, rng)
    _assert_pruned_equals_exact(reader, queries)
    for tokens in queries[-80:]:
        _assert_pruned_equals_exact(
            reader, [tokens], boosts={tokens[0]: 2.0, tokens[1]: 0.5})


def test_block_bounds_built_only_when_theta_prunes(built):
    """MaxScore bounds a term by its max live tf and builds block bounds
    only at a block skip, once θ is finite. Head + tail at k=10, with
    fewer than 10 tail postings: the tail goes first and leaves θ at
    -inf, so neither term builds bounds. Two mid terms (df 65..100) at
    k=10: the first sets θ and the second builds its bounds for the
    skip. (Two head terms share ~90% of their docs, so θ after the first
    already exceeds the second's whole bound and the loop stops before
    any skip.) Both pairs hold more than BLOCK_SIZE postings, so they run
    MaxScore, not the exact scorer. Both stay bit-identical to the exact
    scorer, and bounds built afterwards still cover every posting."""
    _, _, oracle, index_dir, _ = built
    df = {t: len(p) for t, p in oracle.postings.items()}
    tail = min((t for t in df if df[t] < 10), key=lambda t: (-df[t], t))
    mids = sorted(t for t in df if 65 <= df[t] <= 100)[:2]
    assert df["def"] + df[tail] > BLOCK_SIZE
    assert sum(df[t] for t in mids) > BLOCK_SIZE
    for tokens, n_built in (["def", tail], 0), (mids, 1):
        r = IndexReader(index_dir)
        pruned = r.bm25_topk(tokens, 10)
        entries = [r._store.entry(t) for t in tokens]
        assert sum(e.bmax is not None for e in entries) == n_built, tokens
        assert pruned == r.bm25_topk(tokens, 10, prune=False), tokens
        for t, e in zip(tokens, entries):
            assert e.maxtf == int(e.tfs.max()), t
            assert e.maxtf <= int(r.block_upper_tf(t).max()), t


def test_small_queries_route_to_exact_scorer(built, monkeypatch):
    """A pruned query whose terms hold at most BLOCK_SIZE live postings
    in all takes the exact scorer, and returns bit for bit what MaxScore
    returns on it, boosted and unboosted; a larger one that is not all
    dense (test_dense_bm25.py) runs MaxScore."""
    import random

    _, _, oracle, index_dir, _ = built
    df = {t: len(p) for t, p in oracle.postings.items()}
    vocab = sorted(df)
    rng = random.Random(5)
    # Tail + mid pairs (df ≤ 3 and 10..60) reach a block skip at k=1, and
    # small triples add a third term to probe.
    tail = [t for t in vocab if df[t] <= 3]
    mid = [t for t in vocab if 10 <= df[t] <= 60]
    small = [[a, b] for a, b in zip(rng.sample(tail, 30), rng.sample(mid, 30))]
    small += [rng.sample(tail, 2) + rng.sample(mid, 1) for _ in range(10)]
    assert all(sum(df[t] for t in q) <= BLOCK_SIZE for q in small)
    r = IndexReader(index_dir)
    ran = []
    real = IndexReader._bm25_maxscore

    def counting(self, *args, **kw):
        ran.append(args[0])
        return real(self, *args, **kw)

    monkeypatch.setattr(IndexReader, "_bm25_maxscore", counting)
    for q in small:
        toks = sorted(q)
        for boosts in (None, {q[0]: 2.0, q[1]: 0.5}):
            for k in (1, 3, 10, 50):
                routed = r.bm25_topk(q, k, boosts=boosts)
                assert not ran, (q, k)
                assert routed == real(r, toks, k, r._store.entries(toks),
                                      boosts), (q, k, boosts)
    r.bm25_topk(["def", mid[0]], 10)
    assert ran == [sorted(["def", mid[0]])]


def test_negative_k_rejected(built):
    """k < 0 raises instead of slicing all but the last hits; k = 0 is an
    empty result."""
    _, reader, _, _, _ = built
    for prune in (True, False):
        with pytest.raises(ValueError, match="k must be >= 0"):
            reader.bm25_topk(["def", "return"], -1, prune=prune)
        assert reader.bm25_topk(["def", "return"], 0, prune=prune) == []
    with pytest.raises(ValueError, match="k must be >= 0"):
        reader.bm25_topk(["def"], -1, allowed=np.arange(1, 10))
    with pytest.raises(ValueError, match="k must be >= 0"):
        reader.more_like_this(1, k=-1)
    assert reader.more_like_this(1, k=0) == []
    assert reader.more_like_this(1, k=3)


@pytest.fixture(scope="module")
def tombstoned(ray_session, tmp_path_factory):
    """The test corpus in 256-doc shards — a head term spans two
    128-entry blocks per shard — with every fifth doc tombstoned, so
    live masks cut through blocks."""
    root = tmp_path_factory.mktemp("konl_tomb")
    corpus_dir = write_corpus(str(root / "corpus"), N_DOCS, seed=42)
    index_dir = str(root / "index")
    build_index(corpus_dir, index_dir,
                IndexConfig(shard_size=256, tokenize_batch_size=100))
    delete_docs(index_dir, list(range(3, N_DOCS, 5)))
    return IndexReader(index_dir)


def test_bm25_pruned_identical_tombstoned(built, tombstoned):
    """Pruned ≡ exact on a reader whose block skips go through the live
    mask (blocks count stored entries, postings only live ones)."""
    import random

    _, _, oracle, _, _ = built
    vocab = sorted(oracle.postings)
    rng = random.Random(11)
    queries = _regime_queries(oracle, rng) + [HEADS[:2], HEADS[1:4]]
    queries += [rng.sample(vocab, rng.randint(2, 4)) for _ in range(40)]
    # On this corpus, the k=3 top-k of these queries changes if a
    # partial block skip is not aligned through the live mask.
    queries += [["validxtl", "lensx", "numgettokvn", "colidxseghr"],
                ["keyabn", "tmpptrge", "strcfgtn"],
                ["docvalvalaom", "tmpptrge"],
                ["idxstrbuz", "colbufain", "colidxseghr", "strbcg"]]
    _assert_pruned_equals_exact(tombstoned, queries)
    for tokens in queries:
        _assert_pruned_equals_exact(
            tombstoned, [tokens], boosts={tokens[0]: 2.0, tokens[1]: 0.5})


def _norms(r: IndexReader, ids: np.ndarray) -> np.ndarray:
    """The reader's BM25 length norms of docs ``ids``."""
    return r._lnorm[ids - r._dl_first]


def test_warm_bm25_reuses_cached_impacts(built):
    """Once a term's impacts are cached, a repeated unboosted query
    gathers no length norm: pruned, ``prune=False`` and filtered alike.
    A boosted query still works; it computes its boosted term's impacts
    per query, gathering norms only for the postings it scores or
    probes."""
    import random

    from norm_counting import GatherCounter

    _, _, oracle, index_dir, _ = built
    # Head pairs, a single term, and tail + mid pairs that reach a block
    # skip at k=1.
    queries = [HEADS[:2], HEADS[2:5], ["def"]]
    queries += _regime_queries(oracle, random.Random(3), 10)
    allowed = np.arange(1, N_DOCS, 2, dtype=np.int64)
    calls = [{}, {"prune": False}, {"allowed": allowed}]
    r = IndexReader(index_dir)
    expect = {(i, j, k): r.bm25_topk(q, k, **kw)
              for i, q in enumerate(queries) for j, kw in enumerate(calls)
              for k in (1, 10)}
    r._lnorm = GatherCounter.of(r._lnorm)
    n_calls = r._lnorm.calls
    for (i, j, k), exp in expect.items():
        assert r.bm25_topk(queries[i], k, **calls[j]) == exp, (i, j, k)
    assert n_calls == []
    boosted = r.bm25_topk(HEADS[:2], 10, boosts={"def": 2.0})
    assert boosted == r.bm25_topk(HEADS[:2], 10, prune=False,
                                  boosts={"def": 2.0})
    assert boosted != expect[(0, 0, 10)]
    # A boosted term is computed only where the query scores or probes
    # it: never more than its whole list, and less once blocks are skipped.
    partial = 0
    for q in _regime_queries(oracle, random.Random(3)):
        r.bm25_topk(q, 1)  # caches the unboosted tail term
        n = len(r._store.entry(q[1]).ids)
        n_calls.clear()
        r.bm25_topk(q, 1, boosts={q[1]: 1.1})
        assert sum(n_calls) <= n, q
        partial += any(0 < c < n for c in n_calls)
    assert partial


def _assert_impact_cache_contract(index_dir, queries):
    """Boosted calls never fill or change a term's cached impacts; every
    cached entry holds the kernel's output over its postings; a warmed
    reader prunes exactly as a fresh one."""
    fresh = IndexReader(index_dir)
    t = "def"
    for boosts in ({t: 2.0}, {t: 0.5}):
        for kw in ({}, {"prune": False}, {"allowed": np.arange(1, N_DOCS)}):
            fresh.bm25_topk(HEADS[:2], 3, boosts=boosts, **kw)
    e = fresh._store.entry(t)
    assert e.imp is None  # a boosted term never fills the cache
    fresh.bm25_topk([t, "return"], 3, boosts={})
    imp = e.imp
    exp = fresh._kernel(fresh.idf(t), e.tfs, _norms(fresh, e.ids))
    assert imp is not None and imp.tobytes() == exp.tobytes()
    for boosts in ({t: 2.0}, {t: 0.5}, {}, {t: 1.0}):
        fresh.bm25_topk(HEADS[:2], 3, boosts=boosts)
        fresh.bm25_topk(HEADS[:2], 3, prune=False, boosts=boosts)
        assert e.imp is imp and imp.tobytes() == exp.tobytes(), boosts
    for q in queries:
        fresh.bm25_topk(q, 10, boosts={q[0]: 2.0})
        fresh.bm25_topk(q, 10, prune=False)
        fresh.bm25_topk(q, 10, allowed=np.arange(1, N_DOCS, 3))
    cached = 0
    for term, e in fresh._store._terms.items():
        if e.imp is not None:
            cached += 1
            assert len(e.imp) == len(e.ids), term
            assert e.imp.tobytes() == fresh._kernel(
                fresh.idf(term), e.tfs, _norms(fresh, e.ids)).tobytes(), term
    assert cached
    cold = IndexReader(index_dir)
    for q in queries:
        for k in (1, 3, 10, 50):
            assert fresh.bm25_topk(q, k) == cold.bm25_topk(q, k), (q, k)


def test_impact_cache_contract(built, tombstoned):
    import random

    _, _, oracle, index_dir, _ = built
    queries = _regime_queries(oracle, random.Random(13))
    queries += [HEADS[:2], HEADS[1:4]]
    for d in (index_dir, tombstoned.index_dir):
        _assert_impact_cache_contract(d, queries)


def test_topk_known_kth_equals_partition():
    """``_topk(..., kth=θ)`` with θ the k-th best score selects exactly
    what the partition selects; ``kth`` is ignored when k ≥ n or k = 0."""
    from konlsearch_ray.query import _topk

    ids = np.arange(10, 20, dtype=np.int64)
    scores = np.array([1.5, 3.0, 2.0, 3.0, 2.0, 2.0, 0.5, 3.0, 2.0, 1.0])
    for k in range(1, len(ids)):
        kth = np.partition(scores, len(ids) - k)[len(ids) - k]
        assert _topk(ids, scores, k, kth=kth) == _topk(ids, scores, k), k
    assert _topk(ids, scores, 4)[-1] == (12, 2.0)  # tie at the cut: lowest id
    for k in (len(ids), len(ids) + 5, 0):
        assert (_topk(ids, scores, k, kth=scores.max())
                == _topk(ids, scores, k)), k
    assert _topk(ids, scores, 0) == []


def test_block_bounds_per_block_and_aligned(tombstoned):
    """``block_upper_tf`` stays aligned with the live postings on a
    tombstoned reader, while the reader keeps one bound per stored block
    (at most ⌈df/128⌉ + segments values), not one per posting."""
    from konlsearch_ray.codec import BLOCK_SIZE

    r = tombstoned
    assert len(r._dead)
    masked = 0
    for t in HEADS + ["마법", "zzznope"]:
        ids, tfs = r.postings_scores(t)
        ub = r.block_upper_tf(t)
        assert len(ub) == len(ids), t
        assert np.all(ub >= tfs), t
        e = r._store.entry(t)
        masked += e.live is not None
        stored = int(e.bcount.sum())
        assert stored == (len(ids) if e.live is None else len(e.live)), t
        assert len(e.bmax) == len(e.bcount) <= (
            -(-stored // BLOCK_SIZE) + len(e.locs)), t
    assert masked  # the live mask really cuts these posting lists
    e = r._store.entry("def")
    assert len(e.bmax) > len(e.locs)  # several blocks in one segment


def test_content_sha256_invariant(built):
    """Per-row invariant: docs/ content_sha256 equals sha256 of source content."""
    import hashlib

    _, _, _, index_dir, _ = built
    docs_dir = os.path.join(index_dir, "docs")
    t = pq.ParquetDataset(docs_dir).read(columns=["content", "content_sha256"])
    for content, sha in zip(t["content"].to_pylist(), t["content_sha256"].to_pylist()):
        assert hashlib.sha256(content.encode()).hexdigest() == sha


def test_dedup_first_wins(built):
    stats, _, _, index_dir, docs = built
    src = generate_corpus(N_DOCS, seed=42)
    n_unique = len(set(src["content"].to_pylist()))
    assert stats["N"] == n_unique
    assert src.num_rows > n_unique  # corpus really contains duplicates


def test_prefix_upper_carry():
    from konlsearch_ray.query import _prefix_upper

    assert _prefix_upper(b"tab") == b"tac"
    assert _prefix_upper(b"a\xff") == b"b"          # carry drops the 0xFF
    assert _prefix_upper(b"\xff\xff") is None       # no upper bound exists
    assert _prefix_upper(b"\xfe\xff") == b"\xff"


def test_prefix_search_matches_oracle(built):
    _, reader, oracle, _, _ = built
    for prefix in ["def", "re", "마", "건담", "cl", "zzznope"]:
        vocab_match = sorted(t for t in oracle.postings if t.startswith(prefix))
        assert reader.expand_prefix(prefix, limit=10_000) == vocab_match, prefix
        expect = sorted({d for t in vocab_match for d in oracle.postings[t]})
        assert reader.search_prefix(prefix, limit=10_000) == expect, prefix
    # Query normalization applies to the prefix too.
    assert reader.search_prefix("DEF", limit=10_000) == \
        reader.search_prefix("def", limit=10_000)


def test_prefix_expansion_cap_is_lexicographic(built):
    _, reader, oracle, _, _ = built
    full = reader.expand_prefix("특", limit=10_000)
    assert len(full) >= 2  # the fixture vocab holds 특급 and 특별
    assert reader.expand_prefix("특", limit=1) == full[:1]
    docs_first = sorted(oracle.postings[full[0]])
    assert reader.search_prefix("특", limit=1) == docs_first


def test_prefix_search_sharded(built, ray_session):
    from konlsearch_ray.query import ShardedQueryEngine

    _, reader, _, index_dir, _ = built
    eng = ShardedQueryEngine(index_dir, num_actors=3)
    try:
        for prefix in ["def", "마", "zzznope"]:
            assert eng.search_prefix(prefix, limit=10_000) == \
                reader.search_prefix(prefix, limit=10_000), prefix
    finally:
        eng.shutdown()


def test_contains_search_matches_oracle(built):
    _, reader, oracle, _, _ = built
    for sub in ["ef", "법", "turn", "zzznope"]:
        vocab_match = sorted(t for t in oracle.postings if sub in t)
        assert reader.expand_match(sub, limit=10_000) == vocab_match, sub
        expect = sorted({d for t in vocab_match for d in oracle.postings[t]})
        assert reader.search_contains(sub, limit=10_000) == expect, sub
    # Normalizer applies to the substring (terms are stored lowercase).
    assert reader.search_contains("EF", limit=10_000) == \
        reader.search_contains("ef", limit=10_000)


def test_regex_search_matches_oracle(built):
    import re

    _, reader, oracle, _, _ = built
    for pat in [r"^cl(ass|ean)", r"turn$", r"^건담$", r"^zzz"]:
        rx = re.compile(pat)
        vocab_match = sorted(t for t in oracle.postings if rx.search(t))
        assert reader.expand_match(pat, regex=True, limit=10_000) == \
            vocab_match, pat
        expect = sorted({d for t in vocab_match for d in oracle.postings[t]})
        assert reader.search_regex(pat, limit=10_000) == expect, pat


def test_contains_search_sharded(built, ray_session):
    from konlsearch_ray.query import ShardedQueryEngine

    _, reader, _, index_dir, _ = built
    eng = ShardedQueryEngine(index_dir, num_actors=3)
    try:
        for sub in ["ef", "법", "zzznope"]:
            assert eng.search_contains(sub, limit=10_000) == \
                reader.search_contains(sub, limit=10_000), sub
        assert eng.search_regex(r"turn$", limit=10_000) == \
            reader.search_regex(r"turn$", limit=10_000)
    finally:
        eng.shutdown()
