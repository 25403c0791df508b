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

from konlsearch_ray.build import IndexConfig, build_index
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
    """Tail + mid term pairs (df ≤ 3 and 10..60) for each branch of the
    MaxScore loop: the tail term has the higher bound and goes first; at
    k=10/50 (df < k) it sets no θ, at k=1 (df ≥ k) it does, and the mid
    term's blocks are then partly skipped."""
    df = {t: len(p) for t, p in oracle.postings.items()}
    vocab = sorted(df)
    tail = [t for t in vocab if df[t] <= 3]
    mid = [t for t in vocab if 10 <= df[t] <= 60]
    return [list(p) for p in zip(rng.sample(tail, n), rng.sample(mid, n))]


def _assert_pruned_equals_exact(reader, queries, boosts=None):
    for tokens in queries:
        for k in (1, 3, 10, 50):
            exact = reader.bm25_topk(tokens, k, prune=False, boosts=boosts)
            assert reader.bm25_topk(tokens, k, boosts=boosts) == exact, \
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
        e = r._terms[t]
        masked += e.live is not None
        stored = int(e.bcount.sum())
        assert stored == (len(ids) if e.live is None else len(e.live)), t
        assert len(e.bmax) == len(e.bcount) <= (
            -(-stored // BLOCK_SIZE) + len(e.locs)), t
    assert masked  # the live mask really cuts these posting lists
    e = r._terms["def"]
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
