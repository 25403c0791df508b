"""The dense BM25 route: a query whose non-empty terms all cover the
reader's doc-id window adds cached per-term impact vectors over it
(``IndexReader._bm25_dense``). Its results must equal MaxScore's and the
exact scorer's bit for bit, on every reader shape, and every other query
must keep its old scorer. Every scorer reads the reader's per-doc BM25
length norms from one table over the same window (``_lnorm``), checked
here on the same reader shapes."""

import itertools
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.corpus import HEAD_TERMS, write_corpus
from konlsearch_ray.query import (_DENSE, B, K1, IndexReader,
                                  ShardedQueryEngine, _merge_topk)
from konlsearch_ray.segment import read_doclens, shard_nums
from konlsearch_ray.tombstone import (compact_index, delete_docs,
                                      load_tombstones)
from stored_terms import sample_terms

N_DOCS = 600
HEADS = sorted(HEAD_TERMS)


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    """Three layouts of one corpus in 128-doc shards: as built; every
    fifth doc tombstoned (uncompacted); and the same deletes compacted
    away, which leaves gaps in the doc ids."""
    root = tmp_path_factory.mktemp("konl_dense")
    corpus_dir = write_corpus(str(root / "corpus"), N_DOCS, seed=42)
    built = str(root / "built")
    build_index(corpus_dir, built,
                IndexConfig(shard_size=128, tokenize_batch_size=100))
    tomb, compacted = str(root / "tomb"), str(root / "compacted")
    shutil.copytree(built, tomb)
    delete_docs(tomb, list(range(3, N_DOCS, 5)))
    shutil.copytree(tomb, compacted)
    compact_index(compacted)
    return {"built": built, "tomb": tomb, "compacted": compacted}


def _dense_terms(r: IndexReader) -> list[str]:
    """The head terms, then the other stored terms dense on ``r``."""
    vocab = sorted({t for t in sample_terms(r, 10**9)} - set(HEADS))
    return HEADS + [t for t in vocab
                    if _DENSE * r.df(t) >= r._dl_span][:3]


def _queries(terms: list[str]) -> list[list[str]]:
    return ([[t] for t in terms]
            + [list(p) for p in itertools.combinations(terms[:6], 2)]
            + [list(p) for p in itertools.combinations(terms[:5], 3)])


@pytest.mark.parametrize("name", ["built", "tomb", "compacted"])
def test_dense_scorer_matches_maxscore_and_exact(indexes, name):
    """Dense, MaxScore and the exact scorer return the same ids and
    scores bit for bit on singles, pairs and triples of dense terms, with
    and without an absent term, at every k; the router sends these
    queries to the dense scorer, pruned or not."""
    r = IndexReader(indexes[name])
    terms = _dense_terms(r)
    assert len(terms) > len(HEADS), terms  # mid-band dense terms too
    if name == "compacted":
        assert r._dl_span > r.n_docs  # the window has id gaps
    ks = (0, 1, 3, 10, 50, r._dl_span + 7)
    n = 0
    for q in _queries(terms):
        for toks in (sorted(q), sorted(q + ["nonexistenttermxyz"])):
            es = r._store.entries(toks)
            assert r._all_dense(toks, es), toks
            for k in ks:
                dense = r._bm25_dense(toks, k, es)
                assert dense == r._bm25_maxscore(toks, k, es), (toks, k)
                assert dense == r._bm25_exact(toks, k, es), (toks, k)
                assert dense == r.bm25_topk(q, k), (toks, k)
                assert dense == r.bm25_topk(q, k, prune=False), (toks, k)
                assert len(dense) == min(k, len(r._search_ids(q, "OR")))
                n += 1
    assert n == len(_queries(terms)) * 2 * len(ks)
    assert r._all_dense(["nonexistenttermxyz"],
                        r._store.entries(["nonexistenttermxyz"])) is False
    assert r.bm25_topk(["nonexistenttermxyz"], 10) == []


@pytest.mark.parametrize("name", ["built", "compacted"])
def test_dense_route_sharded_equals_single_reader(indexes, name):
    """Shard-subset readers with global df, merged, and the scatter-gather
    engine return the single reader's top-k for all-dense queries."""
    d = indexes[name]
    r = IndexReader(d)
    shards = shard_nums(d)
    subs = [IndexReader(d, shards=shards[i::3], use_global_df=True)
            for i in range(3)]
    queries = _queries(_dense_terms(r))
    eng = ShardedQueryEngine(d, num_actors=3)
    try:
        for q in queries:
            for k in (1, 10, 50):
                want = r.bm25_topk(q, k)
                assert _merge_topk([s.bm25_topk(q, k) for s in subs],
                                   k) == want, (q, k)
                assert eng.bm25_topk(q, k) == want, (q, k)
    finally:
        eng.shutdown()
    # A subset's window spans its first to last shard: its dense terms
    # are the ones dense over that window.
    assert any(e.dimp is not None for s in subs
               for e in s._store._terms.values())


def test_nonpositive_idf_skips_dense_route(indexes):
    """On an uncompacted tombstoned index a global-df reader keeps the
    dictionary's stale df, which exceeds the live N for the head terms:
    their idf is ≤ 0, their impacts are ≤ 0 and a dense window could not
    tell a scoring doc from an absent one. Such queries build no impact
    vector and still equal the exact scorer."""
    d = indexes["tomb"]
    for r in (IndexReader(d, use_global_df=True),
              IndexReader(d, shards=shard_nums(d)[::2], use_global_df=True)):
        assert all(r.idf(t) <= 0 for t in HEADS)
        for q in _queries(HEADS):
            toks = sorted(q)
            es = r._store.entries(toks)
            assert not r._all_dense(toks, es), toks
            for k in (1, 3, 10, 50):
                assert r.bm25_topk(q, k) == r._bm25_exact(toks, k, es), (
                    toks, k)
        assert all(e.dimp is None for e in r._store._terms.values())


def test_nonpositive_idf_never_prunes(ray_session, tmp_path):
    """MaxScore's bounds are maxima only for positive weights, so a query
    with a term of idf ≤ 0 is scored exactly. Here "alpha" (docs 1–270)
    and "beta" (31–300) both get idf < 0 after 60 uncompacted deletes;
    the best docs hold beta alone in long docs, the shortest docs hold
    both, and a bound taken at the shortest doc would stop MaxScore
    before beta's postings."""
    rows = []
    for i in range(1, 301):
        words = ["alpha"] * (i <= 270) + ["beta"] * (i > 30)
        words += ["zeta"] * (40 if i > 270 else 10 if i <= 30 else 0)
        rows.append({"doc_id": i, "text": " ".join(words)})
    pq.write_table(pa.Table.from_pylist(rows), str(tmp_path / "d.parquet"))
    d = str(tmp_path / "index")
    build_index(str(tmp_path / "d.parquet"), d,
                IndexConfig(content_col="text", id_col="doc_id",
                            dedup=False, shard_size=100))
    delete_docs(d, list(range(100, 160)))
    r = IndexReader(d, use_global_df=True)
    q = ["alpha", "beta"]
    assert r.idf("alpha") < 0 and r.idf("beta") < 0
    es = r._store.entries(q)
    for k in (1, 3, 10, 40):
        exact = r._bm25_exact(q, k, es)
        assert exact[0][0] == 271, exact
        assert r._bm25_maxscore(q, k, es) == exact, k
        assert r.bm25_topk(q, k) == exact, k


def test_dense_plus_tail_runs_maxscore(indexes, monkeypatch):
    """A dense term paired with a sparse one runs MaxScore and builds no
    impact vector; an all-dense query runs the dense scorer, builds each
    vector once and reuses it."""
    r = IndexReader(indexes["built"])
    vocab = sorted(set(sample_terms(r, 10**9)))
    tail = [t for t in vocab if 2 <= r.df(t) <= 3][:5]
    assert tail
    ran = []
    for name in ("_bm25_dense", "_bm25_maxscore", "_bm25_exact"):
        real = getattr(IndexReader, name)

        def counting(self, *args, _real=real, _name=name, **kw):
            ran.append(_name)
            return _real(self, *args, **kw)

        monkeypatch.setattr(IndexReader, name, counting)
    for t in tail:
        for h in HEADS:
            r.bm25_topk([h, t], 10)
            assert ran.pop() == "_bm25_maxscore", (h, t)
    assert all(e.dimp is None for e in r._store._terms.values())

    r.bm25_topk(HEADS[:2], 10)
    assert ran.pop() == "_bm25_dense"
    vecs = [r._store.entry(t).dimp for t in HEADS[:2]]
    assert all(v is not None and len(v) == r._dl_span for v in vecs)
    r.bm25_topk(HEADS[1:3], 10)
    assert ran.pop() == "_bm25_dense"
    assert r._store.entry(HEADS[1]).dimp is vecs[1]
    # Boosted and filtered queries keep their scorers.
    r.bm25_topk(HEADS[:2], 10, boosts={HEADS[0]: 2.0})
    assert ran.pop() == "_bm25_maxscore"
    d = indexes["built"]
    ids = read_doclens(d, shard_nums(d))["doc_id"].to_numpy()
    r.bm25_topk(HEADS[:2], 10, allowed=ids[::2])
    assert ran.pop() == "_bm25_exact"
    assert not ran


def _live_avgdl(d: str) -> float:
    """The index's live avgdl, recomputed from every shard's doclens."""
    dl = read_doclens(d, shard_nums(d))
    live = ~np.isin(dl["doc_id"].to_numpy(), load_tombstones(d))
    return float(dl["doc_len"].to_numpy()[live].sum()) / int(live.sum())


@pytest.mark.parametrize("name,subset", [
    ("built", None), ("compacted", None), ("tomb", None),
    ("built", slice(1, None, 2)), ("compacted", slice(0, None, 3))])
def test_length_norm_table(indexes, name, subset):
    """At every id of the reader's doclens, ``_lnorm`` holds
    K1·(1 − B + B·dl/avgdl) recomputed from ``read_doclens`` bit for bit,
    over the live avgdl; every other slot of its window is NaN. Readers:
    a fresh build, a compacted index with id gaps, an uncompacted
    tombstoned one, and strided shard-subset global-df readers."""
    d = indexes[name]
    shards = shard_nums(d) if subset is None else shard_nums(d)[subset]
    r = (IndexReader(d) if subset is None
         else IndexReader(d, shards=shards, use_global_df=True))
    with open(os.path.join(d, "stats.json")) as f:
        stats_avgdl = float(json.load(f)["avgdl"])
    if name == "tomb":
        assert r.avgdl == _live_avgdl(d) != stats_avgdl
    else:
        assert r.avgdl == stats_avgdl
        assert r.avgdl == pytest.approx(_live_avgdl(d), rel=1e-12)
    dl = read_doclens(d, shards)
    ids = dl["doc_id"].to_numpy()
    dls = dl["doc_len"].to_numpy().astype(np.float64)
    assert len(r._lnorm) == r._dl_span == ids[-1] - ids[0] + 1
    want = K1 * (1 - B + B * dls / r.avgdl)
    assert r._lnorm[ids - ids[0]].tobytes() == want.tobytes()
    assert r._min_norm == K1 * (1 - B + B * float(dls.min()) / r.avgdl)
    gaps = np.ones(r._dl_span, dtype=bool)
    gaps[ids - ids[0]] = False
    assert np.isnan(r._lnorm[gaps]).all()
    if name == "compacted" or subset is not None:
        assert gaps.any()  # the window has id gaps
    else:
        assert not gaps.any()


def test_cold_bm25_gathers_each_norm_once(indexes):
    """A cold BM25 query on a compacted index (id gaps) gathers each
    non-empty term's length norms once, over its whole posting list, and
    never binary-searches the reader's doc ids: MaxScore, dense and
    exact alike."""
    from norm_counting import GatherCounter

    d = indexes["compacted"]
    vocab = sorted(set(sample_terms(IndexReader(d), 10**9)))
    queries = [[HEADS[0], vocab[7]], HEADS[:2], [vocab[3]],
               [HEADS[2], "nonexistenttermxyz"]]
    for q in queries:
        r = IndexReader(d)
        assert r._dl_span > r.n_docs
        # no doc-id array is kept to binary-search
        assert not hasattr(r, "_dl_docs")
        r._lnorm = GatherCounter.of(r._lnorm)
        got = r.bm25_topk(q, 10)
        sizes = [len(r._store.entry(t).ids) for t in q]
        assert sorted(r._lnorm.calls) == sorted(n for n in sizes if n), q
        assert got == IndexReader(d).bm25_topk(q, 10, prune=False), q
