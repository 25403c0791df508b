"""Output checks: library results against ``konlsearch_ray.oracle``.

Every check runs outside the timed windows. A check that fails counts one
failed operation; the run then reports ``correct: false``.
"""

from __future__ import annotations

import hashlib
import math

from konlsearch_ray.analyzer import normalize_query_tokens, tokenize
from konlsearch_ray.docstore import DocStore
from konlsearch_ray.oracle import build_oracle


class Oracle:
    """Oracle index over the docstore's stored content, keyed by stored
    doc_id, plus the texts for the proximity check the oracle lacks."""

    def __init__(self, index_dir: str):
        t = DocStore(index_dir).get_all()
        self.texts = dict(zip(t["doc_id"].to_pylist(),
                              t["content"].to_pylist()))
        self.index = build_oracle(self.texts)

    def df(self) -> dict[str, int]:
        return {t: len(p) for t, p in self.index.postings.items()}

    def expected(self, kind: str, tokens: list[str]):
        if kind == "bm25":
            return self.index.bm25_topk(tokens, 10)
        if kind == "near":
            return self.near(tokens, 3)
        return self.index.search(tokens, kind)

    def near(self, tokens: list[str], slop: int) -> list[int]:
        """Unordered NEAR: some window of ``slop + 1`` kept-token positions
        holds an occurrence of every distinct query term."""
        terms = sorted(set(normalize_query_tokens(tokens)))
        out = []
        for d in self.index.search(terms, "AND"):
            toks = tokenize(self.texts[d])
            occ = {t: [i for i, x in enumerate(toks) if x == t] for t in terms}
            anchors = sorted(i for ps in occ.values() for i in ps)
            if any(all(any(a <= p <= a + slop for p in occ[t]) for t in terms)
                   for a in anchors):
                out.append(d)
        return out


def same_result(kind: str, got, exp) -> bool:
    if kind != "bm25":
        return list(got) == list(exp)
    return ([d for d, _ in got] == [d for d, _ in exp]
            and all(math.isclose(g, e, rel_tol=1e-9)
                    for (_, g), (_, e) in zip(got, exp)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_build(index_dir: str, stats: dict, distinct: set[str],
                sample: list[int]) -> list[str]:
    """Docs indexed = input rows - exact-duplicate rows (``distinct`` holds
    the sha256 of every input row), and the sampled docstore rows carry the
    sha256 of a matching source row."""
    errors = []
    if stats["N"] != len(distinct):
        errors.append(f"build indexed {stats['N']} docs, input has "
                      f"{len(distinct)} distinct contents")
    rows = DocStore(index_dir).get_multi(sample, columns=[
        "doc_id", "content", "content_sha256"])
    if rows.num_rows != len(set(sample)):
        errors.append(f"docstore returned {rows.num_rows} of "
                      f"{len(set(sample))} sampled ids")
    for text, sha in zip(rows["content"].to_pylist(),
                         rows["content_sha256"].to_pylist()):
        if sha != sha256(text) or sha not in distinct:
            errors.append(f"docstore sha {sha[:12]} matches no source row")
    return errors
