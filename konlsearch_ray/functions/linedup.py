"""Corpus-level duplicated-line removal (CCNet / RefinedWeb-style
boilerplate scrub): drop every line that occurs in at least
``min_dup_docs`` DISTINCT documents, keep short lines untouched,
reassemble each document's remaining lines in order.

Scale shape — four bounded stages, the raw corpus crosses the cluster
once per pass and never concentrates:

1. EXPLODE (map-only): ``pc.split_pattern`` + ``list_flatten`` turn each
   block into ``(doc, ord, line)`` rows, fully vectorized.
2. DUP VOCABULARY: per-block DISTINCT ``(line, doc)`` pairs via Arrow's
   C++ hash group-by (exchange bounded by distinct pairs per block),
   one keyed merge counts distinct docs per line — the duplicated-line
   vocabulary stays a Dataset, no driver state.
3. FILTER: ALL lines anti-join the vocabulary through the existence
   filter (:func:`joins.filter_join` — the right side is the bounded
   vocabulary, never the corpus); short lines can never equal a
   vocabulary line (those are all >= min_line_len chars), so they
   survive the same join with no separate pass.
4. REASSEMBLE: one keyed exchange on the doc id; each group sorts its
   ordinals and joins with ``\\n``. A document whose every line was
   dropped disappears (documented semantics — mirror with a GROUP BY
   over the kept lines in any oracle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from konlsearch_ray.functions.blocks import (arrow_schema as _arrow_schema,
                                             keyed_fold)


def drop_duplicate_lines(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    min_dup_docs: int = 2,
    min_line_len: int = 10,
) -> ray.data.Dataset:
    """See module docstring. Lines shorter than ``min_line_len``
    characters are never dedup candidates (blank lines and short
    syntax would otherwise all collide and gut formatting). Rows with
    a null id or text are dropped. Output: ``id_col``, ``text_col``.
    """
    from konlsearch_ray.functions.blocks import pinned_nonempty
    from konlsearch_ray.functions.joins import filter_join

    if min_dup_docs < 2:
        raise ValueError("min_dup_docs must be >= 2")
    if id_col in ("ord", "line") or text_col in ("ord", "line"):
        raise ValueError(
            "id_col/text_col collide with drop_duplicate_lines "
            "internals ('ord', 'line'); rename upstream")
    sch = _arrow_schema(ds)
    ityp = sch.field(id_col).type

    def explode(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t[id_col]), pc.is_valid(t[text_col]))
        t = t.filter(mask)
        empty = pa.table({id_col: pa.array([], ityp),
                          "ord": pa.array([], pa.int64()),
                          "line": pa.array([], pa.string())})
        if not t.num_rows:
            return empty
        t = t.combine_chunks()
        ls = pc.split_pattern(pc.cast(t[text_col], pa.string()), "\n")
        if isinstance(ls, pa.ChunkedArray):
            ls = ls.combine_chunks()
        flat = pc.list_flatten(ls)
        lens = pc.list_value_length(ls).to_numpy(zero_copy_only=False)
        parent = np.repeat(np.arange(len(lens)), lens)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        ords = np.arange(len(flat)) - starts + 1
        return pa.table({
            id_col: pc.take(t[id_col], pa.array(parent, pa.int64())),
            "ord": pa.array(ords, pa.int64()),
            "line": flat,
        })

    out_schema = pa.schema([(id_col, ityp), (text_col, pa.string())])
    lines = ds.map_batches(explode, batch_format="pyarrow")
    # ONE explode pass: the exploded blocks pin (spillable refs) and
    # feed both the vocabulary build and the filter join; a fully empty
    # explode (empty or all-null corpus) short-circuits here instead of
    # handing filter_join a schema-less dataset.
    lines, n_lines = pinned_nonempty(lines, (id_col, "ord", "line"))
    if not n_lines:
        return ray.data.from_arrow(out_schema.empty_table())

    # duplicated-line vocabulary: distinct-doc count per LONG line —
    # the same distinct-pair-bounded shape as aggregates.distinct_count,
    # ending in a line-only projection that STAYS a Dataset.
    def pair_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(pc.utf8_length(t["line"]),
                                      min_line_len))
        return (t.select(["line", id_col])
                .group_by(["line", id_col]).aggregate([])
                .replace_schema_metadata(None))

    no_lines = pa.table({"line": pa.array([], pa.string())})

    def dup_only(g: pa.Table) -> pa.Table:
        n = len(pc.unique(g[id_col]))
        return g.select(["line"]).slice(0, 1) if n >= min_dup_docs \
            else no_lines

    dup_vocab = keyed_fold(lines, "line", dup_only, partial=pair_partial,
                           fallback=no_lines)
    # every vocabulary line is >= min_line_len chars, so short lines can
    # never match: ONE anti join over ALL lines keeps them automatically
    # (no short/long split, no extra corpus pass).
    kept = filter_join(lines, dup_vocab, "line", "line", mode="anti")

    def assemble(g: pa.Table) -> pa.Table:
        order = np.argsort(g["ord"].to_numpy(zero_copy_only=False),
                           kind="stable")
        joined = "\n".join(
            g["line"].take(pa.array(order, pa.int64())).to_pylist())
        return pa.table({id_col: g[id_col][:1],
                         text_col: pa.array([joined], pa.string())})

    return keyed_fold(kept, id_col, assemble,
                      fallback=out_schema.empty_table())
