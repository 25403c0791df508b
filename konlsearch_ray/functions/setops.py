"""SQL set operations over whole rows: INTERSECT / EXCEPT (distinct).

Both reduce to ONE exact mechanism: serialize every row into a single
deterministic key string (length-prefixed fields, validity markers —
no separator spoofing, no hash identity), pre-distinct the left side
map-side, then run the house existence filter (:func:`joins.filter_join`,
semi for INTERSECT / anti for EXCEPT) on the key column. The right side
moves as O(distinct rows) key strings; left rows move once. No
all-pairs, no driver state — the 100-TB shape of a set op.

SQL parity notes:
- Set ops are DISTINCT by definition (``INTERSECT ALL`` is out of
  scope) and compare NULLs as equal (IS NOT DISTINCT FROM) — the
  validity marker in the serialized key reproduces that exactly.
- Columns match by POSITION (like SQL); the output carries the LEFT
  side's names. Types must match positionally.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from konlsearch_ray.functions.blocks import (_one_zero,
                                             arrow_schema as _arrow_schema,
                                             bucket_fold, key_codes)

_KEY = "__setop_key"


def _row_key(t: pa.Table, cols: list[str]) -> pa.Array:
    """Deterministic per-row serialization of ``cols``: each field is
    ``<validity><byte-length>:<string-cast value>`` and fields join
    with a separator that length-prefixing makes unspoofable. Purely
    vectorized (Arrow cast + binary_join_element_wise)."""
    fields = []
    for c in cols:
        col = _one_zero(t[c])
        s = pc.fill_null(pc.cast(col, pa.string()), "")
        marker = pc.if_else(pc.is_valid(col), pa.scalar("V"),
                            pa.scalar("N"))
        ln = pc.cast(pc.binary_length(s), pa.string())
        fields.append(pc.binary_join_element_wise(marker, ln, s, ":"))
    if len(fields) == 1:
        return fields[0]
    return pc.binary_join_element_wise(*fields, "\x1f")


def _keyed(ds: ray.data.Dataset, cols: list[str],
           rename_to: list[str] | None = None) -> ray.data.Dataset:
    def add(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        if rename_to:
            t = t.rename_columns(rename_to)
        return t.append_column(_KEY, _row_key(t, rename_to or cols))

    return ds.map_batches(add, batch_format="pyarrow")


def _block_distinct(t: pa.Table) -> pa.Table:
    # distinct on the serialized key, per block before the exchange
    # (it moves distinct rows per block, never rows) and per bucket
    # after it.
    if not t.num_rows:
        return t
    return t.take(key_codes(t[_KEY])[1])


def _global_distinct(ds: ray.data.Dataset,
                     lsch: pa.Schema) -> ray.data.Dataset:
    fallback = lsch.empty_table().append_column(_KEY,
                                                pa.array([], pa.string()))
    return bucket_fold(ds, _KEY, _block_distinct, partial=_block_distinct,
                       fallback=fallback)


def _setop(left: ray.data.Dataset, right: ray.data.Dataset,
           mode: str) -> ray.data.Dataset:
    from konlsearch_ray.functions.joins import filter_join

    lsch, lcols, rcols = _validate_operands(left, right)
    ld = _global_distinct(_keyed(left, lcols), lsch)
    # right side: keys only — filter_join pre-distincts per block, so a
    # full global distinct would be a second exchange for nothing.
    rd = _keyed(right, rcols, rename_to=lcols).select_columns([_KEY])
    out = filter_join(ld, rd, _KEY, _KEY, mode=mode).drop_columns([_KEY])
    return _pin_left_schema(out, lsch, lcols)


def _validate_operands(left: ray.data.Dataset, right: ray.data.Dataset):
    """Shared set-operand contract: same column count, positionally
    matching types, no ``_KEY`` collision. Returns the left schema and
    both column-name lists."""
    lsch, rsch = _arrow_schema(left), _arrow_schema(right)
    lcols, rcols = list(lsch.names), list(rsch.names)
    if len(lcols) != len(rcols):
        raise ValueError(
            f"set operands need the same column count (positional match, "
            f"like SQL): left has {len(lcols)}, right has {len(rcols)}")
    for i, (ln, rn) in enumerate(zip(lcols, rcols)):
        lt, rt = lsch.field(ln).type, rsch.field(rn).type
        if lt != rt:
            raise ValueError(
                f"set operand column {i} type mismatch: "
                f"{ln}: {lt} vs {rn}: {rt}")
    if _KEY in lcols:
        raise ValueError(f"left columns collide with {_KEY!r}")
    return lsch, lcols, rcols


def _pin_left_schema(out: ray.data.Dataset, lsch, lcols) -> ray.data.Dataset:
    """An all-filtered result must keep the LEFT schema (a schema-less
    0-row Dataset breaks downstream unions and the oracle gate)."""
    from konlsearch_ray.functions.blocks import nonempty_blocks

    fb = pa.table({n: pa.array([], lsch.field(n).type) for n in lcols})
    return nonempty_blocks(out, tuple(lcols), fallback=fb)


def intersect_distinct(left: ray.data.Dataset,
                       right: ray.data.Dataset) -> ray.data.Dataset:
    """SQL ``left INTERSECT right``: distinct rows present in BOTH
    inputs (positional column match, NULLs compare equal)."""
    return _setop(left, right, "semi")


def except_distinct(left: ray.data.Dataset,
                    right: ray.data.Dataset) -> ray.data.Dataset:
    """SQL ``left EXCEPT right``: distinct left rows absent from
    ``right`` (positional column match, NULLs compare equal)."""
    return _setop(left, right, "anti")


def union_distinct(left: ray.data.Dataset,
                   right: ray.data.Dataset) -> ray.data.Dataset:
    """SQL ``left UNION right``: distinct rows of the concatenation
    (positional column match, NULLs compare equal). One map-side
    pre-distinct per block + one keyed exchange — the same cost as a
    single global distinct, with no join at all."""
    lsch, lcols, rcols = _validate_operands(left, right)
    both = _keyed(left, lcols).union(_keyed(right, rcols, rename_to=lcols))
    out = _global_distinct(both, lsch).drop_columns([_KEY])
    return _pin_left_schema(out, lsch, lcols)
