"""Counting views for the BM25 length-norm table tests: an ndarray view
that records every gather from it, and one that records every
``searchsorted`` over it. Install one on a reader attribute with
``reader._lnorm = GatherCounter.of(reader._lnorm)``."""

import numpy as np


class _Counter(np.ndarray):
    calls: list

    @classmethod
    def of(cls, arr: np.ndarray):
        view = arr.view(cls)
        view.calls = []
        return view


class GatherCounter(_Counter):
    """Records the size of every index into it; what it returns is a
    plain ndarray, so arrays computed from a gather count nothing."""

    def __getitem__(self, idx):
        self.calls.append(int(np.size(idx)))
        return np.asarray(super().__getitem__(idx))


class SearchsortedCounter(_Counter):
    """Records the size of every ``searchsorted`` needle array over it
    (``np.searchsorted(a, v)`` dispatches to ``a.searchsorted``)."""

    def searchsorted(self, v, *args, **kw):
        self.calls.append(int(np.size(v)))
        return np.asarray(self).searchsorted(v, *args, **kw)
