"""Counting view for the BM25 length-norm table tests: an ndarray view
that records every gather from it. Install it on a reader attribute
with ``reader._lnorm = GatherCounter.of(reader._lnorm)``."""

import numpy as np


class GatherCounter(np.ndarray):
    """Records the size of every index into it; what it returns is a
    plain ndarray, so arrays computed from a gather count nothing."""

    calls: list

    @classmethod
    def of(cls, arr: np.ndarray):
        view = arr.view(cls)
        view.calls = []
        return view

    def __getitem__(self, idx):
        self.calls.append(int(np.size(idx)))
        return np.asarray(super().__getitem__(idx))
