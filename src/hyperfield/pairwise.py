"""Sums of float64 values fed in chunks, with the bits of one whole-array sum.

A stage that streams a cube in strips can then report a scene-wide sum,
such as synth's signal power or unmix's residual, without holding a
per-pixel plane for it.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# numpy sums a contiguous float64 run pairwise: a run longer than this is
# split in two, and a shorter one is summed in a loop of its own.
_PAIRWISE_LEAF = 128


class PairwiseSum:
    """``np.add.reduce`` of ``n`` float64 values fed in order, in chunks, bit for bit.

    numpy splits a run of ``m`` > 128 values at ``m//2 - (m//2) % 8`` and
    adds the sums of the halves (``pairwise_sum`` in numpy's
    ``loops_utils.h.src``). Each node of that tree lying inside the chunk
    in hand is summed by ``np.add.reduce``, which splits it by the same
    rule; the values of a leaf that crosses a chunk's end are copied and
    kept until it is whole, so no chunk is held after ``add`` returns.
    ``total`` is set once all ``n`` values are in.
    """

    def __init__(self, n: int):
        self._n = n
        self._chunk = np.empty(0)
        self._end = 0  # values fed so far; the chunk in hand holds the last of them
        self.total: float | None = None
        self._steps = self._node(0, n)
        self._advance()

    def add(self, values: np.ndarray) -> None:
        """Feed the next values, in C order; ``n`` in all."""
        self._chunk = np.ravel(values)
        if self._end + self._chunk.size > self._n:
            raise ValueError(f"more than the {self._n} values summed")
        self._end += self._chunk.size
        if self.total is None:
            self._advance()
        self._chunk = np.empty(0)

    def _advance(self) -> None:
        try:
            next(self._steps)
        except StopIteration as done:
            self.total = float(done.value)

    def _node(self, lo: int, hi: int) -> Iterator[None]:
        """The sum of values ``lo`` to ``hi``, yielding whenever it needs the next chunk."""
        while self._end <= lo < hi:
            yield
        if hi <= self._end:
            start = self._end - self._chunk.size
            return np.add.reduce(self._chunk[lo - start : hi - start])
        if hi - lo > _PAIRWISE_LEAF:
            half = (hi - lo) // 2
            mid = lo + half - half % 8
            left = yield from self._node(lo, mid)
            right = yield from self._node(mid, hi)
            return left + right
        parts = []
        while True:
            start = self._end - self._chunk.size
            parts.append(self._chunk[max(lo, start) - start : hi - start].copy())
            if hi <= self._end:
                return np.add.reduce(np.concatenate(parts))
            yield
