"""Class-balanced micro-block batching.

Each training mini-batch stacks one micro-block of m source samples per
class (so every class contributes exactly m labeled samples) together with
m unlabeled target samples per class slot. Indices are drawn without
replacement inside an epoch; the per-class permutations are re-derived
from (seed, epoch) every epoch.

A plain uniformly-shuffled plan with the same batch size and batch count
is also provided as the ablation control.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .pipeline import DomainDataset, PipelineError
from .rng import RandomSource


@dataclass
class TrainingBatch:
    """Stacked batch; in micro mode rows [j*m:(j+1)*m] form class j's blocks."""

    source_x: np.ndarray          # [rows, d]
    source_y: np.ndarray          # [rows]
    target_x: np.ndarray          # [rows, d]
    source_indices: np.ndarray
    target_indices: np.ndarray

    def __len__(self) -> int:
        return self.source_x.shape[0]


def compute_micro_size(source: DomainDataset, cap: int) -> int:
    """Micro-block size m: the smallest per-class sample count, capped."""
    if cap < 1:
        raise PipelineError(f"cap must be >= 1, got {cap}")
    counts = source.class_counts()
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise PipelineError(f"classes with no samples: {empty.tolist()}")
    return int(min(counts.min(), cap))


class _RefillQueue:
    """Without-replacement index stream: hands out one permutation after another.

    `permutation(refill)` gives the next permutation, in draw order; it is asked for
    the next one only when a draw finds the current one used up.
    """

    def __init__(self, permutation):
        self._permutation = permutation
        self._refills = 0
        self._queue = permutation(0)
        self._pos = 0

    def draw(self, k: int) -> np.ndarray:
        parts = []
        while k > 0:
            if self._pos == len(self._queue):
                self._refills += 1
                self._queue, self._pos = self._permutation(self._refills), 0
            part = self._queue[self._pos:self._pos + k]
            self._pos += len(part)
            k -= len(part)
            parts.append(part)
        return np.concatenate(parts).astype(np.int64)


class EpochPlan:
    """One epoch's worth of class-balanced mini-batches (iterate to consume).

    Every plan runs max(min_count // m, 1) batches of m rows per class, where
    min_count is the smallest source class count.
    """

    def __init__(self, source: DomainDataset, target: DomainDataset, micro_size: int,
                 seed: int, epoch: int = 0, with_replacement: bool = False):
        self._start(source, target, micro_size, seed, epoch)
        counts = source.class_counts()
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise PipelineError(f"classes with no samples: {empty.tolist()}")
        min_count = int(counts.min())
        if min_count < micro_size:
            if not with_replacement:
                raise PipelineError(
                    f"smallest class has {min_count} samples, fewer than micro_size "
                    f"{micro_size}; enable with_replacement to refill")
            warnings.warn(f"smallest class has {min_count} < m={micro_size} samples; "
                          f"its queue will refill within the epoch")
        self._class_queues = [_RefillQueue(self._class_permutations(c))
                              for c in range(self.num_classes)]

    def _start(self, source: DomainDataset, target: DomainDataset, micro_size: int,
               seed: int, epoch: int) -> None:
        """The checks, batch count and target queue that both plans share."""
        if source.labels is None:
            raise PipelineError("source dataset must be labeled")
        if micro_size < 1:
            raise PipelineError(f"micro_size must be >= 1, got {micro_size}")
        for name, data in (("source", source), ("target", target)):
            if len(data) < 1:
                raise PipelineError(f"{name} dataset is empty")
        if source.dim != target.dim:
            raise PipelineError(f"source dim {source.dim} != target dim {target.dim}")
        self.source = source
        self.target = target
        self.micro_size = micro_size
        self.num_classes = source.num_classes
        self.epoch = epoch
        self.seed = seed
        self.num_batches = max(int(source.class_counts().min()) // micro_size, 1)
        self._emitted = 0
        self._targets = _RefillQueue(lambda refill: RandomSource(
            seed, "plan-target", epoch, refill).permutation(len(target))[::-1])

    def _class_permutations(self, c: int):
        members = np.flatnonzero(self.source.labels == c)
        return lambda refill: members[RandomSource(
            self.seed, "plan-class", self.epoch, c, refill).permutation(len(members))][::-1]

    def _source_indices(self) -> np.ndarray:
        return np.concatenate([q.draw(self.micro_size) for q in self._class_queues])

    def __iter__(self):
        return self

    def __next__(self) -> TrainingBatch:
        if self._emitted >= self.num_batches:
            raise StopIteration
        self._emitted += 1
        src_idx = self._source_indices()
        tgt_idx = self._targets.draw(len(src_idx))
        return TrainingBatch(
            source_x=self.source.windows[src_idx],
            source_y=self.source.labels[src_idx],
            target_x=self.target.windows[tgt_idx],
            source_indices=src_idx,
            target_indices=tgt_idx,
        )


class PlainEpochPlan(EpochPlan):
    """Ablation control: uniformly shuffled batches, same size and count as micro plans."""

    def __init__(self, source: DomainDataset, target: DomainDataset, micro_size: int,
                 seed: int, epoch: int = 0):
        self._start(source, target, micro_size, seed, epoch)
        rng = RandomSource(seed, "plain-plan", epoch)   # one stream for all its permutations
        self._queue = _RefillQueue(lambda refill: rng.permutation(len(source)))

    def _source_indices(self) -> np.ndarray:
        return self._queue.draw(self.micro_size * self.num_classes)
