"""Class-balanced micro-block batching.

Each training mini-batch stacks one micro-block of m source samples per
class (so every class contributes exactly m labeled samples) together with
m unlabeled target samples per class slot. A plan draws its whole epoch when
it is built: each class's blocks are the leading rows of one permutation of
that class, re-derived from (seed, epoch) every epoch, so no source index
repeats within an epoch.

A plain uniformly-shuffled plan with the same batch size and batch count
is also provided as the ablation control.
"""
from __future__ import annotations

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


def _smallest_class(source: DomainDataset) -> int:
    counts = source.class_counts()
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise PipelineError(f"classes with no samples: {empty.tolist()}")
    return int(counts.min())


def compute_micro_size(source: DomainDataset, cap: int) -> int:
    """Micro-block size m: the smallest per-class sample count, capped."""
    if cap < 1:
        raise PipelineError(f"cap must be >= 1, got {cap}")
    return min(_smallest_class(source), cap)


class EpochPlan:
    """One epoch's worth of class-balanced mini-batches (iterate to consume).

    Every plan runs min_count // m batches of m rows per class, where min_count
    is the smallest source class count; an m above it is refused. The target
    rows come from whole permutations of the target laid end to end.
    """

    def __init__(self, source: DomainDataset, target: DomainDataset, micro_size: int,
                 seed: int, epoch: int = 0):
        if source.labels is None:
            raise PipelineError("source dataset must be labeled")
        if micro_size < 1:
            raise PipelineError(f"micro_size must be >= 1, got {micro_size}")
        for name, data in (("source", source), ("target", target)):
            if len(data) < 1:
                raise PipelineError(f"{name} dataset is empty")
        if source.dim != target.dim:
            raise PipelineError(f"source dim {source.dim} != target dim {target.dim}")
        min_count = _smallest_class(source)
        if min_count < micro_size:
            raise PipelineError(f"smallest class has {min_count} samples, fewer than "
                                f"micro_size {micro_size}")
        self.source = source
        self.target = target
        self.micro_size = micro_size
        self.num_classes = source.num_classes
        self.epoch = epoch
        self.seed = seed
        self.num_batches = min_count // micro_size
        self._emitted = 0
        self._source_rows = self._draw_source()   # [num_batches, m * classes]
        rows = self._source_rows.size
        self._target_rows = np.concatenate([
            RandomSource(seed, "plan-target", epoch, refill).permutation(len(target))[::-1]
            for refill in range(rows // len(target) + 1)])[:rows].reshape(self._source_rows.shape)

    def _draw_source(self) -> np.ndarray:
        """Class c's blocks: the leading rows of its one reversed permutation."""
        k = self.num_batches * self.micro_size
        blocks = []
        for c in range(self.num_classes):
            members = np.flatnonzero(self.source.labels == c)
            # the trailing 0 names the stream's first permutation; the pinned streams hold it
            order = RandomSource(self.seed, "plan-class", self.epoch, c, 0).permutation(len(members))
            blocks.append(members[order][::-1][:k].reshape(self.num_batches, self.micro_size))
        return np.concatenate(blocks, axis=1)

    def __iter__(self):
        return self

    def __next__(self) -> TrainingBatch:
        if self._emitted >= self.num_batches:
            raise StopIteration
        src_idx = self._source_rows[self._emitted]
        tgt_idx = self._target_rows[self._emitted]
        self._emitted += 1
        return TrainingBatch(
            source_x=self.source.windows[src_idx],
            source_y=self.source.labels[src_idx],
            target_x=self.target.windows[tgt_idx],
            source_indices=src_idx,
            target_indices=tgt_idx,
        )


class PlainEpochPlan(EpochPlan):
    """Ablation control: uniformly shuffled batches, same size and count as micro plans."""

    def _draw_source(self) -> np.ndarray:
        rows = self.num_batches * self.micro_size * self.num_classes
        return RandomSource(self.seed, "plain-plan", self.epoch).permutation(
            len(self.source))[:rows].reshape(self.num_batches, -1)
