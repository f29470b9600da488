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

from .pipeline import DomainDataset
from .rng import RandomSource


class SamplerError(ValueError):
    pass


@dataclass
class TrainingBatch:
    """Stacked batch; in micro mode rows [j*m:(j+1)*m] form class j's blocks."""

    source_x: np.ndarray          # [rows, d]
    source_y: np.ndarray          # [rows]
    target_x: np.ndarray          # [rows, d]
    source_indices: np.ndarray
    target_indices: np.ndarray
    micro_size: int | None = None
    num_classes: int | None = None

    def __len__(self) -> int:
        return self.source_x.shape[0]


def compute_micro_size(source: DomainDataset, cap: int = 32) -> int:
    """Micro-block size m: the smallest per-class sample count, capped."""
    if cap < 1:
        raise SamplerError(f"cap must be >= 1, got {cap}")
    counts = source.class_counts()
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise SamplerError(f"classes with no samples: {empty.tolist()}")
    return int(min(counts.min(), cap))


class _TargetQueue:
    """Without-replacement target index stream that refills with a fresh permutation."""

    def __init__(self, n: int, seed: int, epoch: int):
        self.n = n
        self.seed = seed
        self.epoch = epoch
        self.refills = 0
        self._load()

    def _load(self):
        rng = RandomSource(self.seed, "plan-target", self.epoch, self.refills)
        self.queue = list(rng.permutation(self.n))

    def draw(self, k: int) -> np.ndarray:
        out = []
        while len(out) < k:
            if not self.queue:
                self.refills += 1
                self._load()
            out.append(self.queue.pop())
        return np.asarray(out, dtype=np.int64)


class EpochPlan:
    """One epoch's worth of class-balanced mini-batches (iterate to consume)."""

    def __init__(self, source: DomainDataset, target: DomainDataset, micro_size: int,
                 seed: int, epoch: int = 0, with_replacement: bool = False):
        if source.labels is None:
            raise SamplerError("source dataset must be labeled")
        if micro_size < 1:
            raise SamplerError(f"micro_size must be >= 1, got {micro_size}")
        if len(target) < 1:
            raise SamplerError("target dataset is empty")
        if source.dim != target.dim:
            raise SamplerError(f"source dim {source.dim} != target dim {target.dim}")
        counts = source.class_counts()
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise SamplerError(f"classes with no samples: {empty.tolist()}")
        min_count = int(counts.min())
        if min_count < micro_size:
            if not with_replacement:
                raise SamplerError(
                    f"smallest class has {min_count} samples, fewer than micro_size "
                    f"{micro_size}; enable with_replacement to refill")
            warnings.warn(f"smallest class has {min_count} < m={micro_size} samples; "
                          f"its queue will refill within the epoch")
        self.source = source
        self.target = target
        self.micro_size = micro_size
        self.num_classes = source.num_classes
        self.epoch = epoch
        self.seed = seed
        self.with_replacement = with_replacement
        self.num_batches = min_count // micro_size if min_count >= micro_size else 1
        self._emitted = 0
        self._class_queues = []
        self._class_refills = []
        for c in range(self.num_classes):
            self._class_queues.append(list(self._class_permutation(c, 0)))
            self._class_refills.append(0)
        self._targets = _TargetQueue(len(target), seed, epoch)

    def _class_permutation(self, c: int, refill: int) -> np.ndarray:
        rng = RandomSource(self.seed, "plan-class", self.epoch, c, refill)
        members = np.flatnonzero(self.source.labels == c)
        return members[rng.permutation(len(members))]

    def _draw_class(self, c: int) -> list:
        q = self._class_queues[c]
        out = []
        while len(out) < self.micro_size:
            if not q:
                if not self.with_replacement:
                    raise SamplerError(f"class {c} queue exhausted mid-epoch")
                self._class_refills[c] += 1
                q.extend(self._class_permutation(c, self._class_refills[c]))
            out.append(q.pop())
        return out

    def __iter__(self):
        return self

    def __next__(self) -> TrainingBatch:
        if self._emitted >= self.num_batches:
            raise StopIteration
        self._emitted += 1
        m = self.micro_size
        src_idx = np.concatenate([self._draw_class(c) for c in range(self.num_classes)]) \
            .astype(np.int64)
        tgt_idx = self._targets.draw(m * self.num_classes)
        return TrainingBatch(
            source_x=self.source.windows[src_idx],
            source_y=self.source.labels[src_idx],
            target_x=self.target.windows[tgt_idx],
            source_indices=src_idx,
            target_indices=tgt_idx,
            micro_size=m,
            num_classes=self.num_classes,
        )


class PlainEpochPlan:
    """Ablation control: uniformly shuffled batches, same size and count as micro plans."""

    def __init__(self, source: DomainDataset, target: DomainDataset, batch_size: int,
                 num_batches: int, seed: int, epoch: int = 0):
        if source.labels is None:
            raise SamplerError("source dataset must be labeled")
        if batch_size < 1 or num_batches < 1:
            raise SamplerError("batch_size and num_batches must be >= 1")
        self.source = source
        self.target = target
        self.batch_size = batch_size
        self.num_batches = num_batches
        self.epoch = epoch
        self.seed = seed
        rng = RandomSource(seed, "plain-plan", epoch)
        reps = -(-num_batches * batch_size // len(source))
        queue = np.concatenate([rng.permutation(len(source)) for _ in range(reps)])
        self._queue = queue
        self._targets = _TargetQueue(len(target), seed, epoch)
        self._emitted = 0

    def __iter__(self):
        return self

    def __next__(self) -> TrainingBatch:
        if self._emitted >= self.num_batches:
            raise StopIteration
        lo = self._emitted * self.batch_size
        self._emitted += 1
        src_idx = self._queue[lo:lo + self.batch_size].astype(np.int64)
        tgt_idx = self._targets.draw(self.batch_size)
        return TrainingBatch(
            source_x=self.source.windows[src_idx],
            source_y=self.source.labels[src_idx],
            target_x=self.target.windows[tgt_idx],
            source_indices=src_idx,
            target_indices=tgt_idx,
        )
