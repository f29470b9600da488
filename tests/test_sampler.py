"""Batching: class-balanced micro-blocks, target refills, the plain control."""
import hashlib

import numpy as np
import pytest

from subadapt.pipeline import DomainDataset, PipelineError
from subadapt.sampler import EpochPlan, PlainEpochPlan, compute_micro_size


def labeled(counts, dim=4, seed=0):
    labels = np.concatenate([np.full(c, j) for j, c in enumerate(counts)])
    rng = np.random.default_rng(seed)
    labels = labels[rng.permutation(len(labels))]
    return DomainDataset("src", rng.normal(size=(len(labels), dim)), labels, len(counts))


def unlabeled(n, dim=4, seed=1):
    return DomainDataset("tgt", np.random.default_rng(seed).normal(size=(n, dim)), None, 3)


def test_micro_size_is_min_count_capped():
    assert compute_micro_size(labeled([50, 40, 60]), cap=32) == 32
    assert compute_micro_size(labeled([50, 7, 60]), cap=32) == 7
    assert compute_micro_size(labeled([50, 40, 60]), cap=16) == 16
    with pytest.raises(PipelineError, match="cap must be >= 1, got 0"):
        compute_micro_size(labeled([50, 40, 60]), cap=0)
    with pytest.raises(PipelineError, match=r"classes with no samples: \[1\]"):
        compute_micro_size(DomainDataset("s", np.zeros((3, 2)), [0, 0, 2], 3), cap=32)


def test_each_batch_holds_exactly_m_per_class():
    src, tgt = labeled([10, 13, 11]), unlabeled(17)
    plan = EpochPlan(src, tgt, micro_size=3, seed=5)
    batches = list(plan)
    assert len(batches) == 10 // 3
    for batch in batches:
        assert len(batch) == 9
        counts = np.bincount(batch.source_y, minlength=3)
        assert np.array_equal(counts, [3, 3, 3])
        # rows are ordered class-block by class-block
        assert np.array_equal(batch.source_y, np.repeat([0, 1, 2], 3))
        assert batch.target_x.shape == (9, 4)


def test_no_source_index_repeats_within_an_epoch():
    src, tgt = labeled([20, 25, 23]), unlabeled(9)
    plan = EpochPlan(src, tgt, micro_size=4, seed=2)
    seen = np.concatenate([b.source_indices for b in plan])
    assert len(seen) == len(set(seen.tolist()))


def test_target_queue_refills_without_replacement_blocks():
    # 9 targets, 5 batches of 6 target rows: refills must cycle full permutations
    src, tgt = labeled([20, 20], dim=2), unlabeled(9, dim=2)
    plan = EpochPlan(src, tgt, micro_size=3, seed=3)
    drawn = np.concatenate([b.target_indices for b in plan])
    assert len(drawn) == 36
    # first 9 draws exhaust every index exactly once, and so on per refill
    for lo in range(0, 36, 9):
        chunk = drawn[lo:lo + 9]
        if len(chunk) == 9:
            assert sorted(chunk.tolist()) == list(range(9))


def test_epochs_shuffle_differently_but_reruns_replay():
    src, tgt = labeled([12, 12]), unlabeled(10)
    a0 = [b.source_indices for b in EpochPlan(src, tgt, 3, seed=7, epoch=0)]
    a0_again = [b.source_indices for b in EpochPlan(src, tgt, 3, seed=7, epoch=0)]
    a1 = [b.source_indices for b in EpochPlan(src, tgt, 3, seed=7, epoch=1)]
    assert all(np.array_equal(x, y) for x, y in zip(a0, a0_again))
    assert not all(np.array_equal(x, y) for x, y in zip(a0, a1))


def test_small_class_requires_replacement_opt_in():
    # there is no opt-in any more: both plans refuse an m above the smallest
    # class, and neither takes a with_replacement argument
    src, tgt = labeled([2, 20, 20]), unlabeled(10)
    for plan_cls in (EpochPlan, PlainEpochPlan):
        with pytest.raises(PipelineError, match="smallest class has 2 samples, fewer than "
                                                "micro_size 3"):
            plan_cls(src, tgt, micro_size=3, seed=0)
        with pytest.raises(TypeError, match="with_replacement"):
            plan_cls(src, tgt, micro_size=3, seed=0, with_replacement=True)
        # at m = 2 one batch of 6 rows runs, and no source row is drawn twice
        (batch,) = list(plan_cls(src, tgt, micro_size=2, seed=0))
        assert len(set(batch.source_indices.tolist())) == 6


def test_plan_validation():
    src, tgt = labeled([10, 10]), unlabeled(10)
    with pytest.raises(PipelineError, match="labeled"):
        EpochPlan(src.unlabeled(), tgt, 2, seed=0)
    with pytest.raises(PipelineError, match="micro_size"):
        EpochPlan(src, tgt, 0, seed=0)
    with pytest.raises(PipelineError, match="empty"):
        EpochPlan(src, tgt.take([]), 2, seed=0)
    with pytest.raises(PipelineError, match="dim"):
        EpochPlan(src, unlabeled(5, dim=3), 2, seed=0)
    with pytest.raises(PipelineError, match="no samples"):
        EpochPlan(DomainDataset("s", np.zeros((4, 4)), [0, 0, 1, 1], 3), tgt, 1, seed=0)


def test_plain_plan_matches_size_and_count_without_balancing():
    src, tgt = labeled([40, 8, 40]), unlabeled(30)
    m = compute_micro_size(src, cap=32)  # 8
    micro = EpochPlan(src, tgt, m, seed=4)
    plain = PlainEpochPlan(src, tgt, m, seed=4)
    micro_batches, plain_batches = list(micro), list(plain)
    assert len(plain_batches) == len(micro_batches) == 1
    assert len(plain_batches[0]) == len(micro_batches[0]) == 24
    # plain batches follow the marginal class distribution, not the balanced one
    totals = np.zeros(3, dtype=np.int64)
    for epoch in range(30):
        for b in PlainEpochPlan(src, tgt, 8, seed=4, epoch=epoch):
            totals += np.bincount(b.source_y, minlength=3)
    assert totals[1] < totals[0] * 0.5  # minority is rare, as in the raw data


def test_plain_plan_draws_whole_permutations():
    # m=3 over two classes of 3: one batch of 6 rows from a 6-row source, so the
    # batch is one whole permutation of the source, each row drawn once
    src, tgt = labeled([3, 3]), unlabeled(5)
    (batch,) = list(PlainEpochPlan(src, tgt, 3, seed=0))
    assert sorted(batch.source_indices.tolist()) == list(range(6))


def test_plain_plan_validation():
    src, tgt = labeled([5, 5]), unlabeled(5)
    with pytest.raises(PipelineError, match="source dataset must be labeled"):
        PlainEpochPlan(src.unlabeled(), tgt, 2, seed=0)
    with pytest.raises(PipelineError, match="micro_size must be >= 1, got 0"):
        PlainEpochPlan(src, tgt, 0, seed=0)
    with pytest.raises(PipelineError, match="target dataset is empty"):
        PlainEpochPlan(src, tgt.take([]), 2, seed=0)


# sha256 of every batch's source then target indices, int64 little-endian, over
# epochs 0-2; the plans draw no floats, so the digests hold on every BLAS kernel
STREAM_PINS = {
    "micro": (EpochPlan, [13, 9, 11], 3,
              "dcd4cc9100d0bbdbd4a58001053aaf5082a975125fe06bf1783d0b70165ff000"),
    "plain": (PlainEpochPlan, [13, 9, 11], 3,
              "bb791a97122142a7151aa5a153956622b372040629298b6c87737714afbdaf11"),
}


@pytest.mark.parametrize("case", sorted(STREAM_PINS))
def test_index_streams_are_pinned(case):
    plan_cls, counts, m, expected = STREAM_PINS[case]
    src, tgt = labeled(counts), unlabeled(10)
    digest = hashlib.sha256()
    for epoch in range(3):
        for b in plan_cls(src, tgt, m, seed=5, epoch=epoch):
            digest.update(b.source_indices.astype("<i8").tobytes())
            digest.update(b.target_indices.astype("<i8").tobytes())
    assert digest.hexdigest() == expected
