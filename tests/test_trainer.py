"""Adversarial loop: loss identities, gradient reach, determinism, divergence."""
import math

import numpy as np
import pytest

from subadapt.networks import (_ROW_BLOCK, Classifier, ClassifierSpec, DiscriminatorSpec,
                               GeneratorSpec, build_bundle)
from subadapt.pipeline import DomainDataset, SynthSpec, generate_synthetic_pair
from subadapt.rng import RandomSource
from subadapt.sampler import EpochPlan, TrainingBatch
from subadapt.tensor import Tape, backward
from subadapt.trainer import (DivergedError, TrainerConfig, _mean_discrepancy,
                              _plateaued, classifier_loss, discriminator_loss, generator_loss,
                              make_state, optimal_discriminator_value, train, train_classifier,
                              train_step)

DIM, CLASSES = 8, 3


def tiny_bundle(seed=0):
    return build_bundle(GeneratorSpec(DIM, blocks=1, filters=4, noise_dim=2, seed=seed),
                        DiscriminatorSpec(DIM, base_filters=2, seed=seed),
                        ClassifierSpec(DIM, num_classes=CLASSES, base_filters=8, seed=seed))


def tiny_batch(m=2, seed=0):
    rng = RandomSource(seed, "batch")
    n = m * CLASSES
    return TrainingBatch(source_x=rng.uniform((n, DIM)),
                         source_y=np.repeat(np.arange(CLASSES), m),
                         target_x=rng.uniform((n, DIM)),
                         source_indices=np.arange(n), target_indices=np.arange(n))


def tiny_domains(n=24, seed=0):
    rng = np.random.default_rng(seed)
    src = DomainDataset("s", rng.normal(size=(n, DIM)), np.arange(n) % CLASSES, CLASSES)
    tgt = DomainDataset("t", rng.normal(size=(n, DIM)), None, CLASSES)
    return src, tgt


def zero_params(net):
    for p in net.parameters().values():
        p.data[...] = 0.0


# ---------------------------------------------------------------------------
# loss identities


def test_critic_loss_is_two_at_zeroed_critic_full_targets():
    bundle = tiny_bundle()
    zero_params(bundle.discriminator)
    cfg = TrainerConfig(smoothing_pos=1.0, noise_amplitude=0.0)
    loss = discriminator_loss(bundle.discriminator, bundle.generator, tiny_batch(), cfg,
                              RandomSource(0, "t"))
    assert abs(loss.item() - 2.0) < 1e-9


def test_critic_loss_scales_with_smoothed_target():
    bundle = tiny_bundle()
    zero_params(bundle.discriminator)
    cfg = TrainerConfig(smoothing_pos=0.9, noise_amplitude=0.0)
    loss = discriminator_loss(bundle.discriminator, bundle.generator, tiny_batch(), cfg,
                              RandomSource(0, "t"))
    assert abs(loss.item() - 2 * 0.9 ** 2) < 1e-9


def test_classifier_loss_is_twice_log_classes_at_uniform_output():
    bundle = tiny_bundle()
    zero_params(bundle.classifier)
    cfg = TrainerConfig(noise_amplitude=0.0)
    loss = classifier_loss(bundle.classifier, bundle.generator, tiny_batch(), cfg,
                           RandomSource(0, "t"))
    assert abs(loss.item() - 2 * math.log(CLASSES)) < 1e-9


def test_generator_loss_combines_weighted_terms():
    bundle = tiny_bundle()
    zero_params(bundle.discriminator)
    zero_params(bundle.classifier)
    cfg = TrainerConfig(adversary_weight=2.0, classification_weight=0.5,
                        smoothing_pos=0.9, noise_amplitude=0.0)
    loss = generator_loss(bundle.generator, bundle.discriminator, bundle.classifier,
                          tiny_batch(), cfg, RandomSource(0, "t"))
    assert abs(loss.item() - (2.0 * 0.81 + 0.5 * math.log(CLASSES))) < 1e-9


def test_input_noise_perturbs_the_critic_loss():
    bundle = tiny_bundle()
    base = TrainerConfig(noise_amplitude=0.0)
    noisy = TrainerConfig(noise_amplitude=0.1)
    a = discriminator_loss(bundle.discriminator, bundle.generator, tiny_batch(), base,
                           RandomSource(0, "t"))
    b = discriminator_loss(bundle.discriminator, bundle.generator, tiny_batch(), noisy,
                           RandomSource(0, "t"))
    assert a.item() != b.item()
    # annealed all the way down, the noisy config matches the clean one
    c = discriminator_loss(bundle.discriminator, bundle.generator, tiny_batch(), noisy,
                           RandomSource(0, "t"), noise_scale=0.0)
    assert abs(a.item() - c.item()) < 1e-15


def test_optimal_critic_fixed_point():
    assert abs(optimal_discriminator_value(0.3, 0.3, 0.9, 0.1) - 0.5) < 1e-12
    assert abs(optimal_discriminator_value(0.5, 0.0, 0.9, 0.1) - 0.9) < 1e-12
    assert abs(optimal_discriminator_value(0.0, 0.7, 0.9, 0.1) - 0.1) < 1e-12
    arr = optimal_discriminator_value(np.array([0.2, 0.0]), np.array([0.2, 0.4]), 0.9, 0.1)
    assert np.allclose(arr, [0.5, 0.1], atol=1e-12)
    with pytest.raises(ValueError):
        optimal_discriminator_value(-0.1, 0.5, 0.9, 0.1)
    with pytest.raises(ValueError):
        optimal_discriminator_value(0.0, 0.0, 0.9, 0.1)


# ---------------------------------------------------------------------------
# gradient reach


def test_critic_loss_does_not_reach_generator_or_classifier():
    bundle = tiny_bundle()
    cfg = TrainerConfig()
    with Tape() as tape:
        loss = discriminator_loss(bundle.discriminator, bundle.generator, tiny_batch(), cfg,
                                  RandomSource(0, "t"))
    grads = backward(tape, loss)
    assert all(p in grads and np.any(grads[p] != 0)
               for p in bundle.discriminator.parameters().values())
    assert all(p not in grads for p in bundle.generator.parameters().values())
    assert all(p not in grads for p in bundle.classifier.parameters().values())


def test_classifier_loss_treats_generated_windows_as_constants():
    bundle = tiny_bundle()
    with Tape() as tape:
        loss = classifier_loss(bundle.classifier, bundle.generator, tiny_batch(),
                               TrainerConfig(), RandomSource(0, "t"))
    grads = backward(tape, loss)
    assert all(p in grads for p in bundle.classifier.parameters().values())
    assert all(p not in grads for p in bundle.generator.parameters().values())


def test_generator_loss_reaches_generator_parameters():
    bundle = tiny_bundle()
    with Tape() as tape:
        loss = generator_loss(bundle.generator, bundle.discriminator, bundle.classifier,
                              tiny_batch(), TrainerConfig(), RandomSource(0, "t"))
    grads = backward(tape, loss)
    gen = bundle.generator.parameters().values()
    assert all(p in grads for p in gen)
    assert any(np.any(grads[p] != 0) for p in gen)


def test_train_step_updates_every_component_once():
    bundle = tiny_bundle()
    before = {name: p.data.copy() for name, p in bundle.parameters().items()}
    cfg = TrainerConfig()
    state = make_state(cfg)
    rec = train_step(bundle, tiny_batch(), cfg, state)
    assert state.step == 1 and rec.step == 1
    for name, p in bundle.parameters().items():
        assert not np.array_equal(p.data, before[name]), f"{name} did not move"
    assert np.isfinite([rec.loss_d, rec.loss_c, rec.loss_g]).all()
    # one optimizer tick per component per step
    assert (state.opt_discriminator.step_count, state.opt_classifier.step_count,
            state.opt_generator.step_count) == (1, 1, 1)


# ---------------------------------------------------------------------------
# the full loop


def test_train_is_deterministic():
    src, tgt = tiny_domains()
    cfg = TrainerConfig(epochs=3, seed=11, micro_cap=4)

    def run():
        cls, state = train(tiny_bundle(seed=11), src, tgt, cfg)
        return state, {n: p.data.copy() for n, p in cls.parameters().items()}

    s1, p1 = run()
    s2, p2 = run()
    assert [(r.step, r.loss_d, r.loss_c, r.loss_g) for r in s1.history] == \
           [(r.step, r.loss_d, r.loss_c, r.loss_g) for r in s2.history]
    assert all(np.array_equal(p1[n], p2[n]) for n in p1)
    assert s1.mean_discrepancy == s2.mean_discrepancy


def test_train_counts_steps_and_anneals_noise():
    src, tgt = tiny_domains()  # 8 windows per class
    cfg = TrainerConfig(epochs=2, seed=0, micro_cap=4)
    cls, state = train(tiny_bundle(), src, tgt, cfg)
    assert state.step == 2 * (8 // 4)
    assert state.noise_scale == 0.5  # (epochs - last_epoch) / epochs
    assert len(state.mean_discrepancy) == 2
    assert state.stop_reason == "epoch budget exhausted"
    assert cls is not None


def test_train_zero_epochs_is_a_no_op():
    src, tgt = tiny_domains()
    bundle = tiny_bundle()
    before = {n: p.data.copy() for n, p in bundle.parameters().items()}
    _, state = train(bundle, src, tgt, TrainerConfig(epochs=0))
    assert state.step == 0
    assert state.stop_reason == "no epochs requested"
    assert all(np.array_equal(p.data, before[n]) for n, p in bundle.parameters().items())


def test_train_rejects_labeled_target_and_mismatches():
    src, tgt = tiny_domains()
    with pytest.raises(ValueError, match="unlabeled"):
        train(tiny_bundle(), src, src, TrainerConfig(epochs=1))
    with pytest.raises(ValueError, match="labeled"):
        train(tiny_bundle(), src.unlabeled(), tgt, TrainerConfig(epochs=1))
    rng = np.random.default_rng(1)
    wide = DomainDataset("t", rng.normal(size=(10, DIM + 1)), None, CLASSES)
    with pytest.raises(ValueError, match="dim"):
        train(tiny_bundle(), src, wide, TrainerConfig(epochs=1))
    wrong_classes = build_bundle(GeneratorSpec(DIM, blocks=1, filters=4, noise_dim=2),
                                 DiscriminatorSpec(DIM, base_filters=2),
                                 ClassifierSpec(DIM, num_classes=5, base_filters=8))
    with pytest.raises(ValueError, match="classes"):
        train(wrong_classes, src, tgt, TrainerConfig(epochs=1))


def test_train_supports_single_loss_generators():
    src, tgt = tiny_domains()
    for kwargs in ({"classification_weight": 0.0}, {"adversary_weight": 0.0}):
        cfg = TrainerConfig(epochs=1, micro_cap=2, **kwargs)
        _, state = train(tiny_bundle(), src, tgt, cfg)
        assert state.step > 0
    with pytest.raises(ValueError):
        TrainerConfig(adversary_weight=0.0, classification_weight=0.0)


def test_train_plain_sampler_paces_like_micro():
    src, tgt = tiny_domains()
    micro_cfg = TrainerConfig(epochs=2, micro_cap=4, seed=0)
    plain_cfg = TrainerConfig(epochs=2, micro_cap=4, seed=0, sampler="plain")
    _, micro_state = train(tiny_bundle(), src, tgt, micro_cfg)
    _, plain_state = train(tiny_bundle(), src, tgt, plain_cfg)
    assert plain_state.step == micro_state.step


def test_mean_discrepancy_shrinks_on_an_offset_shift():
    # Offset and step budget are matched: Adam moves each weight by at most
    # ~lr per step, so the shift must be reachable within epochs * batches.
    spec = SynthSpec(num_classes=2, channels=2, frames=4, class_counts=(60, 60),
                     offset=0.5, sample_noise=0.05, seed=5)
    src, tgt = generate_synthetic_pair(spec)
    cfg = TrainerConfig(epochs=30, seed=5, micro_cap=8, classification_weight=0.2,
                        lr_generator=5e-3)
    bundle = build_bundle(GeneratorSpec(DIM, blocks=1, filters=4, noise_dim=2, seed=5),
                          DiscriminatorSpec(DIM, base_filters=2, seed=5),
                          ClassifierSpec(DIM, num_classes=2, base_filters=8, seed=5))
    _, state = train(bundle, src, tgt.unlabeled(), cfg)
    assert state.mean_discrepancy[-1] < 0.8 * state.mean_discrepancy[0]


@pytest.mark.parametrize("noise_dim", [0, 2])
def test_mean_discrepancy_in_blocks_equals_one_whole_batch_forward(noise_dim):
    n = 2 * _ROW_BLOCK + 37   # two full blocks and a partial last one
    src, tgt = tiny_domains(n, seed=6)
    bundle = build_bundle(GeneratorSpec(DIM, blocks=1, filters=4, noise_dim=noise_dim),
                          DiscriminatorSpec(DIM, base_filters=2),
                          ClassifierSpec(DIM, num_classes=CLASSES, base_filters=8))
    rng = np.random.default_rng(6)
    for p in bundle.generator.parameters().values():   # off the identity start
        p.data[...] = rng.normal(size=p.shape)
    z = RandomSource(6, "discrepancy", 3).normal((n, noise_dim)) if noise_dim else None
    with Tape():   # a taped forward runs its conv layers over the whole batch at once
        fakes = bundle.generator.forward(src.windows, z).data
    whole = float(np.linalg.norm(fakes.mean(axis=0) - tgt.windows.mean(axis=0)))
    assert _mean_discrepancy(bundle, src, tgt, TrainerConfig(seed=6), 3) == whole


def test_divergence_raises_with_recovery_snapshot():
    src, tgt = tiny_domains()
    cfg = TrainerConfig(epochs=5, micro_cap=4, lr_generator=1e80,
                        lr_discriminator=1e80, lr_classifier=1e80)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedError) as info:
            train(tiny_bundle(), src, tgt, cfg)
    err = info.value
    assert err.component in ("discriminator", "classifier", "generator")
    assert err.step >= 1
    assert err.checkpoint is not None
    assert all(np.isfinite(v).all() for v in err.checkpoint.values())
    assert 0 <= err.checkpoint_step < err.step


def test_plateau_detector():
    assert not _plateaued([3.0, 3.0, 3.0], patience=2)          # not enough history
    assert _plateaued([3.0, 3.0, 3.0, 3.0], patience=2)         # flat
    assert not _plateaued([4.0, 3.0, 2.0, 1.0], patience=2)     # still improving
    assert _plateaued([1.0, 1.0, 2.0, 2.0], patience=2)         # getting worse counts too


def test_train_stops_on_plateau():
    src, tgt = tiny_domains()
    # lr of ~0 freezes the networks; only batch draws and the noise anneal
    # jitter the epoch means, so the plateau rule fires a few epochs past the
    # 2*patience history mark instead of running out the 50-epoch budget
    cfg = TrainerConfig(epochs=50, micro_cap=4, patience=3,
                        lr_generator=1e-300, lr_discriminator=1e-300, lr_classifier=1e-300)
    _, state = train(tiny_bundle(), src, tgt, cfg)
    assert state.stop_reason.startswith("plateau after epoch ")
    assert 2 * cfg.patience <= state.epoch + 1 <= 10


# ---------------------------------------------------------------------------
# supervised baseline


def separable_data(n_per_class=30, seed=0):
    rng = np.random.default_rng(seed)
    means = np.array([[4.0] * DIM, [-4.0] * DIM, [4.0, -4.0] * (DIM // 2)])
    windows = np.vstack([rng.normal(size=(n_per_class, DIM)) * 0.3 + means[c]
                         for c in range(CLASSES)])
    labels = np.repeat(np.arange(CLASSES), n_per_class)
    return DomainDataset("s", windows, labels, CLASSES)


def test_supervised_training_learns_a_separable_problem():
    data = separable_data()
    cls = Classifier(ClassifierSpec(DIM, num_classes=CLASSES, base_filters=8, seed=2))
    cfg = TrainerConfig(epochs=40, seed=2, lr_classifier=5e-3)
    cls, state = train_classifier(cls, data, cfg, batch_size=30)
    assert state.history[-1].loss_c < state.history[0].loss_c
    acc = float((cls.predict(data.windows) == data.labels).mean())
    assert acc > 0.9


def test_supervised_training_is_deterministic():
    data = separable_data()

    def run():
        cls = Classifier(ClassifierSpec(DIM, num_classes=CLASSES, base_filters=8, seed=3))
        _, state = train_classifier(cls, data, TrainerConfig(epochs=3, seed=3),
                                    batch_size=16, label="no_transfer")
        return [r.loss_c for r in state.history]

    assert run() == run()


def test_supervised_training_validation():
    data = separable_data()
    cls = Classifier(ClassifierSpec(DIM, num_classes=CLASSES, base_filters=8))
    with pytest.raises(ValueError, match="labels"):
        train_classifier(cls, data.unlabeled(), TrainerConfig(epochs=1), batch_size=8)
    narrow = Classifier(ClassifierSpec(DIM + 1, num_classes=CLASSES, base_filters=8))
    with pytest.raises(ValueError, match="dimension"):
        train_classifier(narrow, data, TrainerConfig(epochs=1), batch_size=8)


def test_supervised_divergence_detection():
    data = separable_data()
    cls = Classifier(ClassifierSpec(DIM, num_classes=CLASSES, base_filters=8))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedError) as info:
            train_classifier(cls, data, TrainerConfig(epochs=10, lr_classifier=1e80),
                             batch_size=30)
    assert info.value.checkpoint is None   # a baseline keeps no rescue snapshot
    assert info.value.step >= 1


def test_supervised_training_stops_on_plateau():
    data = separable_data()
    cls = Classifier(ClassifierSpec(DIM, num_classes=CLASSES, base_filters=8, seed=2))
    # lr of ~0 freezes the classifier; only the shuffles jitter the epoch means, so the
    # plateau rule fires a few epochs past the 2*patience history mark
    cfg = TrainerConfig(epochs=50, patience=3, lr_classifier=1e-300)
    _, state = train_classifier(cls, data, cfg, batch_size=30)
    assert state.stop_reason.startswith("plateau after epoch ")
    assert 2 * cfg.patience <= state.epoch + 1 == len(state.epoch_means) <= 10
    assert state.step == len(state.history) == 3 * (state.epoch + 1)
