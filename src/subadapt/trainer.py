"""Three-player least-squares adversarial training.

Per mini-batch the updates run in a fixed order: domain critic, then
classifier, then generator, each on freshly drawn input noise and noise
vectors. The critic regresses its tanh output toward smoothed targets
(+a for real target windows, -a for generated ones); the classifier takes
cross-entropy on real and generated source-labeled windows; the generator
descends a weighted sum of the non-saturating critic term and the
generated-sample cross-entropy.

Every loss is bounded by construction, so divergence is detected by a
finiteness check on each loss value before its update is applied.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .networks import ModelBundle, Classifier
from .optim import OptimizerState, optimizer_step
from .pipeline import DomainDataset
from .rng import RandomSource
from .sampler import EpochPlan, PlainEpochPlan, TrainingBatch, compute_micro_size
from .tensor import Tape, Tensor, backward, paused

PLATEAU_DELTA = 1e-3


class DivergedError(RuntimeError):
    """A loss went non-finite; carries the last parameter snapshot that was healthy and
    the number of steps taken when it was taken."""

    def __init__(self, component: str, step: int, checkpoint: dict | None,
                 checkpoint_step: int = 0):
        super().__init__(f"training diverged in the {component} loss at step {step}")
        self.component = component
        self.step = step
        self.checkpoint = checkpoint
        self.checkpoint_step = checkpoint_step

    def __reduce__(self):   # pickled by its fields, as a forked baseline job sends it back
        return type(self), (self.component, self.step, self.checkpoint, self.checkpoint_step)


@dataclass
class TrainerConfig:
    adversary_weight: float = 1.0        # mu
    classification_weight: float = 1.0   # lambda
    epochs: int = 150
    micro_cap: int = 32                  # m: the smallest source class count, capped here
    sampler: str = "micro"               # "plain" is the ablation control
    smoothing_pos: float = 0.9           # a: critic regression target magnitude
    noise_amplitude: float = 0.1         # input noise, annealed linearly to 0
    lr_generator: float = 1e-3
    lr_discriminator: float = 1e-3
    lr_classifier: float = 1e-3
    seed: int = 0
    patience: int = 25

    def __post_init__(self):
        if self.adversary_weight < 0 or self.classification_weight < 0:
            raise ValueError("loss weights must be >= 0")
        if self.adversary_weight == 0 and self.classification_weight == 0:
            raise ValueError("at least one loss weight must be positive")
        if not (0.0 < self.smoothing_pos <= 1.0):
            raise ValueError(f"smoothing_pos must lie in (0, 1], got {self.smoothing_pos}")
        if self.noise_amplitude < 0:
            raise ValueError("noise_amplitude must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.micro_cap < 1:
            raise ValueError("micro_cap must be >= 1")
        if self.sampler not in ("micro", "plain"):
            raise ValueError(f"sampler must be 'micro' or 'plain', got {self.sampler!r}")
        for name in ("lr_generator", "lr_discriminator", "lr_classifier"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class StepRecord:
    step: int
    epoch: int
    loss_d: float
    loss_c: float
    loss_g: float


@dataclass
class TrainState:
    """Everything a training loop carries from one step or epoch to the next."""
    opt_classifier: OptimizerState
    rng: RandomSource
    opt_generator: OptimizerState | None = None       # None in a baseline run
    opt_discriminator: OptimizerState | None = None
    epoch: int = 0
    step: int = 0
    noise_scale: float = 1.0
    history: list = field(default_factory=list)
    mean_discrepancy: list = field(default_factory=list)
    epoch_means: list = field(default_factory=list)   # the plateau window, one per epoch run
    stop_reason: str = ""
    last_good: dict | None = None
    last_good_step: int = 0


def make_state(cfg: TrainerConfig) -> TrainState:
    return TrainState(
        opt_generator=OptimizerState(learning_rate=cfg.lr_generator),
        opt_discriminator=OptimizerState(learning_rate=cfg.lr_discriminator),
        opt_classifier=OptimizerState(learning_rate=cfg.lr_classifier),
        rng=RandomSource(cfg.seed, "trainer"),
    )


def _generated(generator, batch: TrainingBatch, rng: RandomSource, live: bool) -> Tensor:
    n = batch.source_x.shape[0]
    z = Tensor(rng.normal((n, generator.spec.noise_dim))) \
        if generator.spec.noise_dim > 0 else None
    if live:
        return generator.forward(Tensor(batch.source_x), z)
    with paused():
        return generator.forward(Tensor(batch.source_x), z)


def _input_noise(rng: RandomSource, shape, amplitude: float) -> Tensor:
    # drawn unconditionally so the stream advances identically when amplitude hits 0
    return Tensor(rng.uniform(shape) * amplitude)


def discriminator_loss(disc, gen, batch: TrainingBatch, cfg: TrainerConfig,
                       rng: RandomSource, noise_scale: float = 1.0) -> Tensor:
    """Mean squared distance of critic outputs from +a on real and -a on generated."""
    amp = cfg.noise_amplitude * noise_scale
    fakes = _generated(gen, batch, rng, live=False)
    real = T.add(Tensor(batch.target_x), _input_noise(rng, batch.target_x.shape, amp))
    fake = T.add(fakes, _input_noise(rng, fakes.shape, amp))
    a = cfg.smoothing_pos
    return T.mean_all(T.square(a - disc.forward(real))) + \
        T.mean_all(T.square(a + disc.forward(fake)))


def _cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    return -T.mean_all(T.log_clamped(T.pick(probs, labels)))


def classifier_loss(cls, gen, batch: TrainingBatch, cfg: TrainerConfig,
                    rng: RandomSource) -> Tensor:
    """Cross-entropy on real source windows plus their generated counterparts."""
    fakes = _generated(gen, batch, rng, live=False)
    return _cross_entropy(cls.forward(Tensor(batch.source_x)), batch.source_y) + \
        _cross_entropy(cls.forward(fakes), batch.source_y)


def generator_loss(gen, disc, cls, batch: TrainingBatch, cfg: TrainerConfig,
                   rng: RandomSource, noise_scale: float = 1.0) -> Tensor:
    """Non-saturating critic term plus generated-sample cross-entropy, weighted."""
    amp = cfg.noise_amplitude * noise_scale
    fakes = _generated(gen, batch, rng, live=True)
    fake = T.add(fakes, _input_noise(rng, fakes.shape, amp))
    adv = T.mean_all(T.square(cfg.smoothing_pos - disc.forward(fake)))
    ce = _cross_entropy(cls.forward(fakes), batch.source_y)
    return cfg.adversary_weight * adv + cfg.classification_weight * ce


def optimal_discriminator_value(p_target, p_generated, alpha: float, beta: float):
    """Fixed point of the critic objective at given real/generated densities."""
    p_t = np.asarray(p_target, dtype=np.float64)
    p_g = np.asarray(p_generated, dtype=np.float64)
    if np.any(p_t < 0) or np.any(p_g < 0):
        raise ValueError("densities must be >= 0")
    denom = p_t + p_g
    if np.any(denom <= 0):
        raise ValueError("p_target + p_generated must be positive where evaluated")
    out = (alpha * p_t + beta * p_g) / denom
    return float(out) if out.ndim == 0 else out


def _snapshot(bundle: ModelBundle) -> dict:
    return {name: p.data.copy() for name, p in bundle.parameters().items()}


def _update(state: TrainState, component: str, params: dict, opt: OptimizerState,
            loss_fn) -> float:
    """Tape loss_fn(), check the loss is finite, then one Adam step on params."""
    with Tape() as tape:
        loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise DivergedError(component, state.step + 1, state.last_good, state.last_good_step)
    grads = backward(tape, loss)
    optimizer_step(params, {n: grads[p] for n, p in params.items()}, opt)
    return loss.item()


def train_step(bundle: ModelBundle, batch: TrainingBatch, cfg: TrainerConfig,
               state: TrainState) -> StepRecord:
    """One critic -> classifier -> generator update on a single batch."""
    gen, disc, cls = bundle.generator, bundle.discriminator, bundle.classifier
    rng, scale = state.rng, state.noise_scale
    loss_d = _update(state, "discriminator", disc.parameters(), state.opt_discriminator,
                     lambda: discriminator_loss(disc, gen, batch, cfg, rng, scale))
    loss_c = _update(state, "classifier", cls.parameters(), state.opt_classifier,
                     lambda: classifier_loss(cls, gen, batch, cfg, rng))
    loss_g = _update(state, "generator", gen.parameters(), state.opt_generator,
                     lambda: generator_loss(gen, disc, cls, batch, cfg, rng, scale))
    state.step += 1
    rec = StepRecord(state.step, state.epoch, loss_d, loss_c, loss_g)
    state.history.append(rec)
    return rec


def _mean_discrepancy(bundle: ModelBundle, source: DomainDataset, target: DomainDataset,
                      cfg: TrainerConfig, epoch: int) -> float:
    """Distance between the generated-sample mean and the target-sample mean."""
    nd = bundle.generator.spec.noise_dim
    z = RandomSource(cfg.seed, "discrepancy", epoch).normal((len(source), nd)) if nd > 0 else None
    with paused():   # untaped, the generator runs its conv layers in networks' row blocks
        fakes = bundle.generator.forward(source.windows, z).data
    return float(np.linalg.norm(fakes.mean(axis=0) - target.windows.mean(axis=0)))


def _plateaued(epoch_means: list, patience: int) -> bool:
    if len(epoch_means) < 2 * patience:
        return False
    recent = float(np.mean(epoch_means[-patience:]))
    previous = float(np.mean(epoch_means[-2 * patience:-patience]))
    return previous - recent < PLATEAU_DELTA


def _run_epochs(state: TrainState, cfg: TrainerConfig, run_epoch) -> None:
    """The epoch loop of both trainings: run_epoch(epoch) trains one epoch and returns the
    losses the plateau rule watches; the loop stops at a plateau or at cfg.epochs. A loss
    that overflows ends in a DivergedError, not in numpy's warnings."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            state.epoch = epoch
            state.epoch_means.append(float(np.mean(run_epoch(epoch))))
            if _plateaued(state.epoch_means, cfg.patience):
                state.stop_reason = f"plateau after epoch {epoch + 1}"
                return
    state.stop_reason = "epoch budget exhausted" if cfg.epochs else "no epochs requested"


def train(bundle: ModelBundle, source: DomainDataset, target: DomainDataset,
          cfg: TrainerConfig):
    """Adversarial adaptation loop; returns (classifier, state).

    The target dataset must be unlabeled: strip evaluation labels with
    DomainDataset.unlabeled() first. Labels are never read from the target.
    """
    if source.labels is None:
        raise ValueError("source dataset must be labeled")
    if target.labels is not None:
        raise ValueError("target dataset must be unlabeled during adaptation "
                         "(call .unlabeled() on it)")
    if source.dim != target.dim:
        raise ValueError(f"source dim {source.dim} != target dim {target.dim}")
    for net in (bundle.generator, bundle.discriminator, bundle.classifier):
        if net.spec.input_dim != source.dim:
            raise ValueError(f"{net.kind} expects dimension "
                             f"{net.spec.input_dim}, data has {source.dim}")
    if bundle.classifier.spec.num_classes != source.num_classes:
        raise ValueError(f"classifier has {bundle.classifier.spec.num_classes} classes, "
                         f"source has {source.num_classes}")

    micro = compute_micro_size(source, cfg.micro_cap)
    state = make_state(cfg)
    state.last_good = _snapshot(bundle)

    def run_epoch(epoch: int) -> list:
        state.noise_scale = (cfg.epochs - epoch) / cfg.epochs
        # the plain plan is the ablation control: same batch size and pacing, no class structure
        plan = (EpochPlan if cfg.sampler == "micro" else PlainEpochPlan)(
            source, target, micro, cfg.seed, epoch)
        losses_g = [train_step(bundle, batch, cfg, state).loss_g for batch in plan]
        state.mean_discrepancy.append(_mean_discrepancy(bundle, source, target, cfg, epoch))
        state.last_good, state.last_good_step = _snapshot(bundle), state.step
        return losses_g

    _run_epochs(state, cfg, run_epoch)
    return bundle.classifier, state


def train_classifier(classifier: Classifier, data: DomainDataset, cfg: TrainerConfig,
                     batch_size: int, label: str = "supervised"):
    """Plain supervised cross-entropy training (the transfer baselines); returns
    (classifier, state)."""
    if data.labels is None:
        raise ValueError("supervised training needs labels")
    if classifier.spec.input_dim != data.dim:
        raise ValueError(f"classifier expects dimension {classifier.spec.input_dim}, "
                         f"data has {data.dim}")
    batch_size = min(batch_size, len(data))
    params = classifier.parameters()
    state = TrainState(opt_classifier=OptimizerState(learning_rate=cfg.lr_classifier),
                       rng=RandomSource(cfg.seed, "baseline", label))

    def run_epoch(epoch: int) -> list:
        perm = state.rng.permutation(len(data))
        losses = []
        for lo in range(0, len(data) - batch_size + 1, batch_size):
            idx = perm[lo:lo + batch_size]
            loss = _update(state, "classifier", params, state.opt_classifier,
                           lambda: _cross_entropy(classifier.forward(Tensor(data.windows[idx])),
                                                  data.labels[idx]))
            state.step += 1
            state.history.append(StepRecord(state.step, epoch, 0.0, loss, 0.0))
            losses.append(loss)
        return losses

    _run_epochs(state, cfg, run_epoch)
    return classifier, state
