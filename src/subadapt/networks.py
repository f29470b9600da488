"""The three 1-D convolutional networks of the adversarial adaptation scheme.

Generator: maps a source window plus a noise vector to a target-styled
window of the same dimension. Discriminator: scores a window in (-1, 1),
positive meaning "looks like the target subject". Classifier: softmax
activity probabilities.

All convolutions use kernel size 3, stride 1 and length-preserving
padding; there is no pooling, batch norm, dropout or skip connection
anywhere. Hidden activations are relu (leaky relu 0.2 inside the
discriminator); the discriminator head is tanh, the classifier head is
softmax, the generator output is linear. Every forward takes a batch of
windows, [batch, input_dim]; a single window is a batch of one. The
generator's input (window and tiled noise) is built as data, not taped,
since no loss differentiates it.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import RandomSource
from .tensor import ShapeError, Tensor

KERNEL_SIZE = 3
LEAKY_SLOPE = 0.2
_ROW_BLOCK = 128   # rows per untaped conv block; its padded input and scratch stay cache-sized


@dataclass(frozen=True)
class GeneratorSpec:
    input_dim: int
    blocks: int = 2          # cb: conv blocks of two layers each
    filters: int = 32        # gf: filters per in-block conv layer
    noise_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {self.blocks}")
        if self.filters < 1:
            raise ValueError(f"filters must be >= 1, got {self.filters}")
        if self.noise_dim < 0:
            raise ValueError(f"noise_dim must be >= 0, got {self.noise_dim}")


@dataclass(frozen=True)
class DiscriminatorSpec:
    input_dim: int
    base_filters: int = 8    # df: the five conv layers use 2x, 4x, 8x, 4x, 2x this
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.base_filters < 1:
            raise ValueError(f"base_filters must be >= 1, got {self.base_filters}")

    @property
    def filter_counts(self) -> tuple[int, ...]:
        df = self.base_filters
        return (2 * df, 4 * df, 8 * df, 4 * df, 2 * df)


@dataclass(frozen=True)
class ClassifierSpec:
    input_dim: int
    num_classes: int
    base_filters: int = 16   # cf: layers use cf, cf/2, cf/4 (floor division)
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.base_filters < 4:
            raise ValueError(f"base_filters must be >= 4 so the third layer keeps >= 1 filter, "
                             f"got {self.base_filters}")

    @property
    def filter_counts(self) -> tuple[int, ...]:
        cf = self.base_filters
        return (cf, cf // 2, cf // 4)


def _init_uniform(rng: RandomSource, shape, limit: float) -> np.ndarray:
    return (rng.uniform(shape) * 2.0 - 1.0) * limit


def _weight_limit(fan_in: int, fan_out: int, activation: str) -> float:
    # fan-in scaling for rectifiers, fan-average for the saturating heads
    if activation in ("relu", "leaky_relu"):
        return float(np.sqrt(6.0 / fan_in))
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def _activate(t: Tensor, kind: str) -> Tensor:
    if kind == "tanh":
        return T.tanh(t)
    if kind == "softmax":
        return T.softmax(t)
    raise ValueError(f"unknown activation {kind!r}")


class ConvLayer:
    def __init__(self, name: str, in_channels: int, out_channels: int,
                 activation: str, rng: RandomSource):
        self.name = name
        self.activation = activation
        fan_in = in_channels * KERNEL_SIZE
        fan_out = out_channels * KERNEL_SIZE
        limit = _weight_limit(fan_in, fan_out, activation)
        self.kernels = Tensor(_init_uniform(rng, (out_channels, in_channels, KERNEL_SIZE), limit),
                              requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def __call__(self, t: Tensor) -> Tensor:
        return T.conv1d(t, self.kernels, self.bias, activation=self.activation, slope=LEAKY_SLOPE)

    def params(self) -> dict:
        return {"kernels": self.kernels, "bias": self.bias}


class DenseLayer:
    def __init__(self, name: str, in_features: int, units: int,
                 activation: str, rng: RandomSource):
        self.name = name
        self.in_features = in_features
        self.activation = activation
        limit = _weight_limit(in_features, units, activation)
        self.weights = Tensor(_init_uniform(rng, (units, in_features), limit), requires_grad=True)
        self.bias = Tensor(np.zeros(units), requires_grad=True)

    def __call__(self, t: Tensor) -> Tensor:
        return _activate(T.dense(t, self.weights, self.bias), self.activation)

    def params(self) -> dict:
        return {"weights": self.weights, "bias": self.bias}


def _batch(value, dim: int, what: str) -> Tensor:
    """A [batch, dim] tensor; any other shape is a ShapeError."""
    t = T.as_tensor(value)
    if t.ndim != 2:
        raise ShapeError(f"{what} must be a batch of vectors [batch, {dim}], got shape {t.shape}")
    if t.shape[1] != dim:
        raise ShapeError(f"{what} has dimension {t.shape[1]}, expected {dim}")
    return t


def _through(layers, h: Tensor) -> Tensor:
    """`h` [batch, channels, length] through the conv `layers`, 128 rows at a time when no
    tape records: a row's output does not depend on its neighbours, so the bytes are the
    whole pass's. A taped pass stays whole, or backward would re-sum the kernel gradient."""
    if T.Tape.current() is None and h.shape[0] > _ROW_BLOCK:
        return Tensor(np.concatenate([_through(layers, Tensor(h.data[lo:lo + _ROW_BLOCK])).data
                                      for lo in range(0, h.shape[0], _ROW_BLOCK)]))
    for layer in layers:
        h = layer(h)
    return h


class _Network:
    """What the three networks share: hidden `layers`, an `output_layer` and a `spec`.
    Parameters are named `<layer>.<param>`, in layer order."""
    kind: str

    def parameters(self) -> OrderedDict:
        return OrderedDict((f"{layer.name}.{pname}", p)
                           for layer in (*self.layers, self.output_layer)
                           for pname, p in layer.params().items())


class Generator(_Network):
    kind = "generator"

    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        rng = RandomSource(spec.seed, f"{self.kind}-init")
        in_channels = 2 if spec.noise_dim > 0 else 1
        self.layers: list[ConvLayer] = []
        channels = in_channels
        for b in range(spec.blocks):
            for j in range(2):
                self.layers.append(ConvLayer(f"block{b}.conv{j}", channels, spec.filters,
                                             "relu", rng))
                channels = spec.filters
        self.output_layer = ConvLayer("output", channels, 1, "linear", rng)
        if spec.filters >= 2:
            self._overlay_identity()

    def _overlay_identity(self):
        """Start as the identity map: G(x, z) = x at step zero.

        Filters 0 and 1 of every hidden layer carry relu(x) and relu(-x);
        the output layer reconstructs x as their difference and is
        otherwise zeroed. Translation should begin from the source window
        itself, not from a blank canvas, or the class correspondence
        between domains is left to chance. The remaining filters keep
        their random weights and learn the actual shift.
        """
        first = self.layers[0].kernels.data
        first[0] = 0.0
        first[1] = 0.0
        first[0, 0, 1] = 1.0
        first[1, 0, 1] = -1.0
        for layer in self.layers[1:]:
            k = layer.kernels.data
            k[0] = 0.0
            k[1] = 0.0
            k[0, 0, 1] = 1.0
            k[1, 1, 1] = 1.0
        out = self.output_layer.kernels.data
        out[:] = 0.0
        out[0, 0, 1] = 1.0
        out[0, 1, 1] = -1.0

    def forward(self, x, z=None) -> Tensor:
        """[batch, input_dim] windows and [batch, noise_dim] noise to [batch, input_dim].

        `x` and `z` are data: only the weights are trained, so no gradient reaches them,
        and the input [batch, channels, input_dim] is built as a plain array, the window
        in channel 0 and the noise tiled cyclically along the window in channel 1."""
        xb = _batch(x, self.spec.input_dim, "generator input")
        n, d = xb.shape
        h = xb.data[:, None, :]
        if self.spec.noise_dim > 0:
            if z is None:
                raise ShapeError("generator requires a noise vector (noise_dim > 0)")
            zb = _batch(z, self.spec.noise_dim, "generator noise")
            if zb.shape[0] != n:
                raise ShapeError(f"noise batch {zb.shape[0]} does not match input batch {n}")
            h = np.stack([xb.data, zb.data[:, np.arange(d) % self.spec.noise_dim]], axis=1)
        return T.reshape(_through((*self.layers, self.output_layer), Tensor(h)), (n, d))


class _ConvStack(_Network):
    """The critic's and the classifier's shape: one conv layer per `spec.filter_counts`
    entry with the `hidden` activation over a single-channel window, then a dense head
    with the `head` activation."""
    hidden: str
    head: str

    def __init__(self, spec, units: int):
        self.spec = spec
        rng = RandomSource(spec.seed, f"{self.kind}-init")
        self.layers: list[ConvLayer] = []
        channels = 1
        for i, f in enumerate(spec.filter_counts):
            self.layers.append(ConvLayer(f"conv{i}", channels, f, self.hidden, rng))
            channels = f
        self.output_layer = DenseLayer("output", channels * spec.input_dim, units,
                                       self.head, rng)

    def forward(self, x) -> Tensor:
        """[batch, input_dim] windows to the head's [batch, units] outputs; the head runs
        over all rows at once, as row blocks would change its last bits."""
        xb = _batch(x, self.spec.input_dim, f"{self.kind} input")
        n, d = xb.shape
        h = _through(self.layers, T.reshape(xb, (n, 1, d)))
        return self.output_layer(T.reshape(h, (n, self.output_layer.in_features)))


class Discriminator(_ConvStack):
    kind, hidden, head = "discriminator", "leaky_relu", "tanh"

    def __init__(self, spec: DiscriminatorSpec):
        super().__init__(spec, 1)

    def forward(self, x) -> Tensor:
        """[batch, input_dim] windows to [batch] scores in (-1, 1)."""
        out = super().forward(x)
        return T.reshape(out, (out.shape[0],))


class Classifier(_ConvStack):
    kind, hidden, head = "classifier", "relu", "softmax"

    def __init__(self, spec: ClassifierSpec):
        super().__init__(spec, spec.num_classes)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Argmax class ids for a matrix of windows (no recording)."""
        with T.paused():
            probs = self.forward(np.asarray(windows, dtype=np.float64))
        return np.argmax(probs.data, axis=-1)


@dataclass
class ModelBundle:
    generator: Generator
    discriminator: Discriminator
    classifier: Classifier

    def parameters(self) -> OrderedDict:
        return OrderedDict((f"{net.kind}.{name}", p)
                           for net in (self.generator, self.discriminator, self.classifier)
                           for name, p in net.parameters().items())


def build_bundle(gen_spec: GeneratorSpec, disc_spec: DiscriminatorSpec,
                 cls_spec: ClassifierSpec) -> ModelBundle:
    if len({gen_spec.input_dim, disc_spec.input_dim, cls_spec.input_dim}) != 1:
        raise ValueError("generator, discriminator and classifier must share one input dimension")
    return ModelBundle(Generator(gen_spec), Discriminator(disc_spec), Classifier(cls_spec))

