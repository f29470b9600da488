"""In-memory spans around the public calls of each subadapt module.

`install(tracer)` wraps module and class attributes from the outside, so
the package itself is unchanged: every call a stage makes through a wrapped
name opens a span (name, start, end, parent) and, where the layer does
countable work, attaches the count. Backward time per layer comes from
wrapping the gradient closure that each wrapped `conv1d`/`dense` call
leaves on `Tape.current().ops`; its FLOPs and bytes are computed from the
operand shapes, not measured.

Spans stay in memory; client.py writes them out once, with the client's
run id, when the client process ends.
"""
from __future__ import annotations

import functools
import os
import time

BYTES_PER_ELEMENT = 8   # the autodiff core is float64 throughout


class Tracer:
    def __init__(self):
        self.spans: list = []      # [id, parent, name, start, end, attrs]
        self._stack: list = []
        self.net = None            # network whose forward is running
        self.layer = None          # layer.<net>.<layer> whose call is running
        self.loss = None           # d/c/g inside a train step, "baseline" in train_classifier

    def open(self, name: str, attrs: dict | None = None) -> list:
        span = [len(self.spans), self._stack[-1][0] if self._stack else None, name,
                time.perf_counter(), None, attrs]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[2]} closed out of order")


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return wrapper


def _cost(macs, x_size, w_size, o_size, n_bias, needs) -> tuple[int, int]:
    """Computed (flop, bytes) of a forward (needs is None) or of the gradients in needs.

    Forward and each of d_input / d_weights is one multiply-add per mac,
    reading two operands and writing one; d_bias sums the output gradient.
    """
    if needs is None:
        return 2 * macs, BYTES_PER_ELEMENT * (x_size + w_size + o_size)
    flop = moved = 0
    for need in needs[:2]:
        if need:
            flop += 2 * macs
            moved += o_size + x_size + w_size
    if len(needs) > 2 and needs[2]:
        flop += o_size
        moved += o_size + n_bias
    return flop, BYTES_PER_ELEMENT * moved


def _conv_cost(x_shape, k_shape, out_shape, needs) -> tuple[int, int]:
    batch = out_shape[0] if len(out_shape) == 3 else 1
    n_out, n_in, width = k_shape
    return _cost(batch * n_out * n_in * width * out_shape[-1], batch * n_in * x_shape[-1],
                 n_out * n_in * width, batch * n_out * out_shape[-1], n_out, needs)


def _dense_cost(x_shape, w_shape, out_shape, needs) -> tuple[int, int]:
    rows = x_shape[0] if len(x_shape) == 2 else 1
    units, features = w_shape
    return _cost(rows * units * features, rows * features, units * features, rows * units,
                 units, needs)


def _op_wrapper(tracer: Tracer, T, kind: str, fn, cost):
    """Wrap tensor.conv1d / tensor.dense: a forward span, and a span around its gradient closure."""
    @functools.wraps(fn)
    def wrapper(x, weights, bias=None, *args, **kwargs):
        tape = T.Tape.current()
        before = len(tape.ops) if tape is not None else 0
        layer = tracer.layer
        span = tracer.open(f"tensor.{kind}.fwd", {"layer": layer})
        try:
            out = fn(x, weights, bias, *args, **kwargs)
        finally:
            tracer.close(span)
        x_shape = T.as_tensor(x).shape
        w_shape = T.as_tensor(weights).shape
        span[5]["flop"], span[5]["bytes"] = cost(x_shape, w_shape, out.shape, None)
        if tape is not None and len(tape.ops) > before:
            op = tape.ops[-1]
            grad_fn = op.grad_fn

            def timed_grad(g, needs):
                bspan = tracer.open(f"tensor.{kind}.bwd", {"layer": layer})
                try:
                    return grad_fn(g, needs)
                finally:
                    tracer.close(bspan)
                    bspan[5]["flop"], bspan[5]["bytes"] = cost(x_shape, w_shape, out.shape, needs)
            op.grad_fn = timed_grad
        return out
    return wrapper


def _network_forward(tracer: Tracer, net: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = tracer.net
        tracer.net = net
        span = tracer.open(f"networks.{net}.fwd")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
            tracer.net = outer
    return wrapper


def _layer_call(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, t):
        outer = tracer.layer
        tracer.layer = f"layer.{tracer.net}.{self.name}"
        span = tracer.open(f"{tracer.layer}.fwd")
        try:
            return fn(self, t)
        finally:
            tracer.close(span)
            tracer.layer = outer
    return wrapper


def _labelled(tracer: Tracer, label: str | None, name: str, fn):
    """Span a loss (or a train step, or baseline training) and label the backward calls after it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.loss = label
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return wrapper


def _backward(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(tape, loss):
        span = tracer.open("tensor.backward", {"loss": tracer.loss, "tape_ops": len(tape.ops)})
        try:
            grads = fn(tape, loss)
        finally:
            tracer.close(span)
        span[5]["elems"] = sum(g.size for g in grads.values())
        return grads
    return wrapper


def _optimizer_step(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(params, grads, state):
        span = tracer.open("optim.step", {"loss": tracer.loss,
                                          "elems": sum(grads[k].size for k in params)})
        try:
            return fn(params, grads, state)
        finally:
            tracer.close(span)
    return wrapper


def _checkpoint_save(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(models, path, *args, **kwargs):
        span = tracer.open("checkpoint.save")
        try:
            return fn(models, path, *args, **kwargs)
        finally:
            tracer.close(span)
            span[5] = {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer; call once per process, before cli.main."""
    from subadapt import evaluation, harness, networks, pipeline, sampler, trainer
    from subadapt import tensor as T

    for stage in ("prepare", "train", "baselines", "evaluate", "synth"):
        setattr(harness, f"{stage}_run",
                _spanned(tracer, f"harness.{stage}", getattr(harness, f"{stage}_run")))
    for fn_name, layer in (("load_recordings", "load_recordings"), ("impute_missing", "impute"),
                           ("segment_windows", "segment"), ("fit_pca", "fit_pca"),
                           ("apply_pca", "apply_pca"), ("generate_synthetic_pair", "generate"),
                           ("save_recordings_csv", "csv_write")):
        setattr(harness, fn_name, _spanned(tracer, f"pipeline.{layer}", getattr(harness, fn_name)))
    dataset = pipeline.DomainDataset
    dataset.save = _spanned(tracer, "pipeline.save", dataset.save)
    dataset.load = staticmethod(_spanned(tracer, "pipeline.load", dataset.load))
    harness.save_bundle = _checkpoint_save(tracer, harness.save_bundle)
    harness.save_checkpoint = _checkpoint_save(tracer, harness.save_checkpoint)
    harness.load_checkpoint = _spanned(tracer, "checkpoint.load", harness.load_checkpoint)
    evaluation.report = _spanned(tracer, "evaluation.report", evaluation.report)
    harness.train_classifier = _labelled(tracer, "baseline", "trainer.train_classifier",
                                         harness.train_classifier)

    trainer.train_step = _labelled(tracer, None, "trainer.step", trainer.train_step)
    for label, name in (("d", "discriminator_loss"), ("c", "classifier_loss"),
                        ("g", "generator_loss")):
        setattr(trainer, name, _labelled(tracer, label, f"trainer.loss_{label}.fwd",
                                         getattr(trainer, name)))
    trainer.backward = _backward(tracer, trainer.backward)
    trainer.optimizer_step = _optimizer_step(tracer, trainer.optimizer_step)
    sampler.EpochPlan.__next__ = _spanned(tracer, "sampler.batch", sampler.EpochPlan.__next__)

    T.conv1d = _op_wrapper(tracer, T, "conv1d", T.conv1d, _conv_cost)
    T.dense = _op_wrapper(tracer, T, "dense", T.dense, _dense_cost)
    for cls, net in ((networks.Generator, "generator"), (networks.Discriminator, "discriminator"),
                     (networks.Classifier, "classifier")):
        cls.forward = _network_forward(tracer, net, cls.forward)
    networks.Classifier.predict = _spanned(tracer, "networks.classifier.predict",
                                           networks.Classifier.predict)
    networks.ConvLayer.__call__ = _layer_call(tracer, networks.ConvLayer.__call__)
    networks.DenseLayer.__call__ = _layer_call(tracer, networks.DenseLayer.__call__)
