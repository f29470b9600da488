"""Dense float64 tensors with taped reverse-mode differentiation.

Operations executed while a Tape is active are appended to it in execution
order, which is already a topological order of the computation graph.
backward() walks the recorded operations once in reverse and returns the
gradient of every tensor marked requires_grad. Everything is float64;
no other dtype is ever created.

The op set is intentionally closed: exactly what the three networks and
their training losses need (1-D convolution, dense layers, the activations,
elementwise arithmetic, reductions, a clamped log, and the bookkeeping ops
reshape/pick).
"""
from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract (a non-scalar loss among them)."""


_TAPES: list = []   # active tapes, innermost last; None while recording is paused


class Tensor:
    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # arithmetic sugar so loss code reads like the algebra it implements
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class TapeOp:
    """One recorded operation: inputs, output and a gradient fn."""

    __slots__ = ("name", "inputs", "output", "grad_fn", "needs")

    def __init__(self, name, inputs, output, grad_fn, needs):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn
        self.needs = needs


class Tape:
    """Ordered record of operations; the innermost entered tape is the active one."""

    def __init__(self):
        self.ops: list[TapeOp] = []
        self._tracked: set[int] = set()

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPES.pop()
        assert popped is self

    @staticmethod
    def current() -> "Tape | None":
        return _TAPES[-1] if _TAPES else None


class paused:
    """Context manager suspending recording (used for constant side computations)."""

    def __enter__(self):
        _TAPES.append(None)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()


def _record(name, output: Tensor, inputs: tuple, grad_fn) -> None:
    tape = Tape.current()
    if tape is None:
        return
    needs = tuple(t.requires_grad or id(t) in tape._tracked for t in inputs)
    if any(needs):
        tape._tracked.add(id(output))
    tape.ops.append(TapeOp(name, inputs, output, grad_fn, needs))


def backward(tape: Tape, loss: Tensor) -> dict:
    """{tensor: d(loss)/d(tensor)} for every requires_grad tensor on the tape.

    Tensors recorded on the tape but unreachable from the loss get zero
    gradients.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for op in reversed(tape.ops):
        out_grad = flowing.get(id(op.output))
        if out_grad is None or not any(op.needs):
            continue
        contribs = op.grad_fn(out_grad, op.needs)
        for tens, contrib, need in zip(op.inputs, contribs, op.needs):
            if not need or contrib is None:
                continue
            prior = flowing.get(id(tens))
            flowing[id(tens)] = contrib if prior is None else prior + contrib
    result: dict[Tensor, np.ndarray] = {}
    for op in tape.ops:
        for tens in (*op.inputs, op.output):
            if tens.requires_grad and tens not in result:
                grad = flowing.get(id(tens))
                result[tens] = np.zeros_like(tens.data) if grad is None else grad
    return result


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    sa, sb = a.data.shape, b.data.shape

    def grad(g, needs):
        return (_unbroadcast(g, sa) if needs[0] else None,
                _unbroadcast(g, sb) if needs[1] else None)

    _record("add", out, (a, b), grad)
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)
    sa, sb = a.data.shape, b.data.shape

    def grad(g, needs):
        return (_unbroadcast(g, sa) if needs[0] else None,
                _unbroadcast(-g, sb) if needs[1] else None)

    _record("sub", out, (a, b), grad)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)
    da, db = a.data, b.data

    def grad(g, needs):
        return (_unbroadcast(g * db, da.shape) if needs[0] else None,
                _unbroadcast(g * da, db.shape) if needs[1] else None)

    _record("mul", out, (a, b), grad)
    return out


def square(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data * a.data)
    da = a.data

    def grad(g, needs):
        return (2.0 * da * g,)

    _record("square", out, (a,), grad)
    return out


def log_clamped(a, floor: float = 1e-12) -> Tensor:
    """log(max(a, floor)); keeps cross-entropy finite at vanishing probabilities."""
    a = as_tensor(a)
    clipped = np.maximum(a.data, floor)
    out = Tensor(np.log(clipped))
    da = a.data

    def grad(g, needs):
        return (np.where(da >= floor, g / np.maximum(da, floor), 0.0),)

    _record("log_clamped", out, (a,), grad)
    return out


# ---------------------------------------------------------------------------
# reductions


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    if a.data.size == 0:
        raise ShapeError("mean of an empty tensor")
    out = Tensor(a.data.mean())
    shape, size = a.data.shape, a.data.size

    def grad(g, needs):
        return (np.full(shape, float(g.reshape(())) / size),)

    _record("mean_all", out, (a,), grad)
    return out


# ---------------------------------------------------------------------------
# activations


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    da = a.data

    def grad(g, needs):
        return (g * (da > 0.0),)

    _record("relu", out, (a,), grad)
    return out


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.where(a.data > 0.0, a.data, slope * a.data))
    da = a.data

    def grad(g, needs):
        return (g * np.where(da > 0.0, 1.0, slope),)

    _record("leaky_relu", out, (a,), grad)
    return out


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    out = Tensor(y)

    def grad(g, needs):
        return (g * (1.0 - y * y),)

    _record("tanh", out, (a,), grad)
    return out


def softmax(a) -> Tensor:
    """Softmax over the last axis; rows sum to 1 within 1e-12."""
    a = as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def grad(g, needs):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    _record("softmax", out, (a,), grad)
    return out


# ---------------------------------------------------------------------------
# structural ops


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    out = Tensor(a.data.reshape(shape))
    orig = a.data.shape

    def grad(g, needs):
        return (g.reshape(orig),)

    _record("reshape", out, (a,), grad)
    return out


def pick(a, indices) -> Tensor:
    """Row-wise gather: out[i] = a[i, indices[i]] for a 2-D tensor."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"pick expects a 2-D tensor, got shape {a.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (a.data.shape[0],):
        raise ShapeError(f"pick needs one index per row: rows={a.data.shape[0]}, indices shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[1]):
        raise ShapeError("pick index out of range")
    rows = np.arange(a.data.shape[0])
    out = Tensor(a.data[rows, idx])
    shape = a.data.shape

    def grad(g, needs):
        d = np.zeros(shape)
        d[rows, idx] = g
        return (d,)

    _record("pick", out, (a,), grad)
    return out


# ---------------------------------------------------------------------------
# network layers


def _tap_product(tap, x, out):
    """tap [m, n] @ x [batch, n, length] into out. With n == 1 each element is one rounded
    product: np.multiply, plus 0.0 to give a -0.0 product matmul's +0.0 (its sum starts at
    zero), has matmul's bits without one BLAS call per batch row."""
    if tap.shape[1] == 1:
        np.multiply(tap, x, out=out)
        return np.add(out, 0.0, out=out)
    return np.matmul(tap, x, out=out)


def conv1d(x, kernels, bias, activation: str = "linear", slope: float = 0.2) -> Tensor:
    """Length-preserving 1-D cross-correlation over [batch, channels_in, length] input,
    plus a per-filter bias, then an activation.

    The input must be batched, a batch of one included; the output is
    [batch, channels_out, length]. The stride is 1, and a width-k kernel
    sees (k - 1) // 2 zeros left of the input and the rest of k - 1 right
    of it, so an even width pads the extra zero on the right. `activation`
    is "linear", "relu" or "leaky_relu" (negative slope `slope`, in
    [0, 1]); the result equals conv1d followed by relu()/leaky_relu() bit
    for bit, recorded as one tape op. Forward, input gradient and kernel
    gradient are each one GEMM per kernel tap over the whole batch: the
    input is padded once into a zeroed buffer and tap j reads its view
    [:, :, j : j + length], so no im2col copy is built. A row's output
    never depends on the other rows of the batch.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    xd = x.data
    if xd.ndim != 3:
        raise ShapeError(f"conv1d input must be [batch, channels, length], got {xd.shape}")
    if kernels.data.ndim != 3:
        raise ShapeError(f"conv1d kernels must be [out, in, k], got {kernels.data.shape}")
    if kernels.data.shape[1] != xd.shape[1]:
        raise ShapeError(f"kernel input channels {kernels.data.shape[1]} do not match input channels {xd.shape[1]}")
    if activation not in ("linear", "relu", "leaky_relu"):
        raise ValueError(f"conv1d activation must be 'linear', 'relu' or 'leaky_relu', got {activation!r}")
    if activation == "leaky_relu" and not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must lie in [0, 1], got {slope}")
    n_out, n_in, kernel = kernels.data.shape
    if bias.data.shape != (n_out,):
        raise ShapeError(f"bias must have shape ({n_out},), got {bias.data.shape}")
    length = xd.shape[2]
    pl = (kernel - 1) // 2

    taps = np.ascontiguousarray(kernels.data.transpose(2, 0, 1))
    xp = np.zeros(xd.shape[:2] + (length + kernel - 1,))
    xp[:, :, pl:pl + length] = xd
    out_data = _tap_product(taps[0], xp[:, :, :length], np.empty((xd.shape[0], n_out, length)))
    tmp = np.empty(out_data.shape)
    for j in range(1, kernel):
        out_data += _tap_product(taps[j], xp[:, :, j:j + length], tmp)
    out_data += bias.data[:, None]
    # in place, and equal to relu()/leaky_relu(): for a slope in [0, 1], max(z, slope*z)
    # is z where z > 0 and slope*z elsewhere, NaN included
    if activation == "relu":
        np.maximum(out_data, 0.0, out=out_data)
    elif activation == "leaky_relu":
        np.maximum(out_data, slope * out_data, out=out_data)
    out = Tensor(out_data)

    def grad(g, needs):
        if activation != "linear":
            mask = out_data > 0.0   # the output is > 0 exactly where the pre-activation is
            if activation == "relu":
                g = g * mask
            else:
                # the factor np.where(mask, 1.0, slope) without a branch per element:
                # (1 - slope) + slope rounds to exactly 1.0 for a slope in [0, 1]
                factor = mask * (1.0 - slope)
                factor += slope
                factor *= g
                g = factor
        d_x = d_k = d_b = None
        if needs[0]:
            dxp = np.zeros(xd.shape[:2] + (length + kernel - 1,))
            tmp = np.empty(out_data.shape[:1] + (n_in, length))
            for j in range(kernel):
                dxp[:, :, j:j + length] += _tap_product(taps[j].T, g, tmp)
            d_x = dxp[:, :, pl:pl + length]
        if needs[1]:
            xp = np.zeros(xd.shape[:2] + (length + kernel - 1,))
            xp[:, :, pl:pl + length] = xd
            d_k = np.empty(kernels.data.shape)
            for j in range(kernel):
                d_k[:, :, j] = np.matmul(g, xp[:, :, j:j + length].transpose(0, 2, 1)).sum(axis=0)
        if needs[2]:
            d_b = g.sum(axis=(0, 2))
        return d_x, d_k, d_b

    _record("conv1d", out, (x, kernels, bias), grad)
    return out


def dense(x, weights, bias) -> Tensor:
    """Affine map: batched input x [batch, n] against weights [m, n] plus bias [m]."""
    x, weights, bias = as_tensor(x), as_tensor(weights), as_tensor(bias)
    if weights.data.ndim != 2:
        raise ShapeError(f"dense weights must be 2-D [units, features], got {weights.data.shape}")
    m, n = weights.data.shape
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError(f"dense input must be [batch, features], got {xd.shape}")
    if xd.shape[1] != n:
        raise ShapeError(f"dense input features {x.data.shape} do not match weights {weights.data.shape}")
    if bias.data.shape != (m,):
        raise ShapeError(f"dense bias must have shape ({m},), got {bias.data.shape}")

    wd = weights.data
    out = Tensor(xd @ wd.T + bias.data)

    def grad(g, needs):
        d_x = (g @ wd) if needs[0] else None
        d_w = (g.T @ xd) if needs[1] else None
        d_b = g.sum(axis=0) if needs[2] else None
        return d_x, d_w, d_b

    _record("dense", out, (x, weights, bias), grad)
    return out
