"""Numeric core: forward goldens, finite-difference checks, tape semantics."""
import hashlib
import math

import numpy as np
import pytest

import subadapt.tensor as T
from subadapt.networks import Classifier, ClassifierSpec
from subadapt.tensor import Tensor, Tape, paused, backward, ShapeError

from conftest import numeric_gradient, gradients_close


def fd_check(build, *leaves):
    """Record build(), backprop, and FD-verify every leaf gradient."""
    with Tape() as tape:
        loss = build()
    grads = backward(tape, loss)
    for leaf in leaves:
        def run():
            with paused():
                return build().item()
        numeric = numeric_gradient(run, leaf.data)
        assert gradients_close(numeric, grads[leaf]), \
            f"gradient mismatch for leaf {leaf.shape}"


# ---------------------------------------------------------------------------
# forward goldens


def test_add_sub_mul_square_forward():
    a = Tensor([1.0, -2.0, 3.0])
    b = Tensor([0.5, 4.0, -1.0])
    assert np.array_equal(T.add(a, b).data, [1.5, 2.0, 2.0])
    assert np.array_equal(T.sub(a, b).data, [0.5, -6.0, 4.0])
    assert np.array_equal(T.mul(a, b).data, [0.5, -8.0, -3.0])
    assert np.array_equal(T.square(b).data, [0.25, 16.0, 1.0])


def test_operator_sugar_matches_functions():
    a = Tensor([2.0, 3.0])
    b = Tensor([5.0, 7.0])
    assert np.array_equal((a + b).data, T.add(a, b).data)
    assert np.array_equal((a - b).data, T.sub(a, b).data)
    assert np.array_equal((a * b).data, T.mul(a, b).data)
    assert np.array_equal((1.0 - a).data, [-1.0, -2.0])
    assert np.array_equal((-a).data, [-2.0, -3.0])
    assert np.array_equal((2.0 * a).data, [4.0, 6.0])


def test_reductions():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert T.mean_all(x).item() == 5.5


def test_activations_forward():
    x = Tensor([-2.0, -0.5, 0.0, 1.5])
    assert np.array_equal(T.relu(x).data, [0.0, 0.0, 0.0, 1.5])
    assert np.allclose(T.leaky_relu(x).data, [-0.4, -0.1, 0.0, 1.5], atol=0, rtol=1e-15)
    assert np.allclose(T.tanh(x).data, np.tanh(x.data), atol=0, rtol=1e-15)


def test_softmax_rows_sum_to_one_and_match_closed_form():
    logits = Tensor([[0.0, math.log(2.0), math.log(3.0)]])
    out = T.softmax(logits).data
    assert np.allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_is_shift_stable():
    shifted = T.softmax(Tensor([1000.0, 1002.0])).data
    plain = T.softmax(Tensor([0.0, 2.0])).data
    assert np.array_equal(shifted, plain)
    assert np.all(np.isfinite(shifted))


def test_log_clamped_floors_small_values():
    out = T.log_clamped(Tensor([1e-20, 0.0, 0.5]))
    assert out.data[0] == out.data[1] == math.log(1e-12)
    assert out.data[2] == math.log(0.5)


def test_reshape_forward():
    x = Tensor(np.arange(6.0))
    assert T.reshape(x, (2, 3)).shape == (2, 3)


def test_pick_gathers_one_entry_per_row():
    a = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(T.pick(a, [1, 0, 1]).data, [2.0, 3.0, 6.0])


def test_pick_rejects_bad_requests():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ShapeError):
        T.pick(Tensor([1.0, 2.0]), [0])
    with pytest.raises(ShapeError):
        T.pick(a, [0])
    with pytest.raises(ShapeError):
        T.pick(a, [0, 2])


# ---------------------------------------------------------------------------
# convolution goldens (hand-computed)


def test_conv1d_same_padding_golden():
    x = Tensor([[[1.0, 2.0, 3.0, 4.0, 5.0]]])
    k = Tensor([[[1.0, 0.0, -1.0]]])
    b = Tensor([0.5])
    out = T.conv1d(x, k, b)
    # padded [0,1,2,3,4,5,0]; windows dot [1,0,-1] then +0.5
    assert np.array_equal(out.data, [[[-1.5, -1.5, -1.5, -1.5, 4.5]]])


def test_conv1d_multichannel_sums_over_input_channels():
    x = Tensor([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
    k = Tensor([[[1.0, 1.0], [1.0, 1.0]]])
    out = T.conv1d(x, k, Tensor([0.0]))
    # width 2 pads its one zero on the right: [1,2,3,0] and [4,5,6,0]
    assert np.array_equal(out.data, [[[12.0, 16.0, 9.0]]])


def test_conv1d_output_length_rule():
    rng = np.random.default_rng(0)
    for length, kernel in [(10, 3), (10, 2), (11, 5), (7, 7), (1, 4)]:
        x = Tensor(rng.normal(size=(1, 1, length)))
        k = Tensor(rng.normal(size=(1, 1, kernel)))
        assert T.conv1d(x, k, Tensor([0.0])).shape == (1, 1, length)


def test_conv1d_shape_errors():
    x = Tensor(np.zeros((1, 2, 8)))
    k, b = Tensor(np.zeros((1, 2, 3))), Tensor([0.0])
    with pytest.raises(ShapeError, match=r"\[batch, channels, length\]"):
        T.conv1d(Tensor(np.zeros((2, 8))), k, b)              # not batched
    with pytest.raises(ShapeError):
        T.conv1d(x, Tensor(np.zeros((1, 3, 3))), b)           # channel mismatch
    with pytest.raises(ShapeError):
        T.conv1d(x, Tensor(np.zeros((3, 2))), b)              # kernels not 3-D
    with pytest.raises(ShapeError):
        T.conv1d(x, k, Tensor([0.0, 0.0]))                    # one bias per filter
    with pytest.raises(ValueError):
        T.conv1d(x, k, b, activation="tanh")
    with pytest.raises(ValueError):
        T.conv1d(x, k, b, activation="leaky_relu", slope=1.5)


def test_dense_golden_and_shape_errors():
    x = Tensor([[1.0, 2.0]])
    w = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([10.0, 20.0])
    assert np.array_equal(T.dense(x, w, b).data, [[15.0, 31.0]])
    with pytest.raises(ShapeError, match=r"\[batch, features\]"):
        T.dense(Tensor([1.0, 2.0]), w, b)          # not batched
    with pytest.raises(ShapeError):
        T.dense(Tensor([[1.0, 2.0, 3.0]]), w, b)
    with pytest.raises(ShapeError):
        T.dense(x, w, Tensor([1.0]))
    with pytest.raises(ShapeError):
        T.dense(x, Tensor([1.0, 2.0]), b)


# ---------------------------------------------------------------------------
# gradients against central differences


def test_elementwise_gradients():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    fd_check(lambda: T.mean_all(T.mul(T.add(a, b), T.sub(a, b))), a, b)
    fd_check(lambda: T.mean_all(T.square(a)), a)


def test_broadcast_gradients_sum_back_to_operand_shape():
    rng = np.random.default_rng(12)
    col = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    row = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    with Tape() as tape:
        loss = T.mean_all(T.add(col, row))
    grads = backward(tape, loss)
    assert np.array_equal(grads[col], np.full((3, 1), 4 / 12))
    assert np.array_equal(grads[row], np.full((1, 4), 3 / 12))


def test_scalar_broadcast_gradient():
    s = Tensor(0.7, requires_grad=True)
    x = Tensor(np.ones((2, 3)))
    with Tape() as tape:
        loss = T.mean_all(T.mul(s, x))
    grads = backward(tape, loss)
    assert grads[s].shape == ()
    assert grads[s] == 1.0


def test_activation_gradients():
    rng = np.random.default_rng(13)
    # keep points away from the relu kink, where FD is not meaningful
    base = rng.normal(size=(4, 5))
    base[np.abs(base) < 0.1] = 0.5
    for op in (T.relu, T.leaky_relu, T.tanh):
        x = Tensor(base.copy(), requires_grad=True)
        fd_check(lambda: T.mean_all(T.square(op(x))), x)


def test_softmax_gradient():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)))
    fd_check(lambda: T.mean_all(T.mul(T.softmax(x), w)), x)


def test_log_clamped_gradient_above_floor():
    x = Tensor(np.array([0.2, 0.5, 1.5]), requires_grad=True)
    fd_check(lambda: T.mean_all(T.log_clamped(x)), x)


def test_log_clamped_gradient_is_zero_below_floor():
    x = Tensor(np.array([1e-20, 0.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = T.mean_all(T.log_clamped(x))
    grads = backward(tape, loss)
    assert grads[x][0] == 0.0 and grads[x][1] == 0.0
    assert abs(grads[x][2] - 1 / 6) < 1e-12


def test_bookkeeping_gradients():
    rng = np.random.default_rng(15)
    a = Tensor(rng.normal(size=6), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3)))
    fd_check(lambda: T.mean_all(T.mul(T.reshape(a, (2, 3)), w)), a)

    e = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    fd_check(lambda: T.mean_all(T.square(T.pick(e, [0, 2, 1, 1, 0]))), e)


def layer_columns(length, width, stride, padding):
    """The columns of conv1d's output that a layer of this stride and padding computes:
    "same" is the whole output at stride 1; "valid" keeps the columns whose window lies
    inside the input, every stride-th of them. A strided "same" layer pads by its own rule
    and is not a column selection."""
    if padding == "same":
        assert stride == 1
        return np.arange(length)
    return (width - 1) // 2 + np.arange(0, length - width + 1, stride)


def upstream_on(columns, shape, rng):
    """A normal upstream gradient of the given shape, zero outside the given output columns."""
    g = np.zeros(shape)
    g[..., columns] = rng.normal(size=(*shape[:-1], len(columns)))
    return g


@pytest.mark.parametrize("stride,padding", [(1, "same"), (1, "valid"), (2, "valid"), (3, "valid")])
def test_conv1d_gradients(stride, padding):
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(2, 3, 12)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    probe = Tensor(upstream_on(layer_columns(12, 3, stride, padding), (2, 4, 12), rng))
    fd_check(lambda: T.mean_all(T.mul(T.conv1d(x, k, b), probe)), x, k, b)


def conv1d_with_upstream(x, k, b, g, activation="linear"):
    """conv1d's output and its (x, k, b) gradients for the upstream gradient g."""
    with Tape() as tape:
        out = T.conv1d(x, k, b, activation=activation, slope=0.2)
    (op,) = tape.ops
    return (out.data, *op.grad_fn(g, (True, True, True)))


def conv1d_reference(x, k, b, stride, padding, g):
    """Plain loops over the cross-correlation definition, every stride-th window: output and
    the three gradients for upstream g. "same" pads (width - 1) // 2 zeros on the left and
    the rest on the right; "valid" pads none."""
    batch, _, length = x.shape
    n_out, n_in, width = k.shape
    left, total = ((width - 1) // 2, width - 1) if padding == "same" else (0, 0)
    out_len = (length + total - width) // stride + 1
    xp = np.zeros((batch, n_in, length + total))
    xp[:, :, left:left + length] = x
    out = np.zeros((batch, n_out, out_len))
    d_xp, d_k = np.zeros_like(xp), np.zeros_like(k)
    for i in range(batch):
        for f in range(n_out):
            for o in range(out_len):
                out[i, f, o] = b[f]
                for c in range(n_in):
                    for j in range(width):
                        t = o * stride + j
                        out[i, f, o] += k[f, c, j] * xp[i, c, t]
                        d_xp[i, c, t] += g[i, f, o] * k[f, c, j]
                        d_k[f, c, j] += g[i, f, o] * xp[i, c, t]
    return out, d_xp[:, :, left:left + length], d_k, g.sum(axis=(0, 2))


def _conv_against_reference(x_shape, width, stride, padding, seed):
    """conv1d on the columns the stride and padding select, and its gradients for an upstream
    gradient on those columns only, against the loop reference of that layer."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=x_shape))
    k = Tensor(rng.normal(size=(3, x_shape[-2], width)))
    b = Tensor(rng.normal(size=3))
    columns = layer_columns(x_shape[-1], width, stride, padding)
    g = upstream_on(columns, (x_shape[0], 3, x_shape[-1]), rng)
    out, *grads = conv1d_with_upstream(x, k, b, g)
    want = conv1d_reference(x.data, k.data, b.data, stride, padding, g[:, :, columns])
    for got, w in zip((out[:, :, columns], *grads), want):
        assert got.shape == w.shape
        assert np.allclose(got, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("several_rows", [True, False])   # False: a batch of one
@pytest.mark.parametrize("width", [1, 2, 3, 5])           # even widths pad one more zero right
@pytest.mark.parametrize("stride,padding", [(1, "same"), (1, "valid"), (2, "valid"), (3, "valid")])
def test_conv1d_matches_loop_reference(stride, padding, width, several_rows):
    shape = (2 if several_rows else 1, 2, 11)
    _conv_against_reference(shape, width, stride, padding, seed=100 * stride + width)


@pytest.mark.parametrize("in_channels", [1, 2])
def test_conv1d_matches_loop_reference_past_one_row_block(in_channels):
    # a batch larger than one of the 128-row blocks that networks._through runs untaped
    _conv_against_reference((2 * 128 + 5, in_channels, 11), 3, 1, "same", seed=41)


def test_conv1d_kernel_spanning_whole_padded_input_matches_reference():
    # length 1 padded out to 4 by one zero left and two right: one window per output
    _conv_against_reference((2, 3, 1), 4, 1, "same", seed=8)
    # kernel as wide as the input: the one column clear of padding
    _conv_against_reference((2, 3, 5), 5, 1, "valid", seed=7)


def test_conv1d_stride_two_valid_input_gradient_by_finite_differences():
    # upstream on every second column clear of padding reads samples 0..8 of 10 only;
    # the last one must get zero gradient
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(2, 2, 10)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3)))
    b = Tensor(np.zeros(3))
    probe = Tensor(upstream_on(layer_columns(10, 3, 2, "valid"), (2, 3, 10), rng))
    fd_check(lambda: T.mean_all(T.mul(T.conv1d(x, k, b), probe)), x)
    with Tape() as tape:
        loss = T.mean_all(T.mul(T.conv1d(x, k, b), probe))
    assert np.array_equal(backward(tape, loss)[x][:, :, 9], np.zeros((2, 2)))


def _conv_then_activation(x, k, b, activation, fused, probe):
    """Output and (x, k, b) gradients of the fused op, or of conv1d then relu()/leaky_relu()."""
    with Tape() as tape:
        if fused:
            out = T.conv1d(x, k, b, activation=activation, slope=0.2)
        else:
            z = T.conv1d(x, k, b)
            out = T.relu(z) if activation == "relu" else T.leaky_relu(z, 0.2)
        loss = T.mean_all(T.mul(out, probe))
    grads = backward(tape, loss)
    return out.data, grads[x], grads[k], grads[b]


@pytest.mark.parametrize("several_rows", [True, False])   # False: a batch of one
@pytest.mark.parametrize("stride,padding", [(1, "same"), (1, "valid"), (2, "valid")])
@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
def test_fused_conv1d_activation_is_bit_equal_to_separate_ops(activation, stride, padding,
                                                               several_rows):
    rng = np.random.default_rng(31)
    shape = (3 if several_rows else 1, 2, 11)
    # quarter-integer grids make many pre-activations exactly 0, others negative
    grid = (Tensor(rng.integers(-2, 3, size=shape) * 0.25, requires_grad=True),
            Tensor(rng.integers(-2, 3, size=(4, 2, 3)) * 0.5, requires_grad=True),
            Tensor([0.0, 0.25, -0.25, 0.0], requires_grad=True))
    normal = (Tensor(rng.normal(size=shape), requires_grad=True),
              Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True),
              Tensor(rng.normal(size=4), requires_grad=True))
    with paused():
        assert (T.conv1d(*grid).data == 0).any()
    for x, k, b in (grid, normal):
        with paused():
            z = T.conv1d(x, k, b).data
        assert (z < 0).any() and (z > 0).any()
        probe = Tensor(upstream_on(layer_columns(11, 3, stride, padding), z.shape, rng))
        fused = _conv_then_activation(x, k, b, activation, True, probe)
        separate = _conv_then_activation(x, k, b, activation, False, probe)
        for got, want in zip(fused, separate):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def _leaky_gradients(x, k, b, slope, probe, fused):
    """(x, k, b) gradients of mean(leaky conv1d * probe), fused or as conv1d then
    leaky_relu(), whose gradient is g * np.where(z > 0, 1, slope)."""
    with Tape() as tape:
        if fused:
            out = T.conv1d(x, k, b, activation="leaky_relu", slope=slope)
        else:
            out = T.leaky_relu(T.conv1d(x, k, b), slope)
        loss = T.mean_all(T.mul(out, probe))
    grads = backward(tape, loss)
    return grads[x], grads[k], grads[b]


@pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
def test_fused_leaky_gradient_is_bit_equal_to_the_where_form_on_special_values(slope):
    rng = np.random.default_rng(47)
    # quarter-integer grids make many outputs exactly 0, others negative
    x = Tensor(rng.integers(-2, 3, size=(5, 2, 13)) * 0.25, requires_grad=True)
    k = Tensor(rng.integers(-2, 3, size=(4, 2, 3)) * 0.5, requires_grad=True)
    b = Tensor([0.0, 0.25, -0.25, 0.0], requires_grad=True)
    with paused():
        z = T.conv1d(x, k, b).data
    assert (z == 0).any() and (z < 0).any() and (z > 0).any()
    g = rng.normal(size=z.shape)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    at = rng.random(z.shape) < 0.4
    g[at] = special[rng.integers(len(special), size=int(at.sum()))]
    for value in special:   # each special value, bit for bit, meets both sides of the mask
        here = g.view(np.uint64) == np.array(value).view(np.uint64)
        assert (here & (z > 0)).any() and (here & (z <= 0)).any(), value
    with np.errstate(invalid="ignore", over="ignore"):
        fused = _leaky_gradients(x, k, b, slope, Tensor(g), True)
        where_form = _leaky_gradients(x, k, b, slope, Tensor(g), False)
    for got, want in zip(fused, where_form):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("in_channels", [1, 3])
@pytest.mark.parametrize("batch", [1, 127, 128, 129, 2 * 128 + 5])
@pytest.mark.parametrize("activation", ["linear", "relu", "leaky_relu"])
def test_conv1d_batch_is_bit_equal_to_row_by_row_calls(activation, batch, in_channels):
    # networks._through splits untaped forwards into 128-row blocks: that relies on no row
    # seeing the batch's other rows
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, in_channels, 9))
    k = Tensor(rng.normal(size=(4, in_channels, 3)))
    b = Tensor(rng.normal(size=4))
    probe = rng.normal(size=(batch, 4, 9))

    def run(rows):
        return conv1d_with_upstream(Tensor(x[rows]), k, b, probe[rows], activation)

    out, d_x, d_k, d_b = run(slice(None))
    rows = [run(slice(i, i + 1)) for i in range(batch)]
    assert out.tobytes() == np.concatenate([r[0] for r in rows]).tobytes()
    assert d_x.tobytes() == np.concatenate([r[1] for r in rows]).tobytes()
    # the batch's kernel and bias gradients sum the rows' in row order
    for got, i in ((d_k, 2), (d_b, 3)):
        want = rows[0][i]
        for r in rows[1:]:
            want = want + r[i]
        assert got.tobytes() == want.tobytes()


def test_single_channel_tap_products_are_bit_equal_to_matmul():
    rng = np.random.default_rng(12)
    # zeros against negative taps: np.multiply alone would give -0.0 where matmul gives +0.0
    x = rng.normal(size=(130, 1, 20)) * (rng.random((130, 1, 20)) < 0.7)
    taps = np.concatenate([-np.abs(rng.normal(size=(3, 1))), rng.normal(size=(5, 1)), [[0.0]]])
    assert T._tap_product(taps, x, np.empty((130, 9, 20))).tobytes() == \
        np.matmul(taps, x).tobytes()
    # forward of a single-input-channel layer, against one whole-batch matmul per tap
    k, b = rng.normal(size=(9, 1, 3)), rng.normal(size=9)
    xp = np.zeros((130, 1, 22))
    xp[:, :, 1:21] = x
    with paused():
        got = T.conv1d(x, k, b).data
    want = np.matmul(k[:, :, 0], xp[:, :, 0:20])
    for j in (1, 2):
        want += np.matmul(k[:, :, j], xp[:, :, j:j + 20])
    want += b[:, None]
    assert got.tobytes() == want.tobytes()
    # input gradient of a single-output-channel layer: each tap is [in, 1] @ [batch, 1, length]
    k = Tensor(rng.normal(size=(1, 6, 3)))
    x6 = Tensor(rng.normal(size=(130, 6, 20)))
    g = rng.normal(size=(130, 1, 20)) * (rng.random((130, 1, 20)) < 0.7)
    want = np.zeros((130, 6, 22))
    for j in range(3):
        want[:, :, j:j + 20] += np.matmul(k.data[:, :, j].T, g)
    d_x = conv1d_with_upstream(x6, k, Tensor(np.zeros(1)), g)[1]
    assert d_x.tobytes() == want[:, :, 1:21].tobytes()


# sha256 of the probabilities below as computed before the row-blocked conv1d forward,
# one digest per OpenBLAS kernel family (each sums its GEMMs in its own order):
# SkylakeX and newer, Haswell and Zen, Sandybridge and Nehalem, Prescott
_PINNED_CLASSIFIER_PROBABILITIES = {
    "62bc3e8ecb1b6b9362692cc09781f380f1d206cb6ae952409eb0a64bdb923a86",
    "3584f489a92864bce4ca37d0c2466b04b96a5d74b2fb9394e4be26351ad85aeb",
    "0a680160eb80429d6b8d70d3af9782b825da64d9dfffe8b17b905eca85d7d51a",
    "45ab47b1b6ba104bf02cfeb009fc4e9539c44b103a9d6675e5bd1f20daf2fb97",
}


def test_classifier_forward_bytes_are_pinned():
    # 300 rows: two full 128-row blocks of networks._through and a partial one in every conv layer
    rng = np.random.default_rng(41)
    classifier = Classifier(ClassifierSpec(input_dim=50, num_classes=4, seed=7))
    with paused():
        probs = classifier.forward(rng.normal(size=(300, 50))).data
    assert probs.shape == (300, 4)
    assert hashlib.sha256(probs.tobytes()).hexdigest() in _PINNED_CLASSIFIER_PROBABILITIES


@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
def test_fused_conv1d_gradients_by_finite_differences(activation):
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(2, 3, 9)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    with paused():
        z = T.conv1d(x, k, b).data
    assert np.abs(z).min() > 1e-3 and (z < 0).any()   # away from the kink, both sides of it
    probe = Tensor(rng.normal(size=z.shape))
    fd_check(lambda: T.mean_all(T.mul(T.conv1d(x, k, b, activation=activation,
                                               slope=0.2), probe)), x, k, b)


def test_dense_gradients():
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    fd_check(lambda: T.mean_all(T.square(T.dense(x, w, b))), x, w, b)
    xu = Tensor(rng.normal(size=(1, 6)), requires_grad=True)   # a batch of one
    fd_check(lambda: T.mean_all(T.square(T.dense(xu, w, b))), xu, w, b)


def test_composite_network_gradient():
    # conv -> relu -> flatten -> dense -> softmax -> pick -> log: the full
    # classifier shape, differentiated end to end through every op kind.
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(3, 2, 10)))
    k = Tensor(rng.normal(size=(4, 2, 3)) * 0.5, requires_grad=True)
    kb = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)
    w = Tensor(rng.normal(size=(3, 40)) * 0.2, requires_grad=True)
    wb = Tensor(np.zeros(3), requires_grad=True)
    labels = np.array([0, 2, 1])

    def build():
        h = T.relu(T.conv1d(x, k, kb))
        h = T.reshape(h, (3, 40))
        p = T.softmax(T.dense(h, w, wb))
        return -T.mean_all(T.log_clamped(T.pick(p, labels)))

    fd_check(build, k, kb, w, wb)


# ---------------------------------------------------------------------------
# tape semantics


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.square(x)
    with pytest.raises(ShapeError, match=r"loss must be scalar, got shape \(3,\)"):
        backward(tape, y)


def test_backward_accumulates_within_a_call_and_repeats_across_calls():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = T.mean_all(T.add(T.square(x), x))   # x reaches the loss along two paths
    first = backward(tape, loss)
    assert np.array_equal(first[x], np.full(3, 1.0))
    second = backward(tape, loss)                 # no state carried between calls
    assert np.array_equal(second[x], first[x])


def test_unreachable_parameter_gets_zero_gradient():
    used = Tensor(np.ones(2), requires_grad=True)
    unused = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        loss = T.mean_all(T.square(used))
        T.square(unused)  # recorded but not part of the loss
    grads = backward(tape, loss)
    assert np.array_equal(grads[unused], np.zeros(2))


def test_paused_suppresses_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        with paused():
            T.square(x)
        loss = T.mean_all(x)
    assert len(tape.ops) == 1  # the pause recorded nothing
    grads = backward(tape, loss)
    assert np.array_equal(grads[x], np.full(3, 1 / 3))


def test_no_tape_means_no_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.square(x)  # no active tape: plain eager computation
    assert np.array_equal(y.data, np.ones(3))


def test_everything_stays_float64():
    x = Tensor(np.ones(3, dtype=np.float32))
    assert x.data.dtype == np.float64
    assert T.square(x).data.dtype == np.float64
    assert T.conv1d(Tensor(np.ones((1, 1, 5), dtype=np.int32)), Tensor(np.ones((1, 1, 3))),
                    Tensor(np.zeros(1, dtype=np.int32))).data.dtype == np.float64


def test_item_rejects_non_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.ones(2)).item()
