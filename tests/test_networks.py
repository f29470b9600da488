"""Network construction: layer audits, shapes, init, checkpoint round trips."""
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from subadapt.checkpoint import load_checkpoint, save_bundle, save_checkpoint
from subadapt.harness import NetworkConfig
from subadapt.networks import (_ROW_BLOCK, Classifier, ClassifierSpec, ConvLayer, Discriminator,
                               DiscriminatorSpec, Generator, GeneratorSpec, build_bundle)
from subadapt.pipeline import PipelineError
from subadapt.tensor import ShapeError, Tape, Tensor, paused

from conftest import layer_table, parameter_count


def small_specs(dim=10, classes=3, seed=0):
    return (GeneratorSpec(dim, blocks=1, filters=4, noise_dim=2, seed=seed),
            DiscriminatorSpec(dim, base_filters=2, seed=seed),
            ClassifierSpec(dim, num_classes=classes, base_filters=8, seed=seed))


# ---------------------------------------------------------------------------
# architecture audits


def test_generator_layer_audit():
    gen = Generator(GeneratorSpec(50, blocks=2, filters=16, noise_dim=8))
    desc = layer_table(gen)
    assert len(desc) == 2 * 2 + 1
    for layer in desc[:-1]:
        assert layer["type"] == "conv1d"
        assert layer["filters"] == 16
        assert layer["kernel_size"] == 3
        assert layer["activation"] == "relu"
    out = desc[-1]
    assert out["type"] == "conv1d" and out["kernel_size"] == 3
    assert out["filters"] == 1 and out["activation"] == "linear"
    assert desc[0]["in_channels"] == 2  # signal plus tiled noise channel


def test_generator_without_noise_has_single_input_channel():
    gen = Generator(GeneratorSpec(20, blocks=1, filters=4, noise_dim=0))
    assert layer_table(gen)[0]["in_channels"] == 1
    out = gen.forward(np.zeros((3, 20)))
    assert out.shape == (3, 20)


def test_discriminator_layer_audit():
    disc = Discriminator(DiscriminatorSpec(50, base_filters=8))
    desc = layer_table(disc)
    assert [l["filters"] for l in desc[:-1]] == [16, 32, 64, 32, 16]
    assert all(l["activation"] == "leaky_relu" for l in desc[:-1])
    head = desc[-1]
    assert head["type"] == "dense" and head["units"] == 1
    assert head["activation"] == "tanh"
    assert head["in_features"] == 16 * 50


@pytest.mark.parametrize("cf,expected", [(16, [16, 8, 4]), (8, [8, 4, 2]), (5, [5, 2, 1])])
def test_classifier_filter_ladder(cf, expected):
    cls = Classifier(ClassifierSpec(30, num_classes=4, base_filters=cf))
    desc = layer_table(cls)
    assert [l["filters"] for l in desc[:-1]] == expected
    assert all(l["activation"] == "relu" for l in desc[:-1])
    assert desc[-1]["units"] == 4 and desc[-1]["activation"] == "softmax"


def test_parameter_counts_match_hand_tally():
    gen, disc, cls = (Generator(GeneratorSpec(10, blocks=1, filters=4, noise_dim=2)),
                      Discriminator(DiscriminatorSpec(10, base_filters=2)),
                      Classifier(ClassifierSpec(10, num_classes=3, base_filters=8)))
    # generator: conv 2->4 (24+4), conv 4->4 (48+4), output conv 4->1 (12+1)
    assert parameter_count(gen) == 93
    # discriminator: convs 1->4->8->16->8->4 plus dense 40->1
    assert parameter_count(disc) == (12 + 4) + (96 + 8) + (384 + 16) + (384 + 8) + (96 + 4) + (40 + 1)
    # classifier: convs 1->8->4->2 plus dense 20->3
    assert parameter_count(cls) == (24 + 8) + (96 + 4) + (24 + 2) + (60 + 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(0)
    with pytest.raises(ValueError):
        GeneratorSpec(10, blocks=0)
    with pytest.raises(ValueError):
        GeneratorSpec(10, noise_dim=-1)
    with pytest.raises(ValueError):
        DiscriminatorSpec(10, base_filters=0)
    with pytest.raises(ValueError):
        ClassifierSpec(10, num_classes=1)
    with pytest.raises(ValueError):
        ClassifierSpec(10, num_classes=3, base_filters=3)


# ---------------------------------------------------------------------------
# forward behaviour


def test_forward_shapes_batched_and_single():
    """Batches map to batches; a single window, not a batch of one, is a ShapeError."""
    g_spec, d_spec, c_spec = small_specs()
    bundle = build_bundle(g_spec, d_spec, c_spec)
    x = np.random.default_rng(0).normal(size=(5, 10))
    z = np.random.default_rng(1).normal(size=(5, 2))
    assert bundle.generator.forward(x, z).shape == (5, 10)
    assert bundle.discriminator.forward(x).shape == (5,)
    assert bundle.classifier.forward(x).shape == (5, 3)
    for single in (lambda: bundle.generator.forward(x[0], z[0]),
                   lambda: bundle.generator.forward(x, z[0]),
                   lambda: bundle.discriminator.forward(x[0]),
                   lambda: bundle.classifier.forward(x[0])):
        with pytest.raises(ShapeError, match="must be a batch of vectors"):
            single()


def test_each_conv_layer_call_is_one_tape_op():
    """Each conv layer is one taped conv1d, stride 1 with length-preserving padding."""
    bundle = build_bundle(*small_specs())
    rng = np.random.default_rng(5)
    activations = set()
    for net in (bundle.generator, bundle.discriminator, bundle.classifier):
        for layer in (l for l in (*net.layers, net.output_layer) if isinstance(l, ConvLayer)):
            filters, channels, _ = layer.kernels.shape
            with Tape() as tape:
                out = layer(Tensor(rng.normal(size=(4, channels, 10))))
            assert [op.name for op in tape.ops] == ["conv1d"], layer.name
            assert tape.ops[0].output is out and out.shape == (4, filters, 10)
            activations.add(layer.activation)
    assert activations == {"relu", "leaky_relu", "linear"}


def _forwards(bundle, rows):
    """Each network's forward over `rows` windows (with noise for the generator)."""
    rng = np.random.default_rng(rows)
    x, z = rng.normal(size=(rows, 10)), rng.normal(size=(rows, 2))
    return {"generator": lambda: bundle.generator.forward(x, z),
            "discriminator": lambda: bundle.discriminator.forward(x),
            "classifier": lambda: bundle.classifier.forward(x)}


@pytest.mark.parametrize("rows", [0, 1, _ROW_BLOCK, _ROW_BLOCK + 1, 300])
def test_paused_forwards_in_row_blocks_equal_one_taped_whole_batch_forward(rows):
    bundle = build_bundle(*small_specs())
    rng = np.random.default_rng(7)
    for p in bundle.generator.parameters().values():   # off the identity start
        p.data[...] = rng.normal(size=p.shape)
    for kind, forward in _forwards(bundle, rows).items():
        with Tape() as tape:   # a taped forward runs every conv layer over the whole batch
            whole = forward().data
        assert all(op.output.shape[0] == rows for op in tape.ops if op.name == "conv1d")
        with paused():
            blocked = forward().data
        assert blocked.shape == whole.shape and blocked.tobytes() == whole.tobytes(), kind


def test_taped_forward_past_one_block_records_the_whole_batch_ops():
    bundle = build_bundle(*small_specs())
    expected = {
        "generator": ["conv1d", "conv1d", "conv1d", "reshape"],
        "discriminator": ["reshape", "conv1d", "conv1d", "conv1d", "conv1d", "conv1d",
                          "reshape", "dense", "tanh", "reshape"],
        "classifier": ["reshape", "conv1d", "conv1d", "conv1d", "reshape", "dense", "softmax"],
    }
    for kind, forward in _forwards(bundle, 200).items():
        with Tape() as tape:
            forward()
        assert [op.name for op in tape.ops] == expected[kind], kind
        assert all(op.output.shape[0] == 200 for op in tape.ops), kind


@pytest.mark.parametrize("noise_dim", [0, 3])
def test_generator_input_is_data_and_row_blocks_keep_its_bytes(noise_dim):
    gen = Generator(GeneratorSpec(10, blocks=1, filters=4, noise_dim=noise_dim))
    rng = np.random.default_rng(noise_dim)
    for p in gen.parameters().values():   # off the identity start
        p.data[...] = rng.normal(size=p.shape)
    rows = 2 * _ROW_BLOCK + 5
    x = rng.normal(size=(rows, 10))
    z = rng.normal(size=(rows, noise_dim)) if noise_dim else None
    # channel 0 is the window; the noise is tiled cyclically along it in channel 1
    expected = x[:, None, :] if z is None else \
        np.concatenate([x[:, None, :], np.tile(z, 4)[:, None, :10]], axis=1)
    with Tape() as tape:
        whole = gen.forward(x, z).data
    assert [op.name for op in tape.ops] == ["conv1d", "conv1d", "conv1d", "reshape"]
    assert np.array_equal(tape.ops[0].inputs[0].data, expected)
    with paused():
        blocked = gen.forward(x, z).data
    assert blocked.shape == whole.shape == (rows, 10)
    assert blocked.tobytes() == whole.tobytes()


def test_predict_on_no_windows_is_an_empty_int64_array():
    cls = Classifier(ClassifierSpec(10, num_classes=3, base_filters=8))
    preds = cls.predict(np.empty((0, 10)))
    assert preds.shape == (0,) and preds.dtype == np.int64


def test_predict_memory_stays_below_one_whole_batch_activation():
    # the benchmark's classify scoring: 2,880 target test windows of 50 PCA dimensions
    cls = Classifier(ClassifierSpec(50, num_classes=4, base_filters=16))
    windows = np.random.default_rng(8).normal(size=(2880, 50))
    tracemalloc.start()
    try:
        preds = cls.predict(windows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert preds.shape == (2880,)
    # a whole-batch pass holds conv0's 16-channel output (18.4 MB) beside conv1's; in row
    # blocks, the last conv layer's 4-channel output twice (its blocks and their
    # concatenation) and one block's scratch
    last = len(windows) * 4 * 50 * 8
    assert peak <= 2 * last + 2**20


def test_discriminator_output_is_bounded_by_tanh():
    disc = Discriminator(DiscriminatorSpec(10, base_filters=2))
    out = disc.forward(np.random.default_rng(2).normal(size=(20, 10)) * 50)
    assert np.all(np.abs(out.data) <= 1.0)


def test_classifier_rows_are_distributions():
    cls = Classifier(ClassifierSpec(10, num_classes=4, base_filters=8))
    probs = cls.forward(np.random.default_rng(3).normal(size=(6, 10))).data
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    preds = cls.predict(np.random.default_rng(4).normal(size=(6, 10)))
    assert preds.shape == (6,) and preds.dtype.kind == "i"
    assert np.all((preds >= 0) & (preds < 4))


def test_generator_demands_matching_noise():
    gen = Generator(GeneratorSpec(10, blocks=1, filters=4, noise_dim=2))
    x = np.zeros((3, 10))
    with pytest.raises(ShapeError):
        gen.forward(x)                      # noise required
    with pytest.raises(ShapeError):
        gen.forward(x, np.zeros((2, 2)))    # batch mismatch
    with pytest.raises(ShapeError):
        gen.forward(x, np.zeros((3, 5)))    # wrong noise width


def test_input_dimension_is_checked():
    _, d_spec, c_spec = small_specs()
    with pytest.raises(ShapeError):
        Discriminator(d_spec).forward(np.zeros((2, 7)))
    with pytest.raises(ShapeError):
        Classifier(c_spec).forward(np.zeros((2, 2, 10)))


def test_bundle_rejects_mismatched_input_dims():
    g_spec, d_spec, _ = small_specs()
    with pytest.raises(ValueError):
        build_bundle(g_spec, d_spec, ClassifierSpec(11, num_classes=3, base_filters=8))


# ---------------------------------------------------------------------------
# initialization


def test_init_is_seed_deterministic():
    a = Classifier(ClassifierSpec(10, num_classes=3, base_filters=8, seed=5))
    b = Classifier(ClassifierSpec(10, num_classes=3, base_filters=8, seed=5))
    c = Classifier(ClassifierSpec(10, num_classes=3, base_filters=8, seed=6))
    for name, p in a.parameters().items():
        assert np.array_equal(p.data, b.parameters()[name].data)
    assert any(not np.array_equal(p.data, c.parameters()[name].data)
               for name, p in a.parameters().items())


def test_init_ranges_follow_fan_scaling():
    cls = Classifier(ClassifierSpec(10, num_classes=3, base_filters=8))
    k0 = cls.layers[0].kernels.data          # relu conv: fan-in limit
    assert np.max(np.abs(k0)) <= np.sqrt(6.0 / (1 * 3)) + 1e-12
    head = cls.output_layer.weights.data     # softmax head: fan-average limit
    fan_in, fan_out = head.shape[1], head.shape[0]
    assert np.max(np.abs(head)) <= np.sqrt(6.0 / (fan_in + fan_out)) + 1e-12
    assert np.array_equal(cls.layers[0].bias.data, np.zeros(8))


def test_generator_starts_as_the_identity_map():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 12))
    for blocks, filters, noise_dim in [(1, 4, 2), (2, 8, 4), (2, 8, 0)]:
        gen = Generator(GeneratorSpec(12, blocks=blocks, filters=filters,
                                      noise_dim=noise_dim, seed=3))
        z = rng.normal(size=(5, noise_dim)) if noise_dim else None
        assert np.array_equal(gen.forward(x, z).data, x), (blocks, filters)
        # only two filters per layer are the pass-through carriers; the rest
        # keep their random draws so there is something to train
        assert np.any(gen.layers[0].kernels.data[2:] != 0.0)
    slim = Generator(GeneratorSpec(12, blocks=1, filters=1, noise_dim=2, seed=3))
    out = slim.forward(x, rng.normal(size=(5, 2)))  # no carriers to spare
    assert out.data.shape == (5, 12) and not np.array_equal(out.data, x)


def test_component_parameter_names_are_prefixed():
    bundle = build_bundle(*small_specs())
    names = list(bundle.parameters())
    assert any(n.startswith("generator.block0.conv0.") for n in names)
    assert any(n.startswith("discriminator.conv4.") for n in names)
    assert names[-1] == "classifier.output.bias"


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    bundle = build_bundle(*small_specs(seed=9))
    rng = np.random.default_rng(7)
    for p in bundle.parameters().values():
        p.data = rng.normal(size=p.data.shape)  # arbitrary trained state
    path = tmp_path / "ckpt.json"
    save_bundle(bundle, path, seed=9, step_count=123)
    restored, meta = load_checkpoint(path)
    assert meta == {"seed": 9, "step_count": 123}
    assert list(restored) == ["classifier", "discriminator", "generator"]
    for kind, net in restored.items():
        originals = getattr(bundle, kind).parameters()
        assert list(net.parameters()) == list(originals)
        for name, p in net.parameters().items():
            assert np.array_equal(p.data, originals[name].data), (kind, name)
    x = rng.normal(size=(4, 10))
    z = rng.normal(size=(4, 2))
    assert np.array_equal(restored["generator"].forward(x, z).data,
                          bundle.generator.forward(x, z).data)
    assert np.array_equal(restored["classifier"].forward(x).data,
                          bundle.classifier.forward(x).data)


def test_checkpoint_single_network(tmp_path):
    cls = Classifier(ClassifierSpec(10, num_classes=3, base_filters=8, seed=1))
    path = tmp_path / "cls.json"
    save_checkpoint({"classifier": cls}, path, seed=1)
    models, _ = load_checkpoint(path)
    assert set(models) == {"classifier"}
    assert models["classifier"].spec == cls.spec


def test_checkpoint_rejects_foreign_and_damaged_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1, "models": {}}')
    with pytest.raises(ValueError):
        load_checkpoint(path)

    bundle = build_bundle(*small_specs())
    good = tmp_path / "good.json"
    save_bundle(bundle, good)
    text = good.read_text().replace('"version":1', '"version":99')
    bad_version = tmp_path / "v99.json"
    bad_version.write_text(text)
    with pytest.raises(ValueError):
        load_checkpoint(bad_version)


def _damage(payload, how):
    entry = payload["models"]["classifier"]
    rec = entry["parameters"]["conv0.kernels"]
    if how == "models_list":
        payload["models"] = []
    elif how == "entry_string":
        payload["models"]["classifier"] = "classifier"
    elif how == "unknown_kind":
        entry["kind"] = "critic"
    elif how == "spec_extra_field":
        entry["spec"]["depth"] = 3
    elif how == "spec_string_value":
        entry["spec"]["input_dim"] = "10"
    elif how == "spec_invalid_value":
        entry["spec"]["num_classes"] = 1
    elif how == "parameters_list":
        entry["parameters"] = []
    elif how == "values_strings":
        rec["values"] = ["x"] * len(rec["values"])
    elif how == "values_too_few":
        rec["values"] = rec["values"][:-1]
    elif how == "shape_string":
        rec["shape"] = "8,1,3"
    elif how == "seed_missing":
        del payload["seed"]


@pytest.mark.parametrize("how", ["models_list", "entry_string", "unknown_kind", "spec_extra_field",
                                 "spec_string_value", "spec_invalid_value", "parameters_list",
                                 "values_strings", "values_too_few", "shape_string",
                                 "seed_missing"])
def test_checkpoint_damage_raises_checkpoint_error(tmp_path, how):
    path = tmp_path / "cls.json"
    save_checkpoint({"classifier": Classifier(ClassifierSpec(10, num_classes=3, base_filters=8))},
                    path)
    payload = json.loads(path.read_text())
    _damage(payload, how)
    path.write_text(json.dumps(payload))
    with pytest.raises(PipelineError, match=re.escape(str(path))):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# pinned values: names, layer tables and the initial checkpoint bytes of the
# default networks at window dimension 50, 4 classes, seed 7


def _conv(name, in_channels, filters, activation):
    return {"type": "conv1d", "name": name, "in_channels": in_channels, "filters": filters,
            "kernel_size": 3, "activation": activation}


def _dense(in_features, units, activation):
    return {"type": "dense", "name": "output", "in_features": in_features, "units": units,
            "activation": activation}


GENERATOR_NAMES = [f"{layer}.{p}" for layer in ("block0.conv0", "block0.conv1", "block1.conv0",
                                                "block1.conv1", "output")
                   for p in ("kernels", "bias")]
DISCRIMINATOR_NAMES = [*(f"conv{i}.{p}" for i in range(5) for p in ("kernels", "bias")),
                       "output.weights", "output.bias"]
CLASSIFIER_NAMES = [*(f"conv{i}.{p}" for i in range(3) for p in ("kernels", "bias")),
                    "output.weights", "output.bias"]
LAYER_TABLES = {
    "generator": [_conv("block0.conv0", 2, 32, "relu"), _conv("block0.conv1", 32, 32, "relu"),
                  _conv("block1.conv0", 32, 32, "relu"), _conv("block1.conv1", 32, 32, "relu"),
                  _conv("output", 32, 1, "linear")],
    "discriminator": [_conv("conv0", 1, 16, "leaky_relu"), _conv("conv1", 16, 32, "leaky_relu"),
                      _conv("conv2", 32, 64, "leaky_relu"), _conv("conv3", 64, 32, "leaky_relu"),
                      _conv("conv4", 32, 16, "leaky_relu"), _dense(800, 1, "tanh")],
    "classifier": [_conv("conv0", 1, 16, "relu"), _conv("conv1", 16, 8, "relu"),
                   _conv("conv2", 8, 4, "relu"), _dense(200, 4, "softmax")],
}
# PCG64 draws and IEEE arithmetic only (no BLAS), so the bytes are portable
INITIAL_BUNDLE_SHA256 = "9b86adf613b08f5753bf23c0cb0ee6ac194a9d12bf33b89eb5ae43613349501e"


def default_bundle():
    return build_bundle(*NetworkConfig().specs(50, 4, seed=7))


def test_network_config_defaults_are_the_specs_own():
    assert NetworkConfig().specs(50, 4, seed=7) == (
        GeneratorSpec(50, seed=7), DiscriminatorSpec(50, seed=7), ClassifierSpec(50, 4, seed=7))


def test_parameter_names_are_pinned():
    bundle = default_bundle()
    assert list(bundle.generator.parameters()) == GENERATOR_NAMES
    assert list(bundle.discriminator.parameters()) == DISCRIMINATOR_NAMES
    assert list(bundle.classifier.parameters()) == CLASSIFIER_NAMES
    assert list(bundle.parameters()) == [
        *(f"generator.{n}" for n in GENERATOR_NAMES),
        *(f"discriminator.{n}" for n in DISCRIMINATOR_NAMES),
        *(f"classifier.{n}" for n in CLASSIFIER_NAMES)]


def test_architectures_are_pinned():
    bundle = default_bundle()
    for kind, expected in LAYER_TABLES.items():
        assert layer_table(getattr(bundle, kind)) == expected


def test_initial_bundle_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "initial.json"
    save_bundle(default_bundle(), path, seed=7)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INITIAL_BUNDLE_SHA256
