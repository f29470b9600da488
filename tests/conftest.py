"""Shared helpers: finite-difference oracles, tolerance rules, and the parameter
count, layer table, PCA reference fit and PCA reconstruction that only the tests
need.

Gradient comparisons accept a point when the relative error is below 1e-4,
with an absolute floor of 1e-6 so that near-zero gradients are not judged
by a meaningless ratio (central differences carry ~1e-10 of roundoff).
"""
import numpy as np

from subadapt.networks import ConvLayer
from subadapt.pipeline import PcaModel

REL_TOL = 1e-4
ABS_FLOOR = 1e-6
FD_STEP = 1e-5


def numeric_gradient(fn, arr, h=FD_STEP):
    """Central-difference gradient of scalar fn() w.r.t. arr, mutated in place."""
    grad = np.zeros_like(arr)
    flat, out = arr.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        hi = fn()
        flat[i] = saved - h
        lo = fn()
        flat[i] = saved
        out[i] = (hi - lo) / (2.0 * h)
    return grad


def gradients_close(numeric, analytic, rel=REL_TOL, floor=ABS_FLOOR):
    numeric = np.asarray(numeric, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if numeric.shape != analytic.shape:
        return False
    diff = np.abs(numeric - analytic)
    scale = np.maximum(np.abs(numeric), np.abs(analytic))
    return bool(np.all((diff <= floor) | (diff <= rel * scale)))


def max_gradient_error(numeric, analytic, rel=REL_TOL, floor=ABS_FLOOR):
    """Worst violation ratio; <= 1.0 means the pair passes the tolerance."""
    diff = np.abs(np.asarray(numeric) - np.asarray(analytic))
    scale = np.maximum(np.abs(numeric), np.abs(analytic))
    allowed = np.maximum(floor, rel * scale)
    return float(np.max(diff / allowed)) if diff.size else 0.0


def parameter_count(net) -> int:
    return int(sum(p.data.size for p in net.parameters().values()))


def layer_table(net) -> list:
    """Each layer of `net`, hidden layers then the output layer, as the layer object gives
    it: filters, in-channels and kernel width from a conv layer's kernels, units and
    in-features from a dense layer's weights."""
    table = []
    for layer in (*net.layers, net.output_layer):
        if isinstance(layer, ConvLayer):
            filters, channels, width = layer.kernels.shape
            table.append({"type": "conv1d", "name": layer.name, "in_channels": channels,
                          "filters": filters, "kernel_size": width,
                          "activation": layer.activation})
        else:
            units, features = layer.weights.shape
            table.append({"type": "dense", "name": layer.name, "in_features": features,
                          "units": units, "activation": layer.activation})
    return table


def pca_inverse(model, reduced):
    """Windows back from their PCA coordinates: reduced @ components + mean."""
    return np.asarray(reduced, dtype=np.float64) @ model.components + model.mean


def pca_reference(pooled, output_dim):
    """The PCA fit on a centred copy of the caller's pooled matrix, kept as the reference."""
    mean = pooled.mean(axis=0)
    centered = pooled - mean
    scatter = centered.T @ centered
    eigenvalues, eigenvectors = np.linalg.eigh(scatter)
    components = eigenvectors[:, ::-1][:, :output_dim].T
    flip = np.sign(components[np.arange(output_dim), np.argmax(np.abs(components), axis=1)])
    return PcaModel(mean, components * np.where(flip == 0, 1.0, flip)[:, None],
                    np.clip(eigenvalues[::-1][:output_dim], 0.0, None) / np.trace(scatter))
