"""Forward-pass primitives for small sequence classifiers.

Everything here is inference only and written against plain numpy so the
arithmetic stays inspectable: conv/pool/dense layers, the GRU cell, a
JSON weights-bundle format that composes them into a stack, and a
nearest-centroid fallback classifier for feature vectors. Every layer
acts on the last axes and carries leading batch axes through, so a
bundle runs on one (steps, channels) window or an (n, steps, channels)
stack of them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tables

BUNDLE_FORMAT = "weights.v1"
CENTROID_FORMAT = "centroids.v1"

GRU_GATES = ("update", "reset", "candidate")

# forward_bundle runs a stack this many windows at a time. A larger block
# runs little faster but holds conv rows in proportion: over 224 stock
# windows, blocks of 32 took 16 ms with a 3.8 MB peak, blocks of 128
# 14 ms with 15 MB (2 vCPUs, NumPy 2.4, one BLAS thread).
FORWARD_BLOCK = 32


class BundleError(ValueError):
    """Raised when a weights bundle is malformed or internally inconsistent."""


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def relu(x):
    return np.maximum(x, 0.0)


def softmax(x):
    """Softmax over the last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


ACTIVATIONS = {
    "sigmoid": sigmoid,
    "tanh": np.tanh,
    "relu": relu,
    "linear": lambda x: x,
    "softmax": softmax,
}

# The kernels check nothing: _layer checks each bundle layer once, at build.


def conv1d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid cross-correlation along time, as one matrix product.

    x is (..., steps, channels), kernel is (kernel_len, channels, filters),
    bias is (filters,); output is (..., steps - kernel_len + 1, filters).
    The taps of each output step are one row of channels·kernel_len
    values, and one BLAS product takes all rows through the kernel laid
    out as a (channels·kernel_len, filters) matrix. The rows are a copy,
    kernel_len times the size of x, so forward_bundle hands this a block
    of windows at a time.
    """
    klen, channels, filters = kernel.shape
    taps = np.lib.stride_tricks.sliding_window_view(x, klen, axis=-2)
    # taps is (..., out_steps, channels, kernel_len); a row's index is c·kernel_len + k
    rows = taps.reshape(-1, channels * klen)
    weights = kernel.transpose(1, 0, 2).reshape(channels * klen, filters)
    return (rows @ weights).reshape(taps.shape[:-2] + (filters,)) + bias


def maxpool1d(x: np.ndarray, pool: int = 2, stride: int = 2) -> np.ndarray:
    """Max over non-padded time windows; trailing remainder is dropped."""
    count = (x.shape[-2] - pool) // stride + 1
    idx = np.arange(count)[:, None] * stride + np.arange(pool)
    return x[..., idx, :].max(axis=-2)


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """weights is (units, in_dim); returns weights @ x + bias for each
    in_dim vector on the last axis of x."""
    return x @ weights.T + bias


def gru_forward(x, W, U, b, return_sequences=False):
    """Run a GRU over (..., steps, in_dim) input from zero initial state;
    W is (3, units, units), U is (3, units, in_dim), b is (3, units) in
    gate order update, reset, candidate."""
    h = np.zeros(x.shape[:-2] + b.shape[1:])
    outputs = np.empty(x.shape[:-1] + b.shape[1:])
    for t in range(x.shape[-2]):
        xt = x[..., t, :]
        z = sigmoid(h @ W[0].T + xt @ U[0].T + b[0])
        r = sigmoid(h @ W[1].T + xt @ U[1].T + b[1])
        h_tilde = np.tanh((r * h) @ W[2].T + xt @ U[2].T + b[2])
        h = (1.0 - z) * h + z * h_tilde
        outputs[..., t, :] = h
    return outputs if return_sequences else h


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """One layer of a bundle; its weights are held as finite float64 arrays."""

    kind: str
    params: dict = field(default_factory=dict)
    weights: dict | None = None

    def __post_init__(self):
        if self.weights is not None:
            object.__setattr__(self, "weights", {
                k: np.asarray(v, dtype=np.float64) for k, v in self.weights.items()})
            for key, value in self.weights.items():
                if not np.isfinite(value).all():
                    raise BundleError(f"{self.kind} {key} holds a non-finite value")


@dataclass(frozen=True, eq=False)
class WeightsBundle:
    """A validated stack of layers plus labelling metadata.

    feature_norm, when present, holds per-channel "mean" and "scale"
    lists applied to the input window as (x - mean) / scale. forwards
    holds the steps that validate_bundle builds once, with the bundle.
    """

    layers: tuple[LayerSpec, ...]
    class_names: tuple[str, ...]
    input_len: int
    input_channels: int
    feature_norm: dict | None = None
    forwards: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "forwards", tuple(validate_bundle(self)))


def _activation(name):
    if name not in ACTIVATIONS:
        raise BundleError(f"unknown activation {name!r}")
    return ACTIVATIONS[name]


def _integer(name: str, value) -> int:
    """value, refused unless a JSON integer (a bool is not one)."""
    if type(value) is not int:
        raise BundleError(f"{name} must be an integer, not {value!r}")
    return value


def _layer(spec: LayerSpec, steps: int | None, dim: int):
    """Check one layer against the (steps, dim) input it receives, steps
    None for a vector; return the (steps, dim) it emits and its forward
    function. The parameter defaults of the bundle format live here."""
    kind, params, w = spec.kind, spec.params, spec.weights
    if steps is None and kind in ("conv1d", "maxpool1d", "gru"):
        raise BundleError(f"{kind} after a non-sequence layer")
    if kind == "conv1d":
        kernel, bias = w["kernel"], w["bias"]
        if kernel.ndim != 3 or kernel.shape[1] != dim:
            raise BundleError(f"conv1d kernel {kernel.shape} cannot act on {dim} channels")
        if bias.shape != (kernel.shape[2],):
            raise BundleError(f"conv1d bias {bias.shape} != filters {kernel.shape[2]}")
        if steps < kernel.shape[0]:
            raise BundleError(
                f"conv1d kernel {kernel.shape[0]} longer than remaining {steps} steps"
            )
        act = _activation(params.get("activation", "relu"))
        return (steps - kernel.shape[0] + 1, kernel.shape[2],
                lambda x: act(conv1d_forward(x, kernel, bias)))
    if kind == "maxpool1d":
        pool = _integer("maxpool1d pool", params.get("pool", 2))
        stride = _integer("maxpool1d stride", params.get("stride", pool))
        if pool < 1 or stride < 1:
            raise BundleError(f"maxpool1d pool {pool} and stride {stride} must be positive")
        if steps < pool:
            raise BundleError(f"maxpool1d pool {pool} exceeds remaining {steps} steps")
        return (steps - pool) // stride + 1, dim, lambda x: maxpool1d(x, pool, stride)
    if kind == "dropout":
        rate = params.get("rate", 0.0)
        if type(rate) not in (int, float):
            raise BundleError(f"dropout rate must be a number, not {rate!r}")
        if not (0 <= rate < 1):
            raise BundleError(f"dropout rate {rate} outside [0, 1)")
        return steps, dim, lambda x: x  # the identity at inference
    if kind == "gru":
        n, units = len(GRU_GATES), _integer("gru units", params["units"])
        for key, want in (("W", (n, units, units)), ("U", (n, units, dim)), ("b", (n, units))):
            if w[key].shape != want:
                raise BundleError(f"gru {key} has shape {w[key].shape}, want {want}")
        W, U, b = w["W"], w["U"], w["b"]
        sequences = params.get("return_sequences", False)
        if not isinstance(sequences, bool):
            raise BundleError(f"gru return_sequences must be true or false, not {sequences!r}")
        return steps if sequences else None, units, lambda x: gru_forward(x, W, U, b, sequences)
    if kind == "dense":
        weights, bias = w["weights"], w["bias"]
        if steps is not None:
            raise BundleError("dense layer requires a vector, not a sequence")
        if weights.ndim != 2 or weights.shape[1] != dim:
            raise BundleError(f"dense weights {weights.shape} cannot act on {dim} inputs")
        if bias.shape != (weights.shape[0],):
            raise BundleError(f"dense bias {bias.shape} != units {weights.shape[0]}")
        act = _activation(params.get("activation", "linear"))
        return None, weights.shape[0], lambda x: act(dense_forward(x, weights, bias))
    raise BundleError(f"unknown layer kind {kind!r}")


def validate_bundle(bundle: WeightsBundle) -> list:
    """Check that layer weight shapes compose from input to class scores;
    return the forward function of each step, feature_norm first."""
    if bundle.input_len < 1 or bundle.input_channels < 1:
        raise BundleError("input_len and input_channels must be positive")
    if not bundle.class_names:
        raise BundleError("bundle declares no class names")
    forwards = []
    if bundle.feature_norm is not None:
        mean, scale = (np.asarray(bundle.feature_norm.get(key), dtype=np.float64)
                       for key in ("mean", "scale"))
        for key, vals in (("mean", mean), ("scale", scale)):
            if vals.shape != (bundle.input_channels,):
                raise BundleError(f"feature_norm.{key} must list one value per channel")
            if not np.isfinite(vals).all():
                raise BundleError(f"feature_norm.{key} holds a non-finite value")
        if np.any(scale == 0):
            raise BundleError("feature_norm.scale contains a zero")
        forwards.append(lambda x: (x - mean) / scale)

    steps, dim = bundle.input_len, bundle.input_channels
    for spec in bundle.layers:
        steps, dim, forward = _layer(spec, steps, dim)
        forwards.append(forward)
    if steps is not None:
        raise BundleError("stack ends with a sequence; add a non-returning recurrent layer")
    if dim != len(bundle.class_names):
        raise BundleError(
            f"stack emits {dim} values but bundle names {len(bundle.class_names)} classes"
        )
    return forwards


def _forward_block(bundle: WeightsBundle, x: np.ndarray) -> np.ndarray:
    """Class scores of an (n, input_len, input_channels) block."""
    for forward in bundle.forwards:
        x = forward(x)
    return x


def forward_bundle(bundle: WeightsBundle, windows: np.ndarray) -> np.ndarray:
    """Class scores of one (input_len, input_channels) window, or of each
    window of an (n, input_len, input_channels) stack as an
    (n, classes) array.

    The stack runs FORWARD_BLOCK windows at a time, each block's scores
    written into one preallocated array, so the memory the pass holds is
    that of a block, not of the stack. One window runs as a stack of one.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-2:] != (bundle.input_len, bundle.input_channels):
        raise ValueError(
            f"window shape {x.shape} != ([n,] {bundle.input_len}, {bundle.input_channels})"
        )
    stack = x if x.ndim == 3 else x[None]
    scores = np.empty((len(stack), len(bundle.class_names)))
    for start in range(0, len(stack), FORWARD_BLOCK):
        block = slice(start, start + FORWARD_BLOCK)
        scores[block] = _forward_block(bundle, stack[block])
    return scores if x.ndim == 3 else scores[0]


def best_class(class_names, scores: np.ndarray) -> str | list[str]:
    """The highest-scoring class of one score row, or of each row of an
    (n, classes) matrix; a tie goes to the alphabetically first name. A
    NaN score is refused.

    The columns are taken in name order, so argmax, which returns the
    first of equal maxima, picks that name.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise ValueError("a class score is NaN")
    order = sorted(range(len(class_names)), key=class_names.__getitem__)
    picks = np.asarray(order)[scores[..., order].argmax(axis=-1)]
    if picks.ndim == 0:
        return class_names[int(picks)]
    return [class_names[i] for i in picks.tolist()]


def save_bundle(path: str | Path, bundle: WeightsBundle) -> None:
    doc = {
        "format": BUNDLE_FORMAT,
        "input_len": bundle.input_len,
        "input_channels": bundle.input_channels,
        "class_names": list(bundle.class_names),
        "feature_norm": bundle.feature_norm,
        "layers": [
            {"kind": s.kind, "params": s.params,
             "weights": None if s.weights is None
             else {k: v.tolist() for k, v in s.weights.items()}}
            for s in bundle.layers
        ],
    }
    tables.write_json(path, doc)


@contextmanager
def _model_file(path, doc):
    """Yield doc, or the JSON object read from the model file when doc is
    None; any defect of the content is re-raised as one BundleError that
    names the file."""
    if doc is None:
        doc = tables.read_json_object(path)
    try:
        yield doc
    except KeyError as exc:
        raise BundleError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise BundleError(f"{path}: {exc}") from None


def load_bundle(path: str | Path, doc: dict | None = None) -> WeightsBundle:
    """doc, when given, is the file's already-parsed JSON object."""
    with _model_file(path, doc) as doc:
        if doc.get("format") != BUNDLE_FORMAT:
            raise BundleError(f"unsupported bundle format {doc.get('format')!r}")
        layers = tuple(
            LayerSpec(kind=d["kind"], params=d.get("params", {}), weights=d.get("weights"))
            for d in doc["layers"]
        )
        return WeightsBundle(
            layers=layers,
            class_names=tuple(doc["class_names"]),
            input_len=_integer("input_len", doc["input_len"]),
            input_channels=_integer("input_channels", doc["input_channels"]),
            feature_norm=doc.get("feature_norm"),
        )


def make_default_bundle(
    class_names,
    input_len: int = 128,
    input_channels: int = 3,
    seed: int | None = None,
) -> WeightsBundle:
    """Build the stock conv + GRU stack with zero or seeded random weights.

    Stack: conv1d(32 filters, kernel 64) relu, conv1d(128, kernel 64) relu,
    dropout 0.07, maxpool(2, 2), gru(64) returning sequences, gru(64),
    dropout 0.2, dense to class scores, softmax.
    """
    rng = None if seed is None else np.random.default_rng(seed)

    def draw(*shape):
        if rng is None:
            return np.zeros(shape)
        return rng.normal(0.0, 0.05, size=shape)

    def gru_weights(units, in_dim):
        return {
            "W": draw(3, units, units),
            "U": draw(3, units, in_dim),
            "b": draw(3, units),
        }

    n_classes = len(tuple(class_names))
    layers = (
        LayerSpec(
            "conv1d",
            {"activation": "relu"},
            {"kernel": draw(64, input_channels, 32), "bias": draw(32)},
        ),
        LayerSpec(
            "conv1d",
            {"activation": "relu"},
            {"kernel": draw(64, 32, 128), "bias": draw(128)},
        ),
        LayerSpec("dropout", {"rate": 0.07}),
        LayerSpec("maxpool1d", {"pool": 2, "stride": 2}),
        LayerSpec("gru", {"units": 64, "return_sequences": True}, gru_weights(64, 128)),
        LayerSpec("gru", {"units": 64, "return_sequences": False}, gru_weights(64, 64)),
        LayerSpec("dropout", {"rate": 0.2}),
        LayerSpec(
            "dense",
            {"activation": "softmax"},
            {"weights": draw(n_classes, 64), "bias": draw(n_classes)},
        ),
    )
    return WeightsBundle(
        layers=layers,
        class_names=tuple(class_names),
        input_len=input_len,
        input_channels=input_channels,
    )


@dataclass(frozen=True, eq=False)
class CentroidModel:
    """Nearest-centroid classifier over extracted feature vectors.

    scale holds per-feature divisors, so the distance is standardized
    Euclidean: unscaled, feature units with large noise variance (peak
    spacings in ms) would drown out the stable ones.
    """

    class_names: tuple[str, ...]
    centroids: np.ndarray
    layout: str
    scale: np.ndarray

    def __post_init__(self):
        centroids = np.asarray(self.centroids, dtype=np.float64)
        scale = np.asarray(self.scale, dtype=np.float64)
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "scale", scale)
        if centroids.ndim != 2 or centroids.shape[0] != len(self.class_names):
            raise ValueError(
                f"{len(self.class_names)} classes but centroid matrix is {centroids.shape}"
            )
        if not np.isfinite(centroids).all():
            raise ValueError("centroids hold a non-finite value")
        if scale.shape != (centroids.shape[1],):
            raise ValueError(f"scale shape {scale.shape} != feature width")
        if not np.all((scale > 0) & np.isfinite(scale)):
            raise ValueError("scale values must be positive and finite")

    def classify(self, features: np.ndarray) -> list[str]:
        """The nearest class of each row of an (n, width) feature matrix;
        load_model and read_features check the width where a file comes in."""
        distances = np.column_stack(
            [np.linalg.norm((c - features) / self.scale, axis=1) for c in self.centroids])
        return best_class(self.class_names, -distances)


def save_centroids(path: str | Path, model: CentroidModel) -> None:
    doc = {
        "format": CENTROID_FORMAT,
        "layout": model.layout,
        "class_names": list(model.class_names),
        "centroids": model.centroids.tolist(),
        "scale": model.scale.tolist(),
    }
    tables.write_json(path, doc)


def load_centroids(path: str | Path, doc: dict | None = None) -> CentroidModel:
    """doc, when given, is the file's already-parsed JSON object."""
    with _model_file(path, doc) as doc:
        if doc.get("format") != CENTROID_FORMAT:
            raise BundleError(f"unsupported centroid format {doc.get('format')!r}")
        return CentroidModel(
            class_names=tuple(doc["class_names"]),
            centroids=doc["centroids"],
            layout=doc["layout"],
            scale=doc["scale"],
        )
