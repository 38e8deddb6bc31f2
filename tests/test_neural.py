"""Numeric kernels, the GRU cell, weight bundles, centroid models."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from homeactivity.neural import (
    FORWARD_BLOCK,
    BundleError,
    CentroidModel,
    LayerSpec,
    WeightsBundle,
    best_class,
    conv1d_forward,
    dense_forward,
    forward_bundle,
    gru_forward,
    load_bundle,
    load_centroids,
    make_default_bundle,
    maxpool1d,
    save_bundle,
    save_centroids,
    sigmoid,
    softmax,
)


class TestActivations:
    def test_sigmoid_midpoint_and_symmetry(self):
        assert sigmoid(0.0) == 0.5
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_softmax_matches_reference_and_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.normal(scale=10, size=int(rng.integers(2, 9)))
            got = softmax(x)
            np.testing.assert_allclose(got, oracles.naive_softmax(x.tolist()),
                                       atol=1e-12)
            assert abs(got.sum() - 1.0) < 1e-12

    def test_softmax_survives_large_inputs(self):
        got = softmax(np.array([1000.0, 1000.0, 500.0]))
        np.testing.assert_allclose(got[:2], 0.5, atol=1e-12)


def test_gru_matches_scalar_trace():
    rng = np.random.default_rng(13)
    for _ in range(40):
        units = int(rng.integers(1, 5))
        in_dim = int(rng.integers(1, 5))
        steps = int(rng.integers(1, 6))
        W = rng.normal(size=(3, units, units))
        U = rng.normal(size=(3, units, in_dim))
        b = rng.normal(size=(3, units))
        x = rng.normal(size=(steps, in_dim))
        got = gru_forward(x, W, U, b, return_sequences=True)
        want = oracles.scalar_gru(x.tolist(), W.tolist(), U.tolist(), b.tolist())
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestKernels:
    def test_conv1d_matches_naive(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            steps = int(rng.integers(2, 20))
            channels = int(rng.integers(1, 5))
            klen = int(rng.integers(1, steps + 1))
            filters = int(rng.integers(1, 5))
            x = rng.normal(size=(steps, channels))
            kernel = rng.normal(size=(klen, channels, filters))
            bias = rng.normal(size=filters)
            got = conv1d_forward(x, kernel, bias)
            want = oracles.naive_conv1d(x.tolist(), kernel.tolist(), bias.tolist())
            np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("steps, channels, filters", [(128, 3, 32), (65, 32, 128)])
    def test_conv1d_matches_naive_at_the_stock_shapes(self, steps, channels, filters):
        """The stock stack's two conv layers, 64 taps each: a product over
        channels·64 terms, where a changed summation order would show."""
        rng = np.random.default_rng(17)
        x = rng.normal(9.0, 2.0, size=(steps, channels))
        kernel = rng.normal(0.0, 0.05, size=(64, channels, filters))
        bias = rng.normal(0.0, 0.05, size=filters)
        got = conv1d_forward(x, kernel, bias)
        want = oracles.naive_conv1d(x.tolist(), kernel.tolist(), bias.tolist())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_maxpool_matches_naive(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            steps = int(rng.integers(2, 30))
            x = rng.normal(size=(steps, int(rng.integers(1, 4))))
            pool = int(rng.integers(1, steps + 1))
            stride = int(rng.integers(1, 5))
            got = maxpool1d(x, pool, stride)
            want = oracles.naive_maxpool(x.tolist(), pool, stride)
            np.testing.assert_allclose(got, want)

    def test_dense_matches_naive(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=6)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        np.testing.assert_allclose(
            dense_forward(x, w, b),
            oracles.naive_dense(x.tolist(), w.tolist(), b.tolist()),
            atol=1e-9,
        )


def tiny_bundle():
    rng = np.random.default_rng(20)
    return WeightsBundle(
        layers=(
            LayerSpec("conv1d", {"activation": "relu"},
                      {"kernel": rng.normal(size=(3, 2, 4)).tolist(),
                       "bias": rng.normal(size=4).tolist()}),
            LayerSpec("maxpool1d", {"pool": 2, "stride": 2}),
            LayerSpec("gru", {"units": 3},
                      {"W": rng.normal(size=(3, 3, 3)).tolist(),
                       "U": rng.normal(size=(3, 3, 4)).tolist(),
                       "b": rng.normal(size=(3, 3)).tolist()}),
            LayerSpec("dense", {"activation": "softmax"},
                      {"weights": rng.normal(size=(2, 3)).tolist(),
                       "bias": rng.normal(size=2).tolist()}),
        ),
        class_names=("A", "B"),
        input_len=10,
        input_channels=2,
    )


class TestBundle:
    def test_forward_matches_composed_oracles(self):
        bundle = tiny_bundle()
        rng = np.random.default_rng(21)
        window = rng.normal(size=(10, 2))
        conv = bundle.layers[0].weights
        x = oracles.naive_conv1d(window.tolist(), conv["kernel"], conv["bias"])
        x = [[max(v, 0.0) for v in row] for row in x]
        x = oracles.naive_maxpool(x, 2, 2)
        g = bundle.layers[2].weights
        x = oracles.scalar_gru(x, g["W"], g["U"], g["b"])[-1]
        d = bundle.layers[3].weights
        want = oracles.naive_softmax(oracles.naive_dense(x, d["weights"], d["bias"]))
        np.testing.assert_allclose(forward_bundle(bundle, window), want, atol=1e-9)

    def test_default_stack_shape(self):
        bundle = make_default_bundle(class_names=("a", "b", "c"), seed=1)
        probs = forward_bundle(bundle, np.zeros((128, 3)))
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_classify_breaks_ties_lexicographically(self):
        bundle = make_default_bundle(class_names=("b", "a"))  # zero weights
        probs = forward_bundle(bundle, np.zeros((128, 3)))
        assert best_class(bundle.class_names, probs) == "a"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_call_over_a_matrix_is_the_rule_per_row(self, data):
        """Highest score, then the alphabetically first name among exact
        ties, whether asked of one row or of the whole matrix."""
        names = tuple(data.draw(st.lists(st.text(max_size=3), min_size=1, max_size=6,
                                         unique=True)))
        k = len(names)
        n = data.draw(st.integers(0, 12))
        # few distinct scores, so that exact ties, at the top too, are common
        palette = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3))
        scores = np.array(data.draw(st.lists(st.sampled_from(palette), min_size=n * k,
                                             max_size=n * k))).reshape(n, k)

        def rule(row):
            return min(names[i] for i in np.flatnonzero(row == row.max()))

        assert best_class(names, scores) == [rule(row) for row in scores]
        assert [best_class(names, row) for row in scores] == [rule(row) for row in scores]

    def test_a_nan_score_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            best_class(("a", "b"), np.array([[0.5, 0.5], [np.nan, 1.0]]))

    def test_validation_rejects_bad_stacks(self):
        base = tiny_bundle()
        with pytest.raises(BundleError, match="sequence"):
            WeightsBundle(layers=base.layers[:2] + base.layers[3:],
                          class_names=("A", "B"), input_len=10, input_channels=2)
        with pytest.raises(BundleError, match="names 3"):
            WeightsBundle(layers=base.layers, class_names=("A", "B", "C"),
                          input_len=10, input_channels=2)
        with pytest.raises(BundleError, match="W has shape"):
            WeightsBundle(
                layers=(LayerSpec("gru", {"units": 2},
                                  {"W": np.zeros((3, 1, 1)).tolist(),
                                   "U": np.zeros((3, 2, 2)).tolist(),
                                   "b": np.zeros((3, 2)).tolist()}),
                        base.layers[3]),
                class_names=("A", "B"), input_len=10, input_channels=2)

    def test_feature_norm_applied(self):
        bundle = tiny_bundle()
        shifted = WeightsBundle(
            layers=bundle.layers,
            class_names=bundle.class_names,
            input_len=10,
            input_channels=2,
            feature_norm={"mean": [1.0, -2.0], "scale": [2.0, 0.5]},
        )
        rng = np.random.default_rng(22)
        window = rng.normal(size=(10, 2))
        manual = (window - np.array([1.0, -2.0])) / np.array([2.0, 0.5])
        np.testing.assert_allclose(
            forward_bundle(shifted, window), forward_bundle(bundle, manual),
            atol=1e-12,
        )

    def test_forward_runs_the_steps_checked_at_build(self, monkeypatch):
        """A bundle is checked once, when it is built; forwards reuse its steps."""
        bundle, calls = tiny_bundle(), []
        monkeypatch.setattr("homeactivity.neural.validate_bundle",
                            lambda b: calls.append(b) or [])
        window = np.random.default_rng(24).normal(size=(10, 2))
        assert forward_bundle(bundle, window).shape == (2,)
        assert forward_bundle(bundle, np.stack([window, window])).shape == (2, 2)
        assert calls == []

    def test_save_load_roundtrip(self, tmp_path):
        bundle = tiny_bundle()
        path = tmp_path / "weights.json"
        save_bundle(path, bundle)
        back = load_bundle(path)
        rng = np.random.default_rng(23)
        window = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(
            forward_bundle(back, window), forward_bundle(bundle, window)
        )

    def test_loaded_weights_are_float_arrays(self, tmp_path):
        """Converted once at load, so no forward pass converts them again."""
        path = tmp_path / "weights.json"
        save_bundle(path, tiny_bundle())
        for spec in load_bundle(path).layers:
            for value in (spec.weights or {}).values():
                assert isinstance(value, np.ndarray) and value.dtype == np.float64

    def test_format_token_checked(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"format": "weights.v9"}), encoding="utf-8")
        with pytest.raises(BundleError, match="weights.v9"):
            load_bundle(path)


def conv(kernel=(3, 2, 4), bias=(4,), **params):
    return LayerSpec("conv1d", params, {"kernel": np.zeros(kernel), "bias": np.zeros(bias)})


def pool(**params):
    return LayerSpec("maxpool1d", params)


def recurrent(in_dim=4, units=3, shapes=None, **params):
    want = {"W": (3, units, units), "U": (3, units, in_dim), "b": (3, units)}
    return LayerSpec("gru", {"units": units, **params},
                     {k: np.zeros(v) for k, v in {**want, **(shapes or {})}.items()})


def dense(weights=(2, 3), bias=(2,), **params):
    return LayerSpec("dense", {"activation": "softmax", **params},
                     {"weights": np.zeros(weights), "bias": np.zeros(bias)})


# conv 10 -> 8 steps of 4, pool -> 4 steps, gru -> a vector of 3, dense -> 2
VALID = {"layers": (conv(), pool(), recurrent(), dense()), "class_names": ("A", "B"),
         "input_len": 10, "input_channels": 2}


def stack(*layers):
    return {"layers": layers}


# One defect per bundle, each against VALID; the value is the exact message.
REJECTIONS = {
    "input_len": ({"input_len": 0}, "input_len and input_channels must be positive"),
    "no_classes": ({"class_names": ()}, "bundle declares no class names"),
    "norm_shape": ({"feature_norm": {"mean": [0.0] * 3, "scale": [1.0] * 2}},
                   "feature_norm.mean must list one value per channel"),
    "norm_scale_shape": ({"feature_norm": {"mean": [0.0] * 2, "scale": [1.0]}},
                         "feature_norm.scale must list one value per channel"),
    "norm_zero_scale": ({"feature_norm": {"mean": [0.0] * 2, "scale": [1.0, 0.0]}},
                        "feature_norm.scale contains a zero"),
    "unknown_kind": (stack(conv(), pool(), LayerSpec("attention"), recurrent(), dense()),
                     "unknown layer kind 'attention'"),
    "conv_activation": (stack(conv(activation="swish"), pool(), recurrent(), dense()),
                        "unknown activation 'swish'"),
    "dense_activation": (stack(conv(), pool(), recurrent(), dense(activation="gelu")),
                         "unknown activation 'gelu'"),
    "conv_channels": (stack(conv(kernel=(3, 3, 4)), pool(), recurrent(), dense()),
                      "conv1d kernel (3, 3, 4) cannot act on 2 channels"),
    "conv_bias": (stack(conv(bias=(5,)), pool(), recurrent(), dense()),
                  "conv1d bias (5,) != filters 4"),
    "conv_too_long": (stack(conv(kernel=(11, 2, 4)), pool(), recurrent(), dense()),
                      "conv1d kernel 11 longer than remaining 10 steps"),
    "pool_zero": (stack(conv(), pool(pool=0), recurrent(), dense()),
                  "maxpool1d pool 0 and stride 0 must be positive"),
    "stride_zero": (stack(conv(), pool(stride=0), recurrent(), dense()),
                    "maxpool1d pool 2 and stride 0 must be positive"),
    "pool_too_long": (stack(conv(), pool(pool=9), recurrent(), dense()),
                      "maxpool1d pool 9 exceeds remaining 8 steps"),
    "dropout_rate": (stack(conv(), LayerSpec("dropout", {"rate": 1.0}), pool(),
                           recurrent(), dense()),
                     "dropout rate 1.0 outside [0, 1)"),
    "dense_on_sequence": (stack(conv(), pool(), dense(weights=(2, 4))),
                          "dense layer requires a vector, not a sequence"),
    "conv_after_vector": (stack(conv(), pool(), recurrent(), conv(kernel=(1, 3, 3), bias=(3,)),
                                dense()),
                          "conv1d after a non-sequence layer"),
    "pool_after_vector": (stack(conv(), pool(), recurrent(), pool(), dense()),
                          "maxpool1d after a non-sequence layer"),
    "gru_after_vector": (stack(conv(), pool(), recurrent(), recurrent(in_dim=3), dense()),
                         "gru after a non-sequence layer"),
    "gru_W": (stack(conv(), pool(), recurrent(shapes={"W": (3, 2, 2)}), dense()),
              "gru W has shape (3, 2, 2), want (3, 3, 3)"),
    "gru_U": (stack(conv(), pool(), recurrent(shapes={"U": (3, 3, 3)}), dense()),
              "gru U has shape (3, 3, 3), want (3, 3, 4)"),
    "gru_sequences_text": (stack(conv(), pool(), recurrent(return_sequences="false"), dense()),
                           "gru return_sequences must be true or false, not 'false'"),
    "gru_sequences_number": (stack(conv(), pool(), recurrent(return_sequences=1), dense()),
                             "gru return_sequences must be true or false, not 1"),
    "lstm": (stack(conv(), pool(), LayerSpec("lstm", {"units": 3}), dense()),
             "unknown layer kind 'lstm'"),
    "dense_weights": (stack(conv(), pool(), recurrent(), dense(weights=(2, 4))),
                      "dense weights (2, 4) cannot act on 3 inputs"),
    "dense_bias": (stack(conv(), pool(), recurrent(), dense(bias=(3,))),
                   "dense bias (3,) != units 2"),
    "ends_in_sequence": (stack(conv(), pool(), recurrent(return_sequences=True)),
                         "stack ends with a sequence; add a non-returning recurrent layer"),
    "class_count": ({"class_names": ("A", "B", "C")},
                    "stack emits 2 values but bundle names 3 classes"),
}


def test_valid_stack_builds():
    assert forward_bundle(WeightsBundle(**VALID), np.zeros((10, 2))).shape == (2,)


@pytest.mark.parametrize("case", REJECTIONS)
def test_each_rejection_has_its_message(case):
    change, message = REJECTIONS[case]
    with pytest.raises(BundleError) as info:
        WeightsBundle(**{**VALID, **change})
    assert str(info.value) == message


@st.composite
def stacks(draw):
    """A random valid bundle and an (n, input_len, input_channels) stack:
    sequence layers (conv1d, maxpool1d, dropout, and GRU returning
    sequences), a closing GRU, then dropout and dense layers, the last
    naming the classes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    input_len, channels = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    steps, dim, layers = input_len, channels, []

    def recurrent(units, return_sequences):
        params = {"units": units, "return_sequences": return_sequences}
        return LayerSpec("gru", params, {"W": rng.normal(size=(3, units, units)),
                                         "U": rng.normal(size=(3, units, dim)),
                                         "b": rng.normal(size=(3, units))})

    for kind in draw(st.lists(st.sampled_from(
            ["conv1d", "maxpool1d", "dropout", "gru"]), max_size=4)):
        if kind == "conv1d":
            klen, filters = draw(st.integers(1, steps)), draw(st.integers(1, 3))
            activation = draw(st.sampled_from(["relu", "tanh", "sigmoid", "linear"]))
            layers.append(LayerSpec("conv1d", {"activation": activation},
                                    {"kernel": rng.normal(size=(klen, dim, filters)),
                                     "bias": rng.normal(size=filters)}))
            steps, dim = steps - klen + 1, filters
        elif kind == "maxpool1d":
            pool, stride = draw(st.integers(1, steps)), draw(st.integers(1, 3))
            layers.append(LayerSpec("maxpool1d", {"pool": pool, "stride": stride}))
            steps = (steps - pool) // stride + 1
        elif kind == "dropout":
            layers.append(LayerSpec("dropout", {"rate": 0.5}))
        else:
            units = draw(st.integers(1, 3))
            layers.append(recurrent(units, True))
            dim = units
    units = draw(st.integers(1, 3))
    layers.append(recurrent(units, False))
    dim = units
    for out in draw(st.lists(st.integers(1, 3), max_size=2)) + [draw(st.integers(1, 4))]:
        if draw(st.booleans()):
            layers.append(LayerSpec("dropout", {"rate": 0.2}))
        activation = draw(st.sampled_from(["linear", "softmax"]))
        layers.append(LayerSpec("dense", {"activation": activation},
                                {"weights": rng.normal(size=(out, dim)),
                                 "bias": rng.normal(size=out)}))
        dim = out
    feature_norm = None
    if draw(st.booleans()):
        feature_norm = {"mean": rng.normal(size=channels).tolist(),
                        "scale": rng.uniform(0.5, 2.0, size=channels).tolist()}
    bundle = WeightsBundle(layers=tuple(layers),
                           class_names=tuple(f"c{i}" for i in range(dim)),
                           input_len=input_len, input_channels=channels,
                           feature_norm=feature_norm)
    return bundle, rng.normal(size=(draw(st.integers(0, 5)), input_len, channels))


class TestStack:
    @settings(max_examples=300, deadline=None)
    @given(stacks())
    def test_stack_equals_its_windows(self, drawn):
        bundle, stack = drawn
        got = forward_bundle(bundle, stack)
        assert got.shape == (len(stack), len(bundle.class_names))
        for row, window in zip(got, stack):
            np.testing.assert_allclose(row, forward_bundle(bundle, window),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 9, 2), (1, 4, 10, 2), (2,)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="window shape"):
            forward_bundle(tiny_bundle(), np.zeros(shape))


def forward_peak(bundle, windows) -> int:
    """The tracemalloc peak, in bytes, of one forward_bundle call."""
    forward_bundle(bundle, windows[:1])
    tracemalloc.start()
    try:
        forward_bundle(bundle, windows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_memory_is_bounded_by_the_block():
    """Ten blocks of the stock stack hold about what one block holds: the
    conv rows of one block, not of the stack, are alive at once."""
    bundle = make_default_bundle([f"c{i}" for i in range(7)], seed=1)
    windows = np.random.default_rng(25).normal(9.0, 2.0, (10 * FORWARD_BLOCK, 128, 3))
    one_block = forward_peak(bundle, windows[:FORWARD_BLOCK])
    assert forward_peak(bundle, windows) <= 1.5 * one_block


class TestCentroids:
    def test_nearest_centroid_euclidean(self):
        model = CentroidModel(
            class_names=("far", "near"),
            centroids=np.array([[10.0, 10.0], [1.0, 1.0]]),
            layout="acc43.v1",
            scale=np.ones(2),
        )
        assert model.classify(np.array([[0.0, 0.0]])) == ["near"]

    def test_tie_prefers_lexicographic_name(self):
        model = CentroidModel(
            class_names=("b", "a"),
            centroids=np.array([[1.0], [-1.0]]),
            layout="acc43.v1",
            scale=np.ones(1),
        )
        assert model.classify(np.array([[0.0]])) == ["a"]

    def test_scale_reweights_distance(self):
        # unscaled, the first axis dominates; scaling flips the winner
        centroids = np.array([[6.0, 0.0], [0.0, 2.0]])
        x = np.array([[0.0, 0.0]])
        flat = CentroidModel(("wide", "tall"), centroids, "acc43.v1", scale=np.ones(2))
        assert flat.classify(x) == ["tall"]
        scaled = CentroidModel(("wide", "tall"), centroids, "acc43.v1",
                               scale=np.array([10.0, 0.1]))
        assert scaled.classify(x) == ["wide"]

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            CentroidModel(("a",), np.ones((1, 2)), "acc43.v1",
                          scale=np.array([1.0, 0.0]))

    def test_save_load_roundtrip(self, tmp_path):
        model = CentroidModel(
            class_names=("a", "b"),
            centroids=np.array([[0.125, -3.5], [2.0, 7.0]]),
            layout="acc43.v1",
            scale=np.array([0.5, 2.0]),
        )
        path = tmp_path / "centroids.json"
        save_centroids(path, model)
        back = load_centroids(path)
        assert back.class_names == model.class_names
        assert back.layout == model.layout
        np.testing.assert_array_equal(back.centroids, model.centroids)
        np.testing.assert_array_equal(back.scale, model.scale)
