"""Tests for the neural-network application substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.registry import build
from repro.nn.dataset import IMAGE_SIZE, NUM_CLASSES, make_dataset
from repro.nn.evaluate import (
    evaluate_multipliers,
    float_accuracy,
    logit_distortion,
    trained_setup,
)
from repro.nn.mlp import FixedPointMlp, float_logits, train_mlp


class TestDataset:
    def test_deterministic(self):
        first = make_dataset(train_per_class=5, test_per_class=2)
        second = make_dataset(train_per_class=5, test_per_class=2)
        assert np.array_equal(first.train_x, second.train_x)
        assert np.array_equal(first.test_y, second.test_y)

    def test_shapes_and_ranges(self):
        data = make_dataset(train_per_class=5, test_per_class=3)
        assert data.train_x.shape == (5 * NUM_CLASSES, IMAGE_SIZE**2)
        assert data.test_x.shape == (3 * NUM_CLASSES, IMAGE_SIZE**2)
        assert data.train_x.dtype == np.uint8
        assert set(np.unique(data.train_y)) == set(range(NUM_CLASSES))

    def test_classes_are_separable(self):
        # nearest-template classification must beat chance by a wide margin
        data = make_dataset(train_per_class=20, test_per_class=10)
        centroids = np.stack(
            [
                data.train_x[data.train_y == label].mean(axis=0)
                for label in range(NUM_CLASSES)
            ]
        )
        distances = np.linalg.norm(
            data.test_x[:, None, :].astype(float) - centroids[None], axis=2
        )
        accuracy = np.mean(np.argmin(distances, axis=1) == data.test_y)
        assert accuracy > 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            make_dataset(train_per_class=0)


class TestTraining:
    def test_float_model_learns(self):
        data, params = trained_setup()
        assert float_accuracy(data, params) > 0.93

    def test_weights_fit_q8(self):
        _, params = trained_setup()
        assert max(abs(params.w1).max(), abs(params.w2).max()) < 2.0

    def test_training_deterministic(self):
        data = make_dataset(train_per_class=10, test_per_class=5)
        first = train_mlp(data.train_x, data.train_y, epochs=2)
        second = train_mlp(data.train_x, data.train_y, epochs=2)
        assert np.array_equal(first.w1, second.w1)


class TestFixedPointInference:
    def test_accurate_quantization_matches_float(self):
        data, params = trained_setup()
        model = FixedPointMlp(params, AccurateMultiplier())
        fixed_accuracy = model.accuracy(data.test_x, data.test_y)
        assert abs(fixed_accuracy - float_accuracy(data, params)) < 0.03

    def test_quantized_logits_track_float(self):
        data, params = trained_setup()
        model = FixedPointMlp(params, AccurateMultiplier())
        fixed = model.logits(data.test_x[:50]).astype(np.float64)
        reference = float_logits(params, data.test_x[:50])
        # fixed logits live at scale 255 * 2^8
        scale = 255.0 * 256.0
        correlation = np.corrcoef(fixed.ravel(), (reference * scale).ravel())[0, 1]
        assert correlation > 0.999

    def test_single_sample_predict(self):
        data, params = trained_setup()
        model = FixedPointMlp(params, AccurateMultiplier())
        single = model.predict(data.test_x[0])
        assert single.shape == (1,)

    def test_rejects_narrow_multiplier(self):
        _, params = trained_setup()
        with pytest.raises(ValueError):
            FixedPointMlp(params, AccurateMultiplier(bitwidth=8))


class TestApproximateInference:
    def test_realm_negligible_accuracy_loss(self):
        results = evaluate_multipliers(["accurate", "realm16-t0", "realm4-t9"])
        assert results["realm16-t0"] >= results["accurate"] - 0.02
        assert results["realm4-t9"] >= results["accurate"] - 0.03

    def test_distortion_ordering_tracks_table1(self):
        distortion = logit_distortion(
            ["realm16-t0", "realm4-t9", "mbm-t0", "calm", "ssm-m8"]
        )
        assert (
            distortion["realm16-t0"]
            < distortion["realm4-t9"]
            < distortion["mbm-t0"]
            < distortion["calm"]
            < distortion["ssm-m8"]
        )

    def test_accurate_distortion_zero(self):
        assert logit_distortion(["accurate"])["accurate"] == 0.0


class TestCnn:
    def test_float_cnn_learns(self):
        from repro.nn.evaluate import float_cnn_accuracy, trained_cnn_setup

        data, params = trained_cnn_setup()
        assert float_cnn_accuracy(data, params) > 0.95

    def test_cnn_weights_fit_q8(self):
        from repro.nn.evaluate import trained_cnn_setup

        _, params = trained_cnn_setup()
        # conv filters train a little hotter than the MLP's dense rows;
        # 4.0 still leaves the Q8 magnitudes (< 1024) far inside the
        # 16-bit operand range the datapath requires
        assert max(abs(params.conv_w).max(), abs(params.fc_w).max()) < 4.0

    def test_cnn_training_deterministic(self):
        from repro.nn.cnn import train_cnn

        data = make_dataset(train_per_class=10, test_per_class=5)
        first = train_cnn(data.train_x, data.train_y, epochs=2)
        second = train_cnn(data.train_x, data.train_y, epochs=2)
        assert np.array_equal(first.conv_w, second.conv_w)
        assert np.array_equal(first.fc_w, second.fc_w)

    def test_accurate_cnn_quantization_matches_float(self):
        from repro.nn.cnn import FixedPointCnn
        from repro.nn.evaluate import float_cnn_accuracy, trained_cnn_setup

        data, params = trained_cnn_setup()
        model = FixedPointCnn(params, AccurateMultiplier())
        fixed = model.accuracy(data.test_x, data.test_y)
        assert abs(fixed - float_cnn_accuracy(data, params)) < 0.03

    def test_cnn_pool_is_exact_comparison_only(self):
        # pooling commutes with the fixed-point clip: the pooled fixed
        # activations equal pooling applied to the unpooled ones
        from repro.nn.cnn import _pool_forward

        rng = np.random.default_rng(5)
        act = rng.integers(0, 4096, (3, 36, 8)).astype(np.int64)
        pooled, _ = _pool_forward(act)
        grid = act.reshape(3, 6, 6, 8)
        want = np.stack(
            [
                grid[:, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, :].max(axis=(1, 2))
                for i in range(3)
                for j in range(3)
            ],
            axis=1,
        )
        assert np.array_equal(pooled, want)

    def test_cnn_rejects_narrow_multiplier(self):
        from repro.nn.cnn import FixedPointCnn
        from repro.nn.evaluate import trained_cnn_setup

        _, params = trained_cnn_setup()
        with pytest.raises(ValueError):
            FixedPointCnn(params, AccurateMultiplier(bitwidth=8))

    def test_cnn_operands_stay_in_sixteen_bits(self):
        # the FC layer sees conv activations rescaled to the input
        # scale; they must remain valid 16-bit multiplier operands
        from repro.multipliers.signed import signed_matmul
        from repro.nn.cnn import FixedPointCnn
        from repro.nn.evaluate import trained_cnn_setup
        from repro.nn.mlp import WEIGHT_FRACTION_BITS

        data, params = trained_cnn_setup()
        model = FixedPointCnn(params, AccurateMultiplier())
        weights, bias = model.layers[0]
        patches = np.asarray(data.test_x, dtype=np.int64)
        acc = signed_matmul(
            model.multiplier,
            np.lib.stride_tricks.sliding_window_view(
                patches.reshape(-1, 8, 8), (3, 3), axis=(1, 2)
            ).reshape(len(patches), 36, 9),
            weights,
        ) + bias
        hidden = np.maximum(acc, 0) >> WEIGHT_FRACTION_BITS
        assert hidden.max() < (1 << 16)

    @pytest.mark.parametrize("name", ["intalp-l2", "scaletrim-t4-c2", "alm-maa-m3"])
    def test_cnn_mac_blocks_are_invisible(self, name, monkeypatch):
        # every application's MAC evaluates blocks along the leading axis;
        # integer sums make the CNN and MLP logits, the FIR output and the
        # DCT coefficients the same at one row per block and in one block
        from repro.multipliers import signed
        from tests.test_application_digests import application_outputs

        multiplier = build(name)
        default = application_outputs(multiplier)
        assert len(default["cnn"]) * 36 * 9 * 8 > signed.MAC_BLOCK
        for block in (1, 1 << 40):
            monkeypatch.setattr(signed, "MAC_BLOCK", block)
            outputs = application_outputs(multiplier)
            for application, values in default.items():
                assert np.array_equal(outputs[application], values), application

    def test_approximate_cnn_accuracy(self):
        from repro.nn.evaluate import evaluate_cnn_multipliers

        results = evaluate_cnn_multipliers(
            ["accurate", "scaletrim-t4-c2", "dnnco-l6"]
        )
        assert results["scaletrim-t4-c2"] >= results["accurate"] - 0.05
        assert results["dnnco-l6"] >= results["accurate"] - 0.02

    def test_accurate_cnn_distortion_zero(self):
        from repro.nn.evaluate import cnn_logit_distortion

        assert cnn_logit_distortion(["accurate"])["accurate"] == 0.0


class TestCnnStudy:
    def test_rows_and_pareto(self):
        from repro.experiments import cnn_study

        rows = cnn_study(["accurate", "realm16-t0", "scaletrim-t4-c2"])
        by_name = {row["name"]: row for row in rows}
        assert set(by_name) == {"accurate", "realm16-t0", "scaletrim-t4-c2"}
        for row in rows:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert isinstance(row["pareto"], bool)
        # accurate is dominated by any design with area savings and no
        # accuracy loss beyond it; at minimum the front is non-empty
        assert any(row["pareto"] for row in rows)
        assert by_name["accurate"]["area_reduction"] == 0.0

    def test_warehouse_roundtrip_feeds_report(self, tmp_path):
        from repro.experiments import cnn_study
        from repro.warehouse import build_trends, open_warehouse

        ids = ["accurate", "scaletrim-t4-c2"]
        first = cnn_study(ids, warehouse=tmp_path)
        second = cnn_study(ids, warehouse=tmp_path)
        assert [r["accuracy"] for r in first] == [r["accuracy"] for r in second]
        wh = open_warehouse(tmp_path)
        try:
            trends = build_trends(wh, kind="cnn")
        finally:
            wh.close()
        assert len(trends["runs"]) == 2
        # the second campaign must be served from the store
        assert trends["runs"][1]["reused"] == len(ids)
        apps = trends["applications"]
        assert set(apps) == set(ids)
        for name in ids:
            assert len(apps[name]) == 2
            assert apps[name][0]["accuracy"] == apps[name][1]["accuracy"]
            assert "area_reduction" in apps[name][0]

    def test_a_warm_study_runs_no_forward_pass(self, tmp_path, monkeypatch):
        import repro.nn
        from repro.experiments import cnn_study
        from repro.multipliers.base import Multiplier

        ids = ["accurate", "calm"]
        cold = cnn_study(ids, warehouse=tmp_path)
        calls = []

        def counted(original, name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            repro.nn, "float_cnn_accuracy", counted(repro.nn.float_cnn_accuracy, "float")
        )
        monkeypatch.setattr(Multiplier, "multiply", counted(Multiplier.multiply, "multiply"))
        assert cnn_study(ids, warehouse=tmp_path) == cold
        assert calls == []
        # one computed row brings back the float reference it needs
        rows = cnn_study([*ids, "drum-k8"], warehouse=tmp_path)
        assert calls.count("float") == 1 and "multiply" in calls
        assert rows[2]["float_reference"] == cold[0]["float_reference"]

    def test_recording_failure_is_counted_not_raised(self, tmp_path, monkeypatch):
        from repro.analysis import telemetry
        from repro.experiments import cnn_study
        from repro.warehouse.store import Warehouse, WarehouseError

        def failing(self, *args, **kwargs):
            raise WarehouseError("disk full")

        monkeypatch.setattr(Warehouse, "record_run", failing)
        ids = ["accurate", "realm16-t0"]
        with telemetry.recording() as rec:
            rows = cnn_study(ids, warehouse=tmp_path)
        assert [row["name"] for row in rows] == ids
        assert rec.snapshot.counter("warehouse.errors") == 1
