import struct

import numpy as np
import pytest

from alphamargin import cli, synthdata, trainer
from alphamargin.core import AlphaParams
from alphamargin.errors import DataFormatError
from alphamargin.losses import AnnealSchedule, MarginConfig
from alphamargin.synthdata import SynthSpec, generate
from alphamargin.trainer import (
    Model,
    TrainConfig,
    annealed_margin,
    embed,
    forward_cosines,
    init_model,
    load_checkpoint,
    loss_and_grads,
    reinitialize_prototypes,
    save_checkpoint,
    sgd_step,
    train,
    write_metrics_csv,
)


def small_dataset(seed=1, **kw):
    base = dict(k=8, d=6, samples_per_id=8, noise_kappa=15.0, seed=seed)
    base.update(kw)
    return generate(SynthSpec(**base))


def config(mode="q_margin", alpha=1.5, epochs=3, **kw):
    base = dict(
        epochs=epochs,
        batch_size=16,
        lr_schedule=[(1, 0.1)],
        loss=MarginConfig(scale=16.0, margin=0.2, mode=mode),
        alpha=AlphaParams(alpha),
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestForwardCosines:
    def test_aligned_embedding(self):
        W = np.eye(3)
        E = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(forward_cosines(E, W)[0], [1.0, 0.0, 0.0])

    def test_dot_product_value(self):
        E = np.array([[0.6, 0.8]])
        W = np.array([[1.0, 0.0]])
        assert forward_cosines(E, W)[0, 0] == pytest.approx(0.6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward_cosines(np.ones((1, 3)), np.ones((2, 4)))

    def test_embed_matches_the_out_of_place_forward(self, rng):
        model = init_model(6, 16, 5, 8, rng)
        model.b1[:] = rng.standard_normal(16)
        model.b2[:] = rng.standard_normal(5)
        X = rng.standard_normal((37, 6))
        H = np.tanh(X @ model.w1.T + model.b1)
        Z = H @ model.w2.T + model.b2
        E = Z / np.maximum(np.linalg.norm(Z, axis=-1, keepdims=True), 1e-12)
        assert embed(model, X).tobytes() == E.tobytes()
        assert trainer._forward(model, X)[0].tobytes() == H.tobytes()

    def test_range(self, rng):
        model = init_model(6, 16, 6, 8, rng)
        C = forward_cosines(embed(model, rng.standard_normal((10, 6))), model.prototypes)
        assert np.all(np.abs(C) <= 1.0 + 1e-6)


class TestBackwardStep:
    def test_zero_gradient_leaves_weights_modulo_decay(self):
        rng = np.random.default_rng(0)
        model = init_model(4, 8, 4, 5, rng)
        before = {n: p.copy() for n, p in model.params().items()}
        grads = {n: np.zeros_like(p) for n, p in model.params().items()}
        sgd_step(model, grads, {}, lr=0.1, momentum=0.9, weight_decay=0.0)
        for n in Model.PARAM_NAMES:
            np.testing.assert_allclose(getattr(model, n), before[n], atol=1e-12)

    def test_prototype_gradient_is_tangent(self):
        # normalization Jacobian projects out the radial component
        rng = np.random.default_rng(1)
        ds = small_dataset()
        model = init_model(ds.d, 8, ds.d, ds.k, rng)
        cfg = config()
        _, grads = loss_and_grads(model, ds.points[:16], ds.labels[:16], cfg.loss, cfg.alpha)
        radial = np.sum(grads["prototypes"] * model.prototypes, axis=1)
        np.testing.assert_allclose(radial, 0.0, atol=1e-10)

    @pytest.mark.parametrize("mode,alpha", [("q_margin", 1.5), ("a3m", 1.25), ("cosface", 1.5), ("arcface", 1.5)])
    def test_finite_difference_all_parameters(self, mode, alpha):
        rng = np.random.default_rng(2)
        ds = small_dataset()
        model = init_model(ds.d, 8, ds.d, ds.k, rng)
        cfg = config(mode=mode, alpha=alpha)
        params = AlphaParams(cfg.alpha.alpha, bisect_tol=1e-14)
        X, ys = ds.points[:24], ds.labels[:24]
        _, grads = loss_and_grads(model, X, ys, cfg.loss, params)
        h = 1e-6
        for name, coord in [("prototypes", (3, 2)), ("w1", (5, 1)), ("w2", (2, 3)), ("b1", (0,)), ("b2", (1,))]:
            p = getattr(model, name)
            old = p[coord]
            p[coord] = old + h
            up, _ = loss_and_grads(model, X, ys, cfg.loss, params)
            p[coord] = old - h
            down, _ = loss_and_grads(model, X, ys, cfg.loss, params)
            p[coord] = old
            num = (up - down) / (2 * h)
            assert num == pytest.approx(grads[name][coord], rel=1e-3, abs=1e-7)

    def test_forward_is_embed_then_forward_cosines(self, monkeypatch):
        # the loss sees the cosines of embed()'s embeddings, bit for bit
        rng = np.random.default_rng(3)
        ds = small_dataset()
        model = init_model(ds.d, 8, ds.d, ds.k, rng)
        X, ys = ds.points[:8], ds.labels[:8]
        seen = []

        def spy(embeddings, prototypes):
            seen.append((embeddings, prototypes))
            return forward_cosines(embeddings, prototypes)

        monkeypatch.setattr(trainer, "forward_cosines", spy)
        cfg = config()
        loss_and_grads(model, X, ys, cfg.loss, cfg.alpha)
        (E, W), = seen
        np.testing.assert_array_equal(E, embed(model, X))
        norms = np.linalg.norm(model.prototypes, axis=1, keepdims=True)
        np.testing.assert_array_equal(W, model.prototypes / norms)

    def test_nonfinite_gradient_aborts(self):
        # a nan weight spoils every embedding, a nan prototype row one column
        # of cosines; the step checks the unit rows, not the cosines
        ds = small_dataset()
        cfg = config()
        for name, at in [("w1", (0, 0)), ("prototypes", 3)]:
            model = init_model(ds.d, 8, ds.d, ds.k, np.random.default_rng(3))
            getattr(model, name)[at] = np.nan
            with pytest.raises(FloatingPointError, match="non-finite cosines in the forward pass"):
                loss_and_grads(model, ds.points[:8], ds.labels[:8], cfg.loss, cfg.alpha)

    def test_nonfinite_loss_gradient_aborts(self, monkeypatch):
        # finite cosines, but a loss gradient dC that is not finite
        def nan_grad(C, ys, loss_cfg, params):
            dC = np.zeros_like(C)
            dC[0, 1] = np.nan
            return np.zeros(len(ys)), dC

        monkeypatch.setattr(trainer, "batch_loss_and_cosine_grad", nan_grad)
        ds = small_dataset()
        model = init_model(ds.d, 8, ds.d, ds.k, np.random.default_rng(3))
        cfg = config()
        with pytest.raises(FloatingPointError, match="non-finite loss gradient"):
            loss_and_grads(model, ds.points[:8], ds.labels[:8], cfg.loss, cfg.alpha)

    def test_overflowing_parameter_gradient_aborts(self):
        # hidden unit 0 is exactly 0, so its huge outgoing weights leave the
        # cosines and dC finite, while dH = dZ @ w2 overflows into w1's gradient
        ds = small_dataset()
        model = init_model(ds.d, 8, ds.d, ds.k, np.random.default_rng(3))
        model.w1[0] = 0.0
        model.w2[:, 0] = 1e308
        cfg = config()
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match="non-finite gradient for w1"
        ):
            loss_and_grads(model, ds.points[:8], ds.labels[:8], cfg.loss, cfg.alpha)


class TestReinitializePrototypes:
    def _identity_model(self, d, k):
        # w1/w2 chosen so that embed() is (close to) the identity on unit inputs
        big = 1e6
        model = Model(
            w1=np.eye(d) * big,
            b1=np.zeros(d),
            w2=np.eye(d),
            b2=np.zeros(d),
            prototypes=np.eye(k, d),
        )
        return model

    def test_two_orthogonal_embeddings(self):
        rng = np.random.default_rng(0)
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 0])
        model = Model(
            w1=np.eye(2) * 50.0,
            b1=np.zeros(2),
            w2=np.eye(2) * 50.0,
            b2=np.zeros(2),
            prototypes=np.eye(2),
        )
        W = reinitialize_prototypes(points, labels, 2, model, rng)
        E = embed(model, points)
        expected = (E[0] + E[1]) / np.linalg.norm(E[0] + E[1])
        np.testing.assert_allclose(W[0], expected, atol=1e-9)
        assert np.linalg.norm(W[0] - np.array([0.7071, 0.7071])) < 1e-2

    def test_single_embedding_becomes_prototype(self, rng):
        ds = small_dataset()
        model = init_model(ds.d, 8, ds.d, ds.k, rng)
        one = ds.points[:1]
        W = reinitialize_prototypes(one, np.array([0]), ds.k, model, rng)
        np.testing.assert_allclose(W[0], embed(model, one)[0], atol=1e-9)

    def test_identical_embeddings(self, rng):
        ds = small_dataset()
        model = init_model(ds.d, 8, ds.d, ds.k, rng)
        pts = np.repeat(ds.points[:1], 5, axis=0)
        W = reinitialize_prototypes(pts, np.zeros(5, dtype=int), ds.k, model, rng)
        np.testing.assert_allclose(W[0], embed(model, ds.points[:1])[0], atol=1e-9)

    def test_empty_identity_redrawn_unit(self, rng, caplog):
        ds = small_dataset()
        model = init_model(ds.d, 8, ds.d, ds.k, rng)
        W = reinitialize_prototypes(ds.points[:4], np.zeros(4, dtype=int), ds.k, model, rng)
        np.testing.assert_allclose(np.linalg.norm(W, axis=1), 1.0, atol=1e-9)


class TestAnnealedMargin:
    def test_constant_without_schedule(self):
        cfg = MarginConfig(scale=10, margin=0.3, mode="a3m")
        assert annealed_margin(cfg, 1) == 0.3
        assert annealed_margin(cfg, 100) == 0.3

    def test_ramp_shape(self):
        cfg = MarginConfig(
            scale=10, margin=0.3, mode="a3m", anneal=AnnealSchedule(start_epoch=5, end_epoch=10)
        )
        assert annealed_margin(cfg, 4) == 0.0
        assert annealed_margin(cfg, 5) == 0.0
        assert annealed_margin(cfg, 10) == 0.3
        values = [annealed_margin(cfg, e) for e in range(5, 11)]
        diffs = np.diff(values)
        assert np.all(diffs > 0)
        # exponential ramp: increments grow
        assert np.all(np.diff(diffs) > 0)


class TestTrain:
    def test_zero_epochs_returns_initial_model(self):
        ds = small_dataset()
        cfg = config(epochs=0)
        result = train(ds, cfg)
        ref = init_model(ds.d, cfg.hidden_dim, ds.d, ds.k, np.random.default_rng(cfg.seed))
        for n in Model.PARAM_NAMES:
            np.testing.assert_array_equal(getattr(result.model, n), getattr(ref, n))
        assert result.metrics == []

    def test_deterministic_metrics(self):
        ds = small_dataset()
        a = train(ds, config(epochs=2))
        b = train(ds, config(epochs=2))
        assert a.metrics == b.metrics

    def test_prototypes_stay_unit_norm(self):
        ds = small_dataset()
        result = train(ds, config(mode="a3m", alpha=1.25, epochs=2))
        np.testing.assert_allclose(
            np.linalg.norm(result.model.prototypes, axis=1), 1.0, atol=1e-6
        )

    def test_loss_decreases_on_separable_data(self):
        ds = small_dataset(noise_kappa=60.0)
        result = train(ds, config(epochs=6))
        losses = [m["loss"] for m in result.metrics]
        for a, b in zip(losses, losses[1:]):
            assert b <= a * 1.05

    def test_alpha_near_one_matches_cross_entropy_run(self):
        # margin 0: the generalized loss trajectory tracks plain CE closely
        ds = small_dataset()
        fy_cfg = config(mode="q_margin", alpha=1.001, epochs=3)
        fy_cfg.loss = MarginConfig(scale=16.0, margin=0.0, mode="q_margin")
        ce_cfg = config(mode="cosface", epochs=3)
        ce_cfg.loss = MarginConfig(scale=16.0, margin=0.0, mode="cosface")
        fy = train(ds, fy_cfg)
        ce = train(ds, ce_cfg)
        for m_fy, m_ce in zip(fy.metrics[1:], ce.metrics[1:]):
            assert m_fy["loss"] == pytest.approx(m_ce["loss"], rel=0.01)

    def test_reinit_event_and_no_misalignment_increase(self):
        ds = small_dataset(k=12, samples_per_id=6, noise_kappa=25.0)
        cfg = config(mode="a3m", alpha=1.25, epochs=6, reinit_epoch=3)
        cfg.loss = MarginConfig(scale=48.0, margin=0.4, mode="a3m")
        result = train(ds, cfg)
        assert any("re-initialized" in e for e in result.events)
        before = result.metrics[1]["misalignment_images"]  # epoch 2, pre-reinit
        after = result.metrics[3]["misalignment_images"]  # epoch 4, post-reinit
        assert after <= before + 1e-9

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"epochs": -1}, "epochs must be >= 0"),
            ({"batch_size": 0}, "batch_size must be >= 1"),
            ({"lr_schedule": []}, "lr_schedule must be nonempty"),
            ({"lr_schedule": [(1, 0.0)]}, "with positive rates"),
            ({"lr_schedule": [(1, 0.1), (3, -0.1)]}, "with positive rates"),
        ],
    )
    def test_config_validation(self, field, message):
        with pytest.raises(ValueError, match=message):
            config(**field)

    def test_a_q_margin_constant_that_overflows_is_refused(self):
        # (alpha-1)*s*m = 720 > ln(max double) ~ 709.78, at the last epoch's margin
        loss = MarginConfig(scale=400.0, margin=0.9, mode="q_margin")
        with pytest.raises(ValueError, match=r"\(alpha-1\)\*scale\*margin <= ln\(max double\)"):
            config(alpha=3.0, loss=loss)
        # what trains stays accepted: a lower alpha, another mode, or an anneal whose
        # ramp ends after the last epoch, so that the margin never comes near 0.9
        config(alpha=2.5, loss=loss)
        config(alpha=3.0, loss=MarginConfig(scale=400.0, margin=0.9, mode="a3m"))
        annealed_loss = MarginConfig(400.0, 0.9, "q_margin", AnnealSchedule(1, 50))
        annealed = config(alpha=3.0, epochs=2, loss=annealed_loss)
        assert train(small_dataset(), annealed).metrics[-1]["epoch"] == 2

    def test_reinit_epoch_validation(self):
        with pytest.raises(ValueError):
            config(epochs=3, reinit_epoch=3)

    @pytest.mark.parametrize(
        "schedule", [[(4, 0.005), (1, 0.2)], [(1, 0.2), (1, 0.1)], [(0, 0.1)], [(-2, 0.1)]]
    )
    def test_lr_schedule_starts_must_be_positive_and_increasing(self, schedule):
        with pytest.raises(ValueError, match="lr_schedule start epochs"):
            config(lr_schedule=schedule)


# dims (2^32-1, 2^32-1, 1, 1) make 2^64 + 1 floats, whose byte count wraps
# int64 to exactly the 32 bytes of this file
_WRAPPING_CHECKPOINT = b"AMCK" + struct.pack("<5I", 1, 2**32 - 1, 2**32 - 1, 1, 1) + bytes(8)


class TestCheckpointIO:
    def test_round_trip(self, tmp_path, rng):
        model = init_model(6, 16, 8, 10, rng)
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        for n in Model.PARAM_NAMES:
            np.testing.assert_array_equal(getattr(model, n), getattr(back, n))

    def test_truncation_detected(self, tmp_path, rng):
        model = init_model(6, 16, 8, 10, rng)
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_trailing_bytes_detected(self, tmp_path, rng):
        model = init_model(6, 16, 8, 10, rng)
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + bytes(13))
        with pytest.raises(DataFormatError, match="13 trailing bytes"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path, rng):
        model = init_model(6, 16, 8, 10, rng)
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (
                lambda raw: _WRAPPING_CHECKPOINT,
                r"truncated \(32 bytes, expected 147573952589676412960\)",
            ),
            (lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported version 2"),
            (lambda raw: raw[:23], "file too short for a checkpoint header"),
        ],
        ids=["wrapping_dims", "version", "short_header"],
    )
    def test_corrupt_header(self, tmp_path, rng, corrupt, message):
        path = tmp_path / "ck.bin"
        save_checkpoint(init_model(6, 16, 8, 10, rng), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(DataFormatError, match=message):
            load_checkpoint(path)

    def test_wrapping_dims_are_a_data_error_in_eval(self, tmp_path, capsys):
        ckpt = tmp_path / "ck.bin"
        ckpt.write_bytes(_WRAPPING_CHECKPOINT)
        dataset = tmp_path / "ds.bin"
        synthdata.save(small_dataset(), dataset)
        args = ["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset)]
        assert cli.main(args + ["--out-dir", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "truncated" in err and "Traceback" not in err

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weight(self, tmp_path, rng, bad):
        model = init_model(6, 5, 4, 3, rng)
        model.w2[1, 2] = bad
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path)
        with pytest.raises(DataFormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: checkpoint weights must be finite"

    def test_bytes_pin_the_format(self, tmp_path, rng):
        model = init_model(6, 16, 8, 10, rng)
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path)
        arrays = (model.w1, model.b1, model.w2, model.b2, model.prototypes)
        want = b"AMCK" + struct.pack("<IIIII", 1, 6, 16, 8, 10)
        assert path.read_bytes() == want + b"".join(a.astype("<f8").tobytes() for a in arrays)


def test_metrics_csv_format(tmp_path):
    rows = [
        {
            "epoch": 1,
            "loss": 1.5,
            "misalignment_ids": 0.0,
            "misalignment_images": 0.25,
            "posterior_sparsity": 0.9,
            "onehot_fraction": 0.1,
        }
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("epoch,loss,")
    assert text[1] == "1,1.5,0.0,0.25,0.9,0.1"
