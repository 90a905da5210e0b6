import configparser
import json
import re
from dataclasses import MISSING, fields

import numpy as np
import pytest
from conftest import make_trials_loop_reference

from alphamargin import cli, synthdata, trainer
from alphamargin.core import AlphaParams
from alphamargin.losses import MarginConfig


def run(args):
    return cli.main(args)


def write_config(path, dataset, out_dir, overrides=None):
    base = {
        ("data", "dataset"): str(dataset),
        ("run", "out_dir"): str(out_dir),
        ("alpha", "alpha"): "1.5",
        ("loss", "mode"): "q_margin",
        ("loss", "scale"): "16.0",
        ("loss", "margin"): "0.2",
        ("train", "epochs"): "2",
        ("train", "batch_size"): "16",
        ("train", "lr_schedule"): "1:0.1",
        ("train", "seed"): "0",
        ("train", "hidden_dim"): "16",
    }
    base.update(overrides or {})
    sections = {}
    for (section, key), value in base.items():
        if value is not None:  # an override of None drops the key
            sections.setdefault(section, {})[key] = value
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
    path.write_text("\n".join(lines) + "\n")
    return path


def _names(cls, required=False):
    """Field names of a dataclass; only those without a default if required."""
    return {f.name for f in fields(cls) if not required or f.default is MISSING}


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "ds.bin"
    assert (
        run(
            [
                "gen",
                "--k", "8", "--d", "6", "--samples-per-id", "8",
                "--noise-kappa", "40.0", "--seed", "3", "--out", str(path),
            ]
        )
        == 0
    )
    return path


class TestGen:
    def test_writes_loadable_dataset(self, dataset_path):
        ds = synthdata.load(dataset_path)
        assert ds.k == 8 and ds.d == 6 and ds.n == 64

    def test_deterministic_bytes(self, tmp_path):
        args = [
            "gen", "--k", "4", "--d", "4", "--samples-per-id", "3",
            "--noise-kappa", "10.0", "--seed", "9",
        ]
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_k_is_usage_error(self, tmp_path, capsys):
        code = run(
            [
                "gen", "--k", "1", "--d", "4", "--samples-per-id", "3",
                "--noise-kappa", "10.0", "--out", str(tmp_path / "x.bin"),
            ]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, tmp_path):
        assert run(["gen", "--k", "4", "--out", str(tmp_path / "x.bin")]) == 1

    def test_omitted_options_take_the_spec_defaults(self, tmp_path):
        path, ref = tmp_path / "a.bin", tmp_path / "ref.bin"
        args = ["gen", "--k", "4", "--d", "4", "--samples-per-id", "3", "--noise-kappa", "10.0"]
        assert run(args + ["--out", str(path)]) == 0
        spec = synthdata.SynthSpec(k=4, d=4, samples_per_id=3, noise_kappa=10.0)
        synthdata.save(synthdata.generate(spec), ref)
        assert path.read_bytes() == ref.read_bytes()


class TestTrain:
    def test_full_run_outputs(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "train.ini", dataset_path, out)
        assert run(["train", str(cfg)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "config.ini").exists()
        assert (out / "train.log").exists()
        model = trainer.load_checkpoint(out / "checkpoint.bin")
        assert model.prototypes.shape == (8, 6)
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 epochs

    def test_config_echo_reproduces_metrics(self, tmp_path, dataset_path):
        out1 = tmp_path / "run1"
        cfg = write_config(tmp_path / "train.ini", dataset_path, out1)
        assert run(["train", str(cfg)]) == 0
        # re-run from the echoed config, redirected to a fresh out_dir
        out2 = tmp_path / "run2"
        echoed = (out1 / "config.ini").read_text().replace(str(out1), str(out2))
        (tmp_path / "echo.ini").write_text(echoed)
        assert run(["train", str(tmp_path / "echo.ini")]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.ini", tmp_path / "nope.bin", tmp_path / "o")
        assert run(["train", str(cfg)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, dataset_path, capsys):
        cfg = write_config(
            tmp_path / "t.ini", dataset_path, tmp_path / "o",
            {("train", "turbo"): "yes"},
        )
        assert run(["train", str(cfg)]) == 1
        assert "turbo" in capsys.readouterr().err

    def test_margin_underflowing_q_margin_weight_is_usage_error(self, tmp_path, dataset_path, capsys):
        cfg = write_config(
            tmp_path / "t.ini", dataset_path, tmp_path / "o",
            {("loss", "scale"): "1600.0", ("loss", "margin"): "0.5"},
        )
        assert run(["train", str(cfg)]) == 1
        assert "scale*margin" in capsys.readouterr().err

    @pytest.fixture
    def k10_path(self, tmp_path):
        path = tmp_path / "k10.bin"
        gen = ["gen", "--k", "10", "--d", "8", "--samples-per-id", "6", "--noise-kappa", "40"]
        assert run(gen + ["--out", str(path)]) == 0
        return path

    @staticmethod
    def _large_margin(tmp_path, dataset, out, alpha):
        overrides = {("alpha", "alpha"): alpha, ("loss", "scale"): "400", ("loss", "margin"): "0.9"}
        return write_config(tmp_path / "t.ini", dataset, out, overrides)

    def test_q_margin_constant_that_overflows_is_usage_error(self, tmp_path, k10_path, capsys):
        # (alpha-1)*s*m = 720: it used to exit 3, as a non-finite solver bracket or an
        # expm1 overflow reported as a divergence. It is refused before the dataset is read.
        for dataset in (k10_path, tmp_path / "missing.bin"):
            out = tmp_path / "o"
            assert run(["train", str(self._large_margin(tmp_path, dataset, out, "3"))]) == 1
            assert capsys.readouterr().err == (
                "usage error: invalid config: q_margin at alpha=3.0 needs (alpha-1)*scale*margin "
                "<= ln(max double) = 709.7827, so that the loss constant is finite; got 720.0\n"
            )
            assert not out.exists()

    def test_q_margin_constant_below_the_bound_still_trains(self, tmp_path, k10_path):
        # (alpha-1)*s*m = 540: the constant swamps the loss column but is a double
        out = tmp_path / "o"
        assert run(["train", str(self._large_margin(tmp_path, k10_path, out, "2.5"))]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["8.810264766124128e+233"] * 2

    def test_unknown_section_rejected(self, tmp_path, dataset_path):
        cfg = write_config(
            tmp_path / "t.ini", dataset_path, tmp_path / "o",
            {("extras", "x"): "1"},
        )
        assert run(["train", str(cfg)]) == 1

    @pytest.mark.parametrize("section,key", cli._REQUIRED)
    def test_missing_required_key_is_named(self, tmp_path, dataset_path, capsys, section, key):
        cfg = write_config(tmp_path / "t.ini", dataset_path, tmp_path / "o", {(section, key): None})
        assert run(["train", str(cfg)]) == 1
        assert capsys.readouterr().err == f"usage error: missing [{section}] {key}\n"

    @pytest.mark.parametrize("key", ["anneal_start", "anneal_end"])
    def test_anneal_bound_without_its_pair_is_usage_error(self, tmp_path, dataset_path, capsys, key):
        cfg = write_config(tmp_path / "t.ini", dataset_path, tmp_path / "o", {("loss", key): "2"})
        assert run(["train", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "anneal_start and anneal_end" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "override,message",
        [
            ((("train", "lr_schedule"), "4:0.005,1:0.2"), "lr_schedule start epochs"),
            ((("train", "lr_schedule"), "0:0.1"), "lr_schedule start epochs"),
            ((("loss", "scale"), "inf"), "scale must be finite"),
            ((("train", "hidden_dim"), "-1"), "hidden_dim and embed_dim must be >= 1"),
            ((("train", "hidden_dim"), "0"), "hidden_dim and embed_dim must be >= 1"),
            ((("train", "embed_dim"), "0"), "hidden_dim and embed_dim must be >= 1"),
        ],
    )
    def test_invalid_value_is_usage_error(self, tmp_path, dataset_path, capsys, override, message):
        cfg = write_config(tmp_path / "t.ini", dataset_path, tmp_path / "o", dict([override]))
        assert run(["train", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err and "Traceback" not in err

    def test_diverging_run_is_a_numeric_failure(self, tmp_path, dataset_path, capsys):
        cfg = write_config(
            tmp_path / "t.ini", dataset_path, tmp_path / "o", {("train", "lr_schedule"): "1:1e300"}
        )
        assert run(["train", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        # where it diverged, and at which rate: the 64 samples make 4 batches of 16
        assert re.match(
            r"numeric failure: training diverged at epoch 1, batch [1-4] \(lr 1e\+300\): \S", err
        ), err

    def test_layer_too_large_for_memory_is_usage_error(self, tmp_path, capsys):
        # a 10^11 x 3 first layer asks for 2.18 TiB, which no allocator grants
        dataset = tmp_path / "d3.bin"
        gen = ["gen", "--k", "4", "--d", "3", "--samples-per-id", "4", "--noise-kappa", "10.0"]
        assert run(gen + ["--out", str(dataset)]) == 0
        cfg = write_config(
            tmp_path / "t.ini", dataset, tmp_path / "o", {("train", "hidden_dim"): "100000000000"}
        )
        assert run(["train", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: out of memory") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_solver_failure_leaves_no_run_directory(self, tmp_path, dataset_path, capsys):
        # one sweep is too few: the first batch fails in the solver
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "t.ini", dataset_path, out, {("alpha", "max_iters"): "1"})
        assert run(["train", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"solver failure: row \d+: solver did not converge in 1 iterations \(bracket width "
            r"\S+, tol 1\.000e-10, posterior sum \d\.\d+(e[+-]\d+)?\)\n",
            err,
        ), err
        assert not out.exists()

    def test_anneal_keys_are_echoed_and_reproduce(self, tmp_path, dataset_path):
        out1 = tmp_path / "run1"
        anneal = {
            ("train", "epochs"): "3", ("loss", "anneal_start"): "1", ("loss", "anneal_end"): "3",
        }
        cfg = write_config(tmp_path / "train.ini", dataset_path, out1, anneal)
        assert run(["train", str(cfg)]) == 0
        echo = configparser.ConfigParser()
        echo.read(out1 / "config.ini")
        assert (echo["loss"]["anneal_start"], echo["loss"]["anneal_end"]) == ("1", "3")
        out2 = tmp_path / "run2"
        (tmp_path / "echo.ini").write_text(
            (out1 / "config.ini").read_text().replace(str(out1), str(out2))
        )
        assert run(["train", str(tmp_path / "echo.ini")]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        # the ramp takes effect: the margin is 0 in epoch 1
        out3 = tmp_path / "run3"
        plain = dict.fromkeys([("loss", "anneal_start"), ("loss", "anneal_end")])
        cfg = write_config(tmp_path / "plain.ini", dataset_path, out3, {**anneal, **plain})
        assert run(["train", str(cfg)]) == 0
        assert (out1 / "metrics.csv").read_bytes() != (out3 / "metrics.csv").read_bytes()

    def test_zero_epochs_leave_the_model_at_initialization(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "t.ini", dataset_path, out, {("train", "epochs"): "0"})
        assert run(["train", str(cfg)]) == 0
        assert capsys.readouterr().out == "done: 0 epochs (model left at initialization)\n"
        assert (out / "metrics.csv").read_text() == ",".join(trainer.METRIC_COLUMNS) + "\n"

    def test_reinit_event_printed(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path / "t.ini", dataset_path, out,
            {
                ("loss", "mode"): "a3m",
                ("alpha", "alpha"): "1.25",
                ("train", "epochs"): "3",
                ("train", "reinit_epoch"): "2",
            },
        )
        assert run(["train", str(cfg)]) == 0
        assert "EVENT epoch 2" in capsys.readouterr().out
        assert "EVENT epoch 2" in (out / "train.log").read_text()


class TestConfigSchema:
    def test_keys_are_the_dataclass_fields(self):
        assert set(cli._SCHEMA["alpha"]) == _names(AlphaParams)
        assert set(cli._SCHEMA["loss"]) == _names(MarginConfig) - {"anneal"} | {
            "anneal_start", "anneal_end"
        }
        assert set(cli._SCHEMA["train"]) == _names(trainer.TrainConfig) - {"loss", "alpha"}

    def test_required_keys_are_the_fields_without_default(self):
        required = {("data", "dataset"), ("run", "out_dir")}
        for section, cls in (("alpha", AlphaParams), ("loss", MarginConfig)):
            required |= {(section, name) for name in _names(cls, required=True)}
        required |= {
            ("train", name)
            for name in _names(trainer.TrainConfig, required=True) - {"loss", "alpha"}
        }
        assert set(cli._REQUIRED) == required

    def test_echo_of_a_minimal_config_round_trips(self, tmp_path):
        path = tmp_path / "t.ini"
        path.write_text(
            "[data]\ndataset = d.bin\n[run]\nout_dir = o\n[alpha]\nalpha = 1.5\n"
            "[loss]\nmode = a3m\nscale = 16.0\nmargin = 0.2\n"
            "[train]\nepochs = 3\nbatch_size = 8\nlr_schedule = 1:0.1,3:0.01\n"
        )
        parsed, cp = cli.read_train_config(path)
        cfg = parsed["train"]
        for section, obj in (("alpha", cfg.alpha), ("train", cfg)):
            for key in cli._SCHEMA[section]:
                value = getattr(obj, key)
                if value is None:
                    assert not cp.has_option(section, key)
                elif key != "lr_schedule":
                    assert cp.get(section, key) == repr(value)
        echo = tmp_path / "echo.ini"
        with open(echo, "w") as fh:
            cp.write(fh)
        again, _ = cli.read_train_config(echo)
        assert again == parsed
        assert cfg == trainer.TrainConfig(
            epochs=3, batch_size=8, lr_schedule=[(1, 0.1), (3, 0.01)],
            loss=MarginConfig(scale=16.0, margin=0.2, mode="a3m"), alpha=AlphaParams(1.5),
        )


class TestEval:
    def _train(self, tmp_path, dataset_path, epochs="4"):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path / "t.ini", dataset_path, out, {("train", "epochs"): epochs}
        )
        assert run(["train", str(cfg)]) == 0
        return out / "checkpoint.bin"

    def test_auto_trials_report_and_det(self, tmp_path, dataset_path, capsys):
        ckpt = self._train(tmp_path, dataset_path)
        out = tmp_path / "eval"
        code = run(
            [
                "eval", "--checkpoint", str(ckpt), "--dataset", str(dataset_path),
                "--n-genuine", "200", "--n-impostor", "400",
                "--far", "0.1", "--out-dir", str(out),
            ]
        )
        assert code == 0
        text = (out / "report.txt").read_text()
        assert "far=0.1" in text
        det = (out / "det.csv").read_text().splitlines()
        assert det[0] == "far,frr,threshold"
        fars = [float(ln.split(",")[0]) for ln in det[1:]]
        assert fars == sorted(fars)

    @pytest.mark.parametrize("seed", [0, 777])
    def test_sampled_trials_are_the_per_pair_loop(self, tmp_path, seed):
        # on the held-out set of the long-tail acceptance data, --trial-seed
        # gives the outputs of a trials file written by the per-pair loop
        spec = synthdata.SynthSpec(
            k=200, d=16, samples_per_id=12, noise_kappa=40.0, seed=100,
            few_fraction=0.3, few_count=2,
        )
        held = synthdata.generate_heldout(spec, per_id=6)
        dataset, ckpt = tmp_path / "held.bin", tmp_path / "ck.bin"
        synthdata.save(held, dataset)
        trainer.save_checkpoint(
            trainer.init_model(16, 32, 8, 200, np.random.default_rng(seed)), ckpt
        )
        trials = tmp_path / "trials.csv"
        rows = make_trials_loop_reference(held.labels, 2000, 20000, seed)
        trials.write_text("".join(f"{i},{j},{int(g)}\n" for i, j, g in rows))
        common = ["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                  "--far", "1e-2", "--far", "1e-3", "--far", "1e-4"]
        assert run(common + ["--trial-seed", str(seed), "--out-dir", str(tmp_path / "a")]) == 0
        assert run(common + ["--trials", str(trials), "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("det.csv", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_explicit_trials_file(self, tmp_path, dataset_path):
        ckpt = self._train(tmp_path, dataset_path)
        ds = synthdata.load(dataset_path)
        trials_path = tmp_path / "trials.csv"
        rows = ["0,1,1", "0,8,0", "1,2,1", "2,9,0"]
        trials_path.write_text("# i,j,flag\n" + "\n".join(rows) + "\n")
        out = tmp_path / "eval"
        code = run(
            [
                "eval", "--checkpoint", str(ckpt), "--dataset", str(dataset_path),
                "--trials", str(trials_path), "--far", "0.5", "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert "genuine 2 impostor 2" in (out / "report.txt").read_text()

    def test_dataset_label_out_of_range_is_data_error(self, tmp_path, dataset_path, capsys):
        ckpt = self._train(tmp_path, dataset_path, epochs="1")
        ds = synthdata.load(dataset_path)
        ds.labels[0] = ds.k
        bad = tmp_path / "bad.bin"
        synthdata.save(ds, bad)
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(ckpt), "--dataset", str(bad)]
        assert run(argv + ["--out-dir", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err == f"data error: {bad}: label out of range for k=8\n"

    def test_dataset_dimension_mismatch_is_data_error(self, tmp_path, dataset_path, capsys):
        ckpt = self._train(tmp_path, dataset_path, epochs="1")
        other = _dataset_of_another_dimension(tmp_path)
        out = tmp_path / "eval"
        capsys.readouterr()
        code = run(
            [
                "eval", "--checkpoint", str(ckpt), "--dataset", str(other),
                "--n-genuine", "20", "--n-impostor", "40", "--out-dir", str(out),
            ]
        )
        _assert_dimension_data_error(code, capsys, other)
        assert not out.exists()

    def test_unattainable_far_reported_not_fatal(self, tmp_path, dataset_path):
        ckpt = self._train(tmp_path, dataset_path)
        out = tmp_path / "eval"
        code = run(
            [
                "eval", "--checkpoint", str(ckpt), "--dataset", str(dataset_path),
                "--n-genuine", "50", "--n-impostor", "50",
                "--far", "0.001", "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert "unattainable" in (out / "report.txt").read_text()

    def test_a_second_eval_does_not_inherit_the_first_far_list(self, tmp_path, dataset_path):
        # main reuses one parser per process; the --far list is built per call
        ckpt = self._train(tmp_path, dataset_path)
        reports = []
        for name, far in (("first", ["--far", "0.1", "--far", "0.2"]), ("second", [])):
            out = tmp_path / name
            code = run(
                [
                    "eval", "--checkpoint", str(ckpt), "--dataset", str(dataset_path),
                    "--n-genuine", "50", "--n-impostor", "50", *far, "--out-dir", str(out),
                ]
            )
            assert code == 0
            reports.append((out / "report.txt").read_text())
        assert cli.build_parser() is cli.build_parser()
        assert "far=0.1" in reports[0] and "far=0.2" in reports[0]
        assert "far=" not in reports[1]

    def test_out_of_range_trial_is_data_error(self, tmp_path, dataset_path, capsys):
        ckpt = self._train(tmp_path, dataset_path)
        trials_path = tmp_path / "trials.csv"
        trials_path.write_text("0,9999,1\n0,8,0\n")
        code = run(
            [
                "eval", "--checkpoint", str(ckpt), "--dataset", str(dataset_path),
                "--trials", str(trials_path), "--out-dir", str(tmp_path / "e"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        want = f"{trials_path}: trial index (0, 9999) out of range for 64 embeddings"
        assert err == f"data error: {want}\n"


    def _eval(self, tmp_path, ckpt, dataset, *extra):
        out = tmp_path / "eval"
        code = run(
            ["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset), *extra,
             "--out-dir", str(out)]
        )
        return code, out

    @pytest.mark.parametrize("labels", [[0, 0, 0], [0, 1, 2]], ids=["one_identity", "singletons"])
    def test_dataset_without_trials_is_data_error(self, tmp_path, dataset_path, capsys, labels):
        # one identity has no impostor pairs (make_trials used to loop
        # forever); singletons have no genuine pairs
        ckpt = self._train(tmp_path, dataset_path, epochs="1")
        ds = synthdata.load(dataset_path)
        small = tmp_path / "small.bin"
        synthdata.save(
            synthdata.Dataset(points=ds.points[:3], labels=np.array(labels),
                              id_counts=np.bincount(labels)),
            small,
        )
        capsys.readouterr()
        code, out = self._eval(tmp_path, ckpt, small, "--n-genuine", "2", "--n-impostor", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("far", ["0", "1.5", "nan", "-0.001", "inf"])
    def test_far_outside_unit_interval_is_usage_error(self, tmp_path, capsys, far):
        # rejected while parsing, before any file is read or written
        code, out = self._eval(tmp_path, "missing.bin", "missing.bin", "--far", "0.1", "--far", far)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--far" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-genuine", "--n-impostor"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_trial_count_below_one_is_usage_error(self, tmp_path, capsys, flag, count):
        code, out = self._eval(tmp_path, "missing.bin", "missing.bin", flag, count)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text", ["", "# header only\n", "0,1,1\n1,2,1\n", "0,8,0\n"],
        ids=["empty", "comment_only", "genuine_only", "impostor_only"],
    )
    def test_trials_file_without_both_kinds_is_data_error(self, tmp_path, dataset_path, capsys, text):
        ckpt = self._train(tmp_path, dataset_path, epochs="1")
        trials_path = tmp_path / "trials.csv"
        trials_path.write_text(text)
        capsys.readouterr()
        code, out = self._eval(tmp_path, ckpt, dataset_path, "--trials", str(trials_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "both genuine" in err and "Traceback" not in err
        assert not (out / "det.csv").exists()

    @pytest.mark.parametrize(
        "bad", ["a,1,0", "0,1,2", "0,1,-1", "0,1", "0,1,0,1", "0.0,1,0", "0,1,true"]
    )
    def test_malformed_trial_line_is_data_error(self, tmp_path, dataset_path, capsys, bad):
        ckpt = self._train(tmp_path, dataset_path, epochs="1")
        trials_path = tmp_path / "trials.csv"
        trials_path.write_text(f"# i,j,flag\n0,1,1\n{bad}\n2,9,0\n")
        capsys.readouterr()
        code, out = self._eval(tmp_path, ckpt, dataset_path, "--trials", str(trials_path))
        assert code == 2
        err = capsys.readouterr().err
        assert f"trials.csv:3: bad trial line {bad!r}" in err and "Traceback" not in err
        assert not out.exists()

    def test_binary_trials_file_is_data_error(self, tmp_path, dataset_path, capsys):
        ckpt = self._train(tmp_path, dataset_path, epochs="1")
        trials_path = tmp_path / "trials.csv"
        trials_path.write_bytes(b"0,1,1\n\xa3\xff\x00\n")
        capsys.readouterr()
        code, out = self._eval(tmp_path, ckpt, dataset_path, "--trials", str(trials_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "not a text file" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("big", [10**30, -(10**30), 2**63])
    def test_trial_index_beyond_int64_is_data_error(self, tmp_path, dataset_path, capsys, big):
        # an index no int64 holds is out of range like any other; the first
        # bad trial is named, not the later one that is merely negative
        ckpt = self._train(tmp_path, dataset_path, epochs="1")
        trials_path = tmp_path / "trials.csv"
        trials_path.write_text(f"0,1,1\n2,{big},0\n-1,0,0\n")
        capsys.readouterr()
        code, out = self._eval(tmp_path, ckpt, dataset_path, "--trials", str(trials_path))
        assert code == 2
        err = capsys.readouterr().err
        assert f"trial index (2, {big}) out of range for 64 embeddings" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestProbe:
    def test_sparsemax_instance(self, capsys):
        code = run(["probe", "--theta", "0.5,0.0", "--alpha", "2.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.75" in out  # tau and the leading posterior mass
        assert "0.25" in out
        assert "support   2/2" in out

    def test_with_target_prints_loss(self, capsys):
        code = run(["probe", "--theta", "0.5,0.0", "--alpha", "2.0", "--target", "1"])
        assert code == 0
        assert "loss" in capsys.readouterr().out

    def test_bad_alpha_usage_error(self, capsys):
        assert run(["probe", "--theta", "1,0", "--alpha", "0.5"]) == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["--theta", "1,abc"],
            ["--theta", "1,0", "--q", "1,abc"],
            ["--theta", "1"],
            ["--theta", "1,nan"],
            ["--theta", "1,inf"],
            ["--theta", "1,0", "--q", "1,0"],
            ["--theta", "1,0", "--q", "1,-2"],
            ["--theta", "1,0", "--q", "1,1,1"],
            ["--theta", "1,0", "--target", "5"],
            ["--theta", "1,nan", "--target", "0"],
        ],
        ids=["theta-text", "q-text", "one-logit", "nan", "inf", "q-zero", "q-negative",
             "q-length", "target-range", "nan-with-target"],
    )
    def test_malformed_input_is_a_usage_error(self, args, capsys):
        assert run(["probe", "--alpha", "1.5"] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "Traceback" not in err


def _dataset_of_another_dimension(tmp_path):
    path = tmp_path / "d5.bin"
    args = ["gen", "--k", "8", "--d", "5", "--samples-per-id", "8", "--noise-kappa", "40.0"]
    assert run(args + ["--out", str(path)]) == 0
    return path


def _assert_dimension_data_error(code, capsys, dataset):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: ") and "Traceback" not in err
    assert f"{dataset}: points are 5-d" in err and "6-d inputs" in err


class TestStats:
    def test_dataset_dimension_mismatch_is_data_error(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "t.ini", dataset_path, out)
        assert run(["train", str(cfg)]) == 0
        other = _dataset_of_another_dimension(tmp_path)
        capsys.readouterr()
        code = run(
            [
                "stats", "--checkpoint", str(out / "checkpoint.bin"),
                "--dataset", str(other), "--config", str(cfg),
            ]
        )
        _assert_dimension_data_error(code, capsys, other)

    @pytest.mark.parametrize("k", [6, 9])
    def test_identity_count_mismatch_is_data_error(self, tmp_path, dataset_path, capsys, k):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "t.ini", dataset_path, out)
        assert run(["train", str(cfg)]) == 0
        other = tmp_path / f"k{k}.bin"
        gen = ["gen", "--k", str(k), "--d", "6", "--samples-per-id", "8", "--noise-kappa", "40.0"]
        assert run(gen + ["--out", str(other)]) == 0
        capsys.readouterr()
        ckpt = out / "checkpoint.bin"
        code = run(["stats", "--checkpoint", str(ckpt), "--dataset", str(other), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"data error: {other}: {k} identities, but {ckpt} has 8 prototypes\n"

    def test_config_needs_only_the_model_keys(self, tmp_path, dataset_path, capsys):
        # stats takes --dataset and writes nothing: [data] dataset and [run]
        # out_dir may be left out, which train still refuses
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "t.ini", dataset_path, out)
        assert run(["train", str(cfg)]) == 0
        stats = ["stats", "--checkpoint", str(out / "checkpoint.bin"), "--dataset", str(dataset_path)]
        capsys.readouterr()
        assert run(stats + ["--config", str(cfg)]) == 0
        want = capsys.readouterr().out
        drops = [[("data", "dataset")], [("run", "out_dir")], [("data", "dataset"), ("run", "out_dir")]]
        for drop in drops:
            lean = write_config(tmp_path / "lean.ini", dataset_path, out, dict.fromkeys(drop))
            assert run(stats + ["--config", str(lean)]) == 0
            assert capsys.readouterr().out == want
            assert run(["train", str(lean)]) == 1
            section, key = drop[0]
            assert capsys.readouterr().err == f"usage error: missing [{section}] {key}\n"
        for section, key in cli._MODEL_REQUIRED:
            bad = write_config(tmp_path / "bad.ini", dataset_path, out, {(section, key): None})
            assert run(stats + ["--config", str(bad)]) == 1
            assert capsys.readouterr().err == f"usage error: missing [{section}] {key}\n"

    @pytest.mark.parametrize("mode", ["q_margin", "a3m", "cosface"])
    def test_reproduces_the_last_metrics_row(self, tmp_path, dataset_path, capsys, mode):
        # train and stats build the report in two places; on the final
        # checkpoint and the run's config they must agree bit for bit, here
        # with the margin still on its ramp and the prototypes re-initialized
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path / "t.ini", dataset_path, out,
            {
                ("loss", "mode"): mode, ("alpha", "alpha"): "1.25", ("train", "epochs"): "3",
                ("loss", "anneal_start"): "1", ("loss", "anneal_end"): "4",
                ("train", "reinit_epoch"): "2",
            },
        )
        assert run(["train", str(cfg)]) == 0
        assert "EVENT epoch 2" in capsys.readouterr().out
        stats = ["stats", "--checkpoint", str(out / "checkpoint.bin"), "--dataset", str(dataset_path)]
        assert run(stats + ["--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        header, *rows = (out / "metrics.csv").read_text().splitlines()
        last = dict(zip(header.split(","), rows[-1].split(",")))
        assert last["epoch"] == "3"
        columns = {
            "misaligned_identity_fraction": "misalignment_ids",
            "misaligned_image_fraction": "misalignment_images",
            "posterior_sparsity": "posterior_sparsity",
            "onehot_fraction": "onehot_fraction",
        }
        assert {key: repr(report[key]) for key in columns} == {
            key: last[column] for key, column in columns.items()
        }

    def test_json_report(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "t.ini", dataset_path, out)
        assert run(["train", str(cfg)]) == 0
        capsys.readouterr()  # drop the train command's output
        code = run(
            [
                "stats", "--checkpoint", str(out / "checkpoint.bin"),
                "--dataset", str(dataset_path), "--config", str(cfg),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "misaligned_identity_fraction",
            "misaligned_image_fraction",
            "posterior_sparsity",
            "onehot_fraction",
        }
        assert all(0.0 <= v <= 1.0 for v in report.values())


def test_no_command_prints_help(capsys):
    assert run([]) == 1


def _assert_refused(code, capsys, want_code, kind):
    """One '<kind> error:' line on stderr, no traceback, nothing on stdout."""
    out, err = capsys.readouterr()
    assert code == want_code, err
    assert err.startswith(f"{kind} error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and out == ""
    return err


class TestFileFaults:
    """Bad file contents and unusable paths: typed errors before any output."""

    @pytest.fixture
    def run_files(self, tmp_path, dataset_path, capsys):
        """A 1-epoch checkpoint, its config, and copies of the dataset with a
        nan point and of the checkpoint with an inf weight."""
        cfg = write_config(tmp_path / "t.ini", dataset_path, tmp_path / "run",
                           {("train", "epochs"): "1"})
        assert run(["train", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "checkpoint.bin"
        ds = synthdata.load(dataset_path)
        ds.points[3, 2] = np.nan
        synthdata.save(ds, tmp_path / "nan.bin")
        model = trainer.load_checkpoint(ckpt)
        model.w1[0, 0] = np.inf
        trainer.save_checkpoint(model, tmp_path / "inf.bin")
        capsys.readouterr()
        return {"dataset": dataset_path, "config": cfg, "checkpoint": ckpt,
                "nan_dataset": tmp_path / "nan.bin", "inf_checkpoint": tmp_path / "inf.bin"}

    def test_train_non_finite_dataset(self, tmp_path, run_files, capsys):
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "nan.ini", run_files["nan_dataset"], out)
        err = _assert_refused(run(["train", str(cfg)]), capsys, 2, "data")
        assert err == f"data error: {run_files['nan_dataset']}: point coordinates must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "n, k, message",
        [(0, 8, "no samples"), (5, 1, "1 identity; training needs k >= 2")],
        ids=["no_rows", "one_identity"],
    )
    def test_train_degenerate_dataset(self, tmp_path, capsys, n, k, message):
        # each used to end in a traceback: a ZeroDivisionError at the epoch
        # loss, and the batch check's "logits must be (B, k) rows with k >= 2"
        path, out = tmp_path / "degenerate.bin", tmp_path / "o"
        points = np.tile(np.eye(6)[:1], (n, 1))
        synthdata.save(synthdata.Dataset(points, np.zeros(n, np.int64), np.zeros(k, np.int64)), path)
        cfg = write_config(tmp_path / "t.ini", path, out)
        err = _assert_refused(run(["train", str(cfg)]), capsys, 2, "data")
        assert err == f"data error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("nan_dataset", "point coordinates must be finite"),
            ("inf_checkpoint", "checkpoint weights must be finite"),
        ],
    )
    @pytest.mark.parametrize("command", ["eval", "stats"])
    def test_non_finite_file(self, tmp_path, run_files, capsys, command, bad, message):
        files = {**run_files, bad.split("_")[1]: run_files[bad]}
        out = tmp_path / "e"
        argv = [command, "--checkpoint", str(files["checkpoint"]),
                "--dataset", str(files["dataset"])]
        argv += ["--out-dir", str(out)] if command == "eval" else ["--config", str(files["config"])]
        err = _assert_refused(run(argv), capsys, 2, "data")
        assert err == f"data error: {run_files[bad]}: {message}\n"
        assert not out.exists()

    def test_train_out_dir_naming_a_file(self, tmp_path, dataset_path, capsys, monkeypatch):
        # refused before the dataset is read or a batch trained
        monkeypatch.setattr(synthdata, "load", None)
        monkeypatch.setattr(trainer, "train", None)
        out = tmp_path / "outfile"
        out.write_text("keep")
        cfg = write_config(tmp_path / "t.ini", dataset_path, out)
        err = _assert_refused(run(["train", str(cfg)]), capsys, 1, "usage")
        assert err == f"usage error: output directory {out} exists and is not a directory\n"
        assert out.read_text() == "keep"

    def test_eval_out_dir_naming_a_file(self, tmp_path, run_files, capsys, monkeypatch):
        monkeypatch.setattr(trainer, "load_checkpoint", None)
        out = tmp_path / "outfile"
        out.write_text("keep")
        argv = ["eval", "--checkpoint", str(run_files["checkpoint"]),
                "--dataset", str(run_files["dataset"]), "--out-dir", str(out)]
        err = _assert_refused(run(argv), capsys, 1, "usage")
        assert err == f"usage error: output directory {out} exists and is not a directory\n"
        assert out.read_text() == "keep"

    @pytest.mark.parametrize("below", ["sub", "sub/deeper"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_out_dir_below_a_file(self, tmp_path, run_files, capsys, monkeypatch, command, below):
        # refused before the checkpoint or the dataset is read or a batch trained
        for mod, name in ((synthdata, "load"), (trainer, "train"), (trainer, "load_checkpoint")):
            monkeypatch.setattr(mod, name, None)
        afile = tmp_path / "afile"
        afile.write_text("keep")
        out = afile / below
        if command == "train":
            argv = ["train", str(write_config(tmp_path / "o.ini", run_files["dataset"], out))]
        else:
            argv = ["eval", "--checkpoint", str(run_files["checkpoint"]),
                    "--dataset", str(run_files["dataset"]), "--out-dir", str(out)]
        before = sorted(tmp_path.rglob("*"))
        err = _assert_refused(run(argv), capsys, 1, "usage")
        want = f"output directory {out}: {afile} exists and is not a directory"
        assert err == f"usage error: {want}\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert afile.read_text() == "keep"

    @pytest.mark.parametrize("flag", ["--dataset", "--trials"])
    def test_eval_input_naming_a_directory(self, tmp_path, run_files, capsys, flag):
        out = tmp_path / "e"
        argv = ["eval", "--checkpoint", str(run_files["checkpoint"]),
                "--dataset", str(run_files["dataset"]), "--out-dir", str(out)]
        err = _assert_refused(run(argv + [flag, str(tmp_path)]), capsys, 2, "data")
        assert "Is a directory" in err
        assert not out.exists()

    def test_train_config_naming_a_directory(self, tmp_path, capsys):
        err = _assert_refused(run(["train", str(tmp_path)]), capsys, 2, "data")
        assert err == f"data error: cannot read config file {tmp_path}\n"

    def test_dataset_beyond_memory_is_usage_error(self, tmp_path, dataset_path, capsys,
                                                  monkeypatch):
        # a dataset file of exactly its header's size whose arrays cannot be
        # allocated: the machine's limit, not a corrupt file
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "t.ini", dataset_path, out)

        def no_memory(*args, **kwargs):
            raise MemoryError("allocation refused")

        monkeypatch.setattr(np, "empty", no_memory)
        err = _assert_refused(run(["train", str(cfg)]), capsys, 1, "usage")
        assert err == "usage error: out of memory (allocation refused)\n"
        assert not out.exists()
