import json

import numpy as np
import pytest

from alphamargin import cli, synthdata, trainer


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
        sections.setdefault(section, {})[key] = value
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
    path.write_text("\n".join(lines) + "\n")
    return path


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

    def test_unknown_section_rejected(self, tmp_path, dataset_path):
        cfg = write_config(
            tmp_path / "t.ini", dataset_path, tmp_path / "o",
            {("extras", "x"): "1"},
        )
        assert run(["train", str(cfg)]) == 1

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


def test_backend_info(capsys):
    assert run(["--backend-info"]) == 0
    assert "solver backend:" in capsys.readouterr().out


def test_no_command_prints_help(capsys):
    assert run([]) == 1
