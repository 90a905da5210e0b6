"""Command-line entry point: dataset generation, training, evaluation,
sparsity statistics and one-shot solver probing.

Exit codes: 0 success, 1 usage/config error, 2 data error (a bad or unreadable
file), 3 solver or numeric failure (a SolverError, or a FloatingPointError from
a diverging run).
All randomness flows from the seeds in the arguments/config; no hidden
entropy sources, so every subcommand is deterministic given its inputs.
"""

import argparse
import configparser
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import evalkit, synthdata, trainer
from .core import AlphaParams, alpha_softargmax, alpha_softmax, root_find_tau
from .errors import DataFormatError, SolverError, UnattainableFARError
from .losses import AnnealSchedule, MarginConfig, fy_loss


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# train config files (INI)

def _parse_lr_schedule(text):
    sched = []
    for item in text.split(","):
        epoch, _, lr = item.partition(":")
        sched.append((int(epoch), float(lr)))
    return sched


# section -> key -> parser of its value. The [alpha] and [train] keys are the
# fields of AlphaParams and TrainConfig, whose defaults fill omitted keys.
_SCHEMA = {
    "data": {"dataset": str},
    "alpha": {"alpha": float, "bisect_tol": float, "max_iters": int},
    "loss": {
        "mode": str, "scale": float, "margin": float, "anneal_start": int, "anneal_end": int,
    },
    "train": {
        "epochs": int, "batch_size": int, "lr_schedule": _parse_lr_schedule,
        "momentum": float, "weight_decay": float, "reinit_epoch": int, "seed": int,
        "hidden_dim": int, "embed_dim": int,
    },
    "run": {"out_dir": str},
}

# The keys that build the TrainConfig, which `stats` reads too.
_MODEL_REQUIRED = (
    ("alpha", "alpha"), ("loss", "mode"), ("loss", "scale"), ("loss", "margin"),
    ("train", "epochs"), ("train", "batch_size"), ("train", "lr_schedule"),
)
_REQUIRED = (("data", "dataset"), ("run", "out_dir")) + _MODEL_REQUIRED


def read_train_config(path, required=_REQUIRED):
    """Parse and validate a train config. Unknown sections or keys are
    rejected, and a missing key of `required` is named; omitted optional keys
    take their dataclass defaults, which are written into the returned
    ConfigParser for the echo. Returns (parsed dict, effective ConfigParser);
    the dict's dataset and out_dir are None when the config omits them."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise DataFormatError(f"cannot read config file {path}")
    for section in cp.sections():
        if section not in _SCHEMA:
            raise UsageError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise UsageError(f"unknown key {key!r} in section [{section}]")
    for section, key in required:
        if not cp.has_option(section, key):
            raise UsageError(f"missing [{section}] {key}")
    if cp.has_option("loss", "anneal_start") != cp.has_option("loss", "anneal_end"):
        raise UsageError("[loss] anneal_start and anneal_end must be given together")

    try:
        values = {
            section: {key: _SCHEMA[section][key](text) for key, text in cp[section].items()}
            for section in cp.sections()
        }
        loss = values["loss"]
        anneal = None
        if "anneal_start" in loss:
            anneal = AnnealSchedule(loss.pop("anneal_start"), loss.pop("anneal_end"))
        params = AlphaParams(**values["alpha"])
        train_cfg = trainer.TrainConfig(
            **values["train"], loss=MarginConfig(**loss, anneal=anneal), alpha=params
        )
    except (ValueError, configparser.Error) as exc:
        raise UsageError(f"invalid config: {exc}") from exc
    for section, obj in (("alpha", params), ("train", train_cfg)):
        for key in _SCHEMA[section]:
            value = getattr(obj, key)
            if not cp.has_option(section, key) and value is not None:
                cp.set(section, key, str(value))
    return {"dataset": values.get("data", {}).get("dataset"),
            "out_dir": values.get("run", {}).get("out_dir"), "train": train_cfg}, cp


# ---------------------------------------------------------------------------
# subcommands

def output_dir(path):
    """path as the directory a subcommand writes into. The path, or else its
    nearest existing ancestor, must be a directory; if not, it is refused
    before any work is done."""
    path = Path(path)
    for base in (path, *path.parents):
        if base.exists():
            if not base.is_dir():
                at = "" if base == path else f": {base}"
                raise UsageError(f"output directory {path}{at} exists and is not a directory")
            break
    return path


def cmd_gen(args):
    try:
        names = {f.name for f in fields(synthdata.SynthSpec)}
        spec = synthdata.SynthSpec(**{k: v for k, v in vars(args).items() if k in names})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dataset = synthdata.generate(spec)
    synthdata.save(dataset, args.out)
    print(f"wrote {dataset.n} samples ({dataset.k} identities, d={dataset.d}) to {args.out}")
    return 0


def cmd_train(args):
    parsed, cp = read_train_config(args.config)
    out_dir = output_dir(parsed["out_dir"])
    dataset = synthdata.load(parsed["dataset"])
    if dataset.k < 2:
        raise DataFormatError(f"{parsed['dataset']}: {dataset.k} identity; training needs k >= 2")
    try:
        result = trainer.train(dataset, parsed["train"])
    except ValueError as exc:  # a config this dataset cannot train, such as an overflowing loss
        raise UsageError(str(exc)) from exc
    # a failed run leaves no out_dir behind
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.ini", "w") as fh:
        cp.write(fh)
    trainer.write_metrics_csv(result.metrics, out_dir / "metrics.csv")
    trainer.save_checkpoint(result.model, out_dir / "checkpoint.bin")
    with open(out_dir / "train.log", "w") as fh:
        for event in result.events:
            fh.write(f"EVENT {event}\n")
        for row in result.metrics:
            fh.write(
                "epoch {epoch}: loss {loss:.6f} misaligned_images {misalignment_images:.4f} "
                "sparsity {posterior_sparsity:.4f}\n".format(**row)
            )
    for event in result.events:
        print(f"EVENT {event}")
    final = result.metrics[-1] if result.metrics else None
    if final:
        print(f"done: {len(result.metrics)} epochs, final loss {final['loss']:.6f}")
    else:
        print("done: 0 epochs (model left at initialization)")
    return 0


def read_trials(path):
    """Parse an 'i,j,flag' trials file (flag 1 genuine, 0 impostor; '#'
    comments and blank lines skipped) into a trial array (evalkit.as_trials).
    It must hold trials of both kinds."""
    try:
        with open(path) as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not a text file ({exc})") from exc
    trials = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            i, j, flag = (int(x) for x in line.split(","))
        except ValueError:
            flag = None
        if flag not in (0, 1):
            raise DataFormatError(f"{path}:{lineno}: bad trial line {line!r}")
        trials.append((i, j, bool(flag)))
    trials = evalkit.as_trials(trials)
    if trials["genuine"].all() or not trials["genuine"].any():
        raise DataFormatError(f"{path}: needs both genuine (flag 1) and impostor (flag 0) trials")
    return trials


def load_model_and_dataset(checkpoint, dataset_path):
    """The checkpoint and the dataset it embeds; points of another dimension
    than the checkpoint's input are a data error."""
    model = trainer.load_checkpoint(checkpoint)
    dataset = synthdata.load(dataset_path)
    d_in = model.w1.shape[1]
    if dataset.d != d_in:
        raise DataFormatError(
            f"{dataset_path}: points are {dataset.d}-d, but {checkpoint} takes {d_in}-d inputs"
        )
    return model, dataset


def cmd_eval(args):
    out_dir = output_dir(args.out_dir)
    model, dataset = load_model_and_dataset(args.checkpoint, args.dataset)
    if args.trials:
        trials = read_trials(args.trials)
    else:
        try:
            trials = evalkit.make_trials(
                dataset.labels, args.n_genuine, args.n_impostor, args.trial_seed
            )
        except ValueError as exc:
            raise DataFormatError(f"{args.dataset}: {exc}") from exc
    embeddings = trainer.embed(model, dataset.points)
    try:
        scores = evalkit.score_trials(embeddings, trials)
    except IndexError as exc:  # generated trials are in range by construction
        raise DataFormatError(f"{args.trials}: {exc}") from exc
    det = evalkit.det_points(scores)
    out_dir.mkdir(parents=True, exist_ok=True)
    evalkit.write_det_csv(det, out_dir / "det.csv")

    lines = [f"genuine {len(scores.genuine)} impostor {len(scores.impostor)}"]
    for far in args.far:
        try:
            frr, threshold = evalkit.frr_at_far(scores, far)
            lines.append(f"far={far:g}: frr={frr:.6f} threshold={threshold:.6f}")
        except UnattainableFARError as exc:
            lines.append(f"far={far:g}: unattainable ({exc})")
    report = "\n".join(lines)
    (out_dir / "report.txt").write_text(report + "\n")
    print(report)
    return 0


def cmd_probe(args):
    try:
        theta = np.array([float(x) for x in args.theta.split(",")])
        q = np.array([float(x) for x in args.q.split(",")]) if args.q else np.ones_like(theta)
        params = AlphaParams(alpha=args.alpha)
        # the first solve checks theta, q and the target
        if args.target is not None:
            out = fy_loss(theta, args.target, q, params)
            posterior = out.posterior
        else:
            posterior = alpha_softargmax(theta, q, params)
    except (ValueError, IndexError) as exc:
        raise UsageError(str(exc)) from exc
    if args.target is not None:
        print(f"loss      {out.value!r}")
    print(f"tau       {root_find_tau(theta, q, params)!r}")
    print(f"posterior {np.array2string(posterior.to_dense(), precision=8)}")
    print(f"softmax_f {alpha_softmax(theta, q, params)!r}")
    print(f"support   {posterior.nnz}/{posterior.k}")
    return 0


def cmd_stats(args):
    parsed, _ = read_train_config(args.config, required=_MODEL_REQUIRED)
    model, dataset = load_model_and_dataset(args.checkpoint, args.dataset)
    k = model.prototypes.shape[0]
    if dataset.k != k:
        raise DataFormatError(
            f"{args.dataset}: {dataset.k} identities, but {args.checkpoint} has {k} prototypes"
        )
    cfg = parsed["train"]
    loss_cfg = cfg.loss.with_margin(trainer.annealed_margin(cfg.loss, cfg.epochs))
    report = evalkit.sparsity_report(
        trainer.embed(model, dataset.points),
        dataset.labels,
        model.prototypes,
        loss_cfg,
        cfg.alpha,
    )
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def far_target(text):
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"FAR target must be in (0, 1], got {text}")
    return value


@functools.cache  # built once per process: parse_args does not change it
def build_parser():
    parser = _Parser(prog="alphamargin", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="generate a synthetic identity dataset")
    p.add_argument("--k", type=int, required=True, help="number of identities")
    p.add_argument("--d", type=int, required=True, help="ambient dimension")
    p.add_argument("--samples-per-id", type=int, required=True)
    p.add_argument("--noise-kappa", type=float, required=True, help="cluster concentration")
    # omitted options take the SynthSpec defaults
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--few-fraction", type=float, default=argparse.SUPPRESS)
    p.add_argument("--few-count", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train from an INI config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score trials and report FRR@FAR + DET CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--trials", help="CSV of 'i,j,flag' rows; generated if omitted")
    p.add_argument("--n-genuine", type=positive_int, default=2000)
    p.add_argument("--n-impostor", type=positive_int, default=20000)
    p.add_argument("--trial-seed", type=int, default=0)
    p.add_argument("--far", type=far_target, action="append", default=[],
                   help="FAR target in (0, 1] (repeatable)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="one-shot solver inspection")
    p.add_argument("--theta", required=True, help="comma-separated logits")
    p.add_argument("--q", help="comma-separated reference weights (default: ones)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--target", type=int, help="also report the loss for this class index")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("stats", help="sparsity/misalignment report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", required=True, help="train config (loss/alpha sections are used)")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help()
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size asked for by the config, such as a huge hidden_dim
        print(f"usage error: out of memory ({exc})", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:  # OSError: a path not read or written
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
