"""The four benchmark workloads: set-up, the operation that is timed, and the
checks on its outputs.

A workload is built from an `alphamargin` package object, a work directory
inside the checkout, the seed and a size. `setup()` writes the inputs,
`pass_calls()` returns the calls of one pass (one CLI command for the train
and eval workloads; the seed's pool of single-vector calls for solve_single),
and `check(outputs)` returns (call index, message) pairs, one per failure,
for the outputs of one pass.

Every program call goes through a module attribute looked up at call time, so
the tracer's wrappers see it.
"""

import contextlib
import io
import shutil
from dataclasses import dataclass

import numpy as np

import oracles

FARS = ("1e-2", "1e-3", "1e-4")
# The trainer's own seed (initial weights, batch order) is fixed: at one
# epoch the initial prototypes set how wide the solver's brackets start, and
# so move the solve cost by +-20% from seed to seed. --seed varies the data.
TRAIN_SEED = 0
METRIC_COLUMNS = (
    "epoch",
    "loss",
    "misalignment_ids",
    "misalignment_images",
    "posterior_sparsity",
    "onehot_fraction",
)


@dataclass(frozen=True)
class Size:
    k: int
    d: int
    samples_per_id: int
    epochs: int
    n_genuine: int
    n_impostor: int
    heldout_per_id: int
    solve_pool: int
    solve_k_max: int


# full: the acceptance long-tail set (k=200, d=16, n=1800) and the CLI's
# default 2,000 + 20,000 eval trials; tiny: a seconds-long smoke size for tests
SIZES = {
    "full": Size(k=200, d=16, samples_per_id=12, epochs=1, n_genuine=2000,
                 n_impostor=20000, heldout_per_id=6, solve_pool=3000, solve_k_max=256),
    "tiny": Size(k=12, d=8, samples_per_id=6, epochs=2, n_genuine=40,
                 n_impostor=300, heldout_per_id=4, solve_pool=30, solve_k_max=24),
}


def _quiet(fn, *args):
    """Run fn with stdout captured; returns (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


class _Workload:
    chunk = 1  # calls between two timings of the reference kernel

    def __init__(self, am, workdir, seed, size):
        self.am = am
        self.dir = workdir
        self.seed = seed
        self.size = size

    def _spec(self):
        s = self.size
        return self.am.synthdata.SynthSpec(
            k=s.k, d=s.d, samples_per_id=s.samples_per_id, noise_kappa=40.0,
            seed=self.seed, few_fraction=0.3, few_count=2,
        )


class Train(_Workload):
    """`alphamargin train` through cli.main on the long-tail set."""

    def __init__(self, am, workdir, seed, size, mode):
        super().__init__(am, workdir, seed, size)
        self.mode = mode
        self.config = self.dir / "train.ini"
        self.out = self.dir / "run"
        self._first_csv = None

    def setup(self):
        data = self.dir / "train.bin"
        dataset = self.am.synthdata.generate(self._spec())
        self.am.synthdata.save(dataset, data)
        self.config.write_text(
            f"[data]\ndataset = {data}\n"
            "[alpha]\nalpha = 1.25\n"
            f"[loss]\nmode = {self.mode}\nscale = 32.0\nmargin = 0.2\n"
            f"[train]\nepochs = {self.size.epochs}\nbatch_size = 128\nlr_schedule = 1:0.05\n"
            f"seed = {TRAIN_SEED}\nhidden_dim = 64\nembed_dim = 16\n"
            f"[run]\nout_dir = {self.out}\n"
        )
        self.k = dataset.k

    def pass_calls(self):
        return [lambda: _quiet(self.am.cli.main, ["train", str(self.config)])]

    def check(self, outputs):
        (rc, text), = outputs
        if rc != 0:
            return [(0, f"train: exit code {rc}")]
        fails = []
        if f"done: {self.size.epochs} epochs" not in text:
            fails.append("train: no completion line on stdout")
        raw = (self.out / "metrics.csv").read_bytes()
        lines = raw.decode().splitlines()
        if lines[0] != ",".join(METRIC_COLUMNS):
            fails.append("train: metrics.csv header")
        values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        if values.shape != (self.size.epochs, len(METRIC_COLUMNS)):
            fails.append(f"train: metrics.csv has shape {values.shape}")
        elif not np.all(np.isfinite(values)) or np.any(values[:, 0] != np.arange(1, len(values) + 1)):
            fails.append("train: metrics.csv has a non-finite value or a wrong epoch column")
        if self._first_csv is None:
            self._first_csv = raw
        elif raw != self._first_csv:
            fails.append("train: metrics.csv differs from the first repetition")
        model = self.am.trainer.load_checkpoint(self.out / "checkpoint.bin")
        if model.prototypes.shape != (self.k, 16) or not all(
            np.all(np.isfinite(a)) for a in model.params().values()
        ):
            fails.append("train: reloaded checkpoint has a wrong shape or a non-finite weight")
        shutil.rmtree(self.out)  # the next command must write its own outputs
        return [(0, f) for f in fails]


class Eval(_Workload):
    """`alphamargin eval` through cli.main on a held-out set with a checkpoint
    trained during set-up."""

    def setup(self):
        am = self.am
        spec = self._spec()
        dataset = am.synthdata.generate(spec)
        held = am.synthdata.generate_heldout(spec, self.size.heldout_per_id)
        self.heldout = self.dir / "heldout.bin"
        am.synthdata.save(held, self.heldout)
        loss = am.losses.MarginConfig(scale=32.0, margin=0.2, mode="cosface")
        cfg = am.trainer.TrainConfig(
            epochs=self.size.epochs, batch_size=128, lr_schedule=[(1, 0.05)], loss=loss,
            alpha=am.core.AlphaParams(1.25), seed=TRAIN_SEED, hidden_dim=64, embed_dim=16,
        )
        self.checkpoint = self.dir / "checkpoint.bin"
        am.trainer.save_checkpoint(am.trainer.train(dataset, cfg).model, self.checkpoint)
        self.out = self.dir / "eval"
        self._expected = None

    def pass_calls(self):
        argv = ["eval", "--checkpoint", str(self.checkpoint), "--dataset", str(self.heldout),
                "--n-genuine", str(self.size.n_genuine), "--n-impostor", str(self.size.n_impostor),
                "--trial-seed", str(self.seed), "--out-dir", str(self.out)]
        for far in FARS:
            argv += ["--far", far]
        return [lambda: _quiet(self.am.cli.main, argv)]

    def _oracle(self):
        """Scores the eval command computes, cross-checked by an independent
        scorer, and the oracle's report lines for them."""
        am = self.am
        held = am.synthdata.load(self.heldout)
        model = am.trainer.load_checkpoint(self.checkpoint)
        trials = am.evalkit.make_trials(
            held.labels, self.size.n_genuine, self.size.n_impostor, self.seed)
        scores = am.evalkit.score_trials(am.trainer.embed(model, held.points), trials)
        fails = []
        i, j, same = (np.array(col) for col in zip(*trials))
        labels = held.labels
        if same.sum() != self.size.n_genuine or (~same).sum() != self.size.n_impostor:
            fails.append("eval: trial counts differ from the request")
        if np.any((labels[i] == labels[j]) != same) or np.any(i[same] == j[same]):
            fails.append("eval: a genuine trial pairs two identities or an impostor trial one")
        H = np.tanh(held.points @ model.w1.T + model.b1)
        Z = H @ model.w2.T + model.b2
        E = Z / np.linalg.norm(Z, axis=1, keepdims=True)
        ours = np.einsum("ij,ij->i", E[i], E[j])
        dev = max(np.abs(ours[same] - scores.genuine).max(),
                  np.abs(ours[~same] - scores.impostor).max())
        if dev > 1e-12:
            fails.append("eval: trial scores differ from the independent scorer")
        lines = [f"genuine {len(scores.genuine)} impostor {len(scores.impostor)}"]
        for text in FARS:
            far = float(text)
            try:
                frr, t = oracles.frr_at_far(scores.genuine, scores.impostor, far)
                lines.append(f"far={far:g}: frr={frr:.6f} threshold={t:.6f}")
            except oracles.Unattainable:
                lines.append(f"far={far:g}: unattainable")
        return scores, lines, fails

    def check(self, outputs):
        (rc, _), = outputs
        if rc != 0:
            return [(0, f"eval: exit code {rc}")]
        if self._expected is None:
            self._expected = self._oracle()
        scores, lines, fails = self._expected
        fails = list(fails)
        got = (self.out / "report.txt").read_text().splitlines()
        if len(got) != len(lines):
            fails.append(f"eval: report has {len(got)} lines, expected {len(lines)}")
        for want, have in zip(lines, got):
            unattainable = want.endswith("unattainable")
            if (have.startswith(want) and unattainable) or (have == want and not unattainable):
                continue
            fails.append(f"eval: report line {have!r}, oracle {want!r}")
        rows = np.loadtxt(self.out / "det.csv", delimiter=",", skiprows=1, ndmin=2)
        fails += oracles.check_det(rows, scores.genuine, scores.impostor)
        shutil.rmtree(self.out)  # the next command must write its own outputs
        return [(0, f) for f in fails]


class SolveSingle(_Workload):
    """Closed loop of single-vector calls, alternating core.alpha_softargmax,
    losses.q_margin_loss and losses.a3m_loss."""

    KINDS = ("softargmax", "q_margin", "a3m")
    chunk = 200  # about 100 ms of calls

    def setup(self):
        am = self.am
        rng = np.random.default_rng([self.seed, 0x501E])
        q_cfg = am.losses.MarginConfig(scale=32.0, margin=0.2, mode="q_margin")
        a_cfg = am.losses.MarginConfig(scale=24.0, margin=0.35, mode="a3m")
        self.draws = []
        for i in range(self.size.solve_pool):
            kind = self.KINDS[i % 3]
            k = int(rng.integers(2, self.size.solve_k_max + 1))
            alpha = float(rng.choice([1.25, 1.5, 2.0]))
            params = am.core.AlphaParams(alpha)
            y = int(rng.integers(k))
            if kind == "softargmax":
                theta = rng.uniform(-10.0, 10.0, k)
                if rng.random() < 0.5:
                    q = rng.uniform(1e-3, 2.0, k)
                else:  # q_margin-style measure: target down-weighted to exp(-s*m)
                    q = np.ones(k)
                    q[y] = np.exp(-32.0 * rng.uniform(0.0, 0.5))
                self.draws.append((kind, (theta, q, params), theta, q, alpha, y))
            else:
                # cosines clear of the arccos guard band at +-1
                c = rng.uniform(-0.999, 0.999, k)
                cfg = q_cfg if kind == "q_margin" else a_cfg
                theta = cfg.scale * c
                q = np.ones(k)
                if kind == "q_margin":
                    q[y] = np.exp(-cfg.scale * cfg.margin)
                else:
                    theta[y] = cfg.scale * np.cos(np.arccos(c[y]) + cfg.margin)
                self.draws.append((kind, (c, y, cfg, params), theta, q, alpha, y))
        self._first = None

    def pass_calls(self):
        core, losses = self.am.core, self.am.losses

        def call(kind, args):
            if kind == "softargmax":
                return lambda: core.alpha_softargmax(*args)
            if kind == "q_margin":
                return lambda: losses.q_margin_loss(*args)
            return lambda: losses.a3m_loss(*args)

        return [call(kind, args) for kind, args, *_ in self.draws]

    def _dense(self, kind, out):
        return out.to_dense() if kind == "softargmax" else out.posterior.to_dense()

    def check(self, outputs):
        if self._first is not None:
            # later passes repeat the first one's inputs: outputs must match bitwise
            return [
                (i, f"solve: call {i} differs from its first-pass output")
                for i, (draw, out, first) in enumerate(zip(self.draws, outputs, self._first))
                if not np.array_equal(self._dense(draw[0], out), first)
            ]
        fails, first = [], []
        for i, ((kind, _, theta, q, alpha, y), out) in enumerate(zip(self.draws, outputs)):
            p = self._dense(kind, out)
            first.append(p)
            fails += [(i, f"solve: call {i} ({kind}, k={len(theta)}, alpha={alpha}): {f}")
                      for f in oracles.check_posterior(p, theta, q, alpha)]
            if kind != "softargmax":
                e = np.zeros_like(p)
                e[y] = 1.0
                if not np.isfinite(out.value) or np.abs(out.grad_logits - (p - e)).max() > 1e-12:
                    fails.append((i, f"solve: call {i} ({kind}): loss value or p - y gradient"))
        self._first = first
        return fails


def make(name, am, workdir, seed, size):
    if name == "train_alpha":
        return Train(am, workdir, seed, size, "q_margin")
    if name == "train_ce":
        return Train(am, workdir, seed, size, "cosface")
    if name == "eval_verify":
        return Eval(am, workdir, seed, size)
    if name == "solve_single":
        return SolveSingle(am, workdir, seed, size)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train_alpha", "train_ce", "eval_verify", "solve_single")
