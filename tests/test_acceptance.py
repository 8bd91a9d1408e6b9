"""End-to-end acceptance gates.

One test per numbered criterion; each runs at the stated tolerance within the
stated runtime budget and prints a single PASS line with the measured values
(visible in the -rA summary). Criterion 8 needs the IDX digit files and skips
with an explicit reason when they are absent; its trend machinery is exercised
by a synthetic structural twin that always runs.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from giftnn.cli import DEFAULT_CONFIG, Experiment, main, read_csv_body
from giftnn.data import resolve_data_dir, synthetic_linear, synthetic_teacher
from giftnn.gift import estimate_direction
from giftnn.model import (
    Architecture,
    Params,
    RngStream,
    STREAM_DATA,
    STREAM_ESTIMATE,
    STREAM_THEORY,
)
from giftnn.theory import (
    check_gaussian_product_cases,
    check_hierarchical_sampler,
    check_theorem1_empirically,
    condition_report,
    d_ds_grad_fd_report,
    gradient_fd_check,
    linear_condition_bound,
    mc_objective_pair,
)
from giftnn.trainer import TrainConfig, train


def default_config():
    return json.loads(json.dumps(DEFAULT_CONFIG))


def direction_mean_se(params, data, s0, k1, k2, n_runs, seed0):
    """Mean and SE over independent estimator runs, rescaled by -2/s0 so the
    expectation sits on the derivative-in-s scale of the oracle."""
    vecs = []
    for r in range(n_runs):
        d = estimate_direction(params, data, s0, k1, k2, RngStream(seed0 + r, STREAM_ESTIMATE))
        vecs.append(d.to_vector())
    vecs = np.asarray(vecs) * (-2.0 / s0)
    return vecs.mean(axis=0), vecs.std(axis=0, ddof=1) / np.sqrt(n_runs)


def run_sweep(tmp_path, *set_items):
    out = tmp_path / "sweep_run"
    argv = ["sweep", "--out", str(out)]
    for item in set_items:
        argv += ["--set", item]
    assert main(argv) == 0
    _, rows = read_csv_body(out / "sweep" / "sweep_rows.csv")
    _, agg = read_csv_body(out / "sweep" / "sweep_aggregate.csv")
    summary = json.loads((out / "sweep" / "sweep.json").read_text())
    return rows, agg, summary


def per_s0_spearman(agg, value_col):
    """Spearman of (s_t, mean value) within each s0 across the aggregate grid."""
    corrs = {}
    for s0 in sorted({float(c["s0"]) for c in agg}):
        cells = sorted((c for c in agg if float(c["s0"]) == s0), key=lambda c: float(c["s_t"]))
        if len(cells) < 2:
            continue
        rho = spearmanr([float(c["s_t"]) for c in cells],
                        [float(c[value_col]) for c in cells]).statistic
        corrs[s0] = float(rho)
    return corrs


def mnist_dir():
    try:
        return resolve_data_dir(None)
    except FileNotFoundError:
        return None


def test_criterion_01_backprop_matches_finite_differences():
    t0 = time.monotonic()
    worst = gradient_fd_check(100, RngStream(101, STREAM_THEORY))
    dt = time.monotonic() - t0
    assert worst < 1e-5
    assert dt < 10.0
    print(f"PASS criterion 1: backprop vs central differences on 100 random nets, "
          f"worst rel err {worst:.2e} < 1e-5 ({dt:.1f}s < 10s)")


def test_criterion_02_gaussian_product_derivative_lemma():
    t0 = time.monotonic()
    worst = check_gaussian_product_cases(50, RngStream(2025, STREAM_THEORY))
    dt = time.monotonic() - t0
    assert worst < 1e-6
    assert dt < 1.0
    print(f"PASS criterion 2: product-derivative identity of gift.noise_weight_factor on 50 random draws, "
          f"worst rel err {worst:.2e} < 1e-6 ({dt:.2f}s < 1s)")


def test_criterion_03_hierarchical_sampling_lemma():
    t0 = time.monotonic()
    small = check_hierarchical_sampler(100, 100, 20, RngStream(7, STREAM_THEORY))
    big = check_hierarchical_sampler(1000, 100, 20, RngStream(8, STREAM_THEORY))
    dt = time.monotonic() - t0
    assert small["all_within_4se"] and big["all_within_4se"]
    assert big["mean_abs_error"] < small["mean_abs_error"]
    assert dt < 30.0
    print(f"PASS criterion 3: nested-expectation estimates within 4 SE at K1 in {{1e2, 1e3}} "
          f"(mean |err| {small['mean_abs_error']:.2e} -> {big['mean_abs_error']:.2e}, {dt:.1f}s < 30s)")


def test_criterion_04_direction_estimator_unbiasedness():
    t0 = time.monotonic()
    s0 = 0.3

    # small tanh net (4 parameters) against the derivative-in-s oracle
    arch = Architecture((1, 1, 1))
    gen = RngStream(12, 1).generator(0)
    params = Params(arch, [gen.uniform(-0.8, 0.8, (1, 1)) for _ in range(2)],
                    [gen.uniform(-0.3, 0.3, 1) for _ in range(2)])
    data = synthetic_teacher(arch, 512, 1.0, RngStream(11, STREAM_DATA))
    mean, se = direction_mean_se(params, data, s0, 200, 200, 50, seed0=1000)
    oracle = d_ds_grad_fd_report(params, s0, data, h=0.03, mc_samples=400_000, seed=7)
    vec_fd, se_fd = oracle.to_vectors()
    z_net = np.max(np.abs(mean - vec_fd) / np.sqrt(se**2 + se_fd**2))
    assert z_net < 3.0

    # one-layer linear net against the analytic 4 s W (bias derivative 0)
    arch_lin = Architecture((2, 1))
    W = np.array([[0.25, -0.35]])
    params_lin = Params(arch_lin, [W], [np.zeros(1)])
    data_lin = synthetic_linear([0.3, -0.4], 1.0, 4096, RngStream(21, STREAM_DATA))
    mean_l, se_l = direction_mean_se(params_lin, data_lin, s0, 200, 200, 50, seed0=4000)
    target = np.concatenate([4 * s0 * W.ravel(), [0.0]])
    z_lin = np.max(np.abs(mean_l - target) / se_l)
    assert z_lin < 3.0

    dt = time.monotonic() - t0
    assert dt < 300.0
    print(f"PASS criterion 4: estimator mean matches the d/ds gradient oracle "
          f"(max |z| {z_net:.2f} on the tanh net, {z_lin:.2f} vs analytic 4sW; {dt:.1f}s < 5min)")


def test_criterion_05_linear_task_closed_forms():
    t0 = time.monotonic()
    V = np.array([[0.3, -0.4]])
    s0, s_t, sigma_x2 = 0.2, 0.6, 1.0
    arch = Architecture((2, 1))
    data = synthetic_linear(V, 1.0, 8192, RngStream(3, STREAM_DATA))
    cfg = TrainConfig(s0=s0, epochs=1250, batch_size=256, eps0=0.1, decay_p=1.0, tau=150.0)

    w0, _ = train(arch, cfg, data, 0)
    from dataclasses import replace
    w_t, _ = train(arch, replace(cfg, s0=s_t), data, 0)

    w_star = lambda s: sigma_x2 / (sigma_x2 + s**2) * V
    err0 = np.linalg.norm(w0.weights[0] - w_star(s0))
    err_t = np.linalg.norm(w_t.weights[0] - w_star(s_t))
    assert err0 < 1e-2 and err_t < 1e-2

    rep = condition_report(w0, data, s0, s_t, mc_samples=200_000, seed=5)
    analytic_bound = linear_condition_bound(V, s0, sigma_x2)
    bound_dev = abs(rep.bound / analytic_bound - 1.0)
    assert bound_dev < 0.05
    assert rep.satisfied  # |s_t - s0| = 0.4 sits inside the permissible interval

    pair = mc_objective_pair(w0, w_t, s_t, data, mc_samples=400_000, seed=9)
    exact_gap = (sigma_x2 + s_t**2) * np.linalg.norm(w_star(s_t) - w_star(s0)) ** 2
    assert pair["diff"] > 3.0 * pair["diff_se"]
    gap_err = abs(pair["diff"] - exact_gap)
    assert gap_err < 4.0 * pair["diff_se"] + 5e-4

    dt = time.monotonic() - t0
    assert dt < 120.0
    print(f"PASS criterion 5: trained W within {max(err0, err_t):.1e} of closed form (< 1e-2), "
          f"condition bound within {100 * bound_dev:.2f}% of analytic (< 5%), "
          f"objective gap {pair['diff']:.2e} matches exact {exact_gap:.2e} "
          f"at {pair['diff'] / pair['diff_se']:.0f} sigma ({dt:.1f}s < 2min)")


def test_criterion_06_sweep_non_degradation(tmp_path):
    rows, _, summary = run_sweep(tmp_path)
    assert len(rows) == 4 * 4 * 5  # default grid x seeds, gaussian family
    for r in rows:
        assert float(r["loss_improvement"]) >= 0.0
        assert float(r["post_loss"]) <= float(r["baseline_loss"])
    assert summary["non_degradation"] is True
    assert summary["failures"] == []
    print(f"PASS criterion 6: post-fine-tuning loss <= baseline in all {len(rows)} "
          f"(s0, s_t, seed) cells of the default desk sweep")


def test_criterion_07_mean_improvement_at_preset_defaults():
    t0 = time.monotonic()
    exp = Experiment(default_config())
    train_ds, _ = exp.datasets()
    stats = check_theorem1_empirically(
        exp.arch, train_ds, s_t=exp.noise.level,
        train_config=exp.train_config, gift_config=exp.gift_config,
        n_seeds=20, mc_samples=400_000,
    )
    imp = stats["improvement_true"]
    assert stats["n_diverged"] == 0
    assert np.all(stats["improvement_estimate"]["values"] >= 0.0)
    z = imp["mean"] / imp["se"]
    assert imp["mean"] > 0.0
    assert z > 2.0
    dt = time.monotonic() - t0
    assert dt < 900.0
    print(f"PASS criterion 7: mean device-objective improvement {imp['mean']:.2e} over 20 seeds, "
          f"z = {z:.1f} > 2 at preset defaults (s0=0.2 -> s_t=0.3, {dt:.0f}s < 15min)")


MNIST_SKIP_REASON = ("digit IDX files not found (set GIFTNN_DATA_DIR or pass --data-dir); "
                     "criterion is implemented and gated, the dataset is just not bundled")


@pytest.mark.skipif(mnist_dir() is None, reason=MNIST_SKIP_REASON)
def test_criterion_08_digit_benchmark_trends(tmp_path):
    t0 = time.monotonic()
    common = [
        "data.kind=mnist",
        "data.n_train=10000",
        "data.n_test=2000",
        "train.epochs=6",
        "train.tau=1000",
        "gift.k1=256",
        "gift.k2=4",
        "gift.est_k1=300",
        "gift.est_k2=50",
        "gift.max_steps=12",
    ]
    results = {}
    for preset in ("shallow_mnist", "deep_mnist"):
        rows, agg, summary = run_sweep(tmp_path / preset, f"arch.preset={preset}", *common)
        assert summary["failures"] == []
        results[preset] = agg

    shallow = results["shallow_mnist"]
    col = "mean_fresh_rel_acc_improvement"
    upper = [c for c in shallow if float(c["s_t"]) >= float(c["s0"])]
    worst_upper = min(float(c[col]) for c in upper)
    assert worst_upper >= 0.0  # (a)

    corrs = per_s0_spearman(shallow, col)
    mean_rho = float(np.mean(list(corrs.values())))
    assert mean_rho > 0.0  # (b)

    deep_by_cell = {(c["s0"], c["s_t"]): float(c[col]) for c in results["deep_mnist"]}
    wins = sum(
        1 for c in shallow if deep_by_cell[(c["s0"], c["s_t"])] > float(c[col])
    )
    assert wins > len(shallow) / 2  # (c)

    dt = time.monotonic() - t0
    assert dt < 4 * 3600
    print(f"PASS criterion 8: digit subset trends hold (min mean improvement {worst_upper:.2e} "
          f"for s_t >= s0; Spearman vs s_t {mean_rho:.2f} > 0; deeper preset wins "
          f"{wins}/{len(shallow)} cells; {dt:.0f}s < 4h)")


def test_criterion_08_trend_machinery_structural_twin(tmp_path):
    # same sweep/aggregation/trend pipeline as the digit benchmark, on a fast
    # synthetic task; gates only the machinery, not the digit trends
    rows, agg, summary = run_sweep(
        tmp_path,
        "sweep.s0_grid=[0.1,0.2]",
        "sweep.st_grid=[0.1,0.3]",
        "train.epochs=5",
        "gift.k1=64",
        "gift.k2=2",
        "gift.est_k1=50",
        "gift.est_k2=10",
        "gift.max_steps=5",
        "data.n_train=256",
        "data.n_test=64",
    )
    assert len(agg) == 4
    corrs = per_s0_spearman(agg, "mean_fresh_rel_acc_improvement")
    assert set(corrs) == {0.1, 0.2}
    assert all(-1.0 <= rho <= 1.0 for rho in corrs.values())
    upper = [c for c in agg if float(c["s_t"]) >= float(c["s0"])]
    assert len(upper) == 3
    for c in agg:
        assert float(c["ci95_fresh_acc_change"]) >= 0.0
    print("PASS criterion 8 twin: trend statistics computable on a desk-scale sweep "
          f"(per-s0 Spearman {sorted(corrs.values())}, {len(upper)} cells with s_t >= s0)")


def test_criterion_09_non_gaussian_families(tmp_path):
    rows, agg, summary = run_sweep(
        tmp_path,
        'sweep.families=["laplace","uniform","gaussian_multiplicative"]',
        "sweep.s0_grid=[0.2]",
        "sweep.st_grid=[0.1,0.3]",
    )
    assert len(rows) == 3 * 1 * 2 * 5
    for r in rows:
        assert float(r["loss_improvement"]) >= 0.0  # exact, per criterion 6
    lines = []
    for c in agg:
        lines.append(f"{c['family']} s_t={c['s_t']}: acc change "
                     f"{float(c['mean_fresh_acc_change']):+.4f} "
                     f"+/- {float(c['ci95_fresh_acc_change']):.4f} (95% CI)")
    assert len(agg) == 6
    print("PASS criterion 9: improvement >= 0 for every seed under "
          "laplace/uniform/multiplicative devices; " + "; ".join(lines))


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    fast = [
        "arch.preset=linear_example",
        "data.kind=synthetic_linear",
        "data.n_train=256",
        "data.n_test=64",
        "data.v=[0.3,-0.4]",
        "train.epochs=4",
        "gift.k1=32",
        "gift.k2=2",
        "gift.est_k1=20",
        "gift.est_k2=5",
        "gift.max_steps=3",
        "sweep.s0_grid=[0.1,0.2]",
        "sweep.st_grid=[0.1,0.3]",
    ]

    def body(path):
        with open(path) as f:
            lines = f.readlines()
        assert lines[0].startswith("# meta ")
        return "".join(lines[1:])

    compared = 0
    for command, rel_paths in (
        ("train", ["train/seed_0/train_log.csv", "train/seed_1/train_log.csv"]),
        ("gift", ["gift/gift_summary.csv"]),
        ("eval", ["eval/eval.csv"]),
        ("sweep", ["sweep/sweep_rows.csv", "sweep/sweep_aggregate.csv"]),
    ):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            argv = [command, "--out", str(out), "--seeds", "0,1"]
            for item in fast:
                argv += ["--set", item]
            assert main(argv) == 0
            dirs.append(out)
        for rel in rel_paths:
            first, second = (body(d / rel) for d in dirs)
            assert first == second
            assert first.strip()
            compared += 1
    print(f"PASS criterion 10: {compared} CSV bodies byte-identical across re-runs "
          f"of train/gift/eval/sweep")
