"""The benchmark's tracer patches named functions of the package (perfbench/tracer.py
PATCHES). A refactor that renames or unbinds one of them breaks the benchmark;
this runs a tiny gift, eval, sweep, theorem check and check command under the
tracer so that such a break fails here too, and counts the calls at the sites
each path reaches.

perfbench/tracer.py is imported read-only, from its file.
"""

import importlib.util
import json
from pathlib import Path

from giftnn.cli import main
from giftnn.gift import GiftConfig
from giftnn.theory import check_theorem1_empirically
from giftnn.trainer import TrainConfig

from test_cli import tiny_argv
from test_theory import LINEAR_ARCH, linear_data

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gift_and_eval_run_under_the_benchmark_tracer(tmp_path, capsys):
    tracer = load_tracer().Tracer()
    with tracer.install():
        codes = [main(tiny_argv(command, tmp_path / command)) for command in ("gift", "eval")]
    capsys.readouterr()
    assert codes == [0, 0]
    summary = tracer.iteration_summary(tracer.iteration)
    assert summary["gift.gift_run"]["calls"] == 2  # one line search per seed
    traces = [json.loads((tmp_path / "gift" / "gift" / f"seed_{seed}" / "gift_trace.json").read_text())
              for seed in (0, 1)]
    # per gift seed: one call per line-search step (step 1 scores the baseline too) and one for the
    # fresh pair; one per eval seed. Every call is one device call.
    calls = sum(t["steps_taken"] + 1 for t in traces) + 2
    assert summary["gift.eval_in_situ"]["calls"] == summary["device.forward_batch"]["calls"] == calls
    # a call that scores several parameter sets counts a row per set: the line searches' reported
    # queries, 2 x 64 test points x k2 = 2 per fresh pair and 32 x k2 = 2 per eval seed
    assert summary["device.forward_batch"]["rows"] == sum(t["queries"] for t in traces) + 2 * 2 * 64 * 2 + 2 * 32 * 2
    assert summary["gift.estimate_direction"]["rows"] > 0
    # the device's passes stay untraced, so model.forward_noisy's per-layer counts are in-silico rows only
    forward_spans = [span for span in tracer.spans if span[0] == "model.forward_noisy"]
    assert forward_spans and not any("device.forward_batch" in ancestors(tracer, span) for span in forward_spans)


def ancestors(tracer, span):
    """Names of a span's parent, grandparent, ..., nearest first."""
    names, parent = [], span[3]
    while parent >= 0:
        names.append(tracer.spans[parent][0])
        parent = tracer.spans[parent][3]
    return names


def test_fresh_pair_queries_each_test_point_k2_times_under_the_benchmark_tracer(tmp_path, capsys):
    # every device row beyond the line searches' reported queries is the fresh pair's: 2 sets x 64 test points x k2
    tracer = load_tracer().Tracer()
    with tracer.install():
        assert main(tiny_argv("gift", tmp_path, "gift.k2=3")) == 0
    capsys.readouterr()
    summary = tracer.iteration_summary(tracer.iteration)
    traces = [json.loads((tmp_path / "gift" / f"seed_{seed}" / "gift_trace.json").read_text()) for seed in (0, 1)]
    assert all(c["k2"] == 3 for t in traces for c in t["candidates"])
    fresh_rows = summary["device.forward_batch"]["rows"] - sum(t["queries"] for t in traces)
    assert fresh_rows == 2 * (2 * 64 * 3)  # two seeds


def traced(run):
    tracer = load_tracer().Tracer()
    with tracer.install():
        result = run()
    return result, tracer.iteration_summary(tracer.iteration)


def test_sweep_runs_under_the_benchmark_tracer(tmp_path, capsys):
    # 2 s0 levels x 2 seeds = 4 tasks, each training and estimating once for its 2 device levels
    argv = tiny_argv("sweep", tmp_path, "sweep.s0_grid=[0.1,0.2]", "sweep.st_grid=[0.3,0.4]")
    code, summary = traced(lambda: main(argv))
    capsys.readouterr()
    assert code == 0
    assert summary["trainer.train"]["calls"] == 4
    assert summary["gift.estimate_direction"]["calls"] == 4
    assert summary["gift.gift_run"]["calls"] == 4 * 2
    # every SGD step goes through the traced names, workspace or not (the line searches add apply_step calls)
    steps = summary["trainer.train"]["steps"]
    assert steps > 0
    assert summary["gradients.batch_gradient"]["calls"] == steps
    assert summary["model.apply_step"]["calls"] >= steps


def test_device_draws_do_not_grow_with_the_s0_grid(tmp_path, capsys):
    # one device per (family, s_t, seed) scores every s0 and replays the draw it kept for the first
    draws = {}
    for s0_grid in ("[0.1]", "[0.1,0.2]"):
        tracer = load_tracer().Tracer()
        argv = tiny_argv("sweep", tmp_path / s0_grid, f"sweep.s0_grid={s0_grid}", "sweep.st_grid=[0.3,0.4]")
        with tracer.install():
            assert main(argv) == 0
        draws[s0_grid] = sum(span[0] == "model.sample_noise_batch" and "device.forward_batch" in ancestors(tracer, span)
                             for span in tracer.spans)
    capsys.readouterr()
    assert draws["[0.1]"] > 0
    assert draws["[0.1,0.2]"] == draws["[0.1]"]


def test_every_training_step_is_traced_through_the_call_chain(tmp_path, capsys):
    # train -> batch_gradient -> sample_noise_batch / forward_noisy / backward -> residual_stack, and
    # train -> apply_step: a step inlined out of these names would vanish from the benchmark's layers
    tracer = load_tracer().Tracer()
    with tracer.install():
        assert main(tiny_argv("train", tmp_path)) == 0
    capsys.readouterr()
    summary = tracer.iteration_summary(tracer.iteration)
    steps = summary["trainer.train"]["steps"]
    assert summary["trainer.train"]["calls"] == 2 and steps > 2  # two seeds
    names = [span[0] for span in tracer.spans]

    def calls(name, *parents):
        # spans of name whose parent, grandparent, ... are the given spans, nearest first
        found = 0
        for name_i, _, _, parent, _, _ in tracer.spans:
            chain = []
            while len(chain) < len(parents) and parent >= 0:
                chain.append(names[parent])
                parent = tracer.spans[parent][3]
            found += name_i == name and tuple(chain) == parents
        return found

    assert calls("gradients.batch_gradient", "trainer.train") == steps
    assert calls("model.sample_noise_batch", "gradients.batch_gradient") == steps
    assert calls("model.forward_noisy", "gradients.batch_gradient") == steps
    assert calls("gradients.backward", "gradients.batch_gradient") == steps
    assert calls("gradients.residual_stack", "gradients.backward", "gradients.batch_gradient") == steps
    assert calls("model.apply_step", "trainer.train") == steps
    assert summary["model.sample_noise_batch"]["calls"] == summary["gradients.residual_stack"]["calls"] == steps


def test_theorem_check_runs_under_the_benchmark_tracer():
    # per seed: w0 at s0, one direction estimate, one line search and one objective pair
    cfg = TrainConfig(s0=0.2, epochs=2, batch_size=128, eps0=0.05, decay_p=1.0, tau=150.0)
    gift = GiftConfig(eta=0.02, k1=16, k2=2, max_steps=2, est_k1=20, est_k2=5)
    _, summary = traced(lambda: check_theorem1_empirically(
        LINEAR_ARCH, linear_data(512), 0.3, cfg, gift, n_seeds=2, mc_samples=2_000))
    assert summary["trainer.train"]["calls"] == 2
    assert summary["gift.estimate_direction"]["calls"] == 2
    assert summary["gift.gift_run"]["calls"] == 2
    assert summary["theory.mc_objective_pair"]["calls"] == 2


def test_check_command_runs_under_the_benchmark_tracer(tmp_path, capsys):
    # check reaches the traced kernels through theory's sample_noise_batch (50 product-derivative cases and
    # 20 finite-difference nets, one draw each) and the finite-difference check's call-time gradients.backward
    code, summary = traced(lambda: main(["check", "--out", str(tmp_path)]))
    capsys.readouterr()
    assert code == 0
    assert summary["gradients.backward"]["calls"] == 20
    assert summary["model.sample_noise_batch"]["calls"] == 20 + 50
