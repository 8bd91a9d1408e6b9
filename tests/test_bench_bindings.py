"""The benchmark's tracer patches named functions of the package (perfbench/tracer.py
PATCHES). A refactor that renames or unbinds one of them breaks the benchmark;
this runs a tiny gift and eval under the tracer so that such a break fails here too.

perfbench/tracer.py is imported read-only, from its file.
"""

import importlib.util
from pathlib import Path

from giftnn.cli import main

from test_cli import tiny_argv

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
    assert summary["device.forward_batch"]["rows"] > 0
    assert summary["gift.gift_run"]["calls"] == 2  # one line search per seed
    # per gift seed: the baseline, at least one pair of candidates and the fresh pair; one per eval seed
    assert summary["gift.eval_in_situ"]["calls"] >= 2 * (1 + 2 + 2) + 2
    assert summary["gift.estimate_direction"]["rows"] > 0
