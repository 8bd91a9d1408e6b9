"""The benchmark's workloads.

Each workload turns the workload seed into a giftnn config (``data.seed`` and
the ``seeds`` list; nothing else depends on the seed), sets up what its
iterations need, runs one iteration as one CLI command or one pair of library
calls, and gates the outputs of that iteration.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from giftnn import cli, theory
from giftnn.model import load_params

SWEEP_FAMILIES = ["gaussian_additive", "laplace", "gaussian_multiplicative"]
SWEEP_S0_GRID = [0.05, 0.3]
SWEEP_EPOCHS = 20  # 640 SGD steps per task, 3840 per iteration
# Caps the both_worse walk. Uncapped, 47 of 50 walks tried went 8 steps or
# more (one stopped after 2), so nearly every seed scores the same candidates.
WALK_MAX_STEPS = 8
WIDE_EPOCHS = 2
# Uncapped, either_worse stops after one or two steps depending on the seed,
# and each extra step costs 7% of the iteration at these dims.
WIDE_MAX_STEPS = 1
ORACLE_S0, ORACLE_S_T = 0.2, 0.3
ORACLE_PAIR_SAMPLES = 400_000
ORACLE_FD_SAMPLES = 200_000

GIFT_NUMERIC_FIELDS = [f for f in cli.GIFT_FIELDS if f not in ("family", "stop_reason")]


class SetupError(RuntimeError):
    """Set-up could not produce what the iterations need."""


@dataclass
class Outcome:
    """What the gate found for one iteration."""

    work: int  # units of the workload's work_per_cpu_s
    digest: str  # SHA-256 of the deterministic result bodies
    problems: list = field(default_factory=list)  # gate misses; empty when correct


def seeded_config(seed: int, n_seeds: int, **sections) -> dict:
    cfg = json.loads(json.dumps(cli.DEFAULT_CONFIG))
    for section, values in sections.items():
        cfg[section].update(values)
    cfg["data"]["seed"] = seed
    cfg["seeds"] = [seed * 100 + i for i in range(n_seeds)]
    return cfg


def write_config(cfg: dict, path: str) -> str:
    with open(path, "w") as f:
        json.dump(cfg, f, indent=1, sort_keys=True)
    return path


def run_cli(argv):
    """giftnn.cli.main with its output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def csv_body(path) -> bytes:
    """The artifact below its ``# meta`` line: deterministic for a config and seeds."""
    with open(path, "rb") as f:
        first = f.readline()
        rest = f.read()
    return rest if first.startswith(b"# meta ") else first + rest


def read_gift_rows(body: bytes) -> list:
    return list(csv.DictReader(io.StringIO(body.decode())))


def gift_row_problems(rows: list, expected_rows: int) -> list:
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} result rows, want {expected_rows}")
    for r in rows:
        where = f"family={r['family']} s0={r['s0']} s_t={r['s_t']} seed={r['seed']}"
        if not all(math.isfinite(float(r[f])) for f in GIFT_NUMERIC_FIELDS):
            problems.append(f"non-finite output ({where})")
        elif float(r["loss_improvement"]) < 0.0:
            problems.append(f"loss_improvement {r['loss_improvement']} < 0 ({where})")
    return problems


class Workload:
    name = ""
    unit = ""  # what one unit of work_per_cpu_s is
    rate_name = ""  # the workload's own name for work_per_cpu_s

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "iteration")
        self.config = self.make_config()

    @property
    def arch(self):
        return cli.Experiment(self.config).arch

    def make_config(self) -> dict:
        raise NotImplementedError

    def setup(self):
        """The in-process part of set-up: config, datasets, checkpoints."""
        self.config_path = write_config(self.config, os.path.join(self.work_dir, "config.json"))
        cli.Experiment(self.config).datasets()

    def run(self):
        """One timed iteration; returns what check() needs."""
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError

    def _train(self, config_path, out):
        code, err = run_cli(["train", "--config", config_path, "--out", out])
        if code != 0:
            raise SetupError(f"giftnn train exited {code}: {err.strip()}")
        return os.path.join(out, "train")


class DeskSweep(Workload):
    """The paper's grid: every (family, s0, seed) task retrains (640 SGD steps
    of 64 rows), line searches stop after about one step, and the device draws
    Laplace and multiplicative noise."""

    name = "desk_sweep"
    unit = "sweep rows"
    rate_name = "cells_per_s"

    def make_config(self):
        return seeded_config(self.seed, 1, train={"epochs": SWEEP_EPOCHS}, sweep={
            "s0_grid": SWEEP_S0_GRID, "families": SWEEP_FAMILIES, "workers": 1})

    def run(self):
        return run_cli(["sweep", "--config", self.config_path, "--out", self.out_dir])

    def check(self, result):
        code, err = result
        if code != 0:
            return Outcome(0, "", [f"exit code {code}: {err.strip()}"])
        out = os.path.join(self.out_dir, "sweep")
        with open(os.path.join(out, "sweep.json")) as f:
            summary = json.load(f)
        rows_body = csv_body(os.path.join(out, "sweep_rows.csv"))
        agg_body = csv_body(os.path.join(out, "sweep_aggregate.csv"))
        sw = self.config["sweep"]
        expected = len(sw["families"]) * len(sw["s0_grid"]) * len(sw["st_grid"]) * len(self.config["seeds"])
        rows = read_gift_rows(rows_body)
        problems = gift_row_problems(rows, expected)
        if summary["failures"]:
            problems.append(f"sweep failures: {summary['failures']}")
        if summary["non_degradation"] is not True:
            problems.append("sweep.json non_degradation is not true")
        digest = hashlib.sha256(rows_body + agg_body).hexdigest()
        return Outcome(len(rows), digest, problems)


class _GiftWorkload(Workload):
    checkpoint = None

    def run(self):
        argv = ["gift", "--config", self.config_path, "--out", self.out_dir]
        if self.checkpoint:
            argv += ["--checkpoint", self.checkpoint]
        return run_cli(argv)

    def work(self, rows) -> int:
        raise NotImplementedError

    def check(self, result):
        code, err = result
        if code != 0:
            return Outcome(0, "", [f"exit code {code}: {err.strip()}"])
        body = csv_body(os.path.join(self.out_dir, "gift", "gift_summary.csv"))
        rows = read_gift_rows(body)
        problems = gift_row_problems(rows, len(self.config["seeds"]))
        return Outcome(self.work(rows), hashlib.sha256(body).hexdigest(), problems)


class DeskWalk(_GiftWorkload):
    """Long line searches from checkpoints trained in set-up: 17 candidates of
    8000 device rows per seed on one shared noise slot, and no training."""

    name = "desk_walk"
    unit = "line-search candidates"
    rate_name = "candidates_per_s"

    def make_config(self):
        return seeded_config(self.seed, 2, gift={
            "stop_rule": "both_worse", "eta": 0.005, "max_steps": WALK_MAX_STEPS})

    def setup(self):
        super().setup()
        self.checkpoint = self._train(self.config_path, os.path.join(self.work_dir, "checkpoints"))

    def work(self, rows):
        return sum(1 + 2 * int(r["gift_steps"]) for r in rows)


class WideGift(_GiftWorkload):
    """gift with in-process training at shallow_mnist dims (784-500-100-100-10):
    matmuls wide enough for BLAS to matter, 2194 noise values per row."""

    name = "wide_gift"
    unit = "seeds"
    rate_name = "seeds_per_s"

    def make_config(self):
        return seeded_config(self.seed, 1, arch={"preset": "shallow_mnist"}, train={"epochs": WIDE_EPOCHS},
                             gift={"max_steps": WIDE_MAX_STEPS})

    def work(self, rows):
        return len(rows)


class McOracle(Workload):
    """The Monte Carlo oracle behind criteria 4 and 7 on a set-up checkpoint:
    65,536-row chunks, no device, trainer or line search."""

    name = "mc_oracle"
    unit = "Monte Carlo rows"
    rate_name = "mc_rows_per_s"

    def make_config(self):
        return seeded_config(self.seed, 1, train={"s0": ORACLE_S0})

    def setup(self):
        super().setup()
        cfg_t = json.loads(json.dumps(self.config))
        cfg_t["train"]["s0"] = ORACLE_S_T
        path_t = write_config(cfg_t, os.path.join(self.work_dir, "config_t.json"))
        seed = self.config["seeds"][0]
        params = os.path.join(f"seed_{seed}", "params.npz")
        root_0 = self._train(self.config_path, os.path.join(self.work_dir, "w0"))
        root_t = self._train(path_t, os.path.join(self.work_dir, "wt"))
        self.w0 = load_params(os.path.join(root_0, params))
        self.w_t = load_params(os.path.join(root_t, params))
        self.train_ds, _ = cli.Experiment(self.config).datasets()

    def run(self):
        pair = theory.mc_objective_pair(self.w0, self.w_t, ORACLE_S_T, self.train_ds,
                                        mc_samples=ORACLE_PAIR_SAMPLES, seed=self.seed)
        fd = theory.d_ds_grad_fd_report(self.w0, ORACLE_S0, self.train_ds, h=0.03,
                                        mc_samples=ORACLE_FD_SAMPLES, seed=self.seed)
        return pair, fd

    def check(self, result):
        pair, fd = result
        value, se = fd.to_vectors()
        scalars = np.array([pair["j_a"], pair["j_b"], pair["diff"], pair["diff_se"]], dtype=float)
        problems = []
        if not (np.isfinite(scalars).all() and np.isfinite(value).all() and np.isfinite(se).all()):
            problems.append("non-finite Monte Carlo output")
        if not pair["diff_se"] > 0:
            problems.append(f"mc_objective_pair diff_se {pair['diff_se']} is not positive")
        if not (se > 0).all():
            problems.append(f"d_ds_grad_fd_report: {int((se <= 0).sum())} standard errors not positive")
        digest = hashlib.sha256(scalars.tobytes() + value.tobytes() + se.tobytes()).hexdigest()
        return Outcome(ORACLE_PAIR_SAMPLES + ORACLE_FD_SAMPLES, digest, problems)


WORKLOADS = {w.name: w for w in (DeskSweep, DeskWalk, WideGift, McOracle)}
