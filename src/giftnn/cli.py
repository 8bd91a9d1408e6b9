"""Experiment orchestration: train, gift, eval, sweep, check.

One JSON document configures an experiment; flags override leaf fields by
dotted path. Every artifact embeds the resolved config, a content hash of the
package sources, and the run timestamp in a header field, so re-runs with the
same config and seeds produce byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import json
import os
import sys
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .checks import (_choice, _count, _instance, _integer, _levels, _list_of, _matrix, _optional, _positive,
                     checked, leaves)
from .data import (
    DATA_DIR_ENV,
    Dataset,
    load_mnist,
    subset,
    synthetic_linear,
    synthetic_teacher,
)
from .device import Device
from .gift import GiftConfig, estimate_direction, eval_in_situ, gift_run, mean_se, normalize
from .model import (
    Architecture,
    NOISE_FAMILIES,
    NoiseModel,
    Params,
    RngStream,
    STREAM_DATA,
    STREAM_ESTIMATE,
    STREAM_EVAL,
    STREAM_THEORY,
    STREAM_VERSION,
    mix64,
    load_params,
    open_atomic,
    save_params,
)
from .theory import (
    check_gaussian_product_cases,
    check_hierarchical_sampler,
    gradient_fd_check,
    linear_condition_bound,
)
from .trainer import TrainConfig, train

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILURE = 3


class ConfigError(Exception):
    """Validation failure; carries messages that name config field paths."""

    def __init__(self, errors):
        self.errors = [errors] if isinstance(errors, str) else list(errors)
        super().__init__("; ".join(self.errors))


class CheckFailure(Exception):
    pass


ARCH_PRESETS = {
    "shallow_mnist": [784, 500, 100, 100, 10],
    "deep_mnist": [784, 500, 250, 250, 100, 50, 10],
    "desk_small": [16, 32, 16, 4],
    "linear_example": [2, 1],
}


# The config's shape: every leaf is (default, check). TrainConfig and GiftConfig declare theirs.
SCHEMA = {
    "name": ("experiment", _instance(str, "a string")),
    "arch": {
        "preset": ("desk_small", _choice(ARCH_PRESETS)),
        "layer_dims": (None, _optional(_list_of(_count, "null or a list of at least two integers >= 1",
                                                min_len=2, distinct=False))),
    },
    "data": {
        "kind": ("synthetic_teacher", _choice(("mnist", "synthetic_teacher", "synthetic_linear"))),
        "dir": (None, _optional(_instance(str, "null or a string"))),
        "n_train": (2000, _count),
        "n_test": (500, _count),
        "sigma_x": (1.0, _positive),
        "v": ([0.3, -0.2], _matrix),
        "seed": (0, _integer),
    },
    "train": leaves(TrainConfig),
    "gift": leaves(GiftConfig),
    "device": {"family": ("gaussian_additive", _choice(NOISE_FAMILIES)), "s_t": (0.3, _positive)},
    "sweep": {
        "s0_grid": ([0.05, 0.1, 0.2, 0.3], _levels),
        "st_grid": ([0.05, 0.1, 0.2, 0.3], _levels),
        "families": (["gaussian_additive"], _list_of(
            _choice(NOISE_FAMILIES), f"a nonempty list of distinct noise families {list(NOISE_FAMILIES)}")),
        "workers": (1, _count),
    },
    "seeds": ([0, 1, 2, 3, 4], _list_of(_integer, "a nonempty list of distinct integers")),
    "out_dir": ("runs/experiment", _instance(str, "a string")),
}


def _defaults(schema: dict) -> dict:
    return {k: _defaults(v) if isinstance(v, dict) else v[0] for k, v in schema.items()}


DEFAULT_CONFIG = _defaults(SCHEMA)


def _check_tree(schema: dict, cfg: dict, errors: list, path: str = "") -> dict:
    """cfg's leaves as their checks return them, with one "<path>: <reason>" per bad leaf
    appended to errors. A bad leaf is left out; a section holding one comes back as None."""
    out = {}
    for key, node in schema.items():
        here, value = path + key, cfg[key]
        if not isinstance(node, dict):
            try:
                out[key] = checked(here, node[1], value)
            except ValueError as e:
                errors.append(str(e))
        elif not isinstance(value, dict):
            errors.append(f"{here}: expected a config section (a JSON object), got {value!r}")
            out[key] = None
        elif missing := [k for k in node if k not in value]:
            errors.append(f"{here}: section lacks {', '.join(missing)}")
            out[key] = None
        else:
            n_errors = len(errors)
            section = _check_tree(node, value, errors, here + ".")
            out[key] = section if len(errors) == n_errors else None
    return out


def _deep_merge(base: dict, override: dict, path="") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"{here}: unknown config key")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(base[key], value, here)
        else:
            out[key] = value
    return out


def _flag_value(raw: str):
    """A --set value or a --seeds item: its JSON value, else the raw string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def resolve_config(args) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as f:
                loaded = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config: file not found: {args.config}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config: invalid JSON in {args.config}: {e}")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"config: cannot read {args.config}: {e}")
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a JSON object")
        cfg = _deep_merge(cfg, loaded)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected dotted.path=value")
        dotted, raw = item.split("=", 1)
        value = _flag_value(raw)
        for key in reversed(dotted.split(".")):
            value = {key: value}
        cfg = _deep_merge(cfg, value)  # as a config file holding only this leaf would be
    # the flags merge as their --set spellings would, after every --set
    if getattr(args, "data_dir", None):
        cfg = _deep_merge(cfg, {"data": {"dir": args.data_dir}})
    if getattr(args, "out", None):
        cfg = _deep_merge(cfg, {"out_dir": args.out})
    if getattr(args, "seeds", None) is not None:  # the seeds check judges the items, as it does a --set list
        cfg = _deep_merge(cfg, {"seeds": [_flag_value(s) for s in args.seeds.split(",") if s.strip() != ""]})
    return cfg


class Experiment:
    """Typed view of a resolved config; construction validates everything."""

    def __init__(self, cfg: dict):
        errors = []
        checked = _check_tree(SCHEMA, cfg, errors)
        # Cross-field rules; each runs only when the sections it reads have no bad leaf.
        arch, data = checked["arch"], checked["data"]
        if arch is not None:
            self.arch = Architecture(arch["layer_dims"] or ARCH_PRESETS[arch["preset"]])
        if data is not None and data["kind"] == "mnist" and not (data["dir"] or os.environ.get(DATA_DIR_ENV)):
            errors.append(f"data.dir: required for kind 'mnist' (or set {DATA_DIR_ENV})")
        if arch is not None and data is not None and data["kind"] == "mnist":
            d = self.arch.layer_dims
            if (d[0], d[-1]) != (784, 10):  # 28x28 pixels in, one output per digit class
                errors.append(f"arch.layer_dims: kind 'mnist' needs 784 inputs and 10 outputs, got {list(d)}")
        if arch is not None and data is not None and data["kind"] == "synthetic_linear":
            d = self.arch.layer_dims
            if data["v"].shape != (d[-1], d[0]):
                errors.append(f"data.v: must be a {(d[-1], d[0])} matrix for layer dims {d}, "
                              f"got {cfg['data']['v']!r}")
        if errors:
            raise ConfigError(errors)

        self.raw = cfg
        self.data, self.sweep = data, checked["sweep"]
        self.seeds, self.out_dir = checked["seeds"], checked["out_dir"]
        self.train_config = TrainConfig(**checked["train"])
        self.gift_config = GiftConfig(**checked["gift"])
        self.noise = NoiseModel(checked["device"]["family"], checked["device"]["s_t"])

    def datasets(self):
        """(train, test) datasets per the data block."""
        dc = self.data
        kind = dc["kind"]
        n_train, n_test = dc["n_train"], dc["n_test"]
        rng = RngStream(dc["seed"], STREAM_DATA)
        if kind == "mnist":
            try:
                train_full = load_mnist(dc["dir"], train=True)
                test_full = load_mnist(dc["dir"], train=False)
            except (OSError, ValueError) as e:  # missing, a directory, an IdxError or a label >= 10
                raise ConfigError(f"data.dir: {e}")
            for leaf, n, split in (("n_train", n_train, train_full), ("n_test", n_test, test_full)):
                if n > len(split):
                    raise ConfigError(f"data.{leaf}: {n} rows requested, the IDX split holds {len(split)}")
            return subset(train_full, n_train, rng), subset(test_full, n_test, rng.child(1))
        if kind == "synthetic_linear":
            pool = synthetic_linear(dc["v"], dc["sigma_x"], n_train + n_test, rng)
        else:
            pool = synthetic_teacher(self.arch, n_train + n_test, dc["sigma_x"], rng)
        train_ds = Dataset(pool.inputs[:n_train], pool.targets[:n_train])
        return train_ds, Dataset(pool.inputs[n_train:], pool.targets[n_train:])


def code_hash() -> str:
    """Content hash of the installed package sources."""
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, fn), root)
                digest.update(rel.encode())
                with open(os.path.join(dirpath, fn), "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:12]


def blas_setup() -> dict:
    """numpy's BLAS and its thread counts: a body is byte-identical on one host and one such set-up."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"library": blas, **{var: os.environ.get(var)
                                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _meta(cfg: dict) -> dict:
    blob = json.dumps(cfg, sort_keys=True)
    return {
        "version": __version__,
        "code_hash": code_hash(),
        "stream_version": STREAM_VERSION,
        "blas": blas_setup(),
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest()[:16],
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg,
    }


def write_csv(path, fieldnames, rows, meta: dict):
    """Meta (with timestamp) goes on a comment header line; the body below it is
    deterministic for a fixed config and seeds."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _jsonable(v) for k, v in row.items()})
    with open_atomic(path, "w") as f:
        f.write("# meta " + json.dumps(meta, sort_keys=True) + "\n")
        f.write(buf.getvalue())


def read_csv_body(path):
    """(header_meta, rows) for an artifact produced by write_csv."""
    with open(path) as f:
        first = f.readline()
        meta = json.loads(first[len("# meta "):]) if first.startswith("# meta ") else None
        rows = list(csv.DictReader(f))
    return meta, rows


def _jsonable(obj):
    """numpy scalars as Python scalars, arrays and tuples as lists: the values of CSV rows and JSON files."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def write_json(path, payload: dict):
    with open_atomic(path, "w") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def _device_seed(seed: int, family: str, s_t: float) -> int:
    tag = int.from_bytes(hashlib.sha256(f"{family}:{s_t!r}".encode()).digest()[:8], "big")
    return mix64(seed ^ mix64(tag))


def _fine_tune(exp: Experiment, seed: int, train_ds, test_ds, families, s0_grid, st_grid, start, finish) -> dict:
    """Every (family, s0, s_t) cell of one seed: gift runs one cell, a sweep task its seed's grid.

    start(s0) returns w0; w0 and the unit direction depend on (s0, seed) alone,
    so each is made once and every family shares it. One device per (family,
    s_t, seed) scores every s0: all line searches first, sharing their points
    and noise slot, then all fresh pairs, each an independent paired
    re-evaluation of w0 and w_f on slot 0 and the full test set. After the
    first s0 the device replays the draw it kept, so every row is what a device
    of its own would give; it keeps one draw at a time, so a fresh pair run
    between two line searches would overwrite theirs.

    Returns, per (family, s0) in grid order, what finish(row, trace) returns at
    each s_t in st_grid order, or the first exception, which drops that (family,
    s0)'s results at every s_t.
    """
    g = exp.gift_config
    results = {(family, s0): [] for family in families for s0 in s0_grid}  # or the first exception
    starts = {}  # s0 -> (w0, D)
    for s0 in s0_grid:
        try:
            w0 = start(s0)
            starts[s0] = w0, normalize(estimate_direction(w0, train_ds, s0, g.est_k1, g.est_k2,
                                                          RngStream(seed, STREAM_ESTIMATE)))
        except Exception as e:  # every family's cells at this s0 needed w0 and D
            results.update({(family, s0): e for family in families})
    for family in families:
        for s_t in st_grid:
            device = Device(NoiseModel(family, s_t), seed=_device_seed(seed, family, s_t))
            traces = {}
            for s0, (w0, direction) in starts.items():
                if isinstance(results[family, s0], list):
                    try:
                        traces[s0] = gift_run(device, w0, direction, g, test_ds,
                                              RngStream(_device_seed(seed, family, -s_t), STREAM_EVAL))
                    except Exception as e:
                        results[family, s0] = e
            for s0, trace in traces.items():
                try:
                    fresh = eval_in_situ(device, [starts[s0][0], trace.w_f], test_ds.inputs, test_ds.targets,
                                         np.arange(len(test_ds)), g.k2, 0)
                    results[family, s0].append(finish(_gift_row(family, s0, s_t, seed, trace, *fresh), trace))
                except Exception as e:
                    results[family, s0] = e
    return results


def _gift_row(family, s0, s_t, seed, trace, fresh_base, fresh_post) -> dict:
    base, sel = trace.baseline, trace.improvement
    acc_eps = 1e-12
    return {
        "family": family,
        "s0": s0,
        "s_t": s_t,
        "seed": seed,
        "baseline_loss": base.loss,
        "post_loss": base.loss - sel,
        "loss_improvement": sel,
        "rel_loss_improvement": sel / base.loss if base.loss > 0 else 0.0,
        "baseline_acc": base.accuracy,
        "post_acc": trace.best.accuracy,
        "fresh_baseline_loss": fresh_base.loss,
        "fresh_post_loss": fresh_post.loss,
        "fresh_loss_improvement": fresh_base.loss - fresh_post.loss,
        "fresh_baseline_acc": fresh_base.accuracy,
        "fresh_post_acc": fresh_post.accuracy,
        "fresh_acc_change": fresh_post.accuracy - fresh_base.accuracy,
        "fresh_rel_acc_improvement": (fresh_post.accuracy - fresh_base.accuracy) / max(fresh_base.accuracy, acc_eps),
        "selected_step": trace.selected[0],
        "selected_sign": trace.selected[1],
        "gift_steps": trace.steps_taken,
        "stop_reason": trace.stop_reason,
        "device_queries": trace.queries,
        "direction_norm": trace.direction_norm,
    }


GIFT_FIELDS = [
    "family", "s0", "s_t", "seed",
    "baseline_loss", "post_loss", "loss_improvement", "rel_loss_improvement",
    "baseline_acc", "post_acc",
    "fresh_baseline_loss", "fresh_post_loss", "fresh_loss_improvement",
    "fresh_baseline_acc", "fresh_post_acc", "fresh_acc_change", "fresh_rel_acc_improvement",
    "selected_step", "selected_sign", "gift_steps", "stop_reason", "device_queries", "direction_norm",
]


def cmd_train(exp: Experiment) -> int:
    train_ds, _ = exp.datasets()
    meta = _meta(exp.raw)
    out = os.path.join(exp.out_dir, "train")
    for seed in exp.seeds:
        params, history = train(exp.arch, exp.train_config, train_ds, seed)
        seed_dir = os.path.join(out, f"seed_{seed}")
        save_params(params, os.path.join(seed_dir, "params.npz"))
        rows = [
            {"step": s, "epoch": e, "eps": eps, "loss": loss}
            for s, e, eps, loss in zip(history.steps, history.epochs, history.eps, history.losses)
        ]
        write_csv(os.path.join(seed_dir, "train_log.csv"), ["step", "epoch", "eps", "loss"], rows, meta)
        smoothed = history.smoothed()
        write_json(os.path.join(seed_dir, "checkpoint.json"), {
            "meta": meta,
            "seed": seed,
            "steps": len(history.steps),
            "final_loss": history.losses[-1],
            "smoothed_initial": smoothed[0],
            "smoothed_final": smoothed[-1],
        })
        print(f"train seed {seed}: steps {len(history.steps)}, "
              f"smoothed loss {smoothed[0]:.4f} -> {smoothed[-1]:.4f} ({seed_dir})")
    return EXIT_OK


def _load_checkpoint(exp: Experiment, checkpoint_root: str | None, train_ds, seed: int) -> Params:
    if checkpoint_root is None:
        return train(exp.arch, exp.train_config, train_ds, seed)[0]
    path = os.path.join(checkpoint_root, f"seed_{seed}", "params.npz")
    try:
        params = load_params(path)
    except FileNotFoundError:
        raise ConfigError(f"checkpoint: missing params for seed {seed}: {path}")
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as e:  # a directory, a cut or foreign file
        raise ConfigError(f"checkpoint: cannot read {path}: {e}")
    if params.arch != exp.arch:
        raise ConfigError(f"checkpoint: params architecture {params.arch} does not match the config's {exp.arch}")
    return params


def _gift_artifacts(exp: Experiment, meta: dict, out: str, seed: int, row: dict, trace) -> dict:
    """Writes one gift seed's final params and trace and returns its row."""
    seed_dir = os.path.join(out, f"seed_{seed}")
    save_params(trace.w_f, os.path.join(seed_dir, "params_final.npz"))
    write_json(os.path.join(seed_dir, "gift_trace.json"), {
        "meta": meta,
        "seed": seed,
        "baseline": vars(trace.baseline),
        "candidates": [
            {"i": i, "sign": s, **vars(rep)} for i, s, rep in trace.records
        ],
        "selected": list(trace.selected),
        "improvement": trace.improvement,
        "steps_taken": trace.steps_taken,
        "queries": trace.queries,
        "stop_reason": trace.stop_reason,
        "eta": exp.gift_config.eta,
        "direction_norm": trace.direction_norm,
    })
    print(f"gift seed {seed}: loss {trace.baseline.loss:.5f} -> "
          f"{trace.baseline.loss - trace.improvement:.5f} "
          f"(improvement {trace.improvement:.5f}, steps {trace.steps_taken})")
    return row


def cmd_gift(exp: Experiment, checkpoint_root: str | None) -> int:
    train_ds, test_ds = exp.datasets()
    meta = _meta(exp.raw)
    out = os.path.join(exp.out_dir, "gift")
    rows = []
    for seed in exp.seeds:  # one cell; a seed's w0, direction, device and trace are gone before the next's
        result, = _fine_tune(exp, seed, train_ds, test_ds, [exp.noise.family], [exp.train_config.s0],
                             [exp.noise.level], lambda _: _load_checkpoint(exp, checkpoint_root, train_ds, seed),
                             lambda row, trace: _gift_artifacts(exp, meta, out, seed, row, trace)).values()
        if isinstance(result, Exception):
            raise result
        rows += result
    write_csv(os.path.join(out, "gift_summary.csv"), GIFT_FIELDS, rows, meta)
    return EXIT_OK


def cmd_eval(exp: Experiment, checkpoint_root: str | None) -> int:
    train_ds, test_ds = exp.datasets()
    meta = _meta(exp.raw)
    rows = []
    noise = exp.noise
    for seed in exp.seeds:
        params = _load_checkpoint(exp, checkpoint_root, train_ds, seed)
        device = Device(noise, seed=_device_seed(seed, noise.family, noise.level))
        idx = RngStream(seed, STREAM_EVAL).generator(0).integers(0, len(test_ds), size=exp.gift_config.k1)
        report, = eval_in_situ(device, [params], test_ds.inputs, test_ds.targets, idx, exp.gift_config.k2, 0)
        rows.append({
            "seed": seed,
            "family": noise.family,
            "s_t": noise.level,
            "loss": report.loss,
            "loss_se": report.loss_se,
            "accuracy": report.accuracy,
            "accuracy_se": report.accuracy_se,
            "k1": report.k1,
            "k2": report.k2,
        })
        print(f"eval seed {seed}: loss {report.loss:.5f} +/- {report.loss_se:.5f}, "
              f"acc {report.accuracy:.4f}")
    write_csv(os.path.join(exp.out_dir, "eval", "eval.csv"),
              list(rows[0].keys()), rows, meta)
    return EXIT_OK


def _sweep_task(exp: Experiment, seed: int):
    """Every (family, s0, s_t) cell of one seed, each s0 trained from scratch; its arguments pickle for
    worker pools. Returns (rows, failures): the rows of the cells that ran, and a record of each
    (family, s0) whose first exception dropped its rows."""
    sw = exp.sweep
    try:
        train_ds, test_ds = exp.datasets()
    except ConfigError:  # the data block is wrong for every task: stop, naming its leaf
        raise
    except Exception as e:  # keep sweeping; every cell of this seed needed the data
        results = {(family, s0): e for family in sw["families"] for s0 in sw["s0_grid"]}
    else:
        results = _fine_tune(exp, seed, train_ds, test_ds, sw["families"], sw["s0_grid"], sw["st_grid"],
                             lambda s0: train(exp.arch, replace(exp.train_config, s0=s0), train_ds, seed)[0],
                             lambda row, trace: row)  # a trace holds w_f: none outlives its fresh pair
    rows, failures = [], []
    for (family, s0), result in results.items():
        if isinstance(result, Exception):  # keep sweeping without this (family, s0)'s rows
            failures.append({"family": family, "s0": s0, "seed": seed, "error": str(result)})
        else:
            rows += result
    return rows, failures


def cmd_sweep(exp: Experiment) -> int:
    meta = _meta(exp.raw)
    sw = exp.sweep
    seeds = exp.seeds
    workers = min(sw["workers"], len(seeds))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, [exp] * len(seeds), seeds))
    else:
        results = [_sweep_task(exp, seed) for seed in seeds]

    def grid_order(record):  # family-major, then s0; the tasks come in seed order, rows in s_t order
        return sw["families"].index(record["family"]), sw["s0_grid"].index(record["s0"])

    rows = sorted((row for task_rows, _ in results for row in task_rows), key=grid_order)
    failures = sorted((failure for _, task_failures in results for failure in task_failures), key=grid_order)

    stats = ("rel_loss_improvement", "loss_improvement",
             "fresh_rel_acc_improvement", "fresh_acc_change",
             "fresh_baseline_acc", "fresh_post_acc",
             "baseline_loss", "fresh_loss_improvement")
    agg_fields = ["family", "s0", "s_t", "n_seeds"] + [f"{k}_{col}" for col in stats for k in ("mean", "ci95")]
    agg_rows = []
    for family in sw["families"]:
        for s0 in sw["s0_grid"]:
            for s_t in sw["st_grid"]:
                cell = [r for r in rows if r["family"] == family and r["s0"] == s0 and r["s_t"] == s_t]
                if not cell:
                    continue
                agg = {"family": family, "s0": s0, "s_t": s_t, "n_seeds": len(cell)}
                for col in stats:
                    vals = np.array([float(r[col]) for r in cell])
                    agg[f"mean_{col}"] = float(vals.mean())
                    agg[f"ci95_{col}"] = float(1.96 * mean_se(vals))
                agg_rows.append(agg)

    out = os.path.join(exp.out_dir, "sweep")
    write_csv(os.path.join(out, "sweep_rows.csv"), GIFT_FIELDS, rows, meta)
    write_csv(os.path.join(out, "sweep_aggregate.csv"), agg_fields, agg_rows, meta)
    write_json(os.path.join(out, "sweep.json"), {
        "meta": meta,
        "n_rows": len(rows),
        "failures": failures,
        "non_degradation": bool(all(float(r["loss_improvement"]) >= 0.0 for r in rows)),
    })
    print(f"sweep: {len(rows)} rows, {len(agg_rows)} cells, {len(failures)} failures ({out})")
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_check(out_dir: str) -> int:
    """Run the numeric verification suite and write <out_dir>/check/checks.json."""
    checks = []

    worst = check_gaussian_product_cases(50, RngStream(2025, STREAM_THEORY))
    checks.append({"name": "gaussian_product_derivative", "passed": worst < 1e-6,
                   "worst_rel_error": worst, "tolerance": 1e-6})

    reps = [check_hierarchical_sampler(100, 100, 20, RngStream(7, STREAM_THEORY)),
            check_hierarchical_sampler(1000, 100, 20, RngStream(8, STREAM_THEORY))]
    ok = all(r["all_within_4se"] for r in reps) and reps[1]["mean_abs_error"] < reps[0]["mean_abs_error"]
    checks.append({"name": "hierarchical_sampler", "passed": bool(ok),
                   "mean_abs_errors": [r["mean_abs_error"] for r in reps],
                   "se_pred": [r["se_pred"] for r in reps]})

    b1 = linear_condition_bound([0.3, -0.4], 1e-9, 1.0)
    b2 = linear_condition_bound([1.0], 1.0, 1.0)
    b3 = linear_condition_bound([0.6, -0.8], 0.5, 1.0)
    b4 = linear_condition_bound([1.2, -1.6], 0.5, 1.0)
    ok = abs(b1 - 1.0) < 1e-6 and abs(b2 - 1.0) < 1e-12 and abs(b3 - 2 * b4) < 1e-12
    checks.append({"name": "linear_condition_bound", "passed": bool(ok),
                   "values": [b1, b2, b3, b4]})

    worst = gradient_fd_check(20, RngStream(2026, STREAM_THEORY))
    checks.append({"name": "gradient_finite_difference", "passed": worst < 1e-5,
                   "worst_rel_error": worst, "tolerance": 1e-5})

    payload = {"checks": checks, "all_passed": bool(all(c["passed"] for c in checks))}
    write_json(os.path.join(out_dir, "check", "checks.json"), payload)
    for c in checks:
        print(f"check {c['name']}: {'pass' if c['passed'] else 'FAIL'}")
    if not payload["all_passed"]:
        raise CheckFailure("one or more checks failed")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="giftnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "train checkpoints under the presumed noise level"),
        ("gift", "estimate a direction and fine-tune against the device"),
        ("eval", "evaluate checkpoints on the device"),
        ("sweep", "run the (family, s0, s_t, seed) grid and aggregate"),
        ("check", "run the numeric verification suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output directory (overrides out_dir)")
        p.add_argument("--data-dir", dest="data_dir", help=f"dataset directory (or ${DATA_DIR_ENV})")
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a config leaf by dotted path (JSON value)")
        if name in ("gift", "eval"):
            p.add_argument("--checkpoint", help="train output dir with seed_*/params.npz")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        exp = Experiment(resolve_config(args))
        if args.command == "check":
            return cmd_check(exp.out_dir)
        if args.command == "train":
            return cmd_train(exp)
        if args.command == "gift":
            return cmd_gift(exp, args.checkpoint)
        if args.command == "eval":
            return cmd_eval(exp, args.checkpoint)
        if args.command == "sweep":
            return cmd_sweep(exp)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except CheckFailure as e:
        print(f"check failure: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except Exception as e:
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
