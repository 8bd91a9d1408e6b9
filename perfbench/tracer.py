"""Outside-in layer tracing: spans and counts recorded around calls into giftnn.

The package's modules import each other with ``from .model import ...``, so a
function is looked up in the *caller's* namespace. Patching
``giftnn.model.sample_noise_batch`` alone would record nothing; each entry of
PATCHES therefore lists every module attribute through which the function is
reached. ``Device.forward_batch`` is patched on the class.

Spans live in memory as (name, start, end, parent, iteration) and are written
out once, when the benchmark ends. Self time of a span is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import statistics
import time
import weakref

from giftnn import cli, device, gift, gradients, theory, trainer

LAYERS = ("model", "gradients", "trainer", "gift", "device", "data", "theory", "cli")
ROOT = "bench.iteration"


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _noise_counts(tracer, fn, args, kwargs, draw):
    values = sum(v.size for v in draw.act) + sum(v.size for v in draw.weigh)
    return {"values": values, "bytes_computed": 8 * values}


def _forward_counts(tracer, fn, args, kwargs, trace):
    x = trace.activations[0]
    return {"rows": x.shape[0] if x.ndim == 2 else 1}


def _train_counts(tracer, fn, args, kwargs, result):
    return {"steps": len(result[1].steps)}


def _estimate_counts(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"rows": a["k1"] * a["k2"]}


def _gift_run_counts(tracer, fn, args, kwargs, trace):
    return {"candidates": 1 + len(trace.records), "steps": trace.steps_taken}


def _mc_counts(tracer, fn, args, kwargs, result):
    return {"rows": _bound(fn, args, kwargs)["mc_samples"]}


def _write_csv_counts(tracer, fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _forward_batch_counts(tracer, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    drawn = tracer.drawn.setdefault(a["self"], set())
    key = (a["noise_slot"], out.shape[0])
    redraw = a["noise_slot"] is not None and key in drawn  # a slot-less call takes a fresh slot
    drawn.add(key)
    return {"rows": out.shape[0], "redraws": int(redraw)}


# (span name, where the callers bind it, count function or None)
PATCHES = (
    ("model.sample_noise_batch",
     ((gift, "sample_noise_batch"), (device, "sample_noise_batch"),
      (gradients, "sample_noise_batch"), (theory, "sample_noise_batch")), _noise_counts),
    ("model.forward_noisy",
     ((gift, "forward_noisy"), (gradients, "forward_noisy"), (theory, "forward_noisy")), _forward_counts),
    ("model.apply_step", ((gift, "apply_step"), (trainer, "apply_step")), None),
    ("gradients.batch_gradient", ((trainer, "batch_gradient"),), None),
    ("gradients.backward", ((gradients, "backward"),), None),
    ("gradients.residual_stack",
     ((gradients, "residual_stack"), (gift, "residual_stack"), (theory, "residual_stack")), None),
    ("trainer.train", ((cli, "train"), (theory, "train")), _train_counts),
    ("gift.estimate_direction", ((cli, "estimate_direction"), (theory, "estimate_direction")), _estimate_counts),
    ("gift.gift_run", ((cli, "gift_run"), (theory, "gift_run")), _gift_run_counts),
    ("gift.eval_in_situ", ((gift, "eval_in_situ"), (cli, "eval_in_situ")), None),
    ("device.forward_batch", ((device.Device, "forward_batch"),), _forward_batch_counts),
    ("data.synthetic_teacher", ((cli, "synthetic_teacher"),), None),
    ("data.epoch_batches", ((trainer, "epoch_batches"),), None),
    ("theory.mc_objective_pair", ((theory, "mc_objective_pair"),), _mc_counts),
    ("theory.d_ds_grad_fd_report", ((theory, "d_ds_grad_fd_report"),), _mc_counts),
    ("cli.main", ((cli, "main"),), None),
    ("cli.write_csv", ((cli, "write_csv"),), _write_csv_counts),
)


class Tracer:
    """Records spans while installed; ``install()`` patches, leaving restores."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, iteration, counts or None)
        self.iteration = -1
        self._stack = []
        self.drawn = weakref.WeakKeyDictionary()  # Device -> {(noise slot, rows)} it drew

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start, counts):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.iteration, counts)

    @contextlib.contextmanager
    def span(self, name):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, None)

    def _wrap(self, name, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            idx, parent = tracer._open()
            start = time.perf_counter()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(tracer, fn, args, kwargs, result)
                return result
            finally:
                tracer._close(idx, parent, name, start, counts)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def install(self):
        saved = []
        try:
            for name, sites, count in PATCHES:
                for owner, attr in sites:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def iteration_summary(self, iteration):
        """Per span name: calls, total_s, self_s and summed counts, for one iteration."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == iteration]
        child_s = {}
        for _, (_, start, end, parent, _, _) in spans:
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        out = {}
        for i, (name, start, end, _, _, counts) in spans:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_s.get(i, 0.0)
            for k, v in (counts or {}).items():
                agg[k] = agg.get(k, 0) + v
        return out

    def dump(self, t0):
        """Spans as JSON-ready rows, times relative to t0."""
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "iteration": it, **(c or {})}
            for n, s, e, p, it, c in self.spans
        ]


def _kernel_counts(arch):
    """Computed from the layer dims, not measured."""
    dims = arch.layer_dims
    noise_values = dims[0] + sum(dims[1:]) + sum(dims[1:-1])
    return {
        "macs_per_row": sum(a * b for a, b in zip(dims[:-1], dims[1:])),
        "noise_values_per_row": noise_values,
        "noise_bytes_per_row": 8 * noise_values,
    }


# name -> (unit, kind, better). "count" metrics repeat exactly across traced runs;
# "time" metrics are medians over the traced iterations.
PER_LAYER = {
    "model.sample_noise_batch.calls": ("count", "count", "lower"),
    "model.sample_noise_batch.values": ("count", "count", "lower"),
    "model.sample_noise_batch.bytes_computed": ("B", "count", "lower"),
    "model.sample_noise_batch.self_s": ("s", "time", "lower"),
    "model.sample_noise_batch.values_per_s": ("1/s", "time", "higher"),
    "model.forward_noisy.calls": ("count", "count", "lower"),
    "model.forward_noisy.rows": ("count", "count", "lower"),
    "model.forward_noisy.macs_computed": ("MAC", "count", "lower"),
    "model.forward_noisy.self_s": ("s", "time", "lower"),
    "model.macs_per_row_computed": ("MAC", "count", "lower"),
    "model.noise_values_per_row_computed": ("count", "count", "lower"),
    "model.noise_bytes_per_row_computed": ("B", "count", "lower"),
    "model.apply_step.calls": ("count", "count", "lower"),
    "model.apply_step.self_s": ("s", "time", "lower"),
    "gradients.batch_gradient.calls": ("count", "count", "lower"),
    "gradients.batch_gradient.self_s": ("s", "time", "lower"),
    "gradients.backward.self_s": ("s", "time", "lower"),
    "gradients.residual_stack.calls": ("count", "count", "lower"),
    "gradients.residual_stack.self_s": ("s", "time", "lower"),
    "trainer.train.steps": ("count", "count", "lower"),
    "trainer.train.self_s": ("s", "time", "lower"),
    "trainer.train.ms_per_step": ("ms", "time", "lower"),
    "gift.estimate_direction.rows": ("count", "count", "lower"),
    "gift.estimate_direction.total_s": ("s", "time", "lower"),
    "gift.estimate_direction.self_s": ("s", "time", "lower"),
    "gift.gift_run.candidates": ("count", "count", "lower"),
    "gift.gift_run.steps": ("count", "count", "lower"),
    "gift.gift_run.total_s": ("s", "time", "lower"),
    "gift.gift_run.self_s": ("s", "time", "lower"),
    "gift.eval_in_situ.calls": ("count", "count", "lower"),
    "gift.eval_in_situ.self_s": ("s", "time", "lower"),
    "device.forward_batch.calls": ("count", "count", "lower"),
    "device.forward_batch.rows": ("count", "count", "lower"),
    "device.forward_batch.self_s": ("s", "time", "lower"),
    "device.forward_batch.rows_per_s": ("1/s", "time", "higher"),
    "device.redraw_frac": ("ratio", "count", "lower"),
    "data.synthetic_teacher.total_s": ("s", "time", "lower"),
    "data.epoch_batches.self_s": ("s", "time", "lower"),
    "theory.mc_objective_pair.rows": ("count", "count", "lower"),
    "theory.mc_objective_pair.total_s": ("s", "time", "lower"),
    "theory.mc_objective_pair.self_s": ("s", "time", "lower"),
    "theory.d_ds_grad_fd_report.rows": ("count", "count", "lower"),
    "theory.d_ds_grad_fd_report.total_s": ("s", "time", "lower"),
    "theory.d_ds_grad_fd_report.self_s": ("s", "time", "lower"),
    "cli.self_s": ("s", "time", "lower"),
    "cli.write_csv.calls": ("count", "count", "lower"),
    "cli.write_csv.bytes": ("B", "count", "lower"),
    "cli.write_csv.self_s": ("s", "time", "lower"),
    **{f"{layer}.layer_self_s": ("s", "time", "lower") for layer in LAYERS},
    "bench.self_s": ("s", "time", "lower"),
    "trace.traced_cpu_s": ("s", "time", "lower"),
    "trace.untraced_cpu_s": ("s", "time", "lower"),
    "trace.overhead_s": ("s", "time", "lower"),
}




def iteration_metrics(summary, arch):
    """Per-layer metrics of one traced iteration (everything except trace.*)."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    m = {}
    for name, _, _ in PATCHES:
        for key in ("calls", "total_s", "self_s", "rows", "values", "bytes_computed",
                    "steps", "candidates", "bytes"):
            if f"{name}.{key}" in PER_LAYER:
                m[f"{name}.{key}"] = get(name, key)
    kernel = _kernel_counts(arch)
    m["model.sample_noise_batch.values_per_s"] = rate(
        get("model.sample_noise_batch", "values"), get("model.sample_noise_batch", "self_s"))
    m["model.forward_noisy.macs_computed"] = get("model.forward_noisy", "rows") * kernel["macs_per_row"]
    for key, value in kernel.items():
        m[f"model.{key}_computed"] = value
    steps = get("trainer.train", "steps")
    m["trainer.train.ms_per_step"] = 1e3 * get("trainer.train", "total_s") / steps if steps else 0.0
    m["device.forward_batch.rows_per_s"] = rate(
        get("device.forward_batch", "rows"), get("device.forward_batch", "self_s"))
    calls = get("device.forward_batch", "calls")
    m["device.redraw_frac"] = get("device.forward_batch", "redraws") / calls if calls else 0.0
    m["cli.self_s"] = get("cli.main", "self_s")
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = sum(
            agg["self_s"] for name, agg in summary.items() if name.split(".")[0] == layer)
    m["bench.self_s"] = get(ROOT, "self_s")
    return m


def merge_iterations(per_iteration):
    """Counts from the first traced iteration, times as medians over all of them."""
    return {
        name: value if PER_LAYER[name][1] == "count" else statistics.median(it[name] for it in per_iteration)
        for name, value in per_iteration[0].items()
    }
