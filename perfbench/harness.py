"""Closed-loop measurement of one workload, output checks, and metrics.

One client, one process: each op starts after the previous one ends.  The
run sets up at least three times (``setup_s`` is their median), runs op 0 once
untimed and compares it with its timed rerun (the determinism guarantee),
then runs ops until ``seconds`` have passed and at least the quality ops
are done.  ``f1_all``, ``f1_base`` and ``replay_mae`` come only from the
quality ops, a fixed list, so a faster program that completes more ops does
not move them.

With tracing on, even ops are traced and odd ops are not, which gives the
tracing overhead as the ratio of the two medians.

The host's speed drifts: on a shared 2-vCPU VM the same code runs in two
speed regimes about 1.45x apart that switch every second or so, and the
share of slow time changes over minutes.  So a fixed reference kernel runs
before each timed set-up and op, and after the last of each.  The timing
metrics ``setup_s``, ``op_s.p50`` and ``op_s.tail`` are wall times, each
scaled by ``REF_NOMINAL_S`` over the mean of the kernel times just before
and just after it: seconds at the reference host speed.  The raw wall
times are printed and recorded beside them.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from anchorinv import (adaptation, anchors, autodiff, data, evaluation, inversion, model,
                       optim, serialization)

from .tracer import Capture, Target, Tracer, arg
from .workloads import WORKLOADS, OpResult, Sizes

# set up at least three times, and again until set-ups have taken 2 s
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 20, 2.0
MAE_OK = 0.1  # the trained-backbone bound of acceptance test 3
# median reference-kernel time on the baseline host (see README.md)
REF_NOMINAL_S = 0.029
_REF_MATRIX = np.random.default_rng(0).standard_normal((384, 384))

ELEMENTWISE = ("add", "sub", "mul", "add_scalar", "mul_scalar", "neg", "relu", "exp",
               "log", "absolute")
ENGINE = ELEMENTWISE + ("reshape", "transpose", "tensor_sum", "tensor_mean", "l2_norm",
                        "matmul", "conv2d", "avg_pool2d", "softmax_with_temperature",
                        "cosine_similarity_matrix", "take_per_row", "subtract_rowwise",
                        "stack_rows", "backward")


# ---------------------------------------------------------------------------
# what is traced


def _conv_gflop(args, kwargs, result):
    """Forward multiply-adds of one conv2d call, from operand shapes."""
    x, weight = arg(args, kwargs, 0, "x"), arg(args, kwargs, 1, "weight")
    n, c = x.shape[:2]
    k, _, kh, kw = weight.shape
    _, _, ho, wo = result.shape
    return {"autodiff.conv2d.gflop": 2.0 * n * k * c * ho * wo * kh * kw / 1e9}


def _inversion_work(args, kwargs, result):
    config = arg(args, kwargs, 2, "config")
    count = len(arg(args, kwargs, 1, "anchors"))
    return {"inversion.iters": config.iterations,
            "inversion.sample_iters": count * config.iterations}


def _finetune_work(args, kwargs, result):
    return {"adaptation.finetune_iters": arg(args, kwargs, 3, "config").iterations}


def _epochs(args, kwargs, result):
    return {"model.train_base.epochs": len(result.train_losses)}


def _memory_count(args, kwargs, result):
    return {"anchors.memory.count": len(result)}


def _checkpoint_bytes(args, kwargs, result):
    return {"serialization.checkpoint.bytes": os.path.getsize(arg(args, kwargs, 0, "path"))}


def _fscil_label(args, kwargs):
    return "adaptation.run_fscil." + arg(args, kwargs, 2, "method")


def targets() -> list[Target]:
    counters = {"conv2d": _conv_gflop}
    out = [Target(autodiff, name, "autodiff." + name, counters.get(name)) for name in ENGINE]
    out += [
        Target(optim.Adam, "step", "optim.adam_step"),
        Target(model.ConvBackbone, "embed", "model.embed"),
        Target(model, "train_base", "model.train_base", _epochs),
        Target(model, "predict_batch", "model.predict_batch"),
        Target(model, "prototype_of", "model.prototype_of"),
        Target(anchors, "project_features", "anchors.project_features"),
        Target(anchors, "select_anchors", "anchors.select_anchors"),
        Target(inversion, "invert_set", "inversion.invert_set", _inversion_work),
        Target(adaptation, "finetune_session", "adaptation.finetune_session", _finetune_work),
        Target(adaptation, "composite_loss", "adaptation.composite_loss"),
        Target(adaptation, "run_fscil", _fscil_label),
        Target(adaptation, "base_anchor_memory", "adaptation.base_anchor_memory",
               _memory_count),
        Target(evaluation, "run_trials", "evaluation.run_trials"),
        Target(data, "synth_arrays", "data.synth_arrays"),
        Target(serialization, "save_checkpoint", "serialization.save_checkpoint",
               _checkpoint_bytes),
        Target(serialization, "load_checkpoint", "serialization.load_checkpoint"),
    ]
    return out


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def machine_facts() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "loadavg_1m_start": _loadavg(),
    }


# ---------------------------------------------------------------------------
# statistics


def reference_s(repeats: int = 1) -> float:
    """Median wall time of a fixed kernel over ``repeats`` runs: an
    interpreter loop and four BLAS matrix products, the two kinds of work
    the workloads are bound by."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        for _ in range(4):
            _REF_MATRIX @ _REF_MATRIX
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def adjusted(wall: float, before: float, after: float) -> float:
    """``wall`` in seconds at the reference host speed, from the kernel
    times just before and just after it."""
    return wall * 2.0 * REF_NOMINAL_S / (before + after)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten ops
    beyond it; with ten ops or fewer, the slowest op (percentile 100)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


# ---------------------------------------------------------------------------
# the run


class Run:
    def __init__(self, workload_name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, scratch: Path):
        self.workload = WORKLOADS[workload_name](seed, sizes, scratch)
        self.seconds, self.trace = seconds, trace
        self.tracer = Tracer(targets(), autodiff, "_node") if trace else None
        self.capture = Capture(inversion, "invert_set")
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.traced_ops: list[int] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @contextmanager
    def spans(self, on: bool, label: str, scope: int):
        """Trace the body as one root span when ``on``; the wrappers are
        installed only for its duration, so untraced code runs unwrapped."""
        if not on:
            yield
            return
        self.tracer.install()
        try:
            with self.tracer.root(label, scope):
                yield
        finally:
            self.tracer.uninstall()

    # one op, with its output checks ------------------------------------------

    def execute(self, index: int, traced: bool):
        """Run op ``index``; returns (seconds, OpResult) or (None, None)."""
        self.attempted += 1
        self.capture.take()
        try:
            with self.spans(traced, "op", index):
                start = time.perf_counter()
                result = self.workload.op(index)
                elapsed = time.perf_counter() - start
            result.replays = self.capture.take()
            if index < self.workload.quality_ops:
                self.workload.check(index, result)
                result.replays += self.capture.take()
            problem = self.output_problem(result)
        except Exception:  # noqa: BLE001 - every failure of an op is counted
            problem = traceback.format_exc(limit=4)
            result = None
        if problem:
            self.failed += 1
            self.fail(f"op {index}: {problem}")
            return None, None
        return elapsed, result

    @staticmethod
    def output_problem(result: OpResult) -> str:
        for f1 in [result.f1_all, result.f1_base] + list(result.f1_other):
            if not (math.isfinite(f1) and 0.0 <= f1 <= 100.0):
                return f"macro-F1 {f1!r} outside [0, 100]"
        for replay in result.replays:
            if not np.all(np.isfinite(replay.feature_mae)):
                return "non-finite replay feature MAE"
        return ""

    def run(self) -> dict:
        facts = machine_facts()
        self.capture.install()
        try:
            return self._run(facts)
        finally:
            self.capture.uninstall()

    def _run(self, facts: dict) -> dict:
        reference_s(5)  # warm-up: the kernel's first calls pay one-off costs
        setup_times, setup_refs, digests = [], [], []
        while len(setup_times) < SETUPS_MIN or (
                sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUPS_MAX):
            setup_refs.append(reference_s(3))
            with self.spans(self.trace, "setup", -(len(setup_times) + 1)):
                start = time.perf_counter()
                digests.append(self.workload.setup())
                setup_times.append(time.perf_counter() - start)
        setup_refs.append(reference_s(3))
        if len(set(digests)) != 1:
            self.fail("repeated set-ups produced different base states")
        self.capture.take()

        # op 0 twice: an untimed warm-up, then the timed op compared with it
        _, twin = self.execute(0, traced=False)
        times: dict[int, float] = {}
        refs: dict[int, float] = {}
        quality: dict[int, OpResult] = {}
        maes: list[np.ndarray] = []  # every op's, for inversion.mae_ok_ratio
        index = 0
        start = time.perf_counter()
        while index < self.workload.quality_ops or time.perf_counter() - start < self.seconds:
            traced = self.trace and index % 2 == 0
            refs[index] = reference_s()
            elapsed, result = self.execute(index, traced)
            if traced:
                self.traced_ops.append(index)
            if result is not None:
                times[index] = elapsed
                maes += [r.feature_mae for r in result.replays]
                if index < self.workload.quality_ops:
                    quality[index] = result
                if index == 0 and twin is not None and twin.digest() != result.digest():
                    self.failed += 1
                    self.fail("op 0 rerun differs from its first run: scores or replay "
                              "samples are not deterministic")
            # only the quality ops' outputs are kept, so memory does not grow
            # with the number of ops a run completes
            result = twin = None
            index += 1
        refs[index] = reference_s()
        facts["loadavg_1m_end"] = _loadavg()

        if len(quality) < self.workload.quality_ops:
            self.fail("a quality op failed")
        quality_maes = np.concatenate([r.feature_mae for q in quality.values()
                                       for r in q.replays] or [np.zeros(0)])
        if quality_maes.size == 0 and quality:
            self.fail("the quality ops inverted no anchors")
        op_times = list(times.values())
        if not op_times:
            self.fail("no op succeeded")
        op_adjusted = [adjusted(t, refs[i], refs[i + 1]) for i, t in times.items()]
        tail_value, tail_pct = tail(op_adjusted) if op_times else (0.0, 100.0)
        wall = {
            "setup_wall_s": (_median(setup_times), "s"),
            "op_wall_s.p50": (_median(op_times), "s"),
            "op_wall_s.tail": (tail(op_times)[0] if op_times else 0.0, "s"),
            "ref_s.p50": (_median(list(refs.values()) + setup_refs), "s"),
        }
        all_maes = np.concatenate(maes or [np.zeros(0)])
        per_layer = self.layer_metrics(times, all_maes) if self.trace else None
        summary = {
            "workload": self.workload.name,
            "seed": self.workload.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "ops": len(op_times),
            "op_s.tail_percentile": tail_pct,
            "error_rate": self.failed / self.attempted if self.attempted else 0.0,
            "setup_s.runs": setup_times,
            "setup_ref_s.runs": setup_refs,
            "op_s.runs": op_times,
            "op_ref_s.runs": list(refs.values()),
            "wall": wall,
            "quality_ops": self.workload.quality_ops,
            "machine": facts,
            "failures": self.failures,
        }
        q = list(quality.values())
        end_to_end = {
            "setup_s": (_median(map(adjusted, setup_times, setup_refs, setup_refs[1:])),
                        "s"),
            "op_s.p50": (_median(op_adjusted), "s"),
            "op_s.tail": (tail_value, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "f1_all": (_mean([r.f1_all for r in q]), "%"),
            "f1_base": (_mean([r.f1_base for r in q]), "%"),
            "replay_mae": (float(np.median(quality_maes)) if quality_maes.size else 0.0,
                           "feature"),
        }
        return {"summary": summary, "end_to_end": end_to_end, "per_layer": per_layer}

    # per-layer metrics from the spans ----------------------------------------------

    def layer_metrics(self, times: dict[int, float], maes: np.ndarray) -> dict:
        tracer = self.tracer
        tables = tracer.tables()
        ops = [i for i in self.traced_ops if i in times]
        setups = [s for s in tables if s < 0]
        for i in ops:
            table = tables.get(i, {})
            missing = [name for name in self.workload.required if name not in table]
            if missing:
                self.failed += 1
                self.fail(f"traced op {i}: no span for {missing}")
            self_sum = sum(row["self_s"] for row in table.values())
            wall = table.get("op", {}).get("incl_s", 0.0)
            if self_sum > wall * (1 + 1e-9):
                self.fail(f"traced op {i}: self times {self_sum} exceed op wall {wall}")

        def per_scope(fn):
            """Median over the traced ops of fn(scope); for a layer that only
            runs during set-up on this workload, the median over set-ups."""
            values = [fn(tables.get(i, {}), tracer.counters.get(i, {})) for i in ops]
            if any(v is not None for v in values):
                return _median(0.0 if v is None else v for v in values)
            values = [fn(tables.get(s, {}), tracer.counters.get(s, {})) for s in setups]
            return _median(v for v in values if v is not None)

        def ms(label, kind="incl_s"):
            return per_scope(lambda t, c: t[label][kind] * 1e3 if label in t else None)

        def calls(label):
            return per_scope(lambda t, c: t[label]["calls"] if label in t else None)

        def counter(key):
            return per_scope(lambda t, c: c.get(key))

        def ratio(label, key):
            """Inclusive milliseconds of ``label`` per unit of counter ``key``."""
            def fn(t, c):
                if label not in t or not c.get(key):
                    return None
                return t[label]["incl_s"] * 1e3 / c[key]
            return per_scope(fn)

        def elementwise(t, c):
            found = [t["autodiff." + n]["self_s"] for n in ELEMENTWISE if "autodiff." + n in t]
            return sum(found) * 1e3 if found else None

        def sample_iters_per_s(t, c):
            if "inversion.invert_set" not in t:
                return None
            return c.get("inversion.sample_iters", 0) / t["inversion.invert_set"]["incl_s"]

        def checkpoint_ms(t, c):
            found = [t[k]["incl_s"] for k in ("serialization.save_checkpoint",
                                               "serialization.load_checkpoint") if k in t]
            return sum(found) * 1e3 if found else None

        traced_p50 = _median(times[i] for i in ops)
        plain_p50 = _median(t for i, t in times.items() if i not in set(ops))

        metrics = {
            "autodiff.conv2d.ms": (ms("autodiff.conv2d", "self_s"), "ms"),
            "autodiff.conv2d.calls": (calls("autodiff.conv2d"), "count"),
            "autodiff.conv2d.gflop": (counter("autodiff.conv2d.gflop"), "GFLOP"),
            "autodiff.backward.ms": (ms("autodiff.backward", "self_s"), "ms"),
            "autodiff.backward.calls": (calls("autodiff.backward"), "count"),
            "autodiff.avg_pool2d.ms": (ms("autodiff.avg_pool2d", "self_s"), "ms"),
            "autodiff.cosine_similarity_matrix.ms":
                (ms("autodiff.cosine_similarity_matrix", "self_s"), "ms"),
            "autodiff.softmax_with_temperature.ms":
                (ms("autodiff.softmax_with_temperature", "self_s"), "ms"),
            "autodiff.primitive.calls": (counter("autodiff.primitive.calls"), "count"),
            "autodiff.elementwise.ms": (per_scope(elementwise), "ms"),
            "autodiff.stack_rows.calls": (calls("autodiff.stack_rows"), "count"),
            "optim.adam_step.ms": (ms("optim.adam_step", "self_s"), "ms"),
            "optim.adam_step.calls": (calls("optim.adam_step"), "count"),
            "model.embed.ms": (ms("model.embed"), "ms"),
            "model.train_base.epoch_ms": (ratio("model.train_base",
                                                "model.train_base.epochs"), "ms"),
            "model.predict_batch.ms": (ms("model.predict_batch"), "ms"),
            "model.prototype_of.ms": (ms("model.prototype_of"), "ms"),
            "anchors.project_features.ms": (ms("anchors.project_features"), "ms"),
            "anchors.select_anchors.ms": (ms("anchors.select_anchors"), "ms"),
            "anchors.memory.count": (counter("anchors.memory.count"), "count"),
            "inversion.invert_set.ms": (ms("inversion.invert_set"), "ms"),
            "inversion.invert_set.self_ms": (ms("inversion.invert_set", "self_s"), "ms"),
            "inversion.iter_ms": (ratio("inversion.invert_set", "inversion.iters"), "ms"),
            "inversion.sample_iters_per_s": (per_scope(sample_iters_per_s), "1/s"),
            "inversion.mae_ok_ratio": (float(np.mean(maes <= MAE_OK)) if maes.size else 0.0,
                                       "ratio"),
            "adaptation.finetune_session.ms": (ms("adaptation.finetune_session"), "ms"),
            "adaptation.finetune_session.self_ms":
                (ms("adaptation.finetune_session", "self_s"), "ms"),
            "adaptation.finetune_iter_ms": (ratio("adaptation.finetune_session",
                                                  "adaptation.finetune_iters"), "ms"),
            "adaptation.composite_loss.ms": (ms("adaptation.composite_loss"), "ms"),
            "data.synth_arrays.ms": (ms("data.synth_arrays"), "ms"),
            "serialization.checkpoint.ms": (per_scope(checkpoint_ms), "ms"),
            "serialization.checkpoint.bytes": (counter("serialization.checkpoint.bytes"),
                                               "bytes"),
            "tracing.overhead_ratio": (traced_p50 / plain_p50 if plain_p50 else 0.0, "ratio"),
        }
        for method in ("anchorinv", "finetune", "protonet", "realreplay"):
            label = "adaptation.run_fscil." + method
            metrics[label + ".ms"] = (ms(label), "ms")
        return metrics


def result_line(run: dict, attempted: int, failed: int, correct: bool, trace: bool) -> str:
    chosen = run["per_layer"] if trace else run["end_to_end"]
    metrics = {name: {"value": float(value), "unit": unit}
               for name, (value, unit) in chosen.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
         out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Run(workload, seed, seconds, trace, sizes, out_dir)
    result = bench.run()
    correct = not bench.failures and bench.failed == 0
    summary = result["summary"]
    # a traced run's end-to-end figures include the tracing, so it prints
    # only its per-layer ones
    for name, (value, unit) in (result["per_layer"] or result["end_to_end"]).items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in (() if trace else summary["wall"].items()):
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {summary['error_rate']:.6g} ({bench.failed} of {bench.attempted} ops)")
    print(f"op_s.tail is p{summary['op_s.tail_percentile']:.1f} of {summary['ops']} ops")
    for failure in bench.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    record = {"summary": summary, "correct": correct,
              "end_to_end": result["end_to_end"], "per_layer": result["per_layer"]}
    record_path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"machine": summary["machine"], "record": str(record_path)}))
    print(result_line(result, bench.attempted, bench.failed, correct, trace))
    return 0 if correct else 1
