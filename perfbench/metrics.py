"""End-to-end and per-layer metrics computed from recorded spans."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy
import scipy

from instrument import LAYER_SPANS, PARENT_SPANS, Recorder, Span

# Highest first; the tail is the first one with at least 10 samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

E2E_UNITS = {
    "setup_s": "s",
    "pretrain_samples_per_s": "samples/s",
    "pretrain_step_ms_p50": "ms",
    "pretrain_step_ms_tail": "ms",
    "select_samples_per_s": "samples/s",
    "select_step_ms_p50": "ms",
    "select_step_ms_tail": "ms",
    "encode_samples_per_s": "samples/s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
    "pretrain_loss_final": "loss",
    "select_loss_final": "loss",
    "probe_acc": "frac",
}
OVERHEAD_OF = ("pretrain_step_ms_p50", "select_step_ms_p50", "encode_samples_per_s", "sweep_s")


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail(values: list[float], share: float) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with >= 10 samples beyond it.

    The percentile is chosen for `share` of the samples, so that a run with
    more rounds still reports the same percentile as one with fewer. Below
    20 samples no percentile qualifies and the median stands in.
    """
    n = int(len(values) * share)
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q, nearest_rank(values, q)
    return 50.0, nearest_rank(values, 50.0)


def step_intervals(rec: Recorder, loop: str, runs: set[str], field: str = "time") -> list[float]:
    """Per-step costs inside each training loop span.

    A step runs from the previous `MomentumSGD.step` return (or the loop's
    start) to its own return. With field="time" the cost is in ms, with
    field="nodes" it is the number of Tensors constructed.
    """
    kids = rec.children()
    out = []
    for span in rec.named(loop, runs):
        steps = sorted((c for c in kids.get(span.id, ()) if c.name == "pipeline.optimizer_step"),
                       key=lambda c: c.start)
        if field == "time":
            marks = [span.start] + [s.end for s in steps]
            out += [1000.0 * (b - a) for a, b in zip(marks, marks[1:])]
        else:
            marks = [span.nodes0] + [s.nodes1 for s in steps]
            out += [b - a for a, b in zip(marks, marks[1:])]
    return out


def stage_throughput(rec: Recorder, stage: str, runs: set[str], batch_size: int) -> float:
    """Samples per second of stage wall time, median over the run's calls of the stage."""
    kids = rec.children()
    return statistics.median(
        sum(1 for loop in kids.get(span.id, ()) if loop.name.startswith("pipeline.train_")
            for c in kids.get(loop.id, ()) if c.name == "pipeline.optimizer_step") * batch_size / span.duration
        for span in rec.named(f"cli.cmd_{stage}", runs))


def unpruned_encodes(rec: Recorder, runs: set[str]) -> list[Span]:
    """Unpruned `encode_pair` calls inside `embed_dataset`.

    They are the probe's embeddings and the unpruned forward that opens
    every batch of a sweep point, so each run has dozens.
    """
    embeds = {s.id for s in rec.named("pipeline.embed_dataset", runs)}
    return [s for s in rec.named("pipeline.encode_pair", runs) if s.parent in embeds and not s.attrs["masked"]]


def sweep_time(rec: Recorder, runs: set[str]) -> tuple[float, int]:
    """Wall time of one `sparsify` call, assembled from per-point medians.

    A sweep point runs from the first `embed_dataset` of its p to the first
    of the next p, or to the end of the sweep. The result is the sum over p
    of the point's median time across the run's sweeps, plus the median of
    the rest of `cmd_sparsify` (checkpoint and data load, reports). Also
    returns the number of point samples.
    """
    kids = rec.children()
    points: dict[float, list[float]] = {}
    rest = []
    for cmd in rec.named("cli.cmd_sparsify", runs):
        left = cmd.duration
        for sweep in (c for c in kids.get(cmd.id, ()) if c.name == "pipeline.sparsify_sweep"):
            starts: dict[float, float] = {}
            for e in sorted(kids.get(sweep.id, ()), key=lambda c: c.start):
                if e.name == "pipeline.embed_dataset":
                    starts.setdefault(e.attrs["p"], e.start)
            bounds = list(starts.values()) + [sweep.end]
            for p, a, b in zip(starts, bounds, bounds[1:]):
                points.setdefault(p, []).append(b - a)
                left -= b - a
        rest.append(left)
    n = sum(len(v) for v in points.values())
    return sum(statistics.median(v) for v in points.values()) + statistics.median(rest), n


def timings(rec: Recorder, runs: set[str], setup_times: list[float], config: dict,
            tail_share: float) -> tuple[dict, dict]:
    """Timing metrics plus the sample counts and tail percentiles behind them.

    Tail percentiles are chosen for `tail_share` of the step samples.
    """
    pre = step_intervals(rec, "pipeline.train_specialization", runs)
    sel = step_intervals(rec, "pipeline.train_selection", runs)
    pre_q, pre_tail = tail(pre, tail_share)
    sel_q, sel_tail = tail(sel, tail_share)
    sweep_s, points = sweep_time(rec, runs)
    encodes = unpruned_encodes(rec, runs)
    values = {
        "setup_s": statistics.median(setup_times),
        "pretrain_samples_per_s": stage_throughput(rec, "pretrain", runs, config["specialization"]["batch_size"]),
        "pretrain_step_ms_p50": statistics.median(pre),
        "pretrain_step_ms_tail": pre_tail,
        "select_samples_per_s": stage_throughput(rec, "select", runs, config["selection"]["batch_size"]),
        "select_step_ms_p50": statistics.median(sel),
        "select_step_ms_tail": sel_tail,
        "encode_samples_per_s": statistics.median(s.attrs["samples"] / s.duration for s in encodes),
        "sweep_s": sweep_s,
    }
    samples = {
        "setup_s": {"n": len(setup_times)},
        "pretrain_step_ms": {"n": len(pre), "tail_percentile": pre_q},
        "select_step_ms": {"n": len(sel), "tail_percentile": sel_q},
        "encode_batches": {"n": len(encodes)},
        "sweep_points": {"n": points, "sweeps": len(rec.named("cli.cmd_sparsify", runs))},
    }
    return values, samples


def per_layer(rec: Recorder, runs: set[str]) -> dict:
    """Per-layer counts and times, totalled over the spans of `runs`."""
    kids = rec.children()
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        spans = rec.named(name, runs)
        out[f"{name}.calls"] = (len(spans), "count")
        out[f"{name}.busy_s"] = (sum(s.duration for s in spans), "s")
        if name in PARENT_SPANS:
            covered = sum(c.duration for s in spans for c in kids.get(s.id, ()))
            out[f"{name}.self_s"] = (sum(s.duration for s in spans) - covered, "s")

    encodes = rec.named("encoder.encode", runs)
    combines = rec.named("moe.combine", runs)
    masked = [s for s in combines if "kept" in s.attrs]
    embeds = rec.named("pipeline.embed_dataset", runs)
    embed_ids = {s.id for s in embeds}
    pair_ids = {s.id for s in rec.named("pipeline.encode_pair", runs) if s.parent in embed_ids}
    in_embed = sum(1 for s in encodes if s.parent in pair_ids)
    out.update({
        "diffcore.nodes_per_step": (
            statistics.median_low(step_intervals(rec, "pipeline.train_specialization", runs, "nodes")), "count"),
        "diffcore.nodes_per_encode": (statistics.median_low(s.nodes1 - s.nodes0 for s in encodes), "count"),
        "moe.experts_hit_per_combine": (statistics.fmean(s.attrs["experts_hit"] for s in combines), "count"),
        "moe.pairs_kept_frac": (sum(s.attrs["kept"] for s in masked) / sum(s.attrs["routed"] for s in masked),
                                "frac"),
        "moe.checkpoint_bytes": (max(s.attrs["bytes"] for s in rec.named("moe.save_params", runs)), "B"),
        "pipeline.embed_dataset.encodes_per_batch": (in_embed / sum(s.attrs["batches"] for s in embeds), "count"),
    })
    return out


def overhead(plain: dict, traced: dict, plain_wall: float, traced_wall: float) -> dict:
    """Traced minus untraced end-to-end numbers, from the interleaved stage calls of a traced run."""
    out = {
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.overhead_frac": ((traced_wall - plain_wall) / plain_wall, "frac"),
    }
    for name in OVERHEAD_OF:
        out[f"trace.overhead.{name}"] = (traced[name] - plain[name], E2E_UNITS[name])
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without starting a process; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment(root: Path, seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(root),
        "seed": seed,
    }
