"""s3moe benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-moe --seed 1 --seconds 60 --trace 0

The program is imported from the src/ directory next to perfbench/, so
the working directory does not matter. With --trace 0 the last stdout
line carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of one traced setup and repetition, and the tracing
overhead. Exit code
0 when every stage call and output check passed, 1 when one failed, 2
when the checkout holds no program to measure. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

# One client thread: BLAS runs single-threaded. On a shared 2-vCPU machine a
# two-thread matrix product waits for whichever vCPU the host slows, which
# made encode times and step tails jump by 50% between runs.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import instrument  # noqa: E402  (numpy reads the thread count on import)
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["train-moe", "train-dense"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny data, for the self-test only")
    return parser.parse_args(argv)


def quality(client, run_dir: Path, probe: dict) -> dict:
    from workloads import read_final

    return {
        "pretrain_loss_final": read_final(run_dir, "specialization"),
        "select_loss_final": read_final(run_dir, "selection"),
        "probe_acc": probe["accuracy_mean"],
        "peak_rss_mb": metrics.peak_rss_mb(),
        "ops_ok_frac": 1.0 - client.failed / client.attempted,
    }


def timed_stage(client, rec, stage: str, out: Path, run_id: str) -> tuple[dict, float]:
    """One stage call under `run_id`: its JSON output and its wall time."""
    rec.run_id = run_id
    t0 = time.perf_counter()
    result = client.stage(stage, out)
    return result, time.perf_counter() - t0


def measure(args, client, rec) -> tuple[dict, dict]:
    """Untraced run: rounds until --seconds are used up, and at least MIN_ROUNDS.

    Rounds spread every metric's samples over the whole run. No round starts
    that would end after --seconds, judged by the length of the round
    before it.
    """
    from workloads import MIN_ROUNDS, SETUP, SETUPS_PER_ROUND, TIMED

    setup_times = []
    deadline = time.perf_counter() + args.seconds
    rounds, round_s = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s <= deadline:
        t0, i = time.perf_counter(), rounds
        for j in range(SETUPS_PER_ROUND):
            run_dir = client.work / f"rep{i}-{j}"
            setup_times.append(timed_stage(client, rec, SETUP, run_dir, f"setup{i}")[1])
        probe = {stage: timed_stage(client, rec, stage, run_dir, f"rep{i}")[0] for stage in TIMED}["probe"]
        client.check_outputs(Path(probe["run_dir"]), probe)
        if i == 0:
            first = (Path(probe["run_dir"]), probe)
        rounds, round_s = rounds + 1, time.perf_counter() - t0
    runs = {f"setup{i}" for i in range(rounds)} | {f"rep{i}" for i in range(rounds)}
    values, samples = metrics.timings(rec, runs, setup_times, client.config, MIN_ROUNDS / rounds)
    values.update(quality(client, *first))
    return {k: (v, metrics.E2E_UNITS[k]) for k, v in values.items()}, {"rounds": rounds, "samples": samples}


def trace(client, rec, modules) -> tuple[dict, dict]:
    """Traced run: every stage of one setup and one repetition, once untraced and once traced.

    The two calls of a stage run back to back, in alternating order, each in
    its own run directory, so machine drift cancels from the overhead.
    Per-layer metrics come from the traced calls; the overhead is the
    traced minus the untraced end-to-end numbers.
    """
    from workloads import SETUP, TIMED

    outputs, walls = {"plain": {}, "traced": {}}, {"plain": {}, "traced": {}}
    for k, stage in enumerate((SETUP,) + TIMED):
        for kind in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
            keep = rec.patches
            if kind == "traced":
                instrument.install_layers(rec, modules)
            try:
                outputs[kind][stage], walls[kind][stage] = timed_stage(client, rec, stage, client.work / kind, kind)
            finally:
                rec.restore(keep)
    units = {}
    for kind in ("plain", "traced"):
        probe = outputs[kind]["probe"]
        client.check_outputs(Path(probe["run_dir"]), probe)
        units[kind] = metrics.timings(rec, {kind}, [walls[kind][SETUP]], client.config, 1.0)[0]
    layers = metrics.per_layer(rec, {"traced"})
    layers.update(metrics.overhead(units["plain"], units["traced"], sum(walls["plain"].values()),
                                   sum(walls["traced"].values())))
    return layers, {"stage_wall_s": walls}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "s3moe" / "__init__.py").is_file():
        print(f"perfbench: no s3moe package under {ROOT / 'src'}; run inside a source checkout", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from s3moe import analysis, cli, diffcore, encoder, losses, moe, pipeline, synthdata
    from workloads import WORKLOADS, Client, StageFailed

    modules = {"analysis": analysis, "diffcore": diffcore, "encoder": encoder, "losses": losses,
               "moe": moe, "pipeline": pipeline, "synthdata": synthdata}
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}-{os.getpid()}"
    client = Client(WORKLOADS[args.workload], args.seed, OUT / "work" / tag, tiny=args.tiny)
    rec = instrument.Recorder()
    instrument.install_timing(rec, cli, pipeline)
    values, info = {}, {}
    try:
        values, info = trace(client, rec, modules) if args.trace else measure(args, client, rec)
    except StageFailed:
        pass  # counted in client.failures; no metrics for an incomplete run
    finally:
        rec.restore()
        shutil.rmtree(client.work, ignore_errors=True)
    rec.write_jsonl(OUT / "traces" / f"{tag}.jsonl")

    env = metrics.environment(ROOT, args.seed)
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w") as f:
        json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": env,
                   "failures": client.failures, **info, **result}, f, indent=2)

    for name, (v, u) in values.items():
        print(f"{name:48s} {v:>16.6g} {u}")
    for failure in client.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"info": info, "env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
