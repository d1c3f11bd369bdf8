"""Fast self-test of the benchmark: metric names, units and output schema.

    python3 perfbench/selftest.py

Runs every workload on tiny data, untraced and traced, and checks that the
last stdout line has exactly the result keys and exactly the metrics that
BENCHMARK.json declares, with their units. It also checks that a wrong
program output makes the run exit 1, and that a directory without the
program makes it exit 2 without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def invoke(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_schema(result: dict, declared: list[dict], workload: str, trace: int) -> None:
    where = f"{workload} --trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"]), f"{where}: {name}"
        if not trace:
            assert m["value"] != 0, f"{where}: end-to-end metric {name} reads 0"


def check_failing_output_exits_1() -> None:
    from s3moe import cli

    original = cli.cmd_probe

    def wrong_probe(*args, **kwargs):
        out = original(*args, **kwargs)
        return {**out, "accuracy_mean": out["accuracy_mean"] - 0.5}

    cli.cmd_probe = wrong_probe
    try:
        code, result = invoke("train-dense", 0)
    finally:
        cli.cmd_probe = original
    assert code == 1 and result["correct"] is False and result["failed"] >= 1, result


def check_empty_checkout_exits_2() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "train-moe", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == 2 and proc.stdout == "", (proc.returncode, proc.stdout)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result = invoke(w["name"], trace)
            assert code == 0, (w["name"], trace, code)
            check_schema(result, declared, w["name"], trace)
            print(f"ok  {w['name']} --trace {trace}: {len(result['metrics'])} metrics")
    check_failing_output_exits_1()
    print("ok  a wrong probe accuracy fails the output check and exits 1")
    check_empty_checkout_exits_2()
    print("ok  a directory without the program exits 2 with no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
