"""Benchmark workloads and the user path they drive.

Every stage runs as `s3moe.cli.main([...])` in this process, exactly as
`s3moe --config run.json --seed N <stage>` would run it: the program
receives only the RunConfig file, the seed and the data `gen-data` makes
from them. Loads are closed loop: one client, no threads, each stage
waits for the one before it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from s3moe import cli


# Both workloads run the same stages and differ only in model geometry.
# A setup is one `gen-data` in a fresh run directory (setup_s); a round runs
# SETUPS_PER_ROUND of them, then the timed stages in the last one. Each
# repetition trains, then runs a two-point sweep and a probe, so that sweep,
# encode and accuracy numbers exist for the workload's geometry; training
# takes about 80% of a repetition.
SETUP = "gen-data"
SETUPS_PER_ROUND = 4
TIMED = ("pretrain", "select", "sparsify", "probe")
SWEEP = {"sweep": {"p_grid": [1.0, 0.5]}}
WORKLOADS = {  # RunConfig overrides, written to the run's config file
    "train-moe": SWEEP,
    "train-dense": {"model": {"chi": 1, "rho": 1, "top_k": 1}, **SWEEP},
}

# A run does at least this many rounds, and tail percentiles are chosen for
# the sample count of this many rounds, so they do not change with speed.
MIN_ROUNDS = 3

# Small data and one epoch, for the benchmark's self-test only.
TINY = {
    "data": {"n_train": 32, "n_test": 16},
    "specialization": {"epochs": 1, "batch_size": 16},
    "selection": {"epochs": 1, "batch_size": 16},
    "sweep": {"n_seeds": 1, "batch_size": 16},
}


class StageFailed(RuntimeError):
    pass


@dataclass
class Client:
    """One closed-loop client: runs stages, checks outputs, counts operations."""

    overrides: dict
    seed: int
    work: Path
    tiny: bool = False
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    reference: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        overrides = cli.merge_config(self.overrides, TINY) if self.tiny else self.overrides
        config_path = self.work / "run.json"
        config_path.write_text(json.dumps(overrides, indent=2, sort_keys=True))
        self.argv = ["--config", str(config_path), "--seed", str(self.seed)]
        args = cli.build_parser().parse_args(self.argv + ["gen-data"])
        self.config = cli.apply_flags(cli.load_run_config(str(config_path)), args)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def stage(self, stage: str, out: Path) -> dict:
        """One CLI stage call; a non-zero exit is a failed operation."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(self.argv + ["--out", str(out), stage])
        self.attempted += 1
        if code != 0:
            self.failures.append(f"{stage} exited {code}: {stderr.getvalue().strip()}")
            raise StageFailed(self.failures[-1])
        return json.loads(stdout.getvalue().strip().splitlines()[-1])

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"output check failed: {what}")

    def check_outputs(self, run_dir: Path, probe: dict) -> None:
        """Output checks for one run directory after its repetition."""
        for log in sorted((run_dir / "logs").glob("*.csv")):
            with open(log) as f:
                rows = list(csv.DictReader(f))
            values = [v for row in rows for k, v in row.items() if k not in ("step", "epoch")]
            self.check(bool(rows) and all(math.isfinite(float(v)) for v in values),
                       f"every loss in {log.name} is finite")
        with open(run_dir / "logs" / "sweep.json") as f:
            sweep = sorted(json.load(f), key=lambda r: -r["p"])
        self.check(sweep[0]["p"] == 1.0 and sweep[0]["accuracy_mean"] == probe["accuracy_mean"],
                   "sweep accuracy at p=1 equals the probe accuracy")
        pct = [r["active_param_pct"] for r in sweep]
        self.check(abs(pct[0] - 100.0) <= 1e-9, "active_param_pct is 100 at p=1")
        self.check(all(a >= b for a, b in zip(pct, pct[1:])), "active_param_pct never rises as p falls")
        for path in sorted((run_dir / "logs").glob("*.csv")) + sorted((run_dir / "reports").glob("*.csv")):
            key = f"{path.parent.name}/{path.name}"
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            self.check(self.reference.setdefault(key, digest) == digest,
                       f"{key} is byte-identical across repeats of seed {self.seed}")


def read_final(run_dir: Path, log: str) -> float:
    """Last logged total loss of a training stage."""
    with open(run_dir / "logs" / f"{log}.csv") as f:
        return float(list(csv.DictReader(f))[-1]["total"])
