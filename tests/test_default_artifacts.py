"""Every artifact of the default run is pinned by its sha256.

The test runs the default RunConfig with `--seed 1` through every command,
gen-data to report, in a subprocess with one BLAS thread, and compares the
digest of each of the 13 files it writes with the table below.

The checkpoints and everything after them depend on the numpy build and the
BLAS kernels, so each table is keyed to the numpy version and the OpenBLAS
configuration string that `np.show_config(mode="dicts")` reports. On a build
with no table the test fails and names both builds; it never skips.

To re-pin after a change that moves outputs on purpose, run

    OPENBLAS_NUM_THREADS=1 python -m s3moe.cli --seed 1 --out OUT <command>

for each command in COMMANDS, in order, take the `sha256sum` of each file
under the run directory, and replace the table (or add one for a new
build). List the changed files and the reason in CHANGES.md. A digest that
moves when no output change was intended is a bug in the program, not in
the table.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = ("gen-data", "pretrain", "select", "sparsify", "probe", "verify", "report")
# every command in one interpreter, as `cli.main` runs them one after another
CHAIN = """
import sys
from s3moe import cli
for command in sys.argv[2:]:
    if cli.main(["--seed", "1", "--out", sys.argv[1], command]):
        sys.exit(f"{command} failed")
"""

PINNED = {
    ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64"): {
        "config.json": "4fd3d2db2b9a2db74c097a3a61ca4a798c4f73677e89e9c597dbc80f59cec6d6",
        "data/train.npz": "1444c3a447b99773e8f935db309af7075dc9addfff5a74f6abc41ab2e6bb2d55",
        "data/test.npz": "45680e91fd1f84fe753e2f66ad94631f2b0fa7905144c315732e0af8ff888cc7",
        "checkpoints/specialization.npz": "38ea35c2219ce5d4d56d6ed3644a8076b798bd4ecc4e65084206e60cb0818bd1",
        "checkpoints/selection.npz": "1240c9e6ff2967456971b630ccfc5477e97b6720b7cb6847b0faf8f49a544774",
        "logs/specialization.csv": "df9c884ff391f5769e5844960dadd826bfc04ef3ac9a3a88eaa73470622d3a88",
        "logs/selection.csv": "8c9001a5e52751626a1fe40dee70b5268332b99d437202988d5bd4d25e460fd2",
        "logs/sweep.json": "5473a0b7b77418aba620f3dbef77fed352c2debb4ed03fccd99b4a320f7205ff",
        "reports/params.csv": "e28a3f36176019361925b6273c858344a964a7fcc6dda24aa7776bd310469e4f",
        "reports/probe_selection.json": "501790dd7ca949e3235356c649c94455090d356b9a4bf34085c559f1d0a2b0e1",
        "reports/sweep.csv": "91fa316d668f609bbc2fea20263657efb27b551c0b8573b5e6d4d26c8882ddb1",
        "reports/sweep_table.csv": "c026b63bf8d2a520ca6d7f7713601048a7dbddcbef0b1d2cf1a4e556bdae492c",
        "reports/verify.json": "25cb6219a077fd5e4207cb4862921d4fb22ce7d9695f3ffd40c9e2db2e0a6c2b",
    },
}


def numpy_build() -> tuple[str, str | None]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, blas.get("openblas configuration")


def test_default_artifacts_are_pinned(tmp_path):
    build = numpy_build()
    assert build in PINNED, f"no digest table for numpy build {build}; the tables are for {sorted(PINNED)}"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", CHAIN, str(tmp_path), *COMMANDS], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (run,) = tmp_path.iterdir()
    written = {
        p.relative_to(run).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in run.rglob("*") if p.is_file()
    }
    pinned = PINNED[build]
    assert written.keys() == pinned.keys()
    moved = sorted(name for name, digest in pinned.items() if written[name] != digest)
    assert not moved, f"artifacts differ from the pinned digests: {moved}"
