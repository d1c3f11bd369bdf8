"""Every artifact of the default run is pinned by its sha256.

The test runs the default RunConfig with `--seed 1` through every command,
gen-data to report, in a subprocess with one BLAS thread, and compares the
digest of each of the 13 files it writes with the table below.

The checkpoints and everything after them depend on the numpy build and the
BLAS kernels, so each table is keyed to the numpy version and the OpenBLAS
configuration string that `np.show_config(mode="dicts")` reports. On a build
with no table the test fails and names both builds; it never skips.

To re-pin after a change that moves outputs on purpose, copy the lines the
failure message prints, one `"file": "sha256",` line per moved file, over
the same files' lines in the table. For a new build, run

    OPENBLAS_NUM_THREADS=1 python -m s3moe.cli --seed 1 --out OUT <command>

for each command in COMMANDS, in order, take the `sha256sum` of each file
under the run directory, and add a table. List the changed files and the
reason in CHANGES.md. A digest that moves when no output change was
intended is a bug in the program, not in the table.
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
        "config.json": "f9e9c59e45d8941afc33909a6645b15cc8efad4e0e78c0fa994956ff33a045e1",
        "data/train.npz": "1444c3a447b99773e8f935db309af7075dc9addfff5a74f6abc41ab2e6bb2d55",
        "data/test.npz": "45680e91fd1f84fe753e2f66ad94631f2b0fa7905144c315732e0af8ff888cc7",
        "checkpoints/specialization.npz": "c29e072d8d53a11a7b3a2ec4eb733debed9a669135bf18aeb339e06771512944",
        "checkpoints/selection.npz": "47968f328b297ccdf93b55f1b3809ad449f05fb01d7482766ee8b0205ab0f71c",
        "logs/specialization.csv": "3ca040e84066b2f2f7d205cccfcadc2e311a0b9b2f8eea2b718106c062b9ad36",
        "logs/selection.csv": "18efe16e36bb15f97071779518b7c40496270e080bc39fe445e3717a1c44354f",
        "logs/sweep.json": "266c10473bd8487d58f551cccc7fcb857f99a1070f95edd4310991ed06cb3d19",
        "reports/params.csv": "e28a3f36176019361925b6273c858344a964a7fcc6dda24aa7776bd310469e4f",
        "reports/probe_selection.json": "d27ad297066ce378fc130ff74def9cd670010172c99b98695b21f77b8e892275",
        "reports/sweep.csv": "e08d2d6d5944822469aee61719b19ecca0680fea13e89849736066ea433103a0",
        "reports/sweep_table.csv": "85d4955b91873e68e84bd68f40ba1df81b68f99c45082b522d70d911d518c585",
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
    moved = "".join(f'        "{name}": "{written[name]}",\n' for name in pinned if written[name] != pinned[name])
    assert not moved, f"artifacts differ from the pinned digests; their new digests are\n{moved}"
