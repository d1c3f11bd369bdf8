"""The benchmark in perfbench/ wraps s3moe functions by name and binds some of their arguments.

These tests install its wrappers on the real modules and put them back, so a
rename or re-sign of a wrapped function fails here rather than only in a
benchmark run. perfbench/instrument.py is imported from its file and never
changed. The benchmark's self-test also runs here, in a subprocess, so a
change that breaks its tiny config or metric schema fails the suite.
"""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from s3moe import analysis, cli, diffcore, encoder, losses, moe, pipeline, synthdata
from conftest import tiny_data, tiny_model

INSTRUMENT = Path(__file__).resolve().parent.parent / "perfbench" / "instrument.py"
SELFTEST = INSTRUMENT.parent / "selftest.py"
MODULES = {
    "analysis": analysis, "cli": cli, "diffcore": diffcore, "encoder": encoder, "losses": losses,
    "moe": moe, "pipeline": pipeline, "synthdata": synthdata,
}


@pytest.fixture(scope="module")
def instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_install_and_restore_every_wrapper(instrument):
    owners = (cli, pipeline, pipeline.S3Model, pipeline.MomentumSGD, pipeline.PruneMask, diffcore.Tensor,
              encoder.ModalityEncoder, moe, moe.MoELayer, losses, analysis, synthdata)
    before = [dict(vars(owner)) for owner in owners]
    train, step = pipeline.train_specialization, pipeline.MomentumSGD.step
    rec = instrument.Recorder()
    try:
        instrument.install_timing(rec, cli, pipeline)
        instrument.install_layers(rec, MODULES)
        assert pipeline.train_specialization is not train and pipeline.MomentumSGD.step is not step
    finally:
        rec.restore()
    assert rec.patches == 0
    for owner, attrs in zip(owners, before):
        assert dict(vars(owner)) == attrs, owner


@pytest.mark.parametrize("fn, names", [
    (pipeline.embed_dataset, ("x1", "batch_size", "p")),
    (pipeline.S3Model.encode_pair, ("x1", "masks")),
    (moe.MoELayer.combine, ("x", "routing", "slot_mask")),
], ids=["embed_dataset", "encode_pair", "combine"])
def test_bound_argument_names(fn, names):
    params = inspect.signature(fn).parameters
    assert set(names) <= set(params), f"{fn.__qualname__} lacks {set(names) - set(params)}"


def test_combine_positions_match_the_wrapper():
    # the combine wrapper reads routing and slot_mask as positional args 2 and 3 (after self, x)
    assert list(inspect.signature(moe.MoELayer.combine).parameters)[:4] == ["self", "x", "routing", "slot_mask"]


def test_sweep_spans_feed_the_sweep_metrics(instrument, monkeypatch):
    # sweep_s splits a sweep into points by the p of its embed_dataset spans, and
    # moe.pairs_kept_frac reads the slot mask of every masked combine
    model = tiny_model(seed=8)
    x1, x2, y, _ = tiny_data(n=40, seed=8)
    slot_masks = []
    combine = moe.MoELayer.combine

    def recording_combine(layer, x, routing, slot_mask=None):
        slot_masks.append((routing.selected.shape, slot_mask))
        return combine(layer, x, routing, slot_mask)

    monkeypatch.setattr(moe.MoELayer, "combine", recording_combine)
    rec = instrument.Recorder()
    grid = (1.0, 0.5, 0.2)
    try:
        instrument.install_timing(rec, cli, pipeline)
        instrument.install_layers(rec, MODULES)
        pipeline.sparsify_sweep(model, (x1[:24], x2[:24], y[:24]), (x1[24:], x2[24:], y[24:]), p_list=grid,
                                batch_size=8, n_seeds=1)
    finally:
        rec.restore()
    runs = {rec.run_id}
    embeds = rec.named("pipeline.embed_dataset", runs)
    assert sorted((s.attrs["p"], s.attrs["batches"]) for s in embeds) == sorted((p, n) for p in grid for n in (3, 2))
    pruned = {s.id for s in embeds if s.attrs["p"] < 1}
    pairs = [s for s in rec.named("pipeline.encode_pair", runs) if s.parent in pruned]
    # two pruned points, each one forward per batch of the 3 train and 2 test batches
    assert len(pairs) == 2 * 5 and all(s.attrs["masked"] for s in pairs)
    masked = [s for s in rec.named("moe.combine", runs) if "kept" in s.attrs]
    # each pruned forward masks 2 modalities x 2 layers; the p = 1 forwards are masked too
    assert len(masked) == sum(mask is not None for _, mask in slot_masks) >= 4 * len(pairs)
    for shape, mask in slot_masks:
        assert mask is None or (mask.dtype == bool and mask.shape == shape)


def test_benchmark_selftest_passes():
    # runs every workload on tiny data against this source tree and checks the metric schema
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], cwd=SELFTEST.parent.parent, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
