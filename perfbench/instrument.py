"""Spans recorded from outside the s3moe package.

The benchmark never edits the program. It replaces public functions and
methods of the s3moe modules with wrappers that record one span per call,
and puts the originals back when the measurement ends. Spans live in
memory and are written out once, when the run ends.

Two sets of wrappers exist:

* TIMING: CLI stage commands, the two training loops, optimizer steps,
  `sparsify_sweep`, `embed_dataset` and `S3Model.encode_pair`. Every run
  installs them; the end-to-end metrics (step times, throughputs) are
  computed from these timestamps.
* LAYERS: one wrapper per layer boundary listed in the README, plus a
  counter of `diffcore.Tensor` constructions (autodiff nodes). Only the
  traced run installs them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float = 0.0
    end: float = 0.0
    nodes0: int = 0  # Tensors constructed before the span started
    nodes1: int = 0  # ... and when it ended (equal to nodes0 unless counting)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self.tensors = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name: str, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(rec.spans), name, rec._stack[-1] if rec._stack else None, rec.run_id)
            rec.spans.append(span)
            rec._stack.append(span.id)
            span.nodes0 = rec.tensors
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.nodes1 = rec.tensors
                rec._stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], after))

    def count_tensors(self, tensor_cls) -> None:
        rec = self
        init = tensor_cls.__dict__["__init__"]

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            rec.tensors += 1
            init(obj, *args, **kwargs)

        self._patch(tensor_cls, "__init__", counting_init)

    @property
    def patches(self) -> int:
        return len(self._undo)

    def restore(self, keep: int = 0) -> None:
        """Undo the patches made after the first `keep`, newest first."""
        while len(self._undo) > keep:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------
    def named(self, name: str, runs: set[str]) -> list[Span]:
        """Spans called `name` recorded under one of the run ids in `runs`."""
        return [s for s in self.spans if s.name == name and s.run_id in runs]

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def write_jsonl(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                row = {"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                       "run_id": s.run_id}
                if s.nodes1 != s.nodes0:
                    row["nodes"] = s.nodes1 - s.nodes0
                if s.attrs:
                    row["attrs"] = s.attrs
                f.write(json.dumps(row) + "\n")


CLI_STAGES = ("gen_data", "pretrain", "select", "sparsify", "probe")


def install_timing(rec: Recorder, cli, pipeline) -> None:
    for stage in CLI_STAGES:
        rec.span(cli, f"cmd_{stage}", f"cli.cmd_{stage}")
    rec.span(pipeline, "train_specialization", "pipeline.train_specialization")
    rec.span(pipeline, "train_selection", "pipeline.train_selection")
    rec.span(pipeline.MomentumSGD, "step", "pipeline.optimizer_step")
    rec.span(pipeline, "sparsify_sweep", "pipeline.sparsify_sweep")
    embed_signature = inspect.signature(pipeline.embed_dataset)

    def embed_attrs(span, args, kwargs, result):
        bound = embed_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        span.attrs.update(batches=-(-len(a["x1"]) // a["batch_size"]), p=a["p"])

    rec.span(pipeline, "embed_dataset", "pipeline.embed_dataset", after=embed_attrs)
    pair_signature = inspect.signature(pipeline.S3Model.encode_pair)

    def pair_attrs(span, args, kwargs, result):
        a = pair_signature.bind(*args, **kwargs).arguments
        span.attrs.update(samples=len(a["x1"]), masked=a.get("masks") is not None)

    rec.span(pipeline.S3Model, "encode_pair", "pipeline.encode_pair", after=pair_attrs)


def install_layers(rec: Recorder, modules) -> None:
    """Wrap every layer boundary; `modules` maps s3moe module names to modules."""
    dc, enc, moe = modules["diffcore"], modules["encoder"], modules["moe"]
    pl, ls, an, sd = modules["pipeline"], modules["losses"], modules["analysis"], modules["synthdata"]

    rec.count_tensors(dc.Tensor)
    rec.span(dc.Tensor, "backward", "diffcore.backward")
    rec.span(enc.ModalityEncoder, "encode", "encoder.encode")
    rec.span(moe.MoELayer, "route_tokens", "moe.route_tokens")

    def combine_attrs(span, args, kwargs, result):
        routing = args[2] if len(args) > 2 else kwargs["routing"]
        mask = args[3] if len(args) > 3 else kwargs.get("slot_mask")
        experts = routing.selected.reshape(-1)
        if mask is not None:
            experts = experts[mask.reshape(-1)]
            span.attrs.update(kept=int(mask.sum()), routed=int(mask.size))
        span.attrs["experts_hit"] = int(np.unique(experts).size)

    rec.span(moe.MoELayer, "combine", "moe.combine", after=combine_attrs)

    def checkpoint_attrs(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    rec.span(moe, "save_params", "moe.save_params", after=checkpoint_attrs)
    rec.span(moe, "load_params", "moe.load_params")
    rec.span(ls, "l_special", "losses.l_special")
    rec.span(ls, "l_select", "losses.l_select")
    rec.span(pl, "build_prune_mask", "pipeline.build_prune_mask")
    rec.span(pl.PruneMask, "slot_masks", "pipeline.slot_masks")
    rec.span(pl, "linear_probe", "pipeline.linear_probe")
    rec.span(an, "entropy_monitor", "analysis.entropy_monitor")
    for fn in ("generate_dataset", "write_dataset", "read_dataset"):
        rec.span(sd, fn, f"synthdata.{fn}")


# Span names whose calls and busy time are reported per layer; the ones in
# PARENT_SPANS also report self time (busy time not covered by child spans).
LAYER_SPANS = (
    "diffcore.backward",
    "encoder.encode",
    "moe.route_tokens", "moe.combine", "moe.save_params", "moe.load_params",
    "losses.l_special", "losses.l_select",
    "pipeline.train_specialization", "pipeline.train_selection", "pipeline.optimizer_step",
    "pipeline.embed_dataset", "pipeline.build_prune_mask", "pipeline.slot_masks", "pipeline.linear_probe",
    "analysis.entropy_monitor",
    "synthdata.generate_dataset", "synthdata.write_dataset", "synthdata.read_dataset",
) + tuple(f"cli.cmd_{s}" for s in CLI_STAGES)

PARENT_SPANS = (
    "encoder.encode", "pipeline.train_specialization", "pipeline.train_selection",
    "pipeline.embed_dataset",
) + tuple(f"cli.cmd_{s}" for s in CLI_STAGES)
