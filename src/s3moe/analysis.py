"""Information-theoretic oracles, diagnostics and report emission.

Exact entropy and mutual information over explicit discrete joint tables,
plug-in estimates over empirical counts, verification of the framework's
propositions (data processing inequality, cross-modal MI decomposition,
the contrastive-learning limitation), contrastive bound-gap checks,
routing entropy monitoring, and CSV report writers. All values in nats.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import losses as ls
from . import synthdata as sd
from .diffcore import Tensor
from .moe import LayerRouting


class DistributionError(ValueError):
    pass


@dataclass
class DiscreteJoint:
    """Explicit joint probability table; axis i is variable i."""

    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64)
        if np.any(self.table < 0):
            raise DistributionError("negative probability")
        if abs(self.table.sum() - 1.0) > 1e-9:
            raise DistributionError(f"probabilities sum to {self.table.sum()}, not 1")

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "DiscreteJoint":
        counts = np.asarray(counts, dtype=np.float64)
        if counts.sum() <= 0:
            raise DistributionError("empty count table")
        return cls(counts / counts.sum())

    @classmethod
    def from_samples(cls, *columns) -> "DiscreteJoint":
        """Plug-in joint from parallel columns of discrete observations."""
        idx = [np.unique(np.asarray(c), return_inverse=True)[1] for c in columns]
        shape = tuple(i.max() + 1 for i in idx)
        counts = np.zeros(shape)
        np.add.at(counts, tuple(idx), 1.0)
        return cls.from_counts(counts)

    def marginal(self, axes: tuple[int, ...]) -> np.ndarray:
        axes = tuple(axes)
        drop = tuple(i for i in range(self.table.ndim) if i not in axes)
        m = self.table.sum(axis=drop)
        order = np.argsort(np.argsort(axes))
        return m.transpose(order) if len(axes) > 1 else m


def entropy(dist: np.ndarray) -> float:
    """Shannon entropy in nats; 0 log 0 := 0."""
    p = np.asarray(dist, dtype=np.float64).reshape(-1)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise DistributionError("not a probability distribution")
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def mutual_information(joint: DiscreteJoint, vars_a: tuple[int, ...], vars_b: tuple[int, ...]) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B), exact over the table."""
    a, b = tuple(vars_a), tuple(vars_b)
    if set(a) & set(b):
        raise ValueError("variable groups must be disjoint")
    h_a = entropy(joint.marginal(a))
    h_b = entropy(joint.marginal(b))
    h_ab = entropy(joint.marginal(a + b))
    return max(h_a + h_b - h_ab, 0.0)


def conditional_mi(joint: DiscreteJoint, vars_a, vars_b, vars_c) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)."""
    a, b, c = tuple(vars_a), tuple(vars_b), tuple(vars_c)
    if (set(a) & set(b)) or (set(a) & set(c)) or (set(b) & set(c)):
        raise ValueError("variable groups must be disjoint")
    val = (
        entropy(joint.marginal(a + c))
        + entropy(joint.marginal(b + c))
        - entropy(joint.marginal(a + b + c))
        - entropy(joint.marginal(c))
    )
    return max(val, 0.0)


def verify_dpi(joint_yx: DiscreteJoint, channel: np.ndarray, atol: float = 1e-9) -> dict:
    """Data processing inequality on the chain Y - X - Z.

    `joint_yx` is p(y, x); `channel` is p(z|x) with one row per x symbol.
    The three-variable joint is built as p(y,x,z) = p(y,x) p(z|x), which
    enforces the Markov structure by construction.
    """
    channel = np.asarray(channel, dtype=np.float64)
    n_x = joint_yx.table.shape[1]
    if channel.ndim != 2 or channel.shape[0] != n_x:
        raise DistributionError("channel must have one row per x symbol")
    if np.any(channel < 0) or not np.allclose(channel.sum(axis=1), 1.0, atol=1e-9):
        raise DistributionError("channel rows must be conditional distributions")
    full = DiscreteJoint(joint_yx.table[:, :, None] * channel[None, :, :])
    i_xy = mutual_information(full, (1,), (0,))
    i_zy = mutual_information(full, (2,), (0,))
    return {
        "i_xy": i_xy,
        "i_zy": i_zy,
        "holds": i_xy >= i_zy - atol,
        "equality": abs(i_xy - i_zy) <= atol,
    }


def _latent_joint(spec: sd.FactorSpec) -> np.ndarray:
    """Exact p(s, u1, u2) from the factor model's independent categoricals."""
    ps = spec.dist_shared
    p1 = spec.dist_unique(1)
    p2 = spec.dist_unique(2)
    return ps[:, None, None] * p1[None, :, None] * p2[None, None, :]


def verify_mi_decomposition(spec: sd.FactorSpec, mode: str = "exact", n_samples: int = 100_000, seed: int = 0) -> dict:
    """Cross-modal MI equals the shared-factor entropy.

    X^1 = (s, u1) and X^2 = (s, u2) share only s, so I(X^1; X^2) = H(s).
    Exact mode uses the analytic joint; plug-in mode samples latents.
    """
    if mode == "exact":
        full = DiscreteJoint(_x1x2_table(spec))
        i_x1x2 = mutual_information(full, (0, 1), (2, 3))
        h_s = entropy(spec.dist_shared)
        tol = 1e-9
    elif mode == "plugin":
        lat = sd.sample_latents(spec, dc.RngState(seed), n_samples)
        u = spec.n_unique_symbols
        x1 = lat[:, 0] * u + lat[:, 1]
        x2 = lat[:, 0] * u + lat[:, 2]
        i_x1x2 = mutual_information(DiscreteJoint.from_samples(x1, x2), (0,), (1,))
        h_s = entropy(np.bincount(lat[:, 0], minlength=spec.n_shared_symbols) / n_samples)
        tol = 0.05
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return {"i_x1x2": i_x1x2, "h_shared": h_s, "gap": abs(i_x1x2 - h_s), "holds": abs(i_x1x2 - h_s) <= tol}


def _x1x2_table(spec: sd.FactorSpec) -> np.ndarray:
    """Exact joint over (s1, u1, s2, u2) with s1 = s2 = s almost surely."""
    s, u = spec.n_shared_symbols, spec.n_unique_symbols
    base = _latent_joint(spec)
    table = np.zeros((s, u, s, u))
    for si in range(s):
        table[si, :, si, :] = base[si]
    return table


def verify_cl_limitation(spec: sd.FactorSpec, task: sd.TaskSpec, atol: float = 1e-9) -> dict:
    """Shared-factor representations cannot be sufficient for unique-dependent tasks.

    With Z = s (the shared-only optimum), the exact information gap
    I(X;Y) - I(Z;Y) must be at least I(U;Y) > 0.
    """
    if task.mode == "shared-only":
        raise ValueError("limitation check requires a task that depends on unique factors")
    base = _latent_joint(spec)
    s, u = spec.n_shared_symbols, spec.n_unique_symbols
    table = np.zeros((s, u, u, task.n_classes))
    for si in range(s):
        for u1 in range(u):
            for u2 in range(u):
                y = sd.label((si, u1, u2), task)
                table[si, u1, u2, y] = base[si, u1, u2]
    joint = DiscreteJoint(table)
    i_full = mutual_information(joint, (0, 1, 2), (3,))
    i_shared = mutual_information(joint, (0,), (3,))
    i_unique = mutual_information(joint, (1, 2), (3,))
    if i_unique <= atol:
        raise ValueError("task does not depend on the unique factors")
    gap = i_full - i_shared
    return {
        "i_full": i_full,
        "i_shared": i_shared,
        "i_unique": i_unique,
        "gap": gap,
        "holds": gap >= i_unique - atol,
    }


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def _sampled_bound_gap(i_exact, probs, loss, batch_size, n_batches, seed, tol) -> dict:
    """The max over batches of log B - loss(cells), each batch's B cells drawn from `probs` on its own stream."""
    rng = dc.RngState(seed)
    bounds = []
    for b in range(n_batches):
        r = rng.stream(b)
        cells = np.array([r.choice(len(probs), p=probs) for _ in range(batch_size)])
        bounds.append(np.log(batch_size) - float(loss(cells).data))
    max_bound = float(np.max(bounds))
    return {"i_exact": i_exact, "max_bound": max_bound, "holds": max_bound <= i_exact + tol}


def bound_gap_infonce(
    p_x: np.ndarray,
    embed_table: np.ndarray,
    batch_size: int,
    n_batches: int = 100,
    tau: float = 0.5,
    seed: int = 0,
    tol: float = 0.1,
) -> dict:
    """Empirical InfoNCE lower bound against the exact I(X; Z).

    Z is the deterministic embedding of X, so I(X;Z) is the entropy of the
    image distribution (symbols with identical rows collapse together).
    The bound log B - L must never exceed I(X;Z) + tol.
    """
    p_x = np.asarray(p_x, dtype=np.float64)
    table = _unit_rows(np.asarray(embed_table, dtype=np.float32))
    rows, img_idx = np.unique(np.round(table, 6), axis=0, return_inverse=True)
    img_dist = np.zeros(len(rows))
    np.add.at(img_dist, img_idx, p_x)

    def loss(sym):
        z = Tensor(table[sym])
        return ls.info_nce(z, z, tau)

    return _sampled_bound_gap(entropy(img_dist), p_x, loss, batch_size, n_batches, seed, tol)


def bound_gap_supcon(
    joint_y_atom: DiscreteJoint,
    atom_table: np.ndarray,
    batch_size: int,
    n_batches: int = 100,
    tau: float = 0.5,
    seed: int = 0,
    tol: float = 0.15,
) -> dict:
    """Empirical SupCon lower bound against the exact I(Z; Y).

    `joint_y_atom` is p(y, atom) over a finite set of embedding atoms;
    the batch draws (y, atom) pairs and contrasts atoms against
    themselves with label positives.
    """
    table = _unit_rows(np.asarray(atom_table, dtype=np.float32))
    p = joint_y_atom.table
    n_atoms = p.shape[1]

    def loss(cells):
        z = Tensor(table[cells % n_atoms])
        return ls.sup_con(z, z, cells // n_atoms, tau, include_self=True)

    i_zy = mutual_information(joint_y_atom, (0,), (1,))
    return _sampled_bound_gap(i_zy, p.reshape(-1), loss, batch_size, n_batches, seed, tol)


def entropy_monitor(records: list[LayerRouting]) -> dict:
    """Mean local routing entropy and negative marginal entropy over layers."""
    if not records:
        raise ValueError("no routing records")
    scores = Tensor(np.stack([r.scores.data for r in records], axis=1))
    local, global_neg = ls.local_entropy_loss(scores), ls.global_entropy_loss(scores)
    return {"local_entropy": float(local.data), "global_neg_entropy": float(global_neg.data)}


def format_cell(mean: float, std: float) -> str:
    """Table cell in the 'mean(std)' style, two decimals each."""
    return f"{mean:.2f}({std:.2f})"


def emit_report(rows: list[dict], path, columns: list[str]) -> None:
    """Schema-stable CSV: fixed column order, header always present."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


SWEEP_COLUMNS = ["dataset", "chi", "stage", "p", "accuracy", "active_param_pct", "trainable_param_pct"]
PARAM_COLUMNS = ["chi", "router_params", "total_params", "trainable_pct"]


def trainable_param_ratio(named_params: dict, group_fn, group: str = "routers") -> dict:
    """Fraction of parameters updated when only one group is trainable."""
    group_sizes: dict[str, int] = {}
    for name, t in named_params.items():
        g = group_fn(name)
        group_sizes[g] = group_sizes.get(g, 0) + int(np.prod(t.shape))
    total = sum(group_sizes.values())
    trainable = group_sizes.get(group, 0)
    return {
        "trainable_params": trainable,
        "total_params": total,
        "trainable_pct": 100.0 * trainable / total,
    }
