"""Loss, optimizers, and the deterministic training loop."""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .datasplit import normalize_label
from .equinet import Model, ModelConfig, ParameterStore, forward, init_params
from .errors import ConfigError, TrainingDiverged, ValidationError
from .fingerprint import morgan_fingerprints
from .geograph import CutoffConfig, build_graph, edge_budget_packs


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    steps: int = 1000
    batch_size: int = 8
    seed: int = 0
    optimizer: str = "adam"          # "adam" or "sgd"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be non-negative")
        if self.steps < 1:
            raise ValidationError("steps must be at least 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be at least 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValidationError(f"{name} must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ValidationError("adam_eps must be positive")


def mse_loss(pred, label) -> Tensor:
    """Squared error per sample (elementwise over a vector of
    predictions); batch losses average these."""
    diff = ad.add(pred, -np.asarray(label, dtype=np.float64))
    return ad.mul(diff, diff)


def grad(loss_fn, params: ParameterStore, names: list[str] | None = None):
    """Evaluate `loss_fn` under a fresh tape and return (loss value,
    name -> adjoint). Parameters never touched by the computation get
    zero gradients. The parameters hold no adjoint afterwards: the
    returned arrays are the only references."""
    with Tape() as tape:
        loss = loss_fn()
    if not isinstance(loss, Tensor):
        raise ConfigError("loss_fn must return a Tensor")
    names = list(names) if names is not None else params.trainable_names()
    sources = params.tensors(names)
    grads = tape.gradient(loss, sources)
    for t in sources:
        if t.requires_grad:
            t.grad = None
    return float(loss.data), dict(zip(names, grads))


class SgdOptimizer:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: ParameterStore, grads: dict[str, np.ndarray]):
        for name, g in grads.items():
            params[name].data = params[name].data - self.lr * g


class AdamOptimizer:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: ParameterStore, grads: dict[str, np.ndarray]):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            m = self.m.setdefault(name, np.zeros_like(g))
            v = self.v.setdefault(name, np.zeros_like(g))
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            params[name].data = params[name].data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return SgdOptimizer(cfg.learning_rate)
    return AdamOptimizer(cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)


def batch_gradients(graphs, fps, labels, batch, params: ParameterStore, model_cfg: ModelConfig):
    """(loss, name -> gradient) of the batch loss sum_i (pred_i - y_i)^2 / B.

    Each pack of `geograph.edge_budget_packs` runs one training forward
    and one backward on its own tape; its loss terms and gradients are
    added into the totals before the next pack starts, and the batch-norm
    running statistics step once per graph, in batch order. The first
    pack's gradients are the totals, and each later pack's are dropped
    once added, so no other gradient-sized array is alive at a sweep.
    """
    names = params.trainable_names()
    total = None
    loss_value = 0.0
    for ids, pack in edge_budget_packs(batch, lambda i: graphs[i]):

        def pack_loss():
            preds = forward(pack, fps[ids], params, model_cfg, training=True)
            return ad.mul(ad.tsum(mse_loss(preds, labels[ids])), 1.0 / len(batch))

        value, grads = grad(pack_loss, params, names)
        loss_value += value
        if total is None:
            total = grads
        else:
            for name in names:
                total[name] += grads[name]
        del grads
    return loss_value, total


def prepare_training_inputs(records, model_cfg: ModelConfig, cutoffs: CutoffConfig):
    """Graphs (packs of one) and fingerprints are static per record; build
    them once. Each graph warning goes to stderr as `warning: <complex_id>: ...`."""
    graphs = [build_graph(rec, cutoffs) for rec in records]
    sys.stderr.writelines(f"warning: {rec.complex_id}: {w}\n"
                          for rec, graph in zip(records, graphs) for w in graph.warnings[0])
    fps = morgan_fingerprints([rec.ligand for rec in records], nbits=model_cfg.fingerprint_width)
    return graphs, fps


def train(records, cfg: TrainConfig, model_cfg: ModelConfig,
          cutoffs: CutoffConfig | None = None, labels=None, target_mse: float | None = None):
    """Mini-batch regression training, bitwise deterministic for a fixed seed.

    Labels default to the log-molar normalization of each record's EC50;
    pass `labels` to train on explicit values. Returns (Model, per-step
    loss list). `target_mse` stops early once the batch loss drops below
    it (the step budget is a maximum either way).
    """
    cutoffs = cutoffs or CutoffConfig()
    if labels is None:
        missing = [r.complex_id for r in records if r.label_ec50_nm is None]
        if missing:
            raise ValidationError(f"records without labels: {missing}")
        labels = np.array([normalize_label(r.label_ec50_nm) for r in records])
    else:
        labels = np.asarray(labels, dtype=np.float64)
    if len(labels) != len(records) or len(records) == 0:
        raise ValidationError("need one label per record and at least one record")

    graphs, fps = prepare_training_inputs(records, model_cfg, cutoffs)
    params = init_params(model_cfg, cutoffs, seed=cfg.seed)
    optimizer = make_optimizer(cfg)
    rng = np.random.default_rng(cfg.seed)

    n = len(records)
    order = np.arange(n)
    cursor = n  # force an initial shuffle when batching
    losses: list[float] = []

    for step in range(cfg.steps):
        if cfg.batch_size >= n:
            batch = list(range(n))
        else:
            batch = []
            while len(batch) < cfg.batch_size:
                if cursor >= n:
                    order = rng.permutation(n)
                    cursor = 0
                batch.append(int(order[cursor]))
                cursor += 1

        loss_value, grads = batch_gradients(graphs, fps, labels, batch, params, model_cfg)
        if not np.isfinite(loss_value):
            raise TrainingDiverged(step)
        optimizer.step(params, grads)
        del grads    # not alive during the next step
        losses.append(loss_value)
        if target_mse is not None and loss_value < target_mse:
            break

    return Model(cfg=model_cfg, cutoffs=cutoffs, params=params), losses
