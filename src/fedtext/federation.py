"""FedAvg/FedProx round loop plus centralized and single-client baselines.

One round: every client copies the server weights, runs R epochs of
mini-batch updates on its own shard (optionally with the proximal penalty
anchored at the round-start weights), and the server takes the data-weighted
average of the results.  Client work depends only on (server weights, shard,
per-round seed), so the order clients run in never changes the result;
the baselines reuse the same loop with a single client, which makes the
K=1 / centralized equivalence hold bit for bit.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import ConfigError, FederationConfig
from .optim import OptimizerState, Schedule, apply_step, lr_at, proximal_augment
from .params import ParamVector
from .tasks import Task


def client_rng(seed: int, client_id: int, round_idx: int) -> np.random.Generator:
    """Fresh per-(client, round) generator; independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence((seed, client_id, round_idx)))


@dataclass
class ClientState:
    id: int
    data: list
    opt: OptimizerState
    schedule: Schedule

    @property
    def n(self) -> int:
        return len(self.data)


@dataclass
class RunResult:
    best_weights: ParamVector
    final_weights: ParamVector
    best_round: int  # 0-based index into round_log
    round_log: list[dict]


def weights_sha256(w: ParamVector) -> str:
    """Digest of the exact float64 bytes; equal digests mean bit-equal weights."""
    return hashlib.sha256(w.values.tobytes()).hexdigest()


def aggregate(weighted: Sequence[tuple[ParamVector, int]]) -> ParamVector:
    """Data-weighted average sum_k (n_k / n) w_k in the given order."""
    if not weighted:
        raise ValueError("nothing to aggregate")
    first = weighted[0][0]
    total = 0
    for w, n_k in weighted:
        if w.layout != first.layout:
            raise ValueError("aggregate: parameter layouts differ")
        if n_k <= 0:
            raise ValueError("client example counts must be positive")
        total += n_k
    out = np.zeros(first.size)
    for w, n_k in weighted:
        out += (n_k / total) * w.values
    result = ParamVector(out, first.layout)
    result.check_finite("aggregated weights")
    return result


def _client_schedule(cfg: FederationConfig, client_id: int, n_items: int) -> Schedule:
    steps_per_epoch = math.ceil(n_items / cfg.batch_size)
    total = cfg.rounds * cfg.local_epochs * steps_per_epoch
    warmup = int(round(cfg.warmup_frac * total))
    if warmup >= total:
        raise ConfigError(
            f"[federation] warmup_frac = {cfg.warmup_frac} leaves client {client_id} no step "
            f"after warmup (it takes {total} in all); lower it or give the client more steps"
        )
    return Schedule(base_lr=cfg.base_lr, warmup_steps=warmup, total_steps=total)


def local_update(
    task: Task,
    client: ClientState,
    global_weights: ParamVector,
    cfg: FederationConfig,
    rng: np.random.Generator,
) -> tuple[ParamVector, list[float]]:
    """Train the client for one round, shuffling with ``rng``; returns its
    new weights and per-epoch mean losses.  The optimizer state carries over
    to the next round.

    The proximal anchor is the round-start server weights; the recorded loss
    includes the penalty, so at mu = 0 it is the plain training loss.
    """
    weights = global_weights.copy()
    opt = client.opt
    epoch_losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(client.n)
        batch_losses = []
        for lo in range(0, client.n, cfg.batch_size):
            batch = [client.data[i] for i in order[lo : lo + cfg.batch_size]]
            lg = task.loss_and_grad(weights, batch)
            penalty = proximal_augment(opt, weights, lg.grad, global_weights, cfg.mu)
            loss = lg.loss + penalty
            if not math.isfinite(loss):  # a saturated softmax keeps the gradient finite
                raise ValueError("non-finite loss")
            apply_step(opt, weights, lg.grad, lr_at(client.schedule, opt.step_count))
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
    return weights, epoch_losses


def run_federated(
    task: Task,
    cfg: FederationConfig,
    partitions: Sequence[Sequence],
    dev: Sequence,
    seed: int = 0,
    execution_order: Sequence[int] | None = None,
) -> RunResult:
    """T rounds of FedAvg (mu = 0) or FedProx (mu > 0) with full participation.

    ``seed`` fixes the initial weights and every client's shuffling.  Clients
    train one after another in ``execution_order`` (default: by id);
    aggregation always runs in client-id order.  The best round is the
    earliest one with the highest dev selection metric.  An error inside a
    client's round is re-raised prefixed with ``round R, client K:``.
    """
    if cfg.clients != len(partitions):
        raise ValueError(
            f"config says {cfg.clients} clients but {len(partitions)} partitions given"
        )
    for i, part in enumerate(partitions):
        if not part:
            raise ValueError(f"partition {i} is empty")
    if not dev:
        raise ValueError("dev set is empty")
    order = list(execution_order) if execution_order is not None else list(range(cfg.clients))
    if sorted(order) != list(range(cfg.clients)):
        raise ValueError("execution_order must be a permutation of the client ids")

    server = task.init_params(seed)
    clients = [
        ClientState(
            id=i,
            data=list(part),
            opt=OptimizerState(cfg.optimizer, server.size),
            schedule=_client_schedule(cfg, i, len(part)),
        )
        for i, part in enumerate(partitions)
    ]
    metric = task.selection_metric
    round_log: list[dict] = []
    best_round, best_weights = -1, server

    for t in range(cfg.rounds):
        updates = {}
        for cid in order:
            rng = client_rng(seed, cid, t)
            try:
                updates[cid] = local_update(task, clients[cid], server, cfg, rng)
            except ValueError as exc:  # e.g. a diverging client's non-finite gradient
                raise ValueError(f"round {t + 1}, client {cid}: {exc}") from exc
        weights, losses = zip(*(updates[c.id] for c in clients))  # client-id order
        server = aggregate([(w, c.n) for w, c in zip(weights, clients)])
        scores = task.dev_scores(server, dev)
        round_log.append(
            {
                "round": t + 1,
                "client_loss": [float(np.mean(per_epoch)) for per_epoch in losses],
                **scores,
                "weights_sha256": weights_sha256(server),
            }
        )
        if best_round < 0 or scores[metric] > round_log[best_round][metric]:
            best_round, best_weights = t, server

    return RunResult(
        best_weights=best_weights,
        final_weights=server,
        best_round=best_round,
        round_log=round_log,
    )


def run_centralized(
    task: Task, cfg: FederationConfig, pooled: Sequence, dev: Sequence, seed: int = 0
) -> RunResult:
    """One worker, the pooled data, rounds x local_epochs epochs, no penalty.

    Implemented as the same round loop with a single client, so under sgd it
    is update-for-update identical to a one-client federated run.
    """
    solo = replace(cfg, clients=1, mu=0.0)
    return run_federated(task, solo, [pooled], dev, seed)


def run_single_client(
    task: Task, cfg: FederationConfig, partitions: Sequence[Sequence], dev: Sequence, seed: int = 0
) -> list[RunResult]:
    """Independent per-partition baselines: centralized training on each shard."""
    if not partitions:
        raise ValueError("no partitions given")
    return [run_centralized(task, cfg, part, dev, seed) for part in partitions]
