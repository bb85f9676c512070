"""The FedAvg/FedProx round loop, the one way every scheme trains.

One round: every client copies the server weights, runs R epochs of
mini-batch updates on its own shard (optionally with the proximal penalty
anchored at the round-start weights), and the server takes the data-weighted
average of the results.  The average is a running sum: ``aggregate`` asks for
one client's weights at a time and folds them in before the next client
trains, so a round holds one client's weights, not K.  Each client trains
in its own compact parameter space, fixed when the client is built
(``models.Shard``): its ``entries``, the indices of the embedding rows of
its shard's tokens and of every entry after them, and its shard, checked,
renumbered to those rows and stored flat.  A round gathers those entries of
the server weights once (``np.take``), steps that compact vector batch by
batch, each batch padded from the flat shard, and puts it once into a copy
of the server weights (``np.put``) for ``aggregate``.  Between rounds a
client keeps only its Adam moments over its entries.  Client work depends
only on the server weights, its shard and its ``client_rng`` stream, keyed
by (seed, client, round), so the order clients run in cannot change the
result.  ``rounds`` yields each round's record and server weights as the
round ends, and ``collect`` picks the best round's weights from that stream.
Centralized training is the loop with one client, so it is a K=1 federated
run bit for bit.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import models
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
    shard: models.Shard
    opt: OptimizerState  # over the shard's entries
    schedule: Schedule

    @property
    def n(self) -> int:
        return len(self.shard)


def weights_sha256(w: ParamVector) -> str:
    """Digest of the exact float64 bytes; equal digests mean bit-equal weights."""
    return hashlib.sha256(w.values.tobytes()).hexdigest()


def aggregate(counts: Sequence[int], weights: Iterable[ParamVector]) -> ParamVector:
    """Data-weighted average sum_k (n_k / n) w_k of the clients' weights,
    where ``counts`` gives each client's n_k up front and n is their sum.

    ``weights`` is consumed one vector at a time, in client order, and each is
    folded into the running sum ``out += (n_k / n) * w_k`` as it arrives, so
    a generator that trains client k only when asked keeps one client's
    weights alive at a time.  Each vector must share the first one's layout,
    and there must be one per count; the result must be finite.
    """
    if not counts:
        raise ValueError("nothing to aggregate")
    if any(n_k <= 0 for n_k in counts):
        raise ValueError("client example counts must be positive")
    total = sum(counts)
    out, layout = None, None
    for n_k, w in zip(counts, weights, strict=True):
        if out is None:
            out, layout = np.zeros(w.size), w.layout
        elif w.layout != layout:
            raise ValueError("aggregate: parameter layouts differ")
        out += (n_k / total) * w.values
    result = ParamVector(out, layout)
    result.check_finite("aggregated weights")
    return result


def client_schedule(cfg: FederationConfig, client_id: int, n_items: int) -> Schedule:
    """The learning-rate schedule of a client with ``n_items`` training items;
    a warmup that leaves it no step is a ConfigError."""
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
    client: ClientState,
    global_weights: ParamVector,
    cfg: FederationConfig,
    rng: np.random.Generator,
) -> tuple[ParamVector, list[float]]:
    """Train the client for one round, shuffling with ``rng``; returns its
    new weights, a copy of ``global_weights`` with the client's trained
    entries written in, and its per-epoch mean losses.  The optimizer state
    carries over to the next round.

    The proximal anchor is the round-start server weights; the recorded loss
    includes the penalty, so at mu = 0 it is the plain training loss.
    """
    shard, opt = client.shard, client.opt
    weights = ParamVector(np.take(global_weights.values, shard.entries), models.param_layout(shard.spec))
    anchor = weights.copy()
    epoch_losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(client.n)
        batch_losses = []
        for lo in range(0, client.n, cfg.batch_size):
            batch = shard.batch(order[lo : lo + cfg.batch_size])
            lg = models.loss_and_grad(shard.spec, weights, batch)
            penalty = proximal_augment(opt, weights, lg.grad, anchor, cfg.mu)
            loss = lg.loss + penalty
            if not math.isfinite(loss):  # Python floats overflow to inf without raising
                raise ValueError("non-finite loss")
            apply_step(opt, weights, lg.grad, lr_at(client.schedule, opt.step_count))
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
    out = global_weights.copy()
    np.put(out.values, shard.entries, weights.values)
    return out, epoch_losses


def rounds(
    task: Task, cfg: FederationConfig, partitions: Sequence[Sequence], dev: Sequence, seed: int = 0
) -> Iterator[tuple[dict, ParamVector]]:
    """T rounds of FedAvg (mu = 0) or FedProx (mu > 0) with full participation
    of K = len(partitions) clients, client k training on ``partitions[k]``;
    yields each round's record and the server weights as the round ends.

    ``seed`` fixes the initial weights and every client's shuffling.  Clients
    train and are aggregated in client-id order; each one shuffles with its
    own ``client_rng`` stream, so running them in another order would give
    the same weights.  An error inside a client's round, numpy's
    FloatingPointError included, is re-raised as a ValueError prefixed with
    ``round R, client K:``, one in scoring the round's server weights on
    ``dev`` with ``round R: dev scores:``.
    """
    if not partitions:
        raise ValueError("no partitions given")
    for i, part in enumerate(partitions):
        if not part:
            raise ValueError(f"partition {i} is empty")
    if not dev:
        raise ValueError("dev set is empty")

    server = task.init_params(seed)
    shards = [task.shard(part) for part in partitions]
    clients = [
        ClientState(
            id=i,
            shard=shard,
            opt=OptimizerState(cfg.optimizer, shard.entries.size),
            schedule=client_schedule(cfg, i, len(part)),
        )
        for i, (part, shard) in enumerate(zip(partitions, shards))
    ]

    def trained(t: int, server: ParamVector, losses: list[float]) -> Iterator[ParamVector]:
        """Each client's weights after round t + 1, trained when asked for;
        appends the client's mean loss to ``losses``."""
        for c in clients:
            try:
                w, per_epoch = local_update(c, server, cfg, client_rng(seed, c.id, t))
            except (ValueError, FloatingPointError) as exc:  # e.g. an update that overflowed
                raise ValueError(f"round {t + 1}, client {c.id}: {exc}") from exc
            losses.append(float(np.mean(per_epoch)))
            yield w

    for t in range(cfg.rounds):
        losses: list[float] = []
        server = aggregate([c.n for c in clients], trained(t, server, losses))
        try:
            scores = task.dev_scores(server, dev)
        except (ValueError, FloatingPointError) as exc:  # e.g. finite weights whose logits overflow
            raise ValueError(f"round {t + 1}: dev scores: {exc}") from exc
        yield {
            "round": t + 1,
            "client_loss": losses,
            **scores,
            "weights_sha256": weights_sha256(server),
        }, server


def collect(task: Task, stream: Iterable[tuple[dict, ParamVector]]) -> ParamVector:
    """The server weights of the stream's best round: the earliest one with
    the highest dev selection metric."""
    metric = task.selection_metric
    best_record, best_weights = None, None
    for record, server in stream:
        if best_record is None or record[metric] > best_record[metric]:
            best_record, best_weights = record, server
    return best_weights
