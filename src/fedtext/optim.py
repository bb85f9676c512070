"""Per-client in-place optimizer steps, the warmup/decay schedule, and the
FedProx proximal term.

Each client owns one ``OptimizerState`` for the whole run: its step count
and, under Adam, its moments, both as long as the vector the client trains.
That is the client's compact vector (``models.Shard``), its shard's entries
of the whole one, so the steps here are the textbook dense updates over
whatever vector they are given.

``proximal_augment`` adds the proximal gradient to a gradient in place;
``apply_step`` updates the weights, the step count and the moments in place.
The intermediate values of a step are numpy temporaries as long as the
client's compact vector, computed in the order of the textbook updates.
Both run under the package's ``FLOAT_POLICY``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import FLOAT_POLICY, ParamVector

OPTIMIZER_KINDS = ("sgd", "adam")
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
SQRT_MAX = np.sqrt(np.finfo(np.float64).max)  # the largest float whose square is finite


@dataclass(frozen=True)
class Schedule:
    """Linear warmup to base_lr, then linear decay to zero at total_steps."""

    base_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self) -> None:
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.total_steps <= self.warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")


def lr_at(sched: Schedule, step: int) -> float:
    if step < 0:
        raise ValueError("step must be >= 0")
    if step < sched.warmup_steps:
        return sched.base_lr * step / sched.warmup_steps
    if step <= sched.total_steps:
        return (
            sched.base_lr
            * (sched.total_steps - step)
            / (sched.total_steps - sched.warmup_steps)
        )
    return 0.0


class OptimizerState:
    """One client's optimizer over vectors of ``size`` values: the step
    count and Adam's moments ``m``/``v`` (None under sgd)."""

    def __init__(self, kind: str, size: int) -> None:
        if kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        self.kind = kind
        self.size = size
        self.step_count = 0
        adam = kind == "adam"
        self.m = np.zeros(size) if adam else None
        self.v = np.zeros(size) if adam else None


def _check_sizes(state: OptimizerState, *vectors: tuple[str, ParamVector]) -> None:
    for what, vec in vectors:
        if vec.size != state.size:
            raise ValueError(f"{what} has {vec.size} values, but the optimizer's state has {state.size}")


@np.errstate(**FLOAT_POLICY)
def proximal_augment(
    state: OptimizerState, w: ParamVector, grad: ParamVector, anchor: ParamVector, mu: float
) -> float:
    """Add the gradient mu * (w - anchor) of the penalty (mu / 2) * ||w - anchor||^2
    to ``grad`` in place; returns the penalty, 0.0 without touching ``grad``
    at mu = 0."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    _check_sizes(state, ("gradient", grad), ("weight vector", w), ("anchor", anchor))
    if mu == 0.0:
        return 0.0
    diff = w.values - anchor.values
    penalty = 0.5 * mu * float(diff @ diff)
    diff *= mu
    grad.values += diff
    return penalty


@np.errstate(**FLOAT_POLICY)
def apply_step(state: OptimizerState, w: ParamVector, grad: ParamVector, lr: float) -> None:
    """One update of ``w`` and ``state`` in place by ``grad``.  A negative
    rate, a vector of another size than the state's, a non-finite gradient
    or one whose square overflows Adam's second moment raises before
    anything is written, the latter two naming the segment.  An update that
    overflows raises FloatingPointError, and the round loop discards that
    client's weights, naming its round and client."""
    _check_sizes(state, ("gradient", grad), ("weight vector", w))
    grad.check_finite("gradient")
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    g = grad.values
    if state.kind == "sgd":
        state.step_count += 1
        w.values -= lr * g
        return
    try:
        sq = np.square(g)
    except FloatingPointError:
        bad = int(np.flatnonzero(np.abs(g) > SQRT_MAX)[0])
        raise FloatingPointError(
            f"overflow encountered in square of the gradient in segment {grad.segment_of(bad)!r}"
        ) from None
    state.step_count += 1
    t = state.step_count
    state.m *= BETA1
    state.m += (1.0 - BETA1) * g
    state.v *= BETA2
    sq *= 1.0 - BETA2
    state.v += sq
    step = state.m / (1.0 - BETA1**t)  # m_hat
    step *= lr
    denom = state.v / (1.0 - BETA2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    w.values -= step
