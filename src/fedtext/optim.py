"""Per-client in-place optimizer steps, the warmup/decay schedule, and the
FedProx proximal term.

Each client owns one ``OptimizerState`` for the whole run.  ``apply_step``
updates the weights, the step count and the Adam moments in place;
``proximal_augment`` adds the proximal gradient to the batch gradient in
place before the step.  Both reuse the state's scratch buffers, so a step
allocates nothing of the parameter vector's size.  The floating-point
operations run in the order of the textbook updates, so results are bit-equal
to computing each formula with fresh arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamVector

OPTIMIZER_KINDS = ("sgd", "adam")
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


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
    """One client's optimizer for parameter vectors of ``size`` values: the
    step count, Adam's moments ``m``/``v`` (None under sgd) and scratch."""

    def __init__(self, kind: str, size: int) -> None:
        if kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        self.kind = kind
        self.step_count = 0
        adam = kind == "adam"
        self.m = np.zeros(size) if adam else None
        self.v = np.zeros(size) if adam else None
        self._scratch = np.empty((2 if adam else 1, size))


def proximal_augment(
    state: OptimizerState, w: ParamVector, grad: ParamVector, anchor: ParamVector, mu: float
) -> float:
    """Add the gradient mu * (w - anchor) of the penalty (mu / 2) * ||w - anchor||^2
    to ``grad`` in place; returns the penalty, 0.0 without touching ``grad``
    at mu = 0."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if mu == 0.0:
        return 0.0
    diff = np.subtract(w.values, anchor.values, out=state._scratch[0])
    penalty = 0.5 * mu * float(diff @ diff)
    diff *= mu
    grad.values += diff
    return penalty


def apply_step(state: OptimizerState, w: ParamVector, grad: ParamVector, lr: float) -> None:
    """One update of ``w`` and ``state`` in place.  A non-finite gradient or a
    negative rate raises before anything is written, naming the bad segment."""
    grad.check_finite("gradient")
    if lr < 0:
        raise ValueError("learning rate must be >= 0")

    state.step_count += 1
    g, s = grad.values, state._scratch
    if state.kind == "sgd":
        w.values -= np.multiply(lr, g, out=s[0])
        return
    t = state.step_count
    state.m *= BETA1
    state.m += np.multiply(1.0 - BETA1, g, out=s[0])
    state.v *= BETA2
    state.v += np.multiply(1.0 - BETA2, np.square(g, out=s[0]), out=s[0])
    step = np.divide(state.m, 1.0 - BETA1**t, out=s[0])  # m_hat
    step *= lr
    denom = np.divide(state.v, 1.0 - BETA2**t, out=s[1])  # v_hat
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    w.values -= step
