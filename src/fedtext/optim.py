"""Per-client in-place optimizer steps, the warmup/decay schedule, and the
FedProx proximal term.

Each client owns one ``OptimizerState`` for the whole run: its step count
and, under Adam, its moments, both over the client's support, the entries
its gradients can be nonzero in (``models.support``), in which
``models.loss_and_grad`` computes them.  A step gathers the weights' support
entries, runs the textbook updates on them, and writes the weights back.
This is exact: off the support the gradient and the moments are +0.0 and
the weights equal the proximal anchor, so a dense step would leave each of
them, -0.0 included, as it was.  A state built from a vector size alone
covers every entry.

``proximal_augment`` adds the proximal gradient to such a gradient in place;
``apply_step`` updates the weights, the step count and the moments in place.
Both work in the state's ``scratch`` rows, so a step allocates nothing of
the parameter vector's size.  Nothing in the scratch outlives a call, so it
belongs to the run rather than to a client: clients train one at a time,
and the round loop hands every client's state the same ``new_scratch``
buffer.  The floating-point operations run in the order of the textbook
updates, so results are bit-equal to computing each formula with fresh
arrays.  Both run under the package's ``FLOAT_POLICY``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import FLOAT_POLICY, ParamVector, Support

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


def new_scratch(kind: str, size: int) -> np.ndarray:
    """Work rows for steps of optimizer ``kind`` over supports of at most ``size``
    entries: the gathered weights, then two work rows under adam, one under sgd."""
    return np.empty((3 if kind == "adam" else 2, size))


class OptimizerState:
    """One client's optimizer: the step count and Adam's moments ``m``/``v``
    (None under sgd) over the entries of ``support``, a ``params.Support``
    or a vector size, which stands for every entry; plus the ``scratch``
    rows its steps work in.  Every state of one run can be given the same
    ``new_scratch(kind, n)`` buffer, n being the largest support.  Without
    one, the state makes its own."""

    def __init__(self, kind: str, support: Support | int, scratch: np.ndarray | None = None) -> None:
        if kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        self.kind = kind
        self.support = support if isinstance(support, Support) else Support(support)
        self.step_count = 0
        n = self.support.count
        adam = kind == "adam"
        self.m = np.zeros(n) if adam else None
        self.v = np.zeros(n) if adam else None
        self.scratch = (new_scratch(kind, n) if scratch is None else scratch)[:, :n]


def _check_size(state: OptimizerState, grad: ParamVector) -> None:
    if grad.size != state.support.count:
        raise ValueError(f"gradient has {grad.size} values, but the optimizer's support has {state.support.count}")


@np.errstate(**FLOAT_POLICY)
def proximal_augment(
    state: OptimizerState, w: ParamVector, grad: ParamVector, anchor: ParamVector, mu: float
) -> float:
    """Add the gradient mu * (w - anchor) of the penalty (mu / 2) * ||w - anchor||^2
    to ``grad``, over the state's support, in place; returns the penalty,
    0.0 without touching ``grad`` at mu = 0.  Off the support, w equals the
    anchor, so neither the penalty nor its gradient has anything there."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    _check_size(state, grad)
    if mu == 0.0:
        return 0.0
    wc, diff, *_ = state.scratch
    state.support.gather(w.values, wc)
    state.support.gather(anchor.values, diff)
    np.subtract(wc, diff, out=diff)
    penalty = 0.5 * mu * float(diff @ diff)
    diff *= mu
    grad.values += diff
    return penalty


@np.errstate(**FLOAT_POLICY)
def apply_step(state: OptimizerState, w: ParamVector, grad: ParamVector, lr: float) -> None:
    """One update of ``w`` and ``state`` in place by ``grad``, over the
    state's support.  A negative rate, a gradient of another size, a
    non-finite one or one whose square overflows Adam's second moment raises
    before anything is written, the latter two naming the segment.  An
    update that overflows raises FloatingPointError before the weights are
    written back, and the round loop discards that client's weights, naming
    its round and client."""
    _check_size(state, grad)
    grad.check_finite("gradient")
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    g, (wc, *s) = grad.values, state.scratch
    state.support.gather(w.values, wc)
    if state.kind == "sgd":
        state.step_count += 1
        wc -= np.multiply(lr, g, out=s[0])
        state.support.scatter(wc, w.values)
        return
    try:
        sq = np.square(g, out=s[1])
    except FloatingPointError:
        bad = int(np.flatnonzero(np.abs(g) > SQRT_MAX)[0])
        raise FloatingPointError(
            f"overflow encountered in square of the gradient in segment {grad.segment_of(bad)!r}"
        ) from None
    state.step_count += 1
    t = state.step_count
    state.m *= BETA1
    state.m += np.multiply(1.0 - BETA1, g, out=s[0])
    state.v *= BETA2
    state.v += np.multiply(1.0 - BETA2, sq, out=sq)
    step = np.divide(state.m, 1.0 - BETA1**t, out=s[0])  # m_hat
    step *= lr
    denom = np.divide(state.v, 1.0 - BETA2**t, out=s[1])  # v_hat
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    wc -= step
    state.support.scatter(wc, w.values)
