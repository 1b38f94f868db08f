"""Tiny linear task heads: enough model to drive the pipeline end to end.

Two head shapes cover the tracks that need one: a 20-way regressor for hand
coordinates (5 keyframes x 2 hands x 2 coordinates) and a per-position
joint classifier over (verb, noun) pairs for forecasting. Training is plain
(optionally momentum) gradient descent, deterministic given its seed. It
updates private copies of the parameters in place, and a classifier step
computes one exp of its logits for both the loss and the softmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import TrainingDiverged
from .model import ActionLabel, ScoreMatrix, _int_text, _require

HEAD_KINDS = ("regression_20", "classifier_C")

REGRESSION_DIM = 20
MAX_EPOCHS = 10_000  # each takes milliseconds; a larger count is a typo


@dataclass(frozen=True, eq=False)
class LinearHead:
    """An affine map with the metadata needed to interpret its outputs."""

    kind: str
    weight: np.ndarray
    bias: np.ndarray
    z: int | None = None
    c_v: int | None = None
    c_n: int | None = None

    def __post_init__(self) -> None:
        _require(self.kind in HEAD_KINDS, f"kind must be one of {HEAD_KINDS}")
        weight = np.asarray(self.weight, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        _require(weight.ndim == 2, "weight must be 2-D (out_dim, in_dim)")
        _require(bias.shape == (weight.shape[0],), "bias must match weight's output dim")
        _require(bool(np.isfinite(weight).all()) and bool(np.isfinite(bias).all()), "parameters must be finite")
        if self.kind == "regression_20":
            _require(weight.shape[0] == REGRESSION_DIM, f"regression head must have {REGRESSION_DIM} outputs")
            _require(self.z is None and self.c_v is None and self.c_n is None, "regression head takes no class counts")
        else:
            for name in ("z", "c_v", "c_n"):
                v = getattr(self, name)
                _require(isinstance(v, int) and v >= 1, f"{name} must be an int >= 1 for a classifier head")
            _require(
                weight.shape[0] == self.z * self.c_v * self.c_n,
                f"classifier outputs {weight.shape[0]} != z*c_v*c_n = {self.z * self.c_v * self.c_n}",
            )
        weight.setflags(write=False)
        bias.setflags(write=False)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)

    @property
    def in_dim(self) -> int:
        return int(self.weight.shape[1])

    @property
    def out_dim(self) -> int:
        return int(self.weight.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearHead):
            return NotImplemented
        return (
            self.kind == other.kind
            and (self.z, self.c_v, self.c_n) == (other.z, other.c_v, other.c_n)
            and np.array_equal(self.weight, other.weight)
            and np.array_equal(self.bias, other.bias)
        )


def new_head(
    kind: str,
    in_dim: int,
    seed: int,
    z: int | None = None,
    c_v: int | None = None,
    c_n: int | None = None,
) -> LinearHead:
    """A freshly initialized head with small seeded random weights."""
    _require(kind in HEAD_KINDS, f"kind must be one of {HEAD_KINDS}")
    _require(isinstance(in_dim, int) and in_dim >= 1, "in_dim must be an int >= 1")
    _require(isinstance(seed, int) and seed >= 0, "seed must be an int >= 0")
    if kind == "regression_20":
        out_dim = REGRESSION_DIM
    else:
        _require(all(isinstance(v, int) and v >= 1 for v in (z, c_v, c_n)), "classifier needs z, c_v, c_n")
        out_dim = z * c_v * c_n
    rng = np.random.default_rng(seed)
    weight = rng.normal(0.0, in_dim**-0.5, size=(out_dim, in_dim))
    return LinearHead(kind=kind, weight=weight, bias=np.zeros(out_dim), z=z, c_v=c_v, c_n=c_n)


def head_forward(head: LinearHead, x: np.ndarray) -> np.ndarray:
    """Affine map; accepts one vector (in_dim,) or a batch (n, in_dim)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        _require(arr.shape[0] == head.in_dim, f"input width {arr.shape[0]} != {head.in_dim}")
        return head.weight @ arr + head.bias
    _require(arr.ndim == 2 and arr.shape[1] == head.in_dim, f"input width must be {head.in_dim}")
    return arr @ head.weight.T + head.bias


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-shifted)."""
    arr = np.asarray(logits, dtype=np.float64)
    shifted = arr - arr.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def classifier_probs(head: LinearHead, x: np.ndarray) -> ScoreMatrix:
    """Per-position verb/noun marginals from one input vector.

    The head scores every (verb, noun) pair per position; marginals come
    from summing the joint softmax over the other factor, which is exact.
    """
    _require(head.kind == "classifier_C", "probabilities need a classifier head")
    logits = head_forward(head, x)
    _require(logits.ndim == 1, "classifier_probs takes a single input vector")
    joint = softmax(logits.reshape(head.z, head.c_v * head.c_n), axis=1)
    cube = joint.reshape(head.z, head.c_v, head.c_n)
    return ScoreMatrix(verb=cube.sum(axis=2), noun=cube.sum(axis=1))


def predict_labels(head: LinearHead, x: np.ndarray, mode: str = "joint") -> tuple[ActionLabel, ...]:
    """Per-position labels, either from the joint argmax or from marginals.

    These agree unless the joint distribution is correlated enough that the
    best pair disagrees with the best-per-factor pair; joint is the default.
    """
    _require(mode in ("joint", "independent"), "mode must be 'joint' or 'independent'")
    _require(head.kind == "classifier_C", "label prediction needs a classifier head")
    logits = head_forward(head, x)
    _require(logits.ndim == 1, "predict_labels takes a single input vector")
    if mode == "joint":
        flat = logits.reshape(head.z, head.c_v * head.c_n)
        picks = np.argmax(flat, axis=1)
        return tuple(
            ActionLabel(verb_id=int(p) // head.c_n, noun_id=int(p) % head.c_n) for p in picks
        )
    probs = classifier_probs(head, x)
    return tuple(
        ActionLabel(verb_id=int(np.argmax(probs.verb[i])), noun_id=int(np.argmax(probs.noun[i])))
        for i in range(head.z)
    )


def l1_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error and its subgradient with respect to pred.

    The gradient is sign(pred - target) / size, 0 exactly at agreement.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    _require(p.shape == t.shape, f"shape mismatch {p.shape} vs {t.shape}")
    _require(p.size > 0, "empty inputs")
    return _l1_loss(p, t)


def _l1_loss(p: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
    diff = p - t
    return float(np.abs(diff).mean()), np.sign(diff) / diff.size


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient with respect to logits.

    logits is (m, C); targets holds m class indices. The gradient is
    (softmax - one_hot) / m.
    """
    arr = np.asarray(logits, dtype=np.float64)
    idx = np.asarray(targets)
    _require(arr.ndim == 2 and arr.shape[0] >= 1, "logits must be (m, C) with m >= 1")
    _require(idx.shape == (arr.shape[0],), "targets must hold one index per row")
    _require(np.issubdtype(idx.dtype, np.integer), "targets must be integers")
    _require(bool((idx >= 0).all()) and bool((idx < arr.shape[1]).all()), "target index out of range")
    return _cross_entropy(arr, idx)


def _cross_entropy(arr: np.ndarray, idx: np.ndarray) -> tuple[float, np.ndarray]:
    # One exp of the shifted logits: its row sums give both the loss's
    # log-sum-exp and the softmax normaliser.
    m = arr.shape[0]
    rows = np.arange(m)
    shifted = arr - arr.max(axis=1, keepdims=True)
    grad = np.exp(shifted)
    total = grad.sum(axis=1, keepdims=True)
    loss = float((np.log(total[:, 0]) - shifted[rows, idx]).mean())
    grad /= total
    grad[rows, idx] -= 1.0
    grad /= m
    return loss, grad


@dataclass(frozen=True)
class SgdConfig:
    """Gradient descent settings; momentum 0 is plain SGD."""

    lr: float
    momentum: float = 0.0

    def __post_init__(self) -> None:
        _require(np.isfinite(self.lr) and self.lr >= 0, "lr must be a finite real >= 0")
        _require(0 <= self.momentum < 1, "momentum must be in [0, 1)")


def joint_targets(sequences: Sequence[Sequence[ActionLabel]], c_n: int) -> np.ndarray:
    """Encode label sequences as per-position joint class ids (v * c_n + n)."""
    _require(isinstance(c_n, int) and c_n >= 1, "c_n must be an int >= 1")
    out = np.array(
        [[a.verb_id * c_n + a.noun_id for a in seq] for seq in sequences], dtype=np.int64
    )
    _require(out.ndim == 2, "sequences must share one length")
    return out


def train_head(
    head: LinearHead,
    inputs: np.ndarray,
    targets: np.ndarray,
    config: SgdConfig,
    epochs: int,
    seed: int = 0,
    batch_size: int | None = None,
) -> tuple[LinearHead, list[float]]:
    """Gradient-descent training; returns the new head and per-epoch losses.

    Full-batch by default (and then fully deterministic with no randomness
    at all); with batch_size set, batches are drawn in a seeded shuffled
    order each epoch. Raises TrainingDiverged if the loss or any parameter
    stops being finite.
    """
    _require(isinstance(epochs, int) and epochs >= 0, "epochs must be an int >= 0")
    _require(epochs <= MAX_EPOCHS, f"epochs must be at most {MAX_EPOCHS}, got {_int_text(epochs)}")
    _require(isinstance(seed, int) and seed >= 0, "seed must be an int >= 0")
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    _require(x.ndim == 2 and x.shape[1] == head.in_dim, f"inputs must be (n, {head.in_dim})")
    n = x.shape[0]
    _require(n >= 1, "need at least one example")
    if head.kind == "regression_20":
        t = np.asarray(targets, dtype=np.float64)
        _require(t.shape == (n, REGRESSION_DIM), f"targets must be (n, {REGRESSION_DIM})")
    else:
        t = np.asarray(targets)
        _require(t.shape == (n, head.z), "targets must be (n, z) joint class ids")
        _require(np.issubdtype(t.dtype, np.integer), "classifier targets must be integers")
        joint_width = head.c_v * head.c_n
        _require(bool((t >= 0).all()) and bool((t < joint_width).all()), "joint class id out of range")
    if batch_size is not None:
        _require(isinstance(batch_size, int) and batch_size >= 1, "batch_size must be an int >= 1")
    weight = head.weight.copy()
    bias = head.bias.copy()
    vel_w = np.zeros_like(weight)
    vel_b = np.zeros_like(bias)
    rng = np.random.default_rng(seed)
    losses: list[float] = []
    for epoch in range(epochs):
        if batch_size is None:
            batches = [(x, t)]
        else:
            order = rng.permutation(n)
            batches = [(x[idx], t[idx]) for idx in (order[i : i + batch_size] for i in range(0, n, batch_size))]
        epoch_loss = 0.0
        for xb, tb in batches:
            # Overflow on a runaway step is caught by the finiteness guards
            # below; keep numpy quiet on the way there.
            with np.errstate(over="ignore", invalid="ignore"):
                out = xb @ weight.T + bias
                if head.kind == "regression_20":
                    loss, g = _l1_loss(out, tb)
                else:
                    loss, g = _cross_entropy(out.reshape(-1, joint_width), tb.reshape(-1))
                    g = g.reshape(out.shape)
                grad_w = g.T @ xb
                grad_b = g.sum(axis=0)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, f"loss became {loss!r}")
            vel_w *= config.momentum
            vel_w -= config.lr * grad_w
            vel_b *= config.momentum
            vel_b -= config.lr * grad_b
            weight += vel_w
            bias += vel_b
            epoch_loss += loss * len(xb)
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise TrainingDiverged(epoch, "parameters became non-finite")
        losses.append(epoch_loss / n)
    trained = LinearHead(
        kind=head.kind, weight=weight, bias=bias, z=head.z, c_v=head.c_v, c_n=head.c_n
    )
    return trained, losses


def finite_difference_grad(
    fn: Callable[[np.ndarray], float],
    x: np.ndarray,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function."""
    base = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(base)
    flat = out.reshape(-1)
    for i in range(base.size):
        bump = np.zeros_like(base).reshape(-1)
        bump[i] = step
        bump = bump.reshape(base.shape)
        flat[i] = (fn(base + bump) - fn(base - bump)) / (2 * step)
    return out
