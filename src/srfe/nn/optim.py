"""Adam with bias correction; parameters update in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> None:
    """One first/second-moment update over every parameter tensor."""
    for key, p in params.items():
        if grads[key].shape != p.shape:
            raise ValueError(
                f"gradient for {key!r} has shape {grads[key].shape}, expected {p.shape}"
            )
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for key, p in params.items():
        g = grads[key]
        m = state.m[key]
        v = state.v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
