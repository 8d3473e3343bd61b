"""Exact simulation of the walks induced at the line-visit times.

The vertical skeleton is a +-1 walk with up-probability rho/(rho+1); on the
tree an up-step picks one of the p forward branches uniformly.  Both use the
closed-form probabilities directly, so the walks carry no discretization
error.  The sojourn time between distinct lines is sampled pathwise by the
Euler kernel of `pathsim` in height-only mode: steps of the one-dimensional
height diffusion

    dY = (1 - alpha)/log q dt + (sqrt 2 / log q) dB

restarted at every interior line visit on a side drawn with up-probability
gamma = beta p / (beta p + 1), until the height reaches +-1, with the
kernel's interpolated crossing and exit times and its Brownian-bridge exit
test.  The remaining bias is O(sqrt dt); the closed forms are the oracle,
never the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .closed_forms import ModelParams, prob_up
from .pathsim import _Arrays, _drive, rebuild_vertices
from .tree import TreeVertex


@dataclass(frozen=True)
class RngStream:
    """Reproducible stream: identical (seed, stream) gives identical draws."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream])


@dataclass(frozen=True)
class SkeletonState:
    """One skeleton sample: vertex at the n-th line visit and its clock."""

    vertex: TreeVertex
    clock: float
    step: int

    @property
    def hor(self) -> int:
        return self.vertex.level


def step_side(params: ModelParams, rng: np.random.Generator) -> int:
    """One +-1 step of the vertical skeleton walk."""
    return 1 if rng.random() < prob_up(params) else -1


def step_vertex(
    vertex: TreeVertex, side: int, params: ModelParams, rng: np.random.Generator
) -> TreeVertex:
    """Move the tree walk one step: down to the predecessor, or up to a
    uniformly chosen successor."""
    if side == -1:
        return vertex.predecessor()
    if side == 1:
        return vertex.successor(rng.integers(params.p))
    raise ValueError("side must be +1 or -1")


def sample_tau_batch(
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
    dt: float = 1e-4,
    y0: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n independent (exit time, exit side) pairs of the height
    diffusion from the interval [-1, 1], started at y0.

    A start on the line (y0 = 0) makes the exit time a sojourn-time sample;
    interior starts give the plain first-exit time, which meets the interior
    line at 0 on the way out.  Raises pathsim.NumericalError if dt lets a
    step move the height by two levels.
    """
    if not -1.0 < y0 < 1.0:
        raise ValueError("start must lie in (-1, 1)")
    final = _drive(params, dt, rng, _Arrays(n, 0, y0)).final
    # a path's only event is its first: its direction is the change of level
    return final["t"], final["level"].astype(np.int8)


def run_skeleton(
    params: ModelParams,
    n_steps: int,
    rng: np.random.Generator,
    dt: float = 1e-4,
) -> list[SkeletonState]:
    """Run the skeleton walk for n_steps line visits from the root.

    Sides and branch choices use the exact closed-form probabilities; the
    clock increments are pathwise sojourn samples, drawn independently of
    the sides (the two are independent in law).
    """
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    taus, _ = sample_tau_batch(params, n_steps, rng, dt)
    up = rng.random(n_steps) < prob_up(params)
    branch = rng.integers(params.p, size=n_steps)
    vertices = rebuild_vertices(params.p, np.where(up, 1, -1), branch)
    clocks = accumulate(taus.tolist(), initial=0.0)
    return [SkeletonState(v, t, i) for i, (v, t) in enumerate(zip(vertices, clocks))]
