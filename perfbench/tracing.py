"""Spans and draw counts for the traced benchmark run.

The traced run wraps the library's public functions from outside: each
listed module attribute is replaced by a delegating function that records a
span (name, start, end, parent) around the call.  Random draws are counted by
a generator subclass that shares the bit generator of the plain one, so the
stream, and every number computed from it, is unchanged.  Spans stay in
memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from treebolic import analysis, pathsim, skeleton, space

#: (module, attribute, span name).  pathsim imports ht_distance into its own
#: namespace, and simulate_path calls it there, so both bindings are wrapped.
LAYERS = (
    (pathsim, "run_batch", "pathsim.run_batch"),
    (pathsim, "final_tree_points", "pathsim.final_tree_points"),
    (pathsim, "first_exit_batch", "pathsim.first_exit_batch"),
    (pathsim, "simulate_path", "pathsim.simulate_path"),
    (skeleton, "sample_tau_batch", "skeleton.sample_tau_batch"),
    (space, "ht_distance", "space.ht_distance"),
    (pathsim, "ht_distance", "space.ht_distance"),
    (analysis, "draw_limit_samples", "analysis.draw_limit_samples"),
)

DRAW_KINDS = ("rng.normals", "rng.uniforms", "rng.integers")

#: The benchmark's clock: CPU seconds of this process.  The load is one
#: thread, so this is the wall time less what the hypervisor takes from the
#: virtual CPU (steal), which is large and uneven on shared machines.
clock = time.process_time


class CountingGenerator(np.random.Generator):
    """A Generator on another generator's bit stream that counts the values
    each family of methods returns."""

    def __init__(self, rng: np.random.Generator, counts: dict):
        super().__init__(rng.bit_generator)
        self._counts = counts

    def _count(self, kind: str, out):
        self._counts[kind] += int(np.size(out))
        return out

    def standard_normal(self, *args, **kwargs):
        return self._count("rng.normals", super().standard_normal(*args, **kwargs))

    def normal(self, *args, **kwargs):
        return self._count("rng.normals", super().normal(*args, **kwargs))

    def random(self, *args, **kwargs):
        return self._count("rng.uniforms", super().random(*args, **kwargs))

    def uniform(self, *args, **kwargs):
        return self._count("rng.uniforms", super().uniform(*args, **kwargs))

    def integers(self, *args, **kwargs):
        return self._count("rng.integers", super().integers(*args, **kwargs))


class Tracer:
    """Span recorder and generator factory.  A disabled tracer records
    nothing and hands out plain generators."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.draws = dict.fromkeys(DRAW_KINDS, 0)

    def generator(self, seed: int, stream: int) -> np.random.Generator:
        rng = skeleton.RngStream(seed, stream).generator()
        return CountingGenerator(rng, self.draws) if self.enabled else rng

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str):
        i = len(self.spans)
        self.spans.append([name, clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[i][2] = clock()

    def instrument(self) -> None:
        """Wrap every function in LAYERS in a span (traced runs only)."""
        if not self.enabled:
            return
        for module, attr, name in LAYERS:
            setattr(module, attr, self._wrap(name, getattr(module, attr)))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] -= end - start
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)
