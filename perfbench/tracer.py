"""Per-layer spans recorded from outside the program.

``Tracer`` replaces public functions and methods of the shellwalk modules
with timing wrappers for the duration of a ``with`` block and restores the
originals on exit. Nothing under ``src/`` is edited: the wrappers sit on
class attributes (``WeightedIndexTree.update``) and on module globals that
other modules call through (``samplers.make_sampler``, ``oracle.path_log_prob``).

Each span name gets a call count and the total inclusive wall time. Calls
made while an ``ImSampler.step`` is open are also counted per walk move, and
engine flips made inside a step but outside ``run_walks`` are counted as
replays of a rejected move.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from shellwalk import model, oracle, samplers, saw_proposal, weighted_index

# (owner, attribute, span name) for the full trace
LAYER_SPANS = (
    (weighted_index.WeightedIndexTree, "update", "weighted_index.update"),
    (weighted_index.WeightedIndexTree, "sample", "weighted_index.sample"),
    (model.ShellState, "flip", "model.state_flip"),
    (model.ShellState, "copy", "model.state_copy"),
    (saw_proposal.TreeWalkEngine, "__init__", "saw_proposal.engine_build"),
    (saw_proposal.ScanWalkEngine, "__init__", "saw_proposal.engine_build"),
    (saw_proposal.TreeWalkEngine, "sample", "saw_proposal.engine_sample"),
    (saw_proposal.ScanWalkEngine, "sample", "saw_proposal.engine_sample"),
    (saw_proposal.TreeWalkEngine, "log_prob", "saw_proposal.engine_log_prob"),
    (saw_proposal.ScanWalkEngine, "log_prob", "saw_proposal.engine_log_prob"),
    (saw_proposal.TreeWalkEngine, "flip", "saw_proposal.engine_flip"),
    (saw_proposal.ScanWalkEngine, "flip", "saw_proposal.engine_flip"),
    (oracle, "path_log_prob", "oracle.path_log_prob"),
)

ENGINE_FLIP = "saw_proposal.engine_flip"
REPLAY_FLIP = "saw_proposal.replay_flip"
WALK_STEP = "samplers.walk_step"
METROPOLIS_STEP = "samplers.metropolis_step"
STEP_OUTCOMES = {True: "accepted", False: "rejected"}


class Tracer:
    """Span counts and inclusive seconds per name, installed as a context.

    With ``full=False`` only sampler construction is timed, which costs one
    wrapper call per chain and leaves the hot loop untouched.
    """

    def __init__(self, full):
        self.full = full
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.walk_calls = Counter()
        self.sampler_builds = []
        self._in_step = False
        self._in_walks = False
        self._saved = []

    def __enter__(self):
        self._patch(samplers, "make_sampler", self._timed_build)
        if self.full:
            for owner, attr, name in LAYER_SPANS:
                self._patch(owner, attr, lambda fn, name=name: self._span(fn, name))
            self._patch(samplers.ImSampler, "step",
                        lambda fn: self._step(fn, WALK_STEP, walk=True))
            self._patch(samplers.MetropolisSampler, "step",
                        lambda fn: self._step(fn, METROPOLIS_STEP, walk=False))
            self._patch(samplers, "run_walks", self._run_walks)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _record(self, name, elapsed):
        self.calls[name] += 1
        self.seconds[name] += elapsed
        if self._in_step:
            self.walk_calls[name] += 1

    def _span(self, fn, name):
        record = self._record
        clock = time.perf_counter
        replay_check = name == ENGINE_FLIP

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, clock() - start)
                if replay_check and self._in_step and not self._in_walks:
                    self.walk_calls[REPLAY_FLIP] += 1
        return traced

    def _timed_build(self, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.sampler_builds.append(time.perf_counter() - start)
        return traced

    def _step(self, fn, base, walk):
        """Time one sampler step under ``<base>.accepted`` or ``.rejected``."""
        def traced(sampler):
            start = time.perf_counter()
            self._in_step = walk
            accepted = None
            try:
                accepted, outcome = fn(sampler)
                return accepted, outcome
            finally:
                self._in_step = False
                name = f"{base}.{STEP_OUTCOMES.get(accepted, 'raised')}"
                self.calls[name] += 1
                self.seconds[name] += time.perf_counter() - start
        return traced

    def _run_walks(self, fn):
        def traced(*args, **kwargs):
            self._in_walks = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_walks = False
        return traced

    def steps(self, base):
        return self.calls[f"{base}.accepted"] + self.calls[f"{base}.rejected"]

    def acceptance(self, base):
        steps = self.steps(base)
        return self.calls[f"{base}.accepted"] / steps if steps else 0.0

    def mean_us(self, *names):
        """Mean inclusive microseconds per call; 0 when never called."""
        calls = sum(self.calls[name] for name in names)
        return 1e6 * sum(self.seconds[name] for name in names) / calls if calls else 0.0

    def per_walk_move(self, name):
        steps = self.steps(WALK_STEP)
        return self.walk_calls[name] / steps if steps else 0.0
