"""Outside-in tracer: wraps public monoconv callables without editing them.

Each boundary is patched in every ``monoconv.*`` module namespace that holds
the original object (``cli`` and ``convolution`` bind some functions by name,
so patching only the defining module would miss their calls), and methods
are patched on their classes.  ``restore`` puts every original back.

Spans are recorded only while a job id is set, so checks and set-up that
call the same functions stay out of the per-layer numbers.  Spans live in
compact in-memory columns until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

BOUNDARIES = (
    "cli.main",
    "series.TruncatedSeries.compose",
    "series.TruncatedSeries.reciprocal",
    "measure.k_transform",
    "measure.moments_from_k",
    "measure.validate_k",
    "measure.KTransform.eval",
    "measure.KTransform.derivative_eval",
    "convolution.monotone_convolve",
    "convolution.affine_mixture_convolve",
    "generator.HerglotzGenerator.vector_field_at",
    "semigroup.evolve_pointwise",
    "semigroup.flow_coefficients",
    "semigroup.first_moment_law",
    "semigroup.semigroup_defect",
    "embedding.embedding_test",
    "branching.BranchingGenerator.vector_field_at",
    "branching.yule_flow",
    "branching.simulate_gw",
    "branching.OffspringLaw.phi_iterate",
    "opmodel.random_composition_suite",
    "opmodel.k_operator",
    "opmodel.spectral_norm",
    "opmodel.sandwich_counterexample",
    "cfree.CFreeEvaluator.eval",
    "cfree.monotone_eval",
    "cfree.monotone_specialization_defect",
)


class Tracer:
    """Per-boundary calls, total and self time, plus the raw spans.

    Use as a context manager: entering patches, leaving restores.  Set
    ``job`` to the running job's id to record; -1 passes calls through.
    """

    def __init__(self):
        self.names = BOUNDARIES
        n = len(self.names)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.job = -1
        # span columns; span i has boundary index name[i] and parent span
        # index parent[i] (-1 for a top-level span of its job)
        self.span_name = array("l")
        self.span_job = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by child spans]
        self._patches = []

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        for idx, dotted in enumerate(self.names):
            module_name, *attrs = dotted.split(".")
            module = importlib.import_module(f"monoconv.{module_name}")
            if len(attrs) == 1:
                original = getattr(module, attrs[0])
                wrapper = self._wrap(idx, original)
                for mod in _monoconv_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
            else:
                cls = getattr(module, attrs[0])
                self._patch(cls, attrs[1], self._wrap(idx, cls.__dict__[attrs[1]]))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, idx, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_job.append(tracer.job)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_end[span] = end
                duration = end - start
                tracer.calls[idx] += 1
                tracer.total_s[idx] += duration
                tracer.self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    # -- results -----------------------------------------------------------

    def metrics(self, per: float = 1.0) -> dict:
        """``<boundary>.calls``, ``.total_s`` and ``.self_s``, divided by ``per``."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i] / per
            out[f"{name}.total_s"] = self.total_s[i] / per
            out[f"{name}.self_s"] = self.self_s[i] / per
        return out

    def save_spans(self, path):
        """Write the spans as a compressed ``.npz`` with a boundary-name table."""
        columns = {
            "name": self.span_name,
            "job": self.span_job,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
        }
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{key: np.frombuffer(col, dtype=np.dtype(col.typecode)) for key, col in columns.items()},
        )


def _monoconv_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "monoconv" or name.startswith("monoconv."))]
