"""Spans and counters around calls into mubsic's layers, set from outside.

``Tracer.installed()`` replaces module attributes of mubsic with timing
wrappers and restores them on exit; nothing under ``src/`` is edited.
Each span records name, start, end, parent span and a request id
``(workload, cell, sample)``.  Self time (duration minus the part covered
by child spans) is summed per layer as spans close, so every span counts
exactly; the first ``MAX_SPANS`` spans are also kept for the trace file.
The outermost span is the benchmark's call into the ``cli`` layer, so the
layers' self times add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

from mubsic import bounds, cli, entanglement, states

ENTROPY_FUNCTIONS = (
    "renyi",
    "tsallis",
    "symmetrized",
    "index_of_coincidence",
    "alpha_log",
    "binary_tsallis",
    "max_prob_bound",
)

# (module, attribute, layer): each attribute is wrapped in a timed span
SPANS = (
    (cli, "stream", "states.stream"),
    (cli, "random_mixed", "states.sample"),
    (states, "DensityMatrix", "states.validate"),  # as called from random_mixed
    (cli, "DensityMatrix", "states.validate"),  # ENT-G product states
    (cli, "kron", "linalg.kron"),
    (cli, "mub_construct", "measurements.construct"),
    (cli, "sic_from_fiducial", "measurements.construct"),
    (cli, "SicPovm", "measurements.construct"),
    (bounds, "probabilities", "measurements.probabilities"),
    (bounds, "distort", "measurements.probabilities"),
    *((bounds, name, "entropy") for name in ENTROPY_FUNCTIONS),
    (bounds, "check_bound", "bounds.check_bound"),
    (entanglement, "product_sic_povm", "entanglement"),
    (entanglement, "correlation_G", "entanglement"),
    (cli, "_write_report", "cli.write"),
)
# (module, attribute, layer): calls are counted, not timed
COUNTS = (
    (cli, "purity", "states.purity"),
    (bounds, "purity", "states.purity"),
)
MAX_SPANS = 20000  # spans kept for the trace file
SPAN_FIELDS = ("id", "name", "start_s", "end_s", "parent", "workload", "cell", "sample")


class Tracer:
    """In-memory span recorder; one per traced benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.self_s = defaultdict(float)  # layer -> summed self time
        self.calls = Counter()  # layer -> calls
        self.spans = []  # the first MAX_SPANS spans, as SPAN_FIELDS tuples
        self.n_spans = 0
        self.request = (workload, None, None)
        self._unit = ""
        self._stack = []  # open spans: [id, child coverage]

    def begin_unit(self, tag: str) -> None:
        """Start a new unit of work; its spans get request ids under ``tag``."""
        self._unit = tag
        self.request = (self.workload, tag, None)

    def span(self, name: str, layer: str, fn):
        """Wrap ``fn`` so each call records one span in ``layer``."""
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self.n_spans
            self.n_spans += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.self_s[layer] += dur - frame[1]
                self.calls[layer] += 1
                parent = None
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, name, start, end, parent, *self.request))

        return traced

    def _stream(self, fn):
        traced = self.span("cli.stream", "states.stream", fn)

        def keyed(seed, *stream_id):
            # a row stream (seed, di, pi, ai, sample) names the row being checked
            if len(stream_id) == 4:
                di, pi, ai, sample = stream_id
                self.request = (self.workload, f"{self._unit}/{di}.{pi}.{ai}", sample)
            return traced(seed, *stream_id)

        return keyed

    def _count(self, layer: str, fn):
        def counted(*args, **kwargs):
            self.calls[layer] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced attributes for the duration of the block."""
        saved = []
        try:
            for module, attr, layer in SPANS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if (module, attr) == (cli, "stream"):
                    wrapped = self._stream(fn)
                else:
                    wrapped = self.span(f"{module.__name__.split('.')[-1]}.{attr}", layer, fn)
                setattr(module, attr, wrapped)
            for module, attr, layer in COUNTS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._count(layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
