"""The state one benchmark run carries: seed, clock budget, tallies, layers."""

import random

from sampling import Requests
from spans import Tracer

#: Failure messages printed per run; the rest are only counted.
MAX_REPORTED = 10


class Run:
    """One run of one workload.

    ``requests`` tallies every request with its verdict check; ``samples``
    and ``counts`` collect per-layer values that are not spans (engine
    phases read from the public ``exploration`` stats, ticket timestamps,
    exact work counts); ``health`` records how the load generator itself
    behaved.  ``tracer`` is ``None`` on untraced runs.
    """

    def __init__(self, workload, seed, seconds, traced):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random("{}:{}".format(workload, seed))
        self.tracer = Tracer() if traced else None
        self.requests = Requests()
        self.samples = {}
        self.counts = {}
        self.health = {}
        self.problems = []
        self.failures = []

    @property
    def traced(self):
        return self.tracer is not None

    @property
    def correct(self):
        return self.requests.failed == 0 and not self.failures

    def sharing(self, seconds):
        """A run over the same tallies and tracer, with its own clock and health."""
        other = Run(self.workload, self.seed, seconds, False)
        for name in ("rng", "tracer", "requests", "samples", "counts", "problems",
                     "failures"):
            setattr(other, name, getattr(self, name))
        return other

    def record(self, cls, latency, problems, states=0):
        """Tally one request; *problems* is the oracle's list for it."""
        self.requests.add(cls, latency, not problems, states)
        if problems and len(self.problems) < MAX_REPORTED:
            self.problems.append("{} request: {}".format(cls, "; ".join(problems)))

    def fail(self, message):
        """A check of the run itself failed (not a request)."""
        self.failures.append(message)
        self.problems.append(message)

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def count(self, name, value):
        """Record an exact count; a second, different value is a drift."""
        previous = self.counts.setdefault(name, value)
        if previous != value:
            self.fail("count {} drifted within the run: {} then {}".format(
                name, previous, value))
