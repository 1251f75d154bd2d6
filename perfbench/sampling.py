"""Sample statistics and the guards that keep end-to-end metrics honest.

Three rules are enforced here rather than left to each workload:

* a tail percentile needs at least ten samples beyond it
  (:func:`tail`, which refuses otherwise);
* a latency metric covers one class of request only, never warm and cold
  together (:class:`Requests`, whose :meth:`Requests.latencies` takes a
  single class);
* no metric is set by the load schedule: every timing metric is computed
  from measured durations (:func:`end_to_end`), and the benchmark's tests
  run each workload's loop against a fake system at two speeds;
  :func:`schedule_fixed` names any timing metric that did not follow the
  system, as a wall-clock total of the run would not.
"""

import statistics
import time

#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


class TooFewSamples(ValueError):
    """A statistic was asked of fewer samples than it needs."""


class MixedClasses(ValueError):
    """Latency samples of different request classes were pooled."""


def median(values):
    values = list(values)
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        raise TooFewSamples("quartiles need two samples, got {}".format(len(values)))
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least *beyond* samples above it.

    Returns ``(value, percentile, count)``: the order statistic at index
    ``n - beyond - 1`` of the sorted samples, the share of samples at or
    below it (in percent), and the sample count.  Raises
    :class:`TooFewSamples` when there are ``beyond`` samples or fewer.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= beyond:
        raise TooFewSamples(
            "a tail needs more than {} samples, got {}".format(beyond, count))
    index = count - beyond - 1
    return ordered[index], 100.0 * (index + 1) / count, count


class Requests:
    """Every request a run attempted: its class, latency, work and verdict."""

    def __init__(self):
        self.records = []

    def add(self, cls, latency, ok, states=0):
        self.records.append({"cls": cls, "latency": float(latency),
                             "ok": bool(ok), "states": int(states)})

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for record in self.records if not record["ok"])

    def latencies(self, cls):
        """The latencies of one request class (a string, never a tuple)."""
        if not isinstance(cls, str):
            raise MixedClasses(
                "latency metrics cover one request class, got {!r}".format(cls))
        return [record["latency"] for record in self.records if record["cls"] == cls]


def end_to_end(requests, latency_class, throughput, setup_samples, peak_rss_kb):
    """Every end-to-end metric of a run, from measured quantities only.

    *throughput* is ``{"jobs": n, "jobs_s": seconds, "states": n,
    "states_s": seconds}``: work done and the measured time it took.
    Returns ``(metrics, notes)``; *notes* records the tail's percentile and
    sample count beside it.
    """
    latencies = requests.latencies(latency_class)
    tail_value, percentile, count = tail(latencies)
    attempted = requests.attempted
    metrics = {
        "setup_s": (median(setup_samples), "s"),
        "ok_share": ((attempted - requests.failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "latency_p50_s": (median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "states_per_s": (throughput["states"] / throughput["states_s"], "states/s"),
        "jobs_per_s": (throughput["jobs"] / throughput["jobs_s"], "jobs/s"),
    }
    notes = {"latency_class": latency_class, "tail_percentile": percentile,
             "latency_samples": count}
    return metrics, notes


def closed_loop(plan, run_item, seconds, min_samples=0):
    """Run the items of *plan* back to back until *seconds* have passed.

    One client: the next item starts only when the previous one is done.
    An item is a request or a whole round of them; *run_item* executes it
    and returns how many latency samples it produced.  The loop also goes
    on until *min_samples* samples exist, so a slow box still yields
    enough for the tail.
    """
    started = time.perf_counter()
    samples = 0
    for item in plan:
        if time.perf_counter() - started >= seconds and samples >= min_samples:
            break
        samples += run_item(item)


def schedule_fixed(metrics, slower_metrics, factor, tolerance=0.2):
    """Timing metrics that did not follow a system *factor* times slower.

    *metrics* and *slower_metrics* are ``{name: (value, unit)}`` from the
    same schedule against a system and the same system slowed by *factor*.
    A duration (unit ``s``) must grow by *factor*, a rate (``.../s``)
    shrink by it, each within *tolerance*; a metric that stays put is set
    by the schedule, not measured.  Other units are not timings.
    """
    fixed = []
    for name, (value, unit) in metrics.items():
        if unit == "s":
            expected = factor
        elif unit.endswith("/s"):
            expected = 1.0 / factor
        else:
            continue
        ratio = slower_metrics[name][0] / value
        if abs(ratio / expected - 1.0) > tolerance:
            fixed.append(name)
    return fixed
