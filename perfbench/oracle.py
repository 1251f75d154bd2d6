"""The verdict oracle: what every model the benchmark verifies must yield.

Each entry holds the exact state, edge and BFS-level counts of the model's
state space and the properties it violates; every other property holds.
Every request of every workload is checked against it, whichever surface
answered (a ``Verifier`` summary, CLI output, a job verdict over HTTP).
The check functions return a list of problems, empty when the answer is
right.
"""

import re

#: The five properties of ``Verifier.verify_all``, in its order.
ALL_PROPERTIES = ("safeness", "deadlock", "mismatch", "exclusion", "persistence")
#: The default battery of a campaign job (no persistence).
JOB_PROPERTIES = ("safeness", "deadlock", "mismatch", "exclusion")

#: How ``VerificationSummary.report`` names each property.
REPORT_NAMES = {
    "safeness": "1-safeness",
    "deadlock": "deadlock freedom",
    "mismatch": "control-token mismatch",
    "exclusion": "token-value exclusion",
    "persistence": "persistence",
}


class Model:
    def __init__(self, key, factory, kwargs, states, edges, levels, violated=()):
        self.key = key
        self.factory = factory
        self.kwargs = kwargs
        self.states = states
        self.edges = edges
        self.levels = levels
        self.violated = frozenset(violated)

    def holds(self, prop):
        return prop not in self.violated


MODELS = {model.key: model for model in (
    Model("conditional", "conditional", {}, 39, 58, 16),
    Model("conditional-2", "conditional", {"comp_stages": 2}, 51, 78, 20),
    Model("conditional-3", "conditional", {"comp_stages": 3}, 63, 98, 24),
    Model("ring", "ring", {}, 48, 80, 21),
    Model("ring-6", "ring", {"registers": 6}, 120, 216, 33),
    Model("ring-5x2", "ring", {"registers": 5, "tokens": 2}, 86, 157, 24,
          violated=("persistence",)),
    Model("ope2s_p1", "pipeline", {"stages": 2, "static_prefix": 1},
          1932, 6390, 58),
    Model("ope2s_p1_hole2", "pipeline",
          {"stages": 2, "static_prefix": 1, "holes": [2]}, 1488, 4900, 49),
    Model("ope3s_p1_hole2", "pipeline",
          {"stages": 3, "static_prefix": 1, "holes": [2]}, 1904, 7808, 26,
          violated=("deadlock",)),
    Model("ope3s_p2", "pipeline", {"stages": 3, "static_prefix": 2},
          8916, 34380, 82),
    Model("ope3s_p2_hole3", "pipeline",
          {"stages": 3, "static_prefix": 2, "holes": [3]}, 7716, 30364, 73),
    Model("ope3s_p1", "pipeline", {"stages": 3, "static_prefix": 1},
          191052, 994212, 115),
    Model("ope4s_p2", "pipeline", {"stages": 4, "static_prefix": 2},
          855252, 4991184, 144),
)}


def check_results(model, state_count, truncated, results, exploration):
    """Check ``verify_all``: one ``VerificationResult`` per property, in order."""
    problems = _check_counts(model, state_count, truncated, exploration)
    if len(results) != len(ALL_PROPERTIES):
        return problems + ["{} results for {} properties".format(
            len(results), len(ALL_PROPERTIES))]
    for prop, result in zip(ALL_PROPERTIES, results):
        problems += _check_property(model, prop, result.holds,
                                    result.first_trace())
    return problems


def check_verdict(model, verdict, exploration=None):
    """Check a campaign job verdict (the dict a job run or the service returns)."""
    properties = JOB_PROPERTIES
    if not isinstance(verdict, dict):
        return ["no verdict"]
    problems = _check_counts(model, verdict.get("state_count"),
                             verdict.get("truncated"), exploration)
    records = verdict.get("properties") or []
    if [record.get("property") for record in records] != list(properties):
        return problems + ["verdict covers {}".format(
            [record.get("property") for record in records])]
    for prop, record in zip(properties, records):
        problems += _check_property(model, prop, record.get("holds"),
                                    record.get("trace"))
    expected_pass = all(model.holds(prop) for prop in properties)
    if verdict.get("passed") is not expected_pass:
        problems.append("passed={!r}".format(verdict.get("passed")))
    return problems


_HEADER = re.compile(r"^Verification of '[^']*' \((\d+) reachable states(, truncated)?\)")
_LINE = re.compile(r"^  \[(.{4})\] (.+?)(?: \[\w+\])? -- ")


def check_cli(model, returncode, output):
    """Check the output and exit code of ``repro-dfs verify``."""
    lines = output.splitlines()
    problems = []
    header = _HEADER.match(lines[0]) if lines else None
    if header is None:
        return ["no report header in {!r}".format(output[:200])]
    if int(header.group(1)) != model.states or header.group(2):
        problems.append("header {!r}".format(lines[0]))
    statuses = {}
    counterexample_after = set()
    for index, line in enumerate(lines[1:], start=1):
        match = _LINE.match(line)
        if match:
            statuses[match.group(2)] = match.group(1)
            following = lines[index + 1] if index + 1 < len(lines) else ""
            if following.strip().startswith("counterexample:"):
                counterexample_after.add(match.group(2))
    for prop in ALL_PROPERTIES:
        name = REPORT_NAMES[prop]
        expected = "OK  " if model.holds(prop) else "FAIL"
        if statuses.get(name) != expected:
            problems.append("{}: {!r}".format(name, statuses.get(name)))
        elif not model.holds(prop) and name not in counterexample_after:
            problems.append("{}: no counterexample".format(name))
    expected_code = 0 if all(model.holds(prop) for prop in ALL_PROPERTIES) else 1
    if returncode != expected_code:
        problems.append("exit code {} (expected {})".format(returncode, expected_code))
    return problems


def _check_counts(model, state_count, truncated, exploration):
    problems = []
    if state_count != model.states:
        problems.append("{} states (expected {})".format(state_count, model.states))
    if truncated:
        problems.append("truncated")
    if exploration is not None:
        for key, expected in (("states", model.states), ("edges", model.edges),
                              ("levels", model.levels)):
            if exploration.get(key) != expected:
                problems.append("exploration {}={!r} (expected {})".format(
                    key, exploration.get(key), expected))
    return problems


def _check_property(model, prop, holds, trace):
    expected = model.holds(prop)
    if holds is not expected:
        return ["{} holds={!r} (expected {})".format(prop, holds, expected)]
    if not expected and not trace:
        return ["{} violated without a witness trace".format(prop)]
    return []
