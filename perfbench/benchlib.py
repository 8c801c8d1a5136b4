"""Pure helpers of the Geyser benchmark: reading BENCHMARK.json, percentile
selection, quartile spreads, the bound comparison and the attempted/failed
tally. run.py and sets.py use them; test_benchlib.py tests them."""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}


class SpecError(ValueError):
    """BENCHMARK.json is missing, malformed or outside its limits."""


def load_spec(path):
    """Read and validate BENCHMARK.json; return it as a dict."""
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise SpecError(f"cannot read {path}: {e}") from e
    return validate_spec(spec)


def validate_spec(spec):
    """Check a parsed BENCHMARK.json against its limits; return it."""
    if not isinstance(spec, dict) or set(spec) != TOP_KEYS:
        raise SpecError(f"keys must be exactly {sorted(TOP_KEYS)}")
    seconds = spec["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) \
            or not 1 <= seconds <= 60:
        raise SpecError("run_seconds must be a whole number in [1, 60]")
    names = set()

    def check_name(name):
        if not isinstance(name, str) or not NAME_RE.match(name):
            raise SpecError(f"bad name {name!r}")
        if name in names:
            raise SpecError(f"name {name!r} used twice")
        names.add(name)

    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        raise SpecError("need 2 to 8 workloads")
    for w in workloads:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            raise SpecError(f"workload {w!r} needs exactly name and why")
        check_name(w["name"])
        if not isinstance(w["why"], str) or "\n" in w["why"] \
                or len(w["why"]) > 200:
            raise SpecError(f"workload {w['name']}: why must be one line")
    for key, keys, limit in (("end_to_end", {"name", "unit", "better",
                                             "bound"}, 16),
                             ("per_layer", {"name", "unit", "better"}, 128)):
        metrics = spec[key]
        if not isinstance(metrics, list) or not 1 <= len(metrics) <= limit:
            raise SpecError(f"{key} needs 1 to {limit} metrics")
        for m in metrics:
            if not isinstance(m, dict) or set(m) != keys:
                raise SpecError(f"{key} metric {m!r} needs keys {sorted(keys)}")
            check_name(m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                raise SpecError(f"metric {m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                raise SpecError(f"metric {m['name']}: better must be "
                                "lower or higher")
            if key == "end_to_end":
                bound = m["bound"]
                if not isinstance(bound, (int, float)) \
                        or isinstance(bound, bool) or not 0 < bound <= 0.25:
                    raise SpecError(f"metric {m['name']}: bound must be in "
                                    "(0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise SpecError("end_to_end must have setup_s in s, lower better")
    return spec


def percentile(values, q):
    """Nearest-rank q-quantile: the sample at rank ceil(q * n), 1-based."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n)) if n else 0


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, as statistics.quantiles(values, n=4) gives the quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def regressed(base_median, new_median, better, bound):
    """True when new_median is worse than base_median by more than
    bound (a share of base_median) in the metric's better direction."""
    if better == "lower":
        return new_median > base_median * (1.0 + bound)
    return new_median < base_median * (1.0 - bound)


class Tally:
    """Attempted and failed operations of a run, summed over its parts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        if not 0 <= failed <= attempted:
            raise ValueError(f"failed {failed} outside [0, {attempted}]")
        self.attempted += attempted
        self.failed += failed

    def share(self):
        return self.failed / self.attempted if self.attempted else 0.0
