"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field


def peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Outcome:
    """Counts, metrics and checks of one run of one workload.

    ``metrics`` maps a metric name to its value (units come from
    ``BENCHMARK.json``); ``report`` is
    free-form detail (request accounting per phase, sample counts,
    timings excluded from set-up) printed beside the result.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: object = None) -> None:
        """Record one output check; any failed check fails the run."""
        self.checks[name] = bool(ok)
        if detail is not None:
            self.report.setdefault("check_detail", {})[name] = detail

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())
