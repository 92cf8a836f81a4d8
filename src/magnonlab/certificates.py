"""Named numerical certificates for operator and free-energy inequalities.

A certificate records the computed slack of one inequality (the minimum
eigenvalue of a difference operator, or the margin of a scalar bound),
the tolerance it was held to, and the verdict.  Slack is the scientific
output; pass/fail is derived, never asserted separately.

The suite names and the default root seed live here, not in `checks`,
so the command line can list them without importing the solvers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 20260811
# The names of the suites in `checks.CHECKS`, sorted.
CHECK_NAMES = ("casimir", "density", "laplacian", "localization", "php-leq-t", "su2",
               "subadditivity", "truncation", "vnorm")


@dataclass
class InequalityCertificate:
    name: str
    params: dict
    slack: float
    tolerance: float
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "pass" if self.slack >= -self.tolerance else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_record(self) -> dict:
        """The ledger row, with each non-finite float as a string (`_json_number`)."""
        rec = {
            "name": self.name,
            "params": {k: _json_number(v) for k, v in self.params.items()},
            "slack": _json_number(self.slack),
            "tolerance": _json_number(self.tolerance),
            "verdict": self.verdict,
            "seed": self.seed,
        }
        if self.extras:
            rec["extras"] = {k: _json_number(v) for k, v in self.extras.items()}
        return rec

    def to_json(self) -> str:
        """One line of strict JSON; raises ValueError on a NaN or inf left in it."""
        return json.dumps(self.to_record(), sort_keys=True, allow_nan=False)


def _json_number(value):
    """A NaN or infinite float as the string "nan", "inf" or "-inf", which
    strict JSON can hold (`json.dumps` would write NaN or Infinity); any
    other value unchanged."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    return value


def write_certificate_ledger(certificates, path) -> None:
    """Write certificates as JSON lines, one per row, in input order."""
    with open(path, "w") as fh:
        for cert in certificates:
            fh.write(cert.to_json() + "\n")


def worst(items, key=float):
    """The item of smallest `key(item)` (its slack), the first one on ties.

    A NaN slack counts as the worst, so it reaches the certificate and
    fails it; Python's `min` would drop it (`min(inf, nan)` is inf).
    """
    items = list(items)
    return items[int(np.argmin([key(item) for item in items]))]
