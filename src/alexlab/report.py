"""Experiment reports: named inequality checks with measured slack."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError

SCHEMA_VERSION = 1


@dataclass
class ExperimentReport:
    """Outcome of one inequality experiment.

    slacks are signed; a value >= -tolerance counts as satisfied, and the
    report passes iff the minimum slack does.  fitted holds empirical
    constants (regression surrogates, never asserted as the sharp ones);
    meta records discretization choices that shaped the tolerance.
    """

    name: str
    params: dict
    slacks: list[float]
    tolerance: float
    passed: bool
    fitted: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        meta = dict(self.meta)
        meta.setdefault("schema_version", SCHEMA_VERSION)
        return {
            "name": self.name,
            "params": _plain(self.params),
            "slacks": [float(s) for s in self.slacks],
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "fitted": _plain(self.fitted),
            "meta": _plain(meta),
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


def make_report(name, params, slacks, tolerance, fitted=None,
                meta=None) -> ExperimentReport:
    """Assemble a report enforcing the pass <=> min slack >= -tolerance rule."""
    if not tolerance >= 0:
        raise DomainError(f"tolerance must be nonnegative, got {tolerance}")
    slacks = [float(s) for s in np.atleast_1d(np.asarray(slacks, dtype=float))]
    ok = not slacks or min(slacks) >= -tolerance
    return ExperimentReport(
        name=name,
        params=_plain(params),
        slacks=slacks,
        tolerance=float(tolerance),
        passed=ok,
        fitted=_plain(fitted or {}),
        meta=_plain(meta or {}),
    )


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json serialization works."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj
