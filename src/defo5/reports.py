"""Structured verification reports.

Every CLI subcommand produces a Report; the JSON rendering is the stable
machine-readable contract (golden-filed in the tests), and any human-readable
output is derived from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"

_VERDICTS = (VERDICT_PASS, VERDICT_FAIL)


@dataclass
class Report:
    command: str
    params: dict
    verdict: str
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    elapsed_ms: float = 0.0
    version: str = "0"

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"verdict must be one of {_VERDICTS}")

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_PASS

    def to_json(self, indent=2) -> str:
        # the fields hold only JSON values; a deep copy by dataclasses.asdict
        # would cost more than the dump (0.3 s on a 4 MB universality report)
        return json.dumps(vars(self), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls(**json.loads(text))

    def summary_line(self) -> str:
        return f"[{self.verdict.upper()}] {self.command} ({self.elapsed_ms:.0f} ms)"
