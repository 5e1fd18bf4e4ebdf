"""Deterministic pass/fail reports shared by the verification entry points."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str
    witness: Optional[str] = None
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "witness": self.witness,
            "seed": self.seed,
        }


def verdict(name: str, witness: Optional[str]) -> CheckRecord:
    """A PASS record when there is no witness, else a FAIL record with it."""
    return CheckRecord(name, PASS if witness is None else FAIL, witness)


@dataclass(frozen=True)
class Report:
    records: Tuple[CheckRecord, ...]

    @staticmethod
    def of(records) -> "Report":
        return Report(tuple(records))

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.records)

    def sorted_records(self):
        return sorted(self.records, key=lambda r: r.name)

    def merged(self, other: "Report", prefix: str = "") -> "Report":
        extra = tuple(
            CheckRecord(prefix + r.name, r.status, r.witness, r.seed)
            for r in other.records
        )
        return Report(self.records + extra)

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.sorted_records()],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        for r in self.sorted_records():
            line = f"{r.status.upper():<4} {r.name}"
            if r.seed is not None:
                line += f" [seed {r.seed}]"
            if r.witness:
                line += f" -- {r.witness}"
            lines.append(line)
        lines.append(f"{'OK' if self.passed else 'FAILED'} ({len(self.records)} checks)")
        return "\n".join(lines) + "\n"
