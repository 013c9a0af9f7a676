"""Output checks behind ``ok_frac``.

Every analysis the benchmark times is reduced to a :class:`Digest`: γ,
the per-Δ selection scores, and a hash of the full ``repro analyze``
text (``render_analysis``, which also carries the companion measures'
columns).  Checks compare digests:

* against ``reference.json`` — values recorded once, untimed, with the
  legacy per-source scan kernel as the oracle (``record_reference.py``)
  for the seeds it lists;
* across repetitions of the same analysis within a run (any seed);
* between an append-then-analyze result and a from-scratch analysis of
  the grown stream;
* between the daemon's response text and offline ``render_analysis``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Digest:
    gamma: str
    deltas: tuple[str, ...]
    scores: tuple[str, ...]
    text_sha256: str

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "deltas": list(self.deltas),
            "scores": list(self.scores),
            "text_sha256": self.text_sha256,
        }

    @classmethod
    def from_json(cls, record: dict) -> "Digest":
        return cls(
            record["gamma"],
            tuple(record["deltas"]),
            tuple(record["scores"]),
            record["text_sha256"],
        )


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(report) -> Digest:
    """Exact (``repr``) digest of a :class:`~repro.core.StreamReport`."""
    from repro.reporting import render_analysis

    saturation = report.saturation
    method = saturation.method
    return Digest(
        gamma=repr(float(saturation.gamma)),
        deltas=tuple(repr(float(p.delta)) for p in saturation.points),
        scores=tuple(repr(float(p.scores[method])) for p in saturation.points),
        text_sha256=text_digest(render_analysis(report)),
    )


def load_reference() -> dict:
    """``{seed: {analysis name: Digest}}`` from ``reference.json``."""
    if not REFERENCE_PATH.exists():
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        raw = json.load(handle)
    return {
        int(seed): {name: Digest.from_json(rec) for name, rec in entries.items()}
        for seed, entries in raw["seeds"].items()
    }


class Checker:
    """Tallies attempted and failed operations with their reasons."""

    def __init__(self, seed: int) -> None:
        self.reference = load_reference().get(seed, {})
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def reference_ok(self, name: str, value: Digest) -> bool:
        """True when ``name`` has no reference for this seed or matches it."""
        expected = self.reference.get(name)
        return expected is None or expected == value

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / max(self.attempted, 1)
