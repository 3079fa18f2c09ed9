"""Committed baseline of accepted findings, with staleness enforcement.

A baseline entry grandfathers one *justified* finding: rule id, path, the
stripped source line it anchors to (its snippet), the line where that
snippet stood when the entry was written, and a written justification.
An entry matches on rule, path and snippet, so an edit that only moves
the line keeps it valid; the contract is otherwise strict so the baseline
can never rot silently:

* every entry must carry a non-empty ``justification`` — an unjustified
  entry invalidates the whole baseline (exit code 2);
* an entry whose file is gone, or whose snippet is no longer a line of the
  file, is **stale** and fails the run (the referenced line no longer
  exists);
* each entry accepts at most one finding, so a second identical finding
  stays live;
* an entry that no longer matches any live finding is equally stale — the
  violation was fixed, so the baseline slot must go.

``--update-baseline`` rewrites the file from the current findings,
recording each finding's current line and preserving justifications of
surviving entries, and inserts a ``TODO: justify`` placeholder (which
itself fails validation) for new ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

__all__ = ["BaselineEntry", "Baseline", "DEFAULT_BASELINE_PATH"]

#: Repository-root baseline file the CLI picks up by default.
DEFAULT_BASELINE_PATH = "analysis-baseline.json"

#: Placeholder ``--update-baseline`` writes for entries that still need a
#: human justification; validation rejects it so CI fails until it is
#: replaced with a real sentence.
TODO_JUSTIFICATION = "TODO: justify"


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    line: int
    snippet: str
    justification: str

    def key(self) -> Tuple[str, str, int, str]:
        return (self.rule, self.path, self.line, self.snippet)

    def anchor(self) -> Tuple[str, str, str]:
        """What a finding must share to be accepted: rule, path and snippet."""
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "snippet": self.snippet,
            "justification": self.justification,
        }


class Baseline:
    """An ordered set of baseline entries plus matching/staleness logic."""

    def __init__(self, entries: Sequence[BaselineEntry] = ()):
        self.entries: List[BaselineEntry] = list(entries)

    # ----------------------------------------------------------------- io
    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or not isinstance(data.get("findings"), list):
            raise ValueError(f"{path}: baseline must be an object with a 'findings' list")
        entries = []
        for raw in data["findings"]:
            if not isinstance(raw, dict):
                raise ValueError(f"{path}: baseline entries must be objects")
            try:
                entries.append(
                    BaselineEntry(
                        rule=str(raw["rule"]),
                        path=str(raw["path"]).replace(os.sep, "/"),
                        line=int(raw["line"]),
                        snippet=str(raw["snippet"]),
                        justification=str(raw.get("justification", "")),
                    )
                )
            except KeyError as exc:
                raise ValueError(f"{path}: baseline entry missing field {exc}")
        return cls(entries)

    def save(self, path: str) -> None:
        payload = {
            "version": 1,
            "comment": (
                "Accepted repro.analysis findings. Every entry needs a written "
                "justification; entries referencing lines that no longer exist "
                "fail the run."
            ),
            "findings": [entry.to_dict() for entry in self.entries],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    # ----------------------------------------------------------- validation
    def validation_errors(self) -> List[str]:
        """Structural problems independent of the tree (justifications)."""
        errors = []
        seen = set()
        for entry in self.entries:
            justification = entry.justification.strip()
            if not justification or justification == TODO_JUSTIFICATION:
                errors.append(
                    f"baseline entry {entry.rule} at {entry.path}:{entry.line} "
                    f"has no written justification"
                )
            if entry.key() in seen:
                errors.append(
                    f"duplicate baseline entry {entry.rule} at {entry.path}:{entry.line}"
                )
            seen.add(entry.key())
        return errors

    def staleness_errors(self) -> List[str]:
        """Entries whose referenced line no longer exists as recorded."""
        errors = []
        for entry in self.entries:
            if not os.path.isfile(entry.path):
                errors.append(
                    f"stale baseline entry {entry.rule}: file {entry.path} no longer exists"
                )
                continue
            with open(entry.path, "r", encoding="utf-8") as handle:
                lines = {line.strip() for line in handle.read().splitlines()}
            if entry.snippet not in lines:
                errors.append(
                    f"stale baseline entry {entry.rule}: {entry.path} references "
                    f"line {entry.line}, but the line changed: {entry.snippet!r} "
                    f"is no longer in the file"
                )
        return errors

    # ------------------------------------------------------------- matching
    def partition(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding], List[str]]:
        """Split findings into (live, baselined) and report unmatched entries.

        A finding is baselined when an unused entry matches its rule, path
        and snippet; the entry recorded at the finding's own line is
        preferred, any other takes a moved line.  Each entry accepts one
        finding.  Entries left unmatched after the pass are stale (the
        finding they accepted no longer fires) and are returned as errors.
        """
        pool: Dict[Tuple[str, str, str], List[BaselineEntry]] = {}
        for entry in self.entries:
            pool.setdefault(entry.anchor(), []).append(entry)
        live: List[Finding] = []
        baselined: List[Finding] = []
        for finding in findings:
            candidates = pool.get((finding.rule, finding.path, finding.snippet))
            if candidates:
                entry = next(
                    (e for e in candidates if e.line == finding.line), candidates[0]
                )
                candidates.remove(entry)
                baselined.append(finding)
            else:
                live.append(finding)
        unmatched = {id(entry) for entries in pool.values() for entry in entries}
        errors = [
            f"stale baseline entry {entry.rule} at {entry.path}:{entry.line}: "
            f"no current finding matches it (fixed? remove the entry)"
            for entry in self.entries
            if id(entry) in unmatched
        ]
        return live, baselined, errors

    # --------------------------------------------------------------- update
    @classmethod
    def from_findings(
        cls, findings: Sequence[Finding], previous: Optional["Baseline"] = None
    ) -> "Baseline":
        """Build a fresh baseline, carrying surviving justifications over.

        Justifications are matched by (rule, path, snippet) so an entry
        whose line merely moved keeps its rationale; genuinely new entries
        get the ``TODO: justify`` placeholder that validation rejects.
        """
        carried: Dict[Tuple[str, str, str], str] = {}
        if previous is not None:
            for entry in previous.entries:
                carried[(entry.rule, entry.path, entry.snippet)] = entry.justification
        entries = [
            BaselineEntry(
                rule=finding.rule,
                path=finding.path,
                line=finding.line,
                snippet=finding.snippet,
                justification=carried.get(
                    (finding.rule, finding.path, finding.snippet), TODO_JUSTIFICATION
                ),
            )
            for finding in sorted(findings, key=Finding.sort_key)
        ]
        return cls(entries)
