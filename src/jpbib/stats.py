"""Run statistics: record counts, publication types, name statuses."""

import json
from collections import Counter
from typing import Iterable, NamedTuple

from .matching import NameStatus

__all__ = ["RecordOutcome", "RunStatistics"]


class RecordOutcome(NamedTuple):
    """What one harvested record adds to the run statistics."""

    deleted: bool
    publication: tuple[str, str] | None = None  # (type, language); None: unparsable
    statuses: tuple[NameStatus, ...] = ()
    duplicate: bool = False


class RunStatistics:
    """Counters describing one harvest run, one outcome per identifier."""

    def __init__(self, outcomes: Iterable[RecordOutcome]) -> None:
        outcomes = list(outcomes)
        parsed = [o.publication for o in outcomes if o.publication is not None]
        self.deleted_records = sum(o.deleted for o in outcomes)
        self.records_with_metadata = len(outcomes) - self.deleted_records
        self.parse_errors = self.records_with_metadata - len(parsed)
        self.duplicates_found = sum(o.duplicate for o in outcomes)
        self.publication_types = Counter(kind or "unknown" for kind, _ in parsed)
        self.languages = Counter(language for _, language in parsed)
        self.name_statuses = Counter(
            status.value for o in outcomes for status in o.statuses
        )

    def status_percentages(self) -> dict[str, float]:
        total = self.name_statuses.total()
        return {
            key: round(100.0 * count / total, 1)
            for key, count in self.name_statuses.items()
        }

    def to_dict(self) -> dict:
        return {
            "records_with_metadata": self.records_with_metadata,
            "deleted_records": self.deleted_records,
            "parse_errors": self.parse_errors,
            "duplicates_found": self.duplicates_found,
            "publication_types": dict(sorted(self.publication_types.items())),
            "languages": dict(sorted(self.languages.items())),
            "name_statuses": dict(sorted(self.name_statuses.items())),
            "name_status_percentages": dict(
                sorted(self.status_percentages().items())
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, ensure_ascii=False) + "\n"

    def format_report(self) -> str:
        lines = [
            "harvest statistics",
            f"  records with metadata   {self.records_with_metadata}",
            f"  deleted records         {self.deleted_records}",
            f"  unparsable records      {self.parse_errors}",
            f"  duplicates found        {self.duplicates_found}",
        ]
        if self.publication_types:
            lines.append("  publication types:")
            for key, count in sorted(self.publication_types.items()):
                lines.append(f"    {key:<28} {count}")
        if self.languages:
            lines.append("  languages:")
            for key, count in sorted(self.languages.items()):
                lines.append(f"    {key:<28} {count}")
        if self.name_statuses:
            percentages = self.status_percentages()
            lines.append("  name statuses:")
            for key, count in sorted(self.name_statuses.items()):
                lines.append(f"    {key:<28} {count:>6}  {percentages[key]:.1f}%")
        return "\n".join(lines)
