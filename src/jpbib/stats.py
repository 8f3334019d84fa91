"""Run statistics: record counts, publication types, name statuses."""

import json
from dataclasses import dataclass, field

from .matching import NameStatus

__all__ = ["RunStatistics"]


@dataclass
class RunStatistics:
    """Counters describing one harvest run."""

    records_with_metadata: int = 0
    deleted_records: int = 0
    parse_errors: int = 0
    duplicates_found: int = 0
    publication_types: dict[str, int] = field(default_factory=dict)
    languages: dict[str, int] = field(default_factory=dict)
    name_statuses: dict[str, int] = field(default_factory=dict)

    def observe_record(self, deleted: bool) -> None:
        if deleted:
            self.deleted_records += 1
        else:
            self.records_with_metadata += 1

    def observe_parse_error(self) -> None:
        self.parse_errors += 1

    def observe_publication(self, publication_type: str, language: str) -> None:
        key = publication_type or "unknown"
        self.publication_types[key] = self.publication_types.get(key, 0) + 1
        self.languages[language] = self.languages.get(language, 0) + 1

    def observe_status(self, status: NameStatus | str) -> None:
        key = status.value if isinstance(status, NameStatus) else str(status)
        self.name_statuses[key] = self.name_statuses.get(key, 0) + 1

    def observe_duplicate(self) -> None:
        self.duplicates_found += 1

    def total_authors(self) -> int:
        return sum(self.name_statuses.values())

    def status_percentages(self) -> dict[str, float]:
        total = self.total_authors()
        if total == 0:
            return {}
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

