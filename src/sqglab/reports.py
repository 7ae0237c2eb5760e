"""Report containers and deterministic CSV/JSON emission.

Reports must be byte-reproducible for identical (config, seed) pairs, so
everything that reaches a file is deterministic: stable field ordering,
floats printed with 17 significant digits (exact double round trip), LF
line endings.  Wall-clock time lives on the report object for console
display and never enters the emitted bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path


def format_value(value) -> str:
    """CSV cell: floats at 17 significant digits, everything else as str."""
    if isinstance(value, bool) or value is None:
        return "" if value is None else str(value).lower()
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return "%.17g" % value
    return str(value)


@dataclass(frozen=True)
class Table:
    """One named result table: a header and homogeneous rows."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.name!r}: row of width {len(row)} against "
                    f"{len(self.columns)} columns"
                )

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_value(v) for v in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Verdict:
    """One pass/fail judgement; ``threshold`` spells out what was judged."""

    name: str
    passed: bool
    observed: str
    threshold: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: observed {self.observed} against {self.threshold}"


@dataclass
class ExperimentReport:
    """Everything one experiment produced: config echo, tables, verdicts.

    ``partial`` marks a run where some planned piece could not be computed
    (for example a block count whose frequencies overflow the lattice);
    the failure rides along as a failed verdict rather than an exception.
    ``wall_seconds`` is console-only metadata.
    """

    experiment: str
    config: dict
    tables: list[Table] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    partial: bool = False
    wall_seconds: float | None = None

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_jsonable(self) -> dict:
        """Every field but ``wall_seconds``, tables and verdicts as dicts of
        their fields, then ``passed``."""
        out = asdict(self)
        del out["wall_seconds"]
        out["passed"] = self.passed
        return out

    def summary_lines(self) -> list[str]:
        lines = [v.line() for v in self.verdicts]
        status = "pass" if self.passed else "FAIL"
        mark = ", partial" if self.partial else ""
        clock = f" in {self.wall_seconds:.1f}s" if self.wall_seconds is not None else ""
        lines.append(f"{self.experiment}: {status}{mark}{clock}")
        return lines


def _sanitize(obj):
    if isinstance(obj, float) and (math.isinf(obj) or math.isnan(obj)):
        return "inf" if obj > 0 else ("-inf" if math.isinf(obj) else "nan")
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def emit_report(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write one JSON report plus one CSV per table; return the paths.

    JSON floats use Python's shortest round-trip repr and CSV uses
    ``%.17g``; both parse back to the identical double.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    stem = report.experiment
    json_path = out / f"{stem}_report.json"
    payload = json.dumps(_sanitize(report.to_jsonable()), indent=2, allow_nan=False)
    json_path.write_text(payload + "\n")
    written.append(json_path)
    for table in report.tables:
        csv_path = out / f"{stem}_{table.name}.csv"
        csv_path.write_text(table.to_csv())
        written.append(csv_path)
    return written