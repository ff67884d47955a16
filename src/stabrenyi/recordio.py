"""File formats for measurement records and estimation reports.

A record file is JSON Lines: one header object, then one object per
measurement unit.  Bitstrings are most-significant-bit first (qubit 0 is the
leftmost character), matching the simulator's convention.

    {"format": "rm-records", "format_version": 1, "n": 3,
     "state_label": "gamma-3-5", "bit_order": "msb-first"}
    {"clifford_ids": [3, 17, 22], "counts": {"010": 31, "111": 4}}

A report file is a single JSON document with the estimates, the method,
the resources consumed, and optionally a fitted noise model or a
calibration table.  Reports survive a write/read round trip losslessly.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import IO, Any

from . import __version__
from .estimator import EstimateReport, ExperimentData, ShotRecord
from .fitting import NoiseFit

__all__ = [
    "RecordFormatError",
    "BIT_ORDER",
    "write_records",
    "read_records",
    "report_header",
    "report_from_estimate",
    "noise_fit_section",
    "write_report",
    "read_report",
]

BIT_ORDER = "msb-first"
RECORD_FORMAT = "rm-records"
REPORT_FORMAT = "rm-report"
FORMAT_VERSION = 1


class RecordFormatError(ValueError):
    """A record or report file does not match the expected schema."""


def _open_maybe(path_or_file: str | Path | IO[str], mode: str):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode, encoding="utf-8"), True


def write_records(data: ExperimentData, path_or_file: str | Path | IO[str]) -> None:
    """Serialize an experiment to a JSON Lines record file."""
    handle, owned = _open_maybe(path_or_file, "w")
    try:
        header = {
            "format": RECORD_FORMAT,
            "format_version": FORMAT_VERSION,
            "n": data.n,
            "state_label": data.state_label,
            "bit_order": BIT_ORDER,
        }
        if data.seed is not None:
            header["seed"] = data.seed
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in data.records:
            line = {
                "clifford_ids": list(record.clifford_ids),
                "counts": {k: record.counts[k] for k in sorted(record.counts)},
            }
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    finally:
        if owned:
            handle.close()


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are ints to Python but not to this format."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_json_line(line: str, lineno: int) -> dict[str, Any]:
    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
            raise RecordFormatError(f"line {lineno}: repeated key {key!r}")
        return obj

    try:
        obj = json.loads(line, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise RecordFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise RecordFormatError(f"line {lineno}: expected a JSON object")
    return obj


def read_records(path_or_file: str | Path | IO[str]) -> ExperimentData:
    """Parse a JSON Lines record file, reporting errors with line numbers."""
    handle, owned = _open_maybe(path_or_file, "r")
    try:
        lines = [(i + 1, raw.strip()) for i, raw in enumerate(handle)]
    finally:
        if owned:
            handle.close()
    lines = [(no, text) for no, text in lines if text]
    if not lines:
        raise RecordFormatError("empty file: missing header line")
    header_no, header_text = lines[0]
    header = _parse_json_line(header_text, header_no)
    if header.get("format") != RECORD_FORMAT:
        raise RecordFormatError(
            f"line {header_no}: header format {header.get('format')!r} is not "
            f"{RECORD_FORMAT!r}"
        )
    version = header.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise RecordFormatError(
            f"line {header_no}: unsupported format_version {version!r}"
        )
    if header.get("bit_order", BIT_ORDER) != BIT_ORDER:
        raise RecordFormatError(
            f"line {header_no}: unsupported bit_order {header.get('bit_order')!r}"
        )
    n = header.get("n")
    if not _is_int(n) or n < 1:
        raise RecordFormatError(f"line {header_no}: n must be a positive integer")
    label = header.get("state_label")
    if not isinstance(label, str) or not label:
        raise RecordFormatError(f"line {header_no}: state_label must be a string")
    seed = header.get("seed")
    if seed is not None and not _is_int(seed):
        raise RecordFormatError(f"line {header_no}: seed must be an integer")
    records = []
    for lineno, text in lines[1:]:
        obj = _parse_json_line(text, lineno)
        extra = set(obj) - {"clifford_ids", "counts"}
        missing = {"clifford_ids", "counts"} - set(obj)
        if extra or missing:
            raise RecordFormatError(
                f"line {lineno}: record needs exactly clifford_ids and counts"
            )
        ids = obj["clifford_ids"]
        if (
            not isinstance(ids, list)
            or len(ids) != n
            or not all(_is_int(c) for c in ids)
        ):
            raise RecordFormatError(
                f"line {lineno}: clifford_ids must be {n} integers"
            )
        counts = obj["counts"]
        if not isinstance(counts, dict):
            raise RecordFormatError(f"line {lineno}: counts must be an object")
        try:
            records.append(
                ShotRecord(clifford_ids=tuple(ids), counts=dict(counts))
            )
        except ValueError as exc:
            raise RecordFormatError(f"line {lineno}: {exc}") from exc
    if not records:
        raise RecordFormatError("no records after the header")
    return ExperimentData(n=n, state_label=label, records=tuple(records), seed=seed)


def report_header(
    n: int, state_label: str, method: str, seed: int | None
) -> dict[str, Any]:
    """The fields every report document starts with."""
    return {
        "format": REPORT_FORMAT,
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "n": n,
        "state_label": state_label,
        "method": method,
        "seed": seed,
    }


def report_from_estimate(
    report: EstimateReport,
    state_label: str,
    *,
    seed: int | None = None,
    verbose: bool = False,
) -> dict[str, Any]:
    """Build the JSON-ready report document for an estimation run."""
    doc = report_header(report.n, state_label, report.method, seed)
    doc.update({
        "resources": {
            "n_units": report.n_units,
            "shots_per_unit": list(report.shots),
            "total_shots": sum(report.shots),
        },
        "estimates": {
            "stab_purity": report.stab_purity,
            "stab_purity_err": report.stab_purity_err,
            "purity": report.purity,
            "purity_err": report.purity_err,
            "stab_renyi2": report.stab_renyi2,
            "stab_renyi2_err": report.stab_renyi2_err,
            "negative_stab_purity": report.negative_stab_purity,
        },
    })
    if verbose:
        doc["per_word"] = {
            "stab_purity": list(report.per_word_stab_purity),
            "purity": list(report.per_word_purity),
        }
    return doc


def noise_fit_section(fit: NoiseFit) -> dict[str, Any]:
    return {
        "p": fit.p,
        "p_err": fit.p_err,
        "q": fit.q,
        "q_err": fit.q_err,
        "epsilon": fit.epsilon,
        "epsilon_err": fit.epsilon_err,
    }


def write_report(doc: dict[str, Any], path_or_file: str | Path | IO[str]) -> None:
    handle, owned = _open_maybe(path_or_file, "w")
    try:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    finally:
        if owned:
            handle.close()


def read_report(path_or_file: str | Path | IO[str]) -> dict[str, Any]:
    handle, owned = _open_maybe(path_or_file, "r")
    try:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise RecordFormatError(
                f"line {exc.lineno}: invalid JSON ({exc.msg})"
            ) from exc
    finally:
        if owned:
            handle.close()
    if not isinstance(doc, dict) or doc.get("format") != REPORT_FORMAT:
        raise RecordFormatError(f"not a {REPORT_FORMAT!r} document")
    return doc
