"""File formats for measurement records and estimation reports.

A record file is JSON Lines: one header object, then one object per
measurement unit.  Bitstrings are most-significant-bit first (qubit 0 is the
leftmost character), matching the simulator's convention.

    {"format": "rm-records", "format_version": 1, "n": 3,
     "state_label": "gamma-3-5", "bit_order": "msb-first"}
    {"clifford_ids": [3, 17, 22], "counts": {"010": 31, "111": 4}}

Bitstrings exist only in these files: in memory an experiment is the
``ExperimentData`` arrays, with ``counts[k, int("010", 2)] == 31`` above.

A report file is a single JSON document with the estimates, the method,
the resources consumed, and optionally a fitted noise model or a
calibration table.  Reports survive a write/read round trip losslessly.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from collections.abc import Iterator
from contextlib import nullcontext
from functools import cache
from pathlib import Path
from typing import IO, Any

import numpy as np

from . import __version__
from .cliffords import N_CLIFFORD
from .estimator import EstimateReport, ExperimentData
from .fitting import NoiseFit
from .states import MAX_QUBITS

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
_INT64_MAX = int(np.iinfo(np.int64).max)

#: Undecodable bytes, as the "surrogateescape" error handler maps them.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class RecordFormatError(ValueError):
    """A record or report file does not match the expected schema."""


def _open_maybe(path_or_file: str | Path | IO[str], mode: str):
    """A context manager for the handle; only a file opened here is closed.
    A file opened for reading keeps bytes that are not UTF-8 as surrogate
    escapes, so that ``_utf8_lines`` can name the line that holds them."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return nullcontext(path_or_file)
    errors = "surrogateescape" if mode == "r" else "strict"
    return open(path_or_file, mode, encoding="utf-8", errors=errors)


def _utf8_lines(handle: IO[str]) -> Iterator[str]:
    """The handle's lines; bytes that are not UTF-8 raise RecordFormatError.

    A caller's strict handle (stdin) decodes ahead in chunks, so its error
    cannot name the line."""
    lineno = 0
    try:
        for lineno, line in enumerate(handle, 1):
            if not line.isascii() and _ESCAPED_BYTE.search(line):
                raise RecordFormatError(f"line {lineno}: bytes that are not UTF-8")
            yield line
    except UnicodeDecodeError as exc:
        raise RecordFormatError(
            f"bytes that are not UTF-8 after line {lineno} ({exc.reason})"
        ) from None


@cache
def _outcome_keys(n: int) -> tuple[dict[str, int], list[str]]:
    """{msb-first bitstring: outcome}, and each outcome's key '"bits": ' in a line."""
    labels = [f"{b:0{n}b}" for b in range(2**n)]
    return dict(zip(labels, range(2**n))), [f'"{bits}": ' for bits in labels]


def write_records(data: ExperimentData, path_or_file: str | Path | IO[str]) -> None:
    """Serialize an experiment to a JSON Lines record file, one line per
    unit with its nonzero counts keyed by msb-first bitstrings, formatted as
    ``json.dumps(sort_keys=True)`` writes it (fixed-width keys sort as ints)."""
    with _open_maybe(path_or_file, "w") as handle:
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
        prefixes = _outcome_keys(data.n)[1]
        for ids, row in zip(data.clifford_ids.tolist(), data.counts):
            hit = np.flatnonzero(row)
            pairs = zip(hit.tolist(), row[hit].tolist())
            counts = ", ".join([prefixes[b] + str(c) for b, c in pairs])
            handle.write(f'{{"clifford_ids": {ids}, "counts": {{{counts}}}}}\n')


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are ints to Python but not to this format."""
    return isinstance(value, int) and not isinstance(value, bool)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """JSON object hook: a repeated key would silently keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
        raise RecordFormatError(f"repeated key {key!r}")
    return obj


def _parse_json_line(line: str, lineno: int) -> dict[str, Any]:
    try:
        obj = json.loads(line, object_pairs_hook=_unique_keys)
    except RecordFormatError as exc:
        raise RecordFormatError(f"line {lineno}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also too many digits, deep nesting
        reason = getattr(exc, "msg", exc)
        raise RecordFormatError(f"line {lineno}: invalid JSON ({reason})") from exc
    if not isinstance(obj, dict):
        raise RecordFormatError(f"line {lineno}: expected a JSON object")
    return obj


def _parse_unit(text: str, lineno: int, n: int) -> tuple[list[int], ...]:
    """(clifford_ids, outcomes, counts) from one unit's line, checked against n."""
    obj = _parse_json_line(text, lineno)
    if set(obj) != {"clifford_ids", "counts"}:
        raise RecordFormatError(
            f"line {lineno}: record needs exactly clifford_ids and counts"
        )
    ids, counts = obj["clifford_ids"], obj["counts"]
    if not isinstance(ids, list) or len(ids) != n or not all(_is_int(c) for c in ids):
        raise RecordFormatError(f"line {lineno}: clifford_ids must be {n} integers")
    if not isinstance(counts, dict):
        raise RecordFormatError(f"line {lineno}: counts must be an object")
    if not all(0 <= c < N_CLIFFORD for c in ids):
        raise RecordFormatError(
            f"line {lineno}: Clifford ids must be integers in [0, {N_CLIFFORD})"
        )
    for bits, count in counts.items():
        if len(bits) != n or bits.strip("01"):
            raise RecordFormatError(
                f"line {lineno}: bad bitstring {bits!r} for {n} qubits"
            )
        if not _is_int(count) or count <= 0:
            raise RecordFormatError(
                f"line {lineno}: count for {bits!r} must be a positive integer"
            )
    if sum(counts.values()) > _INT64_MAX:
        raise RecordFormatError(f"line {lineno}: more shots than an int64 count holds")
    return ids, [int(bits, 2) for bits in counts], list(counts.values())


def _checked_unit(text: str, n: int, columns: dict[str, int]):
    """``_parse_unit``'s result for a line that passes whole-line checks, else
    None.  Parsed without the repeated-key hook: with all values ints or lists
    of ints, each '"' delimits a key, so 4 + 2 * len(counts) mean no repeat."""
    try:  # any of these errors marks a line that only _parse_unit can word
        obj = json.loads(text)
        ids, counts = obj["clifford_ids"], obj["counts"]
        values = list(counts.values())
        ok = (len(obj) == 2 and type(ids) is list and len(ids) == n
              and {*map(type, ids), *map(type, values)} == {int}
              and 0 <= min(ids) and max(ids) < N_CLIFFORD
              and min(values, default=1) > 0 and sum(values) <= _INT64_MAX
              and text.count('"') == 4 + 2 * len(values))
        return (ids, [columns[bits] for bits in counts], values) if ok else None
    except (ValueError, LookupError, TypeError, AttributeError, RecursionError):
        return None


def read_records(path_or_file: str | Path | IO[str]) -> ExperimentData:
    """Parse a JSON Lines record file line by line, reporting errors with
    line numbers; the id and count arrays are built once, at the end."""
    ids, sizes, outcomes, values = [], [], [], []
    with _open_maybe(path_or_file, "r") as handle:
        lines = ((no, raw.strip()) for no, raw in enumerate(_utf8_lines(handle), 1))
        lines = ((no, text) for no, text in lines if text)
        header_no, header_text = next(lines, (0, ""))
        if not header_no:
            raise RecordFormatError("empty file: missing header line")
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
        if not _is_int(n) or not 1 <= n <= MAX_QUBITS:
            raise RecordFormatError(
                f"line {header_no}: n must be a positive integer at most {MAX_QUBITS}"
            )
        label = header.get("state_label")
        if not isinstance(label, str) or not label:
            raise RecordFormatError(f"line {header_no}: state_label must be a string")
        seed = header.get("seed")
        if seed is not None and not _is_int(seed):
            raise RecordFormatError(f"line {header_no}: seed must be an integer")
        columns = _outcome_keys(n)[0]
        for lineno, text in lines:
            unit = _checked_unit(text, n, columns) or _parse_unit(text, lineno, n)
            ids.append(unit[0])
            sizes.append(len(unit[1]))
            outcomes += unit[1]
            values += unit[2]
    if not ids:
        raise RecordFormatError("no records after the header")
    counts = np.zeros((len(ids), 2**n), dtype=np.int64)
    counts[np.repeat(np.arange(len(ids)), sizes), outcomes] = values
    return ExperimentData(
        n=n, state_label=label, clifford_ids=np.array(ids), counts=counts, seed=seed
    )


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
    with _open_maybe(path_or_file, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_report(path_or_file: str | Path | IO[str]) -> dict[str, Any]:
    with _open_maybe(path_or_file, "r") as handle:
        text = "".join(_utf8_lines(handle))
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except RecordFormatError:
            raise
        except (ValueError, RecursionError) as exc:  # only a JSONDecodeError has a line
            where = f"line {exc.lineno}: " if hasattr(exc, "lineno") else ""
            reason = getattr(exc, "msg", exc)
            raise RecordFormatError(f"{where}invalid JSON ({reason})") from exc
    if not isinstance(doc, dict) or doc.get("format") != REPORT_FORMAT:
        raise RecordFormatError(f"not a {REPORT_FORMAT!r} document")
    return doc
