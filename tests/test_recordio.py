"""Tests for the record-file and report-file formats."""

from __future__ import annotations

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stabrenyi import recordio
from stabrenyi.estimator import ExperimentData, estimate, simulate_experiment
from stabrenyi.fitting import NoiseFit
from stabrenyi.recordio import (
    BIT_ORDER,
    RecordFormatError,
    noise_fit_section,
    read_records,
    read_report,
    report_from_estimate,
    write_records,
    write_report,
)
from stabrenyi.states import MAX_QUBITS, gamma_state

PROPERTY = settings(max_examples=300)

#: The faults a fuzzed record file may carry.
FAULTS = ("header", "id", "word", "count", "bitstring", "key", "line")

#: Arbitrary JSON values, for fields and lines of fuzzed record files.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _sample_data(seed=4) -> ExperimentData:
    return simulate_experiment(
        gamma_state(2, 3), 3, 16, seed=seed, state_label="gamma-2-3"
    )


class TestRecordRoundTrip:
    def test_lossless_through_file(self, tmp_path):
        data = _sample_data()
        path = tmp_path / "records.jsonl"
        write_records(data, path)
        assert read_records(path) == data

    def test_lossless_through_stream(self):
        data = _sample_data()
        buf = io.StringIO()
        write_records(data, buf)
        buf.seek(0)
        assert read_records(buf) == data

    def test_seed_round_trips(self):
        data = _sample_data(seed=123)
        buf = io.StringIO()
        write_records(data, buf)
        header = json.loads(buf.getvalue().splitlines()[0])
        assert header["seed"] == 123
        buf.seek(0)
        assert read_records(buf).seed == 123

    def test_omitted_seed_reads_as_none(self):
        data = ExperimentData(
            n=1, state_label="custom", clifford_ids=[[0]], counts=[[4, 0]]
        )
        buf = io.StringIO()
        write_records(data, buf)
        assert "seed" not in json.loads(buf.getvalue().splitlines()[0])
        buf.seek(0)
        assert read_records(buf).seed is None

    def test_header_fields(self):
        buf = io.StringIO()
        write_records(_sample_data(), buf)
        header = json.loads(buf.getvalue().splitlines()[0])
        assert header["format"] == "rm-records"
        assert header["format_version"] == 1
        assert header["bit_order"] == BIT_ORDER == "msb-first"
        assert header["n"] == 2
        assert header["state_label"] == "gamma-2-3"

    def test_bitstrings_only_for_nonzero_counts(self):
        data = ExperimentData(
            n=2, state_label="x", clifford_ids=[[3, 17], [0, 0]],
            counts=[[0, 5, 0, 2], [0, 0, 0, 0]],
        )
        buf = io.StringIO()
        write_records(data, buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()[1:]]
        assert lines == [
            {"clifford_ids": [3, 17], "counts": {"01": 5, "11": 2}},
            {"clifford_ids": [0, 0], "counts": {}},
        ]
        buf.seek(0)
        assert read_records(buf) == data

    def test_blank_lines_tolerated(self):
        buf = io.StringIO()
        write_records(_sample_data(), buf)
        padded = "\n" + buf.getvalue().replace("\n", "\n\n")
        assert read_records(io.StringIO(padded)) == _sample_data()


class TestRecordErrors:
    def _lines(self):
        buf = io.StringIO()
        write_records(_sample_data(), buf)
        return buf.getvalue().splitlines()

    def _expect(self, text, fragment):
        with pytest.raises(RecordFormatError) as err:
            read_records(io.StringIO(text))
        assert fragment in str(err.value)

    def test_empty_file(self):
        self._expect("", "empty file")
        self._expect("\n\n", "empty file")

    def test_header_only(self):
        self._expect(self._lines()[0] + "\n", "no records after the header")

    def test_wrong_format_tag(self):
        self._expect('{"format": "csv"}\n', "line 1")

    def test_wrong_version(self):
        header = json.loads(self._lines()[0])
        header["format_version"] = 99
        self._expect(json.dumps(header) + "\n", "format_version")

    def test_wrong_bit_order(self):
        header = json.loads(self._lines()[0])
        header["bit_order"] = "lsb-first"
        self._expect(json.dumps(header) + "\n", "bit_order")

    def test_bad_n(self):
        header = json.loads(self._lines()[0])
        header["n"] = "three"
        self._expect(json.dumps(header) + "\n", "n must be a positive integer")

    def test_bad_state_label(self):
        header = json.loads(self._lines()[0])
        header["state_label"] = ""
        self._expect(json.dumps(header) + "\n", "state_label")

    def test_bad_seed(self):
        header = json.loads(self._lines()[0])
        header["seed"] = "abc"
        self._expect(json.dumps(header) + "\n", "seed must be an integer")

    def test_invalid_json_line_numbered(self):
        lines = self._lines()
        lines[2] = "{not json"
        self._expect("\n".join(lines), "line 3: invalid JSON")

    def test_record_extra_key(self):
        lines = self._lines()
        rec = json.loads(lines[1])
        rec["comment"] = "hi"
        lines[1] = json.dumps(rec)
        self._expect("\n".join(lines), "line 2")

    def test_record_missing_counts(self):
        lines = self._lines()
        lines[1] = '{"clifford_ids": [0, 1]}'
        self._expect("\n".join(lines), "exactly clifford_ids and counts")

    def test_word_length_mismatch(self):
        lines = self._lines()
        lines[1] = '{"clifford_ids": [0], "counts": {"0": 4}}'
        self._expect("\n".join(lines), "line 2")

    def test_invalid_counts_wrapped_with_line(self):
        lines = self._lines()
        lines[1] = '{"clifford_ids": [0, 1], "counts": {"00": -2}}'
        self._expect("\n".join(lines), "line 2")

    def test_non_object_line(self):
        lines = self._lines()
        lines[1] = "[1, 2, 3]"
        self._expect("\n".join(lines), "expected a JSON object")

    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("n", True, "line 1: n must be a positive integer"),
            ("seed", False, "line 1: seed must be an integer"),
            ("format_version", True, "line 1: unsupported format_version"),
        ],
    )
    def test_boolean_header_integers_rejected(self, field, value, fragment):
        lines = self._lines()
        header = json.loads(lines[0])
        header[field] = value
        lines[0] = json.dumps(header)
        self._expect("\n".join(lines), fragment)

    @pytest.mark.parametrize(
        "record, fragment",
        [
            ('{"clifford_ids": [true, 0], "counts": {"00": 4}}', "line 3: clifford"),
            ('{"clifford_ids": [0, 1], "counts": {"00": true}}', "line 3: count"),
        ],
    )
    def test_boolean_record_integers_rejected(self, record, fragment):
        lines = self._lines()
        lines[2] = record
        self._expect("\n".join(lines), fragment)

    @pytest.mark.parametrize(
        "record, fragment",
        [
            (
                '{"clifford_ids": [0, 1], "counts": {"00": 3, "00": 5, "11": 1}}',
                "line 3: repeated key '00'",
            ),
            (
                '{"clifford_ids": [0, 1], "counts": {"00": 4}, "clifford_ids": [2, 3]}',
                "line 3: repeated key 'clifford_ids'",
            ),
        ],
    )
    def test_repeated_keys_rejected(self, record, fragment):
        # json.loads keeps the last value of a repeated key, so such a line
        # once loaded as a different word or with fewer shots.
        lines = self._lines()
        lines[2] = record
        self._expect("\n".join(lines), fragment)

    def test_repeated_header_key_rejected(self):
        lines = self._lines()
        lines[0] = lines[0][:-1] + ', "n": 3}'
        self._expect("\n".join(lines), "line 1: repeated key 'n'")

    def test_repeated_report_key_rejected(self):
        doc = '{"format": "rm-report", "estimates": {"purity": 1, "purity": 0.5}}'
        with pytest.raises(RecordFormatError, match="repeated key 'purity'"):
            read_report(io.StringIO(doc))
        with pytest.raises(RecordFormatError, match="repeated key 'format'"):
            read_report(io.StringIO('{"format": "rm-report", "format": "rm-report"}'))

    @pytest.mark.parametrize(
        "doc",
        ['{"format": "rm-report", "n": 1' + "0" * 4999 + "}", "[" * 100_000],
        ids=["5000-digit integer", "100000 brackets"],
    )
    def test_report_that_breaks_json_rejected(self, doc):
        with pytest.raises(RecordFormatError, match="invalid JSON"):
            read_report(io.StringIO(doc))

    def test_too_many_qubits_rejected_on_header(self):
        lines = self._lines()
        header = json.loads(lines[0])
        header["n"] = MAX_QUBITS + 1
        lines[0] = json.dumps(header)
        fragment = f"line 1: n must be a positive integer at most {MAX_QUBITS}"
        self._expect("\n".join(lines), fragment)

    def test_shots_beyond_int64_rejected(self):
        lines = self._lines()
        lines[2] = '{"clifford_ids": [0, 1], "counts": {"00": %d}}' % 2**63
        self._expect("\n".join(lines), "line 3: more shots than an int64")
        lines[2] = '{"clifford_ids": [0, 1], "counts": {"00": %d, "11": %d}}' % (
            2**62, 2**62
        )
        self._expect("\n".join(lines), "line 3: more shots than an int64")

    @pytest.mark.parametrize(
        "bad", [b"\xff\xfe", b'{"clifford_ids": [0, 1], "counts": {"0\xc3\x28": 1}}']
    )
    def test_bytes_that_are_not_utf8(self, tmp_path, bad):
        lines = [line.encode() for line in self._lines()]
        data = b"\n".join(lines[:2] + [bad] + lines[3:]) + b"\n"
        path = tmp_path / "bad.jsonl"
        path.write_bytes(data)
        # a file opened here names the line; a strict caller's handle decodes
        # ahead in chunks, so its error comes before that line is reached
        with pytest.raises(RecordFormatError, match="line 3: bytes that are not UTF-8"):
            read_records(path)
        with pytest.raises(RecordFormatError, match="not UTF-8"):
            read_records(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))

    def test_non_ascii_label_round_trips(self, tmp_path):
        data = simulate_experiment(gamma_state(2, 3), 2, 8, seed=1, state_label="γ-état")
        path = tmp_path / "label.jsonl"
        write_records(data, path)
        assert read_records(path) == data

    def test_stops_reading_at_the_first_bad_line(self):
        # read_records streams: a bad line 3 ends the read there, and no
        # later line is pulled from the handle.
        lines = self._lines() + self._lines()[1:] * 100
        lines[2] = '{"clifford_ids": [0, 1], "counts": {"00": 0}}'
        served = []

        class Handle:
            read = None  # a file-like handle, not a path

            def __iter__(self):
                for line in lines:
                    served.append(line)
                    yield line + "\n"

        with pytest.raises(RecordFormatError, match="line 3: count for '00'"):
            read_records(Handle())
        assert len(served) == 3

    def test_all_boolean_file_does_not_load(self):
        # Every integer slot holds a JSON boolean; Python's bool is an int
        # subclass, so this file once loaded and estimated a purity.
        text = (
            '{"format": "rm-records", "format_version": 1, "n": true, '
            '"seed": false, "state_label": "x", "bit_order": "msb-first"}\n'
            '{"clifford_ids": [true], "counts": {"0": true}}\n'
        )
        self._expect(text, "line 1")


class TestReports:
    def _doc(self, verbose=False):
        report = estimate(_sample_data(), method="ustat")
        return report_from_estimate(
            report, "gamma-2-3", seed=4, verbose=verbose
        )

    def test_document_fields(self):
        doc = self._doc()
        assert doc["format"] == "rm-report"
        assert doc["n"] == 2
        assert doc["method"] == "ustat"
        assert doc["seed"] == 4
        assert doc["resources"]["n_units"] == 3
        assert doc["resources"]["total_shots"] == 48
        assert set(doc["estimates"]) == {
            "stab_purity",
            "stab_purity_err",
            "purity",
            "purity_err",
            "stab_renyi2",
            "stab_renyi2_err",
            "negative_stab_purity",
        }
        assert "per_word" not in doc

    def test_verbose_includes_per_word(self):
        doc = self._doc(verbose=True)
        assert len(doc["per_word"]["stab_purity"]) == 3
        assert len(doc["per_word"]["purity"]) == 3

    def test_round_trip_lossless(self, tmp_path):
        doc = self._doc(verbose=True)
        path = tmp_path / "report.json"
        write_report(doc, path)
        assert read_report(path) == doc

    def test_stream_round_trip(self):
        doc = self._doc()
        buf = io.StringIO()
        write_report(doc, buf)
        buf.seek(0)
        assert read_report(buf) == doc

    def test_rejects_non_report(self):
        with pytest.raises(RecordFormatError):
            read_report(io.StringIO('{"format": "rm-records"}'))
        with pytest.raises(RecordFormatError):
            read_report(io.StringIO("[1, 2]"))

    def test_invalid_json_line_numbered(self):
        with pytest.raises(RecordFormatError) as err:
            read_report(io.StringIO('{"format": "rm-report",\n  broken'))
        assert "line 2" in str(err.value)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        data = b'{\n  "format": "rm-report",\n  "state_label": "\xc3\x28"\n}\n'
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(RecordFormatError, match="line 3: bytes that are not UTF-8"):
            read_report(path)
        with pytest.raises(RecordFormatError, match="not UTF-8"):
            read_report(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))

    def test_noise_fit_section(self):
        fit = NoiseFit(
            p=0.9, p_err=0.01, q=0.95, q_err=None, epsilon=0.2, epsilon_err=0.03
        )
        section = noise_fit_section(fit)
        assert section == {
            "p": 0.9,
            "p_err": 0.01,
            "q": 0.95,
            "q_err": None,
            "epsilon": 0.2,
            "epsilon_err": 0.03,
        }
        # the section must be JSON-serializable as-is
        json.dumps(section)


class TestRecordProperties:
    """Write/read round trips of arbitrary arrays, and fuzzed record files
    that may fail only with RecordFormatError."""

    @staticmethod
    @st.composite
    def experiments(draw):
        n = draw(st.integers(1, 4))
        units = draw(st.integers(1, 6))
        return ExperimentData(
            n=n,
            state_label=draw(st.text(min_size=1, max_size=8)),
            clifford_ids=draw(
                hnp.arrays(np.int64, (units, n), elements=st.integers(0, 23))
            ),
            counts=draw(
                hnp.arrays(
                    np.int64, (units, 2**n),
                    elements=st.integers(0, 2**40) | st.integers(0, 3),
                )
            ),
            seed=draw(st.none() | st.integers(-(2**70), 2**70)),
        )

    @PROPERTY
    @given(experiments())
    def test_write_read_round_trip(self, data):
        buf = io.StringIO()
        write_records(data, buf)
        buf.seek(0)
        assert read_records(buf) == data

    @staticmethod
    @st.composite
    def record_files(draw):
        """A valid record file given one fault: one value at or past the edge
        of a check, arbitrary JSON, or an arbitrary line."""
        n = draw(st.integers(1, 3))
        header = {"format": "rm-records", "format_version": 1, "n": n,
                  "state_label": "x", "bit_order": "msb-first", "seed": 0}
        bits = st.text("01", min_size=n, max_size=n)
        units = draw(st.lists(st.fixed_dictionaries({
            "clifford_ids": st.lists(st.integers(0, 23), min_size=n, max_size=n),
            "counts": st.dictionaries(bits, st.integers(1, 1000), max_size=4),
        }), min_size=1, max_size=3))
        edges = st.sampled_from([-1, 0, 1, 23, 24, 2**63 - 1, 2**63]) | JSON_VALUES
        lines = [header, *units]
        fault = draw(st.sampled_from(FAULTS))
        obj = draw(st.sampled_from(units))
        if fault == "header":
            header[draw(st.sampled_from(list(header)))] = draw(edges)
        elif fault == "id":
            obj["clifford_ids"][draw(st.integers(0, n - 1))] = draw(edges)
        elif fault == "word":
            obj["clifford_ids"] = draw(st.lists(edges, max_size=n + 1) | edges)
        elif fault == "count":
            obj["counts"][draw(bits)] = draw(edges)
        elif fault == "bitstring":
            obj["counts"][draw(st.text(max_size=4))] = draw(edges)
        elif fault == "key":
            obj = draw(st.sampled_from(lines))
            key = draw(st.sampled_from(list(obj)) | st.text(max_size=12))
            if obj.pop(key, None) is None:
                obj[key] = draw(edges)
        else:  # an arbitrary line
            line = JSON_VALUES.map(json.dumps) | st.text(max_size=20)
            lines.insert(draw(st.integers(0, len(lines))), draw(line))
        return "\n".join(o if isinstance(o, str) else json.dumps(o) for o in lines)

    @settings(PROPERTY, max_examples=600)
    @given(record_files())
    def test_fuzzed_lines_raise_only_record_format_errors(self, text):
        try:
            data = read_records(io.StringIO(text))
        except RecordFormatError:
            return
        assert isinstance(data, ExperimentData)



def _reference_records(data: ExperimentData) -> str:
    """A record file as per-line ``json.dumps(sort_keys=True)`` writes it."""
    header = {"format": "rm-records", "format_version": 1, "n": data.n,
              "state_label": data.state_label, "bit_order": "msb-first"}
    if data.seed is not None:
        header["seed"] = data.seed
    lines = [json.dumps(header, sort_keys=True)]
    for ids, row in zip(data.clifford_ids, data.counts):
        counts = {format(b, f"0{data.n}b"): int(row[b]) for b in np.flatnonzero(row)}
        unit = {"counts": counts, "clifford_ids": ids.tolist()}
        lines.append(json.dumps(unit, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def _read_or_error(source) -> ExperimentData | str:
    try:
        return read_records(source)
    except RecordFormatError as exc:
        return str(exc)


def _read_per_key(source) -> ExperimentData | str:
    """``read_records`` with every unit line judged by ``_parse_unit`` alone."""
    with mock.patch.object(recordio, "_checked_unit", lambda *args: None):
        return _read_or_error(source)


class TestRecordCodec:
    """The direct line writer against ``json.dumps``, and the reader's
    whole-line gate against the per-key parse behind it."""

    @staticmethod
    @st.composite
    def sparse_experiments(draw):
        """Up to 12 qubits; each row a few nonzero counts up to 2**40, or none."""
        n = draw(st.integers(1, MAX_QUBITS))
        units = draw(st.integers(1, 4))
        counts = np.zeros((units, 2**n), dtype=np.int64)
        for row in counts:
            hits = draw(st.dictionaries(
                st.integers(0, 2**n - 1), st.integers(1, 3) | st.integers(1, 2**40),
                max_size=6,
            ))
            row[list(hits)] = list(hits.values())
        return ExperimentData(
            n=n,
            state_label=draw(st.text(min_size=1, max_size=8)),
            clifford_ids=draw(
                hnp.arrays(np.int64, (units, n), elements=st.integers(0, 23))
            ),
            counts=counts,
            seed=draw(st.none() | st.integers(-(2**70), 2**70)),
        )

    @PROPERTY
    @given(sparse_experiments())
    def test_writer_matches_json_dumps(self, data):
        buf = io.StringIO()
        write_records(data, buf)
        assert buf.getvalue() == _reference_records(data)

    def test_writer_matches_json_dumps_on_dense_rows(self):
        counts = np.zeros((3, 2**12), dtype=np.int64)
        counts[0] = np.arange(2**12) % 7
        counts[2, [0, 1, 2**11, 2**12 - 1]] = [2**40, 1, 2**40 - 1, 3]
        ids = np.arange(36).reshape(3, 12) % 24
        data = ExperimentData(n=12, state_label="x", clifford_ids=ids, counts=counts)
        buf = io.StringIO()
        write_records(data, buf)
        assert buf.getvalue() == _reference_records(data)
        assert buf.getvalue().splitlines()[2].endswith('"counts": {}}')

    def test_valid_lines_pass_the_gate(self):
        buf = io.StringIO()
        write_records(_sample_data(), buf)
        buf.seek(0)
        with mock.patch.object(recordio, "_parse_unit", side_effect=AssertionError):
            assert read_records(buf) == _sample_data()

    @settings(PROPERTY, max_examples=600)
    @given(TestRecordProperties.record_files())
    def test_gate_agrees_with_the_per_key_parse(self, text):
        assert _read_or_error(io.StringIO(text)) == _read_per_key(io.StringIO(text))

    @pytest.mark.parametrize(
        "line, want",
        [
            (b'{"clifford_ids": [0, 1], "counts": {"00": 3, "00": 5, "11": 1}}',
             "line 3: repeated key '00'"),
            (b'{"clifford_ids": [0, 1], "counts": {"00": 4}, "clifford_ids": [2, 3]}',
             "line 3: repeated key 'clifford_ids'"),
            (b'{"clifford_ids": [0, 1], "counts": {"\\u0030\\u0031": 4}}',
             [0, 4, 0, 0]),
            (b'{"clifford_ids": [0, 1], "counts": {"01": 4, "\\u0030\\u0031": 2}}',
             "line 3: repeated key '01'"),
            (b'{"clifford_ids": [0, 1], "counts": {"00": true}}',
             "line 3: count for '00' must be a positive integer"),
            (b'{"clifford_ids": [0, 1], "counts": {"0\xc3\x28": 1}}',
             "line 3: bytes that are not UTF-8"),
        ],
    )
    def test_named_lines_keep_their_result(self, tmp_path, line, want):
        buf = io.StringIO()
        write_records(_sample_data(), buf)
        lines = [row.encode() for row in buf.getvalue().splitlines()]
        lines[2] = line
        path = tmp_path / "named.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        got = _read_or_error(path)
        assert got == _read_per_key(path)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.counts[1].tolist() == want
            assert got.clifford_ids[1].tolist() == [0, 1]
