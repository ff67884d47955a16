"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import io
import json
import math

import numpy as np
import pytest

from stabrenyi import calibration
from stabrenyi.cli import (
    EXIT_DATA,
    EXIT_DOMAIN,
    EXIT_INFEASIBLE,
    EXIT_OK,
    build_parser,
    build_state,
    main,
    state_from_label,
)
from stabrenyi.estimator import estimate, simulate_experiment
from stabrenyi.oracle import stab_purity_exact
from stabrenyi.recordio import RecordFormatError
from stabrenyi.states import gamma_state, plus_state, ptheta_state, zero_state


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def _run_json(capsys, *argv) -> dict:
    code, out = _run(capsys, *argv)
    assert code == EXIT_OK
    return json.loads(out)


class TestStateBuilding:
    @pytest.mark.parametrize(
        "argv, want_label, want_state",
        [
            (["--state", "gamma", "--n", "3", "--t", "4"], "gamma-3-4", gamma_state(3, 4)),
            (["--state", "zero", "--n", "2"], "zero-2", zero_state(2)),
            (["--state", "plus", "--n", "1"], "plus-1", plus_state(1)),
            (["--state", "ptheta", "--theta", "0.5"], "ptheta-0.5", ptheta_state(0.5)),
        ],
    )
    def test_build_state(self, argv, want_label, want_state):
        parser = build_parser()
        args = parser.parse_args(["oracle", *argv])
        state, label = build_state(args)
        assert label == want_label
        assert np.array_equal(state.amplitudes, want_state.amplitudes)

    def test_missing_family_parameters(self):
        parser = build_parser()
        for argv in (
            ["--state", "gamma", "--n", "3"],
            ["--state", "gamma", "--t", "3"],
            ["--state", "ptheta"],
            ["--state", "zero"],
        ):
            with pytest.raises(ValueError):
                build_state(parser.parse_args(["oracle", *argv]))

    @pytest.mark.parametrize(
        "label",
        ["gamma-3-4", "zero-2", "plus-3", "ptheta-0.785398163397"],
    )
    def test_state_from_label_round_trip(self, label, capsys):
        parser = build_parser()
        family = label.split("-")[0]
        argv = {
            "gamma": ["--state", "gamma", "--n", "3", "--t", "4"],
            "zero": ["--state", "zero", "--n", "2"],
            "plus": ["--state", "plus", "--n", "3"],
            "ptheta": ["--state", "ptheta", "--theta", "0.785398163397"],
        }[family]
        built, built_label = build_state(parser.parse_args(["oracle", *argv]))
        assert built_label == label
        rebuilt = state_from_label(label)
        assert np.max(np.abs(rebuilt.amplitudes - built.amplitudes)) < 1e-12

    @pytest.mark.parametrize(
        "label", ["custom", "gamma-3", "gamma-a-b", "zero-x", "ptheta-abc", ""]
    )
    def test_state_from_label_rejects_malformed(self, label):
        with pytest.raises(RecordFormatError):
            state_from_label(label)


class TestOracleCommand:
    def test_t_state_values(self, capsys):
        doc = _run_json(
            capsys, "oracle", "--state", "ptheta", "--theta", str(math.pi / 4)
        )
        assert doc["stab_purity"] == pytest.approx(0.375, abs=1e-12)
        assert doc["purity"] == pytest.approx(1.0, abs=1e-12)
        assert doc["stab_renyi2"] == pytest.approx(math.log2(4 / 3), abs=1e-12)
        assert doc["max_offidentity_pauli"] == pytest.approx(1 / math.sqrt(2))

    def test_alpha_list(self, capsys):
        doc = _run_json(
            capsys,
            "oracle", "--state", "gamma", "--n", "3", "--t", "2",
            "--alpha", "0.5,1,2,inf",
        )
        renyi = doc["stab_renyi"]
        assert set(renyi) == {"0.5", "1", "2", "inf"}
        # Renyi entropies are non-increasing in alpha
        assert renyi["0.5"] >= renyi["1"] >= renyi["2"] >= renyi["inf"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--theta", "nan"],
            ["--theta", "inf"],
            ["--theta", "0.3", "--alpha", "nan"],
            ["--theta", "0.3", "--alpha", "2,nan"],
        ],
    )
    def test_nan_parameters_are_domain_errors(self, capsys, argv):
        # --theta nan once died with an AssertionError traceback (exit 1) and
        # --alpha nan wrote a bare NaN into the report (exit 0)
        code, out = _run(capsys, "oracle", "--state", "ptheta", *argv)
        assert code == EXIT_DOMAIN and out == ""

    def test_writes_to_file(self, capsys, tmp_path):
        out = tmp_path / "oracle.json"
        code, stdout = _run(
            capsys, "oracle", "--state", "zero", "--n", "1", "--out", str(out)
        )
        assert code == EXIT_OK
        assert stdout == ""
        assert json.loads(out.read_text())["stab_purity"] == pytest.approx(0.5)


class TestSimulateEstimate:
    def test_simulate_writes_valid_records(self, capsys, tmp_path):
        out = tmp_path / "records.jsonl"
        code, _ = _run(
            capsys,
            "simulate", "--state", "gamma", "--n", "2", "--t", "2",
            "--nu", "5", "--nm", "16", "--seed", "7", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        header = json.loads(lines[0])
        assert header["state_label"] == "gamma-2-2"
        assert header["seed"] == 7

    def test_simulate_deterministic(self, capsys):
        argv = (
            "simulate", "--state", "zero", "--n", "1",
            "--nu", "3", "--nm", "8", "--seed", "1",
        )
        _, first = _run(capsys, *argv)
        _, second = _run(capsys, *argv)
        assert first == second

    def test_estimate_matches_in_memory_pipeline(self, capsys, tmp_path):
        out = tmp_path / "records.jsonl"
        _run(
            capsys,
            "simulate", "--state", "gamma", "--n", "2", "--t", "3",
            "--nu", "8", "--nm", "32", "--seed", "13", "--out", str(out),
        )
        doc = _run_json(capsys, "estimate", "--records", str(out))
        data = simulate_experiment(
            gamma_state(2, 3), 8, 32, seed=13, state_label="gamma-2-3"
        )
        report = estimate(data, "ustat")
        assert doc["estimates"]["stab_purity"] == report.stab_purity
        assert doc["estimates"]["purity"] == report.purity
        assert doc["seed"] == 13
        assert doc["method"] == "ustat"

    def test_estimate_from_stdin(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "records.jsonl"
        _run(
            capsys,
            "simulate", "--state", "zero", "--n", "1",
            "--nu", "4", "--nm", "8", "--seed", "3", "--out", str(out),
        )
        file_doc = _run_json(capsys, "estimate", "--records", str(out))
        monkeypatch.setattr("sys.stdin", io.StringIO(out.read_text()))
        stdin_doc = _run_json(capsys, "estimate", "--records", "-")
        assert stdin_doc == file_doc

    def test_estimate_verbose_and_plugin(self, capsys, tmp_path):
        out = tmp_path / "records.jsonl"
        _run(
            capsys,
            "simulate", "--state", "plus", "--n", "1",
            "--nu", "4", "--nm", "8", "--seed", "2", "--out", str(out),
        )
        doc = _run_json(
            capsys,
            "estimate", "--records", str(out), "--method", "plugin", "--verbose",
        )
        assert doc["method"] == "plugin"
        assert len(doc["per_word"]["stab_purity"]) == 4

    def test_simulate_with_noise(self, capsys, tmp_path):
        out = tmp_path / "records.jsonl"
        code, _ = _run(
            capsys,
            "simulate", "--state", "zero", "--n", "2",
            "--nu", "3", "--nm", "16", "--seed", "5",
            "--noise", "0.9,0.95,0.2", "--out", str(out),
        )
        assert code == EXIT_OK
        clean = tmp_path / "clean.jsonl"
        _run(
            capsys,
            "simulate", "--state", "zero", "--n", "2",
            "--nu", "3", "--nm", "16", "--seed", "5", "--out", str(clean),
        )
        assert out.read_text() != clean.read_text()


class TestFitNoiseCommand:
    def test_end_to_end(self, capsys, tmp_path):
        zero = tmp_path / "zero.jsonl"
        target = tmp_path / "target.jsonl"
        noise = "0.85,0.95,0.30"
        _run(
            capsys,
            "simulate", "--state", "zero", "--n", "3",
            "--nu", "150", "--nm", "200", "--seed", "5",
            "--noise", noise, "--out", str(zero),
        )
        _run(
            capsys,
            "simulate", "--state", "gamma", "--n", "3", "--t", "4",
            "--nu", "150", "--nm", "200", "--seed", "6",
            "--noise", noise, "--out", str(target),
        )
        doc = _run_json(
            capsys,
            "fit-noise", "--records-zero", str(zero), "--records", str(target),
        )
        fit = doc["noise_fit"]
        # loose brackets: a small sample only localizes the parameters
        assert abs(fit["p"] - 0.85) < 0.15
        assert abs(fit["q"] - 0.95) < 0.05
        assert abs(fit["epsilon"] - 0.30) < 0.25
        assert fit["p_err"] is not None
        assert doc["zero_estimates"]["purity"] > 0
        assert doc["zero_seed"] == 5
        assert doc["seed"] == 6

    def test_infeasible_zero_data_exit_code(self, capsys, tmp_path):
        zero = tmp_path / "zero.jsonl"
        header = {
            "format": "rm-records", "format_version": 1, "n": 3,
            "state_label": "zero-3", "bit_order": "msb-first",
        }
        record = {"clifford_ids": [0, 0, 0], "counts": {"000": 8}}
        zero.write_text(
            json.dumps(header) + "\n" + json.dumps(record) + "\n"
        )
        code, _ = _run(
            capsys,
            "fit-noise", "--records-zero", str(zero), "--records", str(zero),
        )
        assert code == EXIT_INFEASIBLE


class TestCalibrateCommand:
    def test_custom_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"unit_grid": [8, 16], "shot_grid": [32]}))
        doc = _run_json(
            capsys,
            "calibrate", "--state", "ptheta", "--theta", str(math.pi / 4),
            "--grid", str(grid), "--trials", "3", "--seed", "9",
        )
        cal = doc["calibration"]
        assert len(cal["cells"]) == 2
        assert cal["trials"] == 3
        assert {c["n_units"] for c in cal["cells"]} == {8, 16}
        assert "selected" in cal

    def test_bad_grid_file_exit_code(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"unit_grid": [8]}))
        code, _ = _run(
            capsys,
            "calibrate", "--state", "zero", "--n", "1",
            "--grid", str(grid), "--trials", "3", "--seed", "0",
        )
        assert code == EXIT_DATA


    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"unit_grid": [True, 3.7], "shot_grid": [32]}),
            json.dumps({"unit_grid": [8], "shot_grid": [0]}),
            json.dumps({"unit_grid": [-8], "shot_grid": [32]}),
            json.dumps({"unit_grid": [], "shot_grid": [32]}),
            json.dumps({"unit_grid": 8, "shot_grid": [32]}),
            json.dumps([[8], [32]]),
            '{"unit_grid": [8], "shot_grid": [32',
        ],
        ids=["bool-and-float", "zero", "negative", "empty", "scalar", "list",
             "invalid-json"],
    )
    def test_invalid_grid_file_is_a_data_error(self, capsys, tmp_path, text):
        grid = tmp_path / "grid.json"
        grid.write_text(text)
        code = main([
            "calibrate", "--state", "zero", "--n", "1",
            "--grid", str(grid), "--trials", "3", "--seed", "0",
        ])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"grid file {grid}" in captured.err


    def test_undecodable_grid_file_is_a_data_error(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_bytes(b"\xff")
        code = main([
            "calibrate", "--state", "zero", "--n", "1",
            "--grid", str(grid), "--trials", "3", "--seed", "0",
        ])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"grid file {grid}" in captured.err
        assert "not UTF-8" in captured.err


class TestPredictCommand:
    def test_matches_library(self, capsys):
        from stabrenyi.noise import predict_noisy_observables

        doc = _run_json(
            capsys,
            "predict", "--state", "gamma", "--n", "3", "--t", "5",
            "--p", "0.9", "--eps", "0.1",
        )
        want = predict_noisy_observables(gamma_state(3, 5), 0.9, 0.1)
        for key, value in want.items():
            assert doc[key] == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_non_finite_eps_is_a_domain_error(self, capsys, eps):
        code = main([
            "predict", "--state", "gamma", "--n", "2", "--t", "2",
            "--p", "0.9", f"--eps={eps}",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert "must be finite" in captured.err

    def test_default_eps_zero(self, capsys):
        doc = _run_json(
            capsys,
            "predict", "--state", "gamma", "--n", "2", "--t", "2", "--p", "1.0",
        )
        assert doc["epsilon"] == 0.0
        assert doc["w_noisy"] == pytest.approx(stab_purity_exact(gamma_state(2, 2)))
        assert doc["g"] == pytest.approx(1.0)
        assert doc["omega"] == pytest.approx(0.0, abs=1e-12)


class TestFitScalingCommand:
    def test_exact_fit(self, capsys):
        n = 3
        points = [[t, 2.0 ** (10 + 0.5 * ((2 * n - 1) - t))] for t in range(1, 6)]
        doc = _run_json(
            capsys, "fit-scaling", "--points", json.dumps(points), "--n", "3"
        )
        assert doc["a"] == pytest.approx(10.0, abs=1e-9)
        assert doc["b"] == pytest.approx(0.5, abs=1e-9)
        assert doc["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points_exit_code(self, capsys):
        code, _ = _run(
            capsys, "fit-scaling", "--points", "[[1, 100], [2, 50]]", "--n", "3"
        )
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize(
        "points, entry",
        [
            ("[[true, 7000], [2.9, 5000], [3, 3000], [4, 2000]]", "[true, 7000]"),
            ("[[1, 7000], [2.9, 5000], [3, 3000], [4, 2000]]", "[2.9, 5000]"),
            ("[[1], [2, 5], [3, 4]]", "[1]"),
            ("[[1, 7], [2, 5], [3, 4, 1]]", "[3, 4, 1]"),
            ("[[1, 7], [2, false], [3, 4]]", "[2, false]"),
            ('[[1, 7], [2, "5"], [3, 4]]', '[2, "5"]'),
            ("[[1, 7], [2, NaN], [3, 4]]", "[2, NaN]"),
            ("[[1, 7], 5, [3, 4]]", "5"),
            ("5", "5"),
            ('{"1": 7000}', '{"1": 7000}'),
            (f"[[1, 7], [2, 1{'0' * 400}], [3, 4]]", f"[2, 1{'0' * 400}]"),
            (f"[[1, 7], [1{'0' * 400}, 5], [3, 4]]", f"[1{'0' * 400}, 5]"),
        ],
        ids=["bool-t", "float-t", "short", "long", "bool-total", "string-total",
             "nan-total", "scalar-entry", "scalar", "object", "huge-total", "huge-t"],
    )
    def test_malformed_points_are_a_domain_error(self, capsys, points, entry):
        code = main(["fit-scaling", "--points", points, "--n", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN
        assert captured.out == ""
        assert entry in captured.err

    def test_invalid_points_json_is_a_data_error(self, capsys):
        code, _ = _run(capsys, "fit-scaling", "--points", "[[1, 7000], [2,", "--n", "3")
        assert code == EXIT_DATA


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--state", "gamma"])  # missing required flags
        assert err.value.code == 2

    def test_unknown_command_is_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2

    def test_missing_file_is_3(self, capsys):
        code, _ = _run(capsys, "estimate", "--records", "/nonexistent/file.jsonl")
        assert code == EXIT_DATA

    def test_malformed_records_is_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "csv"}\n')
        code, _ = _run(capsys, "estimate", "--records", str(bad))
        assert code == EXIT_DATA

    def test_records_that_are_not_utf8_are_3(self, capsys, tmp_path, monkeypatch):
        good = tmp_path / "good.jsonl"
        _run(capsys, "simulate", "--state", "zero", "--n", "1", "--nu", "3",
             "--nm", "8", "--seed", "0", "--out", str(good))
        lines = good.read_bytes().split(b"\n")
        lines[2] = b"\xff\xfe"
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines))
        assert main(["estimate", "--records", str(bad)]) == EXIT_DATA
        assert "line 3" in capsys.readouterr().err
        stdin = io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, _ = _run(capsys, "estimate", "--records", "-")
        assert code == EXIT_DATA

    def test_domain_error_is_5(self, capsys):
        code, _ = _run(
            capsys,
            "predict", "--state", "gamma", "--n", "3", "--t", "99", "--p", "0.9",
        )
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("seed", ["-1", "-18446744073709551616"])
    def test_negative_calibrate_seed_is_5_and_named(self, capsys, seed):
        code = main([
            "calibrate", "--state", "zero", "--n", "1", "--trials", "2", "--seed", seed,
        ])
        assert code == EXIT_DOMAIN
        assert f"error: seed must be non-negative, not {seed}" in capsys.readouterr().err

    def test_short_shot_grid_is_5_before_any_cell_runs(self, capsys, tmp_path, monkeypatch):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"unit_grid": [8, 16], "shot_grid": [32, 3]}))
        monkeypatch.setattr(calibration, "_simulate_blocks", None)  # never reached
        code = main([
            "calibrate", "--state", "zero", "--n", "1", "--trials", "2", "--seed", "0",
            "--grid", str(grid),
        ])
        assert code == EXIT_DOMAIN
        assert "4 shots" in capsys.readouterr().err

    def test_bad_noise_spec_is_5(self, capsys):
        code, _ = _run(
            capsys,
            "simulate", "--state", "zero", "--n", "1",
            "--nu", "2", "--nm", "8", "--seed", "0", "--noise", "0.9,0.95",
        )
        assert code == EXIT_DOMAIN


#: sha256 of each ``--help`` text at 80 columns, pinned before the subparsers'
#: shared epilog and formatter moved into one helper.
HELP_DIGESTS = {
    "": "707785a4a7a43b20da0a3271744634544c24361539f55d6f1c08739047429c32",
    "oracle": "77f5519d958cdaf2ce5ad179e6e8d8f3628d8cd922617cd9e2e800dcc59d8f15",
    "simulate": "f63b45cc3b4d928e13ed250b2d34ed8bf4aa58fc0e3dc80e2e2d4afe1d68fc1a",
    "estimate": "03551214945e7a37a6b57c596a6e2b1ae0b02124897997c4a8f2531df9514147",
    "fit-noise": "761bafd79f644194d12310fb1c8b9e475b4d99d6087ba6f9b5f17d6328b037a9",
    "calibrate": "13dd45a99ecb6e29254787663af701fd153a26a42c24c3dc3c1472a0a536931f",
    "predict": "d000aeb9713fd65f46b489d48e4a4988fbdd0786279bc51227bc23d4d55031f3",
    "fit-scaling": "ab7b599e394930404e47802bf6f0ac12417b7c792258633fd43d03ef884a0ee1",
}


class TestHelpAndVersion:
    def test_help_documents_conventions(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "msb-first" in out
        assert "exit codes" in out

    def test_subcommand_help_repeats_conventions(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "msb-first" in out

    @pytest.mark.parametrize("command", list(HELP_DIGESTS))
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as err:
            main([command, "--help"] if command else ["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]

    def test_version(self, capsys):
        from stabrenyi import __version__

        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert __version__ in capsys.readouterr().out
