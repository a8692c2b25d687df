import array
import ast
import contextlib
import csv
import fcntl
import io
import itertools
import json
import os
import select
import subprocess
import sys
import termios
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unravel
from unravel import bounds, channels, cli, demos, ensembles, linalg
from unravel.channels import random_unraveling
from unravel.entropy import _entropy, conjugate_order

from helpers import ReferenceReporter, blocks_of, stream_log, x_basis_povm, z_basis_povm


def _encode(m):
    return cli.matrix_to_json(np.asarray(m, complex))


def _write_instance(tmp_path, name="inst.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env():
    """Environment in which a child interpreter imports this checkout's unravel."""
    src = str(Path(unravel.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cli_process(argv):
    """A finished `python -m unravel.cli` run of argv, its output captured as text."""
    return subprocess.run(
        [sys.executable, "-m", "unravel.cli", *argv], env=_src_env(), capture_output=True, text=True, timeout=120
    )


def _json_rows(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestMatrixCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = cli.matrix_from_json(cli.matrix_to_json(m), "m")
        assert np.allclose(back, m, atol=1e-15)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            cli.matrix_from_json([[1.0, 2.0]], "m")


class TestLoadInstance:
    def test_defaults(self, tmp_path):
        path = _write_instance(tmp_path, dim=3)
        inst = cli.load_instance(path)
        assert inst["seed"] == 0
        assert np.allclose(inst["rho"], np.eye(3) / 3)

    def test_missing_dim(self, tmp_path):
        path = _write_instance(tmp_path, seed=1)
        with pytest.raises(ValueError):
            cli.load_instance(path)

    def test_full_instance(self, tmp_path):
        a = random_unraveling(2, 3, seed=1)
        rho = linalg.random_density(2, 2, seed=2)
        path = _write_instance(
            tmp_path,
            dim=2,
            seed=7,
            rho=_encode(rho),
            kraus=[_encode(k) for k in a.kraus_ops],
            povm_m=[_encode(m) for m in z_basis_povm().elements],
            povm_n=[_encode(m) for m in x_basis_povm().elements],
        )
        inst = cli.load_instance(path)
        assert inst["seed"] == 7
        assert np.allclose(inst["rho"], rho)
        assert inst["kraus"].n_ops == 3
        assert len(inst["povm_m"].elements) == 2

    _POVMS = {k: [_encode(m) for m in z_basis_povm().elements] for k in ("povm_m", "povm_n")}
    _KRAUS = [_encode(k) for k in random_unraveling(2, 2, seed=4).kraus_ops]

    @pytest.mark.parametrize(
        "fields",
        [
            {"dim": None},
            {"dim": 2.7},
            {"dim": True},
            {"dim": 0},
            {"dim": -1},
            {"dim": 2, "seed": None},
            {"dim": 2, "seed": 1.5},
            {"dim": 2, "seed": -1},  # extremal used to print its summary row, then fail in numpy
            {"dim": 3},  # disagrees with the 2 x 2 operators
            {"dim": 2, "kraus": None, "povm_m": 5},
        ],
    )
    def test_bad_fields_exit_2(self, tmp_path, capsys, fields):
        path = _write_instance(tmp_path, **{"kraus": self._KRAUS, **self._POVMS, **fields})
        for argv in (["uncertainty", "--in", path, "--alpha", "2"], ["extremal", "--in", path]):
            code, out, err = _run(capsys, argv)
            assert (code, out) == (2, "")
            assert "instance" in json.loads(err)["error"]

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_non_finite_povm_exits_2(self, tmp_path, capsys, entry):
        povm = [_encode(m) for m in z_basis_povm().elements]
        povm[1][0][1] = [entry, 0.0]
        path = _write_instance(tmp_path, dim=2, povm_m=povm, povm_n=self._POVMS["povm_n"])
        code, out, err = _run(capsys, ["uncertainty", "--in", path, "--alpha", "2"])
        assert (code, out) == (2, "")
        assert "non-finite" in json.loads(err)["error"]

    def test_large_dim_rejected_before_allocating(self, tmp_path, capsys):
        # the default rho = I/dim would take 32 MB at dim 2000, and the file has no operator to match
        path = _write_instance(tmp_path, dim=2000)
        for argv in (["uncertainty", "--in", path, "--alpha", "2"], ["extremal", "--in", path]):
            tracemalloc.start()
            try:
                code = cli.main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 2
            assert peak < 2**20
            assert "misses required field" in json.loads(capsys.readouterr().err)["error"]


class TestExtremalCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        a = random_unraveling(2, 3, seed=3)
        path = _write_instance(tmp_path, dim=2, kraus=[_encode(k) for k in a.kraus_ops])
        code, out, err = _run(capsys, ["extremal", "--in", path, "--remixings", "50"])
        assert code == 0
        assert err == ""
        rows = _json_rows(out)
        assert rows[0]["check_name"] == "extremal_summary"
        sweep = [r for r in rows if r["check_name"] == "extremal_vs_remixings"]
        assert len(sweep) == 6
        assert all(r["slack"] >= -1e-9 for r in sweep)

    def test_zero_remixings_rejected(self, tmp_path, capsys):
        a = random_unraveling(2, 3, seed=3)
        path = _write_instance(tmp_path, dim=2, kraus=[_encode(k) for k in a.kraus_ops])
        for argv in (["extremal", "--in", path], ["sweep", "--dim", "2", "--trials", "1"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--remixings", "0"])
            assert exc.value.code == 2
            assert "--remixings" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, out, err = _run(capsys, ["extremal", "--in", str(tmp_path / "absent.json")])
        assert code == 2
        assert out == ""
        assert "absent.json" in json.loads(err)["error"]

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        for name, text in (("broken.json", '{"dim": 2,'), ("scalar.json", "5")):
            path = tmp_path / name
            path.write_text(text)
            code, _, err = _run(capsys, ["extremal", "--in", str(path)])
            assert code == 2
            assert "error" in json.loads(err)

    def test_missing_kraus_exits_2(self, tmp_path, capsys):
        path = _write_instance(tmp_path, dim=2)
        code, out, err = _run(capsys, ["extremal", "--in", path])
        assert code == 2
        assert "error" in json.loads(err)


class TestUncertaintyCommand:
    def _zx_instance(self, tmp_path):
        return _write_instance(
            tmp_path,
            dim=2,
            povm_m=[_encode(m) for m in z_basis_povm().elements],
            povm_n=[_encode(m) for m in x_basis_povm().elements],
        )

    def test_tsallis_hand_values(self, tmp_path, capsys):
        path = self._zx_instance(tmp_path)
        code, out, _ = _run(capsys, ["uncertainty", "--in", path, "--alpha", "2"])
        assert code == 0
        (row,) = _json_rows(out)
        assert row["check_name"] == "tsallis_uncertainty"
        assert row["lhs"] == pytest.approx(0.5 + 3 * (2 ** (1 / 3) - 1), abs=1e-10)
        assert row["rhs"] == pytest.approx(0.75, abs=1e-12)
        assert row["factor"] == pytest.approx(0.5, abs=1e-12)

    def test_renyi_kind(self, tmp_path, capsys):
        path = self._zx_instance(tmp_path)
        code, out, _ = _run(
            capsys, ["uncertainty", "--in", path, "--alpha", "2", "--kind", "renyi", "--factor", "fbar"]
        )
        assert code == 0
        (row,) = _json_rows(out)
        assert row["factor_kind"] == "fbar"
        assert row["rhs"] == pytest.approx(np.log(2), abs=1e-12)

    def test_bad_rho_exits_2(self, tmp_path, capsys):
        # the file's rho is checked once, by the command that uses it
        povms = {k: [_encode(m) for m in z_basis_povm().elements] for k in ("povm_m", "povm_n")}
        kraus = [_encode(k) for k in random_unraveling(2, 2, seed=4).kraus_ops]
        for rho, message in ((np.diag([1.5, -0.5]), "not PSD"), (np.eye(3) / 3, "dimension")):
            path = _write_instance(tmp_path, dim=2, rho=_encode(rho), kraus=kraus, **povms)
            for argv in (["uncertainty", "--in", path, "--alpha", "2"], ["extremal", "--in", path]):
                code, out, err = _run(capsys, argv)
                assert (code, out) == (2, "")
                assert message in json.loads(err)["error"]

    def test_trace_error_names_a_plain_number(self, tmp_path, capsys):
        povms = {k: [_encode(m) for m in z_basis_povm().elements] for k in ("povm_m", "povm_n")}
        path = _write_instance(tmp_path, dim=2, rho=_encode(np.eye(2)), **povms)
        code, out, err = _run(capsys, ["uncertainty", "--in", path, "--alpha", "2"])
        assert (code, out, err) == (2, "", '{"error": "rho has trace 2.0, expected 1"}\n')

    @pytest.mark.parametrize(
        "command, field, message",
        [
            (["extremal"], "kraus", "completeness violated: Kraus set has an entry of modulus at least 1e+200"),
            (["uncertainty", "--alpha", "2"], "povm_m", "POVM element has an entry of modulus at least 1e+200"),
            (["uncertainty", "--alpha", "2"], "rho", "rho has an entry of modulus at least 1e+200"),
        ],
        ids=["kraus", "povm", "rho"],
    )
    def test_huge_finite_entries_exit_2_without_warning(self, tmp_path, capsys, command, field, message):
        # every entry of a valid operator has modulus <= 1, so one of 1e200 is rejected
        # before a product or norm of it overflows (which numpy would warn about)
        huge = _encode([[0.5, 1e200], [0.0, 0.5]])
        fields = {k: [_encode(m) for m in z_basis_povm().elements] for k in ("povm_m", "povm_n")}
        fields[field] = huge if field == "rho" else [huge]
        path = _write_instance(tmp_path, dim=2, **fields)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, [command[0], "--in", path, *command[1:]])
        assert (code, out, err) == (2, "", json.dumps({"error": message}) + "\n")
        assert caught == []

    def test_missing_povm_exits_2(self, tmp_path, capsys):
        path = _write_instance(tmp_path, dim=2)
        code, _, err = _run(capsys, ["uncertainty", "--in", path, "--alpha", "2"])
        assert code == 2
        assert "error" in json.loads(err)


class TestOrderGrid:
    """`sweep` and `extremal` take their order grid in one entropy call a side: a
    grid's rows are, byte for byte, those of the same run at each order alone."""

    GRID = ["0.3", "0.5", "0.7", "1", "1.000000001", "2", "400"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["sweep", "extremal"])
    def test_grid_rows_are_each_order_alone(self, tmp_path, capsys, command, fmt):
        trials = 5  # blocks of one trial, then four
        if command == "sweep":
            argv = ["sweep", "--dim", "2", "--trials", str(trials), "--remixings", "10", "--seed", str(2**70)]
        else:
            kraus = [_encode(k) for k in random_unraveling(3, 3, seed=2).kraus_ops]
            argv = ["extremal", "--in", _write_instance(tmp_path, dim=3, seed=4, kraus=kraus), "--remixings", "30"]
        head = 1 if fmt == "csv" or command == "extremal" else 0  # the CSV header or the extremal summary

        def run(grid):
            code, out, err = _run(capsys, ["--format", fmt, *argv, "--alpha-grid", grid])
            assert (code, err) == (0, "")
            lines = out.splitlines(keepends=True)
            return lines[:head], lines[head:]

        heads, alone = zip(*[run(alpha) for alpha in self.GRID])
        if command == "sweep":  # each trial's factor_chain row, then each order's rows
            per = [len(lines) // trials for lines in alone]
            want = []
            for t in range(trials):
                want.append(alone[0][t * per[0]])
                want += [line for lines, n in zip(alone, per) for line in lines[t * n + 1 : (t + 1) * n]]
        else:
            want = [line for lines in alone for line in lines]
        assert run(",".join(self.GRID)) == (heads[0], want)
        assert len(want) == (trials * 18 if command == "sweep" else 7)  # 1 + 7 + 2 * 5 rows a trial

    def test_theorem1_takes_the_grid_in_slices(self):
        # a 200-order grid over linalg.BLOCK_ELEMENTS remixed probabilities: each entropy call
        # stacks 1 + BLOCK_ELEMENTS // probs.size orders of terms, so the peak stays that of one
        # order's call, a few times probs' size; the whole grid at once would hold 200 times
        rng = np.random.default_rng(0)
        probs, lambdas = (cli._normalized(rng.random(shape)) for shape in ((8, 64, 128), (8, 128)))
        assert probs.size == linalg.BLOCK_ELEMENTS
        grid = np.linspace(0.1, 5.0, 200).tolist()
        tracemalloc.start()
        try:
            lhs, rhs = cli._theorem1(lambdas, [probs], grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * probs.nbytes
        assert lhs.shape == rhs.shape == (200, 8)
        for k in (0, 101, 199):
            assert lhs[k].tobytes() == _entropy(probs, grid[k], "tsallis").min(axis=-1).tobytes()
            assert rhs[k].tobytes() == _entropy(lambdas, grid[k], "tsallis").tobytes()


class TestSweepCommand:
    ARGS = ["sweep", "--dim", "2", "--trials", "3", "--remixings", "40", "--seed", "5"]

    def test_runs_green(self, capsys):
        code, out, err = _run(capsys, self.ARGS)
        assert code == 0
        assert err == ""
        rows = _json_rows(out)
        names = {r["check_name"] for r in rows}
        assert {"factor_chain", "theorem1_tsallis", "theorem2_tsallis", "renyi_relation"} <= names
        assert all(r["slack"] >= -1e-9 for r in rows if "slack" in r)

    def test_largest_order_gives_finite_rows(self, capsys):
        code, out, err = _run(capsys, ["sweep", "--dim", "16", "--trials", "1", "--alpha-grid", "8e307"])
        assert (code, err) == (0, "")
        (relation,) = [r for r in _json_rows(out) if r["check_name"] == "renyi_relation"]
        assert np.isfinite([relation["lhs"], relation["slack"]]).all()

    def test_byte_determinism(self, capsys):
        _, out1, _ = _run(capsys, self.ARGS)
        _, out2, _ = _run(capsys, self.ARGS)
        assert out1 == out2

    def test_timing_flag_adds_field(self, capsys):
        _, out, _ = _run(capsys, ["--timing"] + self.ARGS)
        rows = _json_rows(out)
        assert all("wall_time_ms" in r for r in rows)
        # one time per table (trial 0, then trials 1-2), taken as it is written
        times = [r["wall_time_ms"] for r in rows]
        assert times == sorted(times)
        _, out_plain, _ = _run(capsys, self.ARGS)
        assert all("wall_time_ms" not in r for r in _json_rows(out_plain))


    def test_top_of_dimension_range(self, capsys):
        code, out, err = _run(capsys, ["sweep", "--dim", "64", "--trials", "1", "--seed", "3"])
        assert code == 0
        assert err == ""
        rows = _json_rows(out)
        assert len(rows) == 10
        assert rows[0]["check_name"] == "factor_chain"
        assert rows[0]["slack"] >= -1e-9

    def test_rows_stream_as_made(self, capsys, monkeypatch):
        # trial 0's rows reach stdout before trial 1 draws its state, and an error in
        # trial 1 leaves them there as whole JSON lines
        seeds = [b + k for b in (5, 1005) for k in range(5)]
        log = stream_log(monkeypatch, seeds, raises={1005: ValueError("trial 1 failed")})
        code, out, err = _run(capsys, ["sweep", "--dim", "2", "--trials", "2", "--seed", "5"])
        before_draw = [text for seed, text in log if seed in (5, 1005)]  # each trial's first draw, its state's
        assert code == 2
        assert json.loads(err) == {"error": "trial 1 failed"}
        assert before_draw[0] == "" and out == before_draw[1]
        rows = _json_rows(before_draw[1])
        assert len(rows) == 10
        assert rows[0]["check_name"] == "factor_chain"
        assert all(r["seed"] == 5 for r in rows)
        # one stream per seed, stage by stage: the POVM pair's (3, 4) before the remixings' (2)
        assert [seed for seed, _ in log] == [5, 6, 8, 9, 7, 1005]

    def test_sliced_remixings_open_each_stream_once(self, capsys, monkeypatch):
        # 1100 remixings of d = 8 take two slices in each trial, and each later slice continues
        # the stream its seed opened for the first: every seed's stream opens exactly once
        assert 1100 * 8 * 8 > linalg.BLOCK_ELEMENTS >= 1024 * 8 * 8
        slices = []
        log = stream_log(monkeypatch, [b + k for b in (0, 1000) for k in range(5)])

        def sliced(*args):
            slices.append(list(ginibre_slices(*args)))
            return iter(slices[-1])

        ginibre_slices = linalg.ginibre_slices
        monkeypatch.setattr(linalg, "ginibre_slices", sliced)
        code, out, err = _run(capsys, ["sweep", "--dim", "8", "--trials", "2", "--remixings", "1100"])
        assert code == 0 and err == ""
        assert [[z.shape for z in trial] for trial in slices] == [[(1, 1024, 8, 8), (1, 76, 8, 8)]] * 2
        # one stream per seed, stage by stage: the POVM pair's (3, 4) before the remixings' (2)
        assert [seed for seed, _ in log] == [0, 1, 3, 4, 2, 1000, 1001, 1003, 1004, 1002]

    @pytest.mark.parametrize(
        "argv, first_check, one_trial_blocks, per_trial",
        [
            (["sweep", "--dim", "2", "--trials", "3"], "factor_chain", 1, 10),
            (["sweep", "--dim", "17", "--trials", "3"], "factor_chain", 3, 10),  # from d = 17 a block holds one trial
            (["ensemble", "--dim", "2", "--members", "3", "--alpha", "2", "--trials", "3"], "pure_ensemble_bound", 1, 2),
        ],
        ids=["sweep-d2", "sweep-d17", "ensemble"],
    )
    def test_first_group_leaves_before_stage_2(self, capsys, monkeypatch, argv, first_check, one_trial_blocks, per_trial):
        # in a block of one trial, sweep's factor_chain row is on stdout, alone of the trial's
        # rows, when its stage 2 stream (the remixings) opens.  ensemble's pure_ensemble_bound
        # row waits for every draw of its trial to be checked: it is not on stdout when the last
        # member's stream (stage 2 + m) opens, and it is, alone, when the sandwich is first computed
        log = stream_log(monkeypatch, [1000 * t + k for t in range(3) for k in range(6)])
        sandwiches, sandwich = [], ensembles._sandwich
        monkeypatch.setattr(ensembles, "_sandwich", lambda *a: sandwiches.append(sys.stdout.getvalue()) or sandwich(*a))
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        lines, at = out.splitlines(keepends=True), dict(log)  # each seed opens once
        assert len(log) == len(at)
        for t in range(one_trial_blocks):
            if argv[0] == "ensemble":
                assert at[1000 * t + 2 + int(argv[argv.index("--members") + 1])] == "".join(lines[: per_trial * t])
                assert sandwiches[t] == "".join(lines[: per_trial * t + 1])
            else:
                assert at[1000 * t + 2] == "".join(lines[: per_trial * t + 1])
            row = json.loads(lines[per_trial * t])
            assert (row["check_name"], row["seed"]) == (first_check, 1000 * t)

    @pytest.mark.parametrize("d", [2, 17])  # at d = 2 the two trials make two blocks; from d = 17 every block holds one
    def test_factor_chain_leaves_before_relation_entropies(self, capsys, monkeypatch, d):
        # the relation rows' entropies (bounds._entropy: two kinds, two POVMs a trial) are
        # computed after the trial's factor_chain row is on stdout, alone of its rows
        calls, entropy = [], bounds._entropy
        monkeypatch.setattr(bounds, "_entropy", lambda *a: calls.append(sys.stdout.getvalue()) or entropy(*a))
        code, out, err = _run(capsys, ["sweep", "--dim", str(d), "--trials", "2"])
        assert (code, err) == (0, "")
        lines = out.splitlines(keepends=True)
        assert len(lines) == 20 and len(calls) == 2 * 2 * 2
        for i, seen in enumerate(calls):
            t = i // 4
            assert seen == "".join(lines[: 10 * t + 1])
            assert json.loads(lines[10 * t])["check_name"] == "factor_chain"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_timing_gives_one_time_a_group(self, capsys, fmt):
        # blocks of one trial from d = 17: each trial's factor_chain row, then its other nine
        # rows, each group with its own time as it is written; the CSV header comes once
        code, out, err = _run(capsys, ["--timing", "--format", fmt, "sweep", "--dim", "17", "--trials", "2"])
        assert (code, err) == (0, "")
        if fmt == "csv":
            assert out.count(",".join(cli.ROW_FIELDS)) == 1 and out.startswith(",".join(cli.ROW_FIELDS))
            rows = list(csv.DictReader(io.StringIO(out)))
        else:
            rows = _json_rows(out)
        times = [float(r["wall_time_ms"]) for r in rows]
        assert times == sorted(times)
        assert [r["check_name"] == "factor_chain" for r in rows] == ([True] + [False] * 9) * 2
        assert [len(list(group)) for _, group in itertools.groupby(times)] == [1, 9, 1, 9]

    @pytest.mark.parametrize(
        "command, first_check",
        [
            (["sweep", "--dim", "16", "--trials", "100000"], "factor_chain"),
            (["demo", "dft", "--dim", "8", "--alpha", "2", "--trials", "10000000"], "dft_basis_state"),
            (["ensemble", "--dim", "3", "--members", "4", "--alpha", "2", "--trials", "10000000"], "pure_ensemble_bound"),
        ],
        ids=["sweep", "demo-dft", "ensemble"],
    )
    def test_killed_sweep_leaves_whole_rows(self, command, first_check):
        # rows are written as they are made (by trial, or by block of trials), so a run
        # killed mid-way leaves whole JSON lines
        argv = [sys.executable, "-m", "unravel.cli", *command]
        with subprocess.Popen(argv, env=_src_env(), stdout=subprocess.PIPE, text=True) as proc:
            try:
                assert select.select([proc.stdout], [], [], 30)[0], "no row within 30 s"
                first = proc.stdout.readline()
            finally:
                proc.kill()
            rest = proc.stdout.read()
            proc.wait(timeout=60)
        assert json.loads(first)["check_name"] == first_check
        assert all(json.loads(line) for line in rest.splitlines())

    def test_late_kill_leaves_whole_rows(self):
        # the reader kills the run only after the run has filled the pipe and blocked in the
        # middle of a block of 8192 trials (~2 MB of rows): the pipe holds whole rows only
        argv = [sys.executable, "-m", "unravel.cli", "demo", "dft", "--dim", "8", "--alpha", "2", "--trials", "10000000"]
        with subprocess.Popen(argv, env=_src_env(), stdout=subprocess.PIPE, text=True) as proc:
            try:
                assert select.select([proc.stdout], [], [], 30)[0], "no row within 30 s"
                first = proc.stdout.readline()
                waiting = array.array("i", [0])
                deadline = time.monotonic() + 30
                while waiting[0] < 4096 and time.monotonic() < deadline:  # the second block's rows
                    time.sleep(0.01)
                    fcntl.ioctl(proc.stdout.fileno(), termios.FIONREAD, waiting)
                assert waiting[0] >= 4096, "no second block within 30 s"
                time.sleep(0.2)  # the rest of the block fills the pipe
            finally:
                proc.kill()
            rest = proc.stdout.read()
            proc.wait(timeout=60)
        assert json.loads(first)["check_name"] == "dft_basis_state"
        assert all(json.loads(line) for line in rest.splitlines())

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 16),
        seed=st.integers(0, 10**6),
        grid=st.lists(st.one_of(st.sampled_from([0.3, 0.5, 1.0, 2.0]), st.floats(0.05, 20.0)), max_size=4).flatmap(
            lambda extra: st.permutations(extra + [0.5, 1.0])
        ),
    )
    def test_relation_rows_match_public_checks(self, d, seed, grid):
        # the sweep derives every relation row from one body call; the public one-order
        # checks, called afresh per row, are the reference, to the bit
        argv = ["sweep", "--dim", str(d), "--trials", "1", "--remixings", "2", "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv + ["--alpha-grid", ",".join(map(repr, grid))]) == 0
        rows = _json_rows(out.getvalue())
        rho = linalg.random_density(d, d, seed)
        m, n = bounds.random_projective_povm(d, seed + 3), bounds.random_projective_povm(d, seed + 4)
        g, f, fb = bounds.g_factor(m, n, rho), bounds.f_factor(m, n, rho), bounds.f_bar(m, n)
        assert rows[0]["factor"] == g and rows[0]["slack"] == min(f - g, fb - f, 1.0 + 1e-10 - fb)
        want = []
        for alpha in grid:
            if alpha > 0.5:
                orders = conjugate_order(alpha)
                want += [
                    ("theorem2_tsallis", bounds.tsallis_uncertainty_check(m, n, rho, orders, "g")),
                    ("renyi_relation", bounds.renyi_uncertainty_check(m, n, rho, orders, "g")),
                ]
        got = [r for r in rows if r["check_name"] in ("theorem2_tsallis", "renyi_relation")]
        assert len(got) == len(want)
        for row, (name, report) in zip(got, want):
            assert row == dict(
                check_name=name, d=d, factor_kind="g", seed=seed, **cli._report_fields(report)
            )

    def test_builds_no_extremal_kraus_set(self, capsys, monkeypatch):
        def unused(*args):
            raise AssertionError("sweep needs only the Gram spectrum")

        monkeypatch.setattr(channels, "extremal_unraveling", unused)
        code, _, err = _run(capsys, self.ARGS)
        assert code == 0
        assert err == ""


# rho with an eigenvalue of -5e-11, within linalg.TOL_PSD; and POVM elements and
# Kraus operators whose completeness sum is (1 + 5e-10) I, within linalg.TOL_UNITARY
_EDGE_RHO = np.diag([1 + 5e-11, -5e-11])
_LONG = np.sqrt(1 + 5e-10)


class TestAcceptedInputsRun:
    """Inputs the operator checks accept run to their rows: the distributions built
    from them are normalized, not checked again at tighter tolerances."""

    def _rows(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        rows = [r for r in _json_rows(out) if "slack" in r]
        assert rows and all(r["slack"] >= cli.SLACK_TOL for r in rows)
        return rows

    @pytest.mark.parametrize("factor", ["g", "f", "fbar"])
    @pytest.mark.parametrize("edge", ["rho", "completeness"])
    def test_uncertainty(self, tmp_path, capsys, factor, edge):
        z, x = z_basis_povm().elements, x_basis_povm().elements
        rho, m = (_EDGE_RHO, z) if edge == "rho" else (np.eye(2) / 2, _LONG**2 * z)
        path = _write_instance(tmp_path, dim=2, povm_m=[_encode(e) for e in m], povm_n=[_encode(e) for e in x], rho=_encode(rho))
        for kind in ("tsallis", "renyi"):
            self._rows(capsys, ["uncertainty", "--in", path, "--alpha", "2", "--factor", factor, "--kind", kind])

    @pytest.mark.parametrize("edge", ["rho", "completeness"])
    def test_extremal(self, tmp_path, capsys, edge):
        projectors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        rho, kraus = (_EDGE_RHO, projectors) if edge == "rho" else (np.eye(2) / 2, [_LONG * k for k in projectors])
        path = _write_instance(tmp_path, dim=2, kraus=[_encode(k) for k in kraus], rho=_encode(rho))
        self._rows(capsys, ["extremal", "--in", path, "--remixings", "5"])

    def test_pure_gram_spectrum_gives_positive_zero(self, tmp_path, capsys):
        # a point mass has entropy +0.0 at every order, never -0.0
        path = _write_instance(tmp_path, dim=2, kraus=[_encode(np.eye(2))], rho=_encode(np.diag([1.0, 0.0])))
        code, out, _ = _run(capsys, ["extremal", "--in", path, "--remixings", "3"])
        assert code == 0 and "-0.0" not in out
        assert _json_rows(out)[0]["lambdas"] == [1.0]


class TestSizeArguments:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["demo", "dft", "--dim", "0", "--alpha", "2"], "--dim"),
            (["ensemble", "--dim", "2", "--members", "0", "--alpha", "2", "--trials", "1"], "--members"),
            (["demo", "angle", "--alpha", "2", "--nbins", "0"], "--nbins"),
            (["sweep", "--dim", "2", "--trials", "-1"], "--trials"),
            (["demo", "dft", "--alpha", "2", "--trials", "-1"], "--trials"),
            (["ensemble", "--dim", "2", "--members", "2", "--alpha", "2", "--trials", "-1"], "--trials"),
            (["sweep", "--dim", "2", "--trials", "1", "--seed", "-1"], "--seed"),
            (["ensemble", "--dim", "2", "--members", "2", "--alpha", "2", "--trials", "1", "--seed", "-1"], "--seed"),
            (["demo", "dft", "--alpha", "2", "--trials", "1", "--seed", "-1"], "--seed"),
            (["demo", "angle", "--alpha", "2", "--L", "-1"], "--L"),
            (["demo", "angle", "--alpha", "2", "--width", "inf"], "--width"),
            (["sweep", "--dim", "2", "--trials", "2", "--alpha-grid", "0"], "--alpha-grid"),
            (["sweep", "--dim", "2", "--trials", "2", "--alpha-grid", "nan"], "--alpha-grid"),
            (["sweep", "--dim", "2", "--trials", "2", "--alpha-grid", "1.5,-1"], "--alpha-grid"),
            (["sweep", "--dim", "2", "--trials", "2", "--alpha-grid", "2,inf"], "--alpha-grid"),
            (["sweep", "--dim", "2", "--trials", "2", "--alpha-grid", "2,x"], "--alpha-grid"),
            (["extremal", "--in", "instance.json", "--alpha-grid", "0"], "--alpha-grid"),
            (["demo", "angle", "--alpha", "2", "--width", "0"], "--width"),
            (["demo", "angle", "--alpha", "2", "--width", "nan"], "--width"),
            (["sweep", "--dim", "2", "--trials", "1", "--alpha-grid", ","], "--alpha-grid"),
            (["extremal", "--in", "instance.json", "--alpha-grid", ","], "--alpha-grid"),
        ],
    )
    def test_out_of_range_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert flag in err
        assert out == ""  # rejected before any row, the basis row of `demo dft` included

    def test_zero_trials_allowed(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--dim", "2", "--trials", "0"])
        assert (code, out) == (0, "")
        code, out, _ = _run(capsys, ["demo", "dft", "--dim", "3", "--alpha", "2"])
        assert code == 0 and len(_json_rows(out)) == 1


class TestParser:
    def test_built_once_gives_what_a_fresh_parser_gives(self, tmp_path, capsys):
        path = TestUncertaintyCommand()._zx_instance(tmp_path)
        runs = [
            ["sweep", "--dim", "2", "--trials", "1", "--seed", "5"],
            ["sweep", "--dim", "2", "--trials", "1"],
            ["sweep", "--dim", "0", "--trials", "1"],
            ["uncertainty", "--in", path, "--alpha", "2"],
        ]

        def run(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
            return (code, *capsys.readouterr())

        one_parser = [run(argv) for argv in runs]
        assert cli.build_parser() is cli.build_parser()
        fresh = []
        for argv in runs:
            cli.build_parser.cache_clear()
            fresh.append(run(argv))
        assert one_parser == fresh
        assert [r["seed"] for r in _json_rows(one_parser[0][1])] == [5] * 10
        assert [r["seed"] for r in _json_rows(one_parser[1][1])] == [0] * 10
        assert one_parser[2][0] == "exit 2" and "--dim" in one_parser[2][2]
        assert _json_rows(one_parser[3][1])[0]["check_name"] == "tsallis_uncertainty"

    def test_patched_command_applies(self, capsys, monkeypatch):
        # the command's function is looked up when main runs, not when the parser is built
        argv = ["phi-min", "--gamma", "2", "--alpha", "2"]
        assert _run(capsys, argv)[0] == 0
        monkeypatch.setattr(cli, "cmd_phi_min", lambda args, rep: rep.row("patched", slack=args.gamma))
        code, out, _ = _run(capsys, argv)
        assert (code, _json_rows(out)) == (0, [{"check_name": "patched", "slack": 2.0}])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["demo", "angle", "--alpha", "2", "--trials", "5"], "--trials"),
            (["demo", "angle", "--alpha", "2", "--dim", "3"], "--dim"),
            (["demo", "angle", "--alpha", "2", "--seed", "1"], "--seed"),
            (["demo", "dft", "--alpha", "2", "--nbins", "8"], "--nbins"),
            (["demo", "dft", "--alpha", "2", "--L", "3"], "--L"),
            (["demo", "dft", "--alpha", "2", "--width", "2"], "--width"),
        ],
    )
    def test_each_demo_takes_only_its_flags(self, capsys, argv, flag):
        # a flag the demo does not read is refused, not ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"unrecognized arguments: {flag}" in err


def _sites(tree: ast.AST, match) -> list:
    """The enclosing function (dotted, "" at module level) of each node of tree that match accepts."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if match(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def _name(node: ast.AST) -> str | None:
    """The name a node refers to, by name or as an attribute (builtins.Exception); None for no node."""
    return None if node is None else getattr(node, "id", getattr(node, "attr", ""))


def _catches_everything(node: ast.AST) -> bool:
    """Whether node is an exception handler that catches everything: a bare except,
    Exception or BaseException, alone or in a tuple, by name or as an attribute."""
    if not isinstance(node, ast.ExceptHandler):
        return False
    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return bool({_name(c) for c in caught} & {None, "Exception", "BaseException"})


def _package_sites(match) -> list:
    """_sites of every module of the package, each as module.function."""
    found = []
    for path in sorted(Path(unravel.__file__).parent.glob("*.py")):
        found += [f"{path.stem}.{where}" for where in _sites(ast.parse(path.read_text()), match)]
    return found


class TestRunLongStreams:
    def test_default_rng_opens_in_two_places(self):
        # every seeded stream but these two run-long generators, which draw through
        # ginibre_draws, opens through linalg._stream from a hashed seed
        calls = _package_sites(lambda node: isinstance(node, ast.Call) and _name(node.func) == "default_rng")
        assert calls == ["bounds.random_povm", "cli.cmd_demo"]


class TestCholeskyQr:
    def test_one_owner(self):
        # channels._isometry_factors alone picks Cholesky QR, from the draw's shape
        calls = _package_sites(lambda node: isinstance(node, ast.Call) and _name(node.func) == "_cholesky_qr")
        assert calls == ["channels._isometry_factors"]


class TestUnexpectedError:
    def test_only_main_catches_everything(self):
        # any error that is not bad input reaches cli.main, which reports it with exit 3:
        # no other handler in the package can swallow it
        assert _package_sites(_catches_everything) == ["cli.main"]

    def test_broad_handlers_are_found(self):
        source = """
def f():
    try: pass
    except: pass
    try: pass
    except (ValueError, BaseException): pass
class C:
    def g(self):
        try: pass
        except builtins.Exception as exc: pass
try: pass
except Exception: pass
try: pass
except (ValueError, OSError): pass
"""
        assert _sites(ast.parse(source), _catches_everything) == ["f", "f", "C.g", ""]

    def test_reported_with_exit_3(self, capsys, monkeypatch):
        def broken(m, n):
            raise RuntimeError("out of luck")

        monkeypatch.setattr(bounds, "_f_bar", broken)  # the stacked kernel the sweep calls
        code, out, err = _run(capsys, ["sweep", "--dim", "2", "--trials", "1"])
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "RuntimeError: out of luck"}

    @pytest.mark.parametrize("stderr", ["separate", "same pipe"])
    def test_closed_pipe_exits_3(self, stderr):
        # `unravel ... | head -1`: the reader closes stdout mid-run.  The exit code is 3,
        # not a traceback's 1, also when the error line's own stream is the closed pipe
        argv = [sys.executable, "-m", "unravel.cli", "sweep", "--dim", "2", "--trials", "1000000"]
        err_to = subprocess.PIPE if stderr == "separate" else subprocess.STDOUT
        with subprocess.Popen(argv, env=_src_env(), stdout=subprocess.PIPE, stderr=err_to, text=True) as proc:
            try:
                assert select.select([proc.stdout], [], [], 30)[0], "no row within 30 s"
                first = proc.stdout.readline()
                proc.stdout.close()
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
            err = proc.stderr.read() if stderr == "separate" else ""
        assert json.loads(first)["check_name"] == "factor_chain"
        assert code == 3
        assert "Traceback" not in err and "Exception ignored" not in err
        if stderr == "separate":
            assert json.loads(err)["error"].startswith("BrokenPipeError")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--dim", "16", "--trials", "1", "--alpha-grid", "8e307"],
        ["ensemble", "--dim", "2", "--members", "2", "--alpha", "1e308", "--trials", "2"],
        ["demo", "dft", "--dim", "8", "--alpha", "8e307", "--trials", "5"],
        ["phi-min", "--gamma", "1e308", "--alpha", "2"],
        ["demo", "angle", "--alpha", "2", "--width", "1e-154"],
        ["demo", "angle", "--alpha", "2", "--width", "1e-160"],
        ["demo", "angle", "--alpha", "2", "--width", "1e-300"],
        ["demo", "angle", "--alpha", "2", "--width", "5e-324"],
    ],
)
def test_accepted_extremes_write_no_warning(argv):
    # at the largest accepted orders and factors, and the narrowest widths, numpy overflows;
    # no warning reaches stderr
    proc = _cli_process(argv)
    assert proc.returncode in (0, 1)
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "angle", "--alpha", "2", "--width", "1e155", "--L", "3"],
        ["demo", "angle", "--alpha", "2", "--width", "1e160"],
        ["demo", "angle", "--alpha", "2", "--width", "1.7e308"],
        ["demo", "angle", "--alpha", "2", "--width", "40"],
    ],
)
def test_width_too_wide_for_truncation_exits_2(argv):
    # width^2 may overflow; the packet is rejected by its discarded tail, with no warning
    proc = _cli_process(argv)
    assert proc.returncode == 2
    assert [r["check_name"] for r in _json_rows(proc.stdout)] == ["angle_uniform"]
    assert json.loads(proc.stderr)["error"].startswith("discarded tail weight")
    assert proc.stderr.endswith("raise truncation\"}\n")


class _NullStream:
    """stdout that keeps nothing, so a long run's memory is the program's own."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


class TestBlockedTrials:
    """`demo dft` and `ensemble` run their trials as stacked blocks; each row must
    equal the one the one-trial public path gives for the same draws."""

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 20),
        trials=st.integers(0, 40),
        alpha=st.one_of(st.sampled_from([0.75, 1.0, 2.0]), st.floats(0.55, 6.0)),
        seed=st.integers(0, 10**6),
        block=st.integers(1, 7),
    )
    def test_dft_rows_match_per_trial_demo(self, d, trials, alpha, seed, block):
        argv = ["demo", "dft", "--dim", str(d), "--alpha", repr(alpha), "--trials", str(trials), "--seed", str(seed)]
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()) as out:
            blocks_of(mp, block)
            assert cli.main(argv) == 0
        rows = _json_rows(out.getvalue())
        assert len(rows) == trials + 1
        orders, rng = conjugate_order(alpha), np.random.default_rng(seed)
        for row in rows[1:]:
            psi = linalg.ginibre(rng, d, 1).ravel()
            psi /= np.linalg.norm(psi)
            report = demos.dft_uncertainty_demo(psi, orders)
            assert row == dict(check_name="dft_random_state", d=d, factor_kind="fbar", seed=seed, **cli._report_fields(report))

    @settings(max_examples=20, deadline=None)
    @given(
        d=st.integers(1, 4),
        extra=st.integers(0, 6),
        trials=st.integers(0, 12),
        alpha=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.2, 6.0)),
        seed=st.integers(0, 10**6),
        block=st.integers(1, 5),
    )
    def test_ensemble_rows_match_per_trial_checks(self, d, extra, trials, alpha, seed, block):
        m = d + extra
        argv = ["ensemble", "--dim", str(d), "--members", str(m), "--alpha", repr(alpha), "--trials", str(trials)]
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()) as out:
            blocks_of(mp, block)
            assert cli.main(argv + ["--seed", str(seed)]) == 0
        rows = _json_rows(out.getvalue())
        assert len(rows) == 2 * trials
        for t in range(trials):
            base = seed + 1000 * t
            pure = ensembles.ensemble_from_state(linalg.random_density(d, d, base), m, base + 1)
            res = ensembles.pure_ensemble_bounds_check(pure, alpha, "tsallis")
            weights = np.random.default_rng(base + 2).dirichlet(np.ones(m))
            members = [linalg.random_density(d, d, base + 3 + k) for k in range(m)]
            lower, mid, upper = ensembles.mixed_ensemble_bounds_check(ensembles.MixedEnsemble(weights, members), alpha)
            want = [
                ("pure_ensemble_bound", res.ensemble_entropy, res.state_entropy, res.ensemble_entropy - res.state_entropy),
                ("mixed_ensemble_sandwich", upper, lower, min(mid - lower, upper - mid)),
            ]
            for row, (name, lhs, rhs, slack) in zip(rows[2 * t : 2 * t + 2], want):
                assert (row["check_name"], row["d"], row["alpha"], row["seed"]) == (name, d, alpha, base)
                assert row["lhs"] == pytest.approx(lhs, abs=1e-12)
                assert row["rhs"] == pytest.approx(rhs, abs=1e-12)
                assert row["slack"] == pytest.approx(slack, abs=1e-12)

    def test_failing_draw_leaves_earlier_rows(self, capsys, monkeypatch):
        # the state of trial 3 fails to draw, in the middle of a block of 4 trials
        seeds = [1000 * t + k for t in range(8) for k in range(5)]
        log = stream_log(monkeypatch, seeds, raises={3000: ValueError("trial 3 failed")})
        blocks_of(monkeypatch, 4)
        code, out, err = _run(capsys, ["ensemble", "--dim", "2", "--members", "2", "--alpha", "2", "--trials", "8"])
        drawn = [seed for seed, _ in log]
        assert code == 2
        assert json.loads(err) == {"error": "trial 3 failed"}
        rows = _json_rows(out)
        assert [r["seed"] for r in rows] == [0, 0, 1000, 1000, 2000, 2000]
        assert max(drawn) == 3000  # no trial after the failing one was drawn
        # trial 0 alone, then the block of trials 1..4, whose first stage stops at 3000, run
        # again one trial at a time: each stage sets each of its seeds' streams once
        # (ensemble's base + 2 is the mixture's weights, filled through the same seam)
        opened_once = [*range(5), 1000, 2000, 3000, *range(1000, 1005), *range(2000, 2005), 3000]
        assert drawn == opened_once

        log.clear()
        code, out, err = _run(capsys, ["sweep", "--dim", "2", "--trials", "8", "--remixings", "5"])
        drawn = [seed for seed, _ in log]
        assert code == 2
        assert json.loads(err) == {"error": "trial 3 failed"}
        rows = _json_rows(out)
        assert [r["seed"] for r in rows if r["check_name"] == "factor_chain"] == [0, 1000, 2000]
        assert len(rows) == 3 * 10
        assert max(drawn) == 3000
        # the same, each trial's POVM pair (base + 3, base + 4) drawn before its remixings (base + 2)
        trial = [0, 1, 3, 4, 2]
        assert drawn == [*trial, 1000, 2000, 3000, *(1000 + k for k in trial), *(2000 + k for k in trial), 3000]

    def test_failing_trial_leaves_earlier_rows(self, capsys, monkeypatch):
        # the demo raises on trial 5's state, inside the second block of 4 trials
        rng = np.random.default_rng(9)
        for _ in range(6):
            psi = linalg.ginibre(rng, 3, 1).ravel()
        psi /= np.linalg.norm(psi)
        demo = demos.dft_uncertainty_demo

        def spy(state, orders):
            if np.ndim(state) == 2 and (state == psi).all(axis=1).any():
                raise RuntimeError("trial 5 failed")
            return demo(state, orders)

        monkeypatch.setattr(demos, "dft_uncertainty_demo", spy)
        blocks_of(monkeypatch, 4)
        code, out, err = _run(capsys, ["demo", "dft", "--dim", "3", "--alpha", "2", "--trials", "8", "--seed", "9"])
        assert code == 3
        assert json.loads(err) == {"error": "RuntimeError: trial 5 failed"}
        rows = _json_rows(out)
        assert [r["check_name"] for r in rows] == ["dft_basis_state"] + ["dft_random_state"] * 5

        # the sweep's f kernel raises on the spectra of the stacked states that hold trial 5's
        w5, f = np.linalg.eigh(linalg.random_density(3, 3, 9 + 5000))[0], bounds._f

        def f_spy(m, n, w, v):
            if (w == w5).all(axis=1).any():
                raise RuntimeError("trial 5 failed")
            return f(m, n, w, v)

        monkeypatch.setattr(bounds, "_f", f_spy)
        code, out, err = _run(capsys, ["sweep", "--dim", "3", "--trials", "8", "--remixings", "7", "--seed", "9"])
        assert code == 3
        assert json.loads(err) == {"error": "RuntimeError: trial 5 failed"}
        rows = _json_rows(out)
        assert [r["seed"] for r in rows if r["check_name"] == "factor_chain"] == [9, 1009, 2009, 3009, 4009]
        assert len(rows) == 5 * 10

    @pytest.mark.parametrize(
        "argv, per_trial, tables",
        [
            (["sweep", "--dim", "2", "--trials", "9", "--remixings", "5"], 10, [(1, 1), (9, 1), (10, 4), (10, 4)]),
            (["ensemble", "--dim", "2", "--members", "2", "--alpha", "2", "--trials", "9"], 2, [(1, 1), (1, 1), (2, 4), (2, 4)]),
        ],
        ids=["sweep", "ensemble"],
    )
    def test_block_writes_once_its_last_group_is_made(self, capsys, monkeypatch, argv, per_trial, tables):
        # trial 0 writes its groups one by one; a block of several trials writes all its groups'
        # shapes as one table after its last stream opens, so no row of it leaves before the last group
        written, table = [], cli.Reporter.table

        def spy(rep, shapes):
            written.append((len(shapes), next(len(v) for _, f in shapes for v in f.values() if isinstance(v, list))))
            return table(rep, shapes)

        monkeypatch.setattr(cli.Reporter, "table", spy)
        log = stream_log(monkeypatch, [1000 * t + k for t in range(9) for k in range(5)])
        blocks_of(monkeypatch, 4)
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        assert written == tables
        lines = out.splitlines(keepends=True)
        assert len(lines) == 9 * per_trial
        for seed, text in log:
            t = seed // 1000
            if t:  # the rows of the blocks before trial t's: trial 0's, then trials 1..4's
                assert text == "".join(lines[: per_trial * (1 + 4 * ((t - 1) // 4))])

    @pytest.mark.parametrize(
        "argv, kernel, stack, rows",
        [
            (["sweep", "--dim", "2", "--trials", "9", "--remixings", "5"], (bounds, "_f"), 2, 5 * 10),
            (["ensemble", "--dim", "2", "--members", "2", "--alpha", "2", "--trials", "9"], (ensembles, "_sandwich"), 0, 5 * 2),
            (["demo", "dft", "--dim", "3", "--alpha", "2", "--trials", "9"], (demos, "dft_uncertainty_demo"), 0, 1 + 5),
        ],
        ids=["sweep", "ensemble", "demo-dft"],
    )
    def test_block_only_bad_input_exits_3(self, capsys, monkeypatch, argv, kernel, stack, rows):
        # a ValueError that only a block of several trials raises: its trials, rerun one at a
        # time, pass and write their rows, and the block's error ends the run with exit 3
        module, name = kernel
        real = getattr(module, name)

        def spy(*args):
            if np.ndim(args[stack]) == 2 and len(args[stack]) > 1:
                raise ValueError("planted")
            return real(*args)

        monkeypatch.setattr(module, name, spy)
        blocks_of(monkeypatch, 4)
        code, out, err = _run(capsys, argv)
        assert code == 3
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "RuntimeError: trials 1..4 raised ValueError as a block, and none alone: planted"}
        got = _json_rows(out)
        assert len(got) == rows and got[-1]["seed"] == (0 if argv[0] == "demo" else 4000)

    @pytest.mark.parametrize("error", [AssertionError, MemoryError])
    @pytest.mark.parametrize(
        "argv, kernel, stack, calls, names",
        [
            (
                ["sweep", "--dim", "2", "--trials", "9", "--remixings", "5"],
                (bounds, "_f"),  # _f(m, n, w, v), w (T, d)
                2,
                [1, 4],
                ["factor_chain"] + ["theorem1_tsallis", "theorem2_tsallis", "renyi_relation"] * 3,
            ),
            (
                ["ensemble", "--dim", "2", "--members", "2", "--alpha", "2", "--trials", "9"],
                (ensembles, "_sandwich"),  # _sandwich(weights, members, spectra, alpha), weights (T, m)
                0,
                [1, 4],
                ["pure_ensemble_bound", "mixed_ensemble_sandwich"],
            ),
            (
                ["demo", "dft", "--dim", "3", "--alpha", "2", "--trials", "9"],
                (demos, "dft_uncertainty_demo"),  # (state, orders), state (d,) or (T, d)
                0,
                [1, 1, 4],  # the basis state, trial 0, then trials 1..4
                ["dft_basis_state", "dft_random_state"],
            ),
        ],
        ids=["sweep", "ensemble", "demo-dft"],
    )
    def test_fault_in_a_block_exits_3_at_once(self, capsys, monkeypatch, error, argv, kernel, stack, calls, names):
        # a fault planted in a kernel for every block of several trials is no bad input: the
        # run stops at the first such block (trials 1..4) with exit 3 and trial 0's rows, and
        # that block is computed once, not again one trial at a time
        module, name = kernel
        real, trials = getattr(module, name), []

        def spy(*args):
            trials.append(len(args[stack]) if np.ndim(args[stack]) == 2 else 1)
            if trials[-1] > 1:
                raise error("planted")
            return real(*args)

        monkeypatch.setattr(module, name, spy)
        blocks_of(monkeypatch, 4)
        code, out, err = _run(capsys, argv)
        assert code == 3
        assert err.count("\n") == 1 and json.loads(err) == {"error": f"{error.__name__}: planted"}
        rows = _json_rows(out)
        assert [(r["check_name"], r["seed"]) for r in rows] == [(n, 0) for n in names]
        assert trials == calls

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 8),
        trials=st.integers(0, 9),
        remixings=st.integers(1, 6),
        seed=st.integers(0, 10**6),
        block=st.integers(1, 7),
        grid=st.lists(st.one_of(st.sampled_from([0.3, 2.0]), st.floats(0.05, 20.0)), max_size=3).flatmap(
            lambda extra: st.permutations(extra + [0.5, 1.0])
        ),
    )
    def test_sweep_rows_match_per_trial_path(self, d, trials, remixings, seed, block, grid):
        argv = ["sweep", "--dim", str(d), "--trials", str(trials), "--remixings", str(remixings), "--seed", str(seed)]
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()) as out:
            blocks_of(mp, block)
            assert cli.main(argv + ["--alpha-grid", ",".join(map(repr, grid))]) == 0
        assert _json_rows(out.getvalue()) == _sweep_rows(d, trials, remixings, seed, grid)

    @pytest.mark.parametrize(
        "argv, trials",
        [
            (["demo", "dft", "--dim", "8", "--alpha", "2"], 400),
            (["ensemble", "--dim", "3", "--members", "4", "--alpha", "2"], 40),
            (["sweep", "--dim", "2", "--remixings", "20"], 40),
        ],
        ids=["demo-dft", "ensemble", "sweep"],
    )
    def test_memory_flat_in_trials(self, monkeypatch, argv, trials):
        # blocks of 25 trials: ten times the trials, the same peak.  (CPython keeps up to
        # 2000 freed tuples of each length below 21 for reuse, which would count here.)
        blocks_of(monkeypatch, 25)
        monkeypatch.setattr(sys, "stdout", _NullStream())
        peaks = []
        for n in (trials, 10 * trials):
            tracemalloc.start()
            try:
                assert cli.main(argv + ["--trials", str(n)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_dft_draws_once_per_block(self, capsys, monkeypatch):
        # one standard_normal call per block of trials, not one per trial
        calls, default_rng = [], np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def standard_normal(self, size):
                calls.append(size)
                return self._rng.standard_normal(size)

        monkeypatch.setattr(cli.np.random, "default_rng", Counted)
        blocks_of(monkeypatch, 4)  # blocks of 4 trials after trial 0
        code, out, _ = _run(capsys, ["demo", "dft", "--dim", "3", "--alpha", "2", "--trials", "10"])
        assert code == 0
        assert len(_json_rows(out)) == 11
        assert calls == [(1, 2, 3), (4, 2, 3), (4, 2, 3), (1, 2, 3)]

    @pytest.mark.parametrize(
        "argv, stages, rows",
        [
            (["sweep", "--dim", "2", "--trials", "10", "--remixings", "5"], 5, 10),
            (["ensemble", "--dim", "2", "--members", "2", "--alpha", "2", "--trials", "10"], 3 + 2, 2),
        ],
        ids=["sweep", "ensemble"],
    )
    def test_seeds_hashed_once_per_block(self, capsys, monkeypatch, argv, stages, rows):
        # one hash per block, of every stage's seeds: each stage reads its row of the result
        calls, seed_states = [], linalg._seed_states

        def counting(seeds):
            calls.append(len(seeds))
            return seed_states(seeds)

        monkeypatch.setattr(linalg, "_seed_states", counting)
        blocks_of(monkeypatch, 4)  # blocks of 4 trials after trial 0
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert len(_json_rows(out)) == 10 * rows
        assert calls == [stages * t for t in (1, 4, 4, 1)]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--dim", "3", "--trials", "6", "--remixings", "10", "--alpha-grid", "0.3,1,2", "--seed", "7"],
            ["ensemble", "--dim", "3", "--members", "4", "--alpha", "0.7", "--trials", "12", "--seed", "7"],
            ["demo", "dft", "--dim", "4", "--alpha", "2", "--trials", "20", "--seed", "7"],
        ],
        ids=["sweep", "ensemble", "demo-dft"],
    )
    def test_block_size_changes_no_byte(self, monkeypatch, fmt, argv):
        # blocks of one trial each, and the default blocks of several
        outs = []
        for block in (1, linalg.BLOCK_ELEMENTS):
            monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", block)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(["--format", fmt, *argv]) == 0
            outs.append(out.getvalue())
        assert outs[0] == outs[1]

    def test_seeds_above_int64(self, capsys):
        # the base seeds stay Python ints: trials 1-3 make one block, drawn as the
        # public one-trial path draws them
        seed, d, m, alpha = 10**23, 2, 3, 1.5
        argv = ["sweep", "--dim", str(d), "--trials", "4", "--remixings", "5", "--seed", str(seed)]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert _json_rows(out) == _sweep_rows(d, 4, 5, seed, [1.5, 2.0, 3.0])

        argv = ["ensemble", "--dim", str(d), "--members", str(m), "--alpha", str(alpha), "--trials", "4"]
        code, out, _ = _run(capsys, argv + ["--seed", str(seed)])
        assert code == 0
        rows = _json_rows(out)
        assert rows == _ensemble_rows(d, m, alpha, 4, seed)
        assert [r["seed"] for r in rows] == [seed + 1000 * t for t in range(4) for _ in range(2)]

    @pytest.mark.parametrize(
        "block, m",
        [pytest.param(block, m, id=f"{block}" if m == 3 else f"{block}-m{m}") for block in (1, 4) for m in (1, 3, 8, 9, 33)],
    )
    def test_ensemble_weights_are_default_rng_dirichlet(self, capsys, monkeypatch, block, m):
        # each trial's mixture weights are, bit for bit, default_rng(base + 2).dirichlet,
        # in blocks of one trial and of four, at a seed of five 32-bit words.  From m = 8
        # on, numpy's pairwise sum separates a plain sum from the left-to-right one
        # dirichlet scales by; one member needs d = 1
        seed, d, alpha, trials = 2**130, min(m, 2), 1.5, 6
        drawn, normalized = [], cli._normalized

        def spy(weights):  # the command normalizes its stacked Dirichlet draws here, once per block
            drawn.append(weights.copy())
            return normalized(weights)

        monkeypatch.setattr(cli, "_normalized", spy)
        blocks_of(monkeypatch, block)
        argv = ["ensemble", "--dim", str(d), "--members", str(m), "--alpha", str(alpha), "--trials", str(trials)]
        code, out, _ = _run(capsys, argv + ["--seed", str(seed)])
        assert code == 0
        assert [len(w) for w in drawn] == ([1] * trials if block == 1 else [1, 4, 1])
        want = np.stack([np.random.default_rng(seed + 1000 * t + 2).dirichlet(np.ones(m)) for t in range(trials)])
        assert np.concatenate(drawn).tobytes() == want.tobytes()
        assert _json_rows(out) == _ensemble_rows(d, m, alpha, trials, seed)


class TestRemixingSlices:
    """`sweep` and `extremal` make the remixings unitary and apply them over slices of at
    most linalg.BLOCK_ELEMENTS entries of their draw; the rows are those of the whole stack, and
    memory grows with --remixings only by the draw."""

    @staticmethod
    def counted(monkeypatch) -> list:
        """The remixing count of each channels.remixed_probabilities call, from now on."""
        counts, remixed = [], channels.remixed_probabilities

        def spy(pi, unitaries):
            counts.append(unitaries.shape[-3])
            return remixed(pi, unitaries)

        monkeypatch.setattr(channels, "remixed_probabilities", spy)
        return counts

    @staticmethod
    def sliced(counts: list, remixings: int, n: int) -> None:
        assert len(counts) > 1 and sum(counts) == remixings and max(counts) * n * n <= linalg.BLOCK_ELEMENTS, counts

    @pytest.mark.parametrize("d, remixings", [(16, 300), (32, 100)])
    def test_sweep_rows_match_public_path(self, monkeypatch, d, remixings):
        counts = self.counted(monkeypatch)
        argv = ["sweep", "--dim", str(d), "--trials", "1", "--remixings", str(remixings), "--seed", "5"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        monkeypatch.undo()
        self.sliced(counts, remixings, d)
        assert _json_rows(out.getvalue()) == _sweep_rows(d, 1, remixings, 5, [1.5, 2.0, 3.0])

    @pytest.mark.parametrize("n_kraus, remixings", [(16, 300), (32, 200)])
    def test_extremal_rows_match_public_path(self, tmp_path, monkeypatch, n_kraus, remixings):
        kraus = [_encode(k) for k in random_unraveling(2, n_kraus, seed=4).kraus_ops]
        path = _write_instance(tmp_path, dim=2, seed=2**70 + 3, kraus=kraus, rho=_encode(np.diag([0.7, 0.3])))
        argv = ["extremal", "--in", path, "--remixings", str(remixings)]

        def outputs() -> tuple:
            counts = self.counted(monkeypatch)
            outs = []
            for fmt in ("json", "csv"):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert cli.main(["--format", fmt, *argv]) == 0
                outs.append(out.getvalue())
            monkeypatch.undo()
            return counts, outs

        counts, outs = outputs()
        self.sliced(counts, 2 * remixings, n_kraus)
        monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", remixings * n_kraus**2)
        counts, whole = outputs()  # one slice
        assert counts == [remixings] * 2
        assert outs == whole
        inst = cli.load_instance(path)
        result = channels.extremal_unraveling(inst["kraus"], inst["rho"])
        probs = channels.remixed_probabilities(result.gram, linalg.haar_random_unitaries(n_kraus, remixings, inst["seed"]))
        want = [
            dict(
                check_name="extremal_summary",
                lambdas=[float(x) for x in result.lambdas],
                extremal_kraus=[cli.matrix_to_json(k) for k in result.extremal.kraus_ops],
            )
        ]
        for alpha in (0.3, 0.7, 1.0, 1.5, 2.0, 5.0):
            lhs, rhs = float(_entropy(probs, alpha, "tsallis").min()), _entropy(result.lambdas, alpha, "tsallis")
            want.append(dict(check_name="extremal_vs_remixings", d=2, alpha=alpha, lhs=lhs, rhs=rhs, slack=lhs - rhs, seed=inst["seed"]))
        assert _json_rows(outs[0]) == want

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        n=st.integers(1, 4),
        remixings=st.integers(1, 12),
        grid=st.lists(st.sampled_from([0.3, 0.5, 1.0, 2.0, 400.0]) | st.floats(0.05, 20.0), min_size=1, max_size=4),
    )
    def test_theorem1_folds_slices_to_the_bit(self, seed, n, remixings, grid):
        # the least entropies over a draw cut into slices of every length are the one slice's
        pi = linalg.random_density(n, n, seed)[None]
        lambdas = cli._normalized(linalg._descending_eig(pi)[0])
        states = linalg._seed_states([seed + 2])

        def theorem1(length: int) -> list:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "BLOCK_ELEMENTS", length * n * n)
                slices = linalg.ginibre_slices(states, remixings, n, n)
                return [x.tobytes() for x in cli._theorem1(lambdas, cli._remixed(pi, slices), grid)]

        whole = theorem1(remixings)
        for length in range(1, remixings):
            assert theorem1(length) == whole

    @pytest.mark.parametrize("command", ["sweep", "extremal"])
    def test_memory_per_remixing_is_the_draw(self, tmp_path, monkeypatch, command):
        # at n = 16 the whole stack's QR held ~62·n² bytes a remixing, and the whole complex
        # draw ~26·n²; now only the draw's real parts grow, 8·n² bytes a remixing
        n = 16
        if command == "sweep":
            argv = ["sweep", "--dim", str(n), "--trials", "1"]
        else:
            kraus = [_encode(k) for k in random_unraveling(2, n, seed=4).kraus_ops]
            argv = ["extremal", "--in", _write_instance(tmp_path, dim=2, kraus=kraus), "--alpha-grid", "2"]
        monkeypatch.setattr(sys, "stdout", _NullStream())
        peaks = []
        for remixings in (500, 2000):
            tracemalloc.start()
            try:
                assert cli.main(argv + ["--remixings", str(remixings)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 12 * n * n * 1500, peaks

    def test_kraus_stage_holds_two_operator_sets(self, monkeypatch):
        # a trial's d³-entry Kraus stage, its draw, the isometry's QR, the completeness check
        # and the Gram matrix, holds two such arrays at a time: no conjugate copy of the draw
        # or of the operators beside them (three, with those copies)
        d = 32
        monkeypatch.setattr(sys, "stdout", _NullStream())
        argv = ["sweep", "--dim", str(d), "--trials", "1", "--remixings", "1"]
        assert cli.main(argv) == 0  # the seed interface is defined on first use
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 16 * d**3, peak / (16 * d**3)

    def test_remixings_take_block_elements_when_drawn(self, monkeypatch):
        # the remixing stage reads BLOCK_ELEMENTS when it fills, after blocks_of has set it:
        # trial 0, then one block of four trials drawn in one slice, and no one-trial rerun
        rows_per_call, slices = [], linalg.ginibre_slices

        def spy(states, *rest):
            rows_per_call.append(len(states))
            return slices(states, *rest)

        monkeypatch.setattr(linalg, "ginibre_slices", spy)
        blocks_of(monkeypatch, 4)
        argv = ["sweep", "--dim", "16", "--trials", "5", "--remixings", "300", "--seed", "5"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        monkeypatch.undo()
        assert rows_per_call == [1, 4]
        assert _json_rows(out.getvalue()) == _sweep_rows(16, 5, 300, 5, [1.5, 2.0, 3.0])


class TestFactoredKrausStage:
    """`sweep` holds each block's Kraus draws as the factors V = Z X of Cholesky QR: the Gram
    matrix from Z and X rho X†, the completeness check as X† (Z†Z) X = I."""

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_block_forms_no_kraus_array(self, monkeypatch, d):
        checked, shapes, qr, check = [], [], linalg.positive_qr, channels._check_complete
        for module in (channels, bounds):  # bounds checks its POVMs through its own name for it
            monkeypatch.setattr(module, "_check_complete", lambda k, *rest: checked.append(k.shape) or check(k, *rest))
        monkeypatch.setattr(linalg, "positive_qr", lambda z: shapes.append(z.shape) or qr(z))
        blocks_of(monkeypatch, 3)
        argv = ["sweep", "--dim", str(d), "--trials", "7", "--remixings", "5", "--seed", "11"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        monkeypatch.undo()
        # the one completeness check of a block is its POVM pair's, on the Kraus sets u_i† of one row each
        assert checked and all(shape[-2] == 1 for shape in checked), checked
        # only the square draws of the remixings and of the projective POVMs are made unitary
        assert shapes and all(shape[-1] == shape[-2] == d for shape in shapes), shapes
        assert _json_rows(out.getvalue()) == _sweep_rows(d, 7, 5, 11, [1.5, 2.0, 3.0])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_spoiled_factor_exits_2(self, capsys, monkeypatch, fmt):
        # a Cholesky factor off by 1e-6 makes V†V = I / (1 + 1e-6)^2, which the d x d check rejects
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda g: cholesky(g) * (1 + 1e-6))
        code, out, err = _run(capsys, ["--format", fmt, "sweep", "--dim", "3", "--trials", "4"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"].startswith("completeness violated: ||sum A†A - I||_F = ")


def _sweep_rows(d: int, trials: int, remixings: int, seed: int, grid: list) -> list:
    """The rows of `sweep`, each trial drawn through the public one-trial functions under
    the sweep's seed layout."""
    want = []
    for t in range(trials):
        base = seed + 1000 * t
        rho = linalg.random_density(d, d, base)
        extremal = channels.extremal_unraveling(channels.random_unraveling(d, d, base + 1), rho)
        probs = channels.remixed_probabilities(extremal.gram, linalg.haar_random_unitaries(d, remixings, base + 2))
        m, n = bounds.random_projective_povm(d, base + 3), bounds.random_projective_povm(d, base + 4)
        g, f, fb = bounds.g_factor(m, n, rho), bounds.f_factor(m, n, rho), bounds.f_bar(m, n)
        want.append(dict(check_name="factor_chain", d=d, slack=min(f - g, fb - f, 1.0 + 1e-10 - fb), factor=g, seed=base))
        for alpha in grid:
            lhs, rhs = float(_entropy(probs, alpha, "tsallis").min()), _entropy(extremal.lambdas, alpha, "tsallis")
            want.append(dict(check_name="theorem1_tsallis", d=d, alpha=alpha, lhs=lhs, rhs=rhs, slack=lhs - rhs, seed=base))
            if alpha > 0.5:
                orders = conjugate_order(alpha)
                for name, check in (
                    ("theorem2_tsallis", bounds.tsallis_uncertainty_check),
                    ("renyi_relation", bounds.renyi_uncertainty_check),
                ):
                    report = check(m, n, rho, orders, "g")
                    want.append(dict(check_name=name, d=d, factor_kind="g", seed=base, **cli._report_fields(report)))
    return want


def _ensemble_rows(d: int, m: int, alpha: float, trials: int, seed: int) -> list:
    """The rows of `ensemble`, each trial drawn through the public one-trial path."""
    want = []
    for t in range(trials):
        base = seed + 1000 * t
        pure = ensembles.ensemble_from_state(linalg.random_density(d, d, base), m, base + 1)
        res = ensembles.pure_ensemble_bounds_check(pure, alpha, "tsallis")
        weights = np.random.default_rng(base + 2).dirichlet(np.ones(m))
        members = [linalg.random_density(d, d, base + 3 + k) for k in range(m)]
        lower, mid, upper = ensembles.mixed_ensemble_bounds_check(ensembles.MixedEnsemble(weights, members), alpha)
        common = dict(d=d, alpha=alpha, seed=base)
        lhs, rhs = res.ensemble_entropy, res.state_entropy
        want.append(dict(check_name="pure_ensemble_bound", lhs=lhs, rhs=rhs, slack=lhs - rhs, **common))
        want.append(dict(check_name="mixed_ensemble_sandwich", lhs=upper, rhs=lower, slack=min(mid - lower, upper - mid), **common))
    return want


class TestDemoCommand:
    def test_dft(self, capsys):
        code, out, _ = _run(capsys, ["demo", "dft", "--dim", "4", "--alpha", "2", "--trials", "5"])
        assert code == 0
        rows = _json_rows(out)
        basis = [r for r in rows if r["check_name"] == "dft_basis_state"]
        assert len(basis) == 1
        assert abs(basis[0]["slack"]) <= 1e-10
        assert len([r for r in rows if r["check_name"] == "dft_random_state"]) == 5

    def test_dft_near_order_one(self, capsys):
        code, out, _ = _run(
            capsys, ["demo", "dft", "--dim", "14", "--alpha", "1.000000013", "--trials", "0"]
        )
        assert code == 0
        (basis,) = _json_rows(out)
        assert basis["slack"] >= -1e-12

    def test_angle(self, capsys):
        code, out, _ = _run(
            capsys, ["demo", "angle", "--alpha", "2", "--nbins", "8"]
        )
        assert code == 0
        rows = _json_rows(out)
        assert {r["check_name"] for r in rows} == {"angle_uniform", "angle_gaussian"}
        assert all(r["slack"] >= -1e-8 for r in rows)
        assert [r["seed"] for r in rows] == [0, 0]  # the angle states draw nothing: no --seed, and seed 0


class TestEnsembleCommand:
    def test_runs_green(self, capsys):
        code, out, _ = _run(
            capsys,
            ["ensemble", "--dim", "2", "--members", "3", "--alpha", "2", "--trials", "4"],
        )
        assert code == 0
        rows = _json_rows(out)
        assert len(rows) == 8
        assert all(r["slack"] >= -1e-9 for r in rows)

    def test_bad_member_leaves_no_row(self, capsys, monkeypatch):
        # a trial's members are checked before its first row: a member that fails its
        # check leaves no part of the trial on stdout
        spectrum = linalg.density_spectrum

        def spoiled(rho, *args, name="rho", **kwargs):
            if name == "member":
                raise ValueError("member spoiled")
            return spectrum(rho, *args, name=name, **kwargs)

        monkeypatch.setattr(linalg, "density_spectrum", spoiled)
        code, out, err = _run(capsys, ["ensemble", "--dim", "2", "--members", "2", "--alpha", "2", "--trials", "3"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "member spoiled"}


class TestPhiMinCommand:
    def test_hand_case(self, capsys):
        code, out, _ = _run(capsys, ["phi-min", "--gamma", "2", "--alpha", "2"])
        assert code == 0
        (row,) = _json_rows(out)
        assert row["rhs"] == pytest.approx(7 / 8, abs=1e-12)
        assert row["lhs"] == pytest.approx(7 / 8, abs=1e-12)
        assert row["slack"] >= -1e-12


    def test_non_finite_inputs_exit_2(self, capsys):
        for argv, name in (
            (["--gamma", "2", "--alpha", "nan"], "alpha"),
            (["--gamma", "inf", "--alpha", "2"], "gamma"),
            (["--gamma", "2", "--alpha", "9e307"], "alpha"),
        ):
            code, out, err = _run(capsys, ["phi-min", *argv])
            assert code == 2
            assert out == ""
            assert name in json.loads(err)["error"]

    def test_overflow_writes_no_warning(self):
        # phi overflows to +inf near zeta = gamma = 1e308, which never wins the minimum
        argv = [sys.executable, "-m", "unravel.cli", "phi-min", "--gamma", "1e308", "--alpha", "2"]
        proc = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["slack"] == 0.0


class TestReporter:
    def test_flushes_each_row(self):
        # a pipe's reader sees each row when it is made, not when a buffer fills
        for fmt in ("json", "csv"):
            stream, flushed = io.StringIO(), []
            stream.flush = lambda: flushed.append(stream.getvalue())
            rep = cli.Reporter(fmt, False, stream)
            rep.row("a", slack=0.0)
            rep.obj({"check_name": "b"})  # a JSON line; CSV has no columns for it, so writes none
            assert len(flushed) == {"json": 2, "csv": 1}[fmt]
            assert flushed[-1] == stream.getvalue()

    def test_block_is_one_write_and_one_flush(self):
        # table(...) writes a block's rows, trial by trial, as the same bytes as
        # row(...) one at a time
        block = [
            ("a", dict(d=2, slack=[0.0, 1.0], seed=[1, 1001])),
            ("b", dict(alpha=1.5, lhs=[1.0, 2.0], rhs=0.5, slack=[float("nan"), 1.5])),
        ]
        for fmt in ("json", "csv"):
            single = io.StringIO()
            one_at_a_time = cli.Reporter(fmt, False, single)
            for t in range(2):
                for name, fields in block:
                    one_at_a_time.row(name, **{k: v[t] if isinstance(v, list) else v for k, v in fields.items()})
            stream, flushed = io.StringIO(), []
            stream.flush = lambda: flushed.append(stream.getvalue())
            rep = cli.Reporter(fmt, False, stream)
            rep.table(block)
            assert flushed == [single.getvalue()]
            assert rep.exit_code == one_at_a_time.exit_code == 1  # the NaN slack

    def test_large_table_is_whole_lines_within_pipe_buf(self):
        # POSIX makes a pipe write of at most PIPE_BUF bytes atomic, so a table larger than
        # that goes out in flushed pieces of whole lines that fit: the same bytes in all
        block = [("a", dict(d=2, slack=np.linspace(0, 1, 500).tolist(), seed=list(range(500))))]
        for fmt in ("json", "csv"):
            whole, stream, calls = io.StringIO(), io.StringIO(), []
            cli.Reporter(fmt, False, whole).table(block)
            stream.write, stream.flush = (lambda text: calls.append(text)), (lambda: calls.append(None))
            cli.Reporter(fmt, False, stream).table(block)
            pieces = calls[::2]
            assert calls[1::2] == [None] * len(pieces) and len(pieces) > 1
            assert "".join(pieces) == whole.getvalue()
            assert all(len(p) <= select.PIPE_BUF and p.endswith("\n") for p in pieces)

    def test_nan_slack_is_a_violation(self):
        rep = cli.Reporter("csv", False, io.StringIO())
        rep.row("ok", slack=0.0)
        assert rep.exit_code == 0
        rep.row("broken", slack=float("nan"))
        rep.row("ok", slack=1.0)
        assert rep.exit_code == 1


# numbers whose text is hardest to get right: non-finite, signed zero, subnormal,
# the largest float, ints up to the largest int64, and seeds past any fixed-width integer
_NUMBERS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308, 2**63 - 1]),
    st.sampled_from([2**64, 10**23]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**63), 2**63 - 1),
)
_TEXT = st.one_of(st.text(max_size=6), st.sampled_from([", ", "a, b", "%s", "%%", "\x00", '"', "\u00e9"]))


@st.composite
def _tables(draw):
    """A table for Reporter.table: shapes whose fields are left out, constant
    (None included) or a column of one length; extra keys after ROW_FIELDS.
    wall_time_ms is the reporter's own field."""
    trials = draw(st.integers(0, 5))
    column = st.lists(_NUMBERS, min_size=trials, max_size=trials)
    shapes = []
    for _ in range(draw(st.integers(1, 4))):
        fields = {}
        for key in draw(st.permutations(cli.ROW_FIELDS[1:-1])):
            constant = _TEXT if key == "factor_kind" else _NUMBERS
            value = draw(st.one_of(st.just(...), st.none(), constant, column))
            if value is not ...:
                fields[key] = value
        for key in draw(st.lists(_TEXT.filter(lambda k: k not in cli.ROW_FIELDS), max_size=3, unique=True)):
            fields[key] = draw(st.one_of(_NUMBERS, _TEXT, column))
        shapes.append((draw(_TEXT), fields))
    has_columns = any(isinstance(v, list) for _, fields in shapes for v in fields.values())
    return trials if has_columns else 1, shapes  # a table without columns is one trial


class TestTableRenderer:
    @settings(max_examples=150, deadline=None)
    @given(table=_tables(), fmt=st.sampled_from(["json", "csv"]), tables=st.integers(1, 2))
    def test_matches_row_at_a_time_reference(self, table, fmt, tables):
        # the bytes and the exit code of the former one-dict-per-row renderer
        trials, shapes = table
        got, want = io.StringIO(), io.StringIO()
        rep, ref = cli.Reporter(fmt, False, got), ReferenceReporter(fmt, False, want)
        for _ in range(tables):  # a second table gets no second CSV header
            rep.table(shapes)
            for t in range(trials):
                for name, fields in shapes:
                    ref.row(name, **{k: v[t] if isinstance(v, list) else v for k, v in fields.items()})
        assert got.getvalue() == want.getvalue()
        assert rep.exit_code == ref.exit_code

    @pytest.mark.parametrize("factor_kind", ["g", "a, b"])
    def test_one_encoder_call_is_json_dumps_of_each_row(self, factor_kind):
        # the table's text from one json.dumps call: NaN, +-inf and -0.0 slacks, seeds past
        # 2**64; a string constant holding ", " splits that text at the wrong places, so
        # _cells encodes each value alone; and a table of zero trials writes nothing
        slack, seed = [float("nan"), float("inf"), -float("inf"), -0.0, 0.5], [2**64, 2**64 + 7, 10**23, 0, 3]
        shapes = [("a", dict(d=2, factor_kind=factor_kind, slack=slack, seed=seed)), ("b", dict(lhs=slack[::-1], rhs=-0.0))]
        stream = io.StringIO()
        rep = cli.Reporter("json", False, stream)
        rep.table(shapes)
        rows = [{"check_name": name, **{k: v[t] if isinstance(v, list) else v for k, v in fields.items()}} for t in range(5) for name, fields in shapes]
        want = "".join(json.dumps({k: row[k] for k in cli.ROW_FIELDS if k in row}) + "\n" for row in rows)
        assert stream.getvalue() == want and rep.exit_code == 1
        empty = io.StringIO()
        cli.Reporter("json", False, empty).table([("a", dict(d=2, factor_kind=factor_kind, slack=[], seed=[]))])
        assert empty.getvalue() == ""

    def test_command_rows_are_json_dumps_in_row_order(self, tmp_path, capsys):
        path = _write_instance(
            tmp_path, dim=2, seed=3, kraus=[_encode(k) for k in random_unraveling(2, 3, seed=1).kraus_ops]
        )
        commands = [
            ["sweep", "--dim", "2", "--trials", "3", "--alpha-grid", "0.3,0.5,1,2", "--remixings", "10"],
            ["demo", "dft", "--dim", "3", "--alpha", "1.5", "--trials", "5"],
            ["ensemble", "--dim", "2", "--members", "3", "--alpha", "0.7", "--trials", "4"],
            ["extremal", "--in", path, "--alpha-grid", "0.3,1,2", "--remixings", "10"],
        ]
        for argv in commands:
            code, out, err = _run(capsys, argv)
            assert (code, err) == (0, "")
            lines = out.splitlines(keepends=True)
            assert len(lines) > 3
            for line in lines:
                row = json.loads(line)
                assert line == json.dumps(row) + "\n"
                keys = list(row)
                known = [k for k in cli.ROW_FIELDS if k in row]
                assert keys[: len(known)] == known, keys


class TestCsvFormat:
    def test_header_and_rows(self, capsys):
        code, out, _ = _run(
            capsys, ["--format", "csv", "sweep", "--dim", "2", "--trials", "1", "--remixings", "20"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(cli.ROW_FIELDS)
        assert len(lines) > 1

    def test_extremal_is_csv_rows_only(self, tmp_path, capsys):
        # the JSON extremal_summary has no CSV columns, so CSV output leaves it out
        a = random_unraveling(2, 3, seed=3)
        path = _write_instance(tmp_path, dim=2, kraus=[_encode(k) for k in a.kraus_ops])
        code, out, err = _run(capsys, ["--format", "csv", "extremal", "--in", path, "--remixings", "50"])
        assert (code, err) == (0, "")
        reader = csv.DictReader(io.StringIO(out))
        rows = list(reader)
        assert reader.fieldnames == cli.ROW_FIELDS
        assert [r["check_name"] for r in rows] == ["extremal_vs_remixings"] * 6
        assert all(None not in r and None not in r.values() for r in rows)  # no short or long record


@pytest.mark.parametrize("package", ["scipy", "dataclasses", "numpy.random"])
def test_import_loads_no(package):
    # numpy.random too: the seeded draws define their seed interface on first use, not at import
    code = f"import sys, unravel.cli; print(sorted(m for m in sys.modules if (m + '.').startswith({package!r} + '.')))"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
