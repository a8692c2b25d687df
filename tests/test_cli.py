import array
import contextlib
import csv
import fcntl
import io
import json
import os
import select
import subprocess
import sys
import termios
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unravel
from unravel import bounds, channels, cli, demos, ensembles, linalg
from unravel.channels import random_unraveling
from unravel.entropy import _entropy, conjugate_order

from helpers import ReferenceReporter, x_basis_povm, z_basis_povm


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

    def test_missing_povm_exits_2(self, tmp_path, capsys):
        path = _write_instance(tmp_path, dim=2)
        code, _, err = _run(capsys, ["uncertainty", "--in", path, "--alpha", "2"])
        assert code == 2
        assert "error" in json.loads(err)


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
        opened, before_draw = [], []

        def spy(seed):  # each seed's stream is opened here, in linalg.ginibre_stack's per-seed fill
            opened.append(seed)
            if seed in (5, 1005):  # each trial's first draw, its state's
                before_draw.append(capsys.readouterr().out)
            if seed == 1005:
                raise ValueError("trial 1 failed")
            return default_rng(seed)

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", spy)
        code, out, err = _run(capsys, ["sweep", "--dim", "2", "--trials", "2", "--seed", "5"])
        assert code == 2
        assert json.loads(err) == {"error": "trial 1 failed"}
        assert before_draw[0] == "" and out == ""
        rows = _json_rows(before_draw[1])
        assert len(rows) == 10
        assert rows[0]["check_name"] == "factor_chain"
        assert all(r["seed"] == 5 for r in rows)
        assert opened == [5, 6, 7, 8, 9, 1005]  # one stream per seed, stage by stage

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


class TestUnexpectedError:
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
            mp.setattr(cli, "BLOCK_ELEMENTS", block * d)  # blocks of `block` trials
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
            mp.setattr(cli, "BLOCK_ELEMENTS", block * ((m + 1) * d * d + m * m))  # blocks of `block` trials
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
        drawn = []

        def spy(seed):  # each seed's stream is opened here, in linalg.ginibre_stack's per-seed fill
            drawn.append(seed)
            if seed == 3000:
                raise ValueError("trial 3 failed")
            return default_rng(seed)

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", spy)
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", 4 * (3 * 4 + 4))
        code, out, err = _run(capsys, ["ensemble", "--dim", "2", "--members", "2", "--alpha", "2", "--trials", "8"])
        assert code == 2
        assert json.loads(err) == {"error": "trial 3 failed"}
        rows = _json_rows(out)
        assert [r["seed"] for r in rows] == [0, 0, 1000, 1000, 2000, 2000]
        assert max(drawn) == 3000  # no trial after the failing one was drawn
        # trial 0 alone, then the block of trials 1..4, whose first stage stops at 3000, run
        # again one trial at a time: each stage opens each of its seeds' streams once
        # (ensemble's base + 2 is the mixture's weights, drawn by a generator of its own)
        opened_once = [*range(5), 1000, 2000, 3000, *range(1000, 1005), *range(2000, 2005), 3000]
        assert drawn == opened_once

        drawn.clear()
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", 4 * 4 * (2 + 5 + 3))
        code, out, err = _run(capsys, ["sweep", "--dim", "2", "--trials", "8", "--remixings", "5"])
        assert code == 2
        assert json.loads(err) == {"error": "trial 3 failed"}
        rows = _json_rows(out)
        assert [r["seed"] for r in rows if r["check_name"] == "factor_chain"] == [0, 1000, 2000]
        assert len(rows) == 3 * 10
        assert max(drawn) == 3000
        assert drawn == opened_once

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
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", 4 * 3)
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
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", 4 * 9 * (3 + 7 + 3))
        code, out, err = _run(capsys, ["sweep", "--dim", "3", "--trials", "8", "--remixings", "7", "--seed", "9"])
        assert code == 3
        assert json.loads(err) == {"error": "RuntimeError: trial 5 failed"}
        rows = _json_rows(out)
        assert [r["seed"] for r in rows if r["check_name"] == "factor_chain"] == [9, 1009, 2009, 3009, 4009]
        assert len(rows) == 5 * 10

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
            mp.setattr(cli, "BLOCK_ELEMENTS", block * d * d * (d + remixings + 3))  # blocks of `block` trials
            assert cli.main(argv + ["--alpha-grid", ",".join(map(repr, grid))]) == 0
        want = []
        for t in range(trials):
            # the public one-trial functions, under the sweep's seed layout
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
        assert _json_rows(out.getvalue()) == want

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
        per_trial = {"demo": 8, "ensemble": 5 * 9 + 16, "sweep": 4 * (2 + 20 + 3)}[argv[0]]
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", 25 * per_trial)
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
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", 4 * 3)  # blocks of 4 trials after trial 0
        code, out, _ = _run(capsys, ["demo", "dft", "--dim", "3", "--alpha", "2", "--trials", "10"])
        assert code == 0
        assert len(_json_rows(out)) == 11
        assert calls == [(1, 2, 3), (4, 2, 3), (4, 2, 3), (1, 2, 3)]

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
        for block in (1, cli.BLOCK_ELEMENTS):
            monkeypatch.setattr(cli, "BLOCK_ELEMENTS", block)
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
        want = []
        for t in range(4):
            base = seed + 1000 * t
            rho = linalg.random_density(d, d, base)
            extremal = channels.extremal_unraveling(channels.random_unraveling(d, d, base + 1), rho)
            probs = channels.remixed_probabilities(extremal.gram, linalg.haar_random_unitaries(d, 5, base + 2))
            m_povm, n_povm = bounds.random_projective_povm(d, base + 3), bounds.random_projective_povm(d, base + 4)
            g, f = bounds.g_factor(m_povm, n_povm, rho), bounds.f_factor(m_povm, n_povm, rho)
            fb = bounds.f_bar(m_povm, n_povm)
            want.append(dict(check_name="factor_chain", d=d, slack=min(f - g, fb - f, 1.0 + 1e-10 - fb), factor=g, seed=base))
            for a in (1.5, 2.0, 3.0):
                lhs, rhs = float(_entropy(probs, a, "tsallis").min()), _entropy(extremal.lambdas, a, "tsallis")
                want.append(dict(check_name="theorem1_tsallis", d=d, alpha=a, lhs=lhs, rhs=rhs, slack=lhs - rhs, seed=base))
                for name, check in (
                    ("theorem2_tsallis", bounds.tsallis_uncertainty_check),
                    ("renyi_relation", bounds.renyi_uncertainty_check),
                ):
                    report = check(m_povm, n_povm, rho, conjugate_order(a), "g")
                    want.append(dict(check_name=name, d=d, factor_kind="g", seed=base, **cli._report_fields(report)))
        assert _json_rows(out) == want

        argv = ["ensemble", "--dim", str(d), "--members", str(m), "--alpha", str(alpha), "--trials", "4"]
        code, out, _ = _run(capsys, argv + ["--seed", str(seed)])
        assert code == 0
        want = []
        for t in range(4):
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
        rows = _json_rows(out)
        assert rows == want
        assert [r["seed"] for r in rows] == [seed + 1000 * t for t in range(4) for _ in range(2)]


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


class TestPhiMinCommand:
    def test_hand_case(self, capsys):
        code, out, _ = _run(capsys, ["phi-min", "--gamma", "2", "--alpha", "2"])
        assert code == 0
        (row,) = _json_rows(out)
        assert row["rhs"] == pytest.approx(7 / 8, abs=1e-12)
        assert row["lhs"] == pytest.approx(7 / 8, abs=1e-4)
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
# the largest float, and ints up to the largest int64
_NUMBERS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308, 2**63 - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**63), 2**63 - 1),
)
_TEXT = st.one_of(st.text(max_size=6), st.sampled_from([", ", "a, b", "%s", "%%", "\x00", '"', "\u00e9"]))


@st.composite
def _tables(draw):
    """A table for Reporter.table: shapes whose fields are left out, constant
    (None included) or a column of one length; extra keys after ROW_FIELDS.
    wall_time_ms is the reporter's own field."""
    trials = draw(st.integers(1, 5))
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


@pytest.mark.parametrize("package", ["scipy", "dataclasses"])
def test_import_loads_no(package):
    code = f"import sys, unravel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
