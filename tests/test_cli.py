import contextlib
import io
import json
import os
import select
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unravel
from unravel import bounds, channels, cli, linalg
from unravel.channels import random_unraveling
from unravel.entropy import conjugate_order

from helpers import x_basis_povm, z_basis_povm


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

    def test_byte_determinism(self, capsys):
        _, out1, _ = _run(capsys, self.ARGS)
        _, out2, _ = _run(capsys, self.ARGS)
        assert out1 == out2

    def test_timing_flag_adds_field(self, capsys):
        _, out, _ = _run(capsys, ["--timing"] + self.ARGS)
        rows = _json_rows(out)
        assert all("wall_time_ms" in r for r in rows)
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
        draw, before_draw = linalg.random_density, []

        def spy(dim, rank, seed):
            before_draw.append(capsys.readouterr().out)
            if len(before_draw) == 2:
                raise ValueError("trial 1 failed")
            return draw(dim, rank, seed)

        monkeypatch.setattr(linalg, "random_density", spy)
        code, out, err = _run(capsys, ["sweep", "--dim", "2", "--trials", "2", "--seed", "5"])
        assert code == 2
        assert json.loads(err) == {"error": "trial 1 failed"}
        assert before_draw[0] == "" and out == ""
        rows = _json_rows(before_draw[1])
        assert len(rows) == 10
        assert rows[0]["check_name"] == "factor_chain"
        assert all(r["seed"] == 5 for r in rows)

    def test_killed_sweep_leaves_whole_rows(self):
        # rows are written as they are made, so a sweep killed mid-run leaves whole JSON lines
        argv = [sys.executable, "-m", "unravel.cli", "sweep", "--dim", "16", "--trials", "100000"]
        with subprocess.Popen(argv, env=_src_env(), stdout=subprocess.PIPE, text=True) as proc:
            try:
                assert select.select([proc.stdout], [], [], 30)[0], "no row within 30 s"
                first = proc.stdout.readline()
            finally:
                proc.kill()
            rest = proc.stdout.read()
            proc.wait(timeout=60)
        assert json.loads(first)["check_name"] == "factor_chain"
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
        ],
    )
    def test_out_of_range_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_zero_trials_allowed(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--dim", "2", "--trials", "0"])
        assert (code, out) == (0, "")
        code, out, _ = _run(capsys, ["demo", "dft", "--dim", "3", "--alpha", "2"])
        assert code == 0 and len(_json_rows(out)) == 1


class TestUnexpectedError:
    def test_reported_with_exit_3(self, capsys, monkeypatch):
        def broken(m, n):
            raise RuntimeError("out of luck")

        monkeypatch.setattr(bounds, "f_bar", broken)
        code, out, err = _run(capsys, ["sweep", "--dim", "2", "--trials", "1"])
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "RuntimeError: out of luck"}


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

    def test_large_grid(self, capsys):
        # the grid check costs O(grid) memory, so a 10^5-point grid runs
        code, out, _ = _run(capsys, ["phi-min", "--gamma", "2", "--alpha", "2", "--grid", "100000"])
        assert code == 0
        (row,) = _json_rows(out)
        assert row["slack"] >= -1e-12


    def test_non_finite_inputs_exit_2(self, capsys):
        for argv, name in ((["--gamma", "2", "--alpha", "nan"], "alpha"), (["--gamma", "inf", "--alpha", "2"], "gamma")):
            code, out, err = _run(capsys, ["phi-min", *argv])
            assert code == 2
            assert out == ""
            assert name in json.loads(err)["error"]


class TestReporter:
    def test_flushes_each_row(self):
        # a pipe's reader sees each row when it is made, not when a buffer fills
        for fmt in ("json", "csv"):
            stream, flushed = io.StringIO(), []
            stream.flush = lambda: flushed.append(stream.getvalue())
            rep = cli.Reporter(fmt, False, stream)
            rep.row("a", slack=0.0)
            rep.obj({"check_name": "b"})
            assert len(flushed) == 2
            assert flushed[-1] == stream.getvalue()

    def test_nan_slack_is_a_violation(self):
        rep = cli.Reporter("csv", False, io.StringIO())
        rep.row("ok", slack=0.0)
        assert rep.exit_code == 0
        rep.row("broken", slack=float("nan"))
        rep.row("ok", slack=1.0)
        assert rep.exit_code == 1


class TestCsvFormat:
    def test_header_and_rows(self, capsys):
        code, out, _ = _run(
            capsys, ["--format", "csv", "sweep", "--dim", "2", "--trials", "1", "--remixings", "20"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(cli.ROW_FIELDS)
        assert len(lines) > 1


def test_import_loads_no_scipy():
    code = "import sys, unravel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
