"""Planted faults: each row kind of `sweep` and `extremal` turns negative, and the
command exits 1, when the one kernel behind it is wrong by a little.

Each test patches one kernel through monkeypatch and runs the command in-process
through cli.main.  A fault must fail rows of its own check names only, so that a
failing row says which quantity broke.  The faults sit above the smallest that
each row catches at these sizes (CHANGES.md lists those margins)."""

import json

import pytest

from unravel import bounds, cli, linalg
from unravel.channels import random_unraveling

SWEEP = ["sweep", "--dim", "2", "--trials", "200", "--alpha-grid", "0.7,1,1.5,2,3"]


def _failing(capsys, argv) -> tuple[int, set]:
    """The exit code and the check names of the rows whose slack fails the gate."""
    code = cli.main(argv)
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return code, {r["check_name"] for r in rows if "slack" in r and not r["slack"] >= cli.SLACK_TOL}


def _scaled(kernel, factor: float):
    return lambda *args: kernel(*args) * factor


def _flattened(eig, eps: float):
    """_descending_eig with the spectrum moved a fraction eps towards its mean: more
    entropy than the Gram matrix has, at the same eigenvectors."""

    def flat(h):
        w, v = eig(h)
        return (1 - eps) * w + eps * w.mean(axis=-1, keepdims=True), v

    return flat


@pytest.fixture
def extremal_argv(tmp_path):
    path = tmp_path / "inst.json"
    kraus = [cli.matrix_to_json(k) for k in random_unraveling(3, 2, seed=12).kraus_ops]
    path.write_text(json.dumps({"dim": 3, "seed": 12, "kraus": kraus}))
    return ["extremal", "--in", str(path)]


def test_clean_runs_pass(capsys, extremal_argv):
    for argv in (SWEEP, extremal_argv):
        assert _failing(capsys, argv) == (0, set())


def test_f_bar_below_f_fails_factor_chain(capsys, monkeypatch):
    # for rank-one POVMs and a full-rank state, f = f_bar exactly
    monkeypatch.setattr(bounds, "_f_bar", _scaled(bounds._f_bar, 1 - 1e-6))
    assert _failing(capsys, SWEEP) == (1, {"factor_chain"})


def test_flattened_gram_spectrum_fails_theorem1(capsys, monkeypatch, extremal_argv):
    eig = linalg._descending_eig
    for argv, eps, name in ((SWEEP, 1e-3, "theorem1_tsallis"), (extremal_argv, 1e-1, "extremal_vs_remixings")):
        monkeypatch.setattr(linalg, "_descending_eig", _flattened(eig, eps))
        assert _failing(capsys, argv) == (1, {name})


def test_small_g_fails_both_relations(capsys, monkeypatch):
    # g x 0.9 raises both right-hand sides; factor_chain only gains, as f - g grows
    monkeypatch.setattr(bounds, "_g", _scaled(bounds._g, 0.9))
    assert _failing(capsys, SWEEP) == (1, {"theorem2_tsallis", "renyi_relation"})
