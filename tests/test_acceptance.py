"""Acceptance suite: ten end-to-end checks at pinned tolerances.

Each test prints a single [PASS]/[FAIL] verdict line so the suite can be
skimmed from the pytest log.  Tests are numbered so they run in order.
"""

import sys
import time

import numpy as np

from unravel import bounds, linalg
from unravel.channels import (
    Unraveling,
    apply_channel,
    extremal_unraveling,
    gram_matrix,
    random_unraveling,
    remix,
    remixed_probabilities,
)
from unravel.demos import (
    AngleState,
    angle_momentum_demo,
    dft_uncertainty_demo,
    gaussian_wavepacket,
)
from unravel.ensembles import (
    MixedEnsemble,
    ensemble_from_state,
    mixed_ensemble_bounds_check,
    pure_ensemble_bounds_check,
)
from unravel.entropy import conjugate_order, renyi_entropy
from unravel.bounds import SearchConfig, extremal_pair_renyi

from helpers import bin_means, psi_lb_norm, renyi_rows, tsallis_rows


VERDICTS: list[str] = []


def _verdict(label: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    VERDICTS.append(line)
    print(line, file=sys.stdout, flush=True)
    assert ok, label


def _random_instance(seed: int, d: int, projective: bool = True):
    rho = linalg.random_density(d, d, seed=seed)
    if projective:
        m = bounds.random_projective_povm(d, seed + 1)
        n = bounds.random_projective_povm(d, seed + 2)
    else:
        m = bounds.random_povm(d, d + 1, seed + 1)
        n = bounds.random_povm(d, d + 1, seed + 2)
    return m, n, rho


def test_01_extremal_beats_remixings():
    t0 = time.perf_counter()
    tsallis_orders = (0.3, 0.7, 1.0, 1.5, 2.0, 5.0)
    renyi_orders = (0.3, 0.7)
    remix_bank = {n: linalg.haar_random_unitaries(n, 2000, seed=n) for n in (2, 3, 4)}
    worst = np.inf
    rng = np.random.default_rng(2024)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        n_kraus = int(rng.integers(2, 5))
        a = random_unraveling(d, n_kraus, seed=int(rng.integers(1 << 30)))
        for _ in range(10):
            rho = linalg.random_density(d, d, seed=int(rng.integers(1 << 30)))
            pi = gram_matrix(a, rho)
            lambdas = extremal_unraveling(a, rho).lambdas
            probs = remixed_probabilities(pi, remix_bank[a.n_ops])
            for alpha in tsallis_orders:
                slack = tsallis_rows(probs, alpha).min() - tsallis_rows(lambdas, alpha)
                worst = min(worst, slack)
            for alpha in renyi_orders:
                slack = renyi_rows(probs, alpha).min() - renyi_rows(lambdas, alpha)
                worst = min(worst, slack)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10 and elapsed < 60.0
    _verdict(
        f"criterion 1: extremal minimizes over 2000 remixings "
        f"(min slack {worst:.2e}, {elapsed:.1f}s)",
        ok,
    )


def test_02_gram_similarity_and_channel_invariance():
    worst_gram = 0.0
    worst_channel = 0.0
    for k in range(1000):
        d = 2 + k % 2
        n = 2 + k % 3
        a = random_unraveling(d, n, seed=3 * k)
        rho = linalg.random_density(d, d, seed=3 * k + 1)
        u = linalg.haar_random_unitary(n, 3 * k + 2)
        b = remix(a, u)
        gram_resid = np.linalg.norm(gram_matrix(b, rho) - u.conj().T @ gram_matrix(a, rho) @ u)
        chan_resid = np.linalg.norm(apply_channel(b, rho) - apply_channel(a, rho))
        worst_gram = max(worst_gram, gram_resid)
        worst_channel = max(worst_channel, chan_resid)
    ok = worst_gram <= 1e-10 and worst_channel <= 1e-12
    _verdict(
        f"criterion 2: Gram similarity/channel invariance over 1000 triples "
        f"(gram {worst_gram:.2e}, channel {worst_channel:.2e})",
        ok,
    )


def test_03_tsallis_uncertainty_sweep():
    worst = np.inf
    dominance_ok = True
    cases = [(k, True) for k in range(1000)] + [(k, False) for k in range(200)]
    for k, projective in cases:
        d = 2 + k % 2
        m, n, rho = _random_instance(10_000 * (2 - projective) + 10 * k, d, projective)
        for alpha in (1.5, 2.0, 3.0):
            orders = conjugate_order(alpha)
            rep_g = bounds.tsallis_uncertainty_check(m, n, rho, orders, "g")
            worst = min(worst, rep_g.slack)
            for kind in ("f", "fbar"):
                rep = bounds.tsallis_uncertainty_check(m, n, rho, orders, kind)
                if rep.slack < rep_g.slack - 1e-12:
                    dominance_ok = False
    ok = worst >= -1e-9 and dominance_ok
    _verdict(
        f"criterion 3: Tsallis bound on 1200 POVM pairs (min slack {worst:.2e}, "
        f"f/fbar never tighter than g: {dominance_ok})",
        ok,
    )


def test_04_renyi_relation_and_g_strength():
    worst = np.inf
    stronger = 0
    total = 0
    for k in range(1000):
        d = 2 + k % 2
        m, n, rho = _random_instance(50_000 + 10 * k, d, projective=True)
        for alpha in (1.5, 2.0, 3.0):
            orders = conjugate_order(alpha)
            rep_g = bounds.renyi_uncertainty_check(m, n, rho, orders, "g")
            rep_f = bounds.renyi_uncertainty_check(m, n, rho, orders, "f")
            worst = min(worst, rep_g.slack, rep_f.slack)
        total += 1
        if rep_g.rhs > rep_f.rhs:
            stronger += 1
    frac = stronger / total
    ok = worst >= -1e-9 and frac >= 0.95
    _verdict(
        f"criterion 4: Renyi bound on 1000 pairs (min slack {worst:.2e}, "
        f"g-rhs stronger on {100 * frac:.1f}% of impure states)",
        ok,
    )


def test_05_dft_saturation_and_random_states():
    worst_abs = 0.0
    worst = np.inf
    for d in range(2, 9):
        for alpha in (1.5, 2.0, 3.0):
            basis = np.zeros(d)
            basis[0] = 1.0
            rep = dft_uncertainty_demo(basis, conjugate_order(alpha))
            worst_abs = max(worst_abs, abs(rep.slack))
        rng = np.random.default_rng(60_000 + d)
        for _ in range(1000):
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            for alpha in (1.5, 2.0, 3.0):
                rep = dft_uncertainty_demo(psi, conjugate_order(alpha))
                worst = min(worst, rep.slack)
    ok = worst_abs <= 1e-10 and worst >= -1e-10
    _verdict(
        f"criterion 5: DFT demo d=2..8 (basis |slack| {worst_abs:.2e}, "
        f"random-state min slack {worst:.2e})",
        ok,
    )


def test_06_angle_demo():
    orders = conjugate_order(2.0)
    worst_abs = 0.0
    for nbins in (4, 8, 16):
        uniform = np.zeros(11)
        uniform[5] = 1.0
        rep = angle_momentum_demo(AngleState(uniform, nbins), orders)
        worst_abs = max(worst_abs, abs(rep.slack))
    packet = gaussian_wavepacket(50, 3.0, 8)
    rep_g = angle_momentum_demo(packet, orders)
    rng = np.random.default_rng(70_000)
    ineq_ok = True
    beta = 2 / 3
    b, a = 4 / 3, 4.0
    const = (1 / np.sqrt(2 * np.pi)) ** ((2 - b) / b)
    for _ in range(100):
        c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        state = AngleState(c / np.linalg.norm(c), 4)
        mean2b, mean2 = bin_means(state, beta)
        if (mean2b > mean2**beta + 1e-9).any():
            ineq_ok = False
        norm_c = lambda v, t: np.sum(np.abs(v) ** t) ** (1 / t)
        if norm_c(state.coeffs, a) > const * psi_lb_norm(state, b) + 1e-8:
            ineq_ok = False
        if psi_lb_norm(state, a) > const * norm_c(state.coeffs, b) + 1e-8:
            ineq_ok = False
    ok = worst_abs <= 1e-8 and rep_g.slack >= -1e-8 and ineq_ok
    _verdict(
        f"criterion 6: angle demo (uniform |slack| {worst_abs:.2e}, gaussian slack "
        f"{rep_g.slack:.2e}, norm inequalities on 100 states: {ineq_ok})",
        ok,
    )


def test_07_ensemble_bounds():
    worst_pure = np.inf
    worst_eigen = 0.0
    alphas = (0.5, 1.0, 2.0, 5.0)
    for k in range(1000):
        d = 2 + k % 2
        rho = linalg.random_density(d, d, seed=80_000 + 3 * k)
        e = ensemble_from_state(rho, d + k % 3, seed=80_000 + 3 * k + 1)
        res = pure_ensemble_bounds_check(e, alphas[k % 4], "tsallis")
        worst_pure = min(worst_pure, res.ensemble_entropy - res.state_entropy)
        eig = ensemble_from_state(rho, d, seed=None)
        res_eig = pure_ensemble_bounds_check(eig, alphas[k % 4], "tsallis")
        worst_eigen = max(worst_eigen, abs(res_eig.ensemble_entropy - res_eig.state_entropy))
    worst_mixed = np.inf
    for k in range(1000):
        d = 2 + k % 2
        rng = np.random.default_rng(90_000 + k)
        weights = rng.dirichlet(np.ones(3))
        members = tuple(linalg.random_density(d, d, seed=90_000 + 4 * k + j) for j in range(3))
        e = MixedEnsemble(weights, members)
        for alpha in alphas:
            lower, mid, upper = mixed_ensemble_bounds_check(e, alpha)
            worst_mixed = min(worst_mixed, mid - lower, upper - mid)
    ok = worst_pure >= -1e-10 and worst_eigen <= 1e-12 and worst_mixed >= -1e-10
    _verdict(
        f"criterion 7: ensemble bounds (pure min slack {worst_pure:.2e}, eigen-path "
        f"equality {worst_eigen:.2e}, mixed sandwich min slack {worst_mixed:.2e})",
        ok,
    )


def test_08_constrained_minimum():
    worst_gap = 0.0
    edge_ok = True
    for gamma in (1.0, 1.2, 2.0, 5.0):
        for alpha in (1.5, 2.0, 3.0):
            problem = bounds.PhiProblem(gamma=gamma, alpha=alpha)
            analytic, numeric = bounds.phi_min_verify(problem)
            if numeric < analytic - 1e-12:
                edge_ok = False
            worst_gap = max(worst_gap, abs(numeric - analytic))
    hand = bounds.PhiProblem(gamma=2.0, alpha=2.0)
    hand_val = (hand.xi0 - 1.0) / (1.0 - hand.alpha)
    hand_ok = abs(hand_val - 7 / 8) <= 1e-12
    problem = bounds.PhiProblem(gamma=2.0, alpha=2.0)
    beta = problem.beta
    rng = np.random.default_rng(95_000)
    h = 1e-6
    signs_ok = True
    for _ in range(100):
        xi = rng.uniform(0.1, 3.0)
        zeta = max(1.0, problem.gamma * xi ** (beta / problem.alpha)) + rng.uniform(0.1, 2.0)
        d_xi = (problem.phi(xi + h, zeta) - problem.phi(xi - h, zeta)) / (2 * h)
        d_zeta = (problem.phi(xi, zeta + h) - problem.phi(xi, zeta - h)) / (2 * h)
        if not (d_xi < 0 and d_zeta > 0):
            signs_ok = False
    ok = edge_ok and worst_gap <= 1e-12 and hand_ok and signs_ok
    _verdict(
        f"criterion 8: constrained minimum (max |edge-analytic| {worst_gap:.2e}, "
        f"hand case 7/8: {hand_ok}, derivative signs: {signs_ok})",
        ok,
    )


def test_09_factor_chain():
    chain_ok = True
    for k in range(300):
        d = 2 + k % 2
        m, n, rho = _random_instance(100_000 + 10 * k, d, projective=k % 3 != 0)
        g = bounds.g_factor(m, n, rho)
        f = bounds.f_factor(m, n, rho)
        fb = bounds.f_bar(m, n)
        if not (g <= f + 1e-12 and f <= fb + 1e-12 and fb <= 1 + 1e-10):
            chain_ok = False
    pure_ok = True
    rng = np.random.default_rng(110_000)
    for k in range(100):
        d = 2 + k % 2
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        m = bounds.random_projective_povm(d, 110_000 + 2 * k)
        n = bounds.random_projective_povm(d, 110_000 + 2 * k + 1)
        try:
            g = bounds.g_factor(m, n, rho)
        except ValueError:
            continue  # outcome with zero probability on this pure state
        if abs(g - bounds.f_factor(m, n, rho)) > 1e-12:
            pure_ok = False
    same_ok = True
    for k in range(100):
        d = 2 + k % 2
        m = bounds.random_projective_povm(d, 120_000 + k)
        rho = linalg.random_density(d, d, seed=125_000 + k)
        if abs(bounds.g_factor(m, m, rho) - 1.0) > 1e-12:
            same_ok = False
    ok = chain_ok and pure_ok and same_ok
    _verdict(
        f"criterion 9: factor chain g<=f<=fbar<=1 ({chain_ok}), g=f pure ({pure_ok}), "
        f"g=1 identical projectors ({same_ok})",
        ok,
    )


def test_10_search_sanity():
    instances = []
    for k in range(20):
        a = random_unraveling(2, 3, seed=130_000 + 2 * k)
        rho = linalg.random_density(2, 2, seed=130_000 + 2 * k + 1)
        instances.append((a, rho))
    # the Renyi minimum over remixings is the Renyi entropy of the Gram spectrum
    worst_inv = 0.0
    for a, rho in instances:
        lambdas = extremal_unraveling(a, rho).lambdas
        found = renyi_entropy(lambdas, 0.5)
        target = renyi_rows(lambdas, 0.5)
        worst_inv = max(worst_inv, abs(found - target))
    bank = linalg.haar_random_unitaries(3, 100_000, seed=2)
    worst_gap = -np.inf
    for a, rho in instances:
        pi = gram_matrix(a, rho)
        baseline = renyi_rows(remixed_probabilities(pi, bank), 3.0).min()
        found = renyi_entropy(extremal_unraveling(a, rho).lambdas, 3.0)
        worst_gap = max(worst_gap, found - baseline)
    worst_slack = np.inf
    cfg_pair = SearchConfig(alpha=2.0, restarts=3, iterations=60, seed=4)
    for k, (a, rho) in enumerate(instances[:10]):
        b = random_unraveling(2, 2, seed=140_000 + k)
        rep = extremal_pair_renyi(a, b, rho, conjugate_order(2.0), cfg_pair)
        worst_slack = min(worst_slack, rep.slack)
    ok = worst_inv <= 1e-8 and worst_gap <= 1e-6 and worst_slack >= -1e-9
    _verdict(
        f"criterion 10: search sanity (alpha=0.5 gap {worst_inv:.2e}, vs 1e5-sample "
        f"baseline {worst_gap:.2e}, pair-bound min slack {worst_slack:.2e})",
        ok,
    )
