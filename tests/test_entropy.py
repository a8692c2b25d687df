import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravel import bounds, channels, demos, ensembles, entropy, linalg
from unravel.entropy import (
    alpha_log,
    as_prob_vector,
    conjugate_order,
    quantum_entropy,
    renyi_entropy,
    tsallis_entropy,
)

from helpers import renyi_from_tsallis, renyi_rows, tsallis_rows

ORDERS = [0.3, 0.7, 2.0, 5.0]


def _random_probs(rng, n):
    return rng.dirichlet(np.ones(n))


def _exact_entropy(p, alpha: float, kind: str) -> float:
    """60-digit Tsallis or Renyi entropy of p, renormalized exactly (Shannon at alpha == 1)."""
    with localcontext() as ctx:
        ctx.prec = 60
        ps = [Decimal(float(x)) for x in np.ravel(p) if x > 0]
        total = sum(ps)
        ps = [x / total for x in ps]
        a = Decimal(float(alpha))
        if a == 1:
            return float(-sum(x * x.ln() for x in ps))
        power = sum((a * x.ln()).exp() for x in ps)  # sum p^a, against an exact sum p = 1
        return float((power - 1 if kind == "tsallis" else power.ln()) / (1 - a))


def _exact_alpha_log(x: float, alpha: float) -> float:
    with localcontext() as ctx:
        ctx.prec = 60
        lx, t = Decimal(float(x)).ln(), 1 - Decimal(float(alpha))
        return float(((t * lx).exp() - 1) / t if t else lx)


class TestAlphaLog:
    def test_log_of_one(self):
        for a in (0.3, 1.0, 2.0, 7.5):
            assert alpha_log(1.0, a) == 0.0

    def test_hand_value(self):
        # (4^(1-2) - 1)/(1 - 2) = 0.75
        assert alpha_log(4.0, 2.0) == pytest.approx(0.75)

    def test_shannon_limit(self):
        for a in (1 - 1e-9, 1 + 1e-9):
            assert alpha_log(np.e, a) == pytest.approx(1.0, abs=1e-6)

    def test_continuity_in_order(self):
        x = 2.5
        assert alpha_log(x, 1 + 1e-7) == pytest.approx(np.log(x), abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_log(-0.1, 2.0)
        with pytest.raises(ValueError):
            alpha_log(0.0, 1.0)
        with pytest.raises(ValueError):
            alpha_log(0.0, 2.0)

    def test_zero_with_subunit_order(self):
        # finite limit -1/(1-a) exists for a < 1
        assert alpha_log(0.0, 0.5) == pytest.approx(-2.0)

    def test_array_matches_each_entry(self):
        x = np.array([[0.0, 0.25, 1.0], [2.5, 1e300, np.inf]])
        for alpha in (0.3, 0.5, 0.9):
            values = alpha_log(x, alpha)
            assert isinstance(values, np.ndarray) and values.shape == x.shape
            assert values.tolist() == [[alpha_log(v, alpha) for v in row] for row in x.tolist()]
        assert type(alpha_log(np.float64(4.0), 2.0)) is float
        for alpha in (1.0, 2.0):
            assert alpha_log(x[:, 1:], alpha).tolist() == [[alpha_log(v, alpha) for v in row] for row in x[:, 1:].tolist()]
            with pytest.raises(ValueError, match="diverges"):
                alpha_log(x, alpha)
        with pytest.raises(ValueError, match=r"requires x >= 0, got -0\.5"):
            alpha_log(np.array([1.0, -0.5]), 0.5)


class TestTsallis:
    def test_uniform_two(self):
        assert tsallis_entropy([0.5, 0.5], 2.0) == pytest.approx(0.5)
        assert tsallis_entropy([0.5, 0.5], 2.0) == pytest.approx(alpha_log(2.0, 2.0))

    def test_degenerate(self):
        for a in ORDERS:
            assert tsallis_entropy([1.0, 0.0, 0.0], a) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_four(self):
        assert tsallis_entropy([0.25] * 4, 2.0) == pytest.approx(0.75)

    def test_shannon_switchover(self):
        p = [0.2, 0.3, 0.5]
        shannon = -sum(x * np.log(x) for x in p)
        assert tsallis_entropy(p, 1.0) == pytest.approx(shannon)
        assert tsallis_entropy(p, 1 + 5e-9) == pytest.approx(shannon)


class TestRenyi:
    def test_uniform_two(self):
        assert renyi_entropy([0.5, 0.5], 2.0) == pytest.approx(np.log(2))

    def test_degenerate(self):
        assert renyi_entropy([1.0, 0.0], 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_conversion_consistency(self):
        rng = np.random.default_rng(0)
        p = _random_probs(rng, 5)
        h = tsallis_entropy(p, 0.5)
        assert renyi_entropy(p, 0.5) == pytest.approx(renyi_from_tsallis(h, 0.5), abs=1e-12)


class TestConversion:
    def test_zero(self):
        for a in (0.3, 2.0, 5.0):
            assert renyi_from_tsallis(0.0, a) == 0.0

    def test_hand_value(self):
        assert renyi_from_tsallis(0.5, 2.0) == pytest.approx(np.log(2))

    def test_round_trip_many(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = _random_probs(rng, rng.integers(2, 7))
            for a in (0.3, 2.0, 5.0):
                h = tsallis_entropy(p, a)
                assert renyi_from_tsallis(h, a) == pytest.approx(
                    renyi_entropy(p, a), abs=1e-12
                )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            renyi_from_tsallis(2.0, 2.0)


class TestNormalizesOnce:
    """Each distribution a public call builds is normalized once, where it is built."""

    def test_one_normalization_per_distribution(self, monkeypatch):
        calls = []
        original = entropy._normalized

        def counting(p, *args, **kwargs):
            calls.append(np.shape(p))
            return original(p, *args, **kwargs)

        for module in (entropy, bounds, channels, demos, ensembles):
            monkeypatch.setattr(module, "_normalized", counting, raising=False)
        orders = conjugate_order(2.0)
        rho = linalg.random_density(3, 3, seed=1)
        psi = np.linalg.qr(linalg.ginibre(np.random.default_rng(2), 4, 1))[0].ravel()
        packet = demos.gaussian_wavepacket(20, 2.0, 8)
        mixed = ensembles.MixedEnsemble(
            [0.25, 0.75], (rho, linalg.random_density(3, 2, seed=3))
        )
        unraveling = channels.random_unraveling(3, 2, seed=4)
        cases = [
            (lambda: quantum_entropy(rho, 2.0), 1),
            (lambda: channels.unraveling_entropy(unraveling, rho, 2.0), 1),
            (lambda: demos.dft_uncertainty_demo(psi, orders), 2),
            (lambda: demos.angle_momentum_demo(packet, orders), 2),
            # member spectra (one stack) and the state's spectrum; the weights were normalized when held
            (lambda: ensembles.mixed_ensemble_bounds_check(mixed, 2.0), 2),
        ]
        for call, expected in cases:
            calls.clear()
            call()
            assert len(calls) == expected


class TestPointMass:
    @pytest.mark.parametrize("kind", ["tsallis", "renyi"])
    def test_entropy_is_positive_zero(self, kind):
        for alpha in (1e-3, 0.3, 0.5, 1.0, 1.5, 2.0, 7.5, 400.0):
            for p in ([1.0, 0.0], [0.0, 0.0, 1.0], [1.0]):
                h = (tsallis_entropy if kind == "tsallis" else renyi_entropy)(p, alpha)
                assert h == 0.0 and math.copysign(1.0, h) == 1.0
            stacked = entropy._entropy(np.eye(3), alpha, kind)
            assert np.array_equal(np.copysign(1.0, stacked), np.ones(3))


class TestQuantumEntropy:
    def test_eigenvalue_within_psd_tolerance(self):
        # an eigenvalue of -5e-11 passes the PSD check and counts as 0
        rho = np.diag([1 + 5e-11, -5e-11])
        for kind in ("tsallis", "renyi"):
            assert quantum_entropy(rho, 2.0, kind) == 0.0
    def test_maximally_mixed(self):
        d = 3
        rho = np.eye(d) / d
        for a in ORDERS:
            assert quantum_entropy(rho, a, "tsallis") == pytest.approx(alpha_log(d, a))
            assert quantum_entropy(rho, a, "renyi") == pytest.approx(np.log(d))

    def test_pure_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert quantum_entropy(rho, 2.0, "tsallis") == pytest.approx(0.0, abs=1e-12)
        assert quantum_entropy(rho, 2.0, "renyi") == pytest.approx(0.0, abs=1e-12)

    def test_purity_oracle(self):
        rho = linalg.random_density(3, 3, seed=4)
        purity = np.trace(rho @ rho).real
        assert quantum_entropy(rho, 2.0, "tsallis") == pytest.approx(1 - purity, abs=1e-10)

    def test_diagonal_embedding(self):
        rng = np.random.default_rng(5)
        p = _random_probs(rng, 4)
        for a in ORDERS:
            assert quantum_entropy(np.diag(p), a, "tsallis") == pytest.approx(
                tsallis_entropy(p, a), abs=1e-12
            )


class TestConjugateOrder:
    def test_fixed_point(self):
        o = conjugate_order(1.0)
        assert (o.alpha, o.beta, o.mu) == (1.0, 1.0, 1.0)

    def test_alpha_two(self):
        o = conjugate_order(2.0)
        assert o.beta == pytest.approx(2 / 3)
        assert o.mu == 2.0

    def test_symmetry(self):
        o = conjugate_order(2 / 3)
        assert o.beta == pytest.approx(2.0)
        assert o.mu == pytest.approx(2.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            conjugate_order(0.5)
        with pytest.raises(ValueError):
            conjugate_order(0.2)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                conjugate_order(bad)

    @pytest.mark.parametrize(
        "orders, message",
        [
            ((0.0, 1.0, 1.0), "positive"),
            ((1.0, float("nan"), 1.0), "positive"),
            ((float("nan"), 1.0, 1.0), "positive"),
            ((float("inf"), 0.5, float("inf")), "positive"),  # 1/inf + 1/0.5 = 2 exactly
            ((0.5, float("inf"), float("inf")), "positive"),
            ((2.0, 1.0, 2.0), "not conjugate"),
            ((2.0, 2 / 3, 2 / 3), "mu must equal"),
        ],
        ids=["zero", "nan-beta", "nan-alpha", "inf-alpha", "inf-beta", "not-conjugate", "wrong-mu"],
    )
    def test_constructor_rejects(self, orders, message):
        with pytest.raises(ValueError, match=message):
            entropy.ConjugateOrders(*orders)

    def test_conjugate_rounding_to_zero_names_alpha(self):
        # 2 alpha - 1 overflows to inf, so beta would be 0
        with pytest.raises(ValueError, match=r"conjugate order of alpha = 1e\+308 rounds to 0"):
            conjugate_order(1e308)

    @given(st.floats(min_value=0.51, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_constraint(self, alpha):
        o = conjugate_order(alpha)
        assert abs(1 / o.alpha + 1 / o.beta - 2) < 1e-12


class TestProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        p = _random_probs(rng, 5)
        q = rng.permutation(p)
        for a in ORDERS:
            assert tsallis_entropy(p, a) == pytest.approx(tsallis_entropy(q, a), abs=1e-12)
            assert renyi_entropy(p, a) == pytest.approx(renyi_entropy(q, a), abs=1e-12)

    def test_renyi_monotone_in_order(self):
        rng = np.random.default_rng(7)
        p = _random_probs(rng, 6)
        grid = [0.2, 0.5, 0.9, 1.0, 1.3, 2.0, 4.0, 8.0]
        vals = [renyi_entropy(p, a) for a in grid]
        assert np.all(np.diff(vals) <= 1e-10)

    def test_uniform_maximality(self):
        rng = np.random.default_rng(8)
        d = 5
        uniform = np.full(d, 1 / d)
        for _ in range(50):
            p = _random_probs(rng, d)
            for a in ORDERS:
                assert tsallis_entropy(p, a) <= tsallis_entropy(uniform, a) + 1e-10
                assert renyi_entropy(p, a) <= renyi_entropy(uniform, a) + 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = _random_probs(rng, 4)
            for a in ORDERS + [1.0]:
                assert tsallis_entropy(p, a) >= -1e-14
                assert renyi_entropy(p, a) >= -1e-14


class TestProbVector:
    def test_clip_and_renormalize(self):
        p = as_prob_vector([0.5, 0.5 + 3e-11, -5e-13])
        assert p.sum() == pytest.approx(1.0, abs=1e-15)
        assert p[2] == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            as_prob_vector([0.5, 0.6])

    def test_sum_error_prints_the_float(self):
        with pytest.raises(ValueError, match=r"^probabilities sum to 1\.0000000005, expected 1$"):
            as_prob_vector([0.5, 0.5000000005])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            as_prob_vector([1.1, -0.1])


@st.composite
def _prob_stacks(draw):
    """Row-stochastic (rows, cols) arrays with exact zeros in some rows."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 40))
    entry = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    w = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    w[w.sum(axis=1) == 0, 0] = 1.0
    return w / w.sum(axis=1, keepdims=True)


class TestStackedEntropy:
    @given(_prob_stacks(), st.sampled_from([0.3, 0.5, 1.0, 1 + 5e-9, 2.0, 7.0]))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_single_calls_and_oracle(self, p, alpha):
        for fn, oracle, kind in (
            (tsallis_entropy, tsallis_rows, "tsallis"),
            (renyi_entropy, renyi_rows, "renyi"),
        ):
            rows = fn(p, alpha)
            assert rows.shape == (p.shape[0],)
            for i in range(p.shape[0]):
                assert rows[i] == fn(p[i], alpha)
            # the float oracles cancel (or divide by zero) at orders near 1
            if abs(alpha - 1) < 1e-3:
                expected = np.array([_exact_entropy(row, alpha, kind) for row in p])
            else:
                expected = oracle(p, alpha)
            assert np.max(np.abs(rows - expected)) <= 1e-12

    def test_bad_row_rejected(self):
        good = np.full((3, 4), 0.25)
        for bad_row in ([0.5, 0.5, 0.5, 0.0], [1.2, -0.2, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]):
            p = good.copy()
            p[1] = bad_row
            for fn in (tsallis_entropy, renyi_entropy):
                with pytest.raises(ValueError):
                    fn(p, 2.0)


_EXACT_ORDERS = st.one_of(
    st.just(1.0),
    st.floats(-1e-4, 1e-4).map(lambda delta: 1.0 + delta),
    st.sampled_from([1e-3, 0.5, 2.0, 7.0, 50.0]),
)


@st.composite
def _hard_distributions(draw):
    """Distributions with exact zeros and, in some, subnormal entries."""
    w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=12)))
    if w.sum() == 0:
        w[0] = 1.0
    tiny = draw(st.lists(st.sampled_from([1e-320, 5e-324, 2.5e-310]), max_size=3))
    return np.concatenate([w / w.sum(), tiny])


class TestExactAtEveryOrder:
    """Every entropy and alpha_log within 1e-13 of a 60-digit decimal oracle."""

    @given(_hard_distributions(), _EXACT_ORDERS)
    @settings(max_examples=300, deadline=None)
    def test_entropies(self, p, alpha):
        for fn, kind in ((tsallis_entropy, "tsallis"), (renyi_entropy, "renyi")):
            assert abs(fn(p, alpha) - _exact_entropy(p, alpha, kind)) <= 1e-13

    @given(st.floats(1e-3, 1e3), _EXACT_ORDERS)
    @settings(max_examples=300, deadline=None)
    def test_alpha_log(self, x, alpha):
        # ln_a(x) grows like x^(1-a); the bound is relative once it exceeds 1
        exact = _exact_alpha_log(x, alpha)
        assert abs(alpha_log(x, alpha) - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_subnormal_entry_at_small_order(self):
        p = [1 - 1e-20, 1e-320]
        assert tsallis_entropy(p, 1e-3) == pytest.approx(_exact_entropy(p, 1e-3, "tsallis"), abs=1e-13)

    def test_renyi_at_large_order(self):
        # at 400, sum p^a = 8^-399 underflows to 0 unless max p is factored out
        for alpha in (50.0, 400.0):
            assert renyi_entropy(np.full(8, 1 / 8), alpha) == pytest.approx(np.log(8), abs=1e-13)
        p = [0.9, 0.1, 0.0]
        assert renyi_entropy(p, 400.0) == pytest.approx(_exact_entropy(p, 400.0, "renyi"), abs=1e-13)

    def test_at_the_largest_orders(self):
        # alpha ln(max p) and (alpha - 1) ln p overflow here; the values are the exact limits,
        # with no overflow warning (the suite turns warnings into errors)
        assert renyi_entropy(np.full(10, 0.1), 8e307) == pytest.approx(np.log(10), abs=1e-13)
        assert renyi_entropy([0.9, 0.1], 8e307) == pytest.approx(-np.log(0.9), abs=1e-13)
        assert tsallis_entropy(np.full(10, 0.1), 1e308) == pytest.approx(1 / (1e308 - 1), rel=1e-15)
