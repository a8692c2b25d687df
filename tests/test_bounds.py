import functools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unravel import bounds, channels, cli, ensembles, entropy, linalg
from unravel.bounds import (
    PhiProblem,
    Povm,
    SearchConfig,
    extremal_pair_renyi,
    extremal_pair_tsallis,
    f_bar,
    f_factor,
    g_factor,
    phi_min_verify,
    povm_from_unraveling,
    povm_probabilities,
    random_povm,
    random_projective_povm,
    renyi_uncertainty_check,
    tsallis_uncertainty_check,
)
from unravel.channels import Unraveling, effect_probabilities, extremal_unraveling, random_unraveling
from unravel.entropy import alpha_log, conjugate_order, tsallis_entropy

from helpers import blocks_of, depolarizing_unraveling, dft_matrix, measurement_channel, psd_sqrt, x_basis_povm, z_basis_povm


def _pure(psi):
    psi = np.asarray(psi, complex)
    return np.outer(psi, psi.conj())


class TestPovm:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="POVM completeness violated"):
            Povm((np.diag([0.5, 0.5]),))
        # a drawn basis, which skips the decomposition, keeps the check and its message
        with pytest.raises(ValueError, match="POVM completeness violated"):
            bounds._projective(np.eye(2) / np.sqrt(2))

    def test_factored_checks_every_root_column(self):
        # column 0 of each root sums to the identity, but sum F F† = diag(1, 1.25): the Kraus
        # set F_i† is rejected when it is built, before povm_from_unraveling takes it
        roots = np.array([[[1, 0], [0, 0.5]], [[0, 0], [1, 0]]], dtype=complex)
        with pytest.raises(ValueError, match="completeness violated"):
            povm_from_unraveling(Unraveling(roots.conj().swapaxes(-1, -2)))

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="POVM element 1 is not PSD: min eigenvalue -5.000e-01"):
            Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_element_rejected_in_one_pass(self, monkeypatch, entry):
        # the element stack is tested for finiteness once, in check_hermitian, before any product
        passes, isfinite = [], np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda x, *a, **k: passes.append(np.shape(x)) or isfinite(x, *a, **k))
        elements = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        Povm(elements)
        assert passes == [(2, 2, 2)]
        elements[1, 0, 1] = entry
        with pytest.raises(ValueError, match="POVM element has non-finite entries"):
            Povm(elements)

    def test_rejects_non_hermitian(self):
        skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="element 1 is not Hermitian"):
            Povm((np.eye(2) / 2, skew))

    @pytest.mark.parametrize("dim", [0, -2])
    def test_random_povms_reject_dim_below_one(self, dim):
        with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
            random_povm(dim, 2, 1)
        with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
            random_projective_povm(dim, 1)

    def test_random_povm_valid(self):
        m = random_povm(3, 4, seed=0)
        assert m.roots.shape[-3] == 4
        assert np.linalg.norm(sum(m.elements) - np.eye(3)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 5),
        n_outcomes=st.integers(1, 5),
        seed=st.sampled_from([0, 2**63, 10**23]) | st.integers(0, 2**64),
    )
    def test_random_povm_is_one_draw_of_its_pieces(self, dim, n_outcomes, seed):
        # one (n, 2, dim, dim) draw reads the stream of n ginibre(rng, dim, dim) calls on one generator
        rng = np.random.default_rng(seed)
        g = np.stack([linalg.ginibre(rng, dim, dim) for _ in range(n_outcomes)])
        pieces = g @ g.conj().swapaxes(-1, -2)
        w, v = np.linalg.eigh(sum(pieces))
        inv_root = (v / np.sqrt(w)) @ v.conj().T
        want = linalg.hermitianize(inv_root @ pieces @ inv_root)
        assert random_povm(dim, n_outcomes, seed).elements.tobytes() == want.tobytes()

    def test_factored_elements_match_public_path(self):
        # the constructors that hold root factors skip the decomposition, but their elements
        # are bit-identical to Povm(elements) on the matmul products F F†, layout included
        for dim in (1, 3, 8, 64):
            u = linalg.haar_random_unitary(dim, dim)
            k = _kraus_set_with_zeros(dim, dim + 1, 2, 1, seed=dim).kraus_ops
            pairs = (
                (random_projective_povm(dim, dim), Povm(u.T[:, :, None] @ u.T.conj()[:, None, :])),
                (povm_from_unraveling(Unraveling(k)), Povm(k.conj().swapaxes(1, 2) @ k)),
            )
            for factored, public in pairs:
                assert factored.elements.tobytes() == public.elements.tobytes()
                assert factored.elements.flags.c_contiguous and factored.roots.flags.c_contiguous

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 5), data=st.data())
    def test_factored_roots_of_every_rank(self, dim, data):
        # roots F_i = A_i† of rank up to r = 1..dim: rectangular r x dim Kraus operators, some zero
        rank, seed = data.draw(st.integers(1, dim)), data.draw(st.integers(0, 2**32 - 1))
        n_ops = -(-dim // rank) + data.draw(st.integers(0, 2))  # an isometry needs n_ops * rank >= dim
        a = _kraus_set_with_zeros(dim, rank, n_ops, data.draw(st.integers(0, 2)), seed)
        f = np.ascontiguousarray(a.kraus_ops.conj().swapaxes(-1, -2))
        m = Povm._factored(f)
        assert _same(m.elements, linalg.hermitianize(f @ f.conj().swapaxes(-1, -2)))
        rho = linalg.random_density(dim, data.draw(st.integers(1, dim)), seed + 1)
        want = [np.trace(x @ rho).real for x in m.elements]
        assert np.abs(povm_probabilities(m, rho) - want).max() <= 1e-14

    def test_rank_one_roots_hold_no_element_stack(self):
        # a projective POVM reads its size off the roots and makes its elements once, when read
        m = random_projective_povm(5, 3)
        assert "elements" not in vars(m) and m.roots.shape == (5, 5, 1)
        assert m.elements is m.elements

    def test_povm_memory_of_a_full_rank_stack(self):
        # the one decomposition of Povm(elements) holds the stack, its eigenvectors and roots
        elements = random_povm(64, 64, seed=70).elements
        tracemalloc.start()
        try:
            m = Povm(elements)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert m.roots.shape == (64, 64, 64)


def _count_stack_decompositions(monkeypatch) -> list:
    """Record the name of every np.linalg.eigh / eigvalsh call made on a stack (3-D input)."""
    calls = []
    for name in ("eigh", "eigvalsh"):

        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            if np.ndim(a) == 3:
                calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestDecompositionCounts:
    def test_sweep_trial_decomposes_no_stack(self, monkeypatch, capsys):
        # both POVMs come from the projective kernel, which holds its root factors; the
        # sweep decomposes only its stacks of states and Gram matrices, (1, 8, 8) per block
        shapes = []
        for name in ("eigh", "eigvalsh"):

            def recorded(a, *args, _original=getattr(np.linalg, name), **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        assert cli.main(["sweep", "--dim", "8", "--trials", "2"]) == 0
        assert (1, 8, 8) in shapes
        assert [s for s in shapes if s[-3:] == (8, 8, 8)] == []  # no POVM element stack

    def test_sweep_builds_no_element_stack_and_makes_no_svd(self, monkeypatch, capsys):
        # the projective POVMs of a sweep are read through their root vectors alone
        built, svds = [], []
        build = Povm.__dict__["elements"].func

        def counted(povm):
            built.append(povm.roots.shape)
            return build(povm)

        elements = functools.cached_property(counted)
        elements.__set_name__(Povm, "elements")
        monkeypatch.setattr(Povm, "elements", elements)
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
        assert cli.main(["sweep", "--dim", "8", "--trials", "3"]) == 0
        assert (built, svds) == ([], [])
        random_projective_povm(3, 0).elements  # the counter sees a read
        assert built == [(3, 3, 1)]

    def test_povm_then_f_bar_decomposes_each_stack_once(self, monkeypatch):
        stacks = [random_povm(4, 3, seed=s).elements for s in (1, 2)]
        calls = _count_stack_decompositions(monkeypatch)
        m, n = (Povm(x) for x in stacks)
        f_bar(m, n)
        assert calls == ["eigh", "eigh"]


class TestPovmProbabilities:
    def test_basis_projectors_on_basis_state(self):
        p = povm_probabilities(z_basis_povm(), _pure([1, 0]))
        assert np.allclose(p, [1.0, 0.0])

    def test_maximally_mixed(self):
        m = random_povm(3, 4, seed=1)
        p = povm_probabilities(m, np.eye(3) / 3)
        expected = [np.trace(x).real / 3 for x in m.elements]
        assert np.allclose(p, expected, atol=1e-12)

    def test_trace_oracle(self):
        m = random_povm(2, 3, seed=2)
        rho = linalg.random_density(2, 2, seed=3)
        p = povm_probabilities(m, rho)
        oracle = [np.trace(x @ rho).real for x in m.elements]
        assert np.allclose(p, oracle, atol=1e-12)


class TestPovmFromUnraveling:
    def test_unitary_channel(self):
        m = povm_from_unraveling(Unraveling((linalg.haar_random_unitary(2, 0),)))
        assert np.allclose(m.elements[0], np.eye(2), atol=1e-12)

    def test_depolarizing(self):
        p = 0.6
        m = povm_from_unraveling(depolarizing_unraveling(p))
        weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
        for w, elem in zip(weights, m.elements):
            assert np.allclose(elem, w * np.eye(2), atol=1e-12)

    def test_consistency_with_effect_probabilities(self):
        # both run the one weight kernel on the same Kraus set
        a = random_unraveling(2, 3, seed=4)
        rho = linalg.random_density(2, 2, seed=5)
        assert _same(povm_probabilities(povm_from_unraveling(a), rho), effect_probabilities(a, rho))


class TestGFactor:
    def test_identical_rank1_projectors(self):
        m = z_basis_povm()
        rho = linalg.random_density(2, 2, seed=6)
        assert g_factor(m, m, rho) == pytest.approx(1.0, abs=1e-12)

    def test_zx_hand_values(self):
        m, n = z_basis_povm(), x_basis_povm()
        # on I/2: |tr(M_i N_j rho)| = 1/4, p_i = q_j = 1/2, so every ratio is 1/2
        assert g_factor(m, n, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)
        # on a pure basis state the overlap ratio is the MUB overlap 1/sqrt(2)
        assert g_factor(m, n, _pure([1, 0])) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_symmetry(self):
        m = random_projective_povm(3, seed=7)
        n = random_projective_povm(3, seed=8)
        rho = linalg.random_density(3, 3, seed=9)
        assert g_factor(m, n, rho) == pytest.approx(g_factor(n, m, rho), abs=1e-12)

    def test_at_most_one(self):
        for seed in range(10):
            m = random_povm(2, 3, seed=3 * seed)
            n = random_povm(2, 2, seed=3 * seed + 1)
            rho = linalg.random_density(2, 2, seed=3 * seed + 2)
            assert g_factor(m, n, rho) <= 1 + 1e-10


class TestFFactor:
    def test_pure_state_equals_g(self):
        m = random_projective_povm(3, seed=10)
        n = random_projective_povm(3, seed=11)
        rho = linalg.random_density(3, 1, seed=12)
        assert f_factor(m, n, rho) == pytest.approx(g_factor(m, n, rho), abs=1e-12)

    def test_zx_on_mixed(self):
        assert f_factor(z_basis_povm(), x_basis_povm(), np.eye(2) / 2) == pytest.approx(
            1 / np.sqrt(2), abs=1e-12
        )

    def test_chain(self):
        for dim, seed in [(3, seed) for seed in range(10)] + [(16, 0)]:
            m = random_projective_povm(dim, seed=100 + seed)
            n = random_projective_povm(dim, seed=200 + seed)
            rho = linalg.random_density(dim, dim, seed=300 + seed)
            g = g_factor(m, n, rho)
            f = f_factor(m, n, rho)
            fb = f_bar(m, n)
            assert g <= f + 1e-12
            assert f <= fb + 1e-12
            assert fb <= 1 + 1e-10


class TestFBar:
    def test_commuting_projectors(self):
        assert f_bar(z_basis_povm(), z_basis_povm()) == pytest.approx(1.0, abs=1e-12)

    def test_zx(self):
        assert f_bar(z_basis_povm(), x_basis_povm()) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_dft_bases(self):
        for d in (2, 3, 5):
            u = dft_matrix(d)
            comp = Povm(tuple(np.diag(np.eye(d)[k]).astype(complex) for k in range(d)))
            four = Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(d)))
            assert f_bar(comp, four) == pytest.approx(1 / np.sqrt(d), abs=1e-12)


@st.composite
def _rank_one_pair_and_state(draw):
    dim = draw(st.integers(1, 6))
    seed = st.integers(0, 2**32 - 1)

    def povm():
        if draw(st.booleans()):
            return random_projective_povm(dim, draw(seed))
        # n > dim outcomes M_i = v_i v_i†, v_i† the rows of a Haar isometry C^dim -> C^n
        v = linalg.positive_qr(linalg.ginibre(np.random.default_rng(draw(seed)), dim + draw(st.integers(1, 4)), dim))
        return Povm(v.conj()[:, :, None] * v[:, None, :])

    m, n = povm(), povm()
    return m, n, linalg.random_density(dim, draw(st.integers(1, dim)), draw(seed))


def _admissible_pairs(m, n, rho) -> set:
    """Loop oracle: the (i, j) with weights above P_ZERO_TOL on one kept eigenvector of rho."""
    w, v = np.linalg.eigh(rho)
    pairs = set()
    for psi in v[:, w > bounds.P_ZERO_TOL].T:
        p = [np.vdot(psi, x @ psi).real for x in m.elements]
        q = [np.vdot(psi, y @ psi).real for y in n.elements]
        pairs |= {(i, j) for i, pi in enumerate(p) for j, qj in enumerate(q) if min(pi, qj) > bounds.P_ZERO_TOL}
    return pairs


class TestRankOneOverlaps:
    """For rank-one elements f and f_bar are maxima of one |u_i† w_j| array, f over
    the admissible pairs only, so f <= f_bar holds with no rounding slack."""

    @given(_rank_one_pair_and_state())
    @settings(max_examples=150, deadline=None)
    def test_f_never_exceeds_f_bar(self, case):
        m, n, rho = case
        assert m.roots.shape[-1] == n.roots.shape[-1] == 1
        f, fb = f_factor(m, n, rho), f_bar(m, n)
        assert f <= fb
        if len(_admissible_pairs(m, n, linalg.check_density(rho)[0])) == m.roots.shape[-3] * n.roots.shape[-3]:
            assert f == fb

    def test_f_equals_f_bar_when_every_pair_is_admissible(self):
        # at I/d every weight |u_i† e_k|^2 of a Haar basis is nonzero
        for d in (2, 16, 64):
            m, n = random_projective_povm(d, 1), random_projective_povm(d, 2)
            assert f_factor(m, n, np.eye(d) / d) == f_bar(m, n)


def _f_bar_loop(m, n):
    """Reference f-bar: a dense square root per element, one SVD per outcome pair."""
    roots_m = [psd_sqrt(x) for x in m.elements]
    roots_n = [psd_sqrt(y) for y in n.elements]
    return max(np.linalg.norm(a @ b, 2) for a in roots_m for b in roots_n)


def _g_loop(m, n, rho):
    """Reference g: one outcome pair at a time."""
    best = -np.inf
    for x in m.elements:
        for y in n.elements:
            p, q = np.trace(x @ rho).real, np.trace(y @ rho).real
            if p > bounds.P_ZERO_TOL and q > bounds.P_ZERO_TOL:
                best = max(best, abs(np.trace(x @ y @ rho)) / np.sqrt(p * q))
    return best


def _f_loop(m, n, rho):
    """Reference f: one eigenvector of rho and one outcome pair at a time."""
    w, v = np.linalg.eigh(rho)
    best = -np.inf
    for k in np.flatnonzero(w > bounds.P_ZERO_TOL):
        psi = v[:, k]
        for x in m.elements:
            for y in n.elements:
                p, q = np.vdot(psi, x @ psi).real, np.vdot(psi, y @ psi).real
                if p > bounds.P_ZERO_TOL and q > bounds.P_ZERO_TOL:
                    best = max(best, abs(np.vdot(psi, x @ y @ psi)) / np.sqrt(p * q))
    return best


def _kraus_set_with_zeros(dim, dim_out, n_ops, n_zero, seed) -> Unraveling:
    """Rectangular Kraus set: the dim_out x dim blocks of a Haar-random isometry
    C^dim -> C^(n_ops dim_out), with n_zero zero operators shuffled in."""
    rng = np.random.default_rng(seed)
    blocks = linalg.positive_qr(linalg.ginibre(rng, n_ops * dim_out, dim)).reshape(n_ops, dim_out, dim)
    ops = np.concatenate([blocks, np.zeros((n_zero, dim_out, dim))])
    return Unraveling(ops[rng.permutation(len(ops))])


@st.composite
def _povm_pair_and_state(draw):
    dim = draw(st.integers(1, 5))
    seed = st.integers(0, 2**32 - 1)

    def povm():
        kinds = ["general", "projective", "coarse", "zero_element", "haar_basis", "kraus"]
        kind = draw(st.sampled_from(kinds))
        if kind == "general":
            return random_povm(dim, draw(st.integers(1, 4)), draw(seed))
        if kind == "haar_basis":
            return random_projective_povm(dim, draw(seed))
        if kind == "kraus":
            dim_out = draw(st.integers(1, 5).filter(lambda k: k != dim))
            n_ops = -(-dim // dim_out) + draw(st.integers(0, 2))  # an isometry needs n_ops * dim_out >= dim
            a = _kraus_set_with_zeros(dim, dim_out, n_ops, draw(st.integers(0, 2)), draw(seed))
            return povm_from_unraveling(a)
        rank1 = random_projective_povm(dim, draw(seed)).elements
        if kind == "projective":
            return Povm(rank1)
        if kind == "coarse":
            # projectors of unequal rank: the first two basis vectors share one outcome
            return Povm(np.concatenate([rank1[:2].sum(axis=0, keepdims=True), rank1[2:]]))
        return Povm(np.concatenate([rank1, np.zeros((1, dim, dim))]))

    m, n = povm(), povm()
    state = draw(st.sampled_from(["rank1", "uniform", "rank_deficient"]))
    if state == "uniform":
        rho = np.eye(dim) / dim
    else:
        rank = 1 if state == "rank1" else draw(st.integers(1, max(1, dim - 1)))
        rho = linalg.random_density(dim, rank, draw(seed))
    return m, n, rho


class TestBatchedFactorsMatchLoops:
    @given(_povm_pair_and_state())
    @settings(max_examples=200, deadline=None)
    def test_against_loop_oracle(self, case):
        m, n, rho = case
        assert abs(f_bar(m, n) - _f_bar_loop(m, n)) <= 1e-12
        for x in (m, n):
            assert np.abs(x.roots @ x.roots.conj().swapaxes(1, 2) - x.elements).max() <= 1e-12
        rho = linalg.check_density(rho)[0]
        assert abs(g_factor(m, n, rho) - _g_loop(m, n, rho)) <= 1e-12
        assert abs(f_factor(m, n, rho) - _f_loop(m, n, rho)) <= 1e-12

    def test_no_admissible_pair_raises(self):
        # Povm's validation rejects a set with all-zero probabilities, so build one around it
        zero = object.__new__(Povm)
        object.__setattr__(zero, "elements", np.zeros((2, 2, 2), complex))
        object.__setattr__(zero, "roots", np.zeros((2, 2, 1), complex))
        for factor in (g_factor, f_factor):
            with pytest.raises(ValueError, match="degenerate"):
                factor(zero, z_basis_povm(), np.eye(2) / 2)
            with pytest.raises(ValueError, match="degenerate"):
                factor(z_basis_povm(), zero, np.eye(2) / 2)

    def test_f_bar_memory_is_linear_in_outcomes(self):
        # one stack of pair products would hold n^2 d^2 = 2^24 complex entries, 268 MB
        m, n = random_povm(64, 64, seed=70), random_povm(64, 64, seed=71)
        tracemalloc.start()
        try:
            fb = f_bar(m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert 0 < fb <= 1 + 1e-10


def _same(a, b) -> bool:
    """Bit for bit: the same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAxisConvention:
    """The kernels of bounds and ensembles take any leading axes.  Fed a stack with
    two leading axes (T1, T2), each gives, bit for bit, what the public function
    gives for each element, and the public functions give floats."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        dim=st.integers(1, 4),
        rank=st.integers(1, 4),
        kinds=st.tuples(*[st.sampled_from(["projective", "general", "kraus"])] * 2),
        extra=st.integers(0, 2),
        alpha=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.55, 6.0)),
        pure_kind=st.sampled_from(["tsallis", "renyi"]),
        seed=st.integers(0, 10**6),
    )
    def test_two_leading_axes_match_each_instance(
        self, shape, dim, rank, kinds, extra, alpha, pure_kind, seed
    ):
        seeds = [seed + 10 * k for k in range(shape[0] * shape[1])]
        orders, members = conjugate_order(alpha), dim + extra

        def povm(kind, s):
            # each instance held through its roots alone, as the stack of them is
            if kind == "projective":
                return random_projective_povm(dim, s)
            if kind == "general":
                return Povm._factored(random_povm(dim, members, s).roots)
            return povm_from_unraveling(random_unraveling(dim, members, s))

        def stacked(arrays):
            return np.stack(arrays).reshape(*shape, *np.shape(arrays[0]))

        ms, ns = ([povm(kind, s + k) for s in seeds] for k, kind in enumerate(kinds))
        assume(len({p.roots.shape for p in ms}) == len({p.roots.shape for p in ns}) == 1)
        m_stack, n_stack = (Povm._factored(stacked([p.roots for p in ps])) for ps in (ms, ns))
        rhos = stacked([linalg.random_density(dim, min(rank, dim), s + 2) for s in seeds])

        # bounds: the outcome weights, the factors and the reports
        states = linalg.density_spectrum(rhos, vectors=True)
        p = channels._weights(m_stack._kraus, rhos)
        factors = {
            "g": bounds._g(m_stack, n_stack, rhos, p, channels._weights(n_stack._kraus, rhos)),
            "f": bounds._f(m_stack, n_stack, *states[1:]),
            "fbar": bounds._f_bar(m_stack, n_stack),
        }
        steps = {k: bounds._factor(m_stack, n_stack, states, k) for k in factors}
        reports = {k: (s[2], bounds._relations(*s, [orders], ("tsallis", "renyi"))) for k, s in steps.items()}
        fields = ("lhs", "rhs", "slack", "factor")
        for t, idx in enumerate(np.ndindex(shape)):
            m, n, rho = ms[t], ns[t], rhos[idx]
            assert _same(povm_probabilities(m, rho), entropy._normalized(p)[idx])
            one = {"g": g_factor(m, n, rho), "f": f_factor(m, n, rho), "fbar": f_bar(m, n)}
            for kind, value in one.items():
                assert type(value) is float and _same(value, factors[kind][idx])
                assert _same(reports[kind][0][idx], value)
                checks = (tsallis_uncertainty_check, renyi_uncertainty_check)
                for report, check in zip(reports[kind][1], checks):
                    want = check(m, n, rho, orders, kind)
                    assert all(type(getattr(want, f)) is float for f in fields)
                    # lhs, rhs and slack lead with an axis over the one order of [orders]
                    got = [getattr(report, f)[0] for f in fields[:3]] + [report.factor]
                    assert all(_same(getattr(want, f), x[idx]) for f, x in zip(fields, got))
        a, b = (random_unraveling(dim, members, seed + k) for k in (5, 6))
        report = extremal_pair_tsallis(a, b, rhos[(0,) * 2], orders)
        assert all(type(getattr(report, f)) is float for f in fields)

        # ensembles: pure members of each state, their bounds, a mixed sandwich, the densities
        _, w, v = states
        unitaries = [linalg.haar_random_unitary(members, s + 3) for s in seeds]
        weights, states = ensembles._pure_members(w, v, stacked(unitaries))
        assume((weights > 0).all())  # ensemble_from_state drops the members of weight 0
        pure_h = ensembles._pure_bounds(weights, states, alpha, pure_kind)
        pure_rho = ensembles._mixture(weights, ensembles._projectors(states))
        raw = np.random.default_rng(seed).dirichlet(np.ones(members), size=shape)
        mix = entropy._normalized(raw)  # as MixedEnsemble holds it
        mixed = stacked([[linalg.random_density(dim, dim, s + 4 + j) for j in range(members)] for s in seeds])
        sandwich = ensembles._sandwich(mix, mixed, np.linalg.eigvalsh(mixed), alpha)
        mixed_rho = ensembles._mixture(mix, mixed)
        for t, idx in enumerate(np.ndindex(shape)):
            e = ensembles.ensemble_from_state(rhos[idx], members, seeds[t] + 3)
            assert _same(e.weights, weights[idx]) and _same(e.states, states[idx])
            result = ensembles.pure_ensemble_bounds_check(e, alpha, pure_kind)
            assert all(type(x) is float and _same(x, h[idx]) for x, h in zip(result[:2], pure_h))
            assert _same(ensembles.ensemble_density(e), pure_rho[idx])
            me = ensembles.MixedEnsemble(raw[idx], mixed[idx])
            result = ensembles.mixed_ensemble_bounds_check(me, alpha)
            assert all(type(x) is float and _same(x, h[idx]) for x, h in zip(result, sandwich))
            assert _same(ensembles.ensemble_density(me), mixed_rho[idx])


class TestLemmaNormInequality:
    def test_norm_chain(self):
        # ||p||_a <= g^(2(1-b)/b) ||q||_b for conjugate orders with 1/2 < b < 1
        for seed in range(20):
            m = random_projective_povm(3, seed=400 + seed)
            n = random_projective_povm(3, seed=500 + seed)
            rho = linalg.random_density(3, 3, seed=600 + seed)
            g = g_factor(m, n, rho)
            p = povm_probabilities(m, rho)
            q = povm_probabilities(n, rho)
            for beta in (0.6, 0.75, 0.9):
                alpha = beta / (2 * beta - 1)
                lhs = np.sum(p**alpha) ** (1 / alpha)
                rhs = g ** (2 * (1 - beta) / beta) * np.sum(q**beta) ** (1 / beta)
                assert lhs <= rhs + 1e-10


class TestTsallisCheck:
    def test_commuting_saturation(self):
        m = z_basis_povm()
        report = tsallis_uncertainty_check(m, m, _pure([1, 0]), conjugate_order(2.0), "fbar")
        assert report.factor == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)

    def test_zx_basis_state_hand_values(self):
        orders = conjugate_order(2.0)
        report = tsallis_uncertainty_check(
            z_basis_povm(), x_basis_povm(), _pure([1, 0]), orders, "fbar"
        )
        # H_2(Z outcome) = 0; H_{2/3}(uniform) = 3(2^(1/3)-1); rhs = ln_2(2) = 0.5
        assert report.lhs == pytest.approx(3 * (2 ** (1 / 3) - 1), abs=1e-12)
        assert report.rhs == pytest.approx(0.5, abs=1e-12)
        assert report.slack >= 0

    def test_random_sweep(self):
        for seed in range(30):
            m = random_projective_povm(2, seed=700 + seed)
            n = random_projective_povm(2, seed=800 + seed)
            rho = linalg.random_density(2, 2, seed=900 + seed)
            for alpha in (1.5, 2.0, 3.0):
                orders = conjugate_order(alpha)
                for kind in ("g", "f", "fbar"):
                    report = tsallis_uncertainty_check(m, n, rho, orders, kind)
                    assert report.slack >= -1e-9

    def test_weaker_factors_give_weaker_bounds(self):
        m = random_projective_povm(3, seed=40)
        n = random_projective_povm(3, seed=41)
        rho = linalg.random_density(3, 3, seed=42)
        orders = conjugate_order(2.0)
        rhs = {
            k: tsallis_uncertainty_check(m, n, rho, orders, k).rhs for k in ("g", "f", "fbar")
        }
        assert rhs["f"] <= rhs["g"] + 1e-12
        assert rhs["fbar"] <= rhs["f"] + 1e-12


def _count_calls(monkeypatch, home, name):
    """Count the calls of home.name through every unravel module that binds it."""
    calls, original = [], getattr(home, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if (key == "unravel" or key.startswith("unravel.")) and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


class TestCheckValidatesOnce:
    def test_one_check_density_per_call(self, monkeypatch):
        # one gate of rho (check_density), one validation (its density_spectrum) and one
        # decomposition, whose eigenvectors the f factor and the ensemble read
        gates = _count_calls(monkeypatch, linalg, "check_density")
        calls = _count_calls(monkeypatch, linalg, "density_spectrum")
        m = random_povm(3, 4, seed=60)
        n = random_projective_povm(3, seed=61)
        rho = linalg.random_density(3, 3, seed=62)
        decomposed = []
        for name in ("eigh", "eigvalsh"):

            def spy(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                decomposed.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        checks = (tsallis_uncertainty_check, renyi_uncertainty_check)
        runs = [(check, (m, n, rho, conjugate_order(2.0), kind), kind == "f") for check in checks for kind in ("g", "f", "fbar")]
        runs += [(g_factor, (m, n, rho), False), (f_factor, (m, n, rho), True)]
        runs += [(entropy.quantum_entropy, (rho, 2.0), False), (ensembles.ensemble_from_state, (rho, 3, 5), True)]
        for function, args, vectors in runs:
            gates.clear()
            calls.clear()
            decomposed.clear()
            function(*args)
            assert (len(gates), len(calls)) == (1, 1)
            assert decomposed == ["eigh" if vectors else "eigvalsh"]

    def test_sweep_trial(self, monkeypatch, capsys):
        # one validation of the stacked states and one uncertainty body per block:
        # trials 0 and then 1-2 make two blocks
        density = _count_calls(monkeypatch, linalg, "density_spectrum")
        g = _count_calls(monkeypatch, bounds, "_g")
        weights = _count_calls(monkeypatch, channels, "_weights")
        blocks_of(monkeypatch, 2)
        assert cli.main(["sweep", "--dim", "3", "--trials", "3", "--seed", "4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 30
        assert (len(density), len(g), len(weights)) == (2, 2, 4)

    def test_sweep_block_validates_each_distribution_stack_once(self, monkeypatch, capsys):
        # per block, each normalized once, for every order: p and q, then the Gram
        # spectra and the remixed distributions; trials 0 and then 1-2 make two blocks
        calls = _count_calls(monkeypatch, entropy, "_normalized")
        blocks_of(monkeypatch, 2)
        argv = ["sweep", "--dim", "2", "--trials", "3", "--alpha-grid", "0.3,0.5,0.7,1,1.5,2,3"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3 * 18
        block = [(2,), (2,), (2,), (100, 2)]
        assert [np.shape(args[0]) for args in calls] == [(t, *shape) for t in (1, 2) for shape in block]

    def test_quantum_entropy_decomposes_rho_once(self, monkeypatch):
        # the entropy reads the spectrum that served the PSD check
        decomposed, original = [], np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            decomposed.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        rho = linalg.random_density(3, 2, seed=68)
        h = entropy.quantum_entropy(rho, 2.0)
        assert decomposed == [(3, 3)]
        assert h == entropy.tsallis_entropy(original(linalg.check_density(rho)[0]), 2.0)
        with pytest.raises(ValueError, match=r"rho must be one matrix, got shape \(2, 3, 3\)"):
            entropy.quantum_entropy(np.stack([rho, rho]), 2.0)

    def test_extremal_pair(self, monkeypatch):
        calls = _count_calls(monkeypatch, linalg, "check_density")
        a, b = random_unraveling(3, 2, seed=63), random_unraveling(3, 4, seed=64)
        rho, orders = linalg.random_density(3, 3, seed=65), conjugate_order(2.0)
        extremal_pair_tsallis(a, b, rho, orders)
        assert len(calls) == 1
        extremal_pair_renyi(a, b, rho, orders, SearchConfig(alpha=2.0))
        assert len(calls) == 2

    def test_remixed_sets_are_not_checked_again(self, monkeypatch):
        # the extremal set is a checked set remixed by the Gram eigenvectors, and its POVM has
        # the roots of that set, so no completeness or unitarity check runs
        a, b = random_unraveling(3, 2, seed=63), random_unraveling(3, 4, seed=64)
        rho, orders = linalg.random_density(3, 3, seed=65), conjugate_order(2.0)
        calls = _count_calls(monkeypatch, linalg, "check_identity")
        extremal_unraveling(a, rho)
        assert len(calls) == 0
        extremal_pair_tsallis(a, b, rho, orders)
        assert len(calls) == 0
        extremal_pair_renyi(a, b, rho, orders, SearchConfig(alpha=2.0))
        assert len(calls) == 0

    def test_extremal_pair_at_rank_deficient_state(self):
        # the weights of outcomes with no probability round below 0 here; they raise no
        # RuntimeWarning (an error in this suite) and do not count
        a, b = random_unraveling(2, 3, seed=0), random_unraveling(2, 3, seed=1)
        report = extremal_pair_tsallis(a, b, linalg.random_density(2, 1, seed=2), conjugate_order(2.0))
        assert report.slack >= -1e-9

    def test_extremal_pair_rejects_dimension_mismatch(self):
        a, b = random_unraveling(2, 2, seed=66), random_unraveling(3, 2, seed=67)
        with pytest.raises(ValueError, match="dimension mismatch"):
            extremal_pair_tsallis(a, b, np.eye(2) / 2, conjugate_order(2.0))

    def test_ensemble_trial(self, monkeypatch, capsys):
        # the state and the four mixed members, each validated once in one stacked call per
        # kind; the bound checks read the spectra of those calls, so beyond them only the two
        # regenerated densities are decomposed
        calls = _count_calls(monkeypatch, linalg, "density_spectrum")
        decomposed = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def spy(a, *args, _name=name, _original=original, **kwargs):
                decomposed.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        argv = ["ensemble", "--dim", "3", "--members", "4", "--alpha", "2", "--trials", "1"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert [np.shape(args[0]) for args in calls] == [(1, 3, 3), (1, 4, 3, 3)]
        assert sorted(decomposed) == [("eigh", (1, 3, 3)), ("eigvalsh", (1, 3, 3)), ("eigvalsh", (1, 3, 3)), ("eigvalsh", (1, 4, 3, 3))]


class TestRenyiCheck:
    def test_commuting_trivial(self):
        m = z_basis_povm()
        report = renyi_uncertainty_check(m, m, _pure([1, 0]), conjugate_order(2.0), "fbar")
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.slack >= -1e-12

    def test_zx_shannon_limit_hand_values(self):
        orders = conjugate_order(1.0)
        report = renyi_uncertainty_check(
            z_basis_povm(), x_basis_povm(), np.eye(2) / 2, orders, "fbar"
        )
        assert report.lhs == pytest.approx(2 * np.log(2), abs=1e-12)
        assert report.rhs == pytest.approx(np.log(2), abs=1e-12)
        assert report.slack == pytest.approx(np.log(2), abs=1e-12)

    def test_g_stronger_than_f_on_impure(self):
        stronger = 0
        total = 0
        for seed in range(20):
            m = random_projective_povm(2, seed=1000 + seed)
            n = random_projective_povm(2, seed=1100 + seed)
            rho = linalg.random_density(2, 2, seed=1200 + seed)
            orders = conjugate_order(2.0)
            rg = renyi_uncertainty_check(m, n, rho, orders, "g")
            rf = renyi_uncertainty_check(m, n, rho, orders, "f")
            assert rg.slack >= -1e-9 and rf.slack >= -1e-9
            total += 1
            if rg.rhs > rf.rhs:
                stronger += 1
        assert stronger >= 0.95 * total


class TestPhiMin:
    def test_gamma_one(self):
        analytic, numeric = phi_min_verify(PhiProblem(1.0, 2.0))
        assert analytic == 0.0
        assert numeric == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        problem = PhiProblem(2.0, 2.0)
        assert problem.xi0 == pytest.approx(1 / 8)
        analytic, numeric = phi_min_verify(problem)
        assert analytic == pytest.approx(7 / 8)
        assert numeric >= analytic - 1e-6
        assert numeric == pytest.approx(analytic, abs=1e-12)

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            PhiProblem(0.9, 2.0)

    def test_overflow_to_inf_never_wins(self):
        # phi is +inf near zeta = gamma = 1e308, with no RuntimeWarning (which the suite raises)
        assert phi_min_verify(PhiProblem(1e308, 2.0)) == (1.0, 1.0)

    @staticmethod
    def _zeta(problem, xi):
        # the edge at float64 arrays of xi, as phi_min_verify computes it
        return np.maximum(1.0, problem.gamma * np.asarray(xi) ** (problem.beta / problem.alpha))

    def _last_flat(self, problem, width=1 << 16):
        # the last float xi in [0, 1] with zeta = 1, walked to from xi0 over windows of
        # consecutive floats, each of which np.nextafter steps from its predecessor
        x, one = problem.xi0, int(np.float64(1.0).view(np.int64))
        up = bool(self._zeta(problem, [x])[0] == 1.0)
        while True:
            start = int(np.float64(x).view(np.int64))
            lo, hi = (start, min(start + width, one + 1)) if up else (max(start + 1 - width, 0), start + 1)
            xs = np.arange(lo, hi).view(np.float64)
            assert np.array_equal(np.nextafter(xs[:-1], np.inf), xs[1:])
            flats = self._zeta(problem, xs) == 1.0
            assert np.all(flats[:-1] >= flats[1:])  # flat, then rising
            if (not flats[-1] or xs[-1] == 1.0) if up else flats[0]:
                return xs[np.flatnonzero(flats)[-1]]
            x = xs[-1] if up else xs[0]

    @staticmethod
    def _rounding(problem, zeta):
        # zeta's rounding, as it moves phi
        return np.spacing(zeta) / (1.0 - problem.beta)

    _edge = given(
        gamma=st.one_of(st.sampled_from([1.0, 1.0 + 2.0**-52, 1.0 + 1e-9, 1.0001, 1e308]), st.floats(1.0, 1e308)),
        alpha=st.one_of(st.sampled_from([1.0001, 1e6]), st.floats(1.0001, 1e6)),
    )

    @settings(max_examples=100, deadline=None)
    @_edge
    @example(gamma=1.0000000000108866, alpha=98786.467276984)
    def test_edge_minimum_is_phi_at_the_last_flat_float(self, gamma, alpha):
        # bit for bit min phi at the last flat float, the next float and xi = 1
        problem = PhiProblem(gamma, alpha)
        x = self._last_flat(problem)
        xi = np.array([x, min(np.nextafter(x, np.inf), 1.0), 1.0])
        assert phi_min_verify(problem)[1] == float(problem.phi(xi, self._zeta(problem, xi)).min())

    @settings(max_examples=100, deadline=None)
    @_edge
    @example(gamma=1.0000000000108866, alpha=98786.467276984)
    def test_edge_minimum_is_below_a_dense_sweep(self, gamma, alpha):
        # no point of a dense np.linspace of the edge is lower, beyond zeta's rounding
        problem = PhiProblem(gamma, alpha)
        xi = np.linspace(0.0, 1.0, 100_001)
        zeta = self._zeta(problem, xi)
        assert np.all(phi_min_verify(problem)[1] <= problem.phi(xi, zeta) + self._rounding(problem, zeta))

    @settings(max_examples=100, deadline=None)
    @_edge
    @example(gamma=1.0000000000108866, alpha=98786.467276984)
    def test_edge_minimum_is_not_below_the_closed_form(self, gamma, alpha):
        # phi is least at (xi0, 1); the edge minimum is not lower, beyond zeta's rounding
        problem = PhiProblem(gamma, alpha)
        analytic, numeric = phi_min_verify(problem)
        assert numeric >= analytic - self._rounding(problem, 1.0)

    def test_workload_case_against_the_full_edge(self):
        # phi-min --gamma 2 --alpha 2: exactly 7/8 at the last flat float, and no lower than
        # any of the 2000^2 points of np.linspace(0, 1, 2000^2), taken in slices
        problem = PhiProblem(2.0, 2.0)
        analytic, numeric = phi_min_verify(problem)
        assert numeric == analytic == 7 / 8
        xi = np.linspace(0.0, 1.0, 2000 * 2000)
        for start in range(0, xi.size, 1 << 18):
            x = xi[start : start + (1 << 18)]
            assert numeric <= problem.phi(x, self._zeta(problem, x)).min()

    def test_edge_where_phi_rises_below_rounding(self):
        # gamma - 1 ~ 1e-11 and alpha ~ 1e5: past the last flat float phi rises from one float
        # to the next by less than zeta's rounding, so a later float sits lower, by less than that
        problem = PhiProblem(1.0000000000108866, 98786.467276984)
        x = self._last_flat(problem)
        numeric = phi_min_verify(problem)[1]
        assert numeric == problem.phi(x, 1.0)
        xs = np.nextafter(x, np.inf) + np.arange(2_000_000) * np.spacing(x)  # the next floats, all in x's binade
        phi = problem.phi(xs, self._zeta(problem, xs)).min()
        assert phi < numeric <= phi + self._rounding(problem, 1.0)

    def test_phi_evaluates_a_few_points(self, monkeypatch):
        # at most three edge points, out of the ~4.6e18 floats of [0, 1]
        sizes, phi = [], PhiProblem.phi
        monkeypatch.setattr(PhiProblem, "phi", lambda self, xi, zeta: sizes.append(np.size(xi)) or phi(self, xi, zeta))
        for gamma, alpha in ((2.0, 2.0), (1.0, 1.5), (1e308, 2.0), (1.0001, 1e6)):
            sizes.clear()
            phi_min_verify(PhiProblem(gamma, alpha))
            assert sum(sizes) <= 3

    def test_partial_derivative_signs(self):
        problem = PhiProblem(1.5, 2.0)
        rng = np.random.default_rng(0)
        eps = 1e-6
        count = 0
        while count < 100:
            xi = rng.uniform(0.05, 0.95)
            zeta = rng.uniform(1.05, problem.gamma - 0.05)
            if zeta < problem.gamma * xi ** (problem.beta / problem.alpha) + 0.01:
                continue
            dphi_dxi = (problem.phi(xi + eps, zeta) - problem.phi(xi - eps, zeta)) / (2 * eps)
            dphi_dzeta = (problem.phi(xi, zeta + eps) - problem.phi(xi, zeta - eps)) / (2 * eps)
            assert dphi_dxi < 0
            assert dphi_dzeta > 0
            count += 1

    def test_curve_derivative_positive(self):
        # d/dxi of phi along the constraint curve is positive on (xi0, 1]
        problem = PhiProblem(2.0, 2.0)
        a, b, xi0 = problem.alpha, problem.beta, problem.xi0
        xi = np.linspace(xi0 * 1.001, 1.0, 500)
        deriv = ((xi / xi0) ** (b / a) / xi - 1.0) / (a - 1.0)
        assert np.all(deriv > 0)


class TestBoundReportConsistency:
    def test_tsallis_matches_manual_assembly(self):
        m = random_projective_povm(2, seed=50)
        n = random_projective_povm(2, seed=51)
        rho = linalg.random_density(2, 2, seed=52)
        orders = conjugate_order(1.5)
        report = tsallis_uncertainty_check(m, n, rho, orders, "g")
        lhs = tsallis_entropy(povm_probabilities(m, rho), 1.5) + tsallis_entropy(
            povm_probabilities(n, rho), orders.beta
        )
        assert report.lhs == pytest.approx(lhs, abs=1e-12)
        assert report.rhs == pytest.approx(alpha_log(report.factor**-2, orders.mu), abs=1e-12)
        assert report.slack == pytest.approx(report.lhs - report.rhs, abs=1e-12)


class TestSearchConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SearchConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            SearchConfig(alpha=3.0, restarts=0)


class TestExtremalPairTsallis:
    def test_unitary_pair(self):
        a = Unraveling((linalg.haar_random_unitary(2, 60),))
        report = extremal_pair_tsallis(a, a, np.eye(2) / 2, conjugate_order(2.0))
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.factor == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)

    def test_zx_measurement_channels(self):
        a = measurement_channel(z_basis_povm())
        b = measurement_channel(x_basis_povm())
        orders = conjugate_order(2.0)
        report = extremal_pair_tsallis(a, b, np.eye(2) / 2, orders)
        # both sides measure uniformly on I/2
        assert report.lhs == pytest.approx(0.5 + 3 * (2 ** (1 / 3) - 1), abs=1e-10)
        assert report.slack >= -1e-9

    def test_random_pairs(self):
        for seed in range(10):
            a = random_unraveling(2, 2, seed=70 + seed)
            b = random_unraveling(2, 3, seed=80 + seed)
            rho = linalg.random_density(2, 2, seed=90 + seed)
            for alpha in (1.5, 2.0, 3.0):
                report = extremal_pair_tsallis(a, b, rho, conjugate_order(alpha))
                assert report.slack >= -1e-9


class TestExtremalPairRenyi:
    def test_unitary_pair(self):
        a = Unraveling((linalg.haar_random_unitary(2, 61),))
        cfg = SearchConfig(alpha=2.0, restarts=2, iterations=10)
        report = extremal_pair_renyi(a, a, np.eye(2) / 2, conjugate_order(2.0), cfg)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)

    def test_zx_measurement_channels(self):
        a = measurement_channel(z_basis_povm())
        b = measurement_channel(x_basis_povm())
        cfg = SearchConfig(alpha=2.0, restarts=3, iterations=50)
        report = extremal_pair_renyi(a, b, np.eye(2) / 2, conjugate_order(2.0), cfg)
        assert report.lhs == pytest.approx(2 * np.log(2), abs=1e-10)
        assert report.slack >= -1e-9

    def test_alpha_below_one_rejected(self):
        a = depolarizing_unraveling(0.5)
        cfg = SearchConfig(alpha=2.0, restarts=2, iterations=10)
        with pytest.raises(ValueError):
            extremal_pair_renyi(a, a, np.eye(2) / 2, conjugate_order(0.7), cfg)

    def test_random_pairs(self):
        cfg = SearchConfig(alpha=2.0, restarts=3, iterations=60, seed=7)
        for seed in range(5):
            a = random_unraveling(2, 3, seed=110 + seed)
            b = random_unraveling(2, 2, seed=120 + seed)
            rho = linalg.random_density(2, 2, seed=130 + seed)
            report = extremal_pair_renyi(a, b, rho, conjugate_order(2.0), cfg)
            assert report.slack >= -1e-9
