import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdephase import kernels, matcore, measures
from qdephase.channel import ChannelParams, decoherence_factor, kraus_factor
from qdephase.cli import build_record
from qdephase.errors import InvalidState, NotHermitian, NotPSD
from qdephase.states import (
    family_norm,
    family_state,
    initial_pure,
    maximally_mixed,
    mixed_reference,
)
from reference import (BELL, SY2, family, linear_entropy_closed,
                       pure_ref_measure_family, random_density)


class TestLinearEntropy:
    def test_pure_state(self):
        assert measures.linear_entropy(
            initial_pure(0.3)) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        assert measures.linear_entropy(maximally_mixed()) == pytest.approx(1.0, abs=1e-15)

    def test_fully_damped_half(self):
        rho = family(0.5, 0.0)
        assert measures.linear_entropy(rho) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_closed_form_values(self):
        assert linear_entropy_closed(0.5, 0.0) == 0.0
        assert linear_entropy_closed(0.5, 1.0) == pytest.approx(2 / 3, abs=1e-15)
        assert linear_entropy_closed(0.25, 0.5) == pytest.approx(0.12, abs=1e-15)

    def test_closed_vs_spectral_grid(self):
        for eps in np.linspace(0.0, 1.0, 50):
            for gamma in np.linspace(0.0, 1.0, 50):
                rho = family(float(eps), math.sqrt(1 - gamma), phase=0.4)
                diff = abs(measures.linear_entropy(rho)
                           - linear_entropy_closed(float(eps), float(gamma)))
                assert diff < 1e-12


class TestNegativity:
    def test_bell(self):
        assert measures.negativity(BELL) == pytest.approx(1.0, abs=1e-14)

    def test_separable(self):
        assert measures.negativity(maximally_mixed()) == 0.0

    def test_initial_quarter(self):
        assert measures.negativity(initial_pure(0.25)) == pytest.approx(
            0.6, abs=1e-14)

    def test_closed_form(self):
        assert measures.negativity_closed(0.3, 0.0) == 0.0
        assert measures.negativity_closed(0.5, 0.8) == pytest.approx(0.8, abs=1e-15)
        assert measures.negativity_closed(0.25, 0.5) == pytest.approx(0.3, abs=1e-15)

    def test_closed_vs_spectral_grid(self):
        for eps in np.linspace(0.0, 1.0, 50):
            for gamma in np.linspace(0.0, 1.0, 50):
                abs_a = math.sqrt(1 - gamma)
                rho = family(float(eps), abs_a, phase=-0.9)
                diff = abs(measures.negativity(rho)
                           - measures.negativity_closed(float(eps), abs_a))
                assert diff < 1e-12


class TestConcurrence:
    def test_bell(self):
        assert measures.concurrence_wootters(BELL) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        assert measures.concurrence_wootters(initial_pure(0.0)) == 0.0
        assert measures.concurrence_wootters(initial_pure(1.0)) == 0.0

    def test_equals_negativity_on_family(self):
        for eps in np.linspace(0.0, 1.0, 21):
            for abs_a in np.linspace(0.0, 1.0, 21):
                rho = family(float(eps), float(abs_a), phase=0.2)
                assert abs(measures.concurrence_wootters(rho)
                           - measures.negativity(rho)) < 1e-10

    def test_closed_form_against_its_algebra(self):
        # the closed form equals sqrt(Tr rho^2) on this family
        for eps in (0.0, 0.2, 0.5, 0.77):
            for abs_a in (0.0, 0.3, 1.0):
                rho = family(eps, abs_a)
                assert measures.concurrence_family(eps, abs_a) == pytest.approx(
                    math.sqrt(kernels.purity(rho)), abs=1e-14)

    def test_closed_form_half(self):
        for gamma in np.linspace(0.0, 1.0, 11):
            val = measures.concurrence_family(0.5, math.sqrt(1 - gamma))
            assert val == pytest.approx(math.sqrt(1 - gamma / 2), abs=1e-14)
        assert measures.concurrence_family(0.5, 0.0) == pytest.approx(
            math.sqrt(0.5), abs=1e-14)

    def test_documented_disagreement_at_endpoints(self):
        # closed form reports 1 on the pure product endpoints, the spin-flip
        # definition reports 0; both pipelines must hold their value
        assert measures.concurrence_family(0.0, 1.0) == 1.0
        assert measures.concurrence_wootters(initial_pure(0.0)) == 0.0


class TestEof:
    def test_endpoints(self):
        assert measures.eof(1.0) == pytest.approx(1.0, abs=1e-15)
        assert measures.eof(0.0) == 0.0

    def test_half(self):
        assert measures.eof(0.5) == pytest.approx(0.35457890266527003, abs=1e-11)

    def test_monotone(self):
        grid = np.linspace(0.0, 1.0, 1001)
        vals = [measures.eof(float(c)) for c in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            measures.eof(1.2)


class TestFidelity:
    def test_self_fidelity(self):
        for rho in (BELL, maximally_mixed(), family(0.3, 0.6)):
            assert measures.uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_bell_vs_maximally_mixed(self):
        assert measures.uhlmann_fidelity(BELL, maximally_mixed()) == pytest.approx(
            0.25, abs=1e-12)

    def test_commuting_diagonal(self):
        rho = family(0.5, 0.0)
        assert measures.uhlmann_fidelity(rho, maximally_mixed()) == pytest.approx(
            0.5, abs=1e-12)

    def test_symmetry_and_pure_reduction(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            m /= m.trace().real
            rho = family(0.4, 0.7, phase=0.5)
            f1 = measures.uhlmann_fidelity(rho, m)
            f2 = measures.uhlmann_fidelity(m, rho)
            assert abs(f1 - f2) < 1e-10
            pure = initial_pure(0.5, 0.9)
            overlap = float(np.trace(pure @ m).real)
            assert abs(measures.uhlmann_fidelity(m, pure) - overlap) < 1e-10


class TestBures:
    def test_identical(self):
        assert measures.bures_distance(BELL, BELL) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pure(self):
        a = initial_pure(0.0)
        b = initial_pure(1.0)
        assert measures.bures_distance(a, b) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_bell_vs_maximally_mixed(self):
        assert measures.bures_distance(BELL, maximally_mixed()) == pytest.approx(
            1.0, abs=1e-12)


class TestRelativeEntropy:
    def test_self_zero(self):
        assert measures.relative_entropy_exact(BELL, BELL) == pytest.approx(
            0.0, abs=1e-14)

    def test_bell_vs_maximally_mixed(self):
        val = measures.relative_entropy_exact(BELL, maximally_mixed())
        assert val == pytest.approx(math.log(4.0), abs=1e-12)

    def test_partially_damped(self):
        # weights land entirely on the (1+|a|)/2 eigenvector
        rho = family(0.5, 0.5)
        val = measures.relative_entropy_exact(BELL, rho)
        assert val == pytest.approx(-math.log(0.75), abs=1e-12)
        assert val == pytest.approx(0.2876820724517809, abs=1e-12)

    def test_support_mismatch(self):
        rho = initial_pure(0.0)
        assert measures.relative_entropy_exact(BELL, rho) == math.inf

    def test_linearized(self):
        assert measures.relative_entropy_linearized(BELL, BELL) == pytest.approx(
            0.0, abs=1e-15)
        assert measures.relative_entropy_linearized(
            maximally_mixed(), BELL) == pytest.approx(0.75, abs=1e-15)

    def test_linearized_below_exact(self):
        for eps in (0.2, 0.5, 0.8):
            for abs_a in (0.1, 0.6, 0.95):
                rho = family(eps, abs_a)
                ref = initial_pure(eps)
                lin = measures.relative_entropy_linearized(rho, ref)
                exact = measures.relative_entropy_exact(ref, rho)
                assert lin <= exact + 1e-12

    def test_requires_pure_reference(self):
        from qdephase.errors import InvalidState
        with pytest.raises(InvalidState):
            measures.relative_entropy_exact(maximally_mixed(), BELL)


def closed_columns(eps, gamma):
    """The fields relation_residuals reads, in closed form, for the family
    state at damping gamma."""
    abs_a = math.sqrt(max(0.0, 1.0 - gamma))
    e_pure = pure_ref_measure_family(eps, abs_a)
    return {"epsilon": eps, "delta12": linear_entropy_closed(eps, gamma),
            "negativity": measures.negativity_closed(eps, abs_a),
            "concurrence_paper": measures.concurrence_family(eps, abs_a),
            "e_pure": e_pure, "er_lin": 1.0 - e_pure}


class TestMonotonicRelations:
    def test_no_damping(self):
        res = measures.relation_residuals(closed_columns(0.3, 0.0))
        assert res["delta12_drop"] == pytest.approx(0.0, abs=1e-15)
        assert res["concurrence_drop"] == pytest.approx(0.0, abs=1e-15)

    def test_half_identity(self):
        # delta12 = (2/3)(1 - N^2) at eps = 1/2
        for gamma in np.linspace(0.0, 1.0, 21):
            res = measures.relation_residuals(closed_columns(0.5, float(gamma)))
            assert abs(res["delta12_drop"]) < 1e-12
            assert abs(res["concurrence_drop"]) < 1e-12

    def test_general_grid(self):
        for eps in np.linspace(0.0, 1.0, 50):
            for gamma in np.linspace(0.0, 1.0, 50):
                res = measures.relation_residuals(closed_columns(float(eps), float(gamma)))
                assert abs(res["delta12_drop"]) < 1e-12
                assert abs(res["concurrence_drop"]) < 1e-12


@settings(max_examples=300, deadline=None)
@given(eps=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
       gamma=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
@example(eps=0.5, gamma=0.37)
def test_relations_hold_off_the_figure_grid(eps, gamma):
    # the paper states its relations for the whole family, not only the
    # figure's epsilons; the _half ones are identities at epsilon = 1/2 only
    res = measures.relation_residuals(closed_columns(eps, gamma))
    for name, residual in res.items():
        if eps == 0.5 or not name.endswith("_half"):
            assert abs(residual) <= measures.RANGE_SLACK, (name, residual)


class TestMixedReferencePartialTranspose:
    def test_always_entangled(self):
        from qdephase.matcore import partial_transpose
        for ntilde in (0.2, 1.0, 4.0):
            pt = partial_transpose(mixed_reference(ntilde))
            low = np.linalg.eigvalsh(pt).min()
            assert low == pytest.approx(-math.exp(-2 * ntilde) / 2, abs=1e-14)
            assert low < 0


def random_pure(rng):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def eig_factor(rho):
    """U = V sqrt(Lambda), rho's factor from its checked eigenpairs; per
    matrix of a stack."""
    return measures._eig_factor(*matcore.psd_eig(rho))


def per_state_measures(rho, sigma_p):
    """The state measures one at a time, through the library's eigen route:
    stacked_measures on U = V sqrt(Lambda) reads rho_u = UU† where these
    read rho, and U's SVD where these read rho's eigenpairs."""
    u = eig_factor(rho)
    rho_u = u @ u.conj().T
    root = np.sqrt(kernels._clip_spectrum(matcore.psd_eig(rho)[0])).sum() / 2.0
    return {
        "delta12": measures.linear_entropy(rho_u),
        "negativity": measures.negativity(rho_u),
        "concurrence_wootters": measures.concurrence_wootters(rho),
        "fidelity_pure": measures.pure_fidelity(rho, sigma_p),
        "e_maxmixed": 1.0 - root,  # ||U||_* = Tr sqrt(rho), from rho's spectrum
        "er_exact": measures.relative_entropy_exact(sigma_p, rho),
        "er_lin": measures.relative_entropy_linearized(rho_u, sigma_p),
    }


# the columns whose stacked value runs the per-state arithmetic; the others
# read U's SVD in place of rho's eigenpairs
SAME_ARITHMETIC = ("delta12", "negativity", "concurrence_wootters", "er_lin")


class TestStackedMeasures:
    def test_matches_per_state_functions(self):
        rng = np.random.default_rng(40)
        rho = [random_density(rng, rank) for rank in (1, 2, 3, 4) for _ in range(6)]
        sigma = [random_pure(rng) for _ in rho]
        # a reference inside a rank-deficient state's support: finite er_exact
        rho.append(family_state(0.3, 0.4))
        sigma.append(initial_pure(0.3))
        u, sigma = eig_factor(np.array(rho)), np.array(sigma)
        got = measures.stacked_measures(u, sigma)
        for k, (r, sp) in enumerate(zip(rho, sigma)):
            one = measures.stacked_measures(u[k], sp)
            for name, value in per_state_measures(r, sp).items():
                assert one[name] == got[name][k], (k, name)
                if name in SAME_ARITHMETIC:
                    assert got[name][k] == value, (k, name)
                elif np.isinf(value):
                    assert np.isinf(got[name][k]), (k, name)
                else:
                    assert abs(got[name][k] - value) <= 1e-14, (k, name)
        assert np.isinf(got["er_exact"][:6]).all()  # pure state, other reference
        assert np.isfinite(got["er_exact"][-1])

    def test_first_failing_state_raises_its_per_state_error(self):
        # a factor's rho = UU† is PSD by construction, so stacked_measures
        # checks the references alone; the eigen route, which reads
        # arbitrary stacks, raises for the first failing state
        rng = np.random.default_rng(41)
        rho = np.array([random_density(rng) for _ in range(4)])
        sigma = np.array([random_pure(rng) for _ in range(4)])
        skewed = rho.copy()
        skewed[2, 0, 1] += 1e-6
        with pytest.raises(NotHermitian, match="^matrix 2 of the stack: "):
            measures.pure_fidelity(skewed, sigma)
        indefinite = skewed.copy()
        indefinite[1] = np.diag([0.5, 0.5 + 1e-6, 0.0, -1e-6])
        with pytest.raises(NotPSD, match="^matrix 1 of the stack: negative eigenvalue -1.000e-06"):
            measures.pure_fidelity(indefinite, sigma)  # state 1 before state 2
        mixed = sigma.copy()
        mixed[3] = np.eye(4) / 4.0
        with pytest.raises(InvalidState, match="must be pure"):
            measures.stacked_measures(eig_factor(rho), mixed)
        # within the tolerances nothing raises
        nearly = rho.copy()
        nearly[0, 0, 1] += 1e-11
        measures.stacked_measures(eig_factor(nearly), sigma)
        measures.pure_fidelity(nearly, sigma)


class TestStackedErrorsNameTheirMatrix:
    """An error on a stack names its first failing matrix; on one matrix, none."""

    def test_not_psd(self):
        stack = np.array([np.eye(4) / 4.0] * 3, dtype=complex)
        stack[2] = np.diag([1.0, 0.5, 0.0, -0.5])
        with pytest.raises(NotPSD) as info:
            matcore.psd_eig(stack)
        assert str(info.value) == ("matrix 2 of the stack: negative eigenvalue -5.000e-01 "
                                   "below -1.0e-09")
        with pytest.raises(NotPSD, match="^negative eigenvalue -5.000e-01"):
            matcore.psd_eig(stack[2])

    def test_not_hermitian(self):
        stack = np.array([np.eye(4) / 4.0] * 3, dtype=complex)
        stack[1, 0, 2] = 1e-6
        with pytest.raises(NotHermitian) as info:
            matcore.psd_eig(stack)
        assert str(info.value) == ("matrix 1 of the stack: hermiticity defect 1.000e-06 "
                                   "exceeds 1.0e-10")
        with pytest.raises(NotHermitian, match="^hermiticity defect 1.000e-06"):
            matcore.psd_eig(stack[1])

    def test_impure_reference(self):
        sigma = np.array([BELL] * 3)
        sigma[2] = np.eye(4) / 4.0
        with pytest.raises(InvalidState) as info:
            measures.pure_fidelity(BELL, sigma)
        assert info.value.diagnostics == [
            "matrix 2 of the stack: reference must be pure, Tr sigma^2 = 0.250000"]
        with pytest.raises(InvalidState, match="^reference must be pure"):
            measures.pure_fidelity(BELL, sigma[2])


class TestStackedMeasuresShareOneRoot:
    def test_bad_state_raises_before_an_earlier_impure_reference(self):
        rng = np.random.default_rng(42)
        rho = np.array([random_density(rng) for _ in range(4)])
        sigma = np.array([random_pure(rng) for _ in range(4)])
        sigma[0] = np.diag([0.5, 0.5, 0.0, 0.0])
        sigma[2] = np.eye(4) / 4.0
        with pytest.raises(InvalidState, match="Tr sigma\\^2 = 0.500000"):
            measures.stacked_measures(eig_factor(rho), sigma)  # the first impure one
        rho[3] = np.diag([0.5, 0.5 + 1e-6, 0.0, -1e-6])
        with pytest.raises(NotPSD, match="-1.000e-06"):
            measures.pure_fidelity(rho, sigma)

    @staticmethod
    def count_lapack(monkeypatch, names=("eigh", "svd", "eigvalsh", "eig", "eigvals")):
        calls = []
        for name in names:
            def counting(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
                calls.append((_name, args[0].shape))
                return _f(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    def test_one_eigh_per_stack(self, monkeypatch):
        # the eigen route, for arbitrary states: one eigh per call, whether
        # it reads one state or a stack
        rng = np.random.default_rng(43)
        rho = np.array([random_density(rng, rank) for rank in (1, 2, 3, 4)])
        sigma = np.array([random_pure(rng) for _ in rho])
        calls = self.count_lapack(monkeypatch)
        measures.concurrence_wootters(rho)
        measures.pure_fidelity(rho, sigma)
        assert [shape for name, shape in calls if name == "eigh"] == [(4, 4, 4)] * 2
        calls.clear()
        measures.concurrence_wootters(rho[0])
        measures.pure_fidelity(rho[0], sigma[0])
        assert measures.relative_entropy_exact(sigma[0], rho[0]) == math.inf
        assert [shape for name, shape in calls if name == "eigh"] == [(4, 4)] * 3
        # the Uhlmann fidelity: each state's eigenpairs, then ||U†W||_1
        calls.clear()
        measures.uhlmann_fidelity(rho[0], sigma[0])
        assert calls == [("eigh", (4, 4)), ("eigh", (4, 4)), ("svd", (4, 4))]

    def test_rank2_stack_takes_no_svd_and_one_eigvalsh(self, monkeypatch):
        # the sweep's route: one Jacobi rotation of the Kraus factor U (the
        # spectrum and the support) and of tau (the concurrence), eigvalsh of
        # the partial transpose of UU†; no SVD, no eigensolve of rho and no
        # PSD root. A factor with k != 2 columns takes the two SVDs instead
        c = ChannelParams(1.0, 1.0, 0.5, 0.5, 1.0)
        dec = decoherence_factor(c, np.linspace(0.0, c.period, 7))
        u = kraus_factor(0.26, dec.a, dec.gamma)
        sigma = np.array([initial_pure(0.26, p) for p in dec.phase])
        rank4 = eig_factor(np.array([random_density(np.random.default_rng(k))
                                     for k in range(7)]))
        calls = self.count_lapack(monkeypatch)
        for name in ("psd_sqrt_with_min", "sqrt_fidelity"):
            def forbidden(*args, _name=name):
                raise AssertionError(f"kernels.{_name} called")

            monkeypatch.setattr(kernels, name, forbidden)
        measures.stacked_measures(u, sigma)
        assert calls == [("eigvalsh", (7, 4, 4))]
        calls.clear()
        measures.stacked_measures(rank4, sigma)
        assert sorted(calls) == [("eigvalsh", (7, 4, 4)), ("svd", (7, 4, 4)),
                                 ("svd", (7, 4, 4))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_e_maxmixed_matches_the_general_fidelity(seed, rank):
    # 1 - ||U||_*/2 from the factor U = V sqrt(Lambda) against the Uhlmann
    # fidelity ||U†W||_1^2, W the factor of I/4 from an eigensolve of its
    # own, compared as fidelities. Each route's eigenvalues carry an
    # absolute rounding of a few eps, which the square root turns into
    # ~eps / sqrt(lambda): a state with an eigenvalue near 1e-6 (about 3 in
    # 10^4 random rank-4 states) can differ by ~4e-14.
    rho = random_density(np.random.default_rng(seed), rank)
    w = matcore.psd_eig(rho)[0]
    smallest = w[w > kernels.NOISE_FLOOR_REL * w[-1]].min()
    tol = 1e-14 + 4.0 * np.finfo(float).eps / math.sqrt(smallest)
    e = measures.stacked_measures(eig_factor(rho), BELL)["e_maxmixed"]
    assert abs((1.0 - e) ** 2 - measures.uhlmann_fidelity(rho, maximally_mixed())) <= tol


def root_route_fidelity(rho, sigma):
    # {Tr sqrt(sqrt(rho) sigma sqrt(rho))}^2 from the PSD root and an
    # eigensolve of sqrt(rho) sigma sqrt(rho): the route the factor route
    # replaced, kept as its reference
    val = kernels.sqrt_fidelity(matcore.psd_sqrt(rho), sigma)
    return min(1.0, val * val)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_uhlmann_fidelity_matches_the_root_route(seed, rank_rho, rank_sigma):
    # both routes clip each spectrum at the same floor; the root route's
    # eigenvalues of sqrt(rho) sigma sqrt(rho) carry an absolute rounding of
    # a few eps, which the square root turns into ~eps / sqrt(lambda). Over
    # 12000 seeded pairs the routes differ by at most 1.7e-14, and by at
    # most 1.7 eps / sqrt(lambda) beyond 1e-14.
    rng = np.random.default_rng(seed)
    rho, sigma = random_density(rng, rank_rho), random_density(rng, rank_sigma)
    smallest = min(w[w > kernels.NOISE_FLOOR_REL * w[-1]].min()
                   for w in (matcore.psd_eig(rho)[0], matcore.psd_eig(sigma)[0]))
    tol = 1e-14 + 4.0 * np.finfo(float).eps / math.sqrt(smallest)
    assert abs(measures.uhlmann_fidelity(rho, sigma) - root_route_fidelity(rho, sigma)) <= tol


def sqrt_route_concurrence(rho):
    # the spin-flip SVD of sqrt(rho) (sy x sy) conj(sqrt(rho)), from the PSD
    # root: the route the eigenpair route replaced, kept as its reference
    s = matcore.psd_sqrt(rho)
    roots = np.linalg.svd(s @ SY2 @ s.conj(), compute_uv=False)
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def jacobi_input(kind, seed, n, m):
    """(n, m, 2) complex matrices of one kind: random, a zero column, both
    columns zero, parallel columns, columns with one nonzero row (the
    sweep's product endpoints) or orthogonal columns of equal norm."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m, 2)) + 1j * rng.standard_normal((n, m, 2))
    if kind == "zero column":
        x[..., seed % 2] = 0.0
    elif kind == "zero":
        x[...] = 0.0
    elif kind == "parallel":
        x[..., 1] = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))) * x[..., 0]
    elif kind == "one row":
        x[..., :m - 1, :] = 0.0
    elif kind == "orthogonal, equal norms":  # a†b = 0 and |a| = |b| exactly
        x[..., 2:, :] = 0.0
        x[..., 0, 1], x[..., 1, 1] = -x[..., 1, 0].conj(), x[..., 0, 0].conj()
    return x


def assert_jacobi_meets_svd(x, basis, s, tol=1e-13):
    # s the singular values to tol of the largest, descending to rounding;
    # the basis columns orthonormal where s > 0 and 0 where s = 0, and
    # x x† = basis s^2 basis†; nothing NaN
    ref = np.linalg.svd(x, compute_uv=False)
    top = ref[..., :1]
    assert np.isfinite(basis).all() and np.isfinite(s).all()
    assert (np.abs(s - ref) <= tol * top).all(), (s, ref)
    assert (s[..., 0] >= s[..., 1] * (1.0 - 1e-15)).all()
    gram = kernels._dagger(basis) @ basis
    nonzero = (s > 0.0).astype(float)
    expect = nonzero[..., :, None] * nonzero[..., None, :] * np.eye(2)
    assert (np.abs(gram - expect) <= tol).all(), gram
    # in units of the largest singular value, so the scale cannot overflow
    unit = np.where(top > 0.0, top, 1.0)[..., None]
    xs, bs = x / unit, basis * (s / unit[..., 0])[..., None, :]
    assert (np.abs(xs @ kernels._dagger(xs) - bs @ kernels._dagger(bs)) <= tol).all()


JACOBI_KINDS = ("random", "zero column", "zero", "parallel", "one row",
                "orthogonal, equal norms")


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(JACOBI_KINDS), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 4), m=st.sampled_from([2, 4]),
       scale=st.sampled_from([1.0, 1e150, 1e-150]))
def test_jacobi2_meets_the_svd(kind, seed, n, m, scale):
    x = scale * jacobi_input(kind, seed, n, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis, s = measures._jacobi2(x)
        norms = measures._jacobi2(x, basis=False)
    assert_jacobi_meets_svd(x, basis, s)
    ref = np.linalg.svd(x, compute_uv=False)
    assert np.isfinite(norms).all()
    assert (np.abs(norms - ref) <= 1e-13 * ref[..., :1]).all()
    # one matrix or a stack, by the same arithmetic
    one_basis, one_s = measures._jacobi2(x[0])
    assert (one_basis == basis[0]).all() and (one_s == s[0]).all()


@settings(max_examples=60, deadline=None)
@given(epsilon=st.floats(1e-3, 1.0 - 1e-3), t=st.floats(2.0, 4.2))
def test_jacobi2_keeps_the_small_singular_value_at_ntilde_5e_324(epsilon, t):
    # gamma is a few subnormal units mid-period, so sigma_2 ~ 1e-162: its square
    # underflows, yet the rotation keeps it to its relative accuracy and its
    # basis column orthonormal. The reference is the 2x2 outer block's
    # sigma_2 = sqrt(pq gamma / lambda_1)
    dec = decoherence_factor(ChannelParams(1.0, 1.0, 0.5, 0.5, 5e-324), t)
    assert 0.0 < dec.gamma < 1e-320
    u = kraus_factor(epsilon, dec.a, dec.gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis, s = measures._jacobi2(u)
    n = family_norm(epsilon)
    p, q = epsilon**2 / n, (1.0 - epsilon) ** 2 / n
    l1 = (p + q + math.sqrt((p - q) ** 2 + 4.0 * p * q * abs(dec.a) ** 2)) / 2.0
    sigma2 = math.sqrt(p * q / l1) * math.sqrt(dec.gamma)
    assert 1e-170 < s[1] and abs(s[1] - sigma2) <= 1e-13 * sigma2
    assert abs(s[0] - math.sqrt(l1)) <= 1e-15
    assert_jacobi_meets_svd(u, basis, s)
    assert abs(np.vdot(basis[:, 0], basis[:, 1])) <= 1e-15


def test_spin_flip_is_the_matrix_product():
    # tau = a^T (sy x sy) a by the signed row reversal, per matrix of a stack
    rng = np.random.default_rng(45)
    a = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    expect = np.swapaxes(a, -1, -2) @ (SY2 @ a)
    assert np.abs(measures._spin_flip(a) - expect).max() <= 1e-14


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_eigenpair_routes_match_the_root_routes(seed, rank):
    # tau = U^T (sy x sy) U, U = V sqrt(Lambda), has the singular values of
    # sqrt(rho) (sy x sy) conj(sqrt(rho)) = U V^dag (sy x sy) conj(V) U^T, and
    # sum_i lambda_i |<v_i|psi>|^2 is the Uhlmann fidelity to |psi><psi|.
    # Both routes take the same clipped spectrum from the same eigh, so
    # they differ by matmul and SVD rounding alone: at most 1.1e-15 over
    # 3000 seeded draws of each rank, against 1e-14 here.
    rng = np.random.default_rng(seed)
    rho, sigma_p = random_density(rng, rank), random_pure(rng)
    assert abs(measures.concurrence_wootters(rho) - sqrt_route_concurrence(rho)) <= 1e-14
    assert abs(measures.pure_fidelity(rho, sigma_p)
               - measures.uhlmann_fidelity(rho, sigma_p)) <= 1e-14


def test_pure_fidelity_needs_a_pure_reference():
    with pytest.raises(InvalidState, match="must be pure"):
        measures.pure_fidelity(BELL, maximally_mixed())


def werner(p):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0


def assert_ppt_iff_unentangled(rho):
    # two qubits are separable exactly when their partial transpose is PSD
    # (Horodecki), so N = 0 and C = 0 hold together: both within 1e-12 of
    # 0, or both above it
    n, c = measures.negativity(rho), measures.concurrence_wootters(rho)
    assert (n <= 1e-12 and c <= 1e-12) or (n > 0.0 and c > 0.0), (n, c)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_ppt_iff_zero_concurrence_on_random_states(seed, rank):
    assert_ppt_iff_unentangled(random_density(np.random.default_rng(seed), rank))


def weight_outside_support(rho, psi):
    # |<v_i|psi>|^2 summed over the eigenvectors of rho whose eigenvalue the
    # spectrum floor (kernels._clip_spectrum) drops
    w, v = np.linalg.eigh(rho)
    off = w < kernels.NOISE_FLOOR_REL * w[-1]
    return float((np.abs(v[:, off].conj().T @ psi) ** 2).sum())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.none() | st.just(-math.inf) | st.floats(-7.0, -2.0))
def test_measures_in_range_on_random_states(seed, rank, log_leak):
    # log_leak None: a random pure reference. Otherwise a reference in rho's
    # range plus 10**log_leak times a random vector, so that its weight
    # outside rho's support runs from rounding (-inf: no leak) up through
    # SUPPORT_WEIGHT_TOL.
    rng = np.random.default_rng(seed)
    rho = random_density(rng, rank)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    if log_leak is not None:
        inside = rho @ (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        psi = inside / np.linalg.norm(inside) + 10.0 ** log_leak * psi
    psi /= np.linalg.norm(psi)
    sigma_p = np.outer(psi, psi.conj())

    c = measures.concurrence_wootters(rho)
    er_lin = measures.relative_entropy_linearized(rho, sigma_p)
    unit = {"linear_entropy": measures.linear_entropy(rho),
            "negativity": measures.negativity(rho),
            "concurrence_wootters": c,
            "eof": measures.eof(c),
            "pure_fidelity": measures.pure_fidelity(rho, sigma_p),
            "uhlmann_fidelity": measures.uhlmann_fidelity(rho, sigma_p),
            "relative_entropy_linearized": er_lin}
    for name, value in unit.items():
        assert 0.0 <= value <= 1.0, (name, value)
    assert 0.0 <= measures.bures_distance(rho, sigma_p) <= math.sqrt(2.0)

    er = measures.relative_entropy_exact(sigma_p, rho)
    outside = weight_outside_support(rho, psi)
    assert er >= 0.0
    assert math.isinf(er) == (outside >= measures.SUPPORT_WEIGHT_TOL), (outside, er)
    stacked = measures.stacked_measures(eig_factor(rho)[None], sigma_p[None])
    assert 0.0 <= stacked["e_maxmixed"][0] <= 1.0
    assert np.isinf(stacked["er_exact"][0]) == math.isinf(er)
    if not math.isinf(er):
        assert abs(stacked["er_exact"][0] - er) <= 1e-14
    # the sweep's gate, where the reference stays in the support up to
    # rounding or leaves it; a weight outside between the two breaks it (the
    # xfail test below)
    if not 1e-20 < outside < measures.SUPPORT_WEIGHT_TOL:
        assert er_lin <= er + measures.RANGE_SLACK, (er_lin, er, outside)


@pytest.mark.xfail(strict=True, reason="er_exact drops a reference weight below "
                                       "SUPPORT_WEIGHT_TOL outside the support, "
                                       "which er_lin keeps")
def test_er_lin_bounded_by_er_exact_when_the_reference_leaks_under_the_tolerance():
    # rho = |0><0| and psi = sqrt(1 - o)|0> + sqrt(o)|1> with o = 5e-9: -Tr(sigma
    # ln rho) is +inf, er_exact counts o as rounding and gives 0, and
    # er_lin = o
    o = 5e-9
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    psi = np.array([math.sqrt(1.0 - o), math.sqrt(o), 0.0, 0.0], dtype=complex)
    sigma_p = np.outer(psi, psi.conj())
    er = measures.relative_entropy_exact(sigma_p, rho)
    assert measures.relative_entropy_linearized(rho, sigma_p) <= er + measures.RANGE_SLACK


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9))
       | st.floats(-1e-3, 1e-3))
def test_ppt_iff_zero_concurrence_on_werner_states(offset):
    # N = C = max(0, (3p - 1) / 2) across the separability edge p = 1/3
    p = 1.0 / 3.0 + offset
    rho = werner(p)
    assert_ppt_iff_unentangled(rho)
    exact = max(0.0, (3.0 * p - 1.0) / 2.0)
    assert abs(measures.negativity(rho) - exact) <= 1e-14
    assert abs(measures.concurrence_wootters(rho) - exact) <= 1e-14


def test_e_maxmixed_known_values():
    # a pure state, I/4 and an equal mix of two orthogonal pure states, as
    # factors; the last two also as Kraus factors, undamped and fully damped
    eye = np.eye(4, dtype=complex)
    u = np.array([eye * [1.0, 0.0, 0.0, 0.0], eye / 2.0,
                  eye * [0.0, 0.0, 1.0, 1.0] / math.sqrt(2.0)])
    got = measures.stacked_measures(u, np.array([BELL] * 3))["e_maxmixed"]
    assert got == pytest.approx([0.5, 0.0, 1.0 - math.sqrt(0.5)], abs=1e-15)
    kraus = kraus_factor(0.5, [1.0, 0.0], [0.0, 1.0])
    got = measures.stacked_measures(kraus, np.array([BELL] * 2))["e_maxmixed"]
    assert got == pytest.approx([0.5, 1.0 - math.sqrt(0.5)], abs=1e-15)


# the stack-aware functions, each called as f(stack, *references)
STACKED = {
    "psd_sqrt": lambda r, sp: matcore.psd_sqrt(r),
    "linear_entropy": lambda r, sp: measures.linear_entropy(r),
    "negativity": lambda r, sp: measures.negativity(r),
    "concurrence_wootters": lambda r, sp: measures.concurrence_wootters(r),
    "uhlmann_fidelity": lambda r, sp: measures.uhlmann_fidelity(r, sp),
    "pure_fidelity": lambda r, sp: measures.pure_fidelity(r, sp),
    "bures_distance": lambda r, sp: measures.bures_distance(r, sp),
    "fidelity_to_maximally_mixed":
        lambda r, sp: measures.uhlmann_fidelity(r, maximally_mixed()),
    "relative_entropy_linearized":
        lambda r, sp: measures.relative_entropy_linearized(r, sp),
    "_assert_pure": lambda r, sp: measures._assert_pure(sp),
}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_stack_equals_per_matrix_calls(seed, ranks):
    rng = np.random.default_rng(seed)
    rho = np.array([random_density(rng, rank) for rank in ranks])
    sigma = np.array([random_pure(rng) for _ in ranks])
    for name, f in STACKED.items():
        got = f(rho, sigma)
        assert got.shape[0] == len(ranks), name
        for k in range(len(ranks)):
            one = f(rho[k], sigma[k])
            assert np.array_equal(got[k], one), (name, k)
            assert one.ndim == 2 or isinstance(one, float), name


def test_exact_relative_entropy_rejects_an_indefinite_state():
    ket00 = np.diag([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotPSD, match="-1.000e-06"):
        measures.relative_entropy_exact(ket00, np.diag([0.5, 0.5 + 1e-6, 0.0, -1e-6]))


FIELDS = measures.RECORD_DTYPE.names
# real family rows, which pass every check, the cross-route ones and the
# paper's relations included; at epsilon = 1/2 the bound C^2 + (3/2) delta12
# <= 1 is an equality and the _half relations apply
CHANNEL = ChannelParams(omega1=1.0, omega2=1.0, mu1=0.5, mu2=0.5, ntilde=1.0)
CONSISTENT_ROW = dict(zip(FIELDS, build_record(0.5, CHANNEL, 1.5).item()))  # gamma = 0.84
OFF_HALF_ROW = dict(zip(FIELDS, build_record(0.26, CHANNEL, 1.5).item()))
# the product endpoint epsilon = 0: C = 0 = eof, the bound eof <= C met with equality
ENDPOINT_ROW = dict(zip(FIELDS, build_record(0.0, CHANNEL, 1.5).item()))
BAD_VALUES = (math.nan, math.inf, -math.inf, -2e-12, 1.0 + 2e-12, -0.5, 1.5,
              -1e-12, 1.0 + 1e-12, -0.0, 7.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(FIELDS),
                                st.sampled_from(BAD_VALUES) | st.floats(-2.0, 2.0),
                                max_size=3),
                min_size=1, max_size=6))
# gamma a hair below 0 is in range, and no closed form takes its square root
@example([{"epsilon": 0.0, "gamma": -3.1e-170}])
def test_violation_mask_matches_records(overrides):
    base = CONSISTENT_ROW
    rows = [measures.as_table({**base, **o}) for o in overrides]
    mask = measures.violation_mask(np.concatenate(rows))
    assert mask.tolist() == [bool(measures.violations_at(r, 0)) for r in rows]


def broken_checks(row):
    # the diagnostics of a one-row table, without their values
    return [v.split(":")[0] for v in measures.violations_at(measures.as_table(row), 0)]


H, O = CONSISTENT_ROW, OFF_HALF_ROW
DROP = "delta12 breaks the delta12_drop relation"
C_DROP = "concurrence_paper breaks the concurrence_drop relation"
W_PURITY = "delta12 breaks the widetext_purity relation"
W_CONC = "concurrence_paper breaks the widetext_concurrence relation"
PRODUCT = "delta12 breaks the product_half relation"
TRIANGLE = "concurrence_paper breaks the triangular_half relation"
GAMMA = "gamma differs from 1 - |a|^2"
EOF_TWIN = "eof differs from h((1 + sqrt((1-2eps)^2 + 4 eps^2 (1-eps)^2 gamma) / n) / 2)"


# each case is named after the check it targets
@pytest.mark.parametrize("row, field, edge, sign, broken", [
    pytest.param(H, "fidelity_pure", 1.0 - H["er_lin"], 1,
                 ["fidelity_pure differs from 1 - er_lin"], id="fidelity_pure"),
    pytest.param(H, "negativity", H["concurrence_wootters"], 1,
                 ["negativity differs from concurrence_wootters", DROP, C_DROP],
                 id="negativity"),
    pytest.param(H, "abs_a", H["abs_a"], 1,
                 ["concurrence_wootters differs from 2 eps (1-eps) |a| / n", GAMMA],
                 id="closed_concurrence"),
    pytest.param(H, "delta12", (1.0 - H["concurrence_wootters"] ** 2) / 1.5, 1,
                 ["concurrence_wootters breaks C^2 + (3/2) delta12 <= 1",
                  DROP, W_PURITY, PRODUCT], id="c2_delta12_bound"),
    pytest.param(ENDPOINT_ROW, "eof", ENDPOINT_ROW["concurrence_wootters"], 1,
                 ["eof exceeds concurrence_wootters", EOF_TWIN], id="eof"),
    pytest.param(H, "er_exact", H["er_lin"], -1, ["er_lin exceeds er_exact"], id="er_exact"),
    # the relations; off 1/2 the _half ones are not identities, so not checked
    pytest.param(O, "delta12", O["delta12"], 1, [DROP, W_PURITY], id="delta12_drop"),
    pytest.param(O, "concurrence_paper", O["concurrence_paper"], 1, [C_DROP, W_CONC],
                 id="concurrence_drop"),
    pytest.param(O, "e_pure", O["e_pure"], 1, [W_PURITY, W_CONC], id="widetext_purity"),
    pytest.param(O, "er_lin", O["er_lin"], 1,
                 ["fidelity_pure differs from 1 - er_lin", W_PURITY, W_CONC],
                 id="widetext_concurrence"),
    pytest.param(H, "e_pure", H["e_pure"], 1, [W_PURITY, W_CONC, PRODUCT, TRIANGLE],
                 id="product_half"),
    pytest.param(H, "concurrence_paper", H["concurrence_paper"], -1,
                 [C_DROP, W_CONC, TRIANGLE], id="triangular_half"),
    # the closed forms of gamma, e_maxmixed and eof
    pytest.param(O, "gamma", 1.0 - O["abs_a"] ** 2, 1, [GAMMA, EOF_TWIN], id="gamma"),
    pytest.param(H, "e_maxmixed", H["e_maxmixed"], -1,
                 ["e_maxmixed differs from 1 - sqrt(1 + 2 eps (1-eps) sqrt(gamma) / n) / 2"],
                 id="e_maxmixed"),
    pytest.param(O, "eof", O["eof"], -1, [EOF_TWIN], id="eof_closed"),
])
def test_cross_route_checks_name_the_broken_route(row, field, edge, sign, broken):
    # edge puts the row on the identity or bound; RANGE_SLACK / 2.5 off it
    # either way nothing is reported, past it by 10 RANGE_SLACK exactly the
    # checks in broken are, in report order
    def violations(value):
        return broken_checks({**row, field: value})

    assert violations(edge) == []
    assert violations(edge + 0.4e-12) == []
    assert violations(edge - 0.4e-12) == []
    assert violations(edge + sign * 1e-11) == broken


def test_nan_er_exact_is_a_violation():
    rec = measures.as_table({**CONSISTENT_ROW, "er_exact": math.nan})
    assert measures.violations_at(rec, 0) == ["er_exact is nan or negative: nan"]


VALUE_CHECKS = ("is not finite", "is nan or negative", "outside [0, 1]")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FIELDS)
def test_a_non_finite_field_has_one_value_diagnostic(field, value):
    # each field has one value check, and a nan or inf fails it once, named
    # by the field; er_exact = +inf marks a support mismatch and passes
    said = broken_checks({**CONSISTENT_ROW, field: value})
    value_said = [v for v in said if v.endswith(VALUE_CHECKS)]
    if field == "er_exact" and value == math.inf:
        assert value_said == []
    else:
        assert len(value_said) == 1 and value_said[0].startswith(field + " "), said


@pytest.mark.parametrize("field", ["epsilon", "gamma", "abs_a"])
@pytest.mark.parametrize("bound", [0.0, 1.0])
def test_family_domain_field_is_range_checked(field, bound):
    # the domain fields take the measures' range check, which guards every
    # cross-route check that reads them; past [0, 1] by under RANGE_SLACK the
    # range check passes, though a check the row no longer matches may fire
    def range_broken(offset):
        past = bound + (offset if bound else -offset)
        return f"{field} outside [0, 1]" in broken_checks({**CONSISTENT_ROW, field: past})

    assert range_broken(1e-11)
    assert not range_broken(0.4e-12)

