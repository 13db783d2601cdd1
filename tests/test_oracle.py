import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdephase import oracle
from qdephase.channel import ChannelParams

from qdephase.errors import CutoffTooTight, InvalidState
from qdephase.oracle import ReservoirConfig, build_joint, evolve_joint
from qdephase.states import initial_pure
from reference import joint_vector, partial_trace

def resonant_config(ntilde=1.0, modes=3, **kw):
    amp = math.sqrt(ntilde / modes)
    return ReservoirConfig(alphas=(amp,) * modes, omega_ratios=(1.0,) * modes, **kw)

def channel_for(r, mu=0.5, omega=1.0):
    return ChannelParams(omega, omega, mu, mu, r.ntilde)

class TestFockCutoff:
    def test_vacuum(self):
        assert oracle.fock_cutoff(0.0, 1e-10) == 0

    def test_unit_coherent_state(self):
        # Poisson(1) needs 13 states for a 1e-10 tail
        assert oracle.fock_cutoff(1.0, 1e-10) == 12

    def test_monotone_in_tail(self):
        assert oracle.fock_cutoff(1.0, 1e-14) > oracle.fock_cutoff(1.0, 1e-6)

    @staticmethod
    def poisson_cutoff(mean, tail):
        # smallest n whose correctly rounded Poisson CDF reaches 1 - tail
        terms = [math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
                 for k in range(2000)]
        return next(n for n in range(2000) if math.fsum(terms[:n + 1]) >= 1.0 - tail)

    @pytest.mark.parametrize("mean", [1.0, 744.0, 800.0])
    def test_large_mean_matches_fsum_of_log_terms(self, mean):
        # exp(-744) is subnormal and exp(-800) underflows to 0: a start term
        # taken as exp(-mean) would lose the sum
        expect = self.poisson_cutoff(mean, 1e-10)
        assert oracle.fock_cutoff(mean, 1e-10, limit=2000) == expect
        assert mean < 2 or expect > 900

    @pytest.mark.parametrize("mean", [744.0, 800.0])
    def test_large_mean_names_the_hard_limit(self, mean):
        with pytest.raises(CutoffTooTight, match="above the hard limit 64"):
            oracle.fock_cutoff(mean, 1e-10)

class TestBuildJoint:
    def test_vacuum_reservoir(self):
        r = ReservoirConfig(alphas=(0.0, 0.0), omega_ratios=(1.0, 1.0))
        j = build_joint(0.5, r, channel_for(r))
        assert j.sizes == (1, 1)
        assert j.plus[0] == 1.0
        assert j.norm_squared() == pytest.approx(1.0, abs=1e-15)

    def test_norm_deficit_bounded(self):
        r = resonant_config(ntilde=1.0, modes=3)
        j = build_joint(0.3, r, channel_for(r))
        assert 1.0 - j.norm_squared() <= 1e-9
        assert abs(j.norm_squared() - 1.0) <= 10 * 1e-10 * 3

    def test_branch_weights(self):
        r = resonant_config()
        j = build_joint(0.25, r, channel_for(r))
        n = 0.25**2 + 0.75**2
        assert j.weight_plus == pytest.approx(0.25 / math.sqrt(n), abs=1e-15)
        assert j.weight_minus == pytest.approx(0.75 / math.sqrt(n), abs=1e-15)

    def test_arrays_read_only(self):
        r = resonant_config(modes=2)
        j = build_joint(0.5, r, channel_for(r))
        for a in (j.plus, j.minus, j.rate_plus, j.rate_minus):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_hard_cutoff(self):
        # mean occupation 81 needs more than the 64 Fock states a mode may take
        r = ReservoirConfig(alphas=(9.0,), omega_ratios=(1.0,))
        with pytest.raises(CutoffTooTight):
            build_joint(0.5, r, channel_for(r))
        with pytest.raises(CutoffTooTight, match="hard limit 64"):
            oracle.occupation_weights(r)

class TestEvolveJoint:
    def test_identity_at_zero(self):
        r = resonant_config()
        j = build_joint(0.5, r, channel_for(r))
        out = evolve_joint(j, 0.0)
        assert np.array_equal(out.plus, j.plus)
        assert np.array_equal(out.minus, j.minus)

    def test_norm_conserved(self):
        r = resonant_config(ntilde=1.5)
        c = channel_for(r)
        j = build_joint(0.4, r, c)
        base = j.norm_squared()
        for t in np.linspace(0.0, 2 * c.period, 23):
            assert abs(evolve_joint(j, float(t)).norm_squared() - base) < 1e-13

    def test_phases_additive(self):
        r = resonant_config(ntilde=0.8, modes=2)
        c = channel_for(r, mu=0.4)
        j = build_joint(0.3, r, c)
        one = evolve_joint(evolve_joint(j, 0.7), 1.1)
        two = evolve_joint(j, 1.8)
        assert np.abs(one.plus - two.plus).max() < 1e-12
        assert np.abs(one.minus - two.minus).max() < 1e-12

    def test_rates_match_printed_hamiltonian(self):
        # every basis state's branch phase rebuilt from the Hamiltonian term
        # by term: mode energies omega1*ratio_j*(n_j + 1/2), cross-Kerr
        # 2*mu_cross*omega1*sum_{k>j} ratio_k n_k ratio_j n_j, mu12/4, and the
        # branch term +-((omega1 + omega2)/2 + (mu1 + mu2)/2 * sum_j n_j)
        r = ReservoirConfig(alphas=(0.6, 0.4j, 0.3 - 0.2j),
                            omega_ratios=(1.0, 1.37, 0.81),
                            mu_cross=0.23, mu12=0.7)
        c = ChannelParams(omega1=1.1, omega2=0.9, mu1=0.5, mu2=0.3, ntilde=r.ntilde)
        j = build_joint(0.35, r, c)
        occ = np.indices(j.sizes).reshape(len(j.sizes), -1)
        modes = len(j.sizes)
        energy = sum(c.omega1 * r.omega_ratios[m] * (occ[m] + 0.5)
                     for m in range(modes))
        kerr = sum(2.0 * r.mu_cross * c.omega1
                   * r.omega_ratios[k] * occ[k] * r.omega_ratios[m] * occ[m]
                   for m in range(modes) for k in range(m + 1, modes))
        shared = energy + kerr + r.mu12 / 4.0
        branch = (c.omega1 + c.omega2) / 2.0 + (c.mu1 + c.mu2) / 2.0 * occ.sum(axis=0)
        for t in (0.0, 0.37, 1.9, 5.2):
            out = evolve_joint(j, t)
            expect_plus = j.plus * np.exp(-1j * t * (shared + branch))
            expect_minus = j.minus * np.exp(-1j * t * (shared - branch))
            assert np.abs(out.plus - expect_plus).max() <= 1e-12
            assert np.abs(out.minus - expect_minus).max() <= 1e-12

class TestReduceAndCompare:
    def test_initial_state(self):
        r = resonant_config()
        c = channel_for(r)
        j = build_joint(0.3, r, c)
        state, diff, _ = oracle.reduce_and_compare(j, 0.3, c, 0.0)
        assert diff <= 1e-9
        assert np.abs(state - initial_pure(0.3)).max() < 1e-9

    def test_initial_state_tight_tail(self):
        # with the tail pushed to 1e-13 the t=0 residue drops below 1e-12
        r = resonant_config(cutoff_tail=1e-13)
        c = channel_for(r)
        j = build_joint(0.3, r, c)
        _, diff, _ = oracle.reduce_and_compare(j, 0.3, c, 0.0)
        assert diff <= 1e-12

    def test_resonant_equivalence_with_corner_magnitude(self):
        r = resonant_config(ntilde=1.0, modes=3)
        c = channel_for(r)
        t = (math.pi / 2) / (c.mu1 + c.mu2)
        evolved = evolve_joint(build_joint(0.3, r, c), t)
        state, diff, _ = oracle.reduce_and_compare(evolved, 0.3, c, t)
        assert diff <= 1e-8
        n = 0.3**2 + 0.7**2
        expect = (0.3 * 0.7 / n) * math.exp(-1.0)
        assert abs(state[0, 3]) == pytest.approx(expect, abs=1e-8)

    def test_equivalence_over_period_grid(self):
        r = resonant_config()
        c = channel_for(r)
        j = build_joint(0.5, r, c)
        for t in np.linspace(0.0, c.period, 25):
            evolved = evolve_joint(j, float(t))
            _, diff, _ = oracle.reduce_and_compare(evolved, 0.5, c, float(t))
            assert diff <= 1e-8 + 10 * r.cutoff_tail

    def test_revival(self):
        r = resonant_config()
        c = channel_for(r)
        j = build_joint(0.5, r, c)
        base = abs(oracle.reduce_density(j)[0, 3])
        evolved = evolve_joint(j, c.period)
        assert abs(abs(oracle.reduce_density(evolved)[0, 3]) - base) < 1e-8

    def test_diagonal_time_independent(self):
        r = resonant_config(ntilde=0.7)
        c = channel_for(r)
        j = build_joint(0.4, r, c)
        base = oracle.reduce_density(j)
        for t in np.linspace(0.0, c.period, 9):
            m = oracle.reduce_density(evolve_joint(j, float(t)))
            assert abs(m[0, 0] - base[0, 0]) < 1e-12
            assert abs(m[3, 3] - base[3, 3]) < 1e-12

    def test_qubit_coupling_cancels_in_corner(self):
        plain = resonant_config()
        coupled = resonant_config(mu12=0.9)
        c = channel_for(plain)
        t = 1.3
        m0 = oracle.reduce_density(evolve_joint(build_joint(0.5, plain, c), t))
        m1 = oracle.reduce_density(evolve_joint(build_joint(0.5, coupled, c), t))
        assert abs(m1[0, 0] - m0[0, 0]) < 1e-14
        assert abs(m1[3, 3] - m0[3, 3]) < 1e-14
        assert abs(abs(m1[0, 3]) - abs(m0[0, 3])) < 1e-12
        # the branch phases from mu12 are equal and cancel entirely
        evolved = evolve_joint(build_joint(0.5, coupled, c), t)
        _, _, offset = oracle.reduce_and_compare(evolved, 0.5, c, t)
        assert abs(offset) < 1e-9

    def test_corner_phase_offset_helper(self):
        closed = np.zeros((4, 4), dtype=complex)
        closed[0, 3] = 0.2 * np.exp(-0.4j)
        raw = closed.copy()
        raw[0, 3] *= np.exp(0.3j)
        assert oracle.corner_phase_offset(raw, closed) == pytest.approx(0.3, abs=1e-15)
        assert oracle.corner_phase_offset(np.zeros((4, 4)), closed) == 0.0

    def test_corner_phase_offset_stacked_equals_per_matrix(self):
        rng = np.random.default_rng(41)
        raw = np.zeros((60, 4, 4), dtype=complex)
        closed = np.zeros((60, 4, 4), dtype=complex)
        for m in (raw, closed):
            m[:, 0, 3] = (rng.random(60) * np.exp(2j * np.pi * rng.random(60))
                          * 10.0 ** rng.integers(-320, 0, 60))
        raw[::7, 0, 3] = 0.0
        got = oracle.corner_phase_offset(raw, closed)
        assert got.shape == (60,)
        for k in range(60):
            assert abs(got[k] - oracle.corner_phase_offset(raw[k], closed[k])) <= 1e-16
        assert not got[::7].any()

    def test_cross_kerr_cancels_for_resonant_bath(self):
        kerr = resonant_config(mu_cross=0.4)
        c = channel_for(kerr)
        t = 0.9
        evolved = evolve_joint(build_joint(0.5, kerr, c), t)
        _, diff, _ = oracle.reduce_and_compare(evolved, 0.5, c, t)
        assert diff <= 1e-8

    def test_nonresonant_bath_allowed(self):
        r = ReservoirConfig(alphas=(0.6, 0.5), omega_ratios=(1.0, 1.7))
        c = channel_for(r)
        j = build_joint(0.5, r, c)
        state, diff, _ = oracle.reduce_and_compare(evolve_joint(j, 0.8), 0.5, c, 0.8)
        assert math.isfinite(diff)
        assert state[1, 1] == 0.0

# a non-resonant bath with every coupling on: the shared rate (mode energies,
# cross-Kerr, mu12) differs between basis states of one total occupation
KERR_BATH = ReservoirConfig(alphas=(0.6, 0.4j, 0.3 - 0.2j),
                            omega_ratios=(1.0, 1.37, 0.81), mu_cross=0.23, mu12=0.7)
KERR_CHANNEL = ChannelParams(omega1=1.1, omega2=0.9, mu1=0.5, mu2=0.3,
                             ntilde=KERR_BATH.ntilde)


def bincount_weights(j):
    # P(N) read off the product grid: |f_n|^2 summed by N = sum_k n_k
    occ = np.indices(j.sizes).reshape(len(j.sizes), -1).sum(axis=0)
    return np.bincount(occ, weights=np.abs(j.plus) ** 2)


def assert_grouped_matches_per_index(eps, r, c, ts):
    grouped = oracle.reduce_grouped(eps, r, c, ts)
    j = build_joint(eps, r, c)
    assert grouped.shape == (len(ts), 4, 4)
    for m, t in zip(grouped, ts):
        per_index = oracle.reduce_density(evolve_joint(j, float(t)))
        assert np.abs(m - per_index).max() <= 1e-14
    assert np.abs(oracle.occupation_weights(r) - bincount_weights(j)).max() <= 1e-15


class TestGrouped:
    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    def test_matches_per_index(self, eps):
        ts = np.linspace(0.0, KERR_CHANNEL.period, 17)
        assert_grouped_matches_per_index(eps, KERR_BATH, KERR_CHANNEL, ts)

    def test_shared_rate_does_not_cancel_per_basis_state(self):
        # the per-index rates really differ within one occupation class, so
        # the match above tests the cancellation, not a degenerate bath
        j = build_joint(0.3, KERR_BATH, KERR_CHANNEL)
        occ = np.indices(j.sizes).reshape(len(j.sizes), -1).sum(axis=0)
        one = j.rate_plus[occ == 1]
        assert one.size == 3 and np.ptp(one) > 0.1

    def test_occupation_weights_sum_to_the_norm(self):
        weights = oracle.occupation_weights(KERR_BATH)
        j = build_joint(0.3, KERR_BATH, KERR_CHANNEL)
        assert weights.size == sum(j.sizes) - len(j.sizes) + 1
        assert abs(weights.sum() - np.vdot(j.plus, j.plus).real) <= 1e-15
        assert 0.0 < 1.0 - weights.sum() <= 3 * KERR_BATH.cutoff_tail

    def test_many_modes_without_a_product_grid(self):
        # 40 modes would be ~10^27 Fock indices; the classes number a few hundred
        r = resonant_config(ntilde=2.0, modes=40)
        c = channel_for(r)
        ts = np.linspace(0.0, c.period, 101)
        diffs, offsets = oracle.check_grid(0.4, r, c, ts)
        assert len(diffs) == len(offsets) == 101
        assert max(diffs) <= 1e-8 + 10 * r.cutoff_tail
        assert oracle.occupation_weights(r).size < 1000

    def test_check_grid_checks_the_grid_once(self, monkeypatch):
        seen = []
        real = oracle.check
        monkeypatch.setattr(oracle, "check",
                            lambda m, trace_tol: seen.append((m.shape, trace_tol))
                            or real(m, trace_tol))
        r = resonant_config(modes=2)
        oracle.check_grid(0.5, r, channel_for(r), np.linspace(0.0, 1.0, 7))
        assert seen == [((7, 4, 4), max(1e-10, 20.0 * 2 * r.cutoff_tail))]

    @pytest.mark.parametrize("k", [0, 4, 6])
    def test_check_grid_names_the_failing_state(self, monkeypatch, k):
        r = resonant_config(modes=2)
        c, ts = channel_for(r), np.linspace(0.0, 1.0, 7)
        widened = 20.0 * 2 * r.cutoff_tail
        real = oracle.reduce_grouped

        def shifted(shift):
            def grouped(*args):
                raw = real(*args)
                raw[k, 0, 0] -= shift  # state k loses trace
                return raw
            return grouped

        # a deficit beyond the default 1e-10 but within the widened tolerance
        monkeypatch.setattr(oracle, "reduce_grouped", shifted(0.5 * widened))
        diffs, _ = oracle.check_grid(0.5, r, c, ts)
        assert diffs[k] >= 0.5 * widened
        monkeypatch.setattr(oracle, "reduce_grouped", shifted(2.0 * widened))
        with pytest.raises(InvalidState,
                           match=f"^matrix {k} of the stack: trace deviates from 1 by"):
            oracle.check_grid(0.5, r, c, ts)

    def test_check_grid_agrees_with_reduce_and_compare(self):
        ts = np.linspace(0.0, 2.0, 5)
        diffs, offsets = oracle.check_grid(0.3, KERR_BATH, KERR_CHANNEL, ts)
        j = build_joint(0.3, KERR_BATH, KERR_CHANNEL)
        for t, d, o in zip(ts, diffs, offsets):
            _, d_ref, o_ref = oracle.reduce_and_compare(evolve_joint(j, float(t)),
                                                        0.3, KERR_CHANNEL, float(t))
            assert abs(d - d_ref) <= 1e-14
            assert abs(o - o_ref) <= 1e-12

    def test_rejects_negative_t(self):
        r = resonant_config(modes=1)
        with pytest.raises(ValueError, match="t must be >= 0"):
            oracle.reduce_grouped(0.5, r, channel_for(r), [0.0, -1.0])


AMPLITUDE = st.builds(lambda m, p: m * complex(math.cos(p), math.sin(p)),
                      st.floats(0.0, 1.2), st.floats(0.0, 2 * math.pi))


@settings(max_examples=60, deadline=None)
@given(alphas=st.lists(AMPLITUDE, min_size=1, max_size=3),
       ratio_seed=st.integers(0, 2**32 - 1),
       mu_cross=st.floats(-0.5, 0.5), mu12=st.floats(-1.0, 1.0),
       omegas=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
       mus=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       eps=st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
       ts=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
def test_grouped_matches_per_index_on_random_baths(alphas, ratio_seed, mu_cross,
                                                  mu12, omegas, mus, eps, ts):
    ratios = np.random.default_rng(ratio_seed).uniform(0.5, 2.0, len(alphas))
    r = ReservoirConfig(alphas=alphas, omega_ratios=ratios,
                        mu_cross=mu_cross, mu12=mu12)
    c = ChannelParams(*omegas, *mus, ntilde=r.ntilde)
    assert_grouped_matches_per_index(eps, r, c, np.asarray(ts))


class TestJointVector:
    def test_partial_trace_recovers_reduction(self):
        r = ReservoirConfig(alphas=(0.6,), omega_ratios=(1.0,), cutoff_tail=1e-8)
        c = channel_for(r)
        j = evolve_joint(build_joint(0.3, r, c), 0.6)
        v = joint_vector(j)
        total = int(np.prod(j.sizes))
        full = np.outer(v, v.conj())
        reduced = partial_trace(full, [4, total], {0})
        assert np.abs(reduced - oracle.reduce_density(j)).max() < 1e-12

    def test_partial_trace_recovers_initial_family_state(self):
        r = ReservoirConfig(alphas=(0.6,), omega_ratios=(1.0,), cutoff_tail=1e-8)
        j = build_joint(0.3, r, channel_for(r))
        v = joint_vector(j)
        total = int(np.prod(j.sizes))
        reduced = partial_trace(np.outer(v, v.conj()), [4, total], {0})
        expect = initial_pure(0.3)
        assert np.abs(reduced - expect).max() < 1e-7

class TestConfigValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ReservoirConfig(alphas=(), omega_ratios=())

    def test_rejects_mismatched_ratios(self):
        with pytest.raises(ValueError):
            ReservoirConfig(alphas=(0.5,), omega_ratios=(1.0, 1.0))

    def test_ntilde_sums_amplitudes(self):
        r = ReservoirConfig(alphas=(0.5, 0.5j), omega_ratios=(1.0, 1.0))
        assert r.ntilde == pytest.approx(0.5, abs=1e-15)
        assert len(set(r.omega_ratios)) == 1  # resonant
