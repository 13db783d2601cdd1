import math

import numpy as np
import pytest

from qdephase import matcore, oracle
from qdephase.channel import ChannelParams

from qdephase.errors import CutoffTooTight
from qdephase.oracle import ReservoirConfig, build_joint, evolve_joint
from qdephase.states import FamilyParams, initial_pure

def resonant_config(ntilde=1.0, modes=3, **kw):
    amp = math.sqrt(ntilde / modes)
    return ReservoirConfig(alphas=(amp,) * modes, omega_ratios=(1.0,) * modes, **kw)

def channel_for(r, mu=0.5, omega=1.0):
    return r.channel_params(omega, omega, mu, mu)

class TestFockCutoff:
    def test_vacuum(self):
        assert oracle.fock_cutoff(0.0, 1e-10) == 0

    def test_unit_coherent_state(self):
        # Poisson(1) needs 13 states for a 1e-10 tail
        assert oracle.fock_cutoff(1.0, 1e-10) == 12

    def test_monotone_in_tail(self):
        assert oracle.fock_cutoff(1.0, 1e-14) > oracle.fock_cutoff(1.0, 1e-6)

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
        r = ReservoirConfig(alphas=(6.0,), omega_ratios=(1.0,), hard_cutoff=16)
        with pytest.raises(CutoffTooTight):
            build_joint(0.5, r, channel_for(r))

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
        assert np.abs(state.matrix - initial_pure(FamilyParams(0.3)).matrix).max() < 1e-9

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
        assert abs(state.matrix[0, 3]) == pytest.approx(expect, abs=1e-8)

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
        assert state.matrix[1, 1] == 0.0

class TestJointVector:
    def test_partial_trace_recovers_reduction(self):
        r = ReservoirConfig(alphas=(0.6,), omega_ratios=(1.0,), cutoff_tail=1e-8)
        c = channel_for(r)
        j = evolve_joint(build_joint(0.3, r, c), 0.6)
        v = oracle.joint_vector(j)
        total = int(np.prod(j.sizes))
        full = np.outer(v, v.conj())
        reduced = matcore.partial_trace(full, [4, total], {0})
        assert np.abs(reduced - oracle.reduce_density(j)).max() < 1e-12

    def test_partial_trace_recovers_initial_family_state(self):
        r = ReservoirConfig(alphas=(0.6,), omega_ratios=(1.0,), cutoff_tail=1e-8)
        j = build_joint(0.3, r, channel_for(r))
        v = oracle.joint_vector(j)
        total = int(np.prod(j.sizes))
        reduced = matcore.partial_trace(np.outer(v, v.conj()), [4, total], {0})
        expect = initial_pure(FamilyParams(0.3)).matrix
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
        assert r.resonant
