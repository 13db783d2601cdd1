import math
import warnings

import numpy as np
import pytest

from qdephase import channel
from qdephase.channel import ChannelParams, apply_channel, decoherence_factor, evolve, kraus_ops
from qdephase.errors import UnsupportedSubspace
from qdephase.states import FamilyParams, initial_pure


def params(ntilde=1.0, mu=0.5, omega=1.0):
    return ChannelParams(omega1=omega, omega2=omega, mu1=mu, mu2=mu, ntilde=ntilde)


class TestDecoherenceFactor:
    def test_no_evolution(self):
        d = decoherence_factor(params(), 0.0)
        assert d.a == 1.0 + 0.0j
        assert d.gamma == 0.0
        assert d.phase == 0.0

    def test_half_period(self):
        # (mu1+mu2)t = pi at ntilde = 1
        c = params()
        d = decoherence_factor(c, math.pi / (c.mu1 + c.mu2))
        assert d.gamma == pytest.approx(1.0 - math.exp(-4.0), abs=1e-12)
        assert d.gamma == pytest.approx(0.981684, abs=1e-6)

    def test_full_revival(self):
        c = params()
        d = decoherence_factor(c, c.period)
        assert abs(d.gamma) < 1e-12
        assert abs(abs(d.a) - 1.0) < 1e-12

    def test_invariants_on_grid(self):
        c = params(ntilde=1.7, mu=0.3, omega=0.9)
        for t in np.linspace(0.0, 3 * c.period, 200):
            d = decoherence_factor(c, float(t))
            assert abs(abs(d.a) ** 2 + d.gamma - 1.0) < 1e-12
            expect = math.sqrt(1.0 - d.gamma) * np.exp(-1j * d.phase)
            assert abs(d.a - expect) < 1e-12

    def test_gamma_range_and_periodicity(self):
        c = params(ntilde=1.0)
        sup = 1.0 - math.exp(-4.0 * c.ntilde)
        for t in np.linspace(0.0, 2 * c.period, 301):
            d = decoherence_factor(c, float(t))
            assert -1e-15 <= d.gamma <= sup + 1e-12
            d2 = decoherence_factor(c, float(t) + c.period)
            assert abs(d2.gamma - d.gamma) < 1e-9

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            decoherence_factor(params(), -0.1)


class TestKraus:
    def test_endpoints(self):
        e0, e1 = kraus_ops(0.0)
        assert np.array_equal(e0, np.diag([1, 0, 0, 1]).astype(complex))
        assert np.count_nonzero(e1) == 0
        e0, e1 = kraus_ops(1.0)
        assert np.array_equal(e0, np.diag([1, 0, 0, 0]).astype(complex))
        assert np.array_equal(e1, np.diag([0, 0, 0, 1]).astype(complex))

    def test_completeness_on_populated_block(self):
        for gamma in np.linspace(0.0, 1.0, 21):
            e0, e1 = kraus_ops(float(gamma))
            total = e0.conj().T @ e0 + e1.conj().T @ e1
            assert np.abs(total - np.diag([1, 0, 0, 1])).max() < 1e-15

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            kraus_ops(-0.01)
        with pytest.raises(ValueError):
            kraus_ops(1.01)


class TestApplyChannel:
    def test_identity_at_zero(self):
        rho = initial_pure(FamilyParams(0.3, 0.2))
        out = apply_channel(rho, 0.0)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-15

    def test_full_damping_kills_corner(self):
        out = apply_channel(initial_pure(FamilyParams(0.5)), 1.0)
        assert np.abs(out.matrix - np.diag([0.5, 0, 0, 0.5])).max() < 1e-15

    def test_corner_scaling(self):
        out = apply_channel(initial_pure(FamilyParams(0.5)), 0.75)
        assert abs(out.matrix[0, 3]) == pytest.approx(0.25, abs=1e-15)

    def test_trace_preserved_on_family(self):
        for eps in (0.0, 0.2, 0.5, 1.0):
            for gamma in (0.0, 0.4, 1.0):
                out = apply_channel(initial_pure(FamilyParams(eps)), gamma)
                assert abs(np.trace(out.matrix).real - 1.0) < 1e-12

    def test_rejects_populated_middle_block(self):
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        from qdephase.states import validate
        with pytest.raises(UnsupportedSubspace):
            apply_channel(validate(m), 0.5)


class TestEvolve:
    def test_initial_condition(self):
        rho = evolve(0.3, params(), 0.0)
        assert np.abs(rho.matrix - initial_pure(FamilyParams(0.3)).matrix).max() < 1e-15

    def test_separable_endpoint_invariant(self):
        c = params()
        for t in (0.0, 0.7, 2.0):
            rho = evolve(0.0, c, t)
            assert np.abs(rho.matrix - np.diag([0, 0, 0, 1])).max() < 1e-15

    def test_strong_damping_limit(self):
        c = params(ntilde=50.0)
        rho = evolve(0.5, c, c.period / 2)
        assert np.abs(rho.matrix - np.diag([0.5, 0, 0, 0.5])).max() < 1e-12

    def test_factorization_identity(self):
        # evolve == apply_channel(pure_reference(phase(t)), gamma(t))
        c = params(ntilde=0.8, mu=0.4, omega=1.3)
        count = 0
        for eps in np.linspace(0.0, 1.0, 11):
            for t in np.linspace(0.0, 2 * c.period, 51):
                d = decoherence_factor(c, float(t))
                direct = evolve(float(eps), c, float(t))
                staged = apply_channel(
                    initial_pure(FamilyParams(float(eps), d.phase)), d.gamma)
                assert np.abs(direct.matrix - staged.matrix).max() < 1e-12
                count += 1
        assert count >= 500

    def test_diagonal_frozen_in_time(self):
        c = params(ntilde=1.3)
        base = evolve(0.3, c, 0.0).matrix
        for t in np.linspace(0.0, c.period, 37):
            m = evolve(0.3, c, float(t)).matrix
            assert abs(m[0, 0] - base[0, 0]) <= 1e-14
            assert abs(m[3, 3] - base[3, 3]) <= 1e-14
            assert m[1, 1] == 0.0 and m[2, 2] == 0.0

    def test_pure_reference_at_matches_gamma_zero(self):
        c = params(ntilde=0.0)  # gamma(t) = 0 for all t, pure rotation
        for t in (0.0, 0.91, 2.4):
            ref = channel.pure_reference_at(0.37, c, t)
            evo = evolve(0.37, c, t)
            assert np.abs(ref.matrix - evo.matrix).max() < 1e-13


class TestDecoherenceFactorInputs:
    def test_array_of_times(self):
        c = params(ntilde=1.3, mu=0.4, omega=0.8)
        ts = np.linspace(0.0, 2 * c.period, 17)
        d = decoherence_factor(c, ts)
        assert d.a.shape == d.gamma.shape == d.phase.shape == (17,)
        for k, t in enumerate(ts):
            single = decoherence_factor(c, float(t))
            assert d.a[k] == single.a
            assert (d.gamma[k], d.phase[k]) == (single.gamma, single.phase)

    def test_rejects_first_negative_time_in_an_array(self):
        with pytest.raises(ValueError, match="got -0.5"):
            decoherence_factor(params(), np.array([0.0, 1.0, -0.5, -2.0]))

    @pytest.mark.parametrize("c, t", [
        (ChannelParams(1.0, 1.0, 1e300, 1e300, 1.0), 1e10),
        (ChannelParams(1e300, 1e300, 0.5, 0.5, 1.0), 1e10),
        (ChannelParams(1.0, 1.0, 0.5, 0.5, 1.0), math.nan)])
    def test_non_finite_phase_names_t(self, c, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"t = {t} is not finite"):
                decoherence_factor(c, np.array([0.0, 1.0, t]))

    @pytest.mark.parametrize("kw, name", [
        (dict(omega1=1e308, omega2=1e308), "omega1 \\+ omega2"),
        (dict(mu1=-1e308, mu2=-1e308), "mu1 \\+ mu2")])
    def test_params_reject_overflowing_sums(self, kw, name):
        base = dict(omega1=1.0, omega2=1.0, mu1=0.5, mu2=0.5, ntilde=1.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ChannelParams(**{**base, **kw})
