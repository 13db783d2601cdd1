import math
import warnings

import numpy as np
import pytest

from qdephase import channel
from qdephase.channel import ChannelParams, decoherence_factor, evolve, kraus_factor
from qdephase.states import family_state, initial_pure


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


def channel_state(epsilon, a, gamma):
    """rho = UU† from the Kraus factor, per state of a stack."""
    u = kraus_factor(epsilon, a, gamma)
    return u @ np.swapaxes(u.conj(), -1, -2)


class TestKraus:
    def test_endpoints(self):
        r = math.sqrt(0.5)  # eps / sqrt(n) = (1 - eps) / sqrt(n) at eps = 1/2
        u = kraus_factor(0.5, 1.0, 0.0)
        assert u.shape == (4, 2)
        assert np.abs(u - np.array([[r, 0], [0, 0], [0, 0], [r, 0]])).max() <= 2e-16
        u = kraus_factor(0.5, 0.0, 1.0)
        assert np.abs(u - np.array([[r, 0], [0, 0], [0, 0], [0, r]])).max() <= 2e-16

    def test_completeness_on_populated_block(self):
        # E0†E0 + E1†E1 = diag(1, 0, 0, |a|^2 + gamma): the factor keeps unit
        # norm, so UU† unit trace, wherever |a|^2 + gamma = 1
        c = params(ntilde=1.7, mu=0.3, omega=0.9)
        d = decoherence_factor(c, np.linspace(0.0, 2 * c.period, 201))
        for eps in (0.0, 0.2, 0.5, 1.0):
            u = kraus_factor(eps, d.a, d.gamma)
            assert np.abs(np.linalg.norm(u, axis=(1, 2)) ** 2 - 1.0).max() <= 1e-15

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="got -0.01"):
            kraus_factor(0.5, 1.0, -0.01)
        with pytest.raises(ValueError, match="got 1.01"):
            kraus_factor(0.5, 0.0, 1.01)
        with pytest.raises(ValueError, match="got 2.0"):  # the first bad one
            kraus_factor(0.5, [1.0, 0.0, 0.0], [0.0, 2.0, -1.0])
        with pytest.raises(ValueError, match="epsilon"):
            kraus_factor(1.5, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"epsilon must be in \[0, 1\], got nan"):
            kraus_factor(math.nan, 1, 0)

    def test_epsilon_column_equals_scalar_factors(self):
        # a column of epsilon, one per state, builds what each scalar builds
        c = params(ntilde=1.7, mu=0.3, omega=0.9)
        d = decoherence_factor(c, np.linspace(0.0, c.period, 6))
        eps = np.array([0.0, 0.006883695940555379, 0.26, 0.5, 0.923854799557242, 1.0])
        u = kraus_factor(eps, d.a, d.gamma)
        for k in range(len(eps)):
            assert np.array_equal(u[k], kraus_factor(float(eps[k]), d.a[k], d.gamma[k]))

    def test_takes_a_not_one_minus_gamma(self):
        # at ntilde = 40 and (mu1+mu2)t = pi, |a| = e^{-80}: sqrt(1 - gamma)
        # would round to 0, and the corner would vanish
        c = params(ntilde=40.0)
        d = decoherence_factor(c, math.pi / (c.mu1 + c.mu2))
        corner = channel_state(0.3, d.a, d.gamma)[0, 3]
        assert corner != 0.0
        assert abs(corner / family_state(0.3, d.a)[0, 3] - 1.0) <= 1e-15


class TestApplyChannel:
    """The channel on the initial pure state, through its Kraus factor."""

    def test_identity_at_zero(self):
        rho = initial_pure(0.3, 0.2)
        out = channel_state(0.3, np.exp(-0.2j), 0.0)
        assert np.abs(out - rho).max() < 1e-15

    def test_full_damping_kills_corner(self):
        out = channel_state(0.5, 0.0, 1.0)
        assert np.abs(out - np.diag([0.5, 0, 0, 0.5])).max() < 1e-15

    def test_corner_scaling(self):
        out = channel_state(0.5, 0.5, 0.75)
        assert abs(out[0, 3]) == pytest.approx(0.25, abs=1e-15)

    def test_trace_preserved_on_family(self):
        for eps in (0.0, 0.2, 0.5, 1.0):
            for gamma in (0.0, 0.4, 1.0):
                out = channel_state(eps, math.sqrt(1.0 - gamma), gamma)
                assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_middle_block_is_bit_zero(self):
        # the pair acts on the outer block alone: no state it builds
        # populates |+->, |-+>
        c = params(ntilde=1.3, mu=0.4, omega=0.8)
        d = decoherence_factor(c, np.linspace(0.0, c.period, 37))
        for eps in (0.0, 0.37, 1.0):
            out = channel_state(eps, d.a, d.gamma)
            assert not out[:, 1:3, :].any() and not out[:, :, 1:3].any()

    def test_stack_equals_single_factors(self):
        c = params(ntilde=0.8, mu=0.4, omega=1.3)
        d = decoherence_factor(c, np.linspace(0.0, c.period, 17))
        u = kraus_factor(0.26, d.a, d.gamma)
        for k in range(17):
            assert np.array_equal(u[k], kraus_factor(0.26, d.a[k], d.gamma[k]))


class TestEvolve:
    def test_initial_condition(self):
        rho = evolve(0.3, params(), 0.0)
        assert np.abs(rho - initial_pure(0.3)).max() < 1e-15

    def test_separable_endpoint_invariant(self):
        c = params()
        for t in (0.0, 0.7, 2.0):
            rho = evolve(0.0, c, t)
            assert np.abs(rho - np.diag([0, 0, 0, 1])).max() < 1e-15

    def test_strong_damping_limit(self):
        c = params(ntilde=50.0)
        rho = evolve(0.5, c, c.period / 2)
        assert np.abs(rho - np.diag([0.5, 0, 0, 0.5])).max() < 1e-12

    def test_factorization_identity(self):
        # evolve == UU†, U the Kraus pair applied to the initial pure state
        c = params(ntilde=0.8, mu=0.4, omega=1.3)
        count = 0
        for eps in np.linspace(0.0, 1.0, 11):
            for t in np.linspace(0.0, 2 * c.period, 51):
                d = decoherence_factor(c, float(t))
                direct = evolve(float(eps), c, float(t))
                staged = channel_state(float(eps), d.a, d.gamma)
                assert np.abs(direct - staged).max() < 1e-15
                count += 1
        assert count >= 500

    def test_diagonal_frozen_in_time(self):
        c = params(ntilde=1.3)
        base = evolve(0.3, c, 0.0)
        for t in np.linspace(0.0, c.period, 37):
            m = evolve(0.3, c, float(t))
            assert abs(m[0, 0] - base[0, 0]) <= 1e-14
            assert abs(m[3, 3] - base[3, 3]) <= 1e-14
            assert m[1, 1] == 0.0 and m[2, 2] == 0.0

    def test_array_of_times_gives_the_stack(self):
        # evolve and pure_reference_at broadcast over t, as
        # decoherence_factor does
        c = params(ntilde=0.8, mu=0.4, omega=1.3)
        ts = np.linspace(0.0, 2 * c.period, 9)
        for build in (evolve, channel.pure_reference_at):
            stack = build(0.3, c, ts)
            assert stack.shape == (9, 4, 4)
            for k, t in enumerate(ts):
                assert np.abs(stack[k] - build(0.3, c, float(t))).max() <= 1e-15

    def test_pure_reference_at_matches_gamma_zero(self):
        c = params(ntilde=0.0)  # gamma(t) = 0 for all t, pure rotation
        for t in (0.0, 0.91, 2.4):
            ref = channel.pure_reference_at(0.37, c, t)
            evo = evolve(0.37, c, t)
            assert np.abs(ref - evo).max() < 1e-13


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

    @pytest.mark.parametrize("mu", [0.5, 64.0])
    def test_huge_ntilde_takes_the_limit_without_a_warning(self, mu):
        # log|a| = -2 ntilde sin^2 overflows to -inf, the exact limit
        ts = np.linspace(0.0, 2.0 * math.pi, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = decoherence_factor(params(ntilde=1e308, mu=mu), ts)
        assert (d.a[0], d.gamma[0]) == (1.0, 0.0)
        assert np.all(np.abs(d.a[1:]) == 0.0) and np.all(d.gamma[1:] == 1.0)

    @pytest.mark.parametrize("kw, name", [
        (dict(omega1=1e308, omega2=1e308), "omega1 \\+ omega2"),
        (dict(mu1=-1e308, mu2=-1e308), "mu1 \\+ mu2")])
    def test_params_reject_overflowing_sums(self, kw, name):
        base = dict(omega1=1.0, omega2=1.0, mu1=0.5, mu2=0.5, ntilde=1.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ChannelParams(**{**base, **kw})


# gamma = 1 - exp(2 ntilde (cos theta - 1)) at the float theta = (mu1 + mu2) t
# the code forms, evaluated in 50-digit arithmetic (mpmath)
GAMMA_REFERENCE = [
    (params(), 2 * math.pi / 10000, 3.9478408512843822884e-7),
    (params(), 1e-6, 9.9999999999941657616e-13),
    (params(), 2 * math.pi, 5.9990391306474303787e-32),  # float revival
    (params(), 4 * math.pi - 1e-5, 9.9999999996392297668e-11),
    (params(ntilde=0.3, mu=0.75), 1e-4, 6.7499999645625011532e-9),
    (params(ntilde=0.3, mu=0.75), 3e-8, 6.0749999999999949256e-16),
    (params(ntilde=0.3, mu=0.75), 4 * math.pi / 1.5, 7.1988469567769161878e-32),
]


@pytest.mark.parametrize("c, t, expect", GAMMA_REFERENCE)
def test_small_gamma_keeps_its_relative_precision(c, t, expect):
    # near t = 0 and each revival 1 - |a|^2 would cancel to ~1e-10 relative
    for gamma in (decoherence_factor(c, t).gamma, decoherence_factor(c, [t]).gamma[0]):
        assert abs(gamma - expect) <= 1e-14 * expect


def test_abs_a_squared_plus_gamma_is_one_to_rounding():
    # |a| and gamma come from one log|a|, so |a|^2 + gamma = 1 to 3 eps on
    # this grid (measured); |a| from exp(ntilde (cos theta - 1)) put it
    # 21.5 eps off, near t = 0 and the revival
    near = np.geomspace(1e-12, 1e-2, 1001)
    ts = np.concatenate([np.linspace(0.0, 4.0 * math.pi, 100001), near, 2.0 * math.pi - near])
    for ntilde in (0.3, 1.0, 8.0, 40.0):
        d = decoherence_factor(params(ntilde=ntilde), ts)
        abs_a = np.abs(d.a)
        assert np.abs(abs_a * abs_a + d.gamma - 1.0).max() <= 6.0 * np.finfo(float).eps
