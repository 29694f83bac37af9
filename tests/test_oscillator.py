"""Closed-form solutions, regime classification, and the physical form.

Property tests use hypothesis (MacIver et al., "Hypothesis: A new approach
to property-based testing", JOSS 4(43), 2019).
"""

import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdyn import (
    InvariantViolation,
    OscState,
    OscillatorParams,
    TimeGrid,
    analytic_trajectory,
    classify,
    energy,
    solve_analytic,
)
from gapdyn.oscillator import _scaled_squares
from test_golden import _KERNELS

UNDER = OscillatorParams(gamma=0.5, alpha=1.0)
CRITICAL = OscillatorParams(gamma=2.0, alpha=1.0)
OVER = OscillatorParams(gamma=4.0, alpha=1.0)
UNIT_START = OscState(y=1.0, ydot=0.0)


def _random_params(rng: np.random.Generator) -> OscillatorParams:
    return OscillatorParams(
        gamma=float(rng.uniform(0.0, 3.0)), alpha=float(rng.uniform(0.05, 2.0))
    )


class TestParamTypes:
    def test_discriminant(self):
        assert CRITICAL.discriminant == 0.0
        assert OVER.discriminant == 12.0

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        gamma=st.floats(min_value=0.0, allow_infinity=False),
        alpha=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_discriminant_is_the_plain_expression_where_it_is_finite(self, gamma, alpha):
        # Where gamma^2 or 4 alpha overflows, the result is still a number
        # with the sign classify compares.
        d = OscillatorParams(gamma=gamma, alpha=alpha).discriminant
        if math.isfinite(gamma * gamma) and math.isfinite(4.0 * alpha):
            assert d.hex() == (gamma * gamma - 4.0 * alpha).hex()
        else:
            _, gg, fa = _scaled_squares(OscillatorParams(gamma=gamma, alpha=alpha))
            assert np.sign(d) == np.sign(gg - fa)

    @pytest.mark.parametrize(
        "gamma, alpha, want",
        [
            (1e308, 1e308, math.inf),
            (1.5e154, 1e308, -1.7499999999999996e308),
            (1.4e154, 5e307, -4.0000000000000144e306),
            (2e154, 1e308, 0.0),  # gamma^2 rounds to 4 alpha
        ],
    )
    def test_discriminant_past_the_float_range(self, gamma, alpha, want):
        assert OscillatorParams(gamma=gamma, alpha=alpha).discriminant == want

    def test_rejects_negative_gamma(self):
        with pytest.raises(InvariantViolation):
            OscillatorParams(gamma=-0.1, alpha=1.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(InvariantViolation):
            OscillatorParams(gamma=1.0, alpha=0.0)
        with pytest.raises(InvariantViolation):
            OscillatorParams(gamma=1.0, alpha=-1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvariantViolation):
            OscillatorParams(gamma=math.nan, alpha=1.0)
        with pytest.raises(InvariantViolation):
            OscState(y=math.inf, ydot=0.0)


class TestFromPhysical:
    # m y'' + c y' + k y = F is OscillatorParams(c / m, k / m), by hand.
    def test_regime_matches_discriminant_sign(self):
        # sign(c^2 - 4mk) must agree with the normalized-form classification
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = float(rng.uniform(0.2, 3.0))
            c = float(rng.uniform(0.0, 4.0))
            k = float(rng.uniform(0.1, 3.0))
            regime = classify(OscillatorParams(c / m, k / m))
            d = c * c - 4.0 * m * k
            if d < 0:
                assert regime == "under-damped"
            elif d > 0:
                assert regime == "over-damped"


class TestClassify:
    def test_three_named_cases(self):
        assert classify(UNDER) == "under-damped"
        assert classify(CRITICAL) == "critically-damped"
        assert classify(OVER) == "over-damped"

    def test_undamped_counts_as_under_damped(self):
        assert classify(OscillatorParams(gamma=0.0, alpha=1.0)) == "under-damped"

    def test_tolerance_band_absorbs_rounding(self):
        # just inside the default relative band around gamma^2 = 4 alpha
        nudged = OscillatorParams(gamma=2.0 * (1.0 + 1e-12), alpha=1.0)
        assert classify(nudged) == "critically-damped"
        assert nudged.discriminant > 0

    def test_time_rescaling_invariance(self):
        # classify(c*gamma, c^2*alpha) == classify(gamma, alpha) for c > 0;
        # at c = 2^511 gamma^2 or 4 alpha can pass the float range, and at
        # c = 2^-511 c^2 alpha can be subnormal
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = _random_params(rng)
            for c in (float(rng.uniform(0.1, 10.0)), 2.0**511, 2.0**-511):
                scaled = OscillatorParams(gamma=c * p.gamma, alpha=c * c * p.alpha)
                assert classify(scaled) is classify(p)
        assert classify(OscillatorParams(gamma=1e200, alpha=1.0)) == "over-damped"
        assert classify(OscillatorParams(gamma=0.0, alpha=1e308)) == "under-damped"


class TestSolveAnalytic:
    def test_critical_at_unit_time(self):
        # (1 + t) e^{-t} at t=1
        s = solve_analytic(CRITICAL, UNIT_START, 1.0)
        assert s.y == pytest.approx(0.7357588823428847, rel=1e-14)
        assert s.ydot == pytest.approx(-0.36787944117144233, rel=1e-14)

    def test_pure_cosine_quarter_period(self):
        s = solve_analytic(OscillatorParams(gamma=0.0, alpha=1.0), UNIT_START, math.pi / 2.0)
        assert abs(s.y) < 1e-15
        assert s.ydot == pytest.approx(-1.0, rel=1e-12)

    def test_zero_state_stays_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = solve_analytic(_random_params(rng), OscState(0.0, 0.0), float(rng.uniform(0.0, 30.0)))
            assert s.y == 0.0
            assert s.ydot == 0.0

    def test_over_damped_terminal_value(self):
        s = solve_analytic(OVER, UNIT_START, 20.0)
        assert s.y == pytest.approx(0.005069671397521481, rel=1e-12)
        assert abs(s.y) < 0.01

    def test_t_zero_returns_init_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            init = OscState(float(rng.normal()), float(rng.normal()))
            s = solve_analytic(_random_params(rng), init, 0.0)
            assert s.y == init.y
            assert s.ydot == init.ydot

    def test_rejects_negative_or_non_finite_time(self):
        with pytest.raises(InvariantViolation):
            solve_analytic(CRITICAL, UNIT_START, -0.1)
        with pytest.raises(InvariantViolation):
            solve_analytic(CRITICAL, UNIT_START, math.nan)

    def test_overflowed_phase_is_an_invariant_violation(self):
        # w t = 1e150 * 1e300 passes the float range
        with pytest.raises(InvariantViolation, match=r"^phase w\*t must be finite, got inf$"):
            solve_analytic(OscillatorParams(0.0, 1e300), UNIT_START, 1e300)

    # References from an 800-digit evaluation of e^(A t) at t = 1.
    @pytest.mark.parametrize("gamma, alpha, init, y, ydot", [
        # gamma/2 y overflows: y = y0 e^(-t alpha/gamma), ydot = -alpha/gamma y
        (1e200, 1.0, OscState(1e200, 0.0), 1e200, -1.0),
        (1e200, 1.0, OscState(-1e200, 3.0), -1e200, 1.0),
        # alpha y overflows, with the slow root -alpha/gamma = -1
        (1e300, 1e300, OscState(1e10, 0.0), 3678794411.714423216, -3678794411.714423216),
        # gamma/2 y + ydot overflows, though neither term does
        (2.0, 1.0, OscState(1e308, 1e308), 1.1036383235143269769e308, -3.6787944117144232563e307),
    ])
    def test_products_past_the_float_range(self, gamma, alpha, init, y, ydot):
        s = solve_analytic(OscillatorParams(gamma, alpha), init, 1.0)
        assert s.y == pytest.approx(y, rel=1e-15)
        assert s.ydot == pytest.approx(ydot, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_overflowed_phase_on_a_grid_is_an_invariant_violation(self):
        # the same phase on a grid, at its node t = 1e300, with no numpy warning
        with pytest.raises(InvariantViolation, match=r"^phase w\*t must be finite, got inf$"):
            analytic_trajectory(OscillatorParams(0.0, 1e300), UNIT_START, TimeGrid(1e300, 3))

    def test_satisfies_ode_by_central_difference(self):
        # ydd + gamma*yd + alpha*y = 0, checked at second-order accuracy
        h = 1e-4
        for params in (UNDER, CRITICAL, OVER):
            for t in (0.3, 1.0, 2.5, 7.0):
                ym = solve_analytic(params, UNIT_START, t - h).y
                s0 = solve_analytic(params, UNIT_START, t)
                yp = solve_analytic(params, UNIT_START, t + h).y
                ydd = (yp - 2.0 * s0.y + ym) / (h * h)
                residual = ydd + params.gamma * s0.ydot + params.alpha * s0.y
                assert abs(residual) < 1e-5

    def test_linearity_in_initial_state(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            params = _random_params(rng)
            t = float(rng.uniform(0.0, 10.0))
            s1 = OscState(float(rng.normal()), float(rng.normal()))
            s2 = OscState(float(rng.normal()), float(rng.normal()))
            combined = solve_analytic(params, OscState(s1.y + s2.y, s1.ydot + s2.ydot), t)
            a = solve_analytic(params, s1, t)
            b = solve_analytic(params, s2, t)
            scale = max(abs(combined.y), abs(combined.ydot), 1.0)
            assert abs(combined.y - (a.y + b.y)) < 1e-12 * scale
            assert abs(combined.ydot - (a.ydot + b.ydot)) < 1e-12 * scale


def _random_regime_params(rng: np.random.Generator, regime: str) -> OscillatorParams:
    """(gamma, alpha) with gamma in [0.1, 5] and gamma^2/4 - alpha of the
    regime's sign; "band" lands within 1e-9 of gamma^2 = 4 alpha, on
    either side or, for gamma = 2, alpha = 1, on it."""
    g = float(rng.uniform(0.1, 5.0))
    if regime == "band":
        if rng.integers(4) == 0:
            return OscillatorParams(2.0, 1.0)
        return OscillatorParams(g, 0.25 * g * g * (1.0 + float(rng.uniform(-1e-9, 1e-9))))
    scale = float(rng.uniform(0.05, 0.95))
    return OscillatorParams(g, 0.25 * g * g * (scale if regime == "over" else 1.0 / scale))


def _trajectory_bytes() -> bytes:
    """The y and ydot bytes of analytic_trajectory on 1000 nodes in each regime."""
    grid = TimeGrid(0.05, 1000)
    paths = [analytic_trajectory(p, UNIT_START, grid) for p in (UNDER, CRITICAL, OVER)]
    paths.append(analytic_trajectory(OscillatorParams(3.0, 1.0), OscState(0.5, -1.0), grid))
    return b"".join(t.y.tobytes() + t.ydot.tobytes() for t in paths)


_DISPATCH_CHILD = """
import hashlib
from test_oscillator import _trajectory_bytes
print(hashlib.sha256(_trajectory_bytes()).hexdigest())
"""


class TestAnalyticTrajectory:
    @pytest.mark.parametrize("regime", ["under", "over", "band"])
    def test_every_node_is_solve_analytic(self, regime):
        rng = np.random.default_rng({"under": 41, "over": 43, "band": 47}[regime])
        for _ in range(20):
            params = _random_regime_params(rng, regime)
            init = OscState(float(rng.normal()), float(rng.normal()))
            grid = TimeGrid(float(rng.uniform(0.01, 0.5)), 401)
            traj = analytic_trajectory(params, init, grid)
            states = [solve_analytic(params, init, t) for t in grid.times().tolist()]
            assert traj.y.tobytes() == np.array([s.y for s in states]).tobytes(), params
            assert traj.ydot.tobytes() == np.array([s.ydot for s in states]).tobytes(), params

    @pytest.mark.filterwarnings("error")
    def test_gamma_squared_past_the_float_range(self):
        # y = e^(-t alpha/gamma) to the last bit; ydot = -alpha/gamma y
        traj = analytic_trajectory(OscillatorParams(1e200, 1.0), UNIT_START, TimeGrid(1.0, 3))
        assert traj.y.tolist() == [1.0, 1.0, 1.0]
        assert traj.ydot.tolist() == [0.0, -1e-200, -1e-200]

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 kernel names"
    )
    @pytest.mark.parametrize(
        "kernel", [env for env in _KERNELS if "NPY_ENABLE_CPU_FEATURES" in env],
        ids=lambda env: "=".join(*env.items()),
    )
    def test_bytes_do_not_depend_on_kernels(self, kernel):
        # The closed form runs on Python's math, not numpy's dispatched exp,
        # cos and sin, so a fresh process at another SIMD level gets the
        # bytes of this one.
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), **kernel)
        proc = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD], capture_output=True, text=True, env=env)
        want = hashlib.sha256(_trajectory_bytes()).hexdigest()
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", want + "\n")


class TestEnergy:
    def test_formula(self):
        p = OscillatorParams(gamma=1.0, alpha=2.0)
        assert energy(p, OscState(y=3.0, ydot=4.0)) == 0.5 * 16.0 + 0.5 * 2.0 * 9.0

    def test_non_increasing_along_solutions(self):
        # dE/dt = -gamma * ydot^2 <= 0; grid of 1000 points, small slack
        times = np.linspace(0.0, 12.0, 1000)
        rng = np.random.default_rng(17)
        cases = [UNDER, CRITICAL, OVER] + [_random_params(rng) for _ in range(20)]
        for params in cases:
            previous = energy(params, UNIT_START)
            for t in times[1:]:
                current = energy(params, solve_analytic(params, UNIT_START, float(t)))
                assert current <= previous + 1e-12
                previous = current

    def test_conserved_when_undamped(self):
        p = OscillatorParams(gamma=0.0, alpha=1.0)
        e0 = energy(p, UNIT_START)
        for t in np.linspace(0.0, 10.0, 50):
            assert energy(p, solve_analytic(p, UNIT_START, float(t))) == pytest.approx(e0, rel=1e-9)


# e^(A t) applied to the unit starts (1, 0) and (0, 1) at _REF_TIMES, from
# mpmath.expm of the companion matrix at 60 digits and the exact binary values
# of gamma and alpha, rounded to the nearest double.  Rows are
# (gamma, alpha, y0, ydot0, y at _REF_TIMES, ydot at _REF_TIMES).  "band" sits
# inside classify's critical band (delta < 0, = 0 and > 0), "outside" just
# beyond it, "undamped" has gamma = 0 and "stiff" gamma^2 >> alpha.  The last
# four "stiff" rows, where gamma^2/4 passes the float range, come from the
# eigenvalue form of e^(A t) at 900 digits, with roots -gamma/2 +- sqrt(delta).
_REF_TIMES = (0.1, 1.0, 5.0, 20.0)
_REF_TABLE = {
    "band": [
        (2.0, 1.0, 1.0, 0.0,
         (0.9953211598395555, 0.7357588823428847, 0.040427681994512805, 4.3284226071209714e-08),
         (-0.09048374180359596, -0.36787944117144233, -0.03368973499542734, -4.122307244877116e-08)),
        (2.0, 1.0, 0.0, 1.0,
         (0.09048374180359596, 0.36787944117144233, 0.03368973499542734, 4.122307244877116e-08),
         (0.8143536762323637, -7.557744680017481e-69, -0.026951787996341868, -3.91619188263326e-08)),
        (2.0, 1.0000000002, 1.0, 0.0,
         (0.9953211598386206, 0.735758882293834, 0.040427681949593154, 4.3284225439122554e-08),
         (-0.09048374182166255, -0.36787944123275557, -0.0336897349740905, -4.1223071907374765e-08)),
        (2.0, 1.0000000002, 0.0, 1.0,
         (0.0904837418035658, 0.3678794411591797, 0.03368973496735255, 4.122307189913015e-08),
         (0.8143536762314889, -2.4525298106837745e-11, -0.026951787985111955, -3.916191835913774e-08)),
        (2.0, 0.9999999998, 1.0, 0.0,
         (0.9953211598404905, 0.7357588823919352, 0.04042768203943245, 4.328422670329688e-08),
         (-0.09048374178552937, -0.3678794411101291, -0.03368973501676417, -4.1223072990167554e-08)),
        (2.0, 0.9999999998, 0.0, 1.0,
         (0.09048374180362612, 0.36787944118370497, 0.033689735023502115, 4.122307299841217e-08),
         (0.8143536762332383, 2.4525298107818758e-11, -0.02695178800757178, -3.916191929352746e-08)),
        (0.7, 0.1225, 1.0, 0.0,
         (0.9994016058265813, 0.9513289211202631, 0.47787834448872407, 0.007295055724436125),
         (-0.011828666349155189, -0.0863242909905424, -0.10643654036339764, -0.002234110815608564)),
        (0.7, 0.1225, 0.0, 1.0,
         (0.09656054162575665, 0.7046880897187134, 0.8688697172522257, 0.018237639311090317),
         (0.9318092266885517, 0.45804725831716375, -0.13033045758783385, -0.005471291793327096)),
        (5.0, 6.25, 1.0, 0.0,
         (0.9735009788392561, 0.2872974951836458, 5.030981782306206e-05, 9.83662422461598e-21),
         (-0.48675048941962806, -0.5130312413993675, -0.00011645791162745847, -2.410937309954897e-20)),
        (5.0, 6.25, 0.0, 1.0,
         (0.07788007830714049, 0.0820849986238988, 1.8633265860393355e-05, 3.857499695927835e-21),
         (0.5841005873035536, -0.12312749793584819, -4.285651147890472e-05, -9.450874255023197e-21)),
        (0.3, 0.022500000009, 1.0, 0.0,
         (0.999888618697064, 0.9898141728847496, 0.8266414672303491, 0.1991482732922223),
         (-0.002216501864993459, -0.019365929477281125, -0.05314123720262786, -0.022404180761057938)),
        (0.3, 0.022500000009, 0.0, 1.0,
         (0.09851119396030479, 0.8607079764237667, 2.361832763616505, 0.9957413667598339),
         (0.9703352605089726, 0.7316017799576197, 0.11809163814539775, -0.09957413673572789)),
        (0.3, 0.022499999990999997, 1.0, 0.0,
         (0.9998886186971532, 0.9898141728928833, 0.8266414673632023, 0.19914827365068927),
         (-0.0022165018632203234, -0.019365929461846475, -0.05314123716410045, -0.022404180770019613)),
        (0.3, 0.022499999990999997, 0.0, 1.0,
         (0.09851119396030775, 0.8607079764263489, 2.3618327637936423, 0.9957413679547239),
         (0.9703352605090608, 0.7316017799649787, 0.11809163822510962, -0.09957413673572789)),
    ],
    "outside": [
        (2.0, 1.000000005, 1.0, 0.0,
         (0.9953211598161805, 0.7357588811166198, 0.040427680871521654, 4.328421026903376e-08),
         (-0.09048374225526064, -0.3678794427042733, -0.033689734462006536, -4.122305891386376e-08)),
        (2.0, 1.000000005, 0.0, 1.0,
         (0.09048374180284192, 0.3678794408648761, 0.033689734293557864, 4.122305870774847e-08),
         (0.8143536762104967, -6.131323979195433e-10, -0.02695178771559408, -3.916190714646317e-08)),
        (2.0, 0.999999995, 1.0, 0.0,
         (0.9953211598629305, 0.7357588835691494, 0.04042768311750397, 4.3284241873389105e-08),
         (-0.09048374135193128, -0.3678794396386113, -0.03368973552884814, -4.122308598368117e-08)),
        (2.0, 0.999999995, 0.0, 1.0,
         (0.09048374180435, 0.3678794414780085, 0.033689735697296816, 4.12230861897966e-08),
         (0.8143536762542305, 6.131323985326757e-10, -0.026951788277089658, -3.916193050620408e-08)),
        (2.0, 1.000001, 1.0, 0.0,
         (0.9953211551645622, 0.7357586370899423, 0.04042745739663045, 4.328106570435998e-08),
         (-0.09048383213653137, -0.36787974773758503, -0.033689628311301616, -4.122036551922933e-08)),
        (2.0, 1.000001, 0.0, 1.0,
         (0.09048374165278973, 0.3678793798582052, 0.033689594621707, 4.1220324298905035e-08),
         (0.8143536718589828, -1.226264681177451e-07, -0.026951731846783546, -3.9159582893450095e-08)),
        (2.0, 0.999999, 1.0, 0.0,
         (0.9953211645145489, 0.7357591275958638, 0.04042790659309705, 4.328738657547004e-08),
         (-0.09048365147066025, -0.36787913460518307, -0.03368984167962325, -4.122577948274506e-08)),
        (2.0, 0.999999, 0.0, 1.0,
         (0.0904837419544022, 0.3678795024846856, 0.03368987536949862, 4.1225820708565775e-08),
         (0.8143536806057444, 1.2262649265665545e-07, -0.026951844145900197, -3.916425484166151e-08)),
        (0.3, 0.022500000224999997, 1.0, 0.0,
         (0.9998886186959948, 0.9898141727871453, 0.8266414656361121, 0.1991482689906197),
         (-0.0022165018862710783, -0.01936592966249687, -0.05314123766495661, -0.02240418065351787)),
        (0.3, 0.022500000224999997, 0.0, 1.0,
         (0.09851119396026933, 0.8607079763927813, 2.3618327614908554, 0.9957413524211586),
         (0.970335260507914, 0.731601779869311, 0.1180916371888555, -0.09957413673572789)),
        (0.3, 0.022499999774999998, 1.0, 0.0,
         (0.9998886186982224, 0.9898141729904876, 0.8266414689574394, 0.19914827795229198),
         (-0.0022165018419427036, -0.019365929276630726, -0.05314123670177169, -0.022404180877559677)),
        (0.3, 0.022499999774999998, 0.0, 1.0,
         (0.09851119396034322, 0.8607079764573343, 2.3618327659192917, 0.9957413822933996),
         (0.9703352605101194, 0.7316017800532874, 0.11809163918165189, -0.09957413673572789)),
    ],
    "undamped": [
        (0.0, 1.0, 1.0, 0.0,
         (0.9950041652780258, 0.5403023058681398, 0.28366218546322625, 0.40808206181339196),
         (-0.09983341664682815, -0.8414709848078965, 0.9589242746631385, -0.9129452507276277)),
        (0.0, 1.0, 0.0, 1.0,
         (0.09983341664682815, 0.8414709848078965, -0.9589242746631385, 0.9129452507276277),
         (0.9950041652780258, 0.5403023058681398, 0.28366218546322625, 0.40808206181339196)),
        (0.0, 0.01, 1.0, 0.0,
         (0.9999500004166653, 0.9950041652780258, 0.8775825618903728, -0.4161468365471424),
         (-0.0009999833334166665, -0.009983341664682815, -0.0479425538604203, -0.09092974268256818)),
        (0.0, 0.01, 0.0, 1.0,
         (0.09999833334166665, 0.9983341664682815, 4.79425538604203, 9.092974268256818),
         (0.9999500004166653, 0.9950041652780258, 0.8775825618903728, -0.4161468365471424)),
        (0.0, 9.0, 1.0, 0.0,
         (0.955336489125606, -0.9899924966004454, -0.7596879128588213, -0.9524129804151563),
         (-0.8865606199840188, -0.42336002417960167, -1.9508635204713507, 0.9144318633066502)),
        (0.0, 9.0, 0.0, 1.0,
         (0.09850673555377987, 0.04704000268662241, 0.21676261338570563, -0.10160354036740557),
         (0.955336489125606, -0.9899924966004454, -0.7596879128588213, -0.9524129804151563)),
    ],
    "stiff": [
        (10.0, 0.01, 1.0, 0.0,
         (0.9999632123407043, 0.9991003253874423, 0.9951115126455128, 0.980294761606151),
         (-0.0006321101950476592, -0.0009991548055045944, -0.0009952110437039846, -0.0009803928106931097)),
        (10.0, 0.01, 0.0, 1.0,
         (0.06321101950476592, 0.09991548055045944, 0.09952110437039845, 0.09803928106931098),
         (0.36785301729304504, -5.4480117152098454e-05, -9.953105847175533e-05, -9.804908695869386e-05)),
        (10.0, 0.1, 1.0, 0.0,
         (0.9996321490401453, 0.9910328874235631, 0.9521358137212588, 0.819387725662839),
         (-0.0063201692565023025, -0.009919800047311068, -0.009530898585806566, -0.008202087562723979)),
        (10.0, 0.1, 0.0, 1.0,
         (0.06320169256502302, 0.09919800047311067, 0.09530898585806566, 0.08202087562723978),
         (0.3676152233899151, -0.0009471173075436777, -0.0009540448593977871, -0.000821030609558744)),
        (10.0, 1.0, 1.0, 0.0,
         (0.9963240528934143, 0.9132336581333081, 0.6096653991212487, 0.13396821417138918),
         (-0.06310846900022941, -0.09225026009525891, -0.06158871225162132, -0.013533537913350305)),
        (10.0, 1.0, 0.0, 1.0,
         (0.06310846900022941, 0.09225026009525891, 0.06158871225162132, 0.013533537913350305),
         (0.3652393628911202, -0.009268942819280987, -0.006221723394964446, -0.00136716496211387)),
        (30.0, 0.01, 1.0, 0.0,
         (0.9999772247364347, 0.9996778262917424, 0.9983457959404259, 0.9933664703220209),
         (-0.0003167330182127032, -0.0003332296446899643, -0.00033278562963933464, -0.00033112583599084305)),
        (30.0, 0.01, 0.0, 1.0,
         (0.03167330182127032, 0.03332296446899643, 0.033278562963933465, 0.033112583599084304),
         (0.04977817009832511, -1.1107778150521013e-05, -1.1092977577987112e-05, -1.1037650508285342e-05)),
        (30.0, 0.1, 1.0, 0.0,
         (0.9997722607114419, 0.9967826250784446, 0.9835789430169105, 0.9356040329469808),
         (-0.00316691389190397, -0.0033229780110737165, -0.003278960846195942, -0.003119026706861316)),
        (30.0, 0.1, 0.0, 1.0,
         (0.0316691389190397, 0.03322978011073716, 0.03278960846195942, 0.03119026706861316),
         (0.049698093140251046, -0.00011077824367025672, -0.00010931084187211152, -0.00010397911141395684)),
        (30.0, 1.0, 1.0, 0.0,
         (0.9977239414336744, 0.9682584386346297, 0.8472681411720425, 0.5136080513324991),
         (-0.031627529294025604, -0.032311222625581275, -0.028273721602239916, -0.017139333288226796)),
        (30.0, 1.0, 0.0, 1.0,
         (0.031627529294025604, 0.032311222625581275, 0.028273721602239916, 0.017139333288226796),
         (0.04889806261290632, -0.0010782401328084431, -0.0009435068951549835, -0.0005719473143047501)),
        (100.0, 0.01, 1.0, 0.0,
         (0.9999909999875994, 0.9999010048028477, 0.9995011239825412, 0.9980029946763158),
         (-9.999465995514344e-05, -9.999020047058524e-05, -9.995021234856641e-05, -9.980039926813064e-05)),
        (100.0, 0.01, 0.0, 1.0,
         (0.009999465995514344, 0.009999020047058523, 0.009995021234856643, 0.009980039926813065),
         (4.4400436165006424e-05, -9.99903004609857e-07, -9.995031229897866e-07, -9.980049906872951e-07)),
        (100.0, 0.1, 1.0, 0.0,
         (0.9999100028458751, 0.9990104801477788, 0.9950223798638727, 0.9802082795419613),
         (-0.0009998745972218089, -0.0009990204704523875, -0.000995032330286681, -0.0009802180818208033)),
        (100.0, 0.1, 0.0, 1.0,
         (0.009998745972218089, 0.009990204704523874, 0.009950323302866807, 0.009802180818208033),
         (3.5405624066196056e-05, -9.990304608569011e-06, -9.950422808089951e-06, -9.8022788419767e-06)),
        (100.0, 1.0, 1.0, 0.0,
         (0.9991003253874423, 0.9901478780974895, 0.9513198184270163, 0.8187962713581453),
         (-0.009991548055045945, -0.009902469126932089, -0.009514149694400132, -0.008188781673653016)),
        (100.0, 1.0, 0.0, 1.0,
         (0.009991548055045945, 0.009902469126932089, 0.009514149694400132, 0.008188781673653016),
         (-5.4480117152098474e-05, -9.903459571943692e-05, -9.515101299700152e-05, -8.189600715636971e-05)),
        (1e155, 1e150, 1.0, 0.0,
         (0.9999990000005, 0.9999900000499998, 0.9999500012499791, 0.9998000199986667),
         (-9.999990000005e-06, -9.999900000499997e-06, -9.999500012499792e-06, -9.998000199986667e-06)),
        (1e155, 1e150, 0.0, 1.0,
         (9.999990000005e-156, 9.999900000499998e-156, 9.999500012499793e-156, 9.998000199986667e-156),
         (-9.999990000005e-161, -9.999900000499999e-161, -9.999500012499791e-161, -9.998000199986666e-161)),
        (1e200, 1e196, 1.0, 0.0,
         (0.9999900000499998, 0.9999000049998333, 0.9995001249791693, 0.9980019986673331),
         (-9.999900000499998e-05, -9.999000049998334e-05, -9.995001249791693e-05, -9.98001998667333e-05)),
        (1e200, 1e196, 0.0, 1.0,
         (9.999900000499999e-201, 9.999000049998333e-201, 9.995001249791693e-201, 9.980019986673331e-201),
         (-9.999900000499998e-205, -9.999000049998334e-205, -9.995001249791693e-205, -9.98001998667333e-205)),
    ],
}
_REF_BOUND = {"band": 5e-14, "outside": 1e-12, "undamped": 1e-15, "stiff": 1e-15}


class TestClosedFormReference:
    @pytest.mark.parametrize("kind", sorted(_REF_TABLE))
    def test_relative_error_within_bound(self, kind):
        for g, a, y0, v0, ys, vs in _REF_TABLE[kind]:
            states = [solve_analytic(OscillatorParams(g, a), OscState(y0, v0), t) for t in _REF_TIMES]
            y, v = np.array([s.y for s in states]), np.array([s.ydot for s in states])
            ys, vs = np.array(ys), np.array(vs)
            err = np.maximum(abs(y - ys), abs(v - vs)) / np.maximum(abs(ys), abs(vs))
            assert err.max() <= _REF_BOUND[kind], (g, a, y0, v0, float(err.max()))

    def test_cases_sit_where_their_kind_says(self):
        band = {(g, a) for g, a, *_ in _REF_TABLE["band"]}
        outside = {(g, a) for g, a, *_ in _REF_TABLE["outside"]}
        assert all(classify(OscillatorParams(g, a)) == "critically-damped" for g, a in band)
        assert not any(classify(OscillatorParams(g, a)) == "critically-damped" for g, a in outside)
        assert {np.sign(0.25 * g * g - a) for g, a in band} == {-1.0, 0.0, 1.0}
        assert all(g == 0.0 for g, *_ in _REF_TABLE["undamped"])
        assert all(g * g >= 100.0 * a for g, a, *_ in _REF_TABLE["stiff"])
