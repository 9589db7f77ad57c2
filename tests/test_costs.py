import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddcontrol.costs import (CostFunction, CostSegment, QuadraticScheduledCost,
                             QuadraticSoftplusCost, QuadraticTrackingCost,
                             hvac_cost_schedule, piecewise_linear_profile)
from ddcontrol.costs import _logistic
from ddcontrol.harness import ExperimentConfig, shipped_config_path

from helpers import SwitchingQuadraticCost, central_diff


def scheduled_single(output_weight, input_weight, setpoint, price=1.0, m=1):
    p = np.atleast_1d(setpoint).size
    return QuadraticScheduledCost(
        m=m,
        segments=[CostSegment(0, output_weight * np.eye(p), input_weight,
                              np.atleast_1d(setpoint).astype(float))],
        price_series=np.full(10, price),
    )


# ---------------------------------------------------------------- eval

def test_eval_at_setpoint_is_zero():
    c = scheduled_single(1.0, 10.0, 3.0)
    assert c.eval(0, np.array([0.0, 3.0])) == 0.0


def test_eval_arithmetic_example():
    # 0.5 * (0 - 3)^2 + 0.5 * 10 * 1^2 = 4.5 + 5 = 9.5
    c = scheduled_single(1.0, 10.0, 3.0)
    assert_allclose(c.eval(0, np.array([1.0, 0.0])), 9.5)


def test_eval_linear_in_input_weight():
    z = np.array([0.7, 1.1])
    c1 = scheduled_single(0.0 + 1.0, 4.0, 3.0)
    c2 = scheduled_single(0.0 + 1.0, 8.0, 3.0)
    out_term = 0.5 * (z[1] - 3.0) ** 2
    assert_allclose(c2.eval(0, z) - out_term,
                    2.0 * (c1.eval(0, z) - out_term))


def test_eval_beyond_horizon_raises():
    c = scheduled_single(1.0, 10.0, 3.0)
    with pytest.raises(IndexError, match="beyond configured horizon"):
        c.eval(10, np.zeros(2))
    with pytest.raises(IndexError):
        c.eval(-1, np.zeros(2))


# ---------------------------------------------------------------- grad

def test_grad_zero_at_unconstrained_minimum():
    c = scheduled_single(1.0, 10.0, 3.0)
    assert_allclose(c.grad(0, np.array([0.0, 3.0])), np.zeros(2), atol=1e-15)


def test_grad_hand_example():
    c = scheduled_single(1.0, 10.0, 3.0)
    assert_allclose(c.grad(0, np.array([1.0, 0.0])), [10.0, -3.0])


@pytest.mark.parametrize("family", ["tracking", "softplus", "scheduled"])
def test_grad_matches_central_differences(family):
    rng = np.random.default_rng(17)
    if family == "tracking":
        M = rng.normal(size=(3, 3))
        cost = QuadraticTrackingCost(H=M @ M.T + np.eye(3),
                                     target=rng.normal(size=3))
    elif family == "softplus":
        M = rng.normal(size=(3, 3))
        cost = QuadraticSoftplusCost(H=M @ M.T + np.eye(3),
                                     target=rng.normal(size=3),
                                     a=rng.normal(size=3), c=1.5)
    else:
        cost = hvac_cost_schedule(p=2, m=1, day_steps=48)
    dim = 3 if family != "scheduled" else 3
    for _ in range(100):
        t = int(rng.integers(0, 10))
        z = rng.normal(size=dim) * 2.0
        g = cost.grad(t, z)
        fd = central_diff(lambda v: cost.eval(t, v), z)
        assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_logistic_matches_scipy_expit():
    from scipy.special import expit

    x = np.linspace(-700.0, 700.0, 200_001)
    ref = expit(x)
    assert np.all(np.abs(_logistic(x) - ref) <= 4 * np.spacing(ref))


def test_logistic_does_not_overflow():
    # exp(-1000) underflows to 0, the correctly rounded value; nothing
    # overflows, divides by zero or turns invalid
    with np.errstate(all="raise", under="ignore"):
        assert_allclose(_logistic(np.array([-1000.0, 1000.0])), [0.0, 1.0],
                        rtol=0, atol=0)
        assert float(_logistic(1000.0)) == 1.0


# ---------------------------------------------------------------- moduli

def test_moduli_validation():
    with pytest.raises(ValueError, match="alpha_z"):
        QuadraticTrackingCost(H=np.diag([0.0, 1.0]), target=np.zeros(2))
    c = QuadraticTrackingCost(H=np.diag([2.0, 5.0]), target=np.zeros(2))
    assert (c.alpha_z, c.l_z) == (2.0, 5.0)


def test_convexity_smoothness_sandwich():
    rng = np.random.default_rng(23)
    M = rng.normal(size=(4, 4))
    cost = QuadraticSoftplusCost(H=M @ M.T + 0.5 * np.eye(4),
                                 target=rng.normal(size=4),
                                 a=rng.normal(size=4), c=2.0)
    for _ in range(50):
        z1, z2 = rng.normal(size=4) * 3, rng.normal(size=4) * 3
        gap = (cost.eval(0, z1) - cost.eval(0, z2)
               - cost.grad(0, z2) @ (z1 - z2))
        d2 = 0.5 * np.sum((z1 - z2) ** 2)
        assert cost.alpha_z * d2 - 1e-9 <= gap <= cost.l_z * d2 + 1e-9


# ---------------------------------------------------------------- schedule

def test_schedule_breakpoints_must_increase():
    seg = lambda s: CostSegment(s, np.eye(1), 1.0, np.zeros(1))
    with pytest.raises(ValueError, match="strictly increase"):
        QuadraticScheduledCost(m=1, segments=[seg(0), seg(5), seg(5)],
                               price_series=np.ones(10))
    with pytest.raises(ValueError, match="strictly increase"):
        QuadraticScheduledCost(m=1, segments=[seg(2)], price_series=np.ones(10))


def test_schedule_rejects_nonpositive_price():
    with pytest.raises(ValueError, match="positive"):
        QuadraticScheduledCost(
            m=1, segments=[CostSegment(0, np.eye(1), 1.0, np.zeros(1))],
            price_series=np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_schedule_rejects_non_finite_price(bad):
    # NaN fails no comparison, so a positivity test alone lets it through
    with pytest.raises(ValueError, match="positive and finite"):
        QuadraticScheduledCost(
            m=1, segments=[CostSegment(0, np.eye(1), 1.0, np.zeros(1))],
            price_series=np.array([1.0, bad, 1.0]))


@pytest.mark.parametrize("field", ["input_weight", "output_weight", "setpoint"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_schedule_rejects_non_finite_segment(field, bad):
    # a NaN input weight passes `<= 0`, and a NaN output weight or setpoint
    # was not checked at all; each once ran to regret = nan
    params = {"input_weight": 1.0, "output_weight": np.eye(1), "setpoint": np.zeros(1)}
    params[field] = bad * np.ones_like(params[field])
    with pytest.raises(ValueError, match="must be finite"):
        QuadraticScheduledCost(
            m=1, segments=[CostSegment(0, params["output_weight"],
                                       params["input_weight"], params["setpoint"])],
            price_series=np.ones(3))


def test_schedule_hessians_within_moduli():
    cost = hvac_cost_schedule(p=3, m=5, day_steps=96)
    H, _ = cost.stacked_quadratic_terms(np.array([0, 30, 50, 95]))
    for w in np.linalg.eigvalsh(H):
        assert cost.alpha_z - 1e-12 <= w[0]
        assert w[-1] <= cost.l_z + 1e-12


def assert_array_forms_match_params_at(cost, times):
    """The runs and terms of a schedule, checked against ``params_at`` per time."""
    params = [cost.params_at(int(t)) for t in times]
    # a run ends where the segment's weights, the price or the setpoint change
    changed = [i == 0 or any(np.any(a != b) for a, b in zip(params[i], params[i - 1]))
               for i in range(len(times))]
    np.testing.assert_array_equal(cost.run_starts(times), np.flatnonzero(changed))
    m = cost.m
    for (W, iw, sp), H, g in zip(params, *cost.stacked_quadratic_terms(times)):
        H_ref = np.zeros((m + cost.p, m + cost.p))
        H_ref[:m, :m] = iw * np.eye(m)
        H_ref[m:, m:] = W
        np.testing.assert_array_equal(H, H_ref)
        np.testing.assert_array_equal(g, np.concatenate([np.zeros(m), -W @ sp]))


def test_schedule_quadratic_terms_match_parameters():
    # the terms are the closed form of params_at, bit for bit, at every t
    cost = hvac_cost_schedule(p=3, m=5, day_steps=96)
    assert_array_forms_match_params_at(cost, np.arange(cost.horizon))


def test_schedule_quadratic_terms_survive_caller_mutation():
    cost = hvac_cost_schedule(p=3, m=5, day_steps=96)
    times = np.array([40, 41])           # same segment, other price
    H0, g0 = (np.copy(x) for x in cost.stacked_quadratic_terms(times))
    H, g = cost.stacked_quadratic_terms(times)
    H += 1.0
    g += 1.0
    for got, want in zip(cost.stacked_quadratic_terms(times), (H0, g0)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("make", [
    lambda: QuadraticTrackingCost(H=np.diag([1.0, 4.0]), target=np.array([1.0, -1.0])),
    lambda: SwitchingQuadraticCost(np.diag([1.0, 4.0]), [[1.0, -1.0], [0.0, 2.0]],
                                   [0, 5]),
], ids=["tracking", "switching"])
def test_quadratic_terms_hessian_is_the_callers_copy(make):
    # editing the returned Hessian must leave the cost as it was
    cost = make()
    before = cost.eval(0, np.zeros(2))
    H, _ = cost.stacked_quadratic_terms(np.array([0, 7]))
    H *= 3.0
    assert cost.eval(0, np.zeros(2)) == before
    np.testing.assert_array_equal(cost.stacked_quadratic_terms(np.array([0]))[0],
                                  [np.diag([1.0, 4.0])])


# ---------------------------------------------------------------- array forms

@pytest.mark.parametrize("times", [np.arange(1440), np.arange(359, 541),
                                   np.array([360]), np.array([540, 541])],
                         ids=["day", "segment-starts", "360", "540"])
def test_shipped_day_array_forms_equal_scalar_forms(times):
    # the oracle reads the runs and the terms of every t in one call each;
    # they are what params_at gives at each t, bit for bit
    cost = ExperimentConfig.from_json(shipped_config_path()).build()[2]
    assert [seg.start for seg in cost.segments] == [0, 360, 540]
    assert cost.horizon == 1440
    assert_array_forms_match_params_at(cost, times)


def test_array_forms_refuse_times_beyond_the_horizon():
    cost = ExperimentConfig.from_json(shipped_config_path()).build()[2]
    for times in (np.array([0, 1440]), np.array([-1, 0])):
        with pytest.raises(IndexError, match="beyond configured horizon"):
            cost.run_starts(times)
        with pytest.raises(IndexError, match="beyond configured horizon"):
            cost.stacked_quadratic_terms(times)


def test_shipped_day_stacked_eval_matches_eval():
    # the oracle's opt_cost: one array call over a run start per step, at
    # round-off from eval on the 8-dimensional thermal point
    cost = ExperimentConfig.from_json(shipped_config_path()).build()[2]
    times = np.arange(cost.horizon)
    points = np.random.default_rng(4).normal(size=(times.size, 8))
    want = [cost.eval(int(t), z) for t, z in zip(times, points)]
    assert_allclose(cost.stacked_eval(times, points), want, rtol=1e-13)


def test_scalar_schedule_stacked_eval_is_eval_bit_for_bit():
    # one input and one output leave no sum to reorder, so the scalar
    # benchmark's opt_cost keeps eval's bits
    cost = QuadraticScheduledCost(
        m=1, segments=[CostSegment(0, np.array([[1.0]]), 2.0, np.array([0.7])),
                       CostSegment(40, np.array([[3.0]]), 0.5, np.array([-1.3]))],
        price_series=np.random.default_rng(5).uniform(0.5, 2.0, 100))
    times = np.arange(100)
    points = np.random.default_rng(6).normal(size=(100, 2))
    np.testing.assert_array_equal(
        cost.stacked_eval(times, points),
        [cost.eval(int(t), z) for t, z in zip(times, points)])
    with pytest.raises(IndexError, match="beyond configured horizon"):
        cost.stacked_eval(np.array([100]), points[:1])


def test_default_array_forms_make_every_time_its_own_run():
    # a cost that states no runs and no terms is solved once per time,
    # by the iterative oracle
    times = np.array([3, 4, 4, 9])
    np.testing.assert_array_equal(CostFunction().run_starts(times), np.arange(4))
    assert CostFunction().stacked_quadratic_terms(times) is None


@pytest.mark.parametrize("make, starts, quadratic", [
    (lambda: QuadraticTrackingCost(H=np.diag([1.0, 4.0]), target=np.array([1.0, -1.0])),
     [0], True),
    (lambda: SwitchingQuadraticCost(np.diag([2.0, 1.0]), [[0.0, 0.0], [1.5, 3.0]],
                                    [0, 50]), [0, 50], True),
    (lambda: QuadraticSoftplusCost(H=np.eye(2), target=np.zeros(2),
                                   a=np.array([1.0, -1.0])), [0], False),
], ids=["tracking", "switching", "softplus"])
def test_other_costs_array_forms_equal_scalar_forms(make, starts, quadratic):
    # a static cost is one run, and a switching cost one run per target;
    # the quadratic terms give eval, up to its value at 0, and grad at every time
    cost = make()
    times = np.arange(120)
    np.testing.assert_array_equal(cost.run_starts(times), starts)
    points = np.random.default_rng(7).normal(size=(120, 2))
    terms = cost.stacked_quadratic_terms(times)
    assert (terms is not None) == quadratic
    if quadratic:
        for t, z, H, g in zip(times, points, *terms):
            c = cost.eval(int(t), np.zeros(2))
            assert_allclose(0.5 * z @ H @ z + g @ z + c, cost.eval(int(t), z), rtol=1e-12)
            assert_allclose(H @ z + g, cost.grad(int(t), z), rtol=1e-12, atol=1e-12)
    assert type(cost).stacked_eval is CostFunction.stacked_eval
    np.testing.assert_array_equal(
        cost.stacked_eval(times, points),
        [cost.eval(t, z) for t, z in enumerate(points)])


# ---------------------------------------------------------------- daily schedule

def test_hvac_schedule_night_weight_at_3am():
    cost = hvac_cost_schedule(p=3, m=5, day_steps=1440)
    W, _, _ = cost.params_at(180)  # 3 am
    assert_allclose(W, 0.1 * np.eye(3))
    W_day, _, _ = cost.params_at(370)  # just after 6 am
    assert_allclose(W_day, np.eye(3))


def test_hvac_schedule_setpoints_around_switch():
    cost = hvac_cost_schedule(p=3, m=5, day_steps=1440)
    _, _, sp_7am = cost.params_at(420)
    assert_allclose(sp_7am, 3.0 * np.ones(3))   # 18 - 15
    _, _, sp_10am = cost.params_at(600)
    assert_allclose(sp_10am, 6.0 * np.ones(3))  # 21 - 15


def test_hvac_schedule_price_mean_one():
    cost = hvac_cost_schedule(p=3, m=5, day_steps=1440)
    assert_allclose(cost.price_series.mean(), 1.0, atol=1e-12)
    assert np.all(cost.price_series > 0)


def test_hvac_schedule_rejects_nonpositive_price_knots():
    with pytest.raises(ValueError, match="positive"):
        hvac_cost_schedule(p=3, m=5, day_steps=96,
                           price_knots=[(0.0, 1.0), (12.0, -0.5), (24.0, 1.0)])


def test_piecewise_profile_knots_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        piecewise_linear_profile([(0.0, 1.0), (0.0, 2.0)], 10, 1.0)
