import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from freefock import (
    EnsembleSpec,
    build_oscillator_model,
    build_wave_model,
    dalembert_average,
    estimate_mtcf,
    gaussian_free_moments,
    hydro_moments,
    marginals,
    pinned_ensemble,
    simulate,
)
from freefock import oracle
from freefock.cuntz import apply_to_levels, hierarchy_operator
from freefock.errors import BudgetExceeded, NotADistribution, ShapeError, TrajectoryDiverged
from freefock.fock import DEFAULT_BUDGET
from freefock.oracle import (
    BLOWUP_THRESHOLD,
    TrajectorySet,
    _MomentSums,
    _newton_cubic,
    _sorted_words,
    gaussian_moment_tensors,
    linear_response,
    moment_tensor,
    simulate_wave,
)


def einsum_moment(x, n):
    """Reference for moment_tensor: the mean of the n-fold outer power by einsum."""
    if n == 0:
        return np.ones(())
    letters = "abcdefgh"[:n]
    spec = ",".join(f"s{c}" for c in letters) + "->" + letters
    return np.einsum(spec, *([x] * n)) / x.shape[0]


@st.composite
def moment_inputs(draw):
    """(x, n, chunk) with S below, at and off a multiple of chunk."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 5))
    S = draw(st.integers(2, 300))
    chunk = draw(st.one_of(st.just(S), st.integers(1, S + 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 2.0)), size=(S, d))
    return x, n, chunk


@st.composite
def fused_inputs(draw):
    """(x, max_order, chunk, shift, cuts) for the one-pass estimator.

    chunk gives blocks of one sample, blocks longer than S (one block),
    or any length in between, so the last block is often short; shift > 0
    reads the window of a smearing shift; cuts split the samples into the
    runs they are added in, some empty, most not on a block's edge.
    """
    max_order = draw(st.integers(0, 6))
    d = draw(st.integers(1, 5))
    S = draw(st.integers(2, 300))
    shift = draw(st.integers(0, 2))
    width = sum(math.comb(d + k - 1, k) for k in range((max_order + 1) // 2 + 1))
    chunk = draw(st.one_of(st.just(1), st.just(2 * S * width), st.integers(1, S * width)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 2.0)), size=(S, d + shift))
    if draw(st.booleans()):
        x = np.ascontiguousarray(x.T).T  # time-major, as the simulator returns it
    cuts = sorted(draw(st.lists(st.integers(0, S), max_size=4)))
    return x, max_order, chunk, shift, cuts


def added_in_runs(xt, cuts, *args, **kwargs):
    """``_MomentSums(d, *args, samples=S, **kwargs)``'s result with xt's (d, S) samples added in runs split at cuts."""
    d, S = xt.shape
    sums = _MomentSums(d, *args, samples=S, **kwargs)
    for lo, hi in zip([0, *cuts], [*cuts, S]):
        sums.add(xt[:, lo:hi])
    return sums.result()


def accept_cubic_roots(x, rhs, c, step_index):
    """_newton_cubic's acceptance, one mask per test: x, or TrajectoryDiverged at the first bad sample."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = x - c * x**3 - rhs
        resolved = np.abs(g) <= 1e-8 * np.maximum(1.0, np.abs(rhs))
        bad = ~(np.isfinite(x) & resolved & (3.0 * c * x * x < 1.0))
    if bad.any():
        idx = int(np.nonzero(bad)[0][0])
        raise TrajectoryDiverged(
            f"implicit cubic step {step_index} has no resolvable root (sample {idx})",
            sample_index=idx,
        )
    return x


def newton_from_rhs(rhs, c, step_index, tol=1e-14, max_iter=50):
    """Reference for _newton_cubic: Newton started from rhs, with the same acceptance."""
    x = rhs.copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            g = x - c * x**3 - rhs
            gp = 1.0 - 3.0 * c * x**2
            step = g / gp
            x = x - step
            if np.isfinite(x).all() and np.abs(step).max() <= tol * max(1.0, np.abs(x).max()):
                break
    return accept_cubic_roots(x, rhs, c, step_index)


def newton_with_masks(rhs, c, step_index, tol=1e-14, max_iter=50):
    """Reference for _newton_cubic: its iteration, with every test on per-sample arrays."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = rhs + c * (rhs * rhs * rhs)
        for _ in range(max_iter):
            x2 = x * x
            step = (x - c * x2 * x - rhs) / (1.0 - 3.0 * c * x2)
            x = x - step
            if np.isfinite(x).all() and np.abs(step).max() <= tol * max(1.0, np.abs(x).max()):
                break
    return accept_cubic_roots(x, rhs, c, step_index)


@st.composite
def cubic_inputs(draw):
    """(rhs, c, max_iter): c of either sign, rhs inside or past the fold value, a few entries NaN
    or inf; a few Newton steps leave residuals on either side of the acceptance bound."""
    c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-6, 1.0))
    fold = 2.0 / (3.0 * math.sqrt(3.0 * abs(c)))  # largest |rhs| with a root on the physical branch, c > 0
    reach = draw(st.sampled_from([0.999, 1.0, 3.0]))
    n = draw(st.integers(1, 30))
    rhs = fold * np.array(draw(st.lists(st.floats(-reach, reach), min_size=n, max_size=n)))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rhs[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return rhs, c, draw(st.sampled_from([1, 2, 3, 50]))


def column_major_simulate(model, ensemble, newton=newton_from_rhs):
    """Reference for simulate_oscillator: (S, T) arrays filled column by column.

    A data row whose interaction kernel row is nonzero carries the cubic:
    row 0 solves ``x0 - lam x0^3 = draw``, row 1 the startup update with
    ``c = dt lam``.  Velocities come from the full (S, T) acceleration array.
    """
    draws = ensemble.draw()
    x0, v0 = draws[:, 0], draws[:, 1]
    S, T, dt = draws.shape[0], model.T, model.dt
    om2, lam, f = model.omega**2, model.lam, model.forcing
    cubic_rows = [r for r in model.kernels.data_rows if lam != 0.0 and model.kernels.M[r].any()]
    x = np.empty((S, T))
    x[:, 0] = newton(x0, lam, 0) if 0 in cubic_rows else x0
    start = x[:, 0] + dt * v0 + 0.5 * dt**2 * (-om2 * x[:, 0] + f[0])
    x[:, 1] = newton(start, dt * lam, 1) if 1 in cubic_rows else start
    c = dt**2 * lam
    for r in range(2, T):
        rhs = 2.0 * x[:, r - 1] - x[:, r - 2] + dt**2 * (-om2 * x[:, r - 1] + f[r - 1])
        x[:, r] = newton(rhs, c, r) if lam != 0.0 else rhs
        bad = np.nonzero(np.abs(x[:, r]) > BLOWUP_THRESHOLD)[0]
        if bad.size:
            raise TrajectoryDiverged(
                f"|field| exceeded {BLOWUP_THRESHOLD:g} at step {r} (sample {bad[0]})",
                sample_index=int(bad[0]),
            )
    a = -om2 * x + lam * x**3 + f[None, :]
    v = np.empty((S, T))
    v[:, 0] = v0
    for r in range(1, T):
        v[:, r] = v[:, r - 1] + 0.5 * dt * (a[:, r - 1] + a[:, r])
    return x, v


def bench_like(lam, T=12, forcing=0.3, samples=3000, seed=11, rows="all"):
    """A model and ensemble like the oracle benchmark's, at a given coupling and size.

    The benchmark's model uses ``rows="interior"``; the default ``"all"``
    also puts the cubic on the two data rows, so it runs every Newton solve
    of the simulator.
    """
    model = build_oscillator_model(omega=1.0, dt=0.15, T=T, lam=lam, forcing=forcing,
                                   x0_mean=0.4, v0_mean=0.1, interaction_rows=rows)
    return model, EnsembleSpec(mean=[0.4, 0.1], cov=np.diag([0.04, 0.01]), samples=samples, seed=seed)


@pytest.fixture
def harmonic():
    return build_oscillator_model(omega=1.0, dt=0.05, T=120, lam=0.0)


class TestSimulate:
    def test_harmonic_matches_cosine(self, harmonic):
        traj = simulate(harmonic, pinned_ensemble([1.0, 0.0], samples=1, seed=0))
        t = np.arange(harmonic.T) * harmonic.dt
        err = np.abs(traj.positions[0] - np.cos(t)).max()
        assert err <= 5.0 * harmonic.dt**2

    def test_zero_data_zero_trajectories(self, harmonic):
        traj = simulate(harmonic, pinned_ensemble([0.0, 0.0], samples=3, seed=1))
        assert np.all(traj.positions == 0.0)
        assert np.all(traj.velocities == 0.0)

    def test_seed_reproducibility(self, harmonic):
        ens = EnsembleSpec(mean=[0.0, 0.0], cov=0.1, samples=50, seed=123)
        a = simulate(harmonic, ens)
        b = simulate(harmonic, ens)
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.velocities.tobytes() == b.velocities.tobytes()

    def test_different_seed_differs(self, harmonic):
        a = simulate(harmonic, EnsembleSpec(mean=[0.0, 0.0], cov=0.1, samples=50, seed=1))
        b = simulate(harmonic, EnsembleSpec(mean=[0.0, 0.0], cov=0.1, samples=50, seed=2))
        assert not np.array_equal(a.positions, b.positions)

    def test_blow_up_detected(self):
        # anti-restoring cubic: the trajectory leaves the resolvable regime
        m = build_oscillator_model(omega=0.0, dt=0.1, T=200, lam=4.0)
        with pytest.raises(TrajectoryDiverged) as info:
            simulate(m, pinned_ensemble([2.0, 1.0], samples=1, seed=0))
        assert info.value.sample_index == 0

    @pytest.mark.parametrize("rows", ["interior", "all"])
    def test_pinned_trajectory_satisfies_every_model_row(self, rows):
        # V_n = x^{(x)n} of one sharp trajectory solves level 1 of the
        # hierarchy, data rows included: K x + G - lam M x^3 = 0
        model = build_oscillator_model(omega=1.0, dt=0.15, T=8, lam=0.02, forcing=0.3,
                                       x0_mean=0.4, v0_mean=0.1, interaction_rows=rows)
        x = simulate(model, pinned_ensemble([0.4, 0.1])).positions[0]
        levels = [np.ones(()), x, np.multiply.outer(x, x), np.multiply.outer(np.multiply.outer(x, x), x)]
        image = apply_to_levels(hierarchy_operator(model.kernels), levels)
        assert np.abs(image[1]).max() <= 1e-12

    def test_moment_estimates_build_no_velocities(self):
        traj = simulate(*bench_like(0.02))
        estimate_mtcf(traj, max_order=2)
        assert "velocities" not in vars(traj)
        v = traj.velocities
        assert vars(traj)["velocities"] is v and traj.velocities is v

    def test_non_finite_velocities_raise_on_first_read(self):
        x = np.zeros((3, 4))
        traj = TrajectorySet(kind="oscillator", positions=x, velocity_rule=lambda: np.full_like(x, np.inf),
                             dt=0.1, seed=0, scheme="test")
        with pytest.raises(TrajectoryDiverged, match="non-finite velocities"):
            traj.velocities

    def test_pinned_coordinates_exact(self, harmonic):
        ens = EnsembleSpec(
            mean=[0.7, 0.1], cov=0.2, samples=40, seed=9,
            pinned=np.array([True, False]),
        )
        draws = ens.draw()
        assert np.all(draws[:, 0] == 0.7)
        assert draws[:, 1].std() > 0.0

    def test_ragged_covariance_refused(self):
        with pytest.raises(ShapeError, match="covariance does not form an array"):
            EnsembleSpec(mean=[0.4, 0.1], cov=[[0.04, 0.0], [0.01]], samples=10, seed=0)


class TestSimulatorReference:
    @pytest.mark.parametrize("forcing", [None, 0.3])
    def test_linear_trajectories_are_bit_identical(self, forcing):
        model, ens = bench_like(0.0, T=30, forcing=forcing)
        x, v = column_major_simulate(model, ens)
        traj = simulate(model, ens)
        assert np.array_equal(traj.positions, x)
        assert np.array_equal(traj.velocities, v)

    @pytest.mark.parametrize(
        "lam, rows",
        [(0.02, "all"), (-0.3, "all"), (0.02, "interior"), (-0.3, "interior")],
        ids=["0.02", "-0.3", "0.02-interior", "-0.3-interior"],
    )
    def test_time_major_layout_is_exact(self, lam, rows):
        # with the same Newton solve, only the layout differs: no float moves
        model, ens = bench_like(lam, rows=rows)
        x, v = column_major_simulate(model, ens, newton=_newton_cubic)
        traj = simulate(model, ens)
        assert np.array_equal(traj.positions, x)
        assert np.array_equal(traj.velocities, v)

    @pytest.mark.parametrize("lam", [0.02, -0.3])
    def test_predictor_start_moves_roots_by_at_most_two_ulp(self, lam):
        c = 0.15**2 * lam
        rhs = np.random.default_rng(5).normal(0.4, 0.5, 20000)
        np.testing.assert_array_max_ulp(_newton_cubic(rhs, c, 2), newton_from_rhs(rhs, c, 2), maxulp=2)
        # over a trajectory each step's difference is carried forward by the
        # linear recurrence: within 2 ulp of the largest value per step
        model, ens = bench_like(lam)
        x, v = column_major_simulate(model, ens)
        traj = simulate(model, ens)
        T = model.T
        assert np.abs(traj.positions - x).max() <= 2 * T * np.spacing(np.abs(x).max())
        assert np.abs(traj.velocities - v).max() <= 2 * T * np.spacing(np.abs(v).max())

    def test_blow_up_at_the_same_step_and_sample(self):
        model, ens = bench_like(0.5, T=40, forcing=None, samples=20000, seed=3)
        with pytest.raises(TrajectoryDiverged) as want:
            column_major_simulate(model, ens)
        with pytest.raises(TrajectoryDiverged) as got:
            simulate(model, ens)
        assert str(got.value) == str(want.value)
        assert got.value.sample_index == want.value.sample_index

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_root_past_the_fold(self, sign):
        # past the fold value of rhs the only real root lies on the far
        # branch |x| > 1/sqrt(3c), which Newton reaches from most starts
        c = 0.15**2 * 0.5
        fold = 2.0 / (3.0 * np.sqrt(3.0 * c))
        for ratio in np.linspace(1.001, 3.0, 40):
            with pytest.raises(TrajectoryDiverged) as info:
                _newton_cubic(sign * fold * np.array([0.5, ratio]), c, 7)
            assert info.value.sample_index == 1

    @settings(max_examples=300, deadline=None)
    @given(cubic_inputs())
    @example((2.0 / (3.0 * math.sqrt(0.03)) * np.array([0.5, -1.5]), 0.01, 50))  # a root on the far branch
    @example((np.array([0.3, np.nan]), -0.2, 50))
    def test_reduction_tests_keep_the_bits_and_verdicts_of_the_masks(self, case):
        rhs, c, max_iter = case
        with mock.patch.object(oracle, "NEWTON_MAX_ITER", max_iter):
            try:
                want = newton_with_masks(rhs, c, 4, max_iter=max_iter)
            except TrajectoryDiverged as exc:
                with pytest.raises(TrajectoryDiverged) as got:
                    _newton_cubic(rhs, c, 4)
                assert str(got.value) == str(exc)
                assert got.value.sample_index == exc.sample_index
            else:
                assert _newton_cubic(rhs, c, 4).tobytes() == want.tobytes()

    def test_same_root_as_newton_from_rhs_near_the_fold(self):
        c = 0.04
        fold = 2.0 / (3.0 * np.sqrt(3.0 * c))
        rng = np.random.default_rng(8)
        gap = np.geomspace(1e-1, 1e-6, 400)
        rhs = rng.choice([-1.0, 1.0], gap.size) * fold * (1.0 - gap)
        got, want = _newton_cubic(rhs, c, 2), newton_from_rhs(rhs, c, 2)
        assert np.all(3.0 * c * got**2 < 1.0)
        # the far root on the same side is at least sqrt(gap) away, relatively
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


class TestEstimateMtcf:
    def test_centered_mean_within_three_sigma(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=10, lam=0.0)
        ens = EnsembleSpec(mean=[0.0, 0.0], cov=np.diag([0.09, 0.04]), samples=4000, seed=5)
        table = estimate_mtcf(simulate(m, ens), max_order=1)
        z = np.abs(table.values[1]) / table.stderr[1]
        assert z.max() <= 3.0

    def test_harmonic_two_point_function(self):
        # continuum prediction sigma_x^2 cos cos + (sigma_v/omega)^2 sin sin,
        # up to the integrator's O(dt^2) and the Monte-Carlo error
        omega, dt, T = 1.0, 0.02, 40
        m = build_oscillator_model(omega=omega, dt=dt, T=T, lam=0.0)
        sx, sv = 0.3, 0.2
        ens = EnsembleSpec(mean=[0.0, 0.0], cov=np.diag([sx**2, sv**2]), samples=30000, seed=17)
        table = estimate_mtcf(simulate(m, ens), max_order=2)
        t = np.arange(T) * dt
        pred = sx**2 * np.outer(np.cos(t), np.cos(t)) + (sv / omega) ** 2 * np.outer(
            np.sin(t), np.sin(t)
        )
        bound = 3.0 * table.stderr[2] + 10.0 * dt**2
        assert np.all(np.abs(table.values[2] - pred) <= bound)

    def test_table_is_permutation_symmetric(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=6, lam=0.1)
        ens = EnsembleSpec(mean=[0.3, 0.0], cov=0.05, samples=500, seed=2)
        table = estimate_mtcf(simulate(m, ens), max_order=3)
        t3 = table.values[3]
        assert np.array_equal(t3, np.transpose(t3, (1, 0, 2)))
        assert np.array_equal(t3, np.transpose(t3, (2, 1, 0)))

    def test_stderr_is_classical_and_jackknife(self):
        # the docstring's claim: the standard error of each product mean is
        # std(ddof=1)/sqrt(S), which the leave-one-out jackknife equals
        m = build_oscillator_model(omega=1.0, dt=0.1, T=6, lam=0.1)
        ens = EnsembleSpec(mean=[0.3, 0.0], cov=0.05, samples=500, seed=4)
        traj = simulate(m, ens)
        x = traj.positions
        S = x.shape[0]
        table = estimate_mtcf(traj, max_order=4)
        rng = np.random.default_rng(9)
        for n in range(1, 5):
            for w in map(tuple, rng.integers(0, x.shape[1], size=(6, n))):
                prod = np.prod(x[:, list(w)], axis=1)
                classical = prod.std(ddof=1) / np.sqrt(S)
                loo = (prod.sum() - prod) / (S - 1)
                jackknife = np.sqrt((S - 1) / S * np.sum((loo - loo.mean()) ** 2))
                se = table.stderr[n][w]
                assert se == pytest.approx(classical, rel=1e-10), (n, w)
                assert se == pytest.approx(jackknife, rel=1e-10), (n, w)

    def test_needs_two_samples(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=5, lam=0.0)
        traj = simulate(m, pinned_ensemble([1.0, 0.0], samples=1, seed=0))
        with pytest.raises(ShapeError):
            estimate_mtcf(traj, max_order=1)

    def test_smeared_estimator_on_stationary_ensemble(self):
        # unforced harmonic oscillator with the stationary Gaussian ensemble
        # (sigma_v = omega sigma_x): time-shift averaging changes nothing
        omega, dt, T = 1.0, 0.1, 14
        m = build_oscillator_model(omega=omega, dt=dt, T=T, lam=0.0)
        sx = 0.3
        ens = EnsembleSpec(
            mean=[0.0, 0.0], cov=np.diag([sx**2, (omega * sx) ** 2]), samples=60000, seed=23
        )
        traj = simulate(m, ens)
        smear = {0: 0.5, 2: 0.5}
        smeared = estimate_mtcf(traj, max_order=2, smearing=smear)
        plain = estimate_mtcf(traj, max_order=2)
        Tw = T - 2
        win = plain.values[2][:Tw, :Tw]
        win_se = plain.stderr[2][:Tw, :Tw]
        diff = np.abs(smeared.values[2] - win)
        # discrete-frequency mismatch is O(dt^2); allow it alongside statistics
        assert np.all(diff <= 3.0 * (smeared.stderr[2] + win_se) + 10.0 * dt**2)

    @pytest.mark.parametrize("smearing", [{0: 0.5, 1: 0.25}, {0: 0.5, 1: 0.5 + 1e-9}, {1: 2.0}])
    def test_smearing_weights_must_sum_to_one(self, smearing):
        # the window checks the weights, so the estimator refuses them before it sums a moment
        with pytest.raises(ShapeError, match="smearing weights sum to"):
            oracle.moment_window(8, 2, smearing)
        x = np.arange(16.0).reshape(2, 8)
        traj = TrajectorySet(kind="oscillator", positions=x, velocity_rule=lambda: x, dt=0.1, seed=0, scheme="test")
        with mock.patch.object(oracle, "_MomentSums", side_effect=AssertionError("summed unweighted moments")):
            with pytest.raises(ShapeError, match="smearing weights sum to"):
                estimate_mtcf(traj, max_order=2, smearing=smearing)

    @settings(max_examples=80, deadline=None)
    @given(fused_inputs())
    def test_one_pass_matches_einsum(self, case):
        x, max_order, chunk, shift, cuts = case
        S, d = x.shape[0], x.shape[1] - shift
        window = x[:, shift:shift + d]
        if max_order:
            sums, square_sums = added_in_runs(x.T[shift:shift + d], cuts, range(1, max_order + 1), chunk, True)
        for n in range(1, max_order + 1):
            for got, ref in ((sums[n], einsum_moment(window, n)), (square_sums[n], einsum_moment(window**2, n))):
                assert np.abs((got / S).ravel()[_sorted_words(d, n)] - ref).max() <= 1e-12 * np.abs(ref).max()
        # the estimator itself, with and without smearing
        traj = TrajectorySet(kind="oscillator", positions=x, velocity_rule=lambda: x, dt=0.1, seed=0, scheme="test")
        smearing = {0: 0.25, shift: 0.75} if shift else None
        table = estimate_mtcf(traj, max_order, smearing=smearing)
        assert table.values[0] == 1.0
        for n in range(1, max_order + 1):
            ref = sum(w * einsum_moment(x[:, s:s + d], n) for s, w in (smearing or {0: 1.0}).items())
            assert np.abs(table.values[n] - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=120, deadline=None)
    @given(fused_inputs(), st.data())
    def test_sums_keep_their_bits_however_the_samples_arrive(self, case, data):
        # the sample blocks are counted from the first sample, so runs that
        # straddle them change no bit, for the whole table or its heads
        x, max_order, chunk, shift, cuts = case
        assume(max_order)
        d = x.shape[1] - shift
        xt = x.T[shift:shift + d]
        full_order = data.draw(st.sampled_from([None, *range(max_order + 1)]))
        heads = data.draw(st.one_of(st.none(), st.integers(0, 3).flatmap(
            lambda k: st.lists(st.lists(st.integers(0, d - 1), min_size=2, max_size=2), min_size=k, max_size=k)
        ).map(lambda rows: np.array(rows, dtype=np.intp).reshape(len(rows), 2))))
        args = (range(1, max_order + 1), chunk, True)
        want = added_in_runs(xt, [], *args, full_order=full_order, heads=heads)
        got = added_in_runs(xt, cuts, *args, full_order=full_order, heads=heads)
        for w, g in zip(want, got):
            assert list(g) == list(w)
            assert all(g[n].tobytes() == w[n].tobytes() for n in w)

    @settings(max_examples=80, deadline=None)
    @given(moment_inputs())
    def test_moment_tensor_matches_einsum(self, case):
        x, n, chunk = case
        ref = einsum_moment(x, n)
        with mock.patch.object(oracle, "CHUNK", chunk):
            got = moment_tensor(x, n)
        assert got.shape == (x.shape[1],) * n
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=40, deadline=None)
    @given(moment_inputs())
    def test_moment_tensor_is_exactly_symmetric(self, case):
        x, n, chunk = case
        with mock.patch.object(oracle, "CHUNK", chunk):
            t = moment_tensor(x, n)
        for perm in itertools.permutations(range(n)):
            assert np.array_equal(t, np.transpose(t, perm)), perm

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 12, 20])
    def test_order_six_block_keeps_the_order_four_width(self, d):
        # a block bounded by the whole order-6 stack would hold 108 samples at d = 12
        width = oracle._block_samples(d, 4, oracle.CHUNK)
        assert oracle._block_samples(d, 5, oracle.CHUNK) == width
        assert oracle._block_samples(d, 6, oracle.CHUNK) == width

    @pytest.mark.parametrize("d, max_order, width", [(1, 4, 1365), (2, 2, 2730), (12, 2, 3780), (12, 4, 540)])
    def test_block_width_up_to_order_four(self, d, max_order, width):
        # the widths the oracle's bits were recorded with
        assert oracle._block_samples(d, max_order, oracle.CHUNK) == width

    def test_moment_tensor_chunked_path_matches(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((300, 3))
        with mock.patch.object(oracle, "CHUNK", 64):
            a = moment_tensor(x, 5)
        b = np.einsum("sa,sb,sc,sd,se->abcde", x, x, x, x, x) / 300
        assert np.allclose(a, b, atol=1e-12)


@st.composite
def stream_inputs(draw):
    """(model, ensemble, width, chunk) with the samples spanning 3 or more stream blocks of ``width``, the last ragged."""
    T = draw(st.integers(3, 8))
    model = build_oscillator_model(omega=1.0, dt=0.15, T=T, lam=draw(st.sampled_from([0.0, 0.02, -0.3])),
                                   forcing=0.3, x0_mean=0.4, v0_mean=0.1,
                                   interaction_rows=draw(st.sampled_from(["interior", "all"])))
    width = draw(st.integers(2, 60))
    samples = draw(st.integers(2, 5)) * width + draw(st.integers(1, width - 1))
    ensemble = EnsembleSpec(mean=[0.4, 0.1], cov=np.diag([0.04, 0.01]), samples=samples,
                            seed=draw(st.integers(0, 2**63)))
    return model, ensemble, width, draw(st.integers(1, 64))


class TestStream:
    @settings(max_examples=60, deadline=None)
    @given(stream_inputs(), st.data())
    def test_stream_gives_simulates_bits(self, case, data):
        # the estimator's sample blocks (a patched CHUNK makes them short)
        # straddle the stream's; the table's orders 1-5, smearing tables and
        # compare's full_order and heads keep the bits of the whole trajectory
        model, ensemble, width, chunk = case
        T = model.T
        max_order = data.draw(st.integers(1, 5))
        shifts = data.draw(st.lists(st.integers(1, T - 1), max_size=2, unique=True))
        smearing = {0: 1.0 / (1 + len(shifts)), **{s: 1.0 / (1 + len(shifts)) for s in shifts}} if shifts else None
        Tw = T - max(shifts, default=0)
        full_order = data.draw(st.sampled_from([None, *range(max_order + 1)]))
        heads = data.draw(st.one_of(st.none(), st.lists(
            st.lists(st.integers(0, Tw - 1), min_size=3, max_size=3), min_size=1, max_size=3
        ).map(np.array)))
        entries = T * width + data.draw(st.integers(0, T - 1))
        with mock.patch.object(oracle, "STREAM_ENTRIES", entries), mock.patch.object(oracle, "CHUNK", chunk):
            stream = oracle.OscillatorStream(model, ensemble)
            blocks = [b.copy() for b in stream.blocks()]
            traj = simulate(model, ensemble)
            kwargs = dict(max_order=max_order, smearing=smearing, full_order=full_order, heads=heads)
            got, want = estimate_mtcf(stream, **kwargs), estimate_mtcf(traj, **kwargs)
        assert [b.shape[1] for b in blocks] == [width] * (ensemble.samples // width) + [ensemble.samples % width]
        assert np.concatenate(blocks, axis=1).tobytes() == traj.positions.T.tobytes()
        for n in range(max_order + 1):
            assert got.values[n].tobytes() == want.values[n].tobytes(), n
            assert got.stderr[n].tobytes() == want.stderr[n].tobytes(), n


class TestGaussianOracle:
    def test_fourth_moment_factor_three(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=6, lam=0.0)
        ens = EnsembleSpec(mean=[0.0, 0.0], cov=np.diag([0.25, 0.04]), samples=10, seed=0)
        table = gaussian_free_moments(m, ens, max_order=4)
        for t_idx in range(6):
            m2 = table.values[2][t_idx, t_idx]
            m4 = table.values[4][t_idx, t_idx, t_idx, t_idx]
            assert m4 == pytest.approx(3.0 * m2**2, rel=1e-12)

    def test_odd_moments_vanish_for_centered_data(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=5, lam=0.0)
        ens = EnsembleSpec(mean=[0.0, 0.0], cov=np.diag([0.25, 0.04]), samples=10, seed=0)
        table = gaussian_free_moments(m, ens, max_order=3)
        assert np.abs(table.values[1]).max() == 0.0
        assert np.abs(table.values[3]).max() == 0.0

    def test_agreement_with_monte_carlo(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=8, lam=0.0, forcing=0.2,
                                   x0_mean=0.1, v0_mean=0.05)
        ens = EnsembleSpec(mean=[0.1, 0.05], cov=np.diag([0.09, 0.04]), samples=10000, seed=31)
        mc = estimate_mtcf(simulate(m, ens), max_order=4)
        ana = gaussian_free_moments(m, ens, max_order=4)
        for n in range(1, 5):
            gap = np.abs(mc.values[n] - ana.values[n])
            assert np.all(gap <= 3.0 * mc.stderr[n] + 1e-12), n

    def test_pairing_recursion_against_enumeration(self):
        # 2-variable Gaussian, order 4, brute-force pairing enumeration
        mean = np.array([0.3, -0.2])
        cov = np.array([[0.5, 0.1], [0.1, 0.4]])
        got = gaussian_moment_tensors(mean, cov, 4)[4]
        import itertools

        def brute(idx):
            # sum over all ways to partition slots into singletons and pairs
            slots = list(range(4))

            def rec(rest):
                if not rest:
                    return 1.0
                i, rest = rest[0], rest[1:]
                total = mean[idx[i]] * rec(rest)
                for j_pos, j in enumerate(rest):
                    total += cov[idx[i], idx[j]] * rec(rest[:j_pos] + rest[j_pos + 1:])
                return total

            return rec(slots)

        for idx in itertools.product(range(2), repeat=4):
            assert got[idx] == pytest.approx(brute(idx), rel=1e-12)

    def test_order_budget(self):
        # the budget, not a cap on the order, bounds the pairing recursion:
        # order 9 over 4 labels is 4^9 entries, order 12 is 4^12 > 1e7
        m = build_oscillator_model(omega=1.0, dt=0.1, T=4, lam=0.0)
        ens = EnsembleSpec(mean=[0.3, 0.1], cov=0.1, samples=10, seed=0)
        table = gaussian_free_moments(m, ens, max_order=9)
        assert sorted(table.values) == list(range(10))
        top = table.values[9]
        assert top.shape == (4,) * 9 and np.abs(top).max() > 0.0
        assert np.allclose(top, np.swapaxes(top, 0, 8), rtol=1e-12, atol=0.0)
        with pytest.raises(BudgetExceeded) as info:
            gaussian_free_moments(m, ens, max_order=12)
        assert info.value.stage.startswith("gaussian_moment_tensors")
        assert (info.value.entries, info.value.budget) == (4**12, DEFAULT_BUDGET)

    def test_linear_response_is_exact(self):
        m = build_oscillator_model(omega=0.8, dt=0.1, T=12, lam=0.0, forcing=0.4,
                                   x0_mean=0.0, v0_mean=0.0)
        coeff, part = linear_response(m)
        for x0, v0 in ((0.5, -0.2), (-1.0, 0.3)):
            traj = simulate(m, pinned_ensemble([x0, v0], samples=1, seed=0))
            pred = coeff @ np.array([x0, v0]) + part
            assert np.abs(pred - traj.positions[0]).max() <= 1e-12


class TestEstimatorConsistency:
    def test_error_shrinks_like_root_samples(self):
        # a single realization of the rms error has too few effective
        # degrees of freedom for a tight ratio; average it over
        # independent repetitions at each sample size
        m = build_oscillator_model(omega=1.0, dt=0.1, T=8, lam=0.0)
        ens_kw = dict(mean=[0.0, 0.0], cov=np.diag([0.09, 0.04]))
        ana = None
        reps = 8
        errors = {}
        for s, base in ((1000, 100), (10000, 200), (100000, 300)):
            total = 0.0
            for r in range(reps):
                ens = EnsembleSpec(samples=s, seed=base + r, **ens_kw)
                table = estimate_mtcf(simulate(m, ens), max_order=2)
                if ana is None:
                    ana = gaussian_free_moments(m, ens, max_order=2)
                sq = np.concatenate(
                    [np.ravel((table.values[n] - ana.values[n]) ** 2) for n in (1, 2)]
                )
                total += sq.mean()
            errors[s] = float(np.sqrt(total / reps))
        r1 = errors[1000] / errors[10000]
        r2 = errors[10000] / errors[100000]
        root10 = np.sqrt(10.0)
        assert 0.5 * root10 <= r1 <= 1.5 * root10
        assert 0.5 * root10 <= r2 <= 1.5 * root10


class TestDalembert:
    def test_standing_wave(self):
        wm = build_wave_model(speed=1.0, nx=64, length=2.0, cfl=0.5, nt=64)
        u0 = lambda x: np.sin(np.pi * x)
        mean = np.concatenate([u0(wm.grid), np.zeros(wm.nx)])
        ens = EnsembleSpec(mean=mean, cov=0.0, samples=2, seed=0)
        out = dalembert_average(wm, ens, u0_mean=u0, w0_mean=None, steps=[32])
        rec = out[0]
        # closed form sin(pi x) cos(pi a t); the formula field must match it
        analytic = np.sin(np.pi * wm.grid) * np.cos(np.pi * rec["time"])
        assert np.abs(rec["formula"] - analytic).max() <= 1e-12
        assert np.abs(rec["formula"] - rec["simulated"]).max() <= 1e-3

    def test_velocity_term(self):
        wm = build_wave_model(speed=1.0, nx=64, length=2.0, cfl=0.5, nt=33)
        w0 = lambda x: np.cos(np.pi * x)
        mean = np.concatenate([np.zeros(wm.nx), w0(wm.grid)])
        ens = EnsembleSpec(mean=mean, cov=0.0, samples=2, seed=0)
        out = dalembert_average(wm, ens, u0_mean=lambda x: 0.0 * x, w0_mean=w0, steps=[32])
        rec = out[0]
        analytic = np.cos(np.pi * wm.grid) * np.sin(np.pi * rec["time"]) / np.pi
        assert np.abs(rec["formula"] - analytic).max() <= 1e-6
        assert np.abs(rec["formula"] - rec["simulated"]).max() <= 1e-3

    def test_zero_mean_gaussian_averages_to_zero(self):
        wm = build_wave_model(speed=1.0, nx=32, length=2.0, cfl=0.5, nt=16)
        ens = EnsembleSpec(mean=np.zeros(64), cov=0.01, samples=4000, seed=3)
        out = dalembert_average(wm, ens, u0_mean=lambda x: 0.0 * x, w0_mean=None, steps=[15])
        rec = out[0]
        assert np.all(np.abs(rec["simulated"]) <= 4.0 * rec["stderr"] + 1e-12)
        assert np.abs(rec["formula"]).max() == 0.0

    def test_pinned_hybrid_splits_linearly(self):
        # a few pinned grid points on a zero-mean Gaussian background: the
        # ensemble mean equals the deterministic propagation of the pinned
        # data (linearity), within statistics
        wm = build_wave_model(speed=1.0, nx=32, length=2.0, cfl=0.5, nt=16)
        nx = wm.nx
        mean = np.zeros(2 * nx)
        pinned = np.zeros(2 * nx, dtype=bool)
        bump = np.exp(-0.5 * ((wm.grid - 1.0) / 0.15) ** 2)
        mean[:nx] = bump
        pinned[:nx] = True
        ens = EnsembleSpec(mean=mean, cov=0.01, samples=4000, seed=11, pinned=pinned)
        traj = simulate_wave(wm, ens)
        det = simulate_wave(wm, EnsembleSpec(mean=mean, cov=0.0, samples=1, seed=0))
        sim_mean = traj.positions[:, -1, :].mean(axis=0)
        se = traj.positions[:, -1, :].std(axis=0, ddof=1) / np.sqrt(traj.samples)
        assert np.all(np.abs(sim_mean - det.positions[0, -1, :]) <= 4.0 * se + 1e-12)


class TestMarginals:
    def test_uniform(self):
        f = np.full((2, 2), 0.25)
        assert np.allclose(marginals(f, 1), [0.5, 0.5], atol=0)

    def test_product_distribution_factorizes(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.5, 0.3, 0.2])
        f = np.multiply.outer(p, q)
        assert np.allclose(marginals(f, 1), p, atol=1e-15)

    def test_composition_law_exact(self):
        rng = np.random.default_rng(4)
        f = rng.random((3, 4, 2))
        f /= f.sum()
        a = marginals(f, 1)
        b = marginals(marginals(f, 2), 1)
        assert np.array_equal(a, b)

    def test_rejects_negative(self):
        with pytest.raises(NotADistribution):
            marginals(np.array([-0.5, 1.5]), 1)


class TestHydroMoments:
    def test_zeroth_moment_is_mean_velocity(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=8, lam=0.0)
        ens = EnsembleSpec(mean=[0.2, 0.3], cov=0.04, samples=500, seed=6)
        traj = simulate(m, ens)
        hm = hydro_moments(traj, k=0)
        assert np.allclose(hm.route_products, traj.velocities.mean(axis=0), atol=1e-14)
        assert np.array_equal(hm.route_field, hm.route_products) or np.allclose(
            hm.route_field, hm.route_products, atol=1e-12
        )

    def test_single_sample_routes_agree_exactly(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=8, lam=0.1, forcing=0.2)
        traj = simulate(m, pinned_ensemble([0.5, -0.1], samples=1, seed=0))
        hm = hydro_moments(traj, k=2)
        assert np.allclose(hm.route_field, hm.route_products, rtol=0, atol=0)

    def test_harmonic_ensemble_within_three_sigma(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=10, lam=0.0)
        ens = EnsembleSpec(mean=[0.3, 0.1], cov=np.diag([0.09, 0.04]), samples=3000, seed=8)
        traj = simulate(m, ens)
        for k in (0, 1, 2):
            hm = hydro_moments(traj, k=k)
            assert hm.max_discrepancy_sigma() <= 3.0
