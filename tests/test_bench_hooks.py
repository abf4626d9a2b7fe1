"""The benchmark's hooks into the library still hold.

``perfbench/tracer.py`` rebinds library functions by name.  A refactor
that renames or deletes one of them fails here, not in a traced
benchmark run.  The outputs of all three workloads are checked against
their stored fingerprints here too, so that a change to the series', the
oracle's or the other solvers' results, or to the identity catalog's
entry ids, fails the test suite and not only a benchmark run.  The
stops of the reach probes are pinned too, because moving one outward
lengthens the traced closure run.
"""

import inspect
import json
import tracemalloc

import pytest

from freefock import cli, cuntz, inverse, simulate, solver
from freefock.cuntz import interaction_operator, kernel_residual
from freefock.errors import BudgetExceeded
from freefock.fock import storage_size
from helpers import load_perfbench


def load_tracer():
    return load_perfbench("tracer")


def test_every_traced_target_exists():
    targets = load_tracer().TARGETS
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if not callable(getattr(owner, attr, None))]
    assert not missing, missing


@pytest.mark.parametrize("variant", [0, 13])
def test_series_workload_matches_stored_fingerprints(tmp_path, variant):
    # perturbation_series at T=12, L=6, order 3: 3M-entry levels, whose
    # composed (K+G) right inverse would hold a 7-slot kernel past the budget
    workloads = load_perfbench("workloads")
    stored = json.loads(workloads.FINGERPRINTS.read_text())
    wl = workloads.Series(workloads.make_inputs(variant), tmp_path, stored)
    for op in wl.ops:
        assert wl.check(op, wl.call(op)) is None, op


def test_series_frees_what_it_no_longer_reads_before_the_residual(traced_peak):
    # the series holds two level lists, the running sum (the free seed's own
    # arrays) and the current term, whose arrays the next term overwrites;
    # the last term is freed before the residual, which needs the sum and
    # one column block of its image at a time, so at T=10, L=6 the peak
    # stays under 2.5 vectors (the seed, its copy in the sum and two whole
    # terms made about 4)
    workloads = load_perfbench("workloads")
    kernels = workloads.oscillator(workloads.make_inputs(7), 10, 0.02, rows="interior").kernels
    solver.perturbation_series(kernels, L=2, order=1)  # first-call allocations
    vector_bytes = 8 * storage_size(kernels.space.d, 6)
    _, peak = traced_peak(solver.perturbation_series, kernels, L=6, order=3)
    assert peak <= 2.5 * vector_bytes


def test_series_loop_holds_one_level_L_array(traced_peak, monkeypatch):
    # a term keeps its levels below L = 6, and its level 6 is added into
    # the sum in blocks, so until the residual starts, the sum holds the
    # one level-6 array and the peak at T=10 stays under 1.3 vectors
    # (storing each term's level 6 made about 2.0)
    workloads = load_perfbench("workloads")
    kernels = workloads.oscillator(workloads.make_inputs(7), 10, 0.02, rows="interior").kernels
    solver.perturbation_series(kernels, L=2, order=1)  # first-call allocations
    vector_bytes = 8 * storage_size(kernels.space.d, 6)
    peaks = []
    residual = solver.residual_by_level

    def measured(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return residual(*args, **kwargs)

    monkeypatch.setattr(solver, "residual_by_level", measured)
    rep, _ = traced_peak(solver.perturbation_series, kernels, L=6, order=3)
    assert rep.extras["orders_used"] == 3
    assert len(peaks) == 1 and peaks[0] <= 1.3 * vector_bytes, peaks


def test_residual_adds_its_image_and_one_column_block(traced_peak):
    # each level's image is formed one column block of 512 KB at a time,
    # as the sum of K's, G's and N's products on it, and reduced to its
    # max-abs before the next block, so at T=10, L=6 (8.9 MB per vector)
    # the residual holds a block and one product, not an image level
    workloads = load_perfbench("workloads")
    kernels = workloads.oscillator(workloads.make_inputs(7), 10, 0.02, rows="interior").kernels
    V = solver.perturbation_series(kernels, L=6, order=3).V
    vector_bytes = 8 * storage_size(kernels.space.d, 6)
    _, peak = traced_peak(solver.residual_by_level, V, kernels)
    assert peak <= 1.3 * vector_bytes


def series_kernels_T10():
    """The series workload's model at T=10 (variant 7), after a small series has made the first-call allocations."""
    workloads = load_perfbench("workloads")
    kernels = workloads.oscillator(workloads.make_inputs(7), 10, 0.02, rows="interior").kernels
    solver.perturbation_series(kernels, L=2, order=1)
    return kernels, 8 * storage_size(kernels.space.d, 6)


def test_series_peaks_at_its_sum_and_the_residual_blocks(traced_peak):
    # at T=10, L=6 the series holds its sum, which it returns, and the
    # term's levels below 6 (1.15 vectors), and in the residual the sum and
    # one column block of the image; with the residual's whole image next
    # to the sum it peaked at 2.25
    kernels, vector_bytes = series_kernels_T10()
    _, peak = traced_peak(solver.perturbation_series, kernels, L=6, order=3)
    assert peak <= 1.3 * vector_bytes


@pytest.mark.parametrize("rows", ["all", "equation"])
def test_residual_holds_column_blocks_only(traced_peak, rows):
    # each block of 512 KB is reduced before the next is formed, so the
    # residual at T=10, L=6 peaks at 0.12 vectors; the whole image made 1.24
    kernels, vector_bytes = series_kernels_T10()
    V = solver.perturbation_series(kernels, L=6, order=3).V
    _, peak = traced_peak(solver.residual_by_level, V, kernels, rows)
    assert peak <= 0.2 * vector_bytes


def test_rational_residual_holds_one_image_and_one_scaled_level(traced_peak):
    # the transformed residual is a chain: (K + G) V, N's image of it
    # (levels <= L-2) subtracted in place, then lam V added one level at a
    # time, so at T=30, L=4 (variant 7, 6.5 MB per vector) it holds the
    # image and lam V_L, 2.0 vectors; composing N (K + G) made 3.13
    workloads = load_perfbench("workloads")
    kernels = workloads.closure_model(workloads.make_inputs(7), 30).kernels
    solver.rational_transformed_residual(kernels, 0.05, solver.free_solution(kernels, 3))  # builds N's matrix
    V = solver.free_solution(kernels, 4)
    _, peak = traced_peak(solver.rational_transformed_residual, kernels, 0.05, V)
    assert peak <= 2.2 * 8 * storage_size(kernels.space.d, 4)


def test_closed_solve_holds_one_dense_level_three_array(traced_peak):
    # the range basis is read from N's d x d^3 block and A is scanned only
    # on levels <= L-2, so at T=12, L=4 the one d^3 x d^3 array the solve
    # holds is the SVD's V^T; P_N's own level-3 block next to it would
    # put the peak above 2 such arrays
    workloads = load_perfbench("workloads")
    kernels = workloads.closure_model(workloads.make_inputs(7), 12).kernels
    workloads.run_closure_op("closed", workloads.closure_model(workloads.make_inputs(7), 6).kernels)
    _, peak = traced_peak(workloads.run_closure_op, "closed", kernels)
    assert peak <= 1.6 * 8 * kernels.space.d**6


def test_residual_stderr_forms_one_image_and_its_root_in_place(traced_peak):
    # at T=30, L=4 (d = 30, so a d^4 kernel is about a vector) the error
    # propagation holds N, built on first use and kept on the kernel set,
    # N's squared kernel and its matrix, the squared standard errors and
    # one image, whose square root is taken in place: 5.03 vectors.
    # Validating the squares and the image as vectors and taking the root
    # into a third made 5.90
    workloads = load_perfbench("workloads")
    small = workloads.closure_model(workloads.make_inputs(7), 5).kernels
    solver.propagate_residual_stderr(small, solver.free_solution(small, 4))  # first-call allocations
    kernels = workloads.closure_model(workloads.make_inputs(7), 30).kernels
    se = solver.free_solution(kernels, 4)
    _, peak = traced_peak(solver.propagate_residual_stderr, kernels, se)
    assert peak <= 5.5 * 8 * storage_size(kernels.space.d, 4)


@pytest.mark.parametrize("variant", [0, 13])
def test_oracle_workload_matches_stored_fingerprints(tmp_path, variant):
    workloads = load_perfbench("workloads")
    stored = json.loads(workloads.FINGERPRINTS.read_text())
    wl = workloads.Oracle(workloads.make_inputs(variant), tmp_path, stored)
    for op in wl.ops:
        assert wl.check(op, wl.call(op)) is None, op


def oracle_workload(run_dir):
    """The oracle workload of variant 7, with its model and ensemble as the CLI builds them."""
    workloads = load_perfbench("workloads")
    wl = workloads.Oracle(workloads.make_inputs(7), run_dir)
    config = cli.load_config(wl.config)
    model = cli.build_model(config)
    return wl, model, cli.build_ensemble(config, model, cli._ORACLE_KEYS[model.kind])


def test_simulate_builds_no_velocities(traced_peak, tmp_path):
    # at T=12 and 1e5 samples simulate holds the (T, S) positions, the
    # draws and the Newton solve's per-sample temporaries: 1.75 times the
    # positions; building the velocities with them made 2.5
    _, model, ensemble = oracle_workload(tmp_path)
    traj, peak = traced_peak(simulate, model, ensemble)
    assert peak <= 1.9 * traj.positions.nbytes


def test_oracle_run_frees_the_trajectory_before_writing(traced_peak, tmp_path):
    # the rows are streamed from the estimates after the positions are
    # dropped, so the peak is simulate's (1.76 positions); holding the
    # positions, the velocities and a list of every row made 2.83
    wl, model, ensemble = oracle_workload(tmp_path)
    _, peak = traced_peak(wl.call, "oracle_run")
    assert peak <= 1.9 * 8 * model.T * ensemble.samples


@pytest.mark.parametrize("variant", [0, 13])
def test_closure_workload_matches_stored_fingerprints(tmp_path, variant):
    workloads = load_perfbench("workloads")
    stored = json.loads(workloads.FINGERPRINTS.read_text())
    wl = workloads.Closure(workloads.make_inputs(variant), tmp_path, stored)
    for op in wl.ops:
        assert wl.check(op, wl.call(op)) is None, op


@pytest.mark.parametrize("T, count", [(6, 64), (9, 5)])
def test_closed_null_dimensions_on_the_benchmark_variants(T, count):
    # {1: 1, 2: T} is what the SVD of P_N's d^3 x d^3 block gave on each of
    # these variants; the basis from N's d x d^3 block leaves the same
    # directions undetermined
    workloads = load_perfbench("workloads")
    assert workloads.VARIANTS == 64
    for variant in range(count):
        kernels = workloads.closure_model(workloads.make_inputs(variant), T).kernels
        report = workloads.run_closure_op("closed", kernels)
        assert report.extras["null_dimensions"] == {1: 1, 2: T}, variant


@pytest.mark.parametrize(
    "op, T", [("closed", 15), ("catalog", 26), ("triangular", 56), ("rational", 56)]
)
def test_reach_probes_stop_where_the_budget_stops_them(op, T):
    """Each reach probe still stops at the T where the default budget stops it.

    The traced closure run steps T upward per method until the budget
    stops it, with only a 30 s cap per probe, and the closed probes at
    T = 11..14 take 0.12 to 0.6 s each on one core.  A change that moves a stop
    outward lengthens that run, and a traced closure run has timed out
    this way, so each stop is pinned here.  Each of these raises in well
    under a second; the probes use the benchmark's lambda and q.
    """
    workloads = load_perfbench("workloads")
    lam, q = (0.05, 0.3) if op == "catalog" else (0.02, 0.0)
    kernels = workloads.closure_model(workloads.make_inputs(7), T, lam, q).kernels
    with pytest.raises(BudgetExceeded):
        workloads.run_closure_op(op, kernels)


def test_closed_reach_probe_stops_on_its_dense_block_check():
    # at T = 15, L = 4 the level-3 dense block holds 15^6 > 1e7 entries
    workloads = load_perfbench("workloads")
    kernels = workloads.closure_model(workloads.make_inputs(7), 15).kernels
    with pytest.raises(BudgetExceeded) as info:
        workloads.run_closure_op("closed", kernels)
    assert info.value.stage == "closed_equation_solve: dense level-3 block 3375x3375"
    assert info.value.entries == 15**6


def record_compose(monkeypatch):
    """Record ``(a, b, budget, result)`` of every ``compose`` call the library makes."""
    calls = []
    original = cuntz.compose
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        result = original(*args, **kwargs)
        calls.append((bound.arguments["a"], bound.arguments["b"], bound.arguments["budget"], result))
        return result

    for module in (cuntz, inverse, solver):
        monkeypatch.setattr(module, "compose", recording)
    return calls


def test_closure_operations_pass_the_callers_budget_to_every_compose(monkeypatch):
    # The closed solve on the T=6 closure model and the identity catalog on
    # the T=5 catalog model compose every product under the caller's budget,
    # and at L=4 the closed solve composes nothing with more than 4 slots:
    # its branching term is Kinv Q_G (N - (N R) N), never the 6-slot P_N.
    workloads = load_perfbench("workloads")
    budget = 123_456_789

    def slots(*ops):
        return max((t.n_create + t.n_annihilate for op in ops for t in op.terms), default=0)

    calls = record_compose(monkeypatch)
    inp = workloads.make_inputs(7)
    closed = solver.closed_equation_solve(workloads.closure_model(inp, 6).kernels, 4, budget=budget)
    assert closed.extras["branching_residual"] == 0.0
    closed_calls, calls[:] = list(calls), []
    catalog = inverse.identity_catalog(workloads.closure_model(inp, 5, 0.05, 0.3).kernels, 4, budget=budget)
    assert all(r.passed for r in catalog)
    assert closed_calls and calls
    assert {b for _, _, b, _ in closed_calls + calls} == {budget}
    assert max(slots(a, b, result) for a, b, _, result in closed_calls) <= 4


def test_solvers_compose_only_the_products_they_check(monkeypatch):
    # A solver applies its operators as chains on level lists.  On the
    # closure models the closed solve composes only its branching check
    # Kinv Q_G (N - (N R) N), five products, the triangular and rational
    # solves, residuals included, compose nothing, and no solve builds a
    # Neumann inverse.
    workloads = load_perfbench("workloads")
    inp = workloads.make_inputs(7)
    small, large = workloads.closure_model(inp, 6).kernels, workloads.closure_model(inp, 14).kernels
    G, Ginv = inverse.left_inverse_G(small).operator, inverse.left_inverse_G(small).inverse
    N, R = interaction_operator(small), solver._interaction_inverse(small).inverse
    Kinv = inverse.right_inverse_K(small).inverse
    Q_G, N_R = cuntz.compose(G, Ginv), cuntz.compose(N, R)
    N_R_N, Kinv_Q_G = cuntz.compose(N_R, N), cuntz.compose(Kinv, Q_G)
    branching = [(G, Ginv), (N, R), (N_R, N), (Kinv, Q_G), (Kinv_Q_G, N - N_R_N)]

    calls = record_compose(monkeypatch)
    neumann = []
    original = inverse.neumann_inverse
    for module in (inverse, solver):
        if hasattr(module, "neumann_inverse"):
            monkeypatch.setattr(module, "neumann_inverse", lambda *a, **k: neumann.append(a) or original(*a, **k))
    for op, kernels, want in (("triangular", large, []), ("rational", large, []), ("closed", small, branching)):
        calls.clear()
        workloads.run_closure_op(op, kernels)
        assert not neumann, op
        assert len(calls) == len(want), op
        for (a, b, _, _), (want_a, want_b) in zip(calls, want):
            assert kernel_residual(a, want_a) == 0.0 and kernel_residual(b, want_b) == 0.0, op


def test_solvers_run_no_product_on_an_all_zero_level(monkeypatch):
    # An unwritten level is None through every solver, so on the closure
    # models the rational and triangular solves hand apply_to_levels no
    # all-zero level array, and the closed solve accumulates A u one solved
    # level at a time: it applies A once per column block it scans on
    # levels <= L-2 (3 at T=6, L=4) and once per solved level (5), and
    # never to the whole of u.  Each application of A applies Ginv, the
    # source's left inverse and the only operator with one summand (0, 1),
    # once; the right-hand side applies it once more.
    workloads = load_perfbench("workloads")
    zero_levels, ginv_calls = [], 0
    apply_to_levels = cuntz.apply_to_levels

    def recording(op, levels):
        zero_levels.extend(n for n, t in enumerate(levels) if t is not None and not t.any())
        nonlocal ginv_calls
        if [(t.n_create, t.n_annihilate) for t in op.terms] == [(0, 1)]:
            ginv_calls += 1
        return apply_to_levels(op, levels)

    for module in (cuntz, inverse, solver):
        monkeypatch.setattr(module, "apply_to_levels", recording)
    inp = workloads.make_inputs(7)
    for op in ("triangular", "rational"):
        zero_levels.clear()
        workloads.run_closure_op(op, workloads.closure_model(inp, 14).kernels)
        assert not zero_levels, (op, zero_levels)
    ginv_calls = 0
    workloads.run_closure_op("closed", workloads.closure_model(inp, 6).kernels)
    assert 2 <= ginv_calls <= 3 + 5 + 1, ginv_calls
