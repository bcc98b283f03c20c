import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from moebalance import lp as lpmod
from moebalance.lp import COST_TOL, SNAPSHOT_FIELDS, STALL_LIMIT, DenseSimplex, LPError
from oracles import ReferencePivotSimplex


def solve_lp(c, a_ub, b_ub, upper=None):
    solver = DenseSimplex(c, a_ub, b_ub, upper=upper)
    obj = solver.solve()
    return solver.solution(), obj


def test_simple_corner():
    x, obj = solve_lp([-1, -1], [[1, 0], [0, 1], [1, 1]], [3, 2, 4])
    assert obj == pytest.approx(-4.0)
    assert x.tolist() == [3.0, 1.0]


def test_origin_optimal_when_costs_nonnegative():
    x, obj = solve_lp([1.0, 2.0], [[1, 1]], [5])
    assert obj == 0.0
    assert x.tolist() == [0.0, 0.0]


def test_unbounded_detected():
    with pytest.raises(LPError, match="unbounded"):
        solve_lp([-1.0], np.zeros((1, 1)), [1.0])


def test_negative_rhs_rejected():
    with pytest.raises(LPError):
        DenseSimplex([1.0], [[1.0]], [-1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["c", "A", "b", "upper"])
def test_non_finite_input_rejected(where, bad):
    lp = {"c": [-1.0, -1.0], "A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 2.0], "upper": [1.0, 1.0]}
    lp[where] = np.array(lp[where], dtype=np.float64)
    lp[where].flat[0] = bad
    if where == "upper" and bad == np.inf:
        assert DenseSimplex(lp["c"], lp["A"], lp["b"], upper=lp["upper"]).solve() == -2.0  # no bound
        return
    # A and c are checked where every column is appended
    message = {"b": "LP b is not finite", "upper": "upper bounds must be positive"}.get(
        where, "new columns and their costs must be finite")
    with pytest.raises(LPError, match=message):
        DenseSimplex(lp["c"], lp["A"], lp["b"], upper=lp["upper"])


@pytest.mark.parametrize("shape, rows, costs", [
    ((2, 3), 3, 2),  # as many entries as a (3, 2) A: a reshape would accept it
    ((2, 2), 3, 2),
    ((3, 2), 3, 3),
    ((3, 3), 2, 3),
])
def test_misshaped_a_rejected(shape, rows, costs):
    with pytest.raises(LPError, match=rf"new columns shaped \({shape[0]}, {shape[1]}\), expected \({rows}, {costs}\)"):
        DenseSimplex(np.ones(costs), np.ones(shape), np.ones(rows))


def test_blocking_row_rule():
    # columns are [s0, s1 | x, y]; both rows block x at 1, and the lower basic index leaves
    solver = DenseSimplex([-1.0], [[1.0], [1.0]], [1.0, 1.0])
    solver.solve()
    assert solver.basis.tolist() == [2, 1]
    # y enters row 0 at 0.5; then x lifts y to its bound 1 and drains s1 at the same step,
    # and the decreasing basic s1 leaves, not y to its upper bound
    solver = DenseSimplex([0.0, -1.0], [[-1.0, 1.0], [1.0, 0.0]], [0.5, 0.5], upper=[np.inf, 1.0])
    assert solver.solve() == -1.0
    assert solver.basis.tolist() == [3, 2] and not solver.at_upper.any()
    # a limit a rounding error below 0 steps 0; ties within the tolerance go to the lowest basic index
    assert solver._block(np.array([0, 1]), np.array([-1e-12, 0.0]), np.inf) == (0.0, 1)
    assert solver._block(np.array([0]), np.array([0.5]), 0.5 + 1e-10) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["coefs", "b_new"])
def test_non_finite_row_rejected(where, bad):
    solver = DenseSimplex([-1.0], [[1.0]], [4.0])
    solver.solve()
    row = {"coefs": np.array([1.0]), "b_new": np.array([5.0])}
    row[where][0] = bad
    before = bits(solver)
    with pytest.raises(LPError, match="must be finite"):
        solver.add_row([0], row["coefs"], row["b_new"])
    assert bits(solver) == before


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(60):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 10))
        a = rng.normal(0, 1, size=(m, n))
        b = rng.uniform(0.1, 5.0, size=m)  # origin feasible
        c = rng.normal(0, 1, size=n)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        if not ref.success:
            # unbounded instance: our solver must agree
            with pytest.raises(LPError):
                solve_lp(c, a, b)
            continue
        x, obj = solve_lp(c, a, b)
        assert obj == pytest.approx(ref.fun, abs=1e-7)
        assert (a @ x <= b + 1e-7).all()
        assert (x >= -1e-9).all()


def test_degenerate_instance_terminates():
    # many redundant constraints through the origin force degenerate pivots
    a = np.array([
        [1.0, 1.0],
        [2.0, 2.0],
        [1.0, 0.0],
        [0.0, 1.0],
        [3.0, 3.0],
    ])
    b = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
    x, obj = solve_lp([-1.0, -1.0], a, b)
    assert obj == pytest.approx(0.0)


def test_warm_columns_reach_cold_optimum():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = int(rng.integers(2, 10))
        a_full = rng.normal(0, 1, size=(m, 6))
        b = rng.uniform(0.5, 4.0, size=m)
        c_full = rng.normal(0, 1, size=6)
        cold_ref = linprog(c_full, A_ub=a_full, b_ub=b, bounds=[(0, None)] * 6, method="highs")

        warm = DenseSimplex(c_full[:3], a_full[:, :3], b)
        try:
            warm.solve()
            warm.add_columns(a_full[:, 3:], c_full[3:])
            obj = warm.solve()
        except LPError:
            assert not cold_ref.success
            continue
        if cold_ref.success:
            assert obj == pytest.approx(cold_ref.fun, abs=1e-7)


def test_added_row_binds_existing_column():
    solver = DenseSimplex([-1.0], [[1.0]], [4.0])
    solver.solve()
    assert solver.objective == pytest.approx(-4.0)
    # x1 became basic at 4; a fresh row x1 + x2 <= 4.5 must transform correctly
    solver.add_row([0], [1.0], [4.5])
    col = np.zeros((2, 1))
    col[1, 0] = 1.0  # x2 appears only in the new row
    solver.add_columns(col, [-3.0])
    obj = solver.solve()
    # optimum trades x1 away entirely: (0, 4.5)
    assert obj == pytest.approx(-13.5)
    assert solver.solution().tolist() == [0.0, 4.5]


def test_violated_row_rejected():
    solver = DenseSimplex([-1.0], [[1.0]], [4.0])
    solver.solve()
    with pytest.raises(LPError, match="violated"):
        solver.add_row([0], [1.0], [3.0])


def test_upper_bounds_respected():
    # without bounds the corner is (3, 1); with x1 <= 1 it shifts
    x, obj = solve_lp([-1, -1], [[1, 0], [0, 1], [1, 1]], [3, 2, 4], upper=[1.0, np.inf])
    assert x.tolist() == [1.0, 2.0]
    assert obj == pytest.approx(-3.0)


def test_matches_scipy_with_bounds():
    rng = np.random.default_rng(41)
    for _ in range(60):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 8))
        a = rng.normal(0, 1, size=(m, n))
        b = rng.uniform(0.1, 5.0, size=m)
        c = rng.normal(0, 1, size=n)
        upper = np.where(rng.random(n) < 0.6, rng.uniform(0.2, 3.0, size=n), np.inf)
        bounds = [(0, None if not np.isfinite(u) else u) for u in upper]
        ref = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        if not ref.success:
            with pytest.raises(LPError):
                solve_lp(c, a, b, upper=upper)
            continue
        x, obj = solve_lp(c, a, b, upper=upper)
        assert obj == pytest.approx(ref.fun, abs=1e-7)
        assert (a @ x <= b + 1e-7).all()
        assert (x >= -1e-9).all()
        assert (x <= upper + 1e-9).all()


def test_snapshot_restore_round_trip():
    rng = np.random.default_rng(31)
    a = rng.normal(0, 1, size=(6, 4))
    b = rng.uniform(0.5, 3.0, size=6)
    c = rng.normal(0, 1, size=4)
    ref = linprog(c, A_ub=a, b_ub=b, bounds=[(0, None)] * 4, method="highs")
    solver = DenseSimplex(c, a, b)
    obj0 = solver.solve()
    snap = solver.snapshot()
    solver.add_columns(rng.normal(0, 1, size=(6, 2)), [-5.0, -5.0])
    try:
        solver.solve()
    except LPError:
        pass  # extra columns may make it unbounded; restore must still work
    solver.restore(snap)
    assert solver.objective == pytest.approx(obj0)
    if ref.success:
        assert solver.objective == pytest.approx(ref.fun, abs=1e-7)
    assert solver.solution().shape == (4,)


def bits(solver):
    """Every snapshot field, each array as (dtype, shape, bytes) so that
    -0.0 differs from +0.0."""
    fields = {name: getattr(solver, name) for name in SNAPSHOT_FIELDS}
    return {name: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for name, v in fields.items()}


def bounded_lp(rng, m, n):
    """c, A, b, upper of a random origin-feasible LP whose variables are all
    bounded, so it never runs unbounded; some b are 0 for degenerate pivots."""
    a = rng.normal(0, 1, size=(m, n))
    b = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(0.1, 5.0, size=m))
    return rng.normal(0, 1, size=n), a, b, rng.uniform(0.2, 3.0, size=n)


def grow(solver, rng, how):
    """Append two bounded columns ("columns"), or first a row that holds a
    structural variable at most at its current value and then two columns
    ("row"), as the split LP's second replica does. Returns the row as
    (position, bound) or None, then the columns, their costs and bounds."""
    if how == "none":
        return None
    row = None
    if how == "row":
        pos = int(rng.integers(0, solver.num_struct))
        row = pos, solver.solution()[pos]
        solver.add_row([pos], [1.0], [row[1]])
    cols = rng.normal(0, 1, size=(solver.num_rows, 2))
    c_new, u_new = rng.normal(-1, 1, size=2), rng.uniform(0.2, 3.0, size=2)
    solver.add_columns(cols, c_new, upper_new=u_new)
    return row, cols, c_new, u_new


class GrownLP:
    """A DenseSimplex with the LP it was grown to, kept as given so that it
    can be solved cold: c, A, b and upper of its structural variables."""

    def __init__(self, c, a, b, upper):
        self.solver = DenseSimplex(c, a, b, upper=upper)
        self.lp = (c, a, b, upper)

    def grow(self, rng, how):
        c, a, b, upper = self.lp
        row, cols, c_new, u_new = grow(self.solver, rng, how)
        if row is not None:
            a = np.vstack([a, np.eye(1, a.shape[1], row[0])])
            b = np.append(b, row[1])
        self.lp = (np.append(c, c_new), np.hstack([a, cols]), b, np.append(upper, u_new))


def assert_basis_inverse(solver):
    """B^-1 times the basic columns is the identity."""
    np.testing.assert_allclose(solver.binv @ solver.tab[:, solver.basis], np.eye(solver.num_rows), rtol=0, atol=1e-9)


def assert_cold_optimum(grown):
    """The objective equals a cold solve and HiGHS on the same LP to 1e-9
    relative, and the point is feasible."""
    c, a, b, upper = grown.lp
    solver = grown.solver
    cold = DenseSimplex(c, a, b, upper=upper).solve()
    ref = linprog(c, A_ub=a, b_ub=b, bounds=list(zip(np.zeros_like(upper), upper)), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    assert ref.status == 0
    for other in (cold, ref.fun):
        assert solver.objective == pytest.approx(other, rel=1e-9, abs=1e-9)
    x = solver.solution()
    assert (a @ x <= b + 1e-9).all()
    assert ((x >= 0.0) & (x <= upper + 1e-9)).all()
    assert c @ x == pytest.approx(solver.objective, rel=1e-9, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(["none", "columns", "row"]))
def test_snapshot_shares_tableau_bit_for_bit(seed, solve_first, how):
    rng = np.random.default_rng(seed)
    lp = bounded_lp(rng, int(rng.integers(1, 8)), int(rng.integers(1, 7)))
    solver, twin = DenseSimplex(*lp[:3], upper=lp[3]), DenseSimplex(*lp[:3], upper=lp[3])
    if solve_first:
        solver.solve()
        twin.solve()
    before = bits(solver)
    snap = solver.snapshot()
    # with no growth and no solve before the snapshot, this pivots from the snapshotted state
    grow_seed = int(rng.integers(0, 2**32 - 1))
    grow(solver, np.random.default_rng(grow_seed), how)
    grow(twin, np.random.default_rng(grow_seed), how)
    assert solver.solve() == twin.solve()
    # the same as a solver that never took a snapshot
    assert bits(solver) == bits(twin) and solver._pivots == twin._pivots
    solver.restore(snap)
    assert bits(solver) == before
    # restore the same snapshot again after growing and pivoting the restored state
    grow(solver, np.random.default_rng(grow_seed + 1), how)
    solver.solve()
    solver.restore(snap)
    assert bits(solver) == before


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pivot_updates_match_the_basis(seed):
    """B^-1, the basic values and the reduced costs, each kept by rank-1
    updates, equal their values recomputed from the basis columns, also
    after warm growth."""
    rng = np.random.default_rng(seed)
    c, a, b, upper = bounded_lp(rng, int(rng.integers(1, 12)), int(rng.integers(1, 10)))
    a[rng.random(a.shape) < 0.4] = 0.0  # sparse columns and B^-1 rows
    grown = GrownLP(c, a, b, upper)
    for how in ("none", "columns", "row"):
        if how != "none":
            grown.grow(np.random.default_rng(int(rng.integers(0, 2**32 - 1))), how)
        solver = grown.solver
        solver.solve()
        basic = solver.tab[:, solver.basis]
        binv = np.linalg.inv(basic)
        np.testing.assert_allclose(solver.binv, binv, rtol=0, atol=1e-9)
        x = solver._full_solution()
        nonbasic = np.ones(x.size, dtype=bool)
        nonbasic[solver.basis] = False
        np.testing.assert_allclose(solver.rhs, binv @ (grown.lp[2] - solver.tab[:, nonbasic] @ x[nonbasic]),
                                   rtol=0, atol=1e-9)
        red = solver.cost - solver.cost[solver.basis] @ binv @ solver.tab
        red[solver.basis] = 0.0
        np.testing.assert_allclose(np.where(nonbasic, solver.red, 0.0), red, rtol=0, atol=1e-9)


def test_row_pivoting_twice_reaches_the_optimum():
    # x2 enters first on row 0, then x1 replaces it there: two pivots on one row
    solver = DenseSimplex([-3.0, -4.0], [[1.0, 2.0]], [2.0])
    assert solver.solve() == -6.0
    assert solver._pivots == 2 > solver.num_rows
    assert solver.solution().tolist() == [2.0, 0.0]
    assert_basis_inverse(solver)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(["columns", "row", "snapshot", "restore"]), max_size=10))
def test_interleaved_growth_reaches_cold_optimum(seed, ops):
    """Under any interleaving of growth and solves with snapshots and
    restores, each solve reaches the optimum of the grown LP solved cold,
    B^-1 stays the inverse of the basis, and a restore gives back every
    snapshot field bit for bit, also after later growth and pivots. Few
    rows against up to 12 columns make solves with more pivots than rows
    and rows that pivot more than once."""
    rng = np.random.default_rng(seed)
    c, a, b, upper = bounded_lp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 13)))
    a[rng.random(a.shape) < 0.4] = 0.0
    grown = GrownLP(c, a, b, upper)
    snaps = []  # (snapshot, its fields' bits, the LP it holds)
    for op in ("none", *ops):
        solver = grown.solver
        if op == "snapshot":
            snaps.append((solver.snapshot(), bits(solver), grown.lp))
        elif op == "restore" and snaps:
            snap, want, grown.lp = snaps[int(rng.integers(len(snaps)))]
            solver.restore(snap)
            assert bits(solver) == want
        elif op != "restore":
            if op != "none":
                grown.grow(np.random.default_rng(int(rng.integers(0, 2**32 - 1))), op)
                assert_basis_inverse(solver)
            solver.solve()
            assert_cold_optimum(grown)
        assert_basis_inverse(solver)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(["columns", "row", "near_tol"]), max_size=6))
def test_optimal_means_solve_takes_no_step(seed, ops):
    """Whenever `optimal()` holds, `solve()` takes no pivot and leaves the
    objective and the solution bit-identical, also for a new column priced
    within rounding of COST_TOL: the greedy's unsolved rollback rests on it."""
    rng = np.random.default_rng(seed)
    c, a, b, upper = bounded_lp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 8)))
    solver = DenseSimplex(c, a, b, upper=upper)
    solver.solve()
    for op in ops:
        if op == "near_tol":
            # a column whose reduced cost c_j - y a_j lands on either side of -COST_TOL
            col = rng.normal(0, 1, size=(solver.num_rows, 1))
            duals = solver.cost[solver.basis] @ solver.binv
            c_new = duals @ col - COST_TOL * (1.0 + rng.choice([-1e-6, -1e-12, 0.0, 1e-12, 1e-6]))
            solver.add_columns(col, c_new, upper_new=[1.0])
        else:
            grow(solver, np.random.default_rng(int(rng.integers(0, 2**32 - 1))), op)
        if solver.optimal():
            pivots, objective, x = solver._pivots, solver.objective, solver.solution().tobytes()
            assert solver.solve() == objective
            assert solver._pivots == pivots
            assert solver.solution().tobytes() == x
        else:
            solver.solve()
        assert solver.optimal()


NOT_FINITE = r"^new columns and their costs must be finite$"
NOT_POSITIVE = r"^new upper bounds must be positive \(or omitted\)$"


@pytest.mark.parametrize("bad, message", [
    pytest.param({"upper_new": [1.0]}, r"^2 new columns but 1 upper bounds$", id="short_upper"),
    pytest.param({"upper_new": [1.0, 0.0]}, NOT_POSITIVE, id="zero_upper"),
    pytest.param({"upper_new": [1.0, np.nan]}, NOT_POSITIVE, id="nan_upper"),
    pytest.param({"cols": [[1.0, np.nan]], "upper_new": [1.0, 0.0]}, NOT_FINITE, id="nan_column_zero_upper"),
    pytest.param({"cols": [[1.0, np.inf]]}, NOT_FINITE, id="inf_column"),
    pytest.param({"c_new": [-1.0, np.nan]}, NOT_FINITE, id="nan_cost"),
])
def test_malformed_columns_rejected(bad, message):
    solver = DenseSimplex([-1.0], [[1.0]], [1.0], upper=[2.0])
    solver.solve()
    before = bits(solver)
    with pytest.raises(LPError, match=message):
        solver.add_columns(**{"cols": [[1.0, 1.0]], "c_new": [-1.0, -2.0], "upper_new": [1.0, 1.0], **bad})
    assert bits(solver) == before


def _warm_lp_and_rows(seed: int, k: int):
    """A solved random LP with finite bounds plus k one-coefficient rows its
    optimum satisfies; some coefficients are zero, some rows share a variable."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    solver = DenseSimplex(rng.normal(0, 1, size=n), rng.normal(0, 1, size=(m, n)),
                          rng.uniform(0.1, 5.0, size=m), upper=rng.uniform(0.2, 3.0, size=n))
    solver.solve()
    x = solver.solution()
    positions = rng.integers(0, n, size=k)
    coefs = np.where(rng.random(k) < 0.2, 0.0, rng.normal(0, 1, size=k))
    bounds = coefs * x[positions] + rng.uniform(0.0, 2.0, size=k) + 1e-6
    return solver, positions, coefs, bounds


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_batched_rows_equal_single_rows(seed, k):
    together, positions, coefs, bounds = _warm_lp_and_rows(seed, k)
    apart, *_ = _warm_lp_and_rows(seed, k)
    together.add_row(positions, coefs, bounds)
    for pos, coef, bound in zip(positions, coefs, bounds):
        apart.add_row([pos], [coef], [bound])
    # equal values: the B^-1 row of a row appended later is a product over
    # the slack columns appended earlier, so it may hold -0.0 where a batch holds +0.0
    for name in SNAPSHOT_FIELDS:
        assert np.array_equal(getattr(together, name), getattr(apart, name)), name
    assert_basis_inverse(together)


def test_nan_reduced_cost_raises():
    # columns [s0 | x0, x1]: a NaN on a nonbasic column is named, even when
    # another column has the larger gain; a NaN on a basic column is never read
    solver = DenseSimplex([-1.0, -2.0], [[1.0, 1.0]], [1.0], upper=[1.0, 1.0])
    solver.red[0] = np.nan
    assert not solver.optimal()
    solver.red[1] = np.nan
    for call in (solver.optimal, solver.solve):
        with pytest.raises(LPError, match=r"^column 1 has a NaN reduced cost$"):
            call()


def state(solver):
    """What a pivot decides and writes, compared by value (-0.0 == 0.0)."""
    return (solver.basis.tolist(), solver.at_upper.tolist(), solver.objective, solver._pivots,
            *(getattr(solver, name).tolist() for name in ("binv", "rhs", "red")))


def log_steps(solver):
    """Record (entering column, state) after every step `solve` takes."""
    steps, step = [], solver._step

    def logged(col):
        step(col)
        steps.append((col, state(solver)))
    solver._step = logged
    return steps


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, STALL_LIMIT]), st.booleans(),
       st.lists(st.sampled_from(["columns", "row", "copy", "snapshot", "restore"]), max_size=8))
def test_pivots_match_the_reference_rule(seed, stall_limit, integral, ops):
    """Each solve takes the entering columns, bases, bound flags, B^-1,
    basic values, reduced costs and objective of the earlier pivot rule,
    step for step, under growth, copies of a column (ties in |red| that
    integral data also makes), snapshot and restore, and the Bland
    fallback after one or two stalled steps."""
    rng = np.random.default_rng(seed)
    c, a, b, upper = bounded_lp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 9)))
    if integral:
        c, a, b, upper = np.round(2 * c), np.round(2 * a), np.round(b), np.ceil(upper)
    pair = DenseSimplex(c, a, b, upper=upper), ReferencePivotSimplex(c, a, b, upper=upper)
    logs = [log_steps(solver) for solver in pair]
    snaps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod, "STALL_LIMIT", stall_limit)
        for op in ("none", *ops):
            op_seed = int(rng.integers(0, 2**32 - 1))
            if op == "snapshot":
                snaps.append([solver.snapshot() for solver in pair])
            elif op == "restore" and snaps:
                for solver, snap in zip(pair, snaps[op_seed % len(snaps)]):
                    solver.restore(snap)
            elif op == "copy":
                pos = op_seed % pair[0].num_struct
                for solver in pair:
                    j = solver.struct_idx[pos]
                    solver.add_columns(solver.tab[:, [j]], solver.cost[[j]], upper_new=solver.upper[[j]])
            elif op in ("columns", "row"):
                for solver in pair:
                    grow(solver, np.random.default_rng(op_seed), op)
            assert state(pair[0]) == state(pair[1]) and pair[0].optimal() == pair[1].optimal()
            objectives = []
            for solver in pair:
                try:
                    objectives.append(solver.solve())
                except LPError as err:
                    objectives.append(str(err))
            assert objectives[0] == objectives[1]
            assert logs[0] == logs[1] and state(pair[0]) == state(pair[1])
