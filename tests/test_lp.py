import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from moebalance.lp import DenseSimplex, LPError


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
    message = "upper bounds must be positive" if where == "upper" else f"LP {where} is not finite"
    with pytest.raises(LPError, match=message):
        DenseSimplex(lp["c"], lp["A"], lp["b"], upper=lp["upper"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["coefs", "b_new"])
def test_non_finite_row_rejected(where, bad):
    solver = DenseSimplex([-1.0], [[1.0]], [4.0])
    solver.solve()
    row = {"coefs": np.array([1.0]), "b_new": np.array([5.0])}
    row[where][0] = bad
    snap = solver.snapshot()
    with pytest.raises(LPError, match="must be finite"):
        solver.add_row([0], row["coefs"], row["b_new"])
    assert np.array_equal(solver.tab, snap["tab"])


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


def parent_add_row(solver, rows, b_new):
    """DenseSimplex.add_row as it was before it took one-coefficient rows:
    each row maps structural positions to coefficients and is expressed in
    the basis by a loop over its basic variables."""
    b_new = np.asarray(b_new, dtype=np.float64).ravel()
    k = len(rows)
    m, ncols = solver.tab.shape
    orig = np.zeros((k, ncols))
    for r, coefs in enumerate(rows):
        for pos, value in coefs.items():
            orig[r, solver.struct_idx[pos]] = value
    x_now = solver._full_solution()
    slack = np.empty(k)
    for r in range(k):
        cols = np.flatnonzero(orig[r])
        slack[r] = b_new[r] - float(orig[r, cols] @ x_now[cols])
    grown = np.zeros((m + k, ncols + k))
    grown[:m, :ncols] = solver.tab
    for r in range(k):
        t_row = grown[m + r, :ncols]
        t_row[:] = orig[r]
        for i in np.flatnonzero(orig[r, solver.basis]):
            t_row -= orig[r, solver.basis[i]] * solver.tab[i]
    new_slacks = np.arange(ncols, ncols + k)
    grown[np.arange(m, m + k), new_slacks] = 1.0
    solver.tab = grown
    solver.rhs = np.concatenate([solver.rhs, np.where(slack < 0.0, 0.0, slack)])
    solver.cost = np.concatenate([solver.cost, np.zeros(k)])
    solver.red = np.concatenate([solver.red, np.zeros(k)])
    solver.upper = np.concatenate([solver.upper, np.full(k, np.inf)])
    solver.at_upper = np.concatenate([solver.at_upper, np.zeros(k, dtype=bool)])
    solver.slack_idx = np.concatenate([solver.slack_idx, new_slacks])
    solver.basis = np.concatenate([solver.basis, new_slacks])


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
    apart = copy.deepcopy(together)
    together.add_row(positions, coefs, bounds)
    for pos, coef, bound in zip(positions, coefs, bounds):
        parent_add_row(apart, [{int(pos): float(coef)}], [bound])
    for name in ("tab", "rhs", "basis", "slack_idx", "cost", "red", "upper", "at_upper"):
        assert np.array_equal(getattr(together, name), getattr(apart, name)), name
