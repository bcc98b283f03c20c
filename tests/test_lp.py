import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from moebalance import lp as lp_module
from moebalance.lp import PIVOT_TOL, SNAPSHOT_FIELDS, DenseSimplex, LPError


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
    tab = solver.tab.copy()
    with pytest.raises(LPError, match="must be finite"):
        solver.add_row([0], row["coefs"], row["b_new"])
    assert np.array_equal(solver.tab, tab)


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


SOLVER_ARRAYS = ("tab", "rhs", "cost", "red", "upper", "at_upper", "struct_idx", "slack_idx", "basis")


def bits(solver):
    """Every solver array as (dtype, shape, bytes), so -0.0 differs from
    +0.0, plus the objective; the tableau is brought up to date first."""
    solver.replay()
    arrays = {name: getattr(solver, name) for name in SOLVER_ARRAYS}
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in arrays.items()}, solver.objective


def bounded_lp(rng, m, n):
    """c, A, b, upper of a random origin-feasible LP whose variables are all
    bounded, so it never runs unbounded; some b are 0 for degenerate pivots."""
    a = rng.normal(0, 1, size=(m, n))
    b = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(0.1, 5.0, size=m))
    return rng.normal(0, 1, size=n), a, b, rng.uniform(0.2, 3.0, size=n)


def grow(solver, rng, how):
    """Append two bounded columns ("columns"), or first a row that holds a
    structural variable at most at its current value and then two columns
    ("row"), as the split LP's second replica does."""
    if how == "none":
        return
    if how == "row":
        pos = int(rng.integers(0, solver.num_struct))
        solver.add_row([pos], [1.0], [solver.solution()[pos]])
    solver.add_columns(rng.normal(0, 1, size=(solver.num_rows, 2)), rng.normal(-1, 1, size=2),
                       upper_new=rng.uniform(0.2, 3.0, size=2))


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
    # with no growth and no solve before the snapshot, this pivots into the snapshotted tableau
    grow_seed = int(rng.integers(0, 2**32 - 1))
    grow(solver, np.random.default_rng(grow_seed), how)
    grow(twin, np.random.default_rng(grow_seed), how)
    assert solver.solve() == twin.solve()
    # the same as a solver that never took a snapshot
    assert bits(solver) == bits(twin) and solver.pivots == twin.pivots
    solver.restore(snap)
    assert bits(solver) == before
    # restore the same snapshot again after growing and pivoting the restored state
    grow(solver, np.random.default_rng(grow_seed + 1), how)
    solver.solve()
    solver.restore(snap)
    assert bits(solver) == before


def outer_step(self, col):
    """DenseSimplex._step as it was with the np.outer rank-1 update."""
    from_upper = self.at_upper[col]
    d = self.tab[:, col]
    direction = -d if from_upper else d
    t_best = float(self.upper[col])
    block_row = -1
    block_to_upper = False
    dec = np.flatnonzero(direction > PIVOT_TOL)
    if dec.size:
        ratios = self.rhs[dec] / direction[dec]
        best = float(ratios.min())
        if best < t_best - PIVOT_TOL * (1.0 + abs(best)):
            tied = dec[ratios <= best + PIVOT_TOL * (1.0 + abs(best))]
            block_row = int(tied[np.argmin(self.basis[tied])])
            block_to_upper = False
            t_best = max(best, 0.0)
    inc = np.flatnonzero(direction < -PIVOT_TOL)
    if inc.size:
        caps = self.upper[self.basis[inc]]
        finite = inc[np.isfinite(caps)]
        if finite.size:
            gaps = (self.upper[self.basis[finite]] - self.rhs[finite]) / (-direction[finite])
            best = float(gaps.min())
            if best < t_best - PIVOT_TOL * (1.0 + abs(best)):
                tied = finite[gaps <= best + PIVOT_TOL * (1.0 + abs(best))]
                block_row = int(tied[np.argmin(self.basis[tied])])
                block_to_upper = True
                t_best = max(best, 0.0)
    if not np.isfinite(t_best):
        raise LPError("LP is unbounded (no blocking bound)")
    t = t_best
    self.rhs -= t * direction
    self.objective += self.red[col] * (-t if from_upper else t)
    if block_row < 0:
        self.at_upper[col] = not from_upper
        return
    leaving = self.basis[block_row]
    if block_to_upper:
        self.at_upper[leaving] = True
    piv = self.tab[block_row, col]
    if abs(piv) < PIVOT_TOL:
        raise LPError("numerically singular pivot")
    entering_value = self.upper[col] - t if from_upper else t
    self.tab[block_row] /= piv
    factors = self.tab[:, col].copy()
    factors[block_row] = 0.0
    self.tab -= np.outer(factors, self.tab[block_row])
    rfac = self.red[col]
    self.red -= rfac * self.tab[block_row]
    self.basis[block_row] = col
    self.at_upper[col] = False
    self.rhs[block_row] = entering_value
    self._pivots += 1


class EagerSimplex(DenseSimplex):
    """The reference: every pivot applies its rank-1 update to the stored
    tableau, so nothing is ever recorded or replayed."""
    _step = outer_step


def assert_same_up_to_zero_signs(solver, ref):
    """Equal pivot path and values; only the sign of a zero may differ, and
    never in rhs. The tableaus are brought up to date first."""
    solver.replay()
    ref.replay()
    for name in SOLVER_ARRAYS:
        assert np.array_equal(getattr(solver, name), getattr(ref, name)), name
    assert solver.rhs.tobytes() == ref.rhs.tobytes()
    assert solver.objective == ref.objective
    assert solver.pivots == ref.pivots
    assert solver.solution().tobytes() == ref.solution().tobytes()


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pivot_update_matches_outer_product_step(seed):
    rng = np.random.default_rng(seed)
    lp = bounded_lp(rng, int(rng.integers(1, 12)), int(rng.integers(1, 10)))
    # sparse tableaus make zero products of both signs
    lp[1][rng.random(lp[1].shape) < 0.4] *= 0.0
    solver, ref = DenseSimplex(*lp[:3], upper=lp[3]), EagerSimplex(*lp[:3], upper=lp[3])
    assert solver.solve() == ref.solve()
    assert_same_up_to_zero_signs(solver, ref)
    # warm growth multiplies the new columns by the updated slack block
    grow_seed = int(rng.integers(0, 2**32 - 1))
    for how in ("columns", "row"):
        grow(solver, np.random.default_rng(grow_seed), how)
        grow(ref, np.random.default_rng(grow_seed), how)
        assert solver.solve() == ref.solve()
        assert_same_up_to_zero_signs(solver, ref)


def test_row_pivoting_twice_grows_the_records(monkeypatch):
    # x2 enters first on row 0, then x1 replaces it there: two pivots, one
    # row, and with one record a block, two blocks
    monkeypatch.setattr(lp_module, "RECORD_BLOCK", 1)
    solver, ref = (cls([-3.0, -4.0], [[1.0, 2.0]], [2.0]) for cls in (DenseSimplex, EagerSimplex))
    assert solver.solve() == ref.solve() == -6.0
    assert solver.pivots == 2 > solver.num_rows
    assert len(solver._blocks) == 2
    assert_same_up_to_zero_signs(solver, ref)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(["columns", "row", "snapshot", "restore"]), max_size=10),
       st.sampled_from([2, lp_module.RECORD_BLOCK]))
def test_lazy_pivots_match_eager_under_interleaved_growth(seed, ops, block):
    """Recorded pivots equal eager ones under any interleaving of growth
    and solves with snapshots and restores, which replay or drop the
    records. Few rows against up to 12 columns make solves with more
    pivots than rows and rows that pivot more than once; blocks of two
    records make the records span blocks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "RECORD_BLOCK", block)
        check_interleaved_growth(seed, ops)


def check_interleaved_growth(seed, ops):
    rng = np.random.default_rng(seed)
    lp = bounded_lp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 13)))
    lp[1][rng.random(lp[1].shape) < 0.4] *= 0.0  # zero products of both signs
    solver, ref = DenseSimplex(*lp[:3], upper=lp[3]), EagerSimplex(*lp[:3], upper=lp[3])
    snaps = []  # (solver snapshot, copies of the reference's snapshot fields)
    for op in ("none", *ops):
        if op == "snapshot":
            snaps.append((solver.snapshot(), {name: copy.copy(getattr(ref, name)) for name in SNAPSHOT_FIELDS}))
        elif op == "restore" and snaps:
            snap, ref_fields = snaps[int(rng.integers(len(snaps)))]
            solver.restore(snap)
            for name, value in ref_fields.items():
                setattr(ref, name, copy.copy(value))
        elif op != "restore":
            grow_seed = int(rng.integers(0, 2**32 - 1))
            grow(solver, np.random.default_rng(grow_seed), op)
            grow(ref, np.random.default_rng(grow_seed), op)
            assert solver.solve() == ref.solve()
        # a copy is brought up to date, so the solver keeps its records
        assert_same_up_to_zero_signs(copy.deepcopy(solver), ref)


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
    tab, records = solver.tab.copy(), solver._records
    with pytest.raises(LPError, match=message):
        solver.add_columns(**{"cols": [[1.0, 1.0]], "c_new": [-1.0, -2.0], "upper_new": [1.0, 1.0], **bad})
    # rejected before the records were replayed
    assert solver._records == records > 0 and np.array_equal(solver.tab, tab)


def parent_add_row(solver, rows, b_new):
    """DenseSimplex.add_row as it was before it took one-coefficient rows:
    each row maps structural positions to coefficients and is expressed in
    the basis by a loop over its basic variables. It reads the tableau, so
    it brings it up to date first, as add_row does."""
    solver.replay()
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
