"""Inter-batch expert reordering and the data-locality sample pass.

The reordering search is swap-based simulated annealing over
capacity-preserving expert-to-GPU assignments, seeded from a
longest-processing-time greedy plan. Chains propose uniformly random
expert pairs on distinct hosts, score moves with the log-sum-exp
surrogate of the MoE time, accept worsening moves with Metropolis
probability exp(-(T' - T) / theta), and cool theta geometrically from
the initial objective until it drops to EPS_FRAC of that.

State is cached per GPU and updated incrementally per swap from a
precomputed per-(expert, host) contribution tensor. Loads come from the
topology's charge operator (`topology.ChargeOperator`): the tensor is one
contraction of the routing matrix with its dense table; the sample pass
charges every sample move through the same table and takes a placement's
loads from `costmodel.compute_loads`, as the evaluator does. Loads are sums
of integer token counts times 0/1 charge weights, far below 2**53, so every
incremental update is exact. `costmodel.TimeUnits` turns loads into times.

Two or more chains run in lockstep: one step of every chain is one numpy
pass over a (chains, 5, G) load stack, and each chain ends exactly where it
would running alone. A chain's random stream is by definition the one
`numpy.random.default_rng` gives for its seed; `ChainStream` decodes it
from raw PCG64 words.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import costmodel as cm
from .topology import ClusterTopology, HardwareProfile

# chain count from which `anneal_reorder` runs its chains in lockstep; one
# chain alone runs faster in the scalar loop than through per-step numpy calls
LOCKSTEP_MIN_CHAINS = 2
# the sample pass keeps every GPU's per-micro-batch token total within
# +/-SAMPLE_BAND of the micro-batch mean
SAMPLE_BAND = 0.10
# a chain stops once its temperature falls to EPS_FRAC of the initial one
EPS_FRAC = 1e-3


@dataclass
class ReorderPlan:
    """Capacity-preserving expert-to-GPU assignment for one MoE layer."""

    assignment: np.ndarray  # (E,) GPU id per expert

    def validate(self, topo: ClusterTopology) -> None:
        if len(self.assignment) % topo.num_gpus != 0:
            raise ValueError("expert count not divisible by GPU count")
        counts = np.bincount(self.assignment, minlength=topo.num_gpus)
        m = len(self.assignment) // topo.num_gpus
        if (counts != m).any():
            raise ValueError(
                f"plan is not capacity-preserving: counts {counts.tolist()}, expected {m} per GPU"
            )


@dataclass(frozen=True)
class AnnealConfig:
    """Chain seeds, cooling schedule and objective smoothing for annealing.
    Every chain stops at EPS_FRAC of its initial temperature."""

    seeds: tuple[int, ...] = tuple(range(16))
    cooling_rate: float = 0.9995
    beta: float = 20.0

    def __post_init__(self) -> None:
        if len(self.seeds) < 1:
            raise ValueError("need at least one annealing seed")
        if not 0 < self.cooling_rate < 1:
            raise ValueError(f"cooling_rate must be in (0, 1), got {self.cooling_rate}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")


# ---------------------------------------------------------------------------
# incremental load accounting


class AnnealState:
    """Cached (5, G) loads for one placement; swaps update in O(G)."""

    def __init__(self, x: np.ndarray, assignment: np.ndarray, topo: ClusterTopology,
                 model, hw: HardwareProfile, beta: float = 20.0):
        self.x = np.asarray(x, dtype=np.float64)
        self.topo = topo
        self.beta = beta
        # contrib[e, h]: loads of serving expert e's column x[:, e] at host h
        self.contrib = np.tensordot(self.x, topo.charges.dense(), axes=(0, 0))
        self.units = cm.TimeUnits.of(model, hw, topo.num_gpus)
        self._place(assignment)

    def fork(self, assignment: np.ndarray) -> "AnnealState":
        """A new state over the same inputs, sharing the contribution tensor."""
        clone = copy.copy(self)
        clone._place(assignment)
        return clone

    def _place(self, assignment: np.ndarray) -> None:
        """Take a copy of the assignment and sum its loads from the contribution tensor."""
        self.assignment = np.asarray(assignment).copy()
        self.loads5 = self.contrib[np.arange(len(self.assignment)), self.assignment].sum(axis=0)

    def swap_delta(self, e_a: int, e_b: int) -> np.ndarray:
        ga, gb = self.assignment[e_a], self.assignment[e_b]
        return (
            self.contrib[e_a, gb] - self.contrib[e_a, ga]
            + self.contrib[e_b, ga] - self.contrib[e_b, gb]
        )

    def apply_swap(self, e_a: int, e_b: int, delta: np.ndarray | None = None) -> None:
        """Swap the hosts of two experts, updating cached loads incrementally."""
        if delta is None:
            delta = self.swap_delta(e_a, e_b)
        self.loads5 += delta
        self.assignment[e_a], self.assignment[e_b] = self.assignment[e_b], self.assignment[e_a]

    def exact_time(self, loads5: np.ndarray | None = None) -> float:
        return self.units.exact(self.loads5 if loads5 is None else loads5)

    def smoothed_time(self, loads5: np.ndarray | None = None) -> float:
        return self.units.smoothed(self.loads5 if loads5 is None else loads5, self.beta)


# ---------------------------------------------------------------------------
# planning


def lpt_initial(x_batch: np.ndarray, topo: ClusterTopology) -> ReorderPlan:
    """Longest-processing-time greedy: heaviest expert to the least-loaded GPU.

    Ties go to the lowest GPU index; equal expert loads place the lower
    expert index first.
    """
    x = np.asarray(x_batch, dtype=np.float64)
    num_experts = x.shape[1]
    g = topo.num_gpus
    if num_experts % g != 0:
        raise ValueError(f"{num_experts} experts not divisible by {g} GPUs")
    cap = num_experts // g
    loads = x.sum(axis=0)
    order = np.lexsort((np.arange(num_experts), -loads))
    gpu_load = np.zeros(g)
    gpu_count = np.zeros(g, dtype=int)
    assignment = np.zeros(num_experts, dtype=np.int64)
    for e in order:
        open_gpus = np.flatnonzero(gpu_count < cap)
        target = open_gpus[np.argmin(gpu_load[open_gpus])]
        assignment[e] = target
        gpu_load[target] += loads[e]
        gpu_count[target] += 1
    return ReorderPlan(assignment)


def static_plan(num_experts: int, topo: ClusterTopology) -> ReorderPlan:
    """Contiguous expert blocks: experts [g*M, (g+1)*M) live on GPU g."""
    g = topo.num_gpus
    if num_experts % g != 0:
        raise ValueError(f"{num_experts} experts not divisible by {g} GPUs")
    return ReorderPlan(np.repeat(np.arange(g), num_experts // g))


class ChainStream:
    """The random stream of one annealing chain, decoded from raw PCG64 words.

    A chain's stream is by definition the one
    `np.random.default_rng(np.random.SeedSequence(seed))` gives: `pair(n)`
    returns what its `integers(0, n, size=2)` returns and `random()` what
    its `random()` returns, call for call. The raw words are fetched in
    blocks and decoded as numpy's `Generator` does: a bounded integer is
    Lemire's multiply-shift of the next 32-bit half with numpy's rejection
    threshold, a word's upper half stays buffered for the next integer even
    across `random()` calls, and a uniform is the top 53 bits of a word.
    """

    BLOCK = 1024

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(np.random.SeedSequence(seed))
        self._words: list[int] = []
        self._pos = 0
        self._half: int | None = None  # PCG64's buffered upper half (has_uint32)

    def _word(self) -> int:
        if self._pos == len(self._words):
            self._words = self._bits.random_raw(self.BLOCK).tolist()
            self._pos = 0
        self._pos += 1
        return self._words[self._pos - 1]

    def _below(self, n: int, threshold: int) -> int:
        while True:
            half = self._half
            if half is None:
                word = self._word()
                self._half = word >> 32
                half = word & 0xFFFFFFFF
            else:
                self._half = None
            m = half * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def pair(self, n: int) -> tuple[int, int]:
        """Two integers in [0, n), 2 <= n < 2**32."""
        if not 2 <= n < 1 << 32:
            raise ValueError(f"bound {n} outside [2, 2**32)")
        threshold = (1 << 32) % n
        if self._half is None and self._pos < len(self._words):
            # the common case: both halves of the next word are accepted
            word = self._words[self._pos]
            lo, hi = (word & 0xFFFFFFFF) * n, (word >> 32) * n
            if lo & 0xFFFFFFFF >= threshold and hi & 0xFFFFFFFF >= threshold:
                self._pos += 1
                return lo >> 32, hi >> 32
        return self._below(n, threshold), self._below(n, threshold)

    def random(self) -> float:
        """A uniform float in [0, 1)."""
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)


def _run_chain(shared: AnnealState, assignment0: np.ndarray, cfg: AnnealConfig, seed: int) -> np.ndarray:
    """One annealing chain; returns its best-so-far placement."""
    state = shared.fork(assignment0)
    num_experts = len(assignment0)
    stream = ChainStream(seed)
    t_cur = state.smoothed_time()
    theta = t_cur if t_cur > 0 else 1.0
    eps = EPS_FRAC * theta
    best_assign = state.assignment.copy()
    best_t = t_cur
    if state.topo.num_gpus < 2 or num_experts < 2:
        return best_assign
    while theta > eps:
        while True:
            e_a, e_b = stream.pair(num_experts)
            if e_a != e_b and state.assignment[e_a] != state.assignment[e_b]:
                break
        delta = state.swap_delta(e_a, e_b)
        t_new = state.smoothed_time(state.loads5 + delta)
        diff = t_new - t_cur
        if diff < 0 or stream.random() < math.exp(-min(diff / theta, 745.0)):
            state.apply_swap(e_a, e_b, delta)
            t_cur = t_new
            if t_cur < best_t:
                best_t = t_cur
                best_assign = state.assignment.copy()
        theta *= cfg.cooling_rate
    return best_assign


def _run_lockstep(shared: AnnealState, assignment0: np.ndarray, cfg: AnnealConfig) -> list[np.ndarray]:
    """Every chain of cfg.seeds at once; returns each best-so-far placement.

    All chains start from the same state under the same schedule, so they
    take the same number of steps. Each step draws every chain's pair from
    its own stream, gathers the four contribution rows of all swaps at once,
    scores all chains with one `TimeUnits.smoothed_rows` and applies the
    accepted swaps. Per chain this is `_run_chain` bit for bit: the same
    draws and the same arithmetic.
    """
    state = shared.fork(assignment0)
    chains = len(cfg.seeds)
    num_experts, g = len(assignment0), state.topo.num_gpus
    t0 = state.smoothed_time()
    theta = t0 if t0 > 0 else 1.0
    eps = EPS_FRAC * theta
    if g < 2 or num_experts < 2:
        return [state.assignment.copy() for _ in cfg.seeds]
    streams = [ChainStream(seed) for seed in cfg.seeds]
    rows = state.contrib.reshape(num_experts * g, 5, g)
    assign = [state.assignment.tolist() for _ in cfg.seeds]
    loads = np.repeat(state.loads5[None], chains, axis=0)
    t_cur = [t0] * chains
    best_t = [t0] * chains
    best = [a.copy() for a in assign]
    while theta > eps:
        picks, quads = [], []
        for stream, a in zip(streams, assign):
            while True:
                e_a, e_b = stream.pair(num_experts)
                g_a, g_b = a[e_a], a[e_b]
                if g_a != g_b:  # distinct hosts, hence distinct experts
                    break
            picks.append((e_a, e_b))
            quads.append((e_a * g + g_b, e_a * g + g_a, e_b * g + g_a, e_b * g + g_b))
        gathered = np.take(rows, tuple(zip(*quads)), axis=0)  # (4, C, 5, G)
        new = loads + (gathered[0] - gathered[1] + gathered[2] - gathered[3])
        accepted = []
        for c, t_new in enumerate(state.units.smoothed_rows(new, state.beta)):
            diff = t_new - t_cur[c]
            if diff < 0 or streams[c].random() < math.exp(-min(diff / theta, 745.0)):
                e_a, e_b = picks[c]
                a = assign[c]
                a[e_a], a[e_b] = a[e_b], a[e_a]
                accepted.append(c)
                t_cur[c] = t_new
                if t_new < best_t[c]:
                    best_t[c] = t_new
                    best[c] = a.copy()
        if accepted:
            loads[accepted] = new[accepted]
        theta *= cfg.cooling_rate
    return [np.array(b, dtype=state.assignment.dtype) for b in best]


def anneal_reorder(
    x_batch: np.ndarray,
    topo: ClusterTopology,
    model,
    hw: HardwareProfile,
    cfg: AnnealConfig,
) -> ReorderPlan:
    """Swap-based simulated annealing from the LPT plan.

    Returns the plan with the lowest exact MoE time among the LPT plan, the
    static plan and every chain's best-so-far plan (first minimum wins,
    chains in seed order), so the result is never worse than LPT or static:
    it never loses to a placement it could simply have copied.
    """
    x = np.asarray(x_batch, dtype=np.float64)
    base = lpt_initial(x, topo)
    shared = AnnealState(x, base.assignment, topo, model, hw, beta=cfg.beta)

    candidates = [base.assignment, static_plan(x.shape[1], topo).assignment]
    if len(cfg.seeds) >= LOCKSTEP_MIN_CHAINS:
        candidates.extend(_run_lockstep(shared, base.assignment, cfg))
    else:
        candidates.extend(_run_chain(shared, base.assignment, cfg, seed) for seed in cfg.seeds)

    best = min(candidates, key=lambda assign: shared.fork(assign).exact_time())
    return ReorderPlan(np.asarray(best).copy())


# ---------------------------------------------------------------------------
# data-locality sample placement


class _SampleState:
    """Per-(micro_batch, layer) loads and per-GPU token totals of placed samples.

    A placement is the (S,) array of every sample's source GPU. A new state
    has none placed; `fork` places every sample as a placement says. Sample
    i adds `dst_mass[i] @ dense[src]` from source GPU src in the greedy start
    and the chain alike; loads are integer token sums, so any order of
    charges gives the evaluator's loads exactly.
    """

    def __init__(self, trace, plans: Sequence[ReorderPlan], topo: ClusterTopology, model,
                 hw: HardwareProfile, beta: float):
        if trace.samples is None:
            raise ValueError("trace has no sample table")
        self.trace, self.plans, self.topo, self.beta = trace, plans, topo, beta
        self.samples = s = trace.samples
        self.units = cm.TimeUnits.of(model, hw, topo.num_gpus)
        g, mb_count = topo.num_gpus, trace.num_micro_batches
        # dst_mass[i, layer, gpu]: sample i's tokens routed to experts hosted on gpu
        hosts = np.eye(g)[np.stack([plan.assignment for plan in plans])]  # (L, E, G) one-hot
        self.dst_mass = np.einsum("sle,leg->slg", s.counts.astype(np.float64), hosts)
        # dense[src, dst]: the flat (5 * G) loads of one token from src served on dst
        self.dense = topo.charges.dense().reshape(g, g, 5 * g)
        self.mean = np.bincount(s.micro_batch, weights=s.tokens, minlength=mb_count) / g
        self.loads5 = np.zeros((mb_count, len(plans), 5, g))
        self.totals = np.zeros((mb_count, g))
        self.placement = np.zeros(s.num_samples, dtype=np.int64)

    def fork(self, placement: np.ndarray) -> "_SampleState":
        """A state with every sample placed, loads as the evaluator computes them."""
        clone = copy.copy(self)
        clone.placement = np.asarray(placement, dtype=np.int64).copy()
        x = rewrite_trace_matrices(self.trace, clone.placement)
        clone.loads5 = np.array([[cm.compute_loads(x[mb, layer], plan.assignment, self.topo)
                                  for layer, plan in enumerate(self.plans)] for mb in range(len(x))])
        clone.totals = np.zeros_like(self.totals)
        np.add.at(clone.totals, (self.samples.micro_batch, clone.placement), self.samples.tokens)
        return clone

    def entry_exact(self, mb: int) -> float:
        return sum(self.units.exact(loads5) for loads5 in self.loads5[mb])

    def exact_total(self) -> float:
        return sum(self.entry_exact(mb) for mb in range(self.loads5.shape[0]))


def greedy_sample_initial(trace, plans: Sequence[ReorderPlan], topo, model, hw,
                          beta: float = 20.0) -> np.ndarray:
    """Longest-first greedy: each sample goes to the GPU with the lowest
    resulting per-micro-batch communication time, within the token band.

    All fitting GPUs of a sample are scored in one array pass over the dense
    charge table; scanning them in GPU order, a GPU wins if it beats the
    best so far by more than 1e-15.
    """
    state = _SampleState(trace, plans, topo, model, hw, beta)
    s = trace.samples
    layers, g = state.loads5.shape[1], topo.num_gpus
    order = np.lexsort((np.arange(s.num_samples), -s.tokens.astype(np.int64)))
    for i in order:
        mb = int(s.micro_batch[i])
        hi = (1.0 + SAMPLE_BAND) * state.mean[mb]
        fits = np.flatnonzero(state.totals[mb] + s.tokens[i] <= hi + 1e-9)
        if not len(fits):
            fits = np.array([np.argmin(state.totals[mb])])
        placed = state.loads5[mb] + (state.dst_mass[i] @ state.dense[fits]).reshape(len(fits), layers, 5, g)
        comm = state.units.times(placed)[:, :, 1:].max(axis=(2, 3))  # (fits, L)
        best, best_obj = 0, math.inf
        for k, per_layer in enumerate(comm.tolist()):
            obj = sum(per_layer)
            if obj < best_obj - 1e-15:
                best, best_obj = k, obj
        state.loads5[mb] = placed[best]
        state.totals[mb, fits[best]] += float(s.tokens[i])
        state.placement[i] = fits[best]
    return state.placement


def _run_sample_chain(base: _SampleState, initial: np.ndarray, cfg: AnnealConfig, seed: int) -> np.ndarray:
    """One sample-swap chain; returns its best-so-far placement.

    Each micro-batch's smoothed time, its layers' times summed from 0, is
    cached. A swap builds the swapped loads of the one or two micro-batches
    it touches as new arrays, a move being `dst_mass[k] @ (dense[dst] -
    dense[src])`, and scores each as one `TimeUnits.smoothed_rows` stack;
    only an accepted swap writes loads, token totals, placement and cached
    times. A swap that leaves the token band draws no uniform.
    """
    state = base.fork(initial)
    s = state.samples
    mean = state.mean.tolist()
    micro_batch, tokens = s.micro_batch.tolist(), s.tokens.tolist()
    stream = ChainStream(seed)
    times = [sum(state.units.smoothed_rows(loads, state.beta)) for loads in state.loads5]
    t_cur = sum(times)
    theta = t_cur if t_cur > 0 else 1.0
    eps = EPS_FRAC * theta
    best_assign = state.placement.copy()
    best_t = t_cur
    while theta > eps:
        i, j = stream.pair(s.num_samples)
        gi, gj = int(state.placement[i]), int(state.placement[j])
        if i == j or gi == gj:
            theta *= cfg.cooling_rate
            continue
        loads, totals = {}, {}  # swapped loads per micro-batch, token totals per (micro-batch, GPU)
        for k, src, dst in ((i, gi, gj), (j, gj, gi)):
            mb = micro_batch[k]
            moved = (state.dst_mass[k] @ (state.dense[dst] - state.dense[src])).reshape(state.loads5.shape[1:])
            loads[mb] = loads.get(mb, state.loads5[mb]) + moved
            totals[mb, src] = totals.get((mb, src), state.totals[mb, src]) - tokens[k]
            totals[mb, dst] = totals.get((mb, dst), state.totals[mb, dst]) + tokens[k]
        scored = {mb: sum(state.units.smoothed_rows(new, state.beta)) for mb, new in loads.items()}
        in_band = all((1.0 - SAMPLE_BAND) * mean[mb] - 1e-9 <= total <= (1.0 + SAMPLE_BAND) * mean[mb] + 1e-9
                      for (mb, _), total in totals.items())
        diff = sum(scored.values()) - sum(times[mb] for mb in scored)
        if in_band and (diff < 0 or stream.random() < math.exp(-min(max(diff, 0.0) / theta, 745.0))):
            for mb, new in loads.items():
                state.loads5[mb] = new
                times[mb] = scored[mb]
            for (mb, gpu), total in totals.items():
                state.totals[mb, gpu] = total
            state.placement[i], state.placement[j] = gj, gi
            t_cur += diff
            if t_cur < best_t:
                best_t = t_cur
                best_assign = state.placement.copy()
        theta *= cfg.cooling_rate
    return best_assign


def anneal_sample_placement(
    trace,
    plans: Sequence[ReorderPlan],
    topo,
    model,
    hw: HardwareProfile,
    cfg: AnnealConfig,
) -> np.ndarray:
    """Second annealing round: swap sample source GPUs under fixed expert plans.

    The objective is the smoothed MoE time summed over every micro-batch and
    layer; moves that would leave a GPU's token total outside the +/-SAMPLE_BAND
    around the per-micro-batch mean are rejected. Returns the (S,) source GPU
    array of lowest summed exact time among the trace's own placement, the
    greedy start and each chain's best (first minimum wins, in that order), so
    the pass never loses to not moving and exact ties keep samples in place.
    """
    initial = greedy_sample_initial(trace, plans, topo, model, hw, beta=cfg.beta)
    base = _SampleState(trace, plans, topo, model, hw, cfg.beta)
    candidates = [trace.samples.source_gpu.astype(np.int64), initial]
    if topo.num_gpus >= 2 and trace.samples.num_samples >= 2:
        candidates.extend(_run_sample_chain(base, initial, cfg, seed) for seed in cfg.seeds)
    return min(candidates, key=lambda placement: base.fork(placement).exact_total())


def rewrite_trace_matrices(trace, source_gpu: np.ndarray) -> np.ndarray:
    """All (MB, L, G, E) matrices with each sample i's rows moved to GPU source_gpu[i]."""
    s = trace.samples
    if s is None:
        raise ValueError("trace has no sample table")
    out = trace.matrices.astype(np.float64)
    counts = s.counts.astype(np.float64)  # (S, L, E)
    np.subtract.at(out, (s.micro_batch, slice(None), s.source_gpu), counts)
    np.add.at(out, (s.micro_batch, slice(None), source_gpu), counts)
    if out.min() < 0:
        raise ValueError("sample relocation produced negative counts")
    return out
