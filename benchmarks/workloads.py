"""The three benchmark workloads: how each trace is built and which CLI
arguments `solve` and `simulate` get.

The workload seed only shapes the generated traces. `solve` keeps its own
default master seed, so the program receives nothing from the harness but
the trace directory and the flags listed here.

How long `solve` and `simulate` take depends on the trace: the LP pivot
count of one quickstart trace differs by 2x between seeds. An untraced run
therefore measures several traces, `trace_seeds(seed, traces)`; the first
one is the workload seed itself.
"""

from __future__ import annotations

from dataclasses import dataclass

POLICIES = "static,lpt,eplb,lplb,balanced,relibra"
POLICY_NAMES = ("static", "lpt_only", "eplb_like", "lplb_like", "balanced_oracle", "relibra")

# README quickstart cluster and hardware: 4 nodes x 8 GPUs, 128 experts.
CLUSTER = ["--nodes", "4", "--gpus-per-node", "8", "--experts", "128", "--top-k", "8",
           "--tokens-per-gpu", "1024", "--domains", "3", "--alpha", "4096", "--focus", "0.82",
           "--flops", "2.577e10", "--bw-nvlink", "4.5e5", "--bw-rdma", "2.5e4"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen_args: tuple[str, ...] | None  # `moebalance gen` flags; None builds through the routing API
    micro_batches: int
    traces: int                       # distinct traces per untraced run
    solve_args: tuple[str, ...]
    replica_slots: int
    dominant: str                     # span name expected to dominate traced solve time
    exercises: str
    bypasses: str

    def simulate_args(self) -> list[str]:
        return ["--replica-slots", str(self.replica_slots), "--policies", POLICIES]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="quickstart-ep32",
            why="the README quickstart a new user runs first; solve is annealing-heavy",
            gen_args=("--layers", "1", "--micro-batches", "8", *CLUSTER),
            micro_batches=8,
            traces=3,
            solve_args=("--replica-slots", "2", "--beta", "20"),
            replica_slots=2,
            dominant="reorder.anneal_reorder",
            exercises="reorder (16 annealing chains), replicate greedy, lp, LPLB re-splits in simulate",
            bypasses="sample-locality pass",
        ),
        Workload(
            name="churn-ep32",
            why="criterion-6/7 study trace with per-micro-batch redraw; solve is replication/LP-heavy "
                "and relibra beats LPLB here",
            gen_args=None,
            micro_batches=16,
            traces=3,
            solve_args=("--replica-slots", "1", "--seeds", "1"),
            replica_slots=1,
            dominant="replicate.greedy_replicate",
            exercises="replicate greedy + lp warm starts/rollbacks on 16 entries, costmodel",
            bypasses="sample-locality pass; annealing is a single chain",
        ),
        Workload(
            name="locality-ep32x2",
            why="two-layer trace with a sample table; solve is dominated by the sample-placement "
                "annealer and never replicates",
            gen_args=("--layers", "2", "--micro-batches", "4", "--samples-per-gpu", "2", *CLUSTER),
            micro_batches=4,
            traces=3,
            solve_args=("--sample-locality", "--seeds", "1", "--replica-slots", "0", "--cooling", "0.998"),
            replica_slots=0,
            dominant="reorder.anneal_sample_placement",
            exercises="reorder sample pass (init, annealing, rewrite), two-layer expert annealing",
            bypasses="replicate greedy and the LP (zero replica slots in solve and simulate)",
        ),
    )
}


def trace_seeds(seed: int, count: int) -> list[int]:
    """Generator seeds of the traces one run measures; the first is `seed`."""
    return [(seed + 1000 * i) % (1 << 63) for i in range(count)]


def build_trace(workload: Workload, seed: int, out_dir: str, cli, rt) -> None:
    """Generate the workload trace for `seed` and write it to out_dir.

    quickstart and locality go through `moebalance gen`; churn needs
    `redraw_concentration`, which `gen` has no flag for, so it uses the same
    public routing API as the acceptance study trace.
    """
    if workload.gen_args is not None:
        rc = cli.main(["gen", "--out", out_dir, "--seed", str(seed), *workload.gen_args])
        if rc != 0:
            raise RuntimeError(f"gen exited with {rc}")
        return
    from moebalance.topology import HardwareProfile, build_topology
    hw = HardwareProfile(2.577e10, 4.5e5, 2.5e4, 1.0)
    topo = build_topology(4, 8, hw)
    model = rt.ModelProfile(num_layers=1, num_experts=128, top_k=8)
    spec = rt.TraceGenSpec(num_domains=3, dirichlet_alpha=4096.0, tokens_per_gpu=1024,
                           rng_seed=seed, domain_focus=0.82, redraw_concentration=64.0)
    trace = rt.generate_synthetic_trace(spec, model, topo, workload.micro_batches)
    rt.save_trace(trace, out_dir)
