"""Token-to-expert routing traces: representation, file format, synthesis, metrics.

A trace directory holds:

  manifest.json   model/topology/batch dimensions plus generator provenance
  routing.bin     little-endian u32 counts, row-major
                  [micro_batch][layer][source_gpu][expert]
  samples.bin     optional, u32 counts [sample][layer][expert]
  samples.json    optional, per-sample micro batch, source GPU, token length

Counts are token counts; every source row sums to tokens_on_gpu * top_k.
A manifest tokens_per_gpu of 0 marks a variable-tokens trace: row sums then
only need to be divisible by top_k and identical across layers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .topology import ClusterTopology, HardwareProfile, build_topology

MANIFEST_VERSION = 1
U32_MAX = 2**32 - 1

# required manifest keys by JSON type; "expert_param_bytes" is an optional
# integer (absent or null derives it from the sizes)
MANIFEST_INTS = (
    "version",
    "num_layers",
    "num_experts",
    "top_k",
    "num_micro_batches",
    "num_nodes",
    "gpus_per_node",
    "tokens_per_gpu",
    "hidden_size",
    "intermediate_size",
)
MANIFEST_NUMBERS = ("flops_per_gpu", "bw_nvlink_Bps", "bw_rdma_Bps", "bytes_per_token")
MANIFEST_REQUIRED = MANIFEST_INTS + MANIFEST_NUMBERS
SAMPLE_KEYS = ("micro_batch", "source_gpu", "tokens")  # int32 columns of samples.json
INT32_MAX = 2**31 - 1

DEFAULT_HIDDEN_SIZE = 1024
DEFAULT_INTERMEDIATE_SIZE = 512


class TraceFormatError(ValueError):
    """Raised for malformed or internally inconsistent trace files."""


@dataclass(frozen=True)
class ModelProfile:
    """MoE model dimensions relevant to routing and cost."""

    num_layers: int
    num_experts: int
    top_k: int
    hidden_size: int = DEFAULT_HIDDEN_SIZE
    intermediate_size: int = DEFAULT_INTERMEDIATE_SIZE
    expert_param_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.num_layers < 1 or self.num_experts < 1:
            raise ValueError("model needs at least one layer and one expert")
        if not 1 <= self.top_k <= self.num_experts:
            raise ValueError(f"top_k {self.top_k} outside [1, {self.num_experts}]")
        if self.hidden_size < 1 or self.intermediate_size < 1:
            raise ValueError("hidden/intermediate sizes must be positive")
        try:  # costmodel.TimeUnits' FLOP scale, computed the same way
            fits = 6.0 * self.hidden_size * self.intermediate_size < float("inf")
        except OverflowError:
            fits = False
        if not fits:
            raise ValueError(f"hidden_size {self.hidden_size} and intermediate_size {self.intermediate_size}: "
                             "the FLOP scale 6*h*h' does not fit a float")
        if self.expert_param_bytes is not None and self.expert_param_bytes < 1:
            raise ValueError(f"expert_param_bytes must be positive, got {self.expert_param_bytes}")

    @property
    def param_bytes(self) -> int:
        """Bytes of one expert's parameters (three h x h' GEMM weights, bf16 default)."""
        if self.expert_param_bytes is not None:
            return self.expert_param_bytes
        return 3 * 2 * self.hidden_size * self.intermediate_size

    def experts_per_gpu(self, topo: ClusterTopology) -> int:
        if self.num_experts % topo.num_gpus != 0:
            raise ValueError(
                f"{self.num_experts} experts not divisible by {topo.num_gpus} GPUs"
            )
        return self.num_experts // topo.num_gpus


@dataclass(frozen=True)
class TraceGenSpec:
    """Knobs of the synthetic trace generator.

    Each domain gets a popularity profile per layer drawn from a symmetric
    Dirichlet with concentration dirichlet_alpha; small alpha means spiky,
    unstable hot sets. domain_focus in [0, 1) additionally concentrates that
    fraction of every domain's mass on a contiguous block of |E|/2 hot
    experts at the low indices, with one shared within-block profile per
    layer, so the batch-stable hot region sits in adjacent expert slots
    while which of its members top the ranking churns micro-batch to
    micro-batch. Micro-batches take the domains in turn, in shuffled order.

    With redraw_concentration set, each micro-batch's popularity is a fresh
    Dirichlet draw around its domain's profile (parameter redraw * |E| * profile),
    so individual expert loads wobble from one micro-batch to the next even
    inside a single domain; smaller values mean stronger wobble. Left unset,
    a micro-batch uses its domain's profile exactly.
    """

    num_domains: int
    dirichlet_alpha: float
    tokens_per_gpu: int = 1024
    rng_seed: int = 0
    domain_focus: float = 0.0
    redraw_concentration: float | None = None
    samples_per_gpu: int = 0

    def __post_init__(self) -> None:
        if self.num_domains < 1:
            raise ValueError("need at least one domain")
        if not (math.isfinite(self.dirichlet_alpha) and self.dirichlet_alpha > 0):
            raise ValueError(f"dirichlet_alpha must be finite and > 0, got {self.dirichlet_alpha!r}")
        if not 0 <= self.domain_focus < 1:
            raise ValueError("domain_focus must be in [0, 1)")
        redraw = self.redraw_concentration
        if redraw is not None and not (math.isfinite(redraw) and redraw > 0):
            raise ValueError(f"redraw_concentration must be finite and > 0 when set, got {redraw!r}")
        if self.tokens_per_gpu < 1:
            raise ValueError("tokens_per_gpu must be >= 1")
        if self.samples_per_gpu < 0:
            raise ValueError("samples_per_gpu must be >= 0")


@dataclass
class SampleTable:
    """Per-sample routing decomposition for data-locality planning."""

    counts: np.ndarray      # (S, L, E) u32
    micro_batch: np.ndarray  # (S,)
    source_gpu: np.ndarray   # (S,)
    tokens: np.ndarray       # (S,)

    @property
    def num_samples(self) -> int:
        return len(self.tokens)


@dataclass
class RoutingTrace:
    """A full trace: one routing matrix per (micro_batch, layer)."""

    model: ModelProfile
    topo: ClusterTopology
    matrices: np.ndarray  # (MB, L, G, E) u32
    tokens_per_gpu: int
    samples: SampleTable | None = None
    generator: dict = field(default_factory=dict)

    @property
    def num_micro_batches(self) -> int:
        return self.matrices.shape[0]

    def trace_id(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(_manifest_dict(self), sort_keys=True).encode())
        h.update(np.ascontiguousarray(self.matrices, dtype="<u4").tobytes())
        return h.hexdigest()[:16]

    def validate(self) -> None:
        mb, layers, g, e = self.matrices.shape
        if mb < 1:
            raise TraceFormatError("trace has no micro-batches")
        if layers != self.model.num_layers or e != self.model.num_experts:
            raise TraceFormatError("matrix dimensions disagree with the model profile")
        if g != self.topo.num_gpus:
            raise TraceFormatError("matrix dimensions disagree with the topology")
        self.model.experts_per_gpu(self.topo)
        if self.tokens_per_gpu < 0:
            raise TraceFormatError(f"tokens_per_gpu must be >= 0 (0 marks a variable-tokens trace), "
                                   f"got {self.tokens_per_gpu}")
        row_sums = self.matrices.astype(np.int64).sum(axis=3)  # (MB, L, G)
        if (row_sums % self.model.top_k != 0).any():
            raise TraceFormatError("row sums are not divisible by top_k")
        if (row_sums != row_sums[:, :1, :]).any():
            raise TraceFormatError("per-GPU token counts differ across layers of one micro-batch")
        if self.tokens_per_gpu > 0:
            expected = self.tokens_per_gpu * self.model.top_k
            if (row_sums != expected).any():
                raise TraceFormatError(
                    f"row sums do not match tokens_per_gpu * top_k = {expected}"
                )
        if self.samples is not None:
            self._validate_samples()

    def _validate_samples(self) -> None:
        s = self.samples
        mb, layers, g, e = self.matrices.shape
        if s.counts.shape[1:] != (layers, e):
            raise TraceFormatError("sample counts disagree with trace dimensions")
        if not (len(s.micro_batch) == len(s.source_gpu) == len(s.tokens) == s.counts.shape[0]):
            raise TraceFormatError("sample index and sample counts disagree in length")
        if s.micro_batch.min(initial=0) < 0 or s.micro_batch.max(initial=0) >= mb:
            raise TraceFormatError("sample micro_batch out of range")
        if s.source_gpu.min(initial=0) < 0 or s.source_gpu.max(initial=0) >= g:
            raise TraceFormatError("sample source_gpu out of range")
        routed = s.counts.astype(np.int64).sum(axis=2)  # (S, L)
        bad = np.flatnonzero((routed != s.tokens.astype(np.int64)[:, None] * self.model.top_k).any(axis=1))
        if bad.size:
            raise TraceFormatError(f"sample {bad[0]} routes {routed[bad[0]].tolist()} expert assignments per layer, "
                                   f"not tokens * top_k = {s.tokens[bad[0]]} * {self.model.top_k}")
        rebuilt = np.zeros((mb, layers, g, e), dtype=np.int64)
        np.add.at(rebuilt, (s.micro_batch, slice(None), s.source_gpu), s.counts.astype(np.int64))
        if (rebuilt != self.matrices.astype(np.int64)).any():
            raise TraceFormatError("per-GPU sums over samples do not reproduce the routing matrices")


def _manifest_dict(trace: RoutingTrace) -> dict:
    hw = trace.topo.profile
    manifest = {
        "version": MANIFEST_VERSION,
        "num_layers": trace.model.num_layers,
        "num_experts": trace.model.num_experts,
        "top_k": trace.model.top_k,
        "num_micro_batches": trace.num_micro_batches,
        "num_nodes": trace.topo.num_nodes,
        "gpus_per_node": trace.topo.gpus_per_node,
        "tokens_per_gpu": trace.tokens_per_gpu,
        "flops_per_gpu": hw.flops_per_gpu,
        "bw_nvlink_Bps": hw.bw_nvlink,
        "bw_rdma_Bps": hw.bw_rdma,
        "bytes_per_token": hw.bytes_per_token,
        "hidden_size": trace.model.hidden_size,
        "intermediate_size": trace.model.intermediate_size,
        "expert_param_bytes": trace.model.param_bytes,
        "has_samples": trace.samples is not None,
    }
    if trace.generator:
        manifest["generator"] = trace.generator
    return manifest


def save_trace(trace: RoutingTrace, path: str | Path) -> None:
    """Write manifest.json, routing.bin and optional sample files to path."""
    trace.validate()
    if trace.matrices.max(initial=0) > U32_MAX:
        raise TraceFormatError("token counts exceed the u32 trace format")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(_manifest_dict(trace), indent=2, sort_keys=True) + "\n")
    (out / "routing.bin").write_bytes(np.ascontiguousarray(trace.matrices, dtype="<u4").tobytes())
    if trace.samples is not None:
        s = trace.samples
        (out / "samples.bin").write_bytes(np.ascontiguousarray(s.counts, dtype="<u4").tobytes())
        index = [
            {"micro_batch": int(s.micro_batch[i]), "source_gpu": int(s.source_gpu[i]), "tokens": int(s.tokens[i])}
            for i in range(s.num_samples)
        ]
        (out / "samples.json").write_text(json.dumps({"samples": index}, indent=2) + "\n")


def load_trace(path: str | Path) -> RoutingTrace:
    """Read a trace directory back, validating every invariant."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise TraceFormatError(f"missing manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as err:
        raise TraceFormatError(f"malformed manifest: {err}") from err
    _check_manifest(manifest, manifest_path)
    if manifest["version"] != MANIFEST_VERSION:
        raise TraceFormatError(f"unsupported trace version {manifest['version']}")

    model = ModelProfile(
        num_layers=manifest["num_layers"],
        num_experts=manifest["num_experts"],
        top_k=manifest["top_k"],
        hidden_size=manifest["hidden_size"],
        intermediate_size=manifest["intermediate_size"],
        expert_param_bytes=manifest.get("expert_param_bytes"),
    )
    topo = build_topology(
        manifest["num_nodes"],
        manifest["gpus_per_node"],
        HardwareProfile(
            flops_per_gpu=manifest["flops_per_gpu"],
            bw_nvlink=manifest["bw_nvlink_Bps"],
            bw_rdma=manifest["bw_rdma_Bps"],
            bytes_per_token=manifest["bytes_per_token"],
        ),
    )
    shape = (
        manifest["num_micro_batches"],
        model.num_layers,
        topo.num_gpus,
        model.num_experts,
    )
    payload = (root / "routing.bin").read_bytes() if (root / "routing.bin").is_file() else None
    if payload is None:
        raise TraceFormatError(f"missing routing.bin in {root}")
    expected_bytes = math.prod(shape) * 4  # exact: np.prod wraps past int64
    if len(payload) != expected_bytes:
        raise TraceFormatError(
            f"routing.bin holds {len(payload)} bytes, manifest implies {expected_bytes}"
        )
    matrices = np.frombuffer(payload, dtype="<u4").reshape(shape).copy()

    trace = RoutingTrace(
        model=model,
        topo=topo,
        matrices=matrices,
        tokens_per_gpu=manifest["tokens_per_gpu"],
        generator=manifest.get("generator", {}),
    )
    trace.validate()
    if manifest.get("has_samples"):
        trace.samples = _load_samples(root, shape)
        try:
            trace._validate_samples()
        except TraceFormatError as err:
            raise TraceFormatError(f"{root / 'samples.json'}: {err}") from err
    return trace


def _check_types(obj: dict, typed: dict, where: str, optional=()) -> None:
    """Every key of `typed` holds a value of exactly its JSON type; a key in
    `optional` may also be absent or null."""
    for key, kind in typed.items():
        value = obj.get(key)
        if value is None and key in optional:
            continue
        # exact types: JSON true/false load as bool, which is no count
        if not (type(value) is kind or (kind is float and type(value) is int)):
            name = {int: "an integer", float: "a number", bool: "true or false"}[kind]
            raise TraceFormatError(f"{where}{key} must be {name}, got {value!r}")


def _check_manifest(manifest, path: Path) -> None:
    """Every required key present, and every typed key of its JSON type."""
    if not isinstance(manifest, dict):
        raise TraceFormatError(f"{path}: manifest is not a JSON object")
    missing = [key for key in MANIFEST_REQUIRED if key not in manifest]
    if missing:
        raise TraceFormatError(f"manifest missing keys: {', '.join(missing)}")
    typed = {**dict.fromkeys(MANIFEST_INTS, int), **dict.fromkeys(MANIFEST_NUMBERS, float),
             "expert_param_bytes": int, "has_samples": bool}
    _check_types(manifest, typed, f"{path}: ", optional=("expert_param_bytes", "has_samples"))


def _load_samples(root: Path, shape: tuple) -> SampleTable:
    bin_path = root / "samples.bin"
    idx_path = root / "samples.json"
    if not bin_path.is_file() or not idx_path.is_file():
        raise TraceFormatError("manifest declares samples but sample files are missing")
    try:
        data = json.loads(idx_path.read_text())
    except json.JSONDecodeError as err:
        raise TraceFormatError(f"{idx_path}: malformed JSON ({err})") from err
    index = data.get("samples") if isinstance(data, dict) else None
    if not isinstance(index, list):
        raise TraceFormatError(f"{idx_path}: expected a JSON object with a 'samples' list")
    for i, sample in enumerate(index):
        if not isinstance(sample, dict):
            raise TraceFormatError(f"{idx_path}: samples[{i}] is not a JSON object")
        _check_types(sample, dict.fromkeys(SAMPLE_KEYS, int), f"{idx_path}: samples[{i}].")
        for key in SAMPLE_KEYS:
            if not 0 <= sample[key] <= INT32_MAX:
                raise TraceFormatError(f"{idx_path}: samples[{i}].{key} must be within [0, {INT32_MAX}], "
                                       f"got {sample[key]}")
    num_samples = len(index)
    _, layers, _, experts = shape
    payload = bin_path.read_bytes()
    expected = num_samples * layers * experts * 4
    if len(payload) != expected:
        raise TraceFormatError(f"samples.bin holds {len(payload)} bytes, index implies {expected}")
    counts = np.frombuffer(payload, dtype="<u4").reshape(num_samples, layers, experts).copy()
    return SampleTable(counts=counts, **{key: np.array([s[key] for s in index], dtype=np.int32)
                                         for key in SAMPLE_KEYS})


def _domain_profiles(spec: TraceGenSpec, model: ModelProfile, rng: np.random.Generator) -> np.ndarray:
    """(L, D, E) popularity vectors, one per layer per domain."""
    e = model.num_experts
    profiles = np.empty((model.num_layers, spec.num_domains, e))
    block_size = max(e // 2, 1)
    for layer in range(model.num_layers):
        focused = np.zeros(e)
        if spec.domain_focus > 0:
            focused[:block_size] = rng.dirichlet(np.full(block_size, spec.dirichlet_alpha))
        for d in range(spec.num_domains):
            base = rng.dirichlet(np.full(e, spec.dirichlet_alpha))
            profiles[layer, d] = (1.0 - spec.domain_focus) * base + spec.domain_focus * focused
    return profiles


def _micro_batch_popularity(spec: TraceGenSpec, profiles: np.ndarray, num_micro_batches: int, rng: np.random.Generator) -> np.ndarray:
    """(MB, L, E) per-micro-batch popularity: every domain in turn, shuffled."""
    layers, domains, e = profiles.shape
    assignment = np.tile(np.arange(domains), num_micro_batches // domains + 1)[:num_micro_batches]
    rng.shuffle(assignment)
    mixed = profiles[:, assignment, :].transpose(1, 0, 2)
    if spec.redraw_concentration is None:
        return mixed
    out = np.empty_like(mixed)
    for mb in range(num_micro_batches):
        for layer in range(layers):
            alpha = spec.redraw_concentration * e * np.maximum(mixed[mb, layer], 1e-12)
            out[mb, layer] = rng.dirichlet(alpha)
    return out


def generate_synthetic_trace(
    spec: TraceGenSpec,
    model: ModelProfile,
    topo: ClusterTopology,
    num_micro_batches: int,
) -> RoutingTrace:
    """Draw a trace whose hot experts shift across micro-batches.

    Deterministic for a fixed (spec, model, topo): all randomness flows from
    spec.rng_seed through named child streams.
    """
    seq = np.random.SeedSequence(spec.rng_seed)
    rng_profiles, rng_mix, rng_tokens, rng_samples = (
        np.random.default_rng(child) for child in seq.spawn(4)
    )
    if num_micro_batches < 1:
        raise ValueError(f"need at least one micro-batch, got {num_micro_batches}")
    g = topo.num_gpus
    model.experts_per_gpu(topo)
    assignments_per_row = spec.tokens_per_gpu * model.top_k
    if assignments_per_row > U32_MAX:
        raise ValueError("tokens_per_gpu * top_k exceeds the u32 trace format")

    profiles = _domain_profiles(spec, model, rng_profiles)
    popularity = _micro_batch_popularity(spec, profiles, num_micro_batches, rng_mix)

    matrices = np.zeros((num_micro_batches, model.num_layers, g, model.num_experts), dtype=np.uint32)
    samples = None
    if spec.samples_per_gpu > 0:
        samples = _generate_with_samples(spec, model, g, num_micro_batches, popularity, matrices, rng_samples)
    else:
        for mb in range(num_micro_batches):
            for layer in range(model.num_layers):
                p = popularity[mb, layer]
                for j in range(g):
                    matrices[mb, layer, j] = rng_tokens.multinomial(assignments_per_row, p)

    trace = RoutingTrace(
        model=model,
        topo=topo,
        matrices=matrices,
        tokens_per_gpu=spec.tokens_per_gpu,
        samples=samples,
        generator={
            "kind": "synthetic",
            "num_domains": spec.num_domains,
            "dirichlet_alpha": spec.dirichlet_alpha,
            "domain_mix": "shuffled",
            "domain_focus": spec.domain_focus,
            "redraw_concentration": spec.redraw_concentration,
            "tokens_per_gpu": spec.tokens_per_gpu,
            "samples_per_gpu": spec.samples_per_gpu,
            "rng_seed": spec.rng_seed,
        },
    )
    trace.validate()
    return trace


def _generate_with_samples(spec, model, g, num_micro_batches, popularity, matrices, rng) -> SampleTable:
    """Split each GPU's tokens into samples, route per sample, sum into rows."""
    per_gpu = spec.samples_per_gpu
    total = num_micro_batches * g * per_gpu
    counts = np.zeros((total, model.num_layers, model.num_experts), dtype=np.uint32)
    micro_batch = np.zeros(total, dtype=np.int32)
    source_gpu = np.zeros(total, dtype=np.int32)
    tokens = np.zeros(total, dtype=np.int32)
    idx = 0
    for mb in range(num_micro_batches):
        for j in range(g):
            lengths = _random_composition(spec.tokens_per_gpu, per_gpu, rng)
            for length in lengths:
                micro_batch[idx] = mb
                source_gpu[idx] = j
                tokens[idx] = length
                for layer in range(model.num_layers):
                    row = rng.multinomial(length * model.top_k, popularity[mb, layer])
                    counts[idx, layer] = row
                    matrices[mb, layer, j] += row.astype(np.uint32)
                idx += 1
    return SampleTable(counts=counts, micro_batch=micro_batch, source_gpu=source_gpu, tokens=tokens)


def _random_composition(total: int, parts: int, rng: np.random.Generator) -> np.ndarray:
    """Split `total` into `parts` positive integers, uniformly at random."""
    if parts > total:
        raise ValueError(f"cannot split {total} tokens into {parts} samples")
    if parts == 1:
        return np.array([total])
    cuts = np.sort(rng.choice(total - 1, size=parts - 1, replace=False)) + 1
    return np.diff(np.concatenate([[0], cuts, [total]]))


def aggregate_batch(trace: RoutingTrace, layer: int) -> np.ndarray:
    """Elementwise sum of one layer's routing matrices over all micro-batches."""
    if not 0 <= layer < trace.model.num_layers:
        raise ValueError(f"layer {layer} out of range [0, {trace.model.num_layers})")
    return trace.matrices[:, layer].astype(np.int64).sum(axis=0)


def skewness(loads) -> float:
    """max(loads) / mean(loads); 1.0 means perfectly balanced."""
    loads = np.asarray(loads, dtype=np.float64).ravel()
    if loads.size == 0:
        raise ValueError("skewness of an empty load vector")
    if loads.min() < 0:
        raise ValueError("loads must be non-negative")
    total = loads.sum()
    if total == 0:
        raise ValueError("skewness undefined for an all-zero load vector")
    return float(loads.max() * loads.size / total)


def top_k_experts(expert_loads: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest loads; ties broken toward lower expert index."""
    order = np.lexsort((np.arange(len(expert_loads)), -np.asarray(expert_loads, dtype=np.float64)))
    return order[:k]


def hot_expert_intersection(trace: RoutingTrace, layer: int, k: int) -> np.ndarray:
    """Adjacent-micro-batch overlap ratios |top_k(t) & top_k(t+1)| / k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > trace.model.num_experts:
        raise ValueError(f"k = {k} exceeds the expert count {trace.model.num_experts}")
    if trace.num_micro_batches < 2:
        raise ValueError("need at least two micro-batches")
    if not 0 <= layer < trace.model.num_layers:
        raise ValueError(f"layer {layer} out of range")
    hot = [
        set(top_k_experts(trace.matrices[mb, layer].astype(np.int64).sum(axis=0), k).tolist())
        for mb in range(trace.num_micro_batches)
    ]
    return np.array([
        len(hot[t] & hot[t + 1]) / k for t in range(len(hot) - 1)
    ])
