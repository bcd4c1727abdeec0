"""Ablation — offline triplet strategies: client-aided dealer vs OT.

ParSecureML's offline phase relies on the client acting as a trusted
dealer; the original SecureML also specifies a dealer-free OT-based
offline whose cost is what made SecureML's end-to-end times painful.
This ablation prices both strategies for the paper's benchmark shapes
with cost models only: the dealer's from ``repro.simgpu.cost``, the
OT offline's from :func:`ot_triplet_offline_cost` below (Gilboa
multiplication over Bellare-Micali OT, one OT per bit of each cross
term).

Shape claims: OT offline is orders of magnitude above the dealer for
every workload, and the gap *grows* with matrix size — the quantitative
justification for the client-aided design the paper builds on.
"""

from repro.bench.reporting import format_table
from repro.simgpu.cost import V100_SPEC, XEON_E5_2670V3_SPEC as CPU

_BITS = 64
# wire sizes of one Bellare-Micali OT instance (group elements ~64 B)
_OT_BYTES = 64 + 64 + 2 * (64 + 8)

# (label, (m, k, n)) — triplet shapes of representative paper workloads
SHAPES = [
    ("MNIST MLP layer", (128, 784, 128)),
    ("CIFAR-10 MLP layer", (128, 3072, 128)),
    ("VGGFace2 MLP layer", (128, 40000, 128)),
]


def ot_triplet_offline_cost(
    n_elements: int,
    *,
    exp_seconds: float = 150e-6,
    link_bandwidth_gbps: float = 12.0,
    link_latency_s: float = 1.5e-6,
) -> tuple[float, int]:
    """(seconds, bytes) to generate ``n`` elementwise triplets via OT.

    ``exp_seconds`` is the cost of one modular exponentiation (~512-bit
    group, CPU); each OT instance needs ~4 of them across both parties.
    """
    ots = 2 * _BITS * n_elements
    compute_s = ots * 4 * exp_seconds
    wire_bytes = ots * _OT_BYTES
    network_s = wire_bytes / (link_bandwidth_gbps * 1e9) + ots * link_latency_s
    return compute_s + network_s, wire_bytes


def dealer_cost(m: int, k: int, n: int) -> float:
    """Client-aided dealer: RNG + Z=U@V on the client GPU + upload."""
    rng_s = CPU.rng_seconds(8 * (m * k + k * n), parallel=True)
    gemm_s = V100_SPEC.gemm_seconds(m, k, n) + V100_SPEC.transfer_seconds(
        8 * (m * k + k * n + m * n)
    )
    upload_s = 3 * 8 * (m * k + k * n + m * n) / (12.0 * 1e9)
    return rng_s + gemm_s + upload_s


def ot_cost(m: int, k: int, n: int) -> float:
    """Dealer-free OT offline for one matrix triplet.

    A matrix triplet needs m*k*n scalar products' worth of cross terms
    (the Gilboa construction per inner-product element).
    """
    seconds, _ = ot_triplet_offline_cost(m * k * n)
    return seconds


def test_offline_strategy(benchmark):
    rows = benchmark.pedantic(
        lambda: [
            {
                "workload": label,
                "dealer (s)": dealer_cost(*shape),
                "OT-based (s)": ot_cost(*shape),
                "ratio": ot_cost(*shape) / dealer_cost(*shape),
            }
            for label, shape in SHAPES
        ],
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, ["workload", "dealer (s)", "OT-based (s)", "ratio"],
                       title="Ablation: offline triplet generation strategies"))
    ratios = [r["ratio"] for r in rows]
    assert all(r > 100 for r in ratios), "OT offline must be orders of magnitude costlier"
    assert ratios[-1] > ratios[0], "the gap grows with matrix size"
