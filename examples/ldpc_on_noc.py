"""LDPC decoding on the mesh NoC: the paper's workload, end to end.

This example exercises the full workload substrate:

1. build an LDPC code and encode a random message,
2. push it through a BPSK/AWGN channel and decode it with the min-sum
   decoder (functional check),
3. partition the Tanner graph over the PEs of a 4x4 mesh,
4. run one decoding iteration's message traffic through the cycle-accurate
   NoC simulator, and
5. show how the per-PE switching activity (which drives power, and therefore
   heat) concentrates — the origin of the hotspots the paper migrates away.

Run with:

    python examples/ldpc_on_noc.py
"""

from __future__ import annotations

from repro.analysis import render_grid
from repro.ldpc import (
    BpskAwgnChannel,
    LdpcEncoder,
    MinSumDecoder,
    TannerGraph,
    array_code_parity_matrix,
    count_bit_errors,
    striped_partition,
)
from repro.ldpc.workload import LdpcNocWorkload, WorkloadParameters
from repro.noc import MeshTopology, NocSimulator
from repro.placement import Mapping
from repro.power import map_to_vector


def main() -> None:
    # ------------------------------------------------------------------
    # 1-2. Functional decode over a noisy channel.
    H = array_code_parity_matrix(p=13, j=3, k=6)
    graph = TannerGraph(H)
    encoder = LdpcEncoder(H)
    print(f"LDPC code: n={graph.n}, checks={graph.m}, rate={encoder.rate:.2f}, "
          f"edges={graph.num_edges}")

    codeword = encoder.random_codeword(seed=42)
    channel = BpskAwgnChannel(snr_db=2.5, rate=encoder.rate, seed=7)
    llr = channel.transmit_llr(codeword)
    decoder = MinSumDecoder(graph, max_iterations=25)
    result = decoder.decode(llr, reference_bits=codeword)
    print(f"Decode @ 2.5 dB: success={result.success}, iterations={result.iterations}, "
          f"residual bit errors={count_bit_errors(codeword, result.decoded_bits)}")
    print()

    # ------------------------------------------------------------------
    # 3. Partition the Tanner graph over a 4x4 mesh of PEs.
    topology = MeshTopology(4, 4)
    partition = striped_partition(graph, topology.num_nodes)
    workload = LdpcNocWorkload(partition, WorkloadParameters(max_packet_flits=8))
    print(f"Partition: {partition.cut_edges()} of {graph.num_edges} Tanner edges cross PEs, "
          f"load imbalance {partition.load_imbalance():.2f}")

    # ------------------------------------------------------------------
    # 4. One decoding iteration's traffic through the cycle-accurate NoC.
    mapping = Mapping.identity(topology)
    packets = workload.iteration_packets(mapping)
    simulator = NocSimulator(topology, buffer_depth=8)
    sim_result = simulator.run_packets(packets, drain_limit=500_000)
    print(f"Iteration traffic: {len(packets)} packets, "
          f"{workload.total_flits_per_iteration()} flits, "
          f"delivered in {sim_result.cycles} cycles "
          f"(avg latency {sim_result.average_latency:.1f} cycles)")
    print()

    # ------------------------------------------------------------------
    # 5. Where the activity (and therefore the heat) lands.
    # The renderers take row-major per-PE vectors.
    activity = map_to_vector(topology, sim_result.activity_per_node())
    print(render_grid(topology, activity,
                      title="Per-PE router switching activity for one iteration",
                      unit="events", cell_format="{:8.0f}"))
    computation = workload.computation_ops_per_iteration()
    ops = map_to_vector(topology, {mapping.physical_of(task): float(computation[task])
                                   for task in range(topology.num_nodes)})
    print()
    print(render_grid(topology, ops,
                      title="Per-PE computation operations for one iteration",
                      unit="ops", cell_format="{:8.0f}"))
    print()
    hottest = topology.coordinate(int(activity.argmax()))
    print(f"Busiest router: {hottest} — under a static mapping this imbalance repeats "
          "every iteration, which is exactly what creates the persistent hotspot the "
          "paper's runtime reconfiguration breaks up.")


if __name__ == "__main__":
    main()
