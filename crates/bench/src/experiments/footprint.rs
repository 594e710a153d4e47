//! Experiment T4: space overhead of the marking machinery (the Section 6
//! remark).

use crate::{record, Report};
use dgr_core::driver::{run_mark1, MarkRunConfig};
use dgr_core::footprint;
use dgr_graph::{PartitionMap, Slot};
use dgr_workloads::graphs::random_digraph;

pub(crate) fn run(report: &mut Report) {
    let f = footprint::measure();
    report.table(
        "T4: marking-state footprint (bytes; a slot is color, mt-cnt, mt-par, \
         prior; a vertex has an M_R and an M_T slot)",
        vec![record! {
            "slot_bytes" => f.slot_bytes,
            "per_vertex_marking_bytes" => f.per_vertex_marking_bytes,
            "vertex_bytes" => f.vertex_bytes,
            "marking_pct" => f.marking_fraction * 100.0,
            "compressed_per_pe_bytes" => f.compressed_per_pe_bytes,
        }],
    );
    let rows = [10_000usize, 100_000, 1_000_000]
        .into_iter()
        .map(|n| {
            record! {
                "vertices" => n,
                "uncompressed_bytes" => n * f.per_vertex_marking_bytes,
                "compressed_bytes_per_pe" => f.compressed_per_pe_bytes,
            }
        })
        .collect();
    report.table(
        "T4: marking state by graph size (paper's compressed design: any |V|)",
        rows,
    );

    // What the space saving costs in messages is fixed by the graph: the
    // compressed design sends one mark per cross-PE R-arc out of a marked
    // vertex, and acknowledges each of them plus the initiator's.
    let mut rows = Vec::new();
    for &pes in &[4u16, 16] {
        let mut g = random_digraph(30_000, 3.0, 5);
        let cfg = MarkRunConfig {
            num_pes: pes,
            ..Default::default()
        };
        let full = run_mark1(&mut g, &cfg);
        let partition = PartitionMap::new(pes, g.capacity(), cfg.partition);
        let mut remote = 0u64;
        for v in g.live_ids().filter(|&v| g.mark(v, Slot::R).is_marked()) {
            g.vertex(v).for_each_r_child(|c| {
                remote += u64::from(partition.pe_of(c) != partition.pe_of(v));
            });
        }
        rows.push(record! {
            "pes" => pes,
            "marked" => full.marked,
            "full_msgs" => full.events,
            "full_remote" => full.remote_messages,
            "compressed_remote" => remote,
            "compressed_acks" => remote + 1,
        });
    }
    report.table(
        &format!(
            "T4b: full ({}B/vertex) marking, run, vs the compressed design \
             (1 bit/vertex + 2 words/PE, Section 6), counted from the marked \
             graph — same 30k-vertex graph",
            f.per_vertex_marking_bytes
        ),
        rows,
    );
    println!(
        "\nShape check: the compressed scheme (Dijkstra–Scholten engagement \
         over PEs) would erase the per-vertex mt-cnt/mt-par fields at the cost of \
         one acknowledgement per cross-PE mark; the paper deems the full \
         per-vertex form acceptable when object granularity is large."
    );
}
