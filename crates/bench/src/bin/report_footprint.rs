//! Experiment T4: space overhead of the marking machinery (the Section 6
//! remark).

use dgr_bench::{f2, print_table};
use dgr_core::footprint;

fn main() {
    dgr_bench::Flags::parse(&[], &[]);
    let f = footprint::measure();
    let rows = vec![
        vec![
            "one marking slot (color, mt-cnt, mt-par, prior)".to_string(),
            f.slot_bytes.to_string(),
        ],
        vec![
            "marking overhead per vertex (M_R slot + M_T slot)".to_string(),
            f.per_vertex_marking_bytes.to_string(),
        ],
        vec![
            "whole vertex record".to_string(),
            f.vertex_bytes.to_string(),
        ],
        vec![
            "marking fraction of vertex".to_string(),
            f2(f.marking_fraction * 100.0) + "%",
        ],
        vec![
            "paper's compressed design (per PE, any |V|)".to_string(),
            f.compressed_per_pe_bytes.to_string(),
        ],
    ];
    print_table(
        "T4: marking-state footprint (bytes)",
        &["field", "bytes"],
        &rows,
    );
    for &n in &[10_000usize, 100_000, 1_000_000] {
        println!(
            "|V| = {n:>9}: {:>12} bytes of marking state uncompressed, \
             {} bytes per PE compressed",
            n * f.per_vertex_marking_bytes,
            f.compressed_per_pe_bytes
        );
    }
    // The compressed variant is implemented (dgr_core::compressed):
    // measure what the space saving costs in messages.
    use dgr_core::compressed::run_mark1_compressed;
    use dgr_core::driver::{run_mark1, MarkRunConfig};
    use dgr_graph::PartitionStrategy;
    let mut rows = Vec::new();
    for &pes in &[4u16, 16] {
        let mut g = dgr_workloads::graphs::random_digraph(30_000, 3.0, 5);
        let cfg = MarkRunConfig {
            num_pes: pes,
            ..Default::default()
        };
        let full = run_mark1(&mut g, &cfg);
        let mut g2 = dgr_workloads::graphs::random_digraph(30_000, 3.0, 5);
        let comp = run_mark1_compressed(&mut g2, pes, PartitionStrategy::Modulo);
        assert_eq!(full.marked, comp.marked, "both mark exactly R");
        rows.push(vec![
            pes.to_string(),
            full.marked.to_string(),
            format!("{} ({} remote)", full.events, full.remote_messages),
            format!("{} remote + {} acks", comp.remote_marks, comp.acks),
            format!("{}B/vertex", f.per_vertex_marking_bytes),
            "1 bit/vertex + 2 words/PE".to_string(),
        ]);
    }
    print_table(
        "T4b: full vs compressed marking (Section 6) — same 30k-vertex graph",
        &[
            "PEs",
            "marked",
            "full msgs",
            "compressed msgs",
            "full space",
            "compressed space",
        ],
        &rows,
    );
    println!(
        "\nShape check: the compressed scheme (Dijkstra–Scholten engagement \
         over PEs) erases the per-vertex mt-cnt/mt-par fields at the cost of \
         one acknowledgement per cross-PE mark; the paper deems the full \
         per-vertex form acceptable when object granularity is large."
    );
}
