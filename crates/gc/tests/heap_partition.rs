//! The per-PE heap meters add up under every partition. A `Block`
//! partition moves a vertex's owner each time the store grows; the heap
//! tracker charges a free to the PE its allocation was charged to, so
//! the per-PE live bytes still sum to the tracker's total and to the
//! store's own byte clock after a run that grows the store many times.

#![cfg(feature = "telemetry")]

use dgr_gc::GcDriver;
use dgr_graph::PartitionStrategy;
use dgr_reduction::{RunOutcome, SystemConfig};

#[test]
fn per_pe_live_bytes_sum_to_the_total_across_grows() {
    for partition in [PartitionStrategy::Block, PartitionStrategy::Modulo] {
        let cfg = SystemConfig {
            num_pes: 4,
            partition,
            grow_step: 64,
            ..Default::default()
        };
        let sys = dgr_lang::build_with_prelude("sum (map (\\x -> x * x) (range 1 300))", cfg)
            .expect("program builds");
        let mut gc = GcDriver::new(sys, Default::default());
        let out = gc.run();
        assert!(
            matches!(out, RunOutcome::Value(_)),
            "{partition:?}: {out:?}"
        );
        assert!(gc.sys.stats.grows > 8, "{partition:?}: the store grew");
        gc.sys.drain_heap_journal();
        let heap = gc.sys.heap_snapshot();
        let per_pe: u64 = heap.per_pe.iter().map(|p| p.live).sum();
        assert_eq!(per_pe, heap.live, "{partition:?}: {:?}", heap.per_pe);
        assert_eq!(heap.live, gc.sys.graph.live_bytes(), "{partition:?}");
        for (pe, p) in heap.per_pe.iter().enumerate() {
            assert_eq!(
                p.alloc_bytes - p.free_bytes,
                p.live,
                "{partition:?}: PE {pe} frees only what it allocated"
            );
        }
    }
}
