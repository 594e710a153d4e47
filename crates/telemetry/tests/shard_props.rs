//! Property tests for the sharded metrics layer: folding per-PE shards
//! must be indistinguishable from running a single global accumulator.

type Registry = dgr_telemetry::Registry<dgr_telemetry::On>;
use dgr_telemetry::metrics::HistSnapshot;
use dgr_telemetry::{CounterId, GaugeId, HistId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_shards_equal_global_counter(
        ops in proptest::collection::vec((0u16..8, 0usize..CounterId::COUNT, 1u64..100), 1..200),
    ) {
        let sharded = Registry::with_pes(8);
        let mut global = [0u64; CounterId::COUNT];
        for &(pe, which, n) in &ops {
            let id = CounterId::ALL[which];
            sharded.pe(pe).add(id, n);
            global[which] += n;
        }
        let merged = sharded.snapshot().merged();
        for id in CounterId::ALL {
            prop_assert_eq!(
                merged.counter(id),
                global[id.index()],
                "counter {} diverged",
                id.name()
            );
        }
    }

    #[test]
    fn merged_shards_equal_global_histogram(
        ops in proptest::collection::vec((0u16..8, 0u64..100_000), 1..200),
    ) {
        let sharded = Registry::with_pes(8);
        let mut global = HistSnapshot::default();
        for &(pe, v) in &ops {
            sharded.pe(pe).observe(HistId::BatchSize, v);
            let single = dgr_telemetry::metrics::Histogram::new();
            single.observe(v);
            global.merge(&single.snapshot());
        }
        let merged = sharded.snapshot().merged();
        prop_assert_eq!(*merged.hist(HistId::BatchSize), global);
    }

    #[test]
    fn merged_high_water_is_the_max_shard(
        ops in proptest::collection::vec((0u16..8, 0i64..10_000), 1..100),
    ) {
        let sharded = Registry::with_pes(8);
        let mut max = 0i64;
        for &(pe, v) in &ops {
            sharded.pe(pe).gauge_max(GaugeId::MailboxHighWater, v);
            max = max.max(v);
        }
        prop_assert_eq!(
            sharded.snapshot().merged().gauge(GaugeId::MailboxHighWater),
            max
        );
    }
}
