//! The serving contract, checked by one oracle over seeded traces in
//! every cell of the configuration matrix: {1 replicated, 1/2/4
//! partitioned} × `cache_capacity` {0, 64} × `fast_cache_slots` {0, 256}
//! × {f32, int8}. Every served label equals sequential `Vault::infer` of
//! the model current at submit, every admitted ticket resolves, faults
//! fail exactly the batches they hit, deploys are all-or-nothing, and
//! the sentinel sees the same trace in every cell. See
//! `common/driver.rs` for the two modes and `common/oracle.rs` for the
//! oracle.

mod common;

use common::driver::{chaos_trace, expect, run_concurrent, run_sequential, trace};
use common::oracle::{matrix, Counts, A};
use serve::{SentinelStats, SentinelVerdict, Topology};

/// Operations per sequential trace, before its shutdown.
const TRACE_LEN: usize = 48;

/// Asserts that every cell's sentinel stats equal the first cell's.
fn same_everywhere(
    seed: u64,
    stats: impl Iterator<Item = (String, SentinelStats)>,
) -> SentinelStats {
    let mut first: Option<SentinelStats> = None;
    for (cell, stats) in stats {
        match &first {
            None => first = Some(stats),
            Some(want) => assert_eq!(
                &stats, want,
                "seed {seed}, {cell}: the sentinel saw another trace"
            ),
        }
    }
    first.expect("the matrix has cells")
}

#[test]
fn sequential_traces_match_the_reference_in_every_cell() {
    let mut escalated = false;
    for seed in 1..=4 {
        let ops = trace(seed, TRACE_LEN);
        let stats = same_everywhere(
            seed,
            matrix()
                .into_iter()
                .map(|cell| (format!("{cell:?}"), run_sequential(cell, &ops))),
        );
        escalated |= stats
            .sessions
            .iter()
            .any(|s| s.verdict != SentinelVerdict::Observe);
    }
    assert!(
        escalated,
        "no trace moved a session up the sentinel's ladder"
    );
}

#[test]
fn concurrent_traces_are_acceptable_in_every_cell() {
    for seed in 1..=2 {
        same_everywhere(
            seed,
            matrix()
                .into_iter()
                .map(|cell| (format!("{cell:?}"), run_concurrent(cell, seed))),
        );
    }
}

/// The chaos acceptance scenario, pinned: on four partitions without a
/// fast cache, one caught panic and one restart per shard, three
/// rollbacks, and shard 2 never installs.
#[test]
fn the_chaos_trace_counts_exactly() {
    let ops = chaos_trace();
    for cell in matrix() {
        if cell.topology == Topology::Partitioned && cell.shards == 4 && cell.fast_cache_slots == 0
        {
            let (reference, _) = expect(cell, &ops);
            let installed = Counts {
                panics_caught: 1,
                restarts: 1,
                rollbacks: 1,
                deploys: 1,
            };
            let refused = Counts {
                rollbacks: 0,
                deploys: 0,
                ..installed
            };
            assert_eq!(
                reference.counts(),
                [installed, installed, refused, installed]
            );
            assert_eq!(
                reference.survivor(),
                Some(A),
                "A survives the failed deploy"
            );
        }
        run_sequential(cell, &ops);
    }
}
