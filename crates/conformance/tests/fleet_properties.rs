//! Property-based fleet conformance: for random (dimension, scenario count,
//! shard count, merge order) tuples, the sharded pipeline — partition, per-shard
//! partial reports, a full JSON round trip through the checkpoint codec,
//! and an order-shuffled merge — produces a report *byte-identical* to the
//! single-process [`Campaign::run`] output.
//!
//! The proptest shim samples from a fixed-seed deterministic stream, so any
//! failure reproduces identically on every run.

use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use std::path::Path;

use wnoc_conformance::{partition, Campaign, CampaignDimension, ConformanceReport, PartialReport};

/// Every campaign dimension: the codec has one path for all of them.
const DIMENSIONS: [CampaignDimension; 5] = [
    CampaignDimension::Core,
    CampaignDimension::BufferDepth,
    CampaignDimension::VcSweep,
    CampaignDimension::BurstySweep,
    CampaignDimension::FaultSweep,
];

/// Fisher–Yates shuffle driven by a seeded ChaCha stream (the vendored
/// `rand` shim has no `SliceRandom`).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Runs `campaign` as `shards` partials, each round-tripped through the
/// checkpoint codec exactly as the on-disk resume path does (scenarios
/// regenerated from their indices), and merges them in a shuffled order.
fn sharded_merge(campaign: &Campaign, shards: usize, shuffle_seed: u64) -> ConformanceReport {
    let mut partials: Vec<PartialReport> = partition(campaign.scenarios, shards)
        .into_iter()
        .map(|range| {
            let partial = PartialReport::compute(campaign, range).unwrap();
            let json = partial.render_json();
            let back = PartialReport::parse_json(&json, Path::new("inline")).unwrap();
            assert_eq!(back, partial, "codec round trip");
            back
        })
        .collect();

    // Merge in a random completion order: the fold must not care.
    shuffle(&mut partials, shuffle_seed);
    let mut merged = ConformanceReport::empty(campaign.seed);
    for partial in partials {
        merged.merge(partial.into_report());
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharding is invisible: in any dimension, any shard count, any merge
    /// order, with every partial pushed through the render/parse codec,
    /// reproduces the single-process report byte for byte.
    #[test]
    fn sharded_merge_is_byte_identical_to_single_process(
        scenarios in 0usize..=5,
        shards in 1usize..=8,
        seed in 1u64..=500,
        shuffle_seed in any::<u64>(),
        dimension in 0usize..DIMENSIONS.len(),
    ) {
        let campaign = Campaign {
            seed,
            scenarios,
            dimension: DIMENSIONS[dimension],
        };
        let reference = campaign.run(2).unwrap();
        let merged = sharded_merge(&campaign, shards, shuffle_seed);

        prop_assert_eq!(&merged, &reference);
        prop_assert_eq!(merged.render_json(), reference.render_json());
        prop_assert_eq!(merged.render(), reference.render());
    }
}

/// The fixed-seed property stream need not draw every dimension in its six
/// cases, so each one also gets a pinned sharded round trip.
#[test]
fn every_dimension_merges_byte_identically_through_the_codec() {
    for dimension in DIMENSIONS {
        let campaign = Campaign {
            seed: 7,
            scenarios: 3,
            dimension,
        };
        let merged = sharded_merge(&campaign, 2, 11);
        let reference = campaign.run(1).unwrap();
        assert_eq!(merged, reference, "{dimension:?}");
        assert_eq!(
            merged.render_json(),
            reference.render_json(),
            "{dimension:?}"
        );
    }
}
