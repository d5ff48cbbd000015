//! Scalar/SIMD differential harness: the lane-batched mass kernel
//! ([`MassKernel::Lanes`]) must be **bit-identical** to the per-instance
//! scalar kernel ([`MassKernel::Scalar`]) — not approximately equal —
//! on every event of every stream.
//!
//! Both kernels are always compiled (the `simd` feature only moves the
//! build default), so this harness pits them against each other inside
//! one binary: two sessions of the same algorithm, same seed, same
//! stream — one per kernel — processed in lockstep, comparing the
//! estimate bits after *every* event. CI runs the suite under both
//! feature configurations (`default` and `--no-default-features`), which
//! additionally proves the default-selection plumbing compiles and
//! passes everywhere.
//!
//! Coverage axes:
//! * algorithms — every sampler with a weighted-mass / instance-weigher
//!   path: WSD-H, WSD-U, WSD-L (full-state accumulator arm), GPS-A, WRS,
//!   plus insertion-only GPS (Triest/ThinkD take no kernel; their count
//!   path is kernel-free by construction);
//! * patterns — wedge/triangle/4-clique (blocked), `Clique(4)` (blocked
//!   generic kernel) and `Clique(5)` (too wide to block — pins the
//!   Lanes→scalar fallback);
//! * streams — proptest-generated feasible churn with heavy ID-recycling
//!   re-insertion waves, plus deterministic hub streams that drive
//!   sampled-graph neighbourhoods across the galloping shadow threshold
//!   in both directions.

use proptest::prelude::*;
use wsd_core::{Algorithm, MassKernel, SessionBuilder, StreamSession};
use wsd_graph::{Edge, EdgeEvent, Pattern, SHADOW_THRESHOLD};

/// The estimate of a one-query session.
fn estimate(session: &StreamSession) -> f64 {
    session.estimate(session.queries().next().expect("one query").0)
}

/// Runs the same stream through a Scalar- and a Lanes-kernel session in
/// lockstep, asserting bit-identical estimates and equal sample sizes
/// after every event.
fn assert_kernels_agree(
    alg: Algorithm,
    pattern: Pattern,
    capacity: usize,
    seed: u64,
    stream: &[EdgeEvent],
) {
    let cfg = SessionBuilder::new(alg, capacity, seed).query(pattern);
    let mut scalar = cfg.clone().with_mass_kernel(MassKernel::Scalar).build();
    let mut lanes = cfg.with_mass_kernel(MassKernel::Lanes).build();
    for (i, &ev) in stream.iter().enumerate() {
        scalar.process(ev);
        lanes.process(ev);
        assert_eq!(
            estimate(&scalar).to_bits(),
            estimate(&lanes).to_bits(),
            "{} on {}: kernels diverged at event {i} ({ev:?}): scalar {:?}, lanes {:?}",
            alg.name(),
            pattern.name(),
            estimate(&scalar),
            estimate(&lanes)
        );
        assert_eq!(
            scalar.stored_edges(),
            lanes.stored_edges(),
            "{} on {}: sample sizes diverged at event {i}",
            alg.name(),
            pattern.name()
        );
    }
}

/// Turns raw op intents into a feasible stream (no duplicate inserts, no
/// deletes of absent edges) over a small vertex universe, so churn —
/// including re-insertion of previously deleted edges, which recycles
/// arena IDs into new tenants — is heavy.
fn feasible_stream(ops: Vec<(bool, u64, u64)>) -> Vec<EdgeEvent> {
    let mut live = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(ops.len());
    for (insert, a, b) in ops {
        let Some(e) = Edge::try_new(a, b) else { continue };
        if insert {
            if live.insert(e) {
                out.push(EdgeEvent::insert(e));
            }
        } else if live.remove(&e) {
            out.push(EdgeEvent::delete(e));
        }
    }
    out
}

/// A deterministic two-hub stream whose waves push both hubs' *sampled*
/// neighbourhoods across [`SHADOW_THRESHOLD`] and back: the capacity is
/// large enough that the samplers admit everything, so the estimator's
/// enumeration runs galloping-tier intersections over lazily rebuilt
/// shadows — with stale snapshot entries, moved slots, pending inserts
/// and recycled IDs all in play while blocks are being filled.
fn shadow_crossing_stream() -> Vec<EdgeEvent> {
    let (hub_a, hub_b) = (5_000u64, 6_000u64);
    let top = 2 * SHADOW_THRESHOLD as u64;
    let mut ev = vec![EdgeEvent::insert(Edge::new(hub_a, hub_b))];
    // Persistent common neighbours so hub–hub events keep completing
    // instances across waves.
    for w in [7_000u64, 7_001, 7_002, 7_003] {
        ev.push(EdgeEvent::insert(Edge::new(hub_a, w)));
        ev.push(EdgeEvent::insert(Edge::new(hub_b, w)));
    }
    for wave in 0..3u64 {
        // Grow both hubs past the shadow threshold; every third leaf is
        // shared (fresh common neighbours → pending-list coverage).
        for v in 1..=top {
            let leaf = 100 * wave + v;
            ev.push(EdgeEvent::insert(Edge::new(hub_a, 10_000 + leaf)));
            ev.push(EdgeEvent::insert(Edge::new(hub_b, 20_000 + leaf)));
            if v % 3 == 0 {
                ev.push(EdgeEvent::insert(Edge::new(hub_a, 30_000 + leaf)));
                ev.push(EdgeEvent::insert(Edge::new(hub_b, 30_000 + leaf)));
            }
        }
        // Hub–hub re-closure events exercise the galloped intersection
        // while both sides are large.
        ev.push(EdgeEvent::delete(Edge::new(hub_a, hub_b)));
        ev.push(EdgeEvent::insert(Edge::new(hub_a, hub_b)));
        // Shrink far below the threshold again (ID-recycling wave).
        for v in 1..=top {
            let leaf = 100 * wave + v;
            ev.push(EdgeEvent::delete(Edge::new(hub_a, 10_000 + leaf)));
            ev.push(EdgeEvent::delete(Edge::new(hub_b, 20_000 + leaf)));
            if v % 3 == 0 {
                ev.push(EdgeEvent::delete(Edge::new(hub_a, 30_000 + leaf)));
                ev.push(EdgeEvent::delete(Edge::new(hub_b, 30_000 + leaf)));
            }
        }
    }
    ev
}

const DYNAMIC_ALGS: [Algorithm; 5] =
    [Algorithm::WsdH, Algorithm::WsdUniform, Algorithm::WsdL, Algorithm::GpsA, Algorithm::Wrs];

#[test]
fn kernels_agree_on_shadow_threshold_crossings() {
    let stream = shadow_crossing_stream();
    for alg in DYNAMIC_ALGS {
        for pattern in [Pattern::Triangle, Pattern::FourClique] {
            // Capacity above the stream's live-edge peak: everything is
            // admitted, sampled hubs really cross the shadow threshold.
            assert_kernels_agree(alg, pattern, 600, 11, &stream);
        }
    }
}

#[test]
fn kernels_agree_on_generic_cliques_and_wide_fallback() {
    // Dense churn on a small universe so 4- and 5-cliques actually form.
    let mut ops = Vec::new();
    for round in 0..3u64 {
        for a in 0..8u64 {
            for b in (a + 1)..8 {
                ops.push((true, a, b));
            }
        }
        for a in 0..8u64 {
            ops.push((false, a, (a + 1 + round) % 8));
        }
    }
    let stream = feasible_stream(ops);
    for alg in DYNAMIC_ALGS {
        // Clique(4) runs the blocked generic kernel; Clique(5) is too
        // wide for a block and pins the Lanes→scalar fallback.
        for pattern in [Pattern::Clique(4), Pattern::Clique(5)] {
            assert_kernels_agree(alg, pattern, 12, 23, &stream);
        }
    }
}

#[test]
fn kernels_agree_for_insertion_only_gps() {
    let mut ops = Vec::new();
    for a in 0..14u64 {
        for b in (a + 1)..14 {
            if (a * 31 + b * 17) % 3 != 0 {
                ops.push((true, a, b));
            }
        }
    }
    let stream = feasible_stream(ops);
    for pattern in [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique] {
        assert_kernels_agree(Algorithm::Gps, pattern, 20, 5, &stream);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Feasible churn over a small universe: tiny reservoirs evict
    /// constantly and deletions recycle IDs aggressively while both
    /// kernels run in lockstep.
    #[test]
    fn prop_kernels_agree_under_churn(
        ops in proptest::collection::vec((any::<bool>(), 0u64..14, 0u64..14), 0..250),
        seed in 0u64..32,
        alg_idx in 0usize..DYNAMIC_ALGS.len(),
        pattern_idx in 0usize..3,
    ) {
        let pattern = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique][pattern_idx];
        let stream = feasible_stream(ops);
        assert_kernels_agree(DYNAMIC_ALGS[alg_idx], pattern, 10, seed, &stream);
    }

    /// Explicit insert→delete→re-insert waves: every wave hands the
    /// re-inserted edge a recycled arena ID whose slot still holds the
    /// previous tenant's cached `1/p` and stamps.
    #[test]
    fn prop_kernels_agree_under_reinsertion_waves(
        rounds in proptest::collection::vec((0u64..8, 0u64..8), 0..80),
        seed in 0u64..16,
        alg_idx in 0usize..DYNAMIC_ALGS.len(),
    ) {
        let mut ops = Vec::new();
        for (a, b) in rounds {
            ops.push((true, a, b));
            ops.push((false, a, b));
            ops.push((true, a, b));
        }
        let stream = feasible_stream(ops);
        assert_kernels_agree(DYNAMIC_ALGS[alg_idx], Pattern::Triangle, 6, seed, &stream);
    }
}
