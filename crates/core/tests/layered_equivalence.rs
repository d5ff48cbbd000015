//! Layered-enumeration equivalence guarantees (PR 6).
//!
//! A session whose attached queries all sit on nesting levels
//! (wedge → triangle → 4-clique) plans one [`wsd_core::LayeredPlan`]
//! and runs a single layered enumeration pass per event instead of one
//! pass per query. These tests pin the contract that makes that safe:
//! the layered pass emits at every level in exactly the per-pattern
//! kernel order, so **estimates are bit-for-bit identical** to the
//! per-query-pass session (and, transitively, to single-query sessions).
//!
//! 1. Layered session ≡ `with_layered(false)` session, per event, for
//!    every algorithm × nested pattern mix × churn stream.
//! 2. The fused weight query of a layered session ≡ a single-query
//!    session counting that pattern alone, per event.
//! 3. `attach_many` ≡ the same attaches performed one at a time
//!    (the shared warm-up replay is bit-identical to N solo replays).
//! 4. Batched layered processing ≡ sequential layered processing.
//! 5. Non-nesting query mixes (k-cliques above 4) plan nothing and fall
//!    back to the per-query passes unchanged.

use proptest::prelude::*;
use wsd_core::{Algorithm, SessionBuilder, StreamSession};
use wsd_graph::{Edge, EdgeEvent, Pattern};

/// Every deletion-capable algorithm of the comparison set.
const DYNAMIC_ALGORITHMS: [Algorithm; 7] = [
    Algorithm::WsdL,
    Algorithm::WsdH,
    Algorithm::WsdUniform,
    Algorithm::GpsA,
    Algorithm::Triest,
    Algorithm::ThinkD,
    Algorithm::Wrs,
];

/// The nested pattern mixes a layered plan covers (≥ 2 queries, all on
/// levels), including every two-level subset.
const NESTED_MIXES: [&[Pattern]; 4] = [
    &[Pattern::Wedge, Pattern::Triangle],
    &[Pattern::Triangle, Pattern::FourClique],
    &[Pattern::Wedge, Pattern::FourClique],
    &[Pattern::Wedge, Pattern::Triangle, Pattern::FourClique],
];

/// A deterministic clique-heavy churn stream (plenty of instances of
/// every pattern, admissions, evictions and random-pairing regimes).
fn churn_stream() -> Vec<EdgeEvent> {
    let mut events = Vec::new();
    for a in 0..16u64 {
        for b in (a + 1)..16 {
            events.push(EdgeEvent::insert(Edge::new(a, b)));
        }
    }
    for a in 0..8u64 {
        events.push(EdgeEvent::delete(Edge::new(a, a + 1)));
    }
    for a in 16..28u64 {
        for b in (a.saturating_sub(3))..a {
            if b != a {
                events.push(EdgeEvent::insert(Edge::new(b, a)));
            }
        }
    }
    for a in 0..6u64 {
        events.push(EdgeEvent::delete(Edge::new(a, a + 2)));
    }
    events
}

/// Turns raw intents into a *feasible* dynamic stream: deletions only
/// ever target live edges (the contract every sampler assumes).
fn feasible_stream(intents: &[(u8, u8, bool)]) -> Vec<EdgeEvent> {
    let mut live = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(intents.len());
    for &(a, b, want_delete) in intents {
        let Some(e) = Edge::try_new(u64::from(a), u64::from(b)) else {
            continue;
        };
        if live.contains(&e) {
            if want_delete {
                live.remove(&e);
                out.push(EdgeEvent::delete(e));
            }
        } else if !want_delete {
            live.insert(e);
            out.push(EdgeEvent::insert(e));
        }
    }
    out
}

fn session(alg: Algorithm, patterns: &[Pattern], layered: bool) -> StreamSession {
    SessionBuilder::new(alg, 24, 7).queries(patterns.iter().copied()).with_layered(layered).build()
}

/// Asserts two sessions' queries agree bit-for-bit.
fn assert_sessions_agree(a: &StreamSession, b: &StreamSession, what: &str) {
    let qa: Vec<_> = a.queries().collect();
    let qb: Vec<_> = b.queries().collect();
    assert_eq!(qa.len(), qb.len());
    for (&(ida, pa), &(idb, pb)) in qa.iter().zip(&qb) {
        assert_eq!(pa, pb);
        assert_eq!(
            a.estimate(ida).to_bits(),
            b.estimate(idb).to_bits(),
            "{what}: {} query diverged",
            pa.name()
        );
    }
    assert_eq!(a.stored_edges(), b.stored_edges(), "{what}: sample diverged");
}

// ---------------------------------------------------------------------
// 1. Layered ≡ per-query passes, per event.
// ---------------------------------------------------------------------

#[test]
fn layered_session_matches_per_query_passes_per_event() {
    let stream = churn_stream();
    for alg in DYNAMIC_ALGORITHMS {
        for mix in NESTED_MIXES {
            let mut layered = session(alg, mix, true);
            let mut plain = session(alg, mix, false);
            assert!(layered.layered_plan().is_some(), "{} should plan {mix:?}", alg.name());
            assert!(plain.layered_plan().is_none());
            for (i, &ev) in stream.iter().enumerate() {
                layered.process(ev);
                plain.process(ev);
                assert_sessions_agree(
                    &layered,
                    &plain,
                    &format!("{} on {mix:?} at event {i}", alg.name()),
                );
            }
        }
    }
}

/// GPS (insertion-only) takes the layered path too; cover it on the
/// insertion prefix of the churn stream.
#[test]
fn layered_gps_matches_per_query_passes() {
    let stream: Vec<_> = churn_stream().into_iter().filter(EdgeEvent::is_insert).collect();
    for mix in NESTED_MIXES {
        let mut layered = session(Algorithm::Gps, mix, true);
        let mut plain = session(Algorithm::Gps, mix, false);
        for (i, &ev) in stream.iter().enumerate() {
            layered.process(ev);
            plain.process(ev);
            assert_sessions_agree(&layered, &plain, &format!("GPS on {mix:?} at event {i}"));
        }
    }
}

// ---------------------------------------------------------------------
// 2. Fused weight query ≡ single-query session under layered enumeration.
// ---------------------------------------------------------------------

#[test]
fn layered_weight_query_matches_legacy_counter_per_event() {
    let stream = churn_stream();
    for alg in [Algorithm::WsdH, Algorithm::WsdL, Algorithm::GpsA] {
        let mut legacy = SessionBuilder::new(alg, 24, 11).query(Pattern::Triangle).build();
        let (legacy_q, _) = legacy.queries().next().unwrap();
        let mut layered = SessionBuilder::new(alg, 24, 11)
            .query(Pattern::Wedge)
            .query(Pattern::Triangle)
            .query(Pattern::FourClique)
            .with_weight_pattern(Pattern::Triangle)
            .build();
        assert!(layered.layered_plan().is_some());
        let tri = layered.queries().nth(1).unwrap().0;
        for (i, &ev) in stream.iter().enumerate() {
            legacy.process(ev);
            layered.process(ev);
            assert_eq!(
                legacy.estimate(legacy_q).to_bits(),
                layered.estimate(tri).to_bits(),
                "{} fused triangle query diverged from legacy counter at event {i}",
                alg.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// 3. attach_many ≡ sequential attaches (shared warm-up replay).
// ---------------------------------------------------------------------

#[test]
fn attach_many_matches_sequential_attaches() {
    let stream = churn_stream();
    let t = stream.len() / 2;
    for alg in DYNAMIC_ALGORITHMS {
        let mut many = SessionBuilder::new(alg, 24, 5).query(Pattern::Triangle).build();
        let mut solo = SessionBuilder::new(alg, 24, 5).query(Pattern::Triangle).build();
        many.process_batch(&stream[..t]);
        solo.process_batch(&stream[..t]);
        let ids_many = many.attach_many(&[Pattern::Wedge, Pattern::FourClique, Pattern::Triangle]);
        let ids_solo = vec![
            solo.attach(Pattern::Wedge),
            solo.attach(Pattern::FourClique),
            solo.attach(Pattern::Triangle),
        ];
        assert!(many.layered_plan().is_some());
        for (m, s) in ids_many.iter().zip(&ids_solo) {
            assert_eq!(
                many.estimate(*m).to_bits(),
                solo.estimate(*s).to_bits(),
                "{}: shared warm-up replay diverged from solo replays",
                alg.name()
            );
        }
        for (i, &ev) in stream[t..].iter().enumerate() {
            many.process(ev);
            solo.process(ev);
            for (m, s) in ids_many.iter().zip(&ids_solo) {
                assert_eq!(
                    many.estimate(*m).to_bits(),
                    solo.estimate(*s).to_bits(),
                    "{}: post-attach_many trajectory diverged {i} events after t",
                    alg.name()
                );
            }
        }
    }
}

/// `SessionBuilder::queries` routes through `attach_many`: building with
/// N patterns equals building with one and attaching the rest.
#[test]
fn builder_queries_equals_incremental_attach_many() {
    for alg in DYNAMIC_ALGORITHMS {
        let built = session(alg, &[Pattern::Wedge, Pattern::Triangle, Pattern::FourClique], true);
        let mut grown = SessionBuilder::new(alg, 24, 7).query(Pattern::Wedge).build();
        grown.attach_many(&[Pattern::Triangle, Pattern::FourClique]);
        assert_sessions_agree(&built, &grown, &format!("{} empty-sample attach_many", alg.name()));
    }
}

// ---------------------------------------------------------------------
// 4. Batched layered ≡ sequential layered.
// ---------------------------------------------------------------------

#[test]
fn layered_batched_matches_sequential() {
    let stream = churn_stream();
    for alg in DYNAMIC_ALGORITHMS {
        let mix = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];
        let mut sequential = session(alg, &mix, true);
        let mut batched = session(alg, &mix, true);
        for &ev in &stream {
            sequential.process(ev);
        }
        for batch in stream.chunks(17) {
            batched.process_batch(batch);
        }
        assert_sessions_agree(&sequential, &batched, &format!("{} batched", alg.name()));
    }
}

// ---------------------------------------------------------------------
// 5. Fallbacks: mixes a plan cannot cover, and mid-stream toggling.
// ---------------------------------------------------------------------

#[test]
fn non_nesting_mixes_plan_nothing_and_still_work() {
    let stream = churn_stream();
    // Clique(5) sits on no layered level → no plan, per-query passes.
    let mut mixed = SessionBuilder::new(Algorithm::WsdUniform, 24, 9)
        .query(Pattern::Triangle)
        .query(Pattern::Clique(5))
        .build();
    assert!(mixed.layered_plan().is_none(), "Clique(5) must block the plan");
    // Single-query sessions never plan (nothing to share).
    let single = SessionBuilder::new(Algorithm::WsdUniform, 24, 9).query(Pattern::Triangle).build();
    assert!(single.layered_plan().is_none(), "single query must not plan");
    // 4-clique spelled as Clique(4) still levels.
    let spelled = SessionBuilder::new(Algorithm::WsdUniform, 24, 9)
        .query(Pattern::Clique(3))
        .query(Pattern::Clique(4))
        .build();
    assert!(spelled.layered_plan().is_some(), "Clique(3)/Clique(4) spell tri/4c");
    // And the unplanned mix still estimates sanely (vs a solo session).
    let mut solo =
        SessionBuilder::new(Algorithm::WsdUniform, 24, 9).query(Pattern::Triangle).build();
    let tri_mixed = mixed.queries().next().unwrap().0;
    let (tri_solo, _) = solo.queries().next().unwrap();
    for (i, &ev) in stream.iter().enumerate() {
        mixed.process(ev);
        solo.process(ev);
        assert_eq!(
            mixed.estimate(tri_mixed).to_bits(),
            solo.estimate(tri_solo).to_bits(),
            "unplanned mix perturbed the triangle query at event {i}"
        );
    }
}

#[test]
fn toggling_layered_mid_stream_keeps_the_trajectory() {
    let stream = churn_stream();
    let t = stream.len() / 2;
    for alg in DYNAMIC_ALGORITHMS {
        let mix = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];
        let mut steady = session(alg, &mix, true);
        let mut toggled = session(alg, &mix, true);
        for &ev in &stream[..t] {
            steady.process(ev);
            toggled.process(ev);
        }
        toggled.set_layered(false);
        assert!(toggled.layered_plan().is_none());
        for (i, &ev) in stream[t..].iter().enumerate() {
            steady.process(ev);
            toggled.process(ev);
            assert_sessions_agree(
                &steady,
                &toggled,
                &format!("{} toggle at event t+{i}", alg.name()),
            );
        }
        toggled.set_layered(true);
        assert!(toggled.layered_plan().is_some());
    }
}

// ---------------------------------------------------------------------
// Randomised cross-check.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random feasible churn streams: the layered session stays
    /// bit-identical to the per-query-pass session for every algorithm.
    #[test]
    fn prop_layered_matches_per_query_passes(
        intents in proptest::collection::vec((0u8..20, 0u8..20, any::<bool>()), 40..200),
        seed in 0u64..500,
        capacity in 12usize..32,
    ) {
        let stream = feasible_stream(&intents);
        for alg in DYNAMIC_ALGORITHMS {
            let build = |layered: bool| {
                SessionBuilder::new(alg, capacity, seed)
                    .queries([Pattern::Wedge, Pattern::Triangle, Pattern::FourClique])
                    .with_layered(layered)
                    .build()
            };
            let mut layered = build(true);
            let mut plain = build(false);
            layered.process_batch(&stream);
            plain.process_batch(&stream);
            let le: Vec<_> = layered.queries().map(|(id, _)| layered.estimate(id).to_bits()).collect();
            let pe: Vec<_> = plain.queries().map(|(id, _)| plain.estimate(id).to_bits()).collect();
            prop_assert_eq!(le, pe, "{} layered trajectory diverged", alg.name());
        }
    }
}
