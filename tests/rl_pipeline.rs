//! The WSD-L lifecycle through the public API: train → persist → reload
//! → deploy, and the headline sanity check that learned weights do not
//! underperform the heuristic on the training distribution.

use wsd::prelude::*;

fn category_graph(vertices: u64, seed: u64) -> Vec<Edge> {
    GeneratorConfig::HolmeKim { vertices, edges_per_vertex: 6, triad_prob: 0.6 }.generate(seed)
}

#[test]
fn policy_roundtrips_through_disk_and_counter() {
    let edges = category_graph(300, 1);
    let mut cfg = TrainerConfig::paper_defaults(Pattern::Triangle, edges.len() / 10);
    cfg.iterations = 50;
    cfg.batch_size = 32;
    cfg.num_streams = 2;
    let report = train(&edges, Scenario::default_light(), &cfg);
    let dir = std::env::temp_dir().join("wsd-int-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.wsdp");
    let meta = PolicyMeta {
        pattern: Pattern::Triangle,
        scenario: "hk-light".into(),
        capacity: cfg.capacity as u64,
        train_seed: cfg.seed,
        iterations: cfg.iterations as u64,
    };
    PolicyArtifact { meta, policy: report.policy.clone() }.save(&path).unwrap();
    let loaded = PolicyArtifact::load(&path).unwrap().policy;
    assert_eq!(loaded, report.policy);
    // Both policies drive identical sessions.
    let events = Scenario::default_light().apply(&category_graph(800, 2), 3);
    let run = |p: LinearPolicy| {
        let mut c = SessionBuilder::new(Algorithm::WsdL, 200, 11)
            .query(Pattern::Triangle)
            .with_policy(p)
            .build();
        c.process_all(&events);
        c.report().queries[0].estimate
    };
    assert_eq!(run(report.policy), run(loaded));
}

/// The reproduction's headline: a trained policy should not be *worse*
/// than the heuristic on streams from its training distribution. (The
/// paper claims strict improvement; over a modest number of seeds we
/// assert a robust non-inferiority bound to keep CI stable, and the
/// experiment binaries demonstrate the strict improvement.)
#[test]
fn learned_policy_is_not_worse_than_heuristic() {
    let train_edges = category_graph(1_200, 10);
    let scenario = Scenario::default_light();
    let mut cfg = TrainerConfig::paper_defaults(Pattern::Triangle, train_edges.len() / 20);
    cfg.iterations = 800;
    let report = train(&train_edges, scenario, &cfg);

    let test_edges = category_graph(4_000, 20);
    let events = scenario.apply(&test_edges, 21);
    let truth = TruthTimeline::compute(Pattern::Triangle, &events).final_count() as f64;
    assert!(truth > 1_000.0);
    let budget = test_edges.len() / 20;
    let reps = 20u64;
    let mean_are = |alg: Algorithm, policy: Option<&LinearPolicy>| {
        (0..reps)
            .map(|s| {
                let mut c = SessionBuilder::new(alg, budget, 500 + s).query(Pattern::Triangle);
                if let Some(p) = policy {
                    c = c.with_policy(p.clone());
                }
                let mut session = c.build();
                session.process_all(&events);
                (session.report().queries[0].estimate - truth).abs() / truth
            })
            .sum::<f64>()
            / reps as f64
    };
    let l = mean_are(Algorithm::WsdL, Some(&report.policy));
    let h = mean_are(Algorithm::WsdH, None);
    assert!(l <= h * 1.15, "WSD-L (ARE {:.3}) should not be worse than WSD-H (ARE {:.3})", l, h);
}

#[test]
fn pooling_ablation_variants_both_work() {
    let edges = category_graph(400, 30);
    let events = Scenario::default_light().apply(&edges, 31);
    for pooling in [TemporalPooling::Max, TemporalPooling::Avg] {
        let mut c = SessionBuilder::new(Algorithm::WsdL, 150, 1)
            .query(Pattern::Triangle)
            .with_pooling(pooling)
            .build();
        c.process_all(&events);
        assert!(c.report().queries[0].estimate.is_finite());
    }
}
