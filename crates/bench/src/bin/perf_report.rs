//! `perf_report` — fixed-seed sampler throughput snapshot.
//!
//! Runs every deletion-capable sampler over a grid of deterministic
//! streams × evaluation patterns and reports the median events/sec,
//! writing a machine-readable JSON report. The grid covers two stream
//! shapes plus a session scenario:
//!
//! * `ba-light` — a Barabási–Albert stream under the light-deletion
//!   scenario (the historical grid; comparable back to `BENCH_PR2.json`);
//! * `hub-heavy` — a hub-clique stream (dense core, fanout-2 spoke
//!   fringes) whose core–core events are hub–hub intersections with
//!   long skippable non-common runs, the galloping kernel's target
//!   regime;
//! * `sampler-grid-ba` / `sampler-grid-hub` — every algorithm with
//!   *zero* attached queries on the same two streams: the
//!   admission/eviction/reservoir-maintenance hot path in isolation,
//!   the direct measurement surface for reservoir-path optimisations
//!   (run-partitioned admission plans, SoA heap/sample writes);
//! * `weight-grid-ba` / `weight-grid-hub` — the weighted sampler's
//!   zero-query admission path under the three weight surfaces: the
//!   checked-in learned `LinearPolicy` (WSD-L), `HeuristicWeight`
//!   (WSD-H) and the affine `UniformWeight` (WSD-Uniform).
//!   `WeightFn::evaluate` sits on the insert hot path, so these cells
//!   are the direct price tag of upgrading a tenant from heuristic to
//!   learned weights;
//! * `session-grid-ba` / `session-grid-hub` — the multi-query session
//!   comparison on the same two streams: one shared triangle-weighted
//!   sampler answering wedge+triangle+4-clique at once versus three
//!   independent single-query samplers, *paired within each timing rep
//!   in alternated order* (the per-rep ratio is robust to host drift;
//!   the session row carries the median paired ratio as
//!   `paired_speedup`). The hub scenario additionally carries *layered*
//!   cells: the same 3-query session with the one-pass layered
//!   enumeration plan vs per-query enumeration passes, paired the same
//!   way — the direct measurement of what enumeration sharing buys in
//!   the enumeration-bound regime.
//!
//! The streams, seeds and methodology are pinned so the numbers are
//! comparable across commits: each PR that claims a hot-path win
//! regenerates the report (optionally passing the previous report via
//! `--perf-baseline` to get speedup columns) and checks it in at the
//! repo root.
//!
//! ```text
//! perf_report [--quick] [--out PATH] [--perf-baseline PATH]
//!             [--vertices N] [--time-reps N] [--methodology STR]
//! ```
//!
//! `--quick` shrinks the streams for CI smoke runs (the report is still
//! written, to the same schema; speedup columns are suppressed per
//! scenario when the baseline's stream header shows a different event
//! count — ratios against a different workload are noise, not signal).
//! The JSON is emitted one result object
//! per line so prior reports can be re-read without a JSON dependency;
//! result rows carry a `scenario` field, and baseline rows without one
//! (pre-hub-grid reports) are matched against the `ba-light` scenario.
//! The `methodology` field records how the numbers were produced;
//! checked-in reports on noisy shared hosts are typically per-cell
//! medians over several runs alternated with the baseline binary
//! (aggregate with `--methodology` describing the protocol), since
//! paired ratios are far more stable than absolute rates there.

use std::time::Instant;
use wsd_core::{Algorithm, SessionBuilder, StreamSession};
use wsd_graph::Pattern;
use wsd_stream::gen::GeneratorConfig;
use wsd_stream::{EventStream, Scenario};

/// Generator seed (edge list) and scenario seed (deletion placement).
const GEN_SEED: u64 = 7;
const SCENARIO_SEED: u64 = 3;
/// Hub-clique stream seeds (match the hub-clique golden scenario).
const HUB_GEN_SEED: u64 = 17;
const HUB_SCENARIO_SEED: u64 = 8;
/// Counter seed — same for every cell, as in `sampler_throughput`.
const COUNTER_SEED: u64 = 42;

struct Cell {
    scenario: &'static str,
    algorithm: &'static str,
    pattern: String,
    events_per_sec: f64,
    /// Median per-rep paired ratio (session vs three counters) —
    /// session-grid rows only.
    paired_speedup: Option<f64>,
}

struct Grid {
    name: &'static str,
    describe: String,
    events: EventStream,
    capacity: usize,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One full single-query pass; returns the wall-clock seconds.
fn time_single(alg: Algorithm, pattern: Pattern, capacity: usize, events: &EventStream) -> f64 {
    let mut session = SessionBuilder::new(alg, capacity, COUNTER_SEED).query(pattern).build();
    let (qid, _) = session.queries().next().expect("one query");
    let start = Instant::now();
    session.process_all(events);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(session.estimate(qid));
    secs
}

/// One full zero-query pass — the sampler-grid cell: pure admission /
/// eviction / reservoir-maintenance throughput, no estimator work on
/// top. The weighted samplers still observe their edge weight on the
/// triangle (that enumeration is part of their admission cost);
/// `WsdUniform`'s affine weight skips enumeration entirely, so its cell
/// is the floor of the reservoir write path itself.
fn time_bare(
    alg: Algorithm,
    capacity: usize,
    events: &EventStream,
    policy: Option<&wsd_core::LinearPolicy>,
) -> f64 {
    let mut builder =
        SessionBuilder::new(alg, capacity, COUNTER_SEED).with_weight_pattern(Pattern::Triangle);
    if let Some(policy) = policy {
        builder = builder.with_policy(policy.clone());
    }
    let mut session = builder.build();
    let start = Instant::now();
    session.process_all(events);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(session.stored_edges());
    secs
}

/// The wedge+triangle+4-clique session used by the session grid (weight
/// observed on the triangle, the paper's primary pattern). `layered`
/// selects the one-pass layered enumeration plan (the default) or the
/// per-query enumeration passes (the PR-5 behaviour, kept as the paired
/// reference for the layered cells).
fn session_grid_session(alg: Algorithm, capacity: usize, layered: bool) -> StreamSession {
    SessionBuilder::new(alg, capacity, COUNTER_SEED)
        .query(Pattern::Wedge)
        .query(Pattern::Triangle)
        .query(Pattern::FourClique)
        .with_weight_pattern(Pattern::Triangle)
        .with_layered(layered)
        .build()
}

/// One full 3-query session pass; returns the wall-clock seconds.
fn time_session(alg: Algorithm, capacity: usize, events: &EventStream, layered: bool) -> f64 {
    let mut session = session_grid_session(alg, capacity, layered);
    let start = Instant::now();
    session.process_all(events);
    let secs = start.elapsed().as_secs_f64();
    for (qid, _) in session.queries().collect::<Vec<_>>() {
        std::hint::black_box(session.estimate(qid));
    }
    secs
}

/// Three full independent single-query passes (one per pattern);
/// returns the summed wall-clock seconds — the legacy cost of the grid.
fn time_trio(alg: Algorithm, capacity: usize, events: &EventStream) -> f64 {
    [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique]
        .into_iter()
        .map(|p| time_single(alg, p, capacity, events))
        .sum()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| argv.iter().any(|a| a == name);
    let opt = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .map(|i| argv.get(i + 1).unwrap_or_else(|| panic!("missing value for {name}")).clone())
    };
    let quick = flag("--quick");
    let vertices: u64 = opt("--vertices")
        .map(|v| v.parse().expect("--vertices expects an integer"))
        .unwrap_or(if quick { 600 } else { 4_000 });
    let time_reps: usize = opt("--time-reps")
        .map(|v| v.parse().expect("--time-reps expects an integer"))
        .unwrap_or(if quick { 1 } else { 5 });
    assert!(time_reps >= 1, "--time-reps must be >= 1");
    let out = opt("--out").unwrap_or_else(|| "BENCH_PR10.json".to_string());
    let methodology = opt("--methodology").unwrap_or_else(|| {
        format!("single run on one host; median of {time_reps} full stream passes per cell")
    });
    let baseline_path = opt("--perf-baseline");
    let baseline = baseline_path.as_ref().map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read baseline {p}: {e}"))
    });

    let ba_edges =
        GeneratorConfig::BarabasiAlbert { vertices, edges_per_vertex: 5 }.generate(GEN_SEED);
    let ba_events = Scenario::default_light().apply(&ba_edges, SCENARIO_SEED);
    // ~5% budget, as in the benches.
    let ba_capacity = (ba_events.len() / 20).max(64);
    // Hub-clique: scale the spoke count with --vertices so --quick
    // shrinks this stream too; the fanout-2 spokes push the 24 cores far
    // past the galloping-shadow threshold while keeping any two cores'
    // fringes mostly disjoint — core–core events are gallop-tier
    // intersections with long skippable runs.
    let spokes = vertices.max(100);
    let hub_edges = GeneratorConfig::HubClique { clique: 24, spokes }.generate(HUB_GEN_SEED);
    let hub_events = Scenario::default_light().apply(&hub_edges, HUB_SCENARIO_SEED);
    let hub_capacity = (hub_events.len() / 10).max(64);
    let grids = [
        Grid {
            name: "ba-light",
            describe: format!(
                "{{\"generator\": \"barabasi-albert\", \"vertices\": {vertices}, \
                 \"edges_per_vertex\": 5, \"scenario\": \"light\", \"events\": {}, \
                 \"capacity\": {ba_capacity}, \"gen_seed\": {GEN_SEED}, \
                 \"scenario_seed\": {SCENARIO_SEED}}}",
                ba_events.len()
            ),
            events: ba_events,
            capacity: ba_capacity,
        },
        Grid {
            name: "hub-heavy",
            describe: format!(
                "{{\"generator\": \"hub-clique\", \"clique\": 24, \"spokes\": {spokes}, \
                 \"scenario\": \"light\", \"events\": {}, \"capacity\": {hub_capacity}, \
                 \"gen_seed\": {HUB_GEN_SEED}, \"scenario_seed\": {HUB_SCENARIO_SEED}}}",
                hub_events.len()
            ),
            events: hub_events,
            capacity: hub_capacity,
        },
    ];

    // Serve-grid workload: N concurrent sessions on a loopback server,
    // all fed the same feasible stream prefix. Sized here so the stream
    // headers (and baseline comparability) can be computed up front.
    let serve_sessions: usize = opt("--serve-sessions")
        .map(|v| v.parse().expect("--serve-sessions expects an integer"))
        .unwrap_or(if quick { 128 } else { 1024 });
    let serve_events_per_session = grids[0].events.len().min(if quick { 400 } else { 2_000 });
    let serve_total_events = serve_sessions * serve_events_per_session;
    let serve_describe = format!(
        "{{\"generator\": \"ba-light prefix\", \"sessions\": {serve_sessions}, \
         \"events_per_session\": {serve_events_per_session}, \"events\": {serve_total_events}, \
         \"capacity\": 64}}"
    );

    // Per-scenario workload sizes drive both speedup-column gating and
    // the self-describing `baseline` block in the JSON: a reader of the
    // artifact must not need this binary's stderr to know *why* a
    // column is missing.
    let scenario_workloads: Vec<(&'static str, usize, String)> = vec![
        ("ba-light", grids[0].events.len(), grids[0].describe.clone()),
        ("hub-heavy", grids[1].events.len(), grids[1].describe.clone()),
        ("serve-grid", serve_total_events, serve_describe),
    ];
    let baseline_status: Vec<(&'static str, bool, String)> = scenario_workloads
        .iter()
        .map(|(name, events, _)| match baseline.as_deref() {
            None => (*name, false, "no baseline supplied".to_string()),
            Some(b) => match baseline_stream_events(b, name) {
                None => (
                    *name,
                    false,
                    "scenario missing from baseline; speedup columns suppressed".to_string(),
                ),
                Some(n) if n == *events => (*name, true, "comparable".to_string()),
                Some(n) => (
                    *name,
                    false,
                    format!(
                        "workload mismatch: baseline stream has {n} events, this run has \
                         {events}; speedup columns suppressed"
                    ),
                ),
            },
        })
        .collect();
    if baseline.is_some() {
        for (name, comparable, reason) in &baseline_status {
            if !comparable {
                eprintln!("perf_report: baseline {name}: {reason}");
            }
        }
    }

    let algorithms = [
        Algorithm::WsdH,
        Algorithm::WsdUniform,
        Algorithm::GpsA,
        Algorithm::Triest,
        Algorithm::ThinkD,
        Algorithm::Wrs,
    ];
    let patterns = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];

    let mut cells = Vec::new();
    for grid in &grids {
        eprintln!(
            "perf_report: {} (|S|={}, capacity M={}, {} timing reps)",
            grid.name,
            grid.events.len(),
            grid.capacity,
            time_reps
        );
        for pattern in patterns {
            for alg in algorithms {
                let mut rates = Vec::with_capacity(time_reps);
                for _ in 0..time_reps {
                    let secs = time_single(alg, pattern, grid.capacity, &grid.events);
                    rates.push(grid.events.len() as f64 / secs);
                }
                let events_per_sec = median(rates);
                eprintln!(
                    "  {:>9} {:>8} x {:<9} {:>12.0} events/sec",
                    grid.name,
                    alg.name(),
                    pattern.name(),
                    events_per_sec
                );
                cells.push(Cell {
                    scenario: grid.name,
                    algorithm: alg.name(),
                    pattern: pattern.name(),
                    events_per_sec,
                    paired_speedup: None,
                });
            }
        }
    }

    // Sampler grid: every algorithm with ZERO attached queries — the
    // admission/eviction hot path in isolation. These cells are the
    // direct measurement surface for reservoir-path work (run plans,
    // SoA writes): a win here that doesn't show up in the query grids
    // is estimator-bound, not admission-bound.
    for (scenario, grid) in [("sampler-grid-ba", &grids[0]), ("sampler-grid-hub", &grids[1])] {
        eprintln!(
            "perf_report: {scenario} (|S|={}, capacity M={}, {} timing reps, zero queries)",
            grid.events.len(),
            grid.capacity,
            time_reps
        );
        for alg in algorithms {
            let mut rates = Vec::with_capacity(time_reps);
            for _ in 0..time_reps {
                let secs = time_bare(alg, grid.capacity, &grid.events, None);
                rates.push(grid.events.len() as f64 / secs);
            }
            let events_per_sec = median(rates);
            eprintln!(
                "  {:>15} {:>8} x {:<12} {:>12.0} events/sec",
                scenario,
                alg.name(),
                "(0 queries)",
                events_per_sec
            );
            cells.push(Cell {
                scenario,
                algorithm: alg.name(),
                pattern: "(0 queries)".to_string(),
                events_per_sec,
                paired_speedup: None,
            });
        }
    }

    // Weight-function grid: the same zero-query admission path, but
    // varying the *weight surface* instead of the algorithm — the
    // checked-in learned triangle policy (WSD-L) against the heuristic
    // (WSD-H) and affine-uniform (WSD-Uniform) weights at equal
    // capacity. `WeightFn::evaluate` runs once per candidate admission,
    // so the spread between these cells is the insert-path cost of
    // serving learned weights.
    {
        let registry = wsd_core::PolicyRegistry::open(wsd_bench::policies::policy_registry_dir())
            .expect("weight-grid: open checked-in policy registry");
        let weight_cells = [
            ("weight-grid-ba", "ba-light", &grids[0]),
            ("weight-grid-hub", "hub-light", &grids[1]),
        ];
        for (scenario, family, grid) in weight_cells {
            let artifact = registry.lookup(Pattern::Triangle, family).unwrap_or_else(|| {
                panic!("weight-grid: no checked-in {family} triangle artifact (run wsd-train)")
            });
            eprintln!(
                "perf_report: {scenario} (|S|={}, capacity M={}, {} timing reps, zero queries, \
                 triangle weight)",
                grid.events.len(),
                grid.capacity,
                time_reps
            );
            let surfaces: [(&str, Algorithm, Option<&wsd_core::LinearPolicy>); 3] = [
                ("WSD-L", Algorithm::WsdL, Some(&artifact.policy)),
                ("WSD-H", Algorithm::WsdH, None),
                ("WSD-Uniform", Algorithm::WsdUniform, None),
            ];
            for (name, alg, policy) in surfaces {
                let mut rates = Vec::with_capacity(time_reps);
                for _ in 0..time_reps {
                    let secs = time_bare(alg, grid.capacity, &grid.events, policy);
                    rates.push(grid.events.len() as f64 / secs);
                }
                let events_per_sec = median(rates);
                eprintln!(
                    "  {:>15} {:>11} x {:<12} {:>12.0} events/sec",
                    scenario, name, "(0 queries)", events_per_sec
                );
                cells.push(Cell {
                    scenario,
                    algorithm: name,
                    pattern: "(0 queries)".to_string(),
                    events_per_sec,
                    paired_speedup: None,
                });
            }
        }
    }

    // Session grid: one shared triangle-weighted sampler answering
    // wedge+triangle+4-clique vs three independent single-query
    // samplers, paired and order-alternated within each rep.
    for (scenario, grid) in [("session-grid-ba", &grids[0]), ("session-grid-hub", &grids[1])] {
        eprintln!(
            "perf_report: {scenario} (|S|={}, capacity M={}, {} paired reps, alternated order)",
            grid.events.len(),
            grid.capacity,
            time_reps
        );
        let n = grid.events.len() as f64;
        for alg in [Algorithm::WsdH, Algorithm::WsdUniform, Algorithm::GpsA] {
            let mut session_rates = Vec::with_capacity(time_reps);
            let mut trio_rates = Vec::with_capacity(time_reps);
            let mut ratios = Vec::with_capacity(time_reps);
            for rep in 0..time_reps {
                let (t_session, t_trio) = if rep % 2 == 0 {
                    let s = time_session(alg, grid.capacity, &grid.events, true);
                    let t = time_trio(alg, grid.capacity, &grid.events);
                    (s, t)
                } else {
                    let t = time_trio(alg, grid.capacity, &grid.events);
                    let s = time_session(alg, grid.capacity, &grid.events, true);
                    (s, t)
                };
                session_rates.push(n / t_session);
                trio_rates.push(n / t_trio);
                ratios.push(t_trio / t_session);
            }
            let paired = median(ratios);
            eprintln!(
                "  {:>16} {:>8}  session {:>12.0} ev/s  3-counters {:>12.0} ev/s  paired {:>5.2}x",
                scenario,
                alg.name(),
                median(session_rates.clone()),
                median(trio_rates.clone()),
                paired
            );
            cells.push(Cell {
                scenario,
                algorithm: alg.name(),
                pattern: "wedge+tri+4c (session)".to_string(),
                events_per_sec: median(session_rates),
                paired_speedup: Some(paired),
            });
            cells.push(Cell {
                scenario,
                algorithm: alg.name(),
                pattern: "wedge+tri+4c (3 counters)".to_string(),
                events_per_sec: median(trio_rates),
                paired_speedup: None,
            });
        }
    }

    // Layered-enumeration cells: the same 3-query session with the
    // one-pass layered plan (the default) vs per-query enumeration
    // passes, paired and order-alternated within each rep. Hub grid
    // only — that's the enumeration-bound regime layering targets.
    {
        let grid = &grids[1];
        eprintln!(
            "perf_report: session-grid-hub layered (|S|={}, capacity M={}, {} paired reps, \
             alternated order)",
            grid.events.len(),
            grid.capacity,
            time_reps
        );
        let n = grid.events.len() as f64;
        for alg in [Algorithm::WsdH, Algorithm::WsdUniform, Algorithm::GpsA] {
            let mut layered_rates = Vec::with_capacity(time_reps);
            let mut plain_rates = Vec::with_capacity(time_reps);
            let mut ratios = Vec::with_capacity(time_reps);
            for rep in 0..time_reps {
                let (t_layered, t_plain) = if rep % 2 == 0 {
                    let l = time_session(alg, grid.capacity, &grid.events, true);
                    let p = time_session(alg, grid.capacity, &grid.events, false);
                    (l, p)
                } else {
                    let p = time_session(alg, grid.capacity, &grid.events, false);
                    let l = time_session(alg, grid.capacity, &grid.events, true);
                    (l, p)
                };
                layered_rates.push(n / t_layered);
                plain_rates.push(n / t_plain);
                ratios.push(t_plain / t_layered);
            }
            let paired = median(ratios);
            eprintln!(
                "  session-grid-hub {:>8}  layered {:>12.0} ev/s  per-query {:>12.0} ev/s  \
                 paired {:>5.2}x",
                alg.name(),
                median(layered_rates.clone()),
                median(plain_rates.clone()),
                paired
            );
            cells.push(Cell {
                scenario: "session-grid-hub",
                algorithm: alg.name(),
                pattern: "wedge+tri+4c (layered session)".to_string(),
                events_per_sec: median(layered_rates),
                paired_speedup: Some(paired),
            });
            cells.push(Cell {
                scenario: "session-grid-hub",
                algorithm: alg.name(),
                pattern: "wedge+tri+4c (per-query session)".to_string(),
                events_per_sec: median(plain_rates),
                paired_speedup: None,
            });
        }
    }

    // Serve grid: aggregate many-tenant throughput through the whole
    // server stack — TCP loopback, frame decode, SPSC rings, sharded
    // workers — with every session ingesting concurrently. This is the
    // serving-layer acceptance cell: ≥ 1000 concurrent sessions in the
    // full (non-quick) configuration, reported as aggregate events/sec
    // across all sessions.
    {
        let serve_stream = &grids[0].events[..serve_events_per_session];
        let serve_algorithms =
            [Algorithm::WsdH, Algorithm::Triest, Algorithm::ThinkD, Algorithm::Wrs];
        eprintln!(
            "perf_report: serve-grid ({serve_sessions} sessions x {serve_events_per_session} \
             events each, {time_reps} timing reps)"
        );
        let mut rates = Vec::with_capacity(time_reps);
        for _ in 0..time_reps {
            let server = wsd_serve::serve("127.0.0.1:0", wsd_serve::ServerConfig::default())
                .expect("serve-grid: bind server");
            let mut client =
                wsd_serve::Client::connect(server.local_addr()).expect("serve-grid: connect");
            let ids: Vec<u64> = (0..serve_sessions)
                .map(|i| {
                    client
                        .open(
                            serve_algorithms[i % serve_algorithms.len()],
                            64,
                            Some(COUNTER_SEED),
                            &[Pattern::Triangle],
                        )
                        .expect("serve-grid: open")
                })
                .collect();
            let start = Instant::now();
            for chunk in serve_stream.chunks(512) {
                for &id in &ids {
                    client.send_events(id, chunk).expect("serve-grid: send");
                }
            }
            for &id in &ids {
                client.flush(id).expect("serve-grid: flush");
            }
            rates.push(serve_total_events as f64 / start.elapsed().as_secs_f64());
            server.shutdown();
        }
        let events_per_sec = median(rates);
        eprintln!(
            "  {:>10} {:>30} x {:<24} {:>12.0} events/sec aggregate",
            "serve-grid",
            "mixed(WSD-H,Triest,ThinkD,WRS)",
            format!("triangle x {serve_sessions}"),
            events_per_sec
        );
        cells.push(Cell {
            scenario: "serve-grid",
            algorithm: "mixed(WSD-H,Triest,ThinkD,WRS)",
            pattern: format!("triangle x {serve_sessions} sessions"),
            events_per_sec,
            paired_speedup: None,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    // Primary stream header kept for backwards compatibility with
    // pre-hub-grid readers; the full grid is under "streams".
    json.push_str(&format!("  \"stream\": {},\n", grids[0].describe));
    json.push_str("  \"streams\": {\n");
    for (i, (name, _, describe)) in scenario_workloads.iter().enumerate() {
        let comma = if i + 1 < scenario_workloads.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {describe}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"methodology\": \"{}\",\n", json_escape(&methodology)));
    // Self-describing baseline record: the artifact states what it was
    // compared against and, per scenario, why speedup columns are
    // present or suppressed — no stderr context needed.
    match &baseline_path {
        Some(path) => {
            json.push_str(&format!(
                "  \"baseline\": {{\n    \"path\": \"{}\",\n    \"scenarios\": {{\n",
                json_escape(path)
            ));
            for (i, (name, _, reason)) in baseline_status.iter().enumerate() {
                let comma = if i + 1 < baseline_status.len() { "," } else { "" };
                json.push_str(&format!("      \"{name}\": \"{}\"{comma}\n", json_escape(reason)));
            }
            json.push_str("    }\n  },\n");
        }
        None => json.push_str("  \"baseline\": null,\n"),
    }
    json.push_str(&format!("  \"time_reps\": {time_reps},\n"));
    json.push_str("  \"results\": [\n");
    // Speedup columns only against the *same* workload: a --quick run
    // must not publish ratios against a full-size baseline. Derived
    // scenarios (sampler/session grids) share their underlying stream's
    // comparability.
    let mut comparable: std::collections::HashMap<&str, bool> =
        baseline_status.iter().map(|(name, ok, _)| (*name, *ok)).collect();
    let ba = comparable.get("ba-light").copied().unwrap_or(false);
    let hub = comparable.get("hub-heavy").copied().unwrap_or(false);
    comparable.extend([
        ("sampler-grid-ba", ba),
        ("sampler-grid-hub", hub),
        ("weight-grid-ba", ba),
        ("weight-grid-hub", hub),
        ("session-grid-ba", ba),
        ("session-grid-hub", hub),
    ]);
    for (i, c) in cells.iter().enumerate() {
        let base = baseline
            .as_deref()
            .filter(|_| comparable.get(c.scenario).copied().unwrap_or(false))
            .and_then(|b| baseline_rate(b, c.scenario, c.algorithm, &c.pattern));
        let mut line = format!(
            "    {{\"scenario\": \"{}\", \"algorithm\": \"{}\", \"pattern\": \"{}\", \
             \"events_per_sec\": {:.1}",
            c.scenario, c.algorithm, c.pattern, c.events_per_sec
        );
        if let Some(base) = base {
            line.push_str(&format!(
                ", \"baseline_events_per_sec\": {:.1}, \"speedup\": {:.3}",
                base,
                c.events_per_sec / base
            ));
        }
        if let Some(paired) = c.paired_speedup {
            line.push_str(&format!(", \"paired_speedup\": {paired:.3}"));
        }
        line.push('}');
        if i + 1 < cells.len() {
            line.push(',');
        }
        line.push('\n');
        json.push_str(&line);
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("perf_report: wrote {out}");
}

/// Escapes a free-text string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Finds the brace-matched `{...}` object that follows `"key":`. Works
/// on both the writer's compact one-line format and pretty-printed
/// reports (checked-in baselines aggregated by external tooling are
/// typically reformatted).
fn object_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let mut from = 0;
    while let Some(hit) = text[from..].find(&needle) {
        let start = from + hit + needle.len();
        from = start;
        // The same key can appear elsewhere with a non-object value
        // (e.g. a scenario name inside the baseline reasons map); keep
        // scanning until the value is an object.
        let tail = text[start..].trim_start();
        if !tail.starts_with('{') {
            continue;
        }
        let mut depth = 0usize;
        for (i, c) in tail.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&tail[..=i]);
                    }
                }
                _ => {}
            }
        }
        return None;
    }
    None
}

/// Whether `obj` has string key `key` with exactly the value `want`.
fn key_str_eq(obj: &str, key: &str, want: &str) -> bool {
    let needle = format!("\"{key}\":");
    match obj.find(&needle) {
        Some(i) => obj[i + needle.len()..].trim_start().starts_with(&format!("\"{want}\"")),
        None => false,
    }
}

/// Numeric value of `key` inside `obj`, if present.
fn key_num(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let tail = obj[obj.find(&needle)? + needle.len()..].trim_start();
    let num: String =
        tail.chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
    num.parse().ok()
}

/// Pulls the event count of a scenario's stream header out of a prior
/// report, so speedup columns are only emitted against the *same*
/// workload. Looks for the scenario's entry in the `streams` block and
/// falls back to the legacy top-level `stream` header (pre-hub-grid
/// reports) for `ba-light`. Tolerant of reformatted (pretty-printed)
/// baselines.
fn baseline_stream_events(report: &str, scenario: &str) -> Option<usize> {
    let obj = object_after(report, scenario)
        .or_else(|| (scenario == "ba-light").then(|| object_after(report, "stream")).flatten())?;
    key_num(obj, "events").map(|n| n as usize)
}

/// Pulls `events_per_sec` for a (scenario, algorithm, pattern) cell out
/// of a prior report by brace-matching each object in its `results`
/// array — no JSON parser dependency, and no assumption that a result
/// object sits on one line. Baseline rows without a scenario key
/// (reports older than the hub grid) are treated as `ba-light`.
fn baseline_rate(report: &str, scenario: &str, algorithm: &str, pattern: &str) -> Option<f64> {
    let start = report.find("\"results\"")?;
    let tail = &report[start..];
    let mut depth = 0usize;
    let mut obj_start = None;
    for (i, c) in tail.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    let obj = &tail[obj_start?..=i];
                    let scenario_matches = if obj.contains("\"scenario\"") {
                        key_str_eq(obj, "scenario", scenario)
                    } else {
                        scenario == "ba-light"
                    };
                    if scenario_matches
                        && key_str_eq(obj, "algorithm", algorithm)
                        && key_str_eq(obj, "pattern", pattern)
                    {
                        return key_num(obj, "events_per_sec");
                    }
                }
            }
            _ => {}
        }
    }
    None
}
