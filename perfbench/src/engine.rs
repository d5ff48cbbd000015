//! The in-process workloads, `ff-learned` and `hub-3q`: one
//! `StreamSession` per pass over a generated light-deletion stream.
//!
//! Every run checks its outputs: `ExactCounter` must accept every
//! event, every estimate after every batch must be finite, a session
//! snapshotted at 90% of pass 0 and restored must finish the held-out
//! tail bit-identically, and every snapshot → restore round trip must
//! reproduce the estimates it captured. A traced run additionally
//! checks that the zero-query twins hold exactly the sampled-edge
//! counts of the full session after every batch, that a traced pass
//! reproduces its untraced twin bit-for-bit, and that the sampler
//! rebuilt around a counting weight function reproduces the builder's
//! session bit-for-bit.

use std::fs::File;
use std::hash::BuildHasher;
use std::hint::black_box;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wsd_core::algorithms::WsdSampler;
use wsd_core::engine::{replica_seed, DEFAULT_BATCH_SIZE};
use wsd_core::{
    Algorithm, HeuristicWeight, LinearPolicy, MassKernel, PolicyRegistry, SessionBuilder,
    SessionSnapshot, StateVector, StreamSession, TemporalPooling, WeightFn,
};
use wsd_graph::{EdgeEvent, ExactCounter, FxBuildHasher, Pattern};
use wsd_stream::{GeneratorConfig, Scenario};

use crate::host::HostSpeed;
use crate::stats::{are, describe, median, percentile, sorted, supported_percentile};
use crate::trace::{SpanId, Tracer};
use crate::{peak_rss_mb, reset_peak_rss, Checks, Ctx, Outcome};

/// Where the checked-in policy registry lives, relative to the root of
/// the checkout the benchmark runs from.
pub const POLICY_DIR: &str = "artifacts/policies";

/// The pattern every weighted sampler here observes its weights on.
const WEIGHT_PATTERN: Pattern = Pattern::Triangle;

/// Set-up units timed before each pass (`setup_s` is the median of
/// their per-set-up means). A unit repeats set-ups until it has run for
/// `SETUP_UNIT_S`, so that one timed unit is far above the clock's and
/// the scheduler's granularity even for a set-up of a few microseconds.
const SETUP_PER_PASS: usize = 3;
const SETUP_UNIT_S: f64 = 0.005;
/// A tail percentile is reported only with this many samples beyond.
const MIN_BEYOND: usize = 10;

/// One in-process workload.
pub struct EngineWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Sampling algorithm of the session under test.
    pub algorithm: Algorithm,
    /// Attached queries, in attachment order.
    pub queries: &'static [Pattern],
    /// Registry scenario of the learned triangle policy (WSD-L only).
    pub policy_scenario: Option<&'static str>,
    /// Stream generator.
    pub generator: GeneratorConfig,
    /// Reservoir capacity: |S|/20 of the generator's nominal stream
    /// length, fixed rather than taken from each seed's stream. The
    /// samplers pre-size their tables to the capacity, so a capacity
    /// that moved with the seed would straddle a table-growth step for
    /// some streams (ff-learned's |S|/20 ranges over 28.6k–29.0k, across
    /// a step at 28,672 that adds 4 MiB) and split the memory metric
    /// into two modes by seed.
    pub capacity: usize,
    /// Passes (replica seeds) every run makes and averages ARE over.
    pub replicas: usize,
}

/// WSD-L with the registry's `ff-light` triangle policy on a Forest
/// Fire p = 0.5 stream. The policy was trained at p = 0.35; the gap is
/// the baseline this workload keeps visible.
pub const FF_LEARNED: EngineWorkload = EngineWorkload {
    name: "ff-learned",
    algorithm: Algorithm::WsdL,
    queries: &[Pattern::Triangle],
    policy_scenario: Some("ff-light"),
    generator: GeneratorConfig::ForestFire { vertices: 50_000, forward_prob: 0.5 },
    capacity: 568_000 / 20,
    replicas: 16,
};

/// WSD-H answering wedge, triangle and 4-clique (layered plan) on a
/// hub-clique stream.
pub const HUB_3Q: EngineWorkload = EngineWorkload {
    name: "hub-3q",
    algorithm: Algorithm::WsdH,
    queries: &[Pattern::Wedge, Pattern::Triangle, Pattern::FourClique],
    policy_scenario: None,
    generator: GeneratorConfig::HubClique { clique: 24, spokes: 200_000 },
    capacity: 481_000 / 20,
    replicas: 4,
};

/// Generates a workload's stream from the run seed.
fn generate(w: &EngineWorkload, seed: u64) -> Vec<EdgeEvent> {
    let edges = w.generator.generate(replica_seed(seed, 0));
    Scenario::default_light().apply(&edges, replica_seed(seed, 1))
}

/// Sampler seed of pass `r`.
fn pass_seed(seed: u64, r: usize) -> u64 {
    replica_seed(replica_seed(seed, 2), r as u64)
}

fn load_policy(scenario: &str) -> Result<LinearPolicy, String> {
    let registry = PolicyRegistry::open(POLICY_DIR)
        .map_err(|e| format!("cannot open policy registry {POLICY_DIR}: {e}"))?;
    registry
        .lookup(WEIGHT_PATTERN, scenario)
        .map(|a| a.policy.clone())
        .ok_or_else(|| format!("registry has no triangle policy for {scenario}"))
}

fn builder(
    w: &EngineWorkload,
    capacity: usize,
    seed: u64,
    policy: Option<&LinearPolicy>,
) -> SessionBuilder {
    let b = SessionBuilder::new(w.algorithm, capacity, seed)
        .queries(w.queries.iter().copied())
        .with_weight_pattern(WEIGHT_PATTERN);
    match policy {
        Some(p) => b.with_policy(p.clone()),
        None => b,
    }
}

fn estimates(s: &StreamSession) -> Vec<f64> {
    s.queries().map(|(id, _)| s.estimate(id)).collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// CPU time of the thread that opened it, from the scheduler's own
/// accounting (`/proc/thread-self/schedstat`: nanoseconds on a CPU), so
/// that time the thread spent preempted or stolen does not count.
struct ThreadCpu(File);

impl ThreadCpu {
    fn open() -> io::Result<Self> {
        File::open("/proc/thread-self/schedstat").map(ThreadCpu)
    }

    /// CPU seconds the thread has run so far.
    fn seconds(&self) -> f64 {
        let mut buf = [0u8; 96];
        let n = self.0.read_at(&mut buf, 0).expect("schedstat readable");
        std::str::from_utf8(&buf[..n])
            .ok()
            .and_then(|s| s.split_whitespace().next())
            .and_then(|ns| ns.parse::<u64>().ok())
            .expect("schedstat starts with nanoseconds on a CPU") as f64
            * 1e-9
    }
}

/// What one full-stream pass produced.
struct Pass {
    /// Wall seconds inside `process_batch`.
    busy: f64,
    /// The thread's CPU seconds inside `process_batch`.
    cpu: f64,
    /// Each `process_batch` call's duration, in microseconds.
    batch_us: Vec<f64>,
    /// End-of-stream estimates.
    finals: Vec<f64>,
    /// `stored_edges()` after every batch (when asked for).
    stored: Vec<usize>,
    /// The mid-pass snapshot (when asked for).
    held_out: Option<HeldOut>,
}

/// Options of [`pass`].
#[derive(Default)]
struct PassOpts {
    record_stored: bool,
    /// Snapshot after this many batches; the blob and the estimates
    /// after every later batch are returned in [`Pass::held_out`].
    snapshot_after: Option<usize>,
}

/// The snapshot taken inside pass 0 and what the pass saw afterwards.
struct HeldOut {
    after_batches: usize,
    blob: Vec<u8>,
    tail_estimates: Vec<Vec<f64>>,
}

/// One full-stream pass of `session` in engine-sized batches, each
/// batch timed in wall and CPU time (and recorded as a `span` span of
/// pass `r`).
#[allow(clippy::too_many_arguments)]
fn pass(
    cpu: &ThreadCpu,
    session: &mut StreamSession,
    events: &[EdgeEvent],
    span: &'static str,
    r: usize,
    opts: &PassOpts,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Pass {
    let (parent, started) = tracer.open("pass", SpanId::ROOT, r as u64);
    let mut out = Pass {
        busy: 0.0,
        cpu: 0.0,
        batch_us: Vec::new(),
        finals: Vec::new(),
        stored: Vec::new(),
        held_out: None,
    };
    for (b, chunk) in events.chunks(DEFAULT_BATCH_SIZE).enumerate() {
        let cpu_before = cpu.seconds();
        let ((), d) = tracer.time(span, parent, r as u64, || session.process_batch(chunk));
        out.cpu += cpu.seconds() - cpu_before;
        out.busy += d.as_secs_f64();
        out.batch_us.push(d.as_secs_f64() * 1e6);
        let now = estimates(session);
        checks.check(now.iter().all(|e| e.is_finite()), || {
            format!("pass {r}: non-finite estimate {now:?} after batch {b}")
        });
        if opts.record_stored {
            out.stored.push(session.stored_edges());
        }
        if opts.snapshot_after == Some(b + 1) {
            out.held_out = Some(HeldOut {
                after_batches: b + 1,
                blob: session.snapshot().encode(),
                tail_estimates: Vec::new(),
            });
        } else if let Some(h) = out.held_out.as_mut() {
            h.tail_estimates.push(now);
        }
    }
    tracer.close(parent, started);
    out.finals = estimates(session);
    out
}

/// A weight function that counts how often the sampler calls it and
/// otherwise forwards everything — including the affine fast-path
/// declaration, so wrapping never changes which path the sampler takes.
struct Counting {
    inner: Box<dyn WeightFn>,
    calls: Arc<AtomicU64>,
}

impl WeightFn for Counting {
    fn weight(&mut self, state: &StateVector) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.weight(state)
    }
    fn instances_affine(&self) -> Option<(f64, f64)> {
        self.inner.instances_affine()
    }
    fn needs_full_state(&self) -> bool {
        self.inner.needs_full_state()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// End-to-end samples taken between passes.
#[derive(Default)]
struct Samples {
    /// Host speed measured right after the latest pass; the samples
    /// taken after it are also kept scaled by it (`*_scaled`).
    factor: f64,
    setup: Vec<f64>,
    round_trip: Vec<f64>,
    round_trip_scaled: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    restore: Vec<f64>,
    bytes: usize,
    /// Peak resident memory each round added, in MiB.
    peak_mb: Vec<f64>,
}

impl Samples {
    /// One timed unit of set-ups (registry open, policy lookup, session
    /// build), repeated for at least `SETUP_UNIT_S`; records the mean.
    fn setup(&mut self, w: &EngineWorkload, capacity: usize, seed: u64, tracer: &mut Tracer) {
        let n = self.setup.len() as u64;
        let (builds, d) = tracer.time("setup", SpanId::ROOT, n, || {
            let started = Instant::now();
            let mut builds = 0u32;
            while builds == 0 || started.elapsed().as_secs_f64() < SETUP_UNIT_S {
                let p =
                    w.policy_scenario.map(|sc| load_policy(sc).expect("registry opened before"));
                black_box(builder(w, capacity, seed, p.as_ref()).build());
                builds += 1;
            }
            builds
        });
        self.setup.push(d.as_secs_f64() / f64::from(builds));
    }

    /// One migration of an end-of-stream session: snapshot → encode →
    /// decode → restore; the restored session must answer alike.
    fn migrate(
        &mut self,
        session: &StreamSession,
        r: usize,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) {
        let r = r as u64;
        let started = Instant::now();
        let (blob, d1) =
            tracer.time("snapshot.encode", SpanId::ROOT, r, || session.snapshot().encode());
        let (snap, d2) =
            tracer.time("snapshot.decode", SpanId::ROOT, r, || SessionSnapshot::decode(&blob));
        let Ok(snap) = snap else {
            checks.check(false, || "end-of-stream snapshot does not decode".to_string());
            return;
        };
        let (back, d3) =
            tracer.time("snapshot.restore", SpanId::ROOT, r, || StreamSession::restore(&snap));
        let round_trip = started.elapsed().as_secs_f64();
        self.round_trip.push(round_trip);
        self.round_trip_scaled.push(round_trip * self.factor);
        checks.check(same_bits(&estimates(&back), &estimates(session)), || {
            "restored session's estimates differ from the snapshotted one".to_string()
        });
        if r == 0 {
            self.bytes = blob.len();
        }
        self.encode.push(d1.as_secs_f64());
        self.decode.push(d2.as_secs_f64());
        self.restore.push(d3.as_secs_f64());
    }
}

/// Zero-query twins of traced pass `r`: the sampler layer alone on the
/// same stream, seed and weight (its `stored_edges()` trajectory must
/// match the full session's batch by batch), then with uniform weights
/// (the reservoir-write floor). Returns both passes' busy seconds.
#[allow(clippy::too_many_arguments)]
fn twin_passes(
    cpu: &ThreadCpu,
    w: &EngineWorkload,
    capacity: usize,
    seed: u64,
    policy: Option<&LinearPolicy>,
    events: &[EdgeEvent],
    r: usize,
    full: &Pass,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (f64, f64) {
    let mut twin =
        SessionBuilder::new(w.algorithm, capacity, seed).with_weight_pattern(WEIGHT_PATTERN);
    if let Some(p) = policy {
        twin = twin.with_policy(p.clone());
    }
    let opts = PassOpts { record_stored: true, snapshot_after: None };
    let sampler =
        pass(cpu, &mut twin.build(), events, "algorithms.process_batch", r, &opts, tracer, checks);
    checks.check(sampler.stored == full.stored, || {
        format!("pass {r}: zero-query twin's stored_edges trajectory differs")
    });
    let mut uniform = SessionBuilder::new(Algorithm::WsdUniform, capacity, seed)
        .with_weight_pattern(WEIGHT_PATTERN)
        .build();
    let opts = PassOpts::default();
    let floor = pass(
        cpu,
        &mut uniform,
        events,
        "algorithms.uniform_process_batch",
        r,
        &opts,
        tracer,
        checks,
    );
    (sampler.busy, floor.busy)
}

/// Runs one engine workload.
pub fn run(w: &EngineWorkload, ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    match run_inner(w, ctx, tracer) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            std::process::exit(1);
        }
    }
}

fn run_inner(w: &EngineWorkload, ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let traced = ctx.trace;
    let mut host = HostSpeed::new();

    // Inputs: the stream and its ground truth (excluded from set-up).
    let (events, gen_time) =
        tracer.time("gen.generate_and_apply", SpanId::ROOT, 0, || generate(w, ctx.seed));
    let capacity = w.capacity;
    let exact_started = Instant::now();
    let mut truths = Vec::new();
    let mut instances = 0u64;
    for (qi, &p) in w.queries.iter().enumerate() {
        let ((truth, moved), _) = tracer.time("exact.apply", SpanId::ROOT, qi as u64, || {
            let mut counter = ExactCounter::new(p);
            let (mut prev, mut moved) = (0u64, 0u64);
            for &ev in &events {
                match counter.apply(ev) {
                    Ok(c) => {
                        moved += c.abs_diff(prev);
                        prev = c;
                    }
                    Err(e) => return (Err(e.to_string()), moved),
                }
            }
            (Ok(prev), moved)
        });
        instances += moved;
        let ok = checks.check(truth.is_ok(), || format!("exact {}: {truth:?}", p.name()));
        let truth = if ok { truth.expect("checked") as f64 } else { f64::NAN };
        checks.check(truth > 0.0, || format!("exact {} count is {truth}", p.name()));
        truths.push(truth);
    }
    let exact_time = exact_started.elapsed();
    println!(
        "{}: {} events, capacity {capacity}, stream hash {:016x}, truth {:?}",
        w.name,
        events.len(),
        FxBuildHasher::default().hash_one(wsd_stream::encode_events(&events)),
        truths
    );

    // Measured passes. An untraced run times passes until `seconds`
    // have elapsed (at least `replicas` of them). A traced run pairs
    // each traced pass with an untraced pass of the same seed — in
    // alternating order — for the tracing overhead. Set-up, migration
    // and read samples are taken between passes, so that every metric
    // samples the whole run rather than one stretch of it.
    let policy = w.policy_scenario.map(load_policy).transpose()?;
    let cpu = ThreadCpu::open().map_err(|e| format!("cannot read thread CPU time: {e}"))?;
    let split = events.len().div_ceil(DEFAULT_BATCH_SIZE) * 9 / 10;
    let mut held_out = None;
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut samples = Samples::default();
    let mut twin_busy: Vec<(f64, f64)> = Vec::new();
    let measure_started = Instant::now();
    let mut r = 0;
    while r < w.replicas || measure_started.elapsed().as_secs_f64() < ctx.seconds {
        for _ in 0..SETUP_PER_PASS {
            samples.setup(w, capacity, pass_seed(ctx.seed, r), tracer);
        }
        // Each round's peak memory is measured from here to the end of
        // its migration: what is resident before (inputs, ground truth,
        // the host-speed buffer) stays out of it.
        let rss_base = reset_peak_rss().map_err(|e| format!("cannot reset peak RSS: {e}"))?;
        let seed = pass_seed(ctx.seed, r);
        let order: &[bool] = match (traced, r % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut last = None;
        for &on in order {
            let opts = PassOpts {
                record_stored: on,
                snapshot_after: (r == 0 && held_out.is_none()).then_some(split),
            };
            tracer.set_on(on);
            let mut session = builder(w, capacity, seed, policy.as_ref()).build();
            let mut p = pass(
                &cpu,
                &mut session,
                &events,
                "session.process_batch",
                r,
                &opts,
                tracer,
                &mut checks,
            );
            held_out = held_out.or(p.held_out.take());
            tracer.set_on(traced);
            if on {
                traced_passes.push(p)
            } else {
                untraced.push(p)
            }
            last = Some(session);
        }
        if traced {
            let (u, t) = (&untraced[r], &traced_passes[r]);
            checks.check(same_bits(&u.finals, &t.finals), || {
                format!("pass {r}: traced {:?} != untraced {:?}", t.finals, u.finals)
            });
            let (p, f) = (policy.as_ref(), &traced_passes[r]);
            twin_busy.push(twin_passes(
                &cpu,
                w,
                capacity,
                seed,
                p,
                &events,
                r,
                f,
                tracer,
                &mut checks,
            ));
        }
        let session = last.expect("one pass per round");
        samples.factor = host.sample();
        samples.migrate(&session, r, tracer, &mut checks);
        samples.peak_mb.push(peak_rss_mb("self") - rss_base);
        r += 1;
    }
    let passes = if traced { &traced_passes } else { &untraced };
    let factors = &host.factors;
    checks.ops(passes.iter().map(|p| p.batch_us.len() as u64).sum());

    // Held-out tail: restore the 90% snapshot and finish the stream.
    let h = held_out.ok_or("pass 0 took no snapshot")?;
    let restored = SessionSnapshot::decode(&h.blob).map(|s| StreamSession::restore(&s));
    if checks.check(restored.is_ok(), || "held-out snapshot does not decode".to_string()) {
        let mut twin = restored.expect("checked");
        let tail = &events[h.after_batches * DEFAULT_BATCH_SIZE..];
        for (b, chunk) in tail.chunks(DEFAULT_BATCH_SIZE).enumerate() {
            twin.process_batch(chunk);
            let (got, want) = (estimates(&twin), &h.tail_estimates[b]);
            checks.check(same_bits(&got, want), || {
                format!("restored twin diverged at tail batch {b}: {got:?} != {want:?}")
            });
        }
        checks.check(same_bits(&estimates(&twin), &untraced[0].finals), || {
            "restored twin's final estimates differ from pass 0".to_string()
        });
    }

    // Accuracy over the fixed replica set (identical in every run of
    // this seed, traced or not).
    let are_of = |qi: usize| {
        let pairs: Vec<(f64, f64)> =
            passes[..w.replicas].iter().map(|p| (p.finals[qi], truths[qi])).collect();
        are(&pairs)
    };
    let ares: Vec<(String, f64)> =
        w.queries.iter().enumerate().map(|(qi, p)| (p.name(), are_of(qi))).collect();
    println!("{}: ARE over {} replicas: {ares:?}", w.name, w.replicas);
    let tri = w.queries.iter().position(|&p| p == Pattern::Triangle).expect("triangle query");

    let batch_us = sorted(passes.iter().flat_map(|p| p.batch_us.iter().copied()).collect());
    println!(
        "{}: {} passes; process_batch {}",
        w.name,
        passes.len(),
        describe(&batch_us, 1.0, "us")
    );
    if !traced {
        // Timings are reported scaled to a quiet host's speed (see
        // `host`): each pass, and the samples taken after it, by the
        // speed measured right after it. Raw values are printed too.
        let n = events.len() as f64;
        let cpu: f64 = passes.iter().map(|p| p.cpu).sum();
        let scaled_cpu: f64 = passes.iter().zip(factors).map(|(p, f)| p.cpu * f).sum();
        let scaled_setup: Vec<f64> = samples
            .setup
            .iter()
            .enumerate()
            .map(|(i, s)| s * factors[i / SETUP_PER_PASS])
            .collect();
        let raw = [
            ("setup_s", median(&samples.setup)),
            ("events_per_cpu_s", n * passes.len() as f64 / cpu),
            ("migrate_ms", median(&samples.round_trip) * 1e3),
        ];
        println!(
            "{}: host speed {} of nominal; unscaled: {raw:?}",
            w.name,
            describe(&sorted(factors.clone()), 1.0, "")
        );
        println!("{}: peak MiB added per round: {:.2?}", w.name, samples.peak_mb);
        m.push(("setup_s", median(&scaled_setup)));
        m.push(("events_per_cpu_s", n * passes.len() as f64 / scaled_cpu));
        m.push(("migrate_ms", median(&samples.round_trip_scaled) * 1e3));
        m.push(("peak_rss_mb", median(&samples.peak_mb)));
        return Ok(Outcome { metrics: m, checks });
    }

    // Traced run: the layer split.
    let session_busy: Vec<f64> = traced_passes.iter().map(|p| p.busy).collect();
    let overhead: Vec<f64> =
        traced_passes.iter().zip(&untraced).map(|(t, u)| t.busy / u.busy - 1.0).collect();

    // Weight layer: rebuild pass 0's sampler around a counting weight
    // function (and, for a learned policy, an observer capturing every
    // observed state), then time the policy replayed over the states.
    let calls = Arc::new(AtomicU64::new(0));
    let states = Arc::new(Mutex::new(Vec::<StateVector>::new()));
    let inner: Box<dyn WeightFn> = match &policy {
        Some(p) => Box::new(p.clone()),
        None => Box::new(HeuristicWeight),
    };
    let affine = inner.instances_affine().is_some();
    let mut sampler = WsdSampler::new(
        WEIGHT_PATTERN,
        capacity,
        Box::new(Counting { inner, calls: Arc::clone(&calls) }),
        TemporalPooling::Max,
        pass_seed(ctx.seed, 0),
    )
    .with_mass_kernel(MassKernel::build_default());
    if !affine {
        let sink = Arc::clone(&states);
        sampler
            .set_observer(Box::new(move |_, s, _| sink.lock().expect("observer").push(s.clone())));
    }
    let mut counted =
        StreamSession::from_parts(Box::new(sampler), w.queries, MassKernel::build_default());
    let opts = PassOpts::default();
    let p = pass(
        &cpu,
        &mut counted,
        &events,
        "weight.counted_process_batch",
        0,
        &opts,
        tracer,
        &mut checks,
    );
    checks.check(same_bits(&p.finals, &traced_passes[0].finals), || {
        format!("counting-weight sampler diverged: {:?} != {:?}", p.finals, traced_passes[0].finals)
    });
    let states = std::mem::take(&mut *states.lock().expect("observer"));
    let evals = calls.load(Ordering::Relaxed);
    if !affine {
        checks.check(states.len() as u64 == evals, || {
            format!("observer saw {} states but the policy ran {evals} times", states.len())
        });
    }
    let weight_busy = match &policy {
        Some(policy) if !states.is_empty() => {
            let (_, d) = tracer.time("weight.evaluate", SpanId::ROOT, 0, || {
                black_box(states.iter().map(|s| policy.evaluate(s)).sum::<f64>())
            });
            d.as_secs_f64()
        }
        _ => 0.0,
    };

    // The estimator's share, from each traced pass and its twin (run
    // back to back, so a drift in host speed hits both alike).
    let estimator: Vec<f64> = session_busy.iter().zip(&twin_busy).map(|(s, t)| s - t.0).collect();
    let share: Vec<f64> = estimator.iter().zip(&session_busy).map(|(e, s)| e / s).collect();
    let session_s = median(&session_busy);
    m.push(("gen.busy_s", gen_time.as_secs_f64()));
    m.push(("exact.busy_s", exact_time.as_secs_f64()));
    m.push(("exact.instances", instances as f64));
    m.push(("session.busy_s", session_s));
    m.push(("engine.batches", traced_passes[0].batch_us.len() as f64));
    // The batch tail pools the traced run's untraced passes too: the
    // same work, and enough batches for the ten-beyond rule.
    let pooled =
        sorted(untraced.iter().chain(&traced_passes).flat_map(|p| p.batch_us.clone()).collect());
    m.push(("batch_p50_us", percentile(&pooled, 0.5)));
    m.push(("batch_p99_us", supported_percentile(&pooled, 0.99, MIN_BEYOND).unwrap_or(f64::NAN)));
    m.push(("algorithms.busy_s", median(&twin_busy.iter().map(|t| t.0).collect::<Vec<_>>())));
    m.push((
        "algorithms.uniform_busy_s",
        median(&twin_busy.iter().map(|t| t.1).collect::<Vec<_>>()),
    ));
    m.push(("estimator.busy_s", median(&estimator)));
    m.push(("estimator.share", median(&share)));
    m.push(("weight.evals", evals as f64));
    m.push(("weight.busy_s", weight_busy));
    m.push(("snapshot.encode_s", median(&samples.encode)));
    m.push(("snapshot.decode_s", median(&samples.decode)));
    m.push(("snapshot.restore_s", median(&samples.restore)));
    m.push(("snapshot.bytes", samples.bytes as f64));
    m.push(("are_triangle", ares[tri].1));
    m.push(("trace.overhead", median(&overhead)));
    m.push(("host.speed", median(factors)));
    Ok(Outcome { metrics: m, checks })
}
