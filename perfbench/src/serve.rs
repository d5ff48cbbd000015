//! The served workload, `serve-mixed`: the `wsd-serve` binary as a
//! separate process, driven open-loop over two loopback connections by
//! a two-thread generator.
//!
//! Connection A carries the writes: `Events` frames for every session,
//! each session subscribed to one checkpoint push per frame. The
//! generator's second thread does nothing but read A. Connection B
//! carries the reads (`Estimates`) and the migrations (`Snapshot` →
//! `Restore`, then a read, one more frame and a read on the restored
//! copy) at fixed rates beside the low-rate writes.
//!
//! The run alternates a low and a high fixed offered rate in rounds.
//! Latency is charged from each frame's *due* time, so a late generator
//! inflates the samples instead of hiding them. Each fixed step is
//! followed by a burst of migrations of a fixed set of sessions, closed
//! loop; each blob the server returns is also decoded, restored and
//! re-encoded in process, which gives `migrate_ms`. A traced run adds a ladder of
//! offered rates for `sustained_events_per_s`.
//!
//! Every push, every read and every read of a migrated copy is checked
//! bit-for-bit against an in-process twin of its session at the same
//! event count, and every frame must produce exactly one push.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use wsd_core::engine::replica_seed;
use wsd_core::{Algorithm, SessionBuilder, SessionSnapshot, StreamSession};
use wsd_graph::{EdgeEvent, ExactCounter, Pattern};
use wsd_serve::protocol::{read_frame, write_frame, CHECKPOINT_OPCODE};
use wsd_serve::{Checkpoint, Client, QueryEstimate, Reply, Request};
use wsd_stream::{GeneratorConfig, Scenario};

use crate::host::HostSpeed;
use crate::stats::{
    are, backlog_grows, describe, median, percentile, sorted, supported_percentile, Schedule,
};
use crate::trace::{SpanId, Tracer};
use crate::{peak_rss_mb, Checks, Ctx, Outcome};

/// Served sessions, their reservoir capacity and their frame size: the
/// configuration of the generator prototype whose measurements the
/// offered rates below are derived from.
const SESSIONS: usize = 256;
const CAPACITY: u64 = 1024;
const FRAME: usize = 256;
/// Session `i` runs `ALGORITHMS[i % 4]` on base stream `(i / 4) % 8`.
const ALGORITHMS: [Algorithm; 4] =
    [Algorithm::WsdH, Algorithm::Triest, Algorithm::ThinkD, Algorithm::Wrs];
const BASE_STREAMS: usize = 8;
/// Base-stream generator; a session never needs more than one stream.
const BASE_GENERATOR: GeneratorConfig =
    GeneratorConfig::BarabasiAlbert { vertices: 48_000, edges_per_vertex: 5 };
/// Served ARE is taken at this frame of every session's stream.
const ARE_AT_FRAME: usize = 32;
/// Server shard threads (fixed, so the run does not depend on the
/// host's core count).
const SHARDS: usize = 2;
/// Server boots per run; `setup_s` is the median of their scaled costs.
const BOOTS: usize = 25;
/// Host-speed slices timed after each step (see `host`), on one thread.
const HOST_SLICES: usize = 3;

/// Offered rates of the fixed steps, in events per second. No record
/// of served traffic exists to take them from, so they come from the
/// one measurement there is: a prototype of this generator (in-process
/// server, this session count, capacity and frame size) whose knee lay
/// between 2M and 4M ev/s. The steps run at fixed fractions of the
/// knee's lower edge, 2M ev/s: 10% (low) and 30% (high). They stay that
/// far below it because on a shared host the knee moves with the
/// neighbours' load: at 1M and 2M ev/s (half the knee and its edge) a
/// contended stretch on the 2-vCPU reference host pushed the 1M-step
/// push p50 from 0.15 ms to 3 ms, so that metric measured the
/// neighbours, not the server. Neither step is a saturation test; the
/// traced ladder is, and on that host it puts this server's knee where
/// the prototype's was (2M sustained, 4M not). The steps alternate,
/// equal in length, in
/// `ROUNDS` rounds, so that each samples the whole run; each
/// end-to-end metric is taken per round and reported as the median over
/// rounds, so that a burst of contention lasting a round or two does
/// not move it.
const LOW_RATE: f64 = 200_000.0;
const HIGH_RATE: f64 = 600_000.0;
const LOW_SHARE: f64 = 0.5;
const ROUNDS: usize = 6;
/// Reads and migrations during the low-rate steps, per second. These
/// are latency probes, not a model of tenant traffic: no measured
/// read/write/migration mix exists, so their rates are an assumption.
/// Each probe samples one round trip under the write load; the
/// migration rate gives about twenty samples a round, and the probes'
/// shard time stays at 10–15% of the writes' at the low rate (traced
/// runs report `shard.estimates_apply_us`,
/// `shard.snapshot_apply_us` and `shard.restore_apply_us` beside
/// `shard.events_apply_us`).
const READ_RATE: f64 = 200.0;
const MIGRATE_RATE: f64 = 10.0;
/// Traced runs only: the ladder for `sustained_events_per_s`, each
/// rung held for `RUNG_SECS`; a rung passes when push p99 stays under
/// `P99_LIMIT_S` and the backlog does not grow.
const LADDER: [f64; 5] = [1e6, 2e6, 4e6, 6e6, 8e6];
const RUNG_SECS: f64 = 1.0;
const P99_LIMIT_S: f64 = 0.020;
/// Backlog samples are taken this often; growth beyond this many
/// events over a step (on trend) means the server is not keeping up.
const BACKLOG_EVERY: Duration = Duration::from_millis(10);
const BACKLOG_SLACK: f64 = (2 * SESSIONS * FRAME) as f64;
const MIN_BEYOND: usize = 10;
/// How long to wait for outstanding pushes after a step's last frame.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Migrations in the burst after every fixed step (`migrate_ms`): every
/// fourth session, offset so that the burst holds sixteen sessions of
/// each algorithm and eight on each base stream. The same sessions in
/// every burst and every run.
const BURST: usize = SESSIONS / 4;
/// Times each burst blob's in-process migration is repeated; the
/// fastest counts.
const LOCAL_REPEATS: usize = 5;

/// A step's offered load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Low,
    High,
    Rung(usize),
}

/// One frame sent on connection A: frame `k` of its step's schedule.
struct Sent {
    step: Step,
    round: usize,
    sched: Schedule,
    k: u64,
    sent: Instant,
}

/// One finished step.
struct StepLog {
    step: Step,
    round: usize,
    /// Server CPU seconds (all threads) from step start to drained.
    server_cpu_s: f64,
    /// `(seconds into the step, events sent but not yet pushed)`.
    backlog: Vec<(f64, f64)>,
    /// The server's metrics dump before and after the step.
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
}

/// What the reader thread collected from connection A.
#[derive(Default)]
struct Received {
    /// `(session id, events, estimate bits, receipt time)`.
    pushes: Vec<(u64, u64, u64, Instant)>,
    /// Non-push frames (error replies) and undecodable frames.
    unexpected: Vec<String>,
    /// Seconds spent decoding frames.
    decode_s: f64,
}

/// The spawned server; killed and reaped on drop if still running.
struct Server {
    child: Child,
    addr: String,
    /// Held open so the server's exit line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn boot(path: &Path, seed: u64) -> io::Result<Server> {
        let mut child = Command::new(path)
            .args(["--addr", "127.0.0.1:0", "--shards", &SHARDS.to_string()])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("wsd-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr, _stdout: stdout }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!("server did not report its address: {line:?}")))
            }
        }
    }

    /// CPU seconds the server's live threads have run so far: the sum
    /// of their `/proc/<pid>/task/<tid>/schedstat` run times, in
    /// nanoseconds and without the time a thread waited for a CPU or the
    /// host took the CPU away. A thread's count is exact while it is not
    /// running, as every server thread is once a step has drained; no
    /// server thread exits during the steps.
    fn cpu_seconds(&self) -> io::Result<f64> {
        let mut ns = 0u64;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.child.id()))? {
            let stat = match std::fs::read_to_string(task?.path().join("schedstat")) {
                Ok(stat) => stat,
                // A thread that exited between the listing and the read.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| io::Error::other(format!("unreadable schedstat {stat:?}")))?;
        }
        Ok(ns as f64 * 1e-9)
    }

    /// Stops the server and waits for it to exit.
    ///
    /// It is killed rather than sent `Shutdown`, which is not part of
    /// the workload: `wsd-serve` queues `Shutdown`'s `Ok` reply on the
    /// connection's detached writer thread and can exit before that
    /// thread writes it, so the client sometimes sees a disconnect
    /// instead (in about one shutdown in a hundred on the reference host).
    /// The server holds no durable state here, so nothing is lost.
    fn stop(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sends requests on a raw connection, pipelined, and reads their
/// replies, which the server sends in request order (only used before
/// any session is subscribed, so no push can interleave).
fn pipelined(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    reqs: &[Request],
) -> io::Result<Vec<Reply>> {
    let mut out = Vec::new();
    for req in reqs {
        write_frame(&mut out, &req.encode())?;
    }
    stream.write_all(&out)?;
    (0..reqs.len())
        .map(|_| {
            let payload = read_frame(reader)?.ok_or_else(|| io::Error::other("server hung up"))?;
            Reply::decode(&payload).map_err(|e| io::Error::other(e.to_string()))
        })
        .collect()
}

/// One booted, populated server.
struct Booted {
    server: Server,
    a: TcpStream,
    a_reader: BufReader<TcpStream>,
    b: Client,
    /// Server-assigned session ids, by session index.
    ids: Vec<u64>,
}

/// Boots a server, connects both connections, and opens and subscribes
/// every session — the served workload's set-up.
fn boot_and_populate(path: &Path, seed: u64) -> io::Result<Booted> {
    let server = Server::boot(path, seed)?;
    let mut a = TcpStream::connect(&server.addr)?;
    a.set_nodelay(true)?;
    let mut a_reader = BufReader::new(a.try_clone()?);
    let b = Client::connect(&server.addr)?;
    let opens: Vec<Request> = (0..SESSIONS)
        .map(|i| Request::Open {
            algorithm: ALGORITHMS[i % ALGORITHMS.len()],
            capacity: CAPACITY,
            seed: Some(session_seed(seed, i)),
            patterns: vec![Pattern::Triangle],
        })
        .collect();
    let ids = pipelined(&mut a, &mut a_reader, &opens)?
        .into_iter()
        .map(|reply| match reply {
            Reply::Opened { session } => Ok(session),
            other => Err(io::Error::other(format!("open: {other:?}"))),
        })
        .collect::<io::Result<Vec<u64>>>()?;
    let subs: Vec<Request> =
        ids.iter().map(|&session| Request::Subscribe { session, every: FRAME as u64 }).collect();
    for reply in pipelined(&mut a, &mut a_reader, &subs)? {
        if !matches!(reply, Reply::Ok) {
            return Err(io::Error::other(format!("subscribe: {reply:?}")));
        }
    }
    Ok(Booted { server, a, a_reader, b, ids })
}

fn session_seed(seed: u64, i: usize) -> u64 {
    replica_seed(replica_seed(seed, 3), i as u64)
}

fn base_of(i: usize) -> usize {
    (i / ALGORITHMS.len()) % BASE_STREAMS
}

/// The events of session `i`'s `j`-th frame.
fn frame_events(streams: &[Vec<EdgeEvent>], i: usize, j: usize) -> &[EdgeEvent] {
    &streams[base_of(i)][j * FRAME..(j + 1) * FRAME]
}

/// Bits of the first query's estimate (the served sessions have one).
fn first_bits(queries: &[QueryEstimate]) -> u64 {
    queries.first().map_or(u64::MAX, |q| q.estimate.to_bits())
}

/// Parses the server's `name value` metrics dump.
fn parse_metrics(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Microseconds spent applying `kind` commands during a step, and how
/// many were applied (from the dump's cumulative mean and count).
fn apply_delta(log: &StepLog, kind: &str) -> (f64, f64) {
    let total = |m: &HashMap<String, f64>| {
        let n = m.get(&format!("cmd_{kind}_total")).copied().unwrap_or(0.0);
        let mean = m.get(&format!("cmd_{kind}_mean_us")).copied().unwrap_or(0.0);
        (n * mean, n)
    };
    let (t0, n0) = total(&log.before);
    let (t1, n1) = total(&log.after);
    (t1 - t0, n1 - n0)
}

/// The generated inputs: base streams and their exact triangle counts
/// at every frame boundary.
struct Inputs {
    streams: Vec<Vec<EdgeEvent>>,
    truth_at: Vec<Vec<u64>>,
    frames_per_session: usize,
    gen_s: f64,
    exact_s: f64,
    instances: u64,
}

fn inputs(seed: u64, tracer: &mut Tracer, checks: &mut Checks) -> Inputs {
    let (streams, gen) = tracer.time("gen.generate_and_apply", SpanId::ROOT, 0, || {
        (0..BASE_STREAMS as u64)
            .map(|s| {
                let edges = BASE_GENERATOR.generate(replica_seed(replica_seed(seed, 4), s));
                let mut ev =
                    Scenario::default_light().apply(&edges, replica_seed(replica_seed(seed, 5), s));
                ev.truncate(ev.len() / FRAME * FRAME);
                ev
            })
            .collect::<Vec<_>>()
    });
    let frames_per_session = streams.iter().map(Vec::len).min().expect("streams") / FRAME;
    let exact_started = Instant::now();
    let mut truth_at = Vec::with_capacity(BASE_STREAMS);
    let mut instances = 0u64;
    for (s, stream) in streams.iter().enumerate() {
        let mut counter = ExactCounter::new(Pattern::Triangle);
        let mut at = Vec::with_capacity(stream.len() / FRAME);
        let mut prev = 0u64;
        for (k, &ev) in stream.iter().enumerate() {
            match counter.apply(ev) {
                Ok(c) => {
                    instances += c.abs_diff(prev);
                    prev = c;
                }
                Err(e) => {
                    checks.check(false, || format!("base stream {s}: {e}"));
                    break;
                }
            }
            if (k + 1) % FRAME == 0 {
                at.push(prev);
            }
        }
        truth_at.push(at);
    }
    let exact_s = exact_started.elapsed().as_secs_f64();
    tracer.record("exact.apply", SpanId::ROOT, 0, exact_started, Instant::now());
    Inputs { streams, truth_at, frames_per_session, gen_s: gen.as_secs_f64(), exact_s, instances }
}

/// Starts the thread that reads every frame arriving on connection A.
fn spawn_reader(
    mut a_reader: BufReader<TcpStream>,
    seen: Arc<AtomicU64>,
    mut tracer: Tracer,
) -> JoinHandle<(Received, Tracer)> {
    thread::spawn(move || {
        let mut got = Received::default();
        while let Ok(Some(payload)) = read_frame(&mut a_reader) {
            let received = Instant::now();
            if payload.first() == Some(&CHECKPOINT_OPCODE) {
                let (cp, d) = tracer.time("protocol.decode_checkpoint", SpanId::ROOT, 0, || {
                    Checkpoint::decode(&payload)
                });
                got.decode_s += d.as_secs_f64();
                match cp {
                    Ok(cp) => {
                        got.pushes.push((cp.session, cp.events, first_bits(&cp.queries), received))
                    }
                    Err(e) => got.unexpected.push(format!("bad checkpoint: {e}")),
                }
                seen.fetch_add(1, Ordering::Release);
            } else {
                got.unexpected.push(format!("{:?}", Reply::decode(&payload)));
            }
        }
        (got, tracer)
    })
}

/// The writing side of the generator and everything it measured.
struct Generator<'a> {
    inputs: &'a Inputs,
    ids: &'a [u64],
    writer: TcpStream,
    client: Client,
    pushes_seen: Arc<AtomicU64>,
    sent: Vec<Sent>,
    /// `(session index, events, estimate bits)` of every checked read:
    /// `Estimates` replies, and reads of migrated copies.
    reads: Vec<(usize, u64, u64)>,
    read_lat: Vec<f64>,
    /// Round trip of every migration beside the writes, in seconds.
    migrate_lat: Vec<f64>,
    /// `(burst, seconds)` of the in-process decode → restore → encode of
    /// every blob of a burst.
    migrate_local: Vec<(usize, f64)>,
    /// Bursts run so far.
    bursts: usize,
    /// Migrations made so far (they pick their sessions in turn).
    migrations: usize,
    /// Round of the step being run.
    round: usize,
    snapshot_decode_s: Vec<f64>,
    /// In-process restore and re-encode of burst blobs (seconds), and
    /// the blobs' sizes.
    snapshot_restore_s: Vec<f64>,
    snapshot_encode_s: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    encode_s: f64,
    write_s: f64,
    frame_bytes: usize,
}

impl Generator<'_> {
    /// Runs one step: frames at `rate` for `secs` (reads and migrations
    /// beside them at the low rate), then waits for its pushes. Returns
    /// the step's backlog samples.
    fn step(
        &mut self,
        step: Step,
        rate: f64,
        secs: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> io::Result<Vec<(f64, f64)>> {
        let max_frames = (self.inputs.frames_per_session * SESSIONS) as u64;
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let sched = Schedule::at_rate(start, rate, FRAME);
        let first = self.sent.len() as u64;
        let side_traffic = step == Step::Low;
        let mut next_read = start;
        let mut next_migrate = start + Duration::from_secs_f64(0.5 / MIGRATE_RATE);
        let mut next_sample = start;
        let mut backlog = Vec::new();
        while Instant::now() < end && (self.sent.len() as u64) < max_frames {
            // Every frame due by now, up to the step's end: a sender that
            // falls behind (the server pushing back) stops at the frames
            // due within the step instead of running on past it.
            let mut k = self.sent.len() as u64 - first;
            while first + k < max_frames && sched.due(k) < end && sched.due(k) <= Instant::now() {
                self.send_frame(first + k, tracer)?;
                let round = self.round;
                self.sent.push(Sent { step, round, sched, k, sent: Instant::now() });
                k += 1;
            }
            let now = Instant::now();
            if now >= next_sample {
                let in_flight = self.sent.len() as u64 - self.pushes_seen.load(Ordering::Acquire);
                backlog.push(((now - start).as_secs_f64(), (in_flight * FRAME as u64) as f64));
                next_sample = now + BACKLOG_EVERY;
            }
            if side_traffic && now >= next_read {
                self.read(tracer, checks);
                next_read += Duration::from_secs_f64(1.0 / READ_RATE);
            }
            if side_traffic && now >= next_migrate {
                let i = (self.migrations * 104_729 + 13) % SESSIONS;
                self.migrate(i, false, tracer, checks)?;
                next_migrate += Duration::from_secs_f64(1.0 / MIGRATE_RATE);
            }
            let mut wake = sched.due(k).min(next_sample).min(end);
            if side_traffic {
                wake = wake.min(next_read).min(next_migrate);
            }
            if let Some(wait) = wake.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
        }
        // Let the step's pushes land before the next step starts.
        let drained = Instant::now();
        while self.pushes_seen.load(Ordering::Acquire) < self.sent.len() as u64
            && drained.elapsed() < DRAIN_TIMEOUT
        {
            thread::sleep(Duration::from_millis(1));
        }
        Ok(backlog)
    }

    /// Encodes and writes global frame `g` (session `g % SESSIONS`,
    /// that session's frame `g / SESSIONS`).
    fn send_frame(&mut self, g: u64, tracer: &mut Tracer) -> io::Result<()> {
        let (i, j) = ((g % SESSIONS as u64) as usize, (g / SESSIONS as u64) as usize);
        let events = frame_events(&self.inputs.streams, i, j).to_vec();
        let (payload, d) = tracer.time("protocol.encode_events", SpanId::ROOT, g, || {
            Request::Events { session: self.ids[i], events }.encode()
        });
        self.encode_s += d.as_secs_f64();
        self.frame_bytes += payload.len() + 4;
        let writer = &mut self.writer;
        let (res, d) =
            tracer.time("client.write_frame", SpanId::ROOT, g, || write_frame(writer, &payload));
        self.write_s += d.as_secs_f64();
        res
    }

    /// One `Estimates` read on connection B.
    fn read(&mut self, tracer: &mut Tracer, checks: &mut Checks) {
        let n = self.read_lat.len() as u64;
        let i = (self.read_lat.len() * 7919) % SESSIONS;
        let (client, session) = (&mut self.client, self.ids[i]);
        let (r, d) = tracer.time("client.estimates", SpanId::ROOT, n, || client.estimates(session));
        self.read_lat.push(d.as_secs_f64());
        match r {
            Ok(e) => self.reads.push((i, e.events, first_bits(&e.queries))),
            Err(e) => {
                checks.check(false, || format!("estimates read: {e}"));
            }
        }
    }

    /// A burst: `BURST` migrations back to back, while no frame is in
    /// flight.
    fn burst(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> io::Result<()> {
        for k in 0..BURST {
            self.migrate(4 * k + k % 4, true, tracer, checks)?;
        }
        self.bursts += 1;
        Ok(())
    }

    /// One migration of session `i` on connection B: `Snapshot` →
    /// `Restore`; then the restored copy is read, fed the session's next
    /// frame and read again, and closed. Beside the writes, the round
    /// trip is timed; in a `burst`, the blob's `decode` → `restore` →
    /// `snapshot().encode()` in process, which must give the blob back.
    fn migrate(
        &mut self,
        i: usize,
        burst: bool,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> io::Result<()> {
        let n = self.migrations as u64;
        self.migrations += 1;
        let (client, session) = (&mut self.client, self.ids[i]);
        let (parent, started) = tracer.open("client.migrate", SpanId::ROOT, n);
        let (blob, _) = tracer.time("client.snapshot", parent, n, || client.snapshot(session));
        let restored = blob.and_then(|blob| {
            let (copy, _) =
                tracer.time("client.restore", parent, n, || client.restore(blob.clone()));
            copy.map(|copy| (copy, blob))
        });
        let round_trip = tracer.close(parent, started).as_secs_f64();
        let (copy, blob) = match restored {
            Ok(ok) => ok,
            Err(e) => {
                checks.check(false, || format!("migration: {e}"));
                return Ok(());
            }
        };
        let local = Instant::now();
        let (snap, d) =
            tracer.time("snapshot.decode", SpanId::ROOT, n, || SessionSnapshot::decode(&blob));
        self.snapshot_decode_s.push(d.as_secs_f64());
        let Ok(snap) = snap else {
            checks.check(false, || "migrated snapshot does not decode".to_string());
            return Ok(());
        };
        if burst {
            let (back, d) =
                tracer.time("snapshot.restore", SpanId::ROOT, n, || StreamSession::restore(&snap));
            self.snapshot_restore_s.push(d.as_secs_f64());
            let (again, d) =
                tracer.time("snapshot.encode", SpanId::ROOT, n, || back.snapshot().encode());
            self.snapshot_encode_s.push(d.as_secs_f64());
            self.snapshot_bytes.push(blob.len() as f64);
            let mut best = local.elapsed().as_secs_f64();
            for _ in 1..LOCAL_REPEATS {
                let started = Instant::now();
                let snap = SessionSnapshot::decode(&blob).expect("decoded once");
                black_box(StreamSession::restore(&snap).snapshot().encode());
                best = best.min(started.elapsed().as_secs_f64());
            }
            self.migrate_local.push((self.bursts, best));
            checks.check(again == blob, || {
                format!("session {i}: its snapshot, restored in process, re-encodes differently")
            });
        } else {
            self.migrate_lat.push(round_trip);
        }
        let next = snap.events as usize / FRAME;
        let reads = &mut self.reads;
        let mut outcome =
            client.estimates(copy).map(|e| reads.push((i, e.events, first_bits(&e.queries))));
        if outcome.is_ok() && next < self.inputs.frames_per_session {
            outcome = client
                .send_events(copy, frame_events(&self.inputs.streams, i, next))
                .and_then(|()| client.estimates(copy))
                .map(|e| reads.push((i, e.events, first_bits(&e.queries))));
        }
        if let Err(e) = outcome.and_then(|()| client.close(copy).map(drop)) {
            checks.check(false, || format!("migrated copy: {e}"));
        }
        Ok(())
    }
}

/// Every served session replayed in process, frame by frame: the
/// reference the server's answers must equal bit-for-bit.
struct Twin {
    /// Frames sent to each session.
    frames_of: Vec<usize>,
    /// Estimate bits after each frame, per session.
    bits: Vec<Vec<u64>>,
    events: usize,
    secs: f64,
}

impl Twin {
    /// Replays `frames` global frames, plus however far the checked
    /// reads reached (a migrated copy runs one frame ahead).
    fn replay(
        inputs: &Inputs,
        seed: u64,
        frames: usize,
        reads: &[(usize, u64, u64)],
        tracer: &mut Tracer,
    ) -> Twin {
        let mut frames_of = vec![frames / SESSIONS; SESSIONS];
        for f in &mut frames_of[..frames % SESSIONS] {
            *f += 1;
        }
        let started = Instant::now();
        let mut events = 0;
        let bits = (0..SESSIONS)
            .map(|i| {
                let algorithm = ALGORITHMS[i % ALGORITHMS.len()];
                let mut session =
                    SessionBuilder::new(algorithm, CAPACITY as usize, session_seed(seed, i))
                        .query(Pattern::Triangle)
                        .build();
                let (query, _) = session.queries().next().expect("one query");
                let read_to = reads.iter().filter(|r| r.0 == i).map(|r| r.1 as usize / FRAME).max();
                let upto = frames_of[i].max(read_to.unwrap_or(0)).min(inputs.frames_per_session);
                events += upto * FRAME;
                (0..upto)
                    .map(|j| {
                        session.process_batch(frame_events(&inputs.streams, i, j));
                        session.estimate(query).to_bits()
                    })
                    .collect()
            })
            .collect();
        tracer.record("twin.replay", SpanId::ROOT, 0, started, Instant::now());
        Twin { frames_of, bits, events, secs: started.elapsed().as_secs_f64() }
    }

    /// The twin's estimate bits for session `i` after `events` events.
    fn at(&self, i: usize, events: u64) -> Option<u64> {
        if events == 0 {
            return Some(0f64.to_bits());
        }
        if !events.is_multiple_of(FRAME as u64) {
            return None;
        }
        self.bits[i].get(events as usize / FRAME - 1).copied()
    }
}

/// Runs the served workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> io::Result<Outcome> {
    let mut checks = Checks::default();
    let mut host = HostSpeed::new();
    let mut cache = HostSpeed::in_cache();
    let server_path = std::env::current_exe()?.with_file_name("wsd-serve");
    if !server_path.is_file() {
        return Err(io::Error::other(format!("no server binary at {}", server_path.display())));
    }
    let inputs = inputs(ctx.seed, tracer, &mut checks);

    // Set-up: boot to listening, plus Open/Subscribe of every session.
    // Its cost is the server's CPU time from spawn to populated, when its
    // threads are idle, scaled by the host speed measured right after
    // (it follows that speed, as the engine workloads' timings do). The
    // raw CPU time and the wall time, which adds the host's scheduling
    // of the hand-offs between the server's threads, are printed.
    let mut setup = Vec::with_capacity(BOOTS);
    let (mut setup_raw, mut setup_wall) = (Vec::with_capacity(BOOTS), Vec::with_capacity(BOOTS));
    let mut booted = None;
    for boot in 0..BOOTS {
        let (b, d) = tracer
            .time("setup", SpanId::ROOT, boot as u64, || boot_and_populate(&server_path, ctx.seed));
        let b = b?;
        setup_wall.push(d.as_secs_f64());
        let cpu = b.server.cpu_seconds()?;
        setup_raw.push(cpu);
        setup.push(cpu * host.sample());
        if boot + 1 < BOOTS {
            b.server.stop()?;
        } else {
            booted = Some(b);
        }
    }
    let Booted { server, a, a_reader, b, ids } = booted.expect("BOOTS > 0");
    checks.ops(2 * (SESSIONS * BOOTS) as u64);

    let pushes_seen = Arc::new(AtomicU64::new(0));
    let reader = spawn_reader(
        a_reader,
        Arc::clone(&pushes_seen),
        Tracer::new(ctx.epoch, ctx.trace, 1 << 16),
    );
    let mut gen = Generator {
        inputs: &inputs,
        ids: &ids,
        writer: a,
        client: b,
        pushes_seen,
        sent: Vec::new(),
        reads: Vec::new(),
        read_lat: Vec::new(),
        migrate_lat: Vec::new(),
        migrate_local: Vec::new(),
        bursts: 0,
        migrations: 0,
        round: 0,
        snapshot_decode_s: Vec::new(),
        snapshot_restore_s: Vec::new(),
        snapshot_encode_s: Vec::new(),
        snapshot_bytes: Vec::new(),
        encode_s: 0.0,
        write_s: 0.0,
        frame_bytes: 0,
    };

    // The steps; each fixed step is followed by a migration burst, and
    // every step by slices of both host-speed kernels (the server is
    // idle then).
    let round_s = ctx.seconds / ROUNDS as f64;
    let mut plan: Vec<(Step, usize, f64, f64)> = (0..ROUNDS)
        .flat_map(|round| {
            [
                (Step::Low, round, LOW_RATE, LOW_SHARE * round_s),
                (Step::High, round, HIGH_RATE, (1.0 - LOW_SHARE) * round_s),
            ]
        })
        .collect();
    if ctx.trace {
        let rungs = LADDER.iter().enumerate();
        plan.extend(rungs.map(|(i, &r)| (Step::Rung(i), ROUNDS, r, RUNG_SECS)));
    }
    let mut logs = Vec::with_capacity(plan.len());
    let mut outcome: io::Result<()> = Ok(());
    for &(step, round, rate, secs) in &plan {
        gen.round = round;
        let result = (|| -> io::Result<StepLog> {
            let before = parse_metrics(&gen.client.metrics().map_err(io::Error::other)?);
            let cpu_before = server.cpu_seconds()?;
            let backlog = gen.step(step, rate, secs, tracer, &mut checks)?;
            let after = parse_metrics(&gen.client.metrics().map_err(io::Error::other)?);
            let server_cpu_s = server.cpu_seconds()? - cpu_before;
            if matches!(step, Step::Low | Step::High) {
                gen.burst(tracer, &mut checks)?;
            }
            Ok(StepLog { step, round, server_cpu_s, backlog, before, after })
        })();
        match result {
            Ok(log) => logs.push(log),
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
        let slices: Vec<f64> = (0..HOST_SLICES).map(|_| host.sample()).collect();
        let in_cache: Vec<f64> = (0..HOST_SLICES).map(|_| cache.sample()).collect();
        if let Some(log) = logs.last() {
            let frames = gen.sent.iter().filter(|f| f.step == step && f.round == round).count();
            println!(
                "serve-mixed: round {round} {step:?} at {rate} ev/s: {frames} frames, \
                 server CPU {:.3} s, host speed {:.3} (memory) {:.3} (in-cache)",
                log.server_cpu_s,
                median(&slices),
                median(&in_cache)
            );
        }
    }
    let stats = gen.client.stats().map_err(io::Error::other);
    let server_rss = peak_rss_mb(&server.child.id().to_string());
    let stopped = server.stop();
    let (got, reader_trace) =
        reader.join().map_err(|_| io::Error::other("reader thread panicked"))?;
    tracer.absorb(reader_trace);
    outcome?;
    stopped?;
    let stats = stats?;

    // Correctness: server counters clean; every push, read and migrated
    // read equals the session's twin; one push per frame.
    let sent = &gen.sent;
    checks.ops(sent.len() as u64);
    for u in &got.unexpected {
        checks.check(false, || format!("unexpected frame on the write connection: {u}"));
    }
    checks.check(stats.checkpoints_dropped == 0, || {
        format!("server dropped {} checkpoint pushes", stats.checkpoints_dropped)
    });
    checks.check(stats.sessions_poisoned == 0, || {
        format!("server poisoned {} sessions", stats.sessions_poisoned)
    });
    let twin = Twin::replay(&inputs, ctx.seed, sent.len(), &gen.reads, tracer);
    let index_of: HashMap<u64, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut pushes_of = vec![0usize; SESSIONS];
    let mut latency: Vec<(Step, usize, f64)> = Vec::with_capacity(got.pushes.len());
    for &(session, events, bits, received) in &got.pushes {
        let Some(&i) = index_of.get(&session) else {
            checks.check(false, || format!("push for unknown session {session}"));
            continue;
        };
        pushes_of[i] += 1;
        checks.check(twin.at(i, events) == Some(bits), || {
            format!("push: session {i} at {events} events differs from its twin")
        });
        let g = (events as usize / FRAME).saturating_sub(1) * SESSIONS + i;
        if let Some(f) = sent.get(g) {
            latency.push((f.step, f.round, f.sched.latency(f.k, received)));
        }
    }
    for (i, (&n, &f)) in pushes_of.iter().zip(&twin.frames_of).enumerate() {
        checks.check(n == f, || format!("session {i}: {f} frames sent, {n} pushes"));
    }
    for &(i, events, bits) in &gen.reads {
        checks.check(twin.at(i, events) == Some(bits), || {
            format!("read: session {i} at {events} events differs from its twin")
        });
    }

    // Accuracy of the served sessions against the exact counts, at a
    // fixed point of every session's stream (how far the sessions got
    // depends on the host's speed; this point does not).
    if twin.frames_of.iter().any(|&f| f < ARE_AT_FRAME) {
        return Err(io::Error::other(format!(
            "a session got fewer than {ARE_AT_FRAME} frames; --seconds too small?"
        )));
    }
    let pairs: Vec<(f64, f64)> = (0..SESSIONS)
        .map(|i| {
            let j = ARE_AT_FRAME - 1;
            (f64::from_bits(twin.bits[i][j]), inputs.truth_at[base_of(i)][j] as f64)
        })
        .collect();
    let are_triangle = are(&pairs);

    let lat = |step: Step| sorted(latency.iter().filter(|l| l.0 == step).map(|l| l.2).collect());
    let (low, high) = (lat(Step::Low), lat(Step::High));
    let (reads, migrations) = (sorted(gen.read_lat.clone()), sorted(gen.migrate_lat.clone()));

    // The end-to-end metrics: served events per server CPU second, per
    // round (both steps), and the mean in-process migration time of
    // each burst, both scaled by the in-cache kernel's speed measured
    // right after (see `host`). Burst `b` follows step `b`. The round
    // trips and push latencies, which wait on the host's scheduling of
    // the server's threads, are per-layer metrics.
    let cache_speed = |steps: std::ops::Range<usize>| {
        median(&cache.factors[steps.start * HOST_SLICES..steps.end * HOST_SLICES])
    };
    let per_burst: Vec<f64> = (0..gen.bursts)
        .map(|b| {
            let moves = gen.migrate_local.iter().filter(|m| m.0 == b).map(|m| m.1);
            let (sum, n) = moves.fold((0.0, 0), |(s, n), t| (s + t, n + 1));
            sum / n as f64 * cache_speed(b..b + 1)
        })
        .filter(|mean| mean.is_finite())
        .collect();
    if per_burst.is_empty() {
        return Err(io::Error::other("no migration burst succeeded"));
    }
    let mut per_round = [Vec::new(), Vec::new()];
    let (mut round_speed, mut round_cache) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let f = host.factors[BOOTS..].iter().skip(2 * round * HOST_SLICES).take(2 * HOST_SLICES);
        round_speed.push(median(&f.copied().collect::<Vec<_>>()));
        round_cache.push(cache_speed(2 * round..2 * round + 2));
        let events = (sent.iter().filter(|f| f.round == round).count() * FRAME) as f64;
        let cpu: f64 = logs.iter().filter(|l| l.round == round).map(|l| l.server_cpu_s).sum();
        let push = sorted(
            latency.iter().filter(|l| l.0 == Step::Low && l.1 == round).map(|l| l.2).collect(),
        );
        if push.is_empty() || cpu <= 0.0 {
            return Err(io::Error::other(format!(
                "round {round} produced no samples; --seconds too small?"
            )));
        }
        per_round[0].push(events / (cpu * round_cache[round]));
        per_round[1].push(percentile(&push, 0.5));
    }
    if high.is_empty() || reads.is_empty() || migrations.is_empty() {
        return Err(io::Error::other("a step produced no samples; --seconds too small?"));
    }
    let speed = median(&host.factors);
    println!(
        "serve-mixed: {SESSIONS} sessions, {} frames, {} checked reads, {} migrations under \
         load and {} in bursts, ARE at frame {ARE_AT_FRAME} {are_triangle:.4}",
        sent.len(),
        gen.reads.len(),
        migrations.len(),
        gen.migrate_local.len()
    );
    println!(
        "serve-mixed: set-up of {BOOTS} boots: server CPU {}, scaled {}, wall {}",
        describe(&sorted(setup_raw), 1e3, "ms"),
        describe(&sorted(setup.clone()), 1e3, "ms"),
        describe(&sorted(setup_wall), 1e3, "ms")
    );
    println!("serve-mixed: push latency at {LOW_RATE} ev/s: {}", describe(&low, 1e3, "ms"));
    println!("serve-mixed: push latency at {HIGH_RATE} ev/s: {}", describe(&high, 1e3, "ms"));
    println!("serve-mixed: Estimates round trip: {}", describe(&reads, 1e3, "ms"));
    println!("serve-mixed: Snapshot → Restore round trip: {}", describe(&migrations, 1e3, "ms"));
    println!(
        "serve-mixed: per round: scaled events per server CPU second {:.0?}, push p50 at \
         {LOW_RATE} ev/s {:.1?} us; per burst: scaled in-process migration {:.3?} ms",
        per_round[0],
        per_round[1].iter().map(|s| s * 1e6).collect::<Vec<_>>(),
        per_burst.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    );
    println!(
        "serve-mixed: per round host speed {round_speed:.3?} (memory), {round_cache:.3?} \
         (in-cache); over the run {} (memory)",
        describe(&sorted(host.factors.clone()), 1.0, "")
    );

    let mut m: Vec<(&'static str, f64)> = Vec::new();
    if !ctx.trace {
        // Medians over the boots, rounds and bursts.
        m.push(("setup_s", median(&setup)));
        m.push(("events_per_cpu_s", median(&per_round[0])));
        m.push(("migrate_ms", median(&per_burst) * 1e3));
        m.push(("peak_rss_mb", server_rss));
        return Ok(Outcome { metrics: m, checks });
    }

    // Per-layer split, from the server's metrics dump around each step.
    let delta = |step: Option<Step>, kind: &str| {
        logs.iter()
            .filter(|l| step.is_none_or(|s| l.step == s))
            .map(|l| apply_delta(l, kind))
            .fold((0.0, 0.0), |acc, d| (acc.0 + d.0, acc.1 + d.1))
    };
    let mean_us = |(us, n): (f64, f64)| if n > 0.0 { us / n } else { 0.0 };
    let kinds = [
        "open",
        "restore",
        "events",
        "estimates",
        "attach",
        "detach",
        "snapshot",
        "subscribe",
        "flush",
        "close",
        "swap_policy",
    ];
    let shard_busy_us: f64 = kinds.iter().map(|k| delta(None, k).0).sum();
    let events_apply_low = mean_us(delta(Some(Step::Low), "events"));
    let stalls_of =
        |m: &HashMap<String, f64>| m.get("ring_full_stalls_total").copied().unwrap_or(0.0);
    let stalls: f64 = logs.iter().map(|l| stalls_of(&l.after) - stalls_of(&l.before)).sum();
    let lag_low = sorted(
        sent.iter().filter(|f| f.step == Step::Low).map(|f| f.sched.lag(f.k, f.sent)).collect(),
    );
    let backlog_high = logs
        .iter()
        .filter(|l| l.step == Step::High)
        .flat_map(|l| l.backlog.iter().map(|s| s.1))
        .fold(0.0, f64::max);
    // The ladder: the highest rung with push p99 under the limit and a
    // backlog that does not grow.
    let mut sustained = 0.0;
    for (r, &rate) in LADDER.iter().enumerate() {
        let l = lat(Step::Rung(r));
        let p99 = supported_percentile(&l, 0.99, MIN_BEYOND);
        let grows = logs
            .iter()
            .any(|g| g.step == Step::Rung(r) && backlog_grows(&g.backlog, BACKLOG_SLACK));
        let ok = p99.is_some_and(|p| p < P99_LIMIT_S) && !grows;
        println!(
            "serve-mixed: rung {rate} ev/s: push {}, backlog {}: {}",
            describe(&l, 1e3, "ms"),
            if grows { "grows" } else { "flat" },
            if ok { "sustained" } else { "not sustained" }
        );
        if ok {
            sustained = rate;
        }
    }
    let tail = |s: &[f64]| supported_percentile(s, 0.99, MIN_BEYOND).map_or(f64::NAN, |v| v * 1e3);
    m.push(("gen.busy_s", inputs.gen_s));
    m.push(("exact.busy_s", inputs.exact_s));
    m.push(("exact.instances", inputs.instances as f64));
    m.push(("snapshot.encode_s", median(&gen.snapshot_encode_s)));
    m.push(("snapshot.decode_s", median(&gen.snapshot_decode_s)));
    m.push(("snapshot.restore_s", median(&gen.snapshot_restore_s)));
    m.push(("snapshot.bytes", median(&gen.snapshot_bytes)));
    m.push(("are_triangle", are_triangle));
    m.push(("protocol.encode_s", gen.encode_s));
    m.push(("protocol.decode_s", got.decode_s));
    m.push(("protocol.bytes_per_event", gen.frame_bytes as f64 / (sent.len() * FRAME) as f64));
    m.push(("client.write_busy_s", gen.write_s));
    m.push(("client.read_p50_us", percentile(&reads, 0.5) * 1e6));
    m.push(("client.migrate_p50_ms", percentile(&migrations, 0.5) * 1e3));
    m.push(("shard.events_apply_us", events_apply_low));
    m.push(("shard.busy_s", shard_busy_us * 1e-6));
    m.push(("shard.estimates_apply_us", mean_us(delta(Some(Step::Low), "estimates"))));
    m.push(("shard.snapshot_apply_us", mean_us(delta(Some(Step::Low), "snapshot"))));
    m.push(("shard.restore_apply_us", mean_us(delta(Some(Step::Low), "restore"))));
    m.push(("transit.p50_ms", percentile(&low, 0.5) * 1e3 - events_apply_low * 1e-3));
    m.push(("push_p50_ms.low", percentile(&low, 0.5) * 1e3));
    m.push(("push_p50_ms.high", percentile(&high, 0.5) * 1e3));
    m.push(("push_p99_ms.low", tail(&low)));
    m.push(("push_p99_ms.high", tail(&high)));
    m.push(("ring.stalls", stalls));
    m.push(("server.checkpoints_dropped", stats.checkpoints_dropped as f64));
    m.push(("server.backlog_events_max", backlog_high));
    m.push(("sustained_events_per_s", sustained));
    m.push(("loadgen.lag_p99_ms", percentile(&lag_low, 0.99) * 1e3));
    m.push(("loadgen.lag_max_ms", lag_low.last().copied().unwrap_or(0.0) * 1e3));
    m.push(("twin.events_per_s", twin.events as f64 / twin.secs));
    m.push(("trace.overhead", span_overhead(tracer, gen.write_s + gen.encode_s)));
    m.push(("host.speed", speed));
    Ok(Outcome { metrics: m, checks })
}

/// Tracing overhead of the served run: the recording cost of every
/// span the generator took, as a share of its busy time. The per-span
/// cost is calibrated on the spot.
fn span_overhead(tracer: &Tracer, busy_s: f64) -> f64 {
    const CAL: u64 = 100_000;
    let mut cal = Tracer::new(Instant::now(), true, CAL as usize);
    let started = Instant::now();
    for i in 0..CAL {
        cal.time("calibrate", SpanId::ROOT, i, || ());
    }
    let per_span = started.elapsed().as_secs_f64() / CAL as f64;
    tracer.spans().len() as f64 * per_span / busy_s
}
