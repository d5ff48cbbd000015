//! Session snapshot/restore: serialize a [`StreamSession`]'s complete
//! sampler and query state into a self-contained byte blob, and rebuild
//! a session from one that is **bit-identical going forward** — for
//! every subsequent event the restored session produces the exact same
//! estimate bits, reservoir slot orders, and RNG draws as the
//! uninterrupted original (pinned by the `snapshot_equivalence`
//! differential suite).
//!
//! # What is (and is not) serialized
//!
//! A snapshot carries the *builder configuration* (algorithm, budget,
//! seed, pooling, WRS fraction, resolved weight pattern, mass kernel,
//! layered toggle, optional learned policy) plus the *dynamic state*:
//! the attached queries' estimators, the rank heap in **verbatim slot
//! order** (heap layout is observable — tie-breaking and sift order
//! depend on it), the sampled adjacency as a canonical
//! [`AdjacencyLayout`] (verbatim per-vertex slot order, arena free list,
//! ID bound), per-edge weight/time metadata, algorithm-specific
//! bookkeeping (GPS-A item tables, the WRS waiting room with its ghost
//! entries and spill horizon), and the sampler RNG's xoshiro256++ words.
//!
//! Pure caches are **not** serialized: the τ-epoch `1/p` cache, sorted
//! intersection shadows, and spill hash indices are rebuilt lazily (or
//! re-attached from current degrees) on restore — they affect probe
//! strategy and speed, never emission order, so estimates stay
//! bit-identical.
//!
//! The encoding is a fixed little-endian byte format behind
//! [`ByteWriter`]/[`ByteReader`] (no serde in this workspace); floats
//! travel as raw IEEE-754 bits so round-trips are exact.
//!
//! [`StreamSession`]: crate::session::StreamSession
//! [`AdjacencyLayout`]: wsd_graph::AdjacencyLayout

use crate::config::Algorithm;
use crate::estimator::MassKernel;
use crate::state::TemporalPooling;
use crate::weight::{FeatureNorm, LinearPolicy};
use wsd_graph::{AdjacencyLayout, Edge, EdgeId, Pattern};

/// Magic bytes opening every encoded snapshot.
const MAGIC: &[u8; 4] = b"WSDS";
/// Encoding version (bump on any layout change).
const VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Decoding failure for a snapshot (or any [`ByteReader`] stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the value being read was complete.
    Truncated,
    /// The input does not open with the snapshot magic/version header.
    BadHeader,
    /// A tag byte holds a value outside its enum's range.
    BadTag(&'static str),
    /// Decoded values violate a structural invariant.
    Invalid(&'static str),
    /// Trailing bytes remained after the final field.
    TrailingBytes,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadHeader => write!(f, "not a snapshot (bad magic or version)"),
            SnapshotError::BadTag(what) => write!(f, "invalid tag for {what}"),
            SnapshotError::Invalid(what) => write!(f, "invariant violation: {what}"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------

/// Little-endian byte sink for the snapshot (and wire) encodings.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Starts an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes the writer, yielding the encoded bytes followed by the
    /// 8-byte little-endian FNV-1a-64 checksum of them — the trailer
    /// [`ByteReader::unseal`] verifies.
    pub fn into_sealed_bytes(self) -> Vec<u8> {
        let mut bytes = self.buf;
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a collection length as `u64`.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }
}

/// Little-endian byte source mirroring [`ByteWriter`].
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Verifies the checksum trailer of a blob written by
    /// [`ByteWriter::into_sealed_bytes`] and reads the content before it.
    pub fn unseal(sealed: &'a [u8]) -> Result<Self, SealError> {
        let split = sealed.len().checked_sub(8).ok_or(SealError::TooShort)?;
        let (content, trailer) = sealed.split_at(split);
        let found = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        let expected = fnv1a64(content);
        if found != expected {
            return Err(SealError::Mismatch { expected, found });
        }
        Ok(Self::new(content))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte, rejecting values other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::BadTag("bool")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a collection length, bounded by the remaining input so a
    /// corrupt length cannot trigger a huge allocation.
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.get_u64()?;
        // Every element of every encoded collection occupies ≥ 1 byte.
        if n > self.remaining() as u64 {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    /// Asserts the input was consumed exactly.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }
}

/// Why [`ByteReader::unseal`] rejected a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The blob is shorter than the 8-byte checksum trailer.
    TooShort,
    /// The trailer does not match the content — a torn or bit-flipped
    /// blob.
    Mismatch {
        /// Checksum recomputed from the content.
        expected: u64,
        /// Checksum stored in the trailer.
        found: u64,
    },
}

/// FNV-1a, 64-bit: tiny, dependency-free corruption detection. This is
/// an integrity check against torn writes and bit rot, not an
/// authentication mechanism.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------
// Leaf encoders
// ---------------------------------------------------------------------

fn put_pattern(w: &mut ByteWriter, p: Pattern) {
    match p {
        Pattern::Wedge => w.put_u8(0),
        Pattern::Triangle => w.put_u8(1),
        Pattern::FourClique => w.put_u8(2),
        Pattern::Clique(k) => {
            w.put_u8(3);
            w.put_u8(k);
        }
    }
}

fn get_pattern(r: &mut ByteReader<'_>) -> Result<Pattern, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => Pattern::Wedge,
        1 => Pattern::Triangle,
        2 => Pattern::FourClique,
        3 => Pattern::Clique(r.get_u8()?),
        _ => return Err(SnapshotError::BadTag("pattern")),
    })
}

fn put_edge(w: &mut ByteWriter, e: Edge) {
    w.put_u64(e.u());
    w.put_u64(e.v());
}

fn get_edge(r: &mut ByteReader<'_>) -> Result<Edge, SnapshotError> {
    let u = r.get_u64()?;
    let v = r.get_u64()?;
    Edge::try_new(u, v).ok_or(SnapshotError::Invalid("self-loop edge"))
}

fn put_rng(w: &mut ByteWriter, s: [u64; 4]) {
    for word in s {
        w.put_u64(word);
    }
}

fn get_rng(r: &mut ByteReader<'_>) -> Result<[u64; 4], SnapshotError> {
    Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
}

fn put_layout(w: &mut ByteWriter, layout: &AdjacencyLayout) {
    w.put_len(layout.vertices.len());
    for (u, slots) in &layout.vertices {
        w.put_u64(*u);
        w.put_len(slots.len());
        for &(v, id) in slots {
            w.put_u64(v);
            w.put_u32(id);
        }
    }
    w.put_len(layout.free.len());
    for &id in &layout.free {
        w.put_u32(id);
    }
    w.put_u32(layout.id_bound);
}

fn get_layout(r: &mut ByteReader<'_>) -> Result<AdjacencyLayout, SnapshotError> {
    let nv = r.get_len()?;
    let mut vertices = Vec::with_capacity(nv);
    for _ in 0..nv {
        let u = r.get_u64()?;
        let ns = r.get_len()?;
        let mut slots = Vec::with_capacity(ns);
        for _ in 0..ns {
            let v = r.get_u64()?;
            let id = r.get_u32()?;
            slots.push((v, id));
        }
        vertices.push((u, slots));
    }
    let nf = r.get_len()?;
    let mut free = Vec::with_capacity(nf);
    for _ in 0..nf {
        free.push(r.get_u32()?);
    }
    let id_bound = r.get_u32()?;
    Ok(AdjacencyLayout { vertices, free, id_bound })
}

fn put_heap(w: &mut ByteWriter, slots: &[(u32, f64)]) {
    w.put_len(slots.len());
    for &(key, rank) in slots {
        w.put_u32(key);
        w.put_f64(rank);
    }
}

fn get_heap(r: &mut ByteReader<'_>) -> Result<Vec<(u32, f64)>, SnapshotError> {
    let n = r.get_len()?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.get_u32()?;
        let rank = r.get_f64()?;
        slots.push((key, rank));
    }
    Ok(slots)
}

// ---------------------------------------------------------------------
// State structs
// ---------------------------------------------------------------------

/// The weighted sampled graph's dynamic state: canonical adjacency
/// layout plus per-arena-ID `(weight, time)` metadata, sorted by ID.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedSampleState {
    /// Canonical adjacency layout (see
    /// [`wsd_graph::AdjacencyBase::layout_snapshot`]).
    pub layout: AdjacencyLayout,
    /// `(edge id, weight, insertion time)` per live edge, sorted by ID.
    pub meta: Vec<(EdgeId, f64, u64)>,
}

impl WeightedSampleState {
    fn encode(&self, w: &mut ByteWriter) {
        put_layout(w, &self.layout);
        w.put_len(self.meta.len());
        for &(id, weight, time) in &self.meta {
            w.put_u32(id);
            w.put_f64(weight);
            w.put_u64(time);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let layout = get_layout(r)?;
        let n = r.get_len()?;
        let mut meta = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.get_u32()?;
            let weight = r.get_f64()?;
            let time = r.get_u64()?;
            meta.push((id, weight, time));
        }
        Ok(Self { layout, meta })
    }
}

/// The uniform random-pairing reservoir's dynamic state: edges in
/// **verbatim slot order** (the uniform victim draw indexes slots) plus
/// the RP compensation counters and live population.
#[derive(Clone, Debug, PartialEq)]
pub struct RpState {
    /// Reservoir edges in slot order.
    pub edges: Vec<Edge>,
    /// Uncompensated deletions of sampled edges.
    pub d_in: u64,
    /// Uncompensated deletions of unsampled edges.
    pub d_out: u64,
    /// Live-edge population `|E(t)|`.
    pub population: u64,
}

impl RpState {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.edges.len());
        for &e in &self.edges {
            put_edge(w, e);
        }
        w.put_u64(self.d_in);
        w.put_u64(self.d_out);
        w.put_u64(self.population);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            edges.push(get_edge(r)?);
        }
        let d_in = r.get_u64()?;
        let d_out = r.get_u64()?;
        let population = r.get_u64()?;
        Ok(Self { edges, d_in, d_out, population })
    }
}

/// Algorithm-specific sampler state — everything a freshly built
/// sampler skeleton needs overwritten to resume the original's
/// trajectory bit-for-bit.
///
/// Heaps and reservoirs travel in **verbatim slot order** (layout is
/// observable through tie-breaking, sifting, and victim draws); the
/// GPS-A item tables and WRS room-sequence stamps travel verbatim
/// *including stale entries*, because canonical snapshot bytes of the
/// original and a restored twin must stay comparable after further
/// events.
#[derive(Clone, Debug, PartialEq)]
pub enum SamplerState {
    /// WSD (all three weight variants): rank heap keyed by arena edge
    /// ID, weighted sample, the two thresholds, event clock, RNG.
    Wsd {
        /// Heap `(edge id, rank)` in verbatim slot order.
        heap: Vec<(u32, f64)>,
        /// The weighted sampled graph.
        sample: WeightedSampleState,
        /// Eviction threshold `τ_p`.
        tau_p: f64,
        /// Deletion-compensation threshold `τ_q`.
        tau_q: f64,
        /// Event clock.
        t: u64,
        /// xoshiro256++ state words.
        rng: [u64; 4],
    },
    /// GPS (insertion-only): rank heap, weighted sample, threshold `z`,
    /// event clock, RNG.
    Gps {
        /// Heap `(edge id, rank)` in verbatim slot order.
        heap: Vec<(u32, f64)>,
        /// The weighted sampled graph.
        sample: WeightedSampleState,
        /// Threshold `z = r_{M+1}`.
        z: f64,
        /// Event clock.
        t: u64,
        /// xoshiro256++ state words.
        rng: [u64; 4],
    },
    /// GPS-A: rank heap keyed by recycled item ID, the item tables
    /// (verbatim, stale entries included), weighted sample of the live
    /// edges, threshold, clock, RNG.
    GpsA {
        /// Heap `(item id, rank)` in verbatim slot order.
        heap: Vec<(u32, f64)>,
        /// Edge behind each item ID (verbatim, stale slots included).
        item_edge: Vec<Edge>,
        /// Live flag per item ID (verbatim).
        item_live: Vec<bool>,
        /// Free item IDs awaiting recycling (verbatim LIFO order).
        free_items: Vec<u32>,
        /// Item behind each arena edge ID (verbatim, stale slots
        /// included).
        edge_item: Vec<u32>,
        /// The weighted sampled graph (live edges only).
        sample: WeightedSampleState,
        /// Threshold `z = r_{M+1}`.
        z: f64,
        /// Event clock.
        t: u64,
        /// xoshiro256++ state words.
        rng: [u64; 4],
    },
    /// Triest-FD / ThinkD: uniform RP reservoir, sampled adjacency, RNG.
    Rp {
        /// The random-pairing reservoir.
        reservoir: RpState,
        /// Sampled adjacency (ID-free layout; `id_bound == 0`).
        adj: AdjacencyLayout,
        /// xoshiro256++ state words.
        rng: [u64; 4],
    },
    /// WRS: waiting room (FIFO with ghosts + sequence stamps + spill
    /// horizon), RP reservoir part, combined sampled adjacency, RNG.
    Wrs {
        /// FIFO `(edge, admission sequence)` entries, ghosts included.
        room_fifo: Vec<(Edge, u64)>,
        /// Room-epoch stamps per arena edge ID (verbatim, stale slots
        /// included).
        room_seq: Vec<u64>,
        /// Live waiting-room occupancy.
        room_len: u64,
        /// Next admission sequence number.
        next_seq: u64,
        /// Sequence of the most recently spilled room edge.
        spill_horizon: u64,
        /// The reservoir part.
        reservoir: RpState,
        /// Adjacency over waiting room ∪ reservoir (arena-tracked).
        adj: AdjacencyLayout,
        /// xoshiro256++ state words.
        rng: [u64; 4],
    },
}

impl SamplerState {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            SamplerState::Wsd { heap, sample, tau_p, tau_q, t, rng } => {
                w.put_u8(0);
                put_heap(w, heap);
                sample.encode(w);
                w.put_f64(*tau_p);
                w.put_f64(*tau_q);
                w.put_u64(*t);
                put_rng(w, *rng);
            }
            SamplerState::Gps { heap, sample, z, t, rng } => {
                w.put_u8(1);
                put_heap(w, heap);
                sample.encode(w);
                w.put_f64(*z);
                w.put_u64(*t);
                put_rng(w, *rng);
            }
            SamplerState::GpsA {
                heap,
                item_edge,
                item_live,
                free_items,
                edge_item,
                sample,
                z,
                t,
                rng,
            } => {
                w.put_u8(2);
                put_heap(w, heap);
                w.put_len(item_edge.len());
                for &e in item_edge {
                    put_edge(w, e);
                }
                w.put_len(item_live.len());
                for &live in item_live {
                    w.put_bool(live);
                }
                w.put_len(free_items.len());
                for &i in free_items {
                    w.put_u32(i);
                }
                w.put_len(edge_item.len());
                for &i in edge_item {
                    w.put_u32(i);
                }
                sample.encode(w);
                w.put_f64(*z);
                w.put_u64(*t);
                put_rng(w, *rng);
            }
            SamplerState::Rp { reservoir, adj, rng } => {
                w.put_u8(3);
                reservoir.encode(w);
                put_layout(w, adj);
                put_rng(w, *rng);
            }
            SamplerState::Wrs {
                room_fifo,
                room_seq,
                room_len,
                next_seq,
                spill_horizon,
                reservoir,
                adj,
                rng,
            } => {
                w.put_u8(4);
                w.put_len(room_fifo.len());
                for &(e, seq) in room_fifo {
                    put_edge(w, e);
                    w.put_u64(seq);
                }
                w.put_len(room_seq.len());
                for &seq in room_seq {
                    w.put_u64(seq);
                }
                w.put_u64(*room_len);
                w.put_u64(*next_seq);
                w.put_u64(*spill_horizon);
                reservoir.encode(w);
                put_layout(w, adj);
                put_rng(w, *rng);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.get_u8()? {
            0 => SamplerState::Wsd {
                heap: get_heap(r)?,
                sample: WeightedSampleState::decode(r)?,
                tau_p: r.get_f64()?,
                tau_q: r.get_f64()?,
                t: r.get_u64()?,
                rng: get_rng(r)?,
            },
            1 => SamplerState::Gps {
                heap: get_heap(r)?,
                sample: WeightedSampleState::decode(r)?,
                z: r.get_f64()?,
                t: r.get_u64()?,
                rng: get_rng(r)?,
            },
            2 => {
                let heap = get_heap(r)?;
                let n = r.get_len()?;
                let mut item_edge = Vec::with_capacity(n);
                for _ in 0..n {
                    item_edge.push(get_edge(r)?);
                }
                let n = r.get_len()?;
                let mut item_live = Vec::with_capacity(n);
                for _ in 0..n {
                    item_live.push(r.get_bool()?);
                }
                let n = r.get_len()?;
                let mut free_items = Vec::with_capacity(n);
                for _ in 0..n {
                    free_items.push(r.get_u32()?);
                }
                let n = r.get_len()?;
                let mut edge_item = Vec::with_capacity(n);
                for _ in 0..n {
                    edge_item.push(r.get_u32()?);
                }
                SamplerState::GpsA {
                    heap,
                    item_edge,
                    item_live,
                    free_items,
                    edge_item,
                    sample: WeightedSampleState::decode(r)?,
                    z: r.get_f64()?,
                    t: r.get_u64()?,
                    rng: get_rng(r)?,
                }
            }
            3 => SamplerState::Rp {
                reservoir: RpState::decode(r)?,
                adj: get_layout(r)?,
                rng: get_rng(r)?,
            },
            4 => {
                let n = r.get_len()?;
                let mut room_fifo = Vec::with_capacity(n);
                for _ in 0..n {
                    let e = get_edge(r)?;
                    let seq = r.get_u64()?;
                    room_fifo.push((e, seq));
                }
                let n = r.get_len()?;
                let mut room_seq = Vec::with_capacity(n);
                for _ in 0..n {
                    room_seq.push(r.get_u64()?);
                }
                SamplerState::Wrs {
                    room_fifo,
                    room_seq,
                    room_len: r.get_u64()?,
                    next_seq: r.get_u64()?,
                    spill_horizon: r.get_u64()?,
                    reservoir: RpState::decode(r)?,
                    adj: get_layout(r)?,
                    rng: get_rng(r)?,
                }
            }
            _ => return Err(SnapshotError::BadTag("sampler state")),
        })
    }
}

// ---------------------------------------------------------------------
// Session-level snapshot
// ---------------------------------------------------------------------

/// The builder configuration a snapshot carries — enough to rebuild the
/// sampler skeleton (weight function, capacities, kernels) before the
/// dynamic [`SamplerState`] is overlaid.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionConfig {
    /// Sampling algorithm.
    pub algorithm: Algorithm,
    /// Memory budget `M` (edges).
    pub capacity: u64,
    /// Original RNG seed (informational once the RNG words are
    /// restored; kept so a restored session's config reads true).
    pub seed: u64,
    /// Temporal pooling of the WSD-L state.
    pub pooling: TemporalPooling,
    /// WRS waiting-room fraction.
    pub wrs_fraction: f64,
    /// Estimator mass kernel (both kernels exist under every build
    /// config and are bit-identical, so this round-trips faithfully).
    pub mass_kernel: MassKernel,
    /// The *resolved* weight pattern of the weighted samplers; `None`
    /// only for uniform algorithms built without any query.
    pub weight_pattern: Option<Pattern>,
    /// Layered (shared) enumeration toggle.
    pub layered: bool,
    /// Learned policy (WSD-L), as `(w, b, mean, std)`.
    pub policy: Option<LinearPolicy>,
}

impl SessionConfig {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self.algorithm {
            Algorithm::WsdL => 0,
            Algorithm::WsdH => 1,
            Algorithm::WsdUniform => 2,
            Algorithm::GpsA => 3,
            Algorithm::Gps => 4,
            Algorithm::Triest => 5,
            Algorithm::ThinkD => 6,
            Algorithm::Wrs => 7,
        });
        w.put_u64(self.capacity);
        w.put_u64(self.seed);
        w.put_u8(match self.pooling {
            TemporalPooling::Max => 0,
            TemporalPooling::Avg => 1,
        });
        w.put_f64(self.wrs_fraction);
        w.put_u8(match self.mass_kernel {
            MassKernel::Scalar => 0,
            MassKernel::Lanes => 1,
        });
        match self.weight_pattern {
            None => w.put_u8(0),
            Some(p) => {
                w.put_u8(1);
                put_pattern(w, p);
            }
        }
        w.put_bool(self.layered);
        match &self.policy {
            None => w.put_u8(0),
            Some(policy) => {
                w.put_u8(1);
                w.put_len(policy.w.len());
                for &x in &policy.w {
                    w.put_f64(x);
                }
                w.put_f64(policy.b);
                for xs in [policy.norm.mean(), policy.norm.std()] {
                    w.put_len(xs.len());
                    for &x in xs {
                        w.put_f64(x);
                    }
                }
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let algorithm = match r.get_u8()? {
            0 => Algorithm::WsdL,
            1 => Algorithm::WsdH,
            2 => Algorithm::WsdUniform,
            3 => Algorithm::GpsA,
            4 => Algorithm::Gps,
            5 => Algorithm::Triest,
            6 => Algorithm::ThinkD,
            7 => Algorithm::Wrs,
            _ => return Err(SnapshotError::BadTag("algorithm")),
        };
        let capacity = r.get_u64()?;
        let seed = r.get_u64()?;
        let pooling = match r.get_u8()? {
            0 => TemporalPooling::Max,
            1 => TemporalPooling::Avg,
            _ => return Err(SnapshotError::BadTag("pooling")),
        };
        let wrs_fraction = r.get_f64()?;
        let mass_kernel = match r.get_u8()? {
            0 => MassKernel::Scalar,
            1 => MassKernel::Lanes,
            _ => return Err(SnapshotError::BadTag("mass kernel")),
        };
        let weight_pattern = match r.get_u8()? {
            0 => None,
            1 => Some(get_pattern(r)?),
            _ => return Err(SnapshotError::BadTag("weight pattern option")),
        };
        let layered = r.get_bool()?;
        let policy = match r.get_u8()? {
            0 => None,
            1 => {
                let n = r.get_len()?;
                let mut weights = Vec::with_capacity(n);
                for _ in 0..n {
                    weights.push(r.get_f64()?);
                }
                let b = r.get_f64()?;
                let mut mean_std = [Vec::new(), Vec::new()];
                for xs in &mut mean_std {
                    let n = r.get_len()?;
                    xs.reserve(n);
                    for _ in 0..n {
                        xs.push(r.get_f64()?);
                    }
                }
                let [mean, std] = mean_std;
                if mean.len() != weights.len() || std.len() != weights.len() {
                    return Err(SnapshotError::Invalid("policy dimension mismatch"));
                }
                Some(LinearPolicy::new(weights, b, FeatureNorm::new(mean, std)))
            }
            _ => return Err(SnapshotError::BadTag("policy option")),
        };
        Ok(Self {
            algorithm,
            capacity,
            seed,
            pooling,
            wrs_fraction,
            mass_kernel,
            weight_pattern,
            layered,
            policy,
        })
    }
}

/// One attached query's estimator state.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySnapshot {
    /// The counted pattern.
    pub pattern: Pattern,
    /// Running weighted estimate (weighted samplers, ThinkD, WRS).
    pub estimate: f64,
    /// In-sample instance counter τ (Triest).
    pub tau: i64,
}

/// A complete, self-contained session snapshot.
///
/// Produced by [`StreamSession::snapshot`]; consumed by
/// [`StreamSession::restore`]. [`SessionSnapshot::encode`] /
/// [`SessionSnapshot::decode`] round-trip it through bytes exactly
/// (floats travel as raw bits).
///
/// [`StreamSession::snapshot`]: crate::session::StreamSession::snapshot
/// [`StreamSession::restore`]: crate::session::StreamSession::restore
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSnapshot {
    /// Builder configuration (rebuilds the sampler skeleton).
    pub config: SessionConfig,
    /// Events processed so far.
    pub events: u64,
    /// Attached queries in attachment order.
    pub queries: Vec<QuerySnapshot>,
    /// Handle table: `handles[i]` is the query index behind handle `i`
    /// (`None` for detached handles, which stay retired after restore).
    pub handles: Vec<Option<u32>>,
    /// Algorithm-specific sampler state.
    pub sampler: SamplerState,
}

impl SessionSnapshot {
    /// Serializes the snapshot into a self-contained byte blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        w.put_u32(VERSION);
        self.config.encode(&mut w);
        w.put_u64(self.events);
        w.put_len(self.queries.len());
        for q in &self.queries {
            put_pattern(&mut w, q.pattern);
            w.put_f64(q.estimate);
            w.put_i64(q.tau);
        }
        w.put_len(self.handles.len());
        for h in &self.handles {
            match h {
                None => w.put_u8(0),
                Some(q) => {
                    w.put_u8(1);
                    w.put_u32(*q);
                }
            }
        }
        self.sampler.encode(&mut w);
        w.into_bytes()
    }

    /// Deserializes a snapshot produced by [`SessionSnapshot::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != MAGIC || r.get_u32()? != VERSION {
            return Err(SnapshotError::BadHeader);
        }
        let config = SessionConfig::decode(&mut r)?;
        let events = r.get_u64()?;
        let nq = r.get_len()?;
        let mut queries = Vec::with_capacity(nq);
        for _ in 0..nq {
            let pattern = get_pattern(&mut r)?;
            let estimate = r.get_f64()?;
            let tau = r.get_i64()?;
            queries.push(QuerySnapshot { pattern, estimate, tau });
        }
        let nh = r.get_len()?;
        let mut handles = Vec::with_capacity(nh);
        for _ in 0..nh {
            handles.push(match r.get_u8()? {
                0 => None,
                1 => Some(r.get_u32()?),
                _ => return Err(SnapshotError::BadTag("handle option")),
            });
        }
        let snapshot =
            Self { config, events, queries, handles, sampler: SamplerState::decode(&mut r)? };
        r.finish()?;
        for h in snapshot.handles.iter().flatten() {
            if *h as usize >= snapshot.queries.len() {
                return Err(SnapshotError::Invalid("handle points past the query table"));
            }
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> WeightedSampleState {
        WeightedSampleState {
            layout: AdjacencyLayout {
                vertices: vec![(1, vec![(2, 0), (3, 1)]), (2, vec![(1, 0)]), (3, vec![(1, 1)])],
                free: vec![2],
                id_bound: 3,
            },
            meta: vec![(0, 1.5, 7), (1, 9.0, 11)],
        }
    }

    fn snapshot_for(sampler: SamplerState) -> SessionSnapshot {
        SessionSnapshot {
            config: SessionConfig {
                algorithm: Algorithm::WsdH,
                capacity: 64,
                seed: 42,
                pooling: TemporalPooling::Max,
                wrs_fraction: 0.1,
                mass_kernel: MassKernel::Scalar,
                weight_pattern: Some(Pattern::Triangle),
                layered: true,
                policy: None,
            },
            events: 123,
            queries: vec![
                QuerySnapshot { pattern: Pattern::Triangle, estimate: 4.25, tau: 0 },
                QuerySnapshot { pattern: Pattern::Clique(5), estimate: 0.0, tau: -3 },
            ],
            handles: vec![Some(0), None, Some(1)],
            sampler,
        }
    }

    #[test]
    fn round_trips_every_sampler_variant() {
        let rp = RpState {
            edges: vec![Edge::new(4, 5), Edge::new(1, 9)],
            d_in: 2,
            d_out: 3,
            population: 17,
        };
        let variants = vec![
            SamplerState::Wsd {
                heap: vec![(0, 2.5), (1, 3.75)],
                sample: sample_state(),
                tau_p: 1.25,
                tau_q: 0.5,
                t: 99,
                rng: [1, 2, 3, 4],
            },
            SamplerState::Gps {
                heap: vec![(1, 0.25)],
                sample: sample_state(),
                z: 8.0,
                t: 7,
                rng: [5, 6, 7, 8],
            },
            SamplerState::GpsA {
                heap: vec![(2, 1.0)],
                item_edge: vec![Edge::new(1, 2), Edge::new(3, 4), Edge::new(5, 6)],
                item_live: vec![true, false, true],
                free_items: vec![1],
                edge_item: vec![0, 2],
                sample: sample_state(),
                z: 2.0,
                t: 31,
                rng: [9, 10, 11, 12],
            },
            SamplerState::Rp {
                reservoir: rp.clone(),
                adj: AdjacencyLayout {
                    vertices: vec![(4, vec![(5, 0)]), (5, vec![(4, 0)])],
                    free: vec![],
                    id_bound: 0,
                },
                rng: [13, 14, 15, 16],
            },
            SamplerState::Wrs {
                room_fifo: vec![(Edge::new(2, 8), 4), (Edge::new(2, 9), 5)],
                room_seq: vec![0, 4, 5],
                room_len: 2,
                next_seq: 6,
                spill_horizon: 3,
                reservoir: rp,
                adj: AdjacencyLayout {
                    vertices: vec![(2, vec![(8, 1), (9, 2)]), (8, vec![(2, 1)]), (9, vec![(2, 2)])],
                    free: vec![0],
                    id_bound: 3,
                },
                rng: [17, 18, 19, 20],
            },
        ];
        for sampler in variants {
            let snap = snapshot_for(sampler);
            let bytes = snap.encode();
            let back = SessionSnapshot::decode(&bytes).expect("decode");
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn round_trips_policy_and_special_floats() {
        let mut snap = snapshot_for(SamplerState::Gps {
            heap: vec![],
            sample: WeightedSampleState {
                layout: AdjacencyLayout { vertices: vec![], free: vec![], id_bound: 0 },
                meta: vec![],
            },
            z: f64::MIN_POSITIVE,
            t: 0,
            rng: [0, 0, 0, u64::MAX],
        });
        snap.config.algorithm = Algorithm::WsdL;
        snap.config.policy = Some(LinearPolicy::new(
            vec![0.5, -0.25, f64::MAX],
            -1.0,
            FeatureNorm::new(vec![0.0, 1.0, 2.0], vec![1.0, 0.5, 2.0]),
        ));
        snap.queries[0].estimate = -0.0;
        let back = SessionSnapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(back, snap);
        // -0.0 round-trips as bits, not value equality.
        assert_eq!(back.queries[0].estimate.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn rejects_corrupt_inputs() {
        let snap = snapshot_for(SamplerState::Rp {
            reservoir: RpState { edges: vec![], d_in: 0, d_out: 0, population: 0 },
            adj: AdjacencyLayout { vertices: vec![], free: vec![], id_bound: 0 },
            rng: [1, 2, 3, 4],
        });
        let bytes = snap.encode();
        assert_eq!(SessionSnapshot::decode(&bytes[..3]), Err(SnapshotError::Truncated));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(SessionSnapshot::decode(&bad_magic), Err(SnapshotError::BadHeader));
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 5);
        assert!(SessionSnapshot::decode(&truncated).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(SessionSnapshot::decode(&trailing), Err(SnapshotError::TrailingBytes));
        let mut bad_tag = bytes;
        // The algorithm tag sits right after the 8-byte header.
        bad_tag[8] = 200;
        assert_eq!(SessionSnapshot::decode(&bad_tag), Err(SnapshotError::BadTag("algorithm")));
    }
}
