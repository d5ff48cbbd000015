//! Versioned policy artifacts and the directory-backed
//! [`PolicyRegistry`] — how a trained [`LinearPolicy`] travels from the
//! `wsd-train` grid to a serving [`StreamSession`].
//!
//! An **artifact** is a policy plus the provenance that makes it safe
//! to serve: the pattern it was trained to weight, the scenario family
//! it was trained under, the training reservoir capacity, seed and
//! optimisation budget. Artifacts encode to a self-contained binary
//! blob — `WSDP` magic, version, metadata header, policy parameters as
//! raw IEEE-754 bits, and a trailing FNV-1a-64 checksum — so a
//! truncated, torn or bit-flipped file is *rejected with a typed
//! error*, never silently loaded as garbage. Non-finite parameters are
//! rejected at decode time for the same reason: a NaN weight poisons
//! every estimate downstream.
//!
//! The **registry** is a directory of `*.wsdp` artifacts (checked in
//! under `artifacts/policies/` in this repository). Lookup is by
//! `(pattern, scenario family)`; serving code that finds no artifact
//! falls back to [`HeuristicWeight`] — best effort, never an error —
//! via [`PolicyRegistry::weight_for`]. Corrupt files are skipped and
//! reported through [`PolicyRegistry::rejected`], mirroring the
//! quarantine semantics of the serve store: one bad artifact must not
//! take down the registry.
//!
//! [`StreamSession`]: crate::session::StreamSession

use std::io;
use std::path::{Path, PathBuf};

use crate::snapshot::{ByteReader, ByteWriter, SealError, SnapshotError};
use crate::weight::{HeuristicWeight, LinearPolicy, WeightFn};
use wsd_graph::Pattern;

/// Magic bytes opening every encoded policy artifact.
pub const POLICY_MAGIC: &[u8; 4] = b"WSDP";
/// Artifact encoding version (bump on any layout change).
pub const POLICY_VERSION: u32 = 1;
/// File extension registry directories are scanned for.
pub const POLICY_FILE_EXT: &str = "wsdp";

/// Decode failure of a policy artifact — every way a file can be wrong
/// gets its own variant so callers (and the registry's quarantine list)
/// can say *what* was rejected.
#[derive(Debug)]
pub enum PolicyError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural decode failure (bad magic/version, truncation, tags).
    Codec(SnapshotError),
    /// The trailing checksum does not match the content — a torn or
    /// bit-flipped file.
    BadChecksum {
        /// Checksum recomputed from the content.
        expected: u64,
        /// Checksum stored in the file.
        found: u64,
    },
    /// A policy parameter is NaN or infinite.
    NonFinite {
        /// Which parameter block held the bad value.
        field: &'static str,
    },
    /// The policy dimension does not match the metadata pattern's
    /// `|H| + 3` state dimension.
    DimensionMismatch {
        /// Dimension the pattern requires.
        expected: usize,
        /// Dimension the artifact carries.
        got: usize,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Io(e) => write!(f, "I/O error: {e}"),
            PolicyError::Codec(e) => write!(f, "malformed policy artifact: {e}"),
            PolicyError::BadChecksum { expected, found } => write!(
                f,
                "policy artifact checksum mismatch (content {expected:016x}, file {found:016x})"
            ),
            PolicyError::NonFinite { field } => {
                write!(f, "policy artifact holds a non-finite {field} value")
            }
            PolicyError::DimensionMismatch { expected, got } => write!(
                f,
                "policy dimension {got} does not match the pattern's state dimension {expected}"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

impl From<io::Error> for PolicyError {
    fn from(e: io::Error) -> Self {
        PolicyError::Io(e)
    }
}

impl From<SnapshotError> for PolicyError {
    fn from(e: SnapshotError) -> Self {
        PolicyError::Codec(e)
    }
}

/// Provenance metadata carried by every artifact: what the policy was
/// trained for and under which budget, so registry lookups and accuracy
/// gates can pair artifacts with matching evaluation cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyMeta {
    /// The weight pattern the policy was trained to observe.
    pub pattern: Pattern,
    /// Scenario family the training streams were drawn from (e.g.
    /// `ba-light`, `hub-light`) — the registry lookup key alongside the
    /// pattern.
    pub scenario: String,
    /// Reservoir capacity used during training.
    pub capacity: u64,
    /// Master training seed.
    pub train_seed: u64,
    /// DDPG optimisation steps the policy was trained for.
    pub iterations: u64,
}

/// A trained policy plus its provenance — the unit the registry stores.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyArtifact {
    /// Provenance metadata (pattern, scenario, budgets).
    pub meta: PolicyMeta,
    /// The frozen policy.
    pub policy: LinearPolicy,
}

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

fn put_f64_vec(w: &mut ByteWriter, xs: &[f64]) {
    w.put_len(xs.len());
    for &x in xs {
        w.put_f64(x);
    }
}

fn get_finite_vec(
    r: &mut ByteReader<'_>,
    field: &'static str,
    expected_len: usize,
) -> Result<Vec<f64>, PolicyError> {
    let n = r.get_len()?;
    if n != expected_len {
        return Err(PolicyError::Codec(SnapshotError::Invalid("parameter block length")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let x = r.get_f64()?;
        if !x.is_finite() {
            return Err(PolicyError::NonFinite { field });
        }
        out.push(x);
    }
    Ok(out)
}

impl PolicyArtifact {
    /// Serialises the artifact into a self-contained, checksummed blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(POLICY_MAGIC);
        w.put_u32(POLICY_VERSION);
        put_pattern(&mut w, self.meta.pattern);
        w.put_len(self.meta.scenario.len());
        w.put_bytes(self.meta.scenario.as_bytes());
        w.put_u64(self.meta.capacity);
        w.put_u64(self.meta.train_seed);
        w.put_u64(self.meta.iterations);
        put_f64_vec(&mut w, &self.policy.w);
        w.put_f64(self.policy.b);
        put_f64_vec(&mut w, self.policy.norm.mean());
        put_f64_vec(&mut w, self.policy.norm.std());
        w.into_sealed_bytes()
    }

    /// Decodes an artifact, verifying the checksum, rejecting
    /// non-finite parameters and enforcing the pattern/dimension
    /// consistency invariant.
    pub fn decode(bytes: &[u8]) -> Result<Self, PolicyError> {
        let mut r = ByteReader::unseal(bytes).map_err(|e| match e {
            SealError::TooShort => PolicyError::Codec(SnapshotError::Truncated),
            SealError::Mismatch { expected, found } => PolicyError::BadChecksum { expected, found },
        })?;
        if r.take(4)? != POLICY_MAGIC || r.get_u32()? != POLICY_VERSION {
            return Err(PolicyError::Codec(SnapshotError::BadHeader));
        }
        let pattern = get_pattern(&mut r)?;
        let n = r.get_len()?;
        let scenario = String::from_utf8(r.take(n)?.to_vec())
            .map_err(|_| PolicyError::Codec(SnapshotError::Invalid("scenario utf-8")))?;
        let capacity = r.get_u64()?;
        let train_seed = r.get_u64()?;
        let iterations = r.get_u64()?;
        let dim = pattern.num_edges() + 3;
        let got = {
            // Peek the stored weight-vector length before enforcing it,
            // so a mismatched artifact reports its own dimension.
            let mut peek = ByteReader::new(r.take(8)?);
            peek.get_u64()? as usize
        };
        if got != dim {
            return Err(PolicyError::DimensionMismatch { expected: dim, got });
        }
        let mut w = Vec::with_capacity(dim);
        for _ in 0..dim {
            let x = r.get_f64()?;
            if !x.is_finite() {
                return Err(PolicyError::NonFinite { field: "weight" });
            }
            w.push(x);
        }
        let b = r.get_f64()?;
        if !b.is_finite() {
            return Err(PolicyError::NonFinite { field: "bias" });
        }
        let mean = get_finite_vec(&mut r, "mean", dim)?;
        let std = get_finite_vec(&mut r, "std", dim)?;
        r.finish()?;
        Ok(PolicyArtifact {
            meta: PolicyMeta { pattern, scenario, capacity, train_seed, iterations },
            policy: LinearPolicy::new(w, b, crate::weight::FeatureNorm::new(mean, std)),
        })
    }

    /// The canonical registry file name of this artifact:
    /// `<scenario>-<pattern>.wsdp`.
    pub fn file_name(&self) -> String {
        format!("{}-{}.{}", self.meta.scenario, self.meta.pattern.name(), POLICY_FILE_EXT)
    }

    /// Writes the artifact atomically (tmp sibling + rename, like the
    /// serve store) so a crashed writer never leaves a torn file behind.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PolicyError> {
        let path = path.as_ref();
        let tmp = path.with_extension(format!("{POLICY_FILE_EXT}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, &self.encode())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes an artifact file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PolicyError> {
        Self::decode(&std::fs::read(path)?)
    }
}

/// A directory of policy artifacts with lookup by
/// `(pattern, scenario family)` and best-effort heuristic fallback.
pub struct PolicyRegistry {
    dir: PathBuf,
    entries: Vec<(PathBuf, PolicyArtifact)>,
    rejected: Vec<(PathBuf, PolicyError)>,
}

impl PolicyRegistry {
    /// Scans `dir` for `*.wsdp` artifacts (sorted by file name, so
    /// lookups are deterministic). A missing directory yields an empty
    /// registry — serving falls back to the heuristic, it does not
    /// fail. Files that do not decode are skipped and recorded in
    /// [`PolicyRegistry::rejected`].
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let mut paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == POLICY_FILE_EXT))
                .collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        paths.sort();
        let mut entries = Vec::new();
        let mut rejected = Vec::new();
        for path in paths {
            match PolicyArtifact::load(&path) {
                Ok(artifact) => entries.push((path, artifact)),
                Err(e) => rejected.push((path, e)),
            }
        }
        Ok(Self { dir, entries, rejected })
    }

    /// The scanned directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of artifacts that loaded cleanly.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no artifact loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the loaded artifacts in file-name order.
    pub fn iter(&self) -> impl Iterator<Item = &PolicyArtifact> {
        self.entries.iter().map(|(_, a)| a)
    }

    /// Files that failed to decode, with the reason each was rejected.
    pub fn rejected(&self) -> &[(PathBuf, PolicyError)] {
        &self.rejected
    }

    /// The first artifact (file-name order) trained for exactly
    /// `(pattern, scenario)`.
    pub fn lookup(&self, pattern: Pattern, scenario: &str) -> Option<&PolicyArtifact> {
        self.entries
            .iter()
            .map(|(_, a)| a)
            .find(|a| a.meta.pattern == pattern && a.meta.scenario == scenario)
    }

    /// The learned weight function for `(pattern, scenario)` when an
    /// artifact exists, [`HeuristicWeight`] otherwise — the best-effort
    /// serving path: a missing policy degrades accuracy, never
    /// availability.
    pub fn weight_for(&self, pattern: Pattern, scenario: &str) -> Box<dyn WeightFn> {
        match self.lookup(pattern, scenario) {
            Some(artifact) => Box::new(artifact.policy.clone()),
            None => Box::new(HeuristicWeight),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weight::FeatureNorm;

    fn artifact() -> PolicyArtifact {
        PolicyArtifact {
            meta: PolicyMeta {
                pattern: Pattern::Triangle,
                scenario: "ba-light".into(),
                capacity: 640,
                train_seed: 42,
                iterations: 300,
            },
            policy: LinearPolicy::new(
                vec![0.5, -0.25, 1e-9, 3.5, -6.125, 0.0],
                -0.75,
                FeatureNorm::new(
                    vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                    vec![0.5, 1.0, 2.0, 4.0, 0.25, 9.0],
                ),
            ),
        }
    }

    #[test]
    fn round_trips_exactly() {
        let a = artifact();
        let bytes = a.encode();
        let back = PolicyArtifact::decode(&bytes).expect("decode");
        assert_eq!(back, a);
        assert_eq!(back.file_name(), "ba-light-triangle.wsdp");
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = artifact().encode();
        for cut in 0..bytes.len() {
            assert!(
                PolicyArtifact::decode(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix must not decode"
            );
        }
    }

    #[test]
    fn rejects_any_single_bit_flip() {
        let bytes = artifact().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(PolicyArtifact::decode(&bad).is_err(), "flip at byte {i} must not decode");
        }
    }

    #[test]
    fn rejects_non_finite_parameters() {
        for (field, poison) in
            [("weight", 0usize), ("bias", 6), ("mean", 7), ("std", 13)].into_iter()
        {
            let mut a = artifact();
            let bad = if field == "weight" || field == "bias" { f64::NAN } else { f64::INFINITY };
            // Poison one f64 slot, then re-encode (checksum stays valid,
            // so only the finiteness check can reject it).
            let mut w = a.policy.w.clone();
            let mut mean = a.policy.norm.mean().to_vec();
            let mut std = a.policy.norm.std().to_vec();
            let mut b = a.policy.b;
            match field {
                "weight" => w[poison] = bad,
                "bias" => b = bad,
                "mean" => mean[poison - 7] = bad,
                _ => std[poison - 13] = bad,
            }
            a.policy = LinearPolicy::new(w, b, FeatureNorm::new(mean, std));
            let err = PolicyArtifact::decode(&a.encode()).expect_err("non-finite must be rejected");
            assert!(matches!(err, PolicyError::NonFinite { .. }), "{field}: {err}");
        }
    }

    #[test]
    fn rejects_pattern_dimension_mismatch() {
        let mut a = artifact();
        a.meta.pattern = Pattern::Wedge; // wedge wants dim 5, artifact has 6
        let err = PolicyArtifact::decode(&a.encode()).expect_err("dim mismatch");
        assert!(matches!(err, PolicyError::DimensionMismatch { expected: 5, got: 6 }), "{err}");
    }

    #[test]
    fn checksum_error_reports_both_hashes() {
        let bytes = artifact().encode();
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let mut bad = bytes.clone();
        bad[10] ^= 0x40;
        match PolicyArtifact::decode(&bad) {
            Err(PolicyError::BadChecksum { expected, found }) => {
                assert_eq!(found, stored);
                assert_ne!(expected, found);
            }
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_header() {
        // A well-sealed blob with the wrong magic still fails.
        let mut w = ByteWriter::new();
        w.put_bytes(b"NOPE");
        w.put_u32(POLICY_VERSION);
        let err = PolicyArtifact::decode(&w.into_sealed_bytes()).expect_err("bad magic");
        assert!(matches!(err, PolicyError::Codec(SnapshotError::BadHeader)), "{err}");
    }

    /// The on-disk format is stable: every checked-in artifact decodes
    /// and re-encodes to its exact file bytes.
    #[test]
    fn checked_in_artifacts_reencode_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/policies");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).expect("artifacts/policies exists") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == POLICY_FILE_EXT) {
                let bytes = std::fs::read(&path).unwrap();
                let artifact = PolicyArtifact::decode(&bytes).expect("checked-in artifact decodes");
                assert_eq!(artifact.encode(), bytes, "{} re-encodes differently", path.display());
                checked += 1;
            }
        }
        assert_eq!(checked, 12, "expected the 12-cell grid under {}", dir.display());
    }

    #[test]
    fn registry_scans_looks_up_and_falls_back() {
        let dir = std::env::temp_dir().join(format!("wsdp-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = artifact();
        a.save(dir.join(a.file_name())).unwrap();
        // A corrupt sibling must be quarantined, not fatal.
        std::fs::write(dir.join("torn.wsdp"), &a.encode()[..10]).unwrap();
        let registry = PolicyRegistry::open(&dir).unwrap();
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.rejected().len(), 1);
        let hit = registry.lookup(Pattern::Triangle, "ba-light").expect("artifact found");
        assert_eq!(hit, &a);
        assert!(registry.lookup(Pattern::Wedge, "ba-light").is_none());
        let learned = registry.weight_for(Pattern::Triangle, "ba-light");
        let fallback = registry.weight_for(Pattern::Triangle, "hub-light");
        assert_eq!(learned.name(), "WSD-L");
        assert_eq!(fallback.name(), "WSD-H");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_empty_registry() {
        let registry = PolicyRegistry::open("/nonexistent/wsdp-registry").unwrap();
        assert!(registry.is_empty());
        assert_eq!(registry.weight_for(Pattern::Triangle, "ba-light").name(), "WSD-H");
    }
}
