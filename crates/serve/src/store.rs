//! The durable session store: canonical snapshot blobs on disk, one
//! file per session, surviving process restarts.
//!
//! Layout of a `--data-dir`:
//!
//! * `MANIFEST` — format version plus the session-id watermark. The
//!   watermark is reserved ahead in blocks, so an id minted just before
//!   a crash is never re-minted after the reboot even if its session
//!   was never autosaved.
//! * `sess-<id:016x>.snap` — one per persisted session: a small header
//!   (magic, format version, session id, event count at save time), the
//!   length-prefixed canonical `SessionSnapshot` blob, and a trailing
//!   FNV-1a checksum over everything before it (`wsd_core`'s sealed
//!   byte trailer). The checksum guards against torn writes and bit rot;
//!   it does not authenticate — the boot-time capacity gate is what
//!   keeps a *forged* data-dir from hurting the server.
//! * `*.quarantined` — files that failed validation at boot. They are
//!   renamed aside, never deleted: a corrupt or forged blob must not
//!   abort the boot, but it also must not silently vanish.
//!
//! Every write is atomic: the bytes go to a `.tmp` sibling, are synced,
//! and are renamed over the final name. A reader (the next boot) sees
//! either the old complete file or the new complete file, never a torn
//! one — and the checksum catches the residual cases a crash on a
//! rename-less filesystem could still leave behind.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use wsd_core::{ByteReader, ByteWriter, SealError};

/// On-disk format version of both the manifest and the session files.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Magic prefix of session snapshot files.
const SESSION_MAGIC: &[u8; 8] = b"WSDSESS1";

/// Magic prefix of the manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"WSDSTOR1";

/// Session ids are reserved in the manifest in blocks of this size, so
/// the manifest is rewritten once per block of opens, not once per open.
const ID_RESERVE_BLOCK: u64 = 1024;

/// One persisted session as read back at boot.
#[derive(Debug)]
pub struct PersistedSession {
    /// The session's original id — it is revived under this id.
    pub session: u64,
    /// Events the session had applied when the snapshot was taken.
    pub events: u64,
    /// The canonical `SessionSnapshot` blob.
    pub blob: Vec<u8>,
}

/// A directory of durable session snapshots with atomic writes.
pub struct SessionStore {
    dir: PathBuf,
    /// Cached manifest watermark: ids below it are reserved on disk.
    watermark: Mutex<u64>,
}

impl SessionStore {
    /// Opens (creating if needed) a data directory. A corrupt manifest
    /// is quarantined and replaced — a bad data-dir must degrade, not
    /// abort the server.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let manifest = dir.join("MANIFEST");
        let watermark = match read_manifest(&manifest) {
            Ok(Some(watermark)) => watermark,
            Ok(None) => {
                write_file_atomic(&dir, "MANIFEST", &encode_manifest(1))?;
                1
            }
            Err(_) => {
                // Corrupt or forged manifest: set it aside and start a
                // fresh one. Ids may be re-minted after this, but the
                // alternative is refusing to boot at all.
                let _ = fs::rename(&manifest, dir.join("MANIFEST.quarantined"));
                write_file_atomic(&dir, "MANIFEST", &encode_manifest(1))?;
                1
            }
        };
        Ok(SessionStore { dir, watermark: Mutex::new(watermark) })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest's current session-id watermark: every id ever
    /// handed out is strictly below it.
    pub fn watermark(&self) -> u64 {
        *self.watermark.lock().expect("store watermark lock")
    }

    /// Ensures `id` is covered by the on-disk watermark, reserving a
    /// whole block ahead when it is not. Called on every session mint;
    /// actually writes roughly once per `ID_RESERVE_BLOCK` mints.
    pub fn reserve_id(&self, id: u64) -> io::Result<()> {
        let mut watermark = self.watermark.lock().expect("store watermark lock");
        if id < *watermark {
            return Ok(());
        }
        let next = id.saturating_add(ID_RESERVE_BLOCK);
        write_file_atomic(&self.dir, "MANIFEST", &encode_manifest(next))?;
        *watermark = next;
        Ok(())
    }

    /// Atomically persists one session's snapshot blob.
    pub fn save(&self, session: u64, events: u64, blob: &[u8]) -> io::Result<()> {
        let mut w = ByteWriter::new();
        w.put_bytes(SESSION_MAGIC);
        w.put_u32(STORE_FORMAT_VERSION);
        w.put_u64(session);
        w.put_u64(events);
        w.put_len(blob.len());
        w.put_bytes(blob);
        write_file_atomic(&self.dir, &session_file_name(session), &w.into_sealed_bytes())
    }

    /// Removes a session's persisted snapshot (e.g. on `Close`). Absent
    /// files are fine: the session may never have been autosaved.
    pub fn remove(&self, session: u64) -> io::Result<()> {
        match fs::remove_file(self.dir.join(session_file_name(session))) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Renames a session's snapshot aside so the next boot skips it.
    /// Used when a file parses but its content fails a server-side gate
    /// (inadmissible capacity, a blob whose restore panics).
    pub fn quarantine(&self, session: u64) {
        let name = session_file_name(session);
        let _ = fs::rename(self.dir.join(&name), self.dir.join(format!("{name}.quarantined")));
    }

    /// Scans the directory and returns every valid persisted session.
    /// Files that fail the header, checksum, or id check are renamed to
    /// `*.quarantined` and counted, never returned and never fatal; a
    /// stale `.tmp` from a crashed write is deleted.
    pub fn scan(&self) -> io::Result<ScanOutcome> {
        let mut sessions = Vec::new();
        let mut quarantined = 0u64;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(str::to_owned) else {
                continue;
            };
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(&path);
                continue;
            }
            if !name.starts_with("sess-") || !name.ends_with(".snap") {
                continue;
            }
            match read_session_file(&path, &name) {
                Ok(p) => sessions.push(p),
                Err(_) => {
                    let _ = fs::rename(&path, self.dir.join(format!("{name}.quarantined")));
                    quarantined += 1;
                }
            }
        }
        // Deterministic revival order (and deterministic shard fill).
        sessions.sort_by_key(|p| p.session);
        Ok(ScanOutcome { sessions, quarantined })
    }
}

/// What a boot-time [`SessionStore::scan`] found.
pub struct ScanOutcome {
    /// Every structurally valid persisted session, ascending by id.
    pub sessions: Vec<PersistedSession>,
    /// Files renamed aside because they failed validation.
    pub quarantined: u64,
}

fn session_file_name(session: u64) -> String {
    format!("sess-{session:016x}.snap")
}

fn read_session_file(path: &Path, name: &str) -> io::Result<PersistedSession> {
    let bytes = fs::read(path)?;
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let mut r = ByteReader::unseal(&bytes).map_err(|e| match e {
        SealError::TooShort => invalid("session file too short for a checksum"),
        SealError::Mismatch { .. } => invalid("session file checksum mismatch"),
    })?;
    if r.take(8).map_err(|_| invalid("truncated magic"))? != SESSION_MAGIC {
        return Err(invalid("bad session file magic"));
    }
    let version = r.get_u32().map_err(|_| invalid("truncated version"))?;
    if version != STORE_FORMAT_VERSION {
        return Err(invalid("unsupported session file version"));
    }
    let session = r.get_u64().map_err(|_| invalid("truncated session id"))?;
    if name != session_file_name(session) {
        // A renamed/duplicated file claiming another session's id.
        return Err(invalid("session id does not match file name"));
    }
    let events = r.get_u64().map_err(|_| invalid("truncated event count"))?;
    let blob_len = r.get_len().map_err(|_| invalid("truncated blob length"))?;
    let blob = r.take(blob_len).map_err(|_| invalid("truncated blob"))?.to_vec();
    r.finish().map_err(|_| invalid("trailing bytes after blob"))?;
    Ok(PersistedSession { session, events, blob })
}

fn encode_manifest(watermark: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(MANIFEST_MAGIC);
    w.put_u32(STORE_FORMAT_VERSION);
    w.put_u64(watermark);
    w.into_sealed_bytes()
}

/// `Ok(None)` when the manifest does not exist yet; `Err` when it
/// exists but does not validate.
fn read_manifest(path: &Path) -> io::Result<Option<u64>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let mut r = ByteReader::unseal(&bytes).map_err(|e| match e {
        SealError::TooShort => invalid("manifest too short"),
        SealError::Mismatch { .. } => invalid("manifest checksum mismatch"),
    })?;
    if r.take(8).map_err(|_| invalid("truncated magic"))? != MANIFEST_MAGIC {
        return Err(invalid("bad manifest magic"));
    }
    if r.get_u32().map_err(|_| invalid("truncated version"))? != STORE_FORMAT_VERSION {
        return Err(invalid("unsupported manifest version"));
    }
    let watermark = r.get_u64().map_err(|_| invalid("truncated watermark"))?;
    r.finish().map_err(|_| invalid("trailing manifest bytes"))?;
    Ok(Some(watermark))
}

/// Writes `bytes` to `dir/name` atomically: tmp sibling, fsync, rename.
fn write_file_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let target = dir.join(name);
    {
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &target)?;
    // Make the rename itself durable; not every platform exposes a
    // directory fsync, so a failure here downgrades to best-effort.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wsd-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_scan_round_trips_and_orders_by_id() {
        let dir = scratch_dir("roundtrip");
        let store = SessionStore::open(&dir).expect("opens");
        store.save(7, 700, b"blob-seven").expect("saves");
        store.save(3, 300, b"blob-three").expect("saves");
        let outcome = store.scan().expect("scans");
        assert_eq!(outcome.quarantined, 0);
        let ids: Vec<u64> = outcome.sessions.iter().map(|p| p.session).collect();
        assert_eq!(ids, vec![3, 7]);
        assert_eq!(outcome.sessions[0].events, 300);
        assert_eq!(outcome.sessions[0].blob, b"blob-three");
        // Overwrite is atomic and replaces the previous state.
        store.save(3, 301, b"blob-three-v2").expect("saves");
        let outcome = store.scan().expect("scans");
        assert_eq!(outcome.sessions[0].blob, b"blob-three-v2");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_quarantined_not_fatal() {
        let dir = scratch_dir("corrupt");
        let store = SessionStore::open(&dir).expect("opens");
        store.save(1, 10, b"good").expect("saves");
        // Flip a byte in a copied-to-another-id file and write garbage.
        let good = fs::read(dir.join(session_file_name(1))).expect("reads");
        fs::write(dir.join(session_file_name(2)), &good).expect("writes"); // id mismatch
        let mut torn = good.clone();
        torn[10] ^= 0xFF;
        fs::write(dir.join(session_file_name(3)), &torn).expect("writes"); // checksum
        fs::write(dir.join(session_file_name(4)), b"nonsense").expect("writes");
        fs::write(dir.join("sess-zzz.snap.tmp"), b"stale").expect("writes");

        let outcome = store.scan().expect("scans");
        assert_eq!(outcome.sessions.len(), 1);
        assert_eq!(outcome.sessions[0].session, 1);
        assert_eq!(outcome.quarantined, 3);
        assert!(dir.join(format!("{}.quarantined", session_file_name(2))).exists());
        assert!(!dir.join("sess-zzz.snap.tmp").exists(), "stale tmp removed");
        // Quarantined files are skipped, not re-examined, next scan.
        assert_eq!(store.scan().expect("scans").quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn watermark_survives_reopen_and_corrupt_manifest_degrades() {
        let dir = scratch_dir("manifest");
        let store = SessionStore::open(&dir).expect("opens");
        assert_eq!(store.watermark(), 1);
        store.reserve_id(5).expect("reserves");
        assert!(store.watermark() > 5);
        let high = store.watermark();
        drop(store);
        let store = SessionStore::open(&dir).expect("reopens");
        assert_eq!(store.watermark(), high, "watermark persisted");
        // Ids under the watermark cost no write.
        store.reserve_id(2).expect("reserves");
        assert_eq!(store.watermark(), high);
        drop(store);
        fs::write(dir.join("MANIFEST"), b"garbage").expect("writes");
        let store = SessionStore::open(&dir).expect("boots despite corrupt manifest");
        assert_eq!(store.watermark(), 1);
        assert!(dir.join("MANIFEST.quarantined").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_is_idempotent() {
        let dir = scratch_dir("remove");
        let store = SessionStore::open(&dir).expect("opens");
        store.save(9, 1, b"x").expect("saves");
        store.remove(9).expect("removes");
        store.remove(9).expect("second remove is fine");
        assert!(store.scan().expect("scans").sessions.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
