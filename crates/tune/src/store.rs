//! The persistent tuning store: a versioned little-endian `UMPT` file,
//! same typed-decode discipline as the UMPD mesh and UMPJ snapshot
//! formats — hostile bytes produce an [`io::Error`], never a panic,
//! and a well-formed store round-trips bit-identically.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   [u8;4] = "UMPT"
//! version u32    = 1
//! nentries u32   (≤ 4096)
//! entry × nentries:
//!   app       u8   (0 = airfoil, 1 = volna)
//!   nx, ny    u64
//!   registry  u64  (FNV-1a over Backend::all() names)
//!   cores     u64  (the host's available parallelism)
//!   name_len  u32  (≤ 64) + backend name bytes (must parse)
//!   block     u64  (1..=2²⁰)
//!   trials    u32  (≤ 10⁶)
//!   secs/step f64 bits (finite, > 0)
//!   gb/s      f64 bits (finite, ≥ 0)
//! ```

use crate::App;
use std::io;
use ump_core::Backend;

/// Store file magic.
pub const TUNE_STORE_MAGIC: [u8; 4] = *b"UMPT";
/// Store format version.
pub const TUNE_STORE_VERSION: u32 = 1;
/// Plausibility cap on entry count — a tuning store indexes (app, mesh)
/// pairs, not a database.
const MAX_ENTRIES: usize = 4096;
/// Backend names are short CLI words.
const MAX_NAME: usize = 64;

/// What a tuning decision is keyed by. A store entry is only reused
/// when *all four* coordinates match: same app, same mesh dims, same
/// registered backend set (a registry change invalidates old picks),
/// same core count (a different container shape re-tunes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Application.
    pub app: App,
    /// Mesh x dimension.
    pub nx: u64,
    /// Mesh y dimension.
    pub ny: u64,
    /// [`registry_hash`] at write time.
    pub registry: u64,
    /// The host's available parallelism at write time.
    pub cores: u64,
}

/// One persisted decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuneEntry {
    /// The lookup key.
    pub key: TuneKey,
    /// The winning registered backend.
    pub backend: Backend,
    /// The winning block size.
    pub block_size: usize,
    /// How many measured trials produced this decision.
    pub trials: u32,
    /// Measured wall seconds per timestep of the winner.
    pub seconds_per_step: f64,
    /// Measured useful bandwidth of the winner, GB/s.
    pub gb_per_s: f64,
}

/// The in-memory store: a small keyed set of [`TuneEntry`]s with a
/// binary codec.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneStore {
    entries: Vec<TuneEntry>,
}

/// FNV-1a over the registered backend names, in registry order — the
/// store key component that invalidates decisions when the backend set
/// itself changes.
pub fn registry_hash() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in Backend::all() {
        for byte in b.name().as_bytes() {
            h ^= *byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= b'\n' as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_exact<'a>(bytes: &mut &'a [u8], n: usize, what: &str) -> io::Result<&'a [u8]> {
    if bytes.len() < n {
        return Err(bad(format!(
            "tune store truncated reading {what}: need {n}, have {}",
            bytes.len()
        )));
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Ok(head)
}

fn read_u32(bytes: &mut &[u8], what: &str) -> io::Result<u32> {
    let b = read_exact(bytes, 4, what)?;
    Ok(u32::from_le_bytes(b.try_into().unwrap()))
}

fn read_u64(bytes: &mut &[u8], what: &str) -> io::Result<u64> {
    let b = read_exact(bytes, 8, what)?;
    Ok(u64::from_le_bytes(b.try_into().unwrap()))
}

fn read_f64(bytes: &mut &[u8], what: &str) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(bytes, what)?))
}

impl TuneStore {
    /// Empty store.
    pub fn new() -> TuneStore {
        TuneStore::default()
    }

    /// Number of persisted decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No decisions yet?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Find the decision for a key, if any.
    pub fn lookup(&self, key: &TuneKey) -> Option<&TuneEntry> {
        self.entries.iter().find(|e| e.key == *key)
    }

    /// Insert or replace the decision for `entry.key`.
    pub fn upsert(&mut self, entry: TuneEntry) {
        if let Some(slot) = self.entries.iter_mut().find(|e| e.key == entry.key) {
            *slot = entry;
        } else {
            self.entries.push(entry);
        }
    }

    /// Encode to the UMPT v1 byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.entries.len() * 80);
        out.extend_from_slice(&TUNE_STORE_MAGIC);
        out.extend_from_slice(&TUNE_STORE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.push(e.key.app.tag());
            out.extend_from_slice(&e.key.nx.to_le_bytes());
            out.extend_from_slice(&e.key.ny.to_le_bytes());
            out.extend_from_slice(&e.key.registry.to_le_bytes());
            out.extend_from_slice(&e.key.cores.to_le_bytes());
            let name = e.backend.name();
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(e.block_size as u64).to_le_bytes());
            out.extend_from_slice(&e.trials.to_le_bytes());
            out.extend_from_slice(&e.seconds_per_step.to_bits().to_le_bytes());
            out.extend_from_slice(&e.gb_per_s.to_bits().to_le_bytes());
        }
        out
    }

    /// Decode and validate UMPT bytes. Every violation — bad magic,
    /// future version, truncation, unregistered backend name,
    /// implausible counts or non-finite rates — is a typed
    /// [`io::Error`]; this function must never panic on hostile input.
    pub fn decode(mut bytes: &[u8]) -> io::Result<TuneStore> {
        let bytes = &mut bytes;
        let magic = read_exact(bytes, 4, "magic")?;
        if magic != TUNE_STORE_MAGIC {
            return Err(bad(format!("bad tune store magic {magic:?}")));
        }
        let version = read_u32(bytes, "version")?;
        if version != TUNE_STORE_VERSION {
            return Err(bad(format!(
                "tune store version {version} (supported: {TUNE_STORE_VERSION})"
            )));
        }
        let nentries = read_u32(bytes, "entry count")? as usize;
        if nentries > MAX_ENTRIES {
            return Err(bad(format!("implausible entry count {nentries}")));
        }
        let mut entries = Vec::with_capacity(nentries);
        for i in 0..nentries {
            let tag = read_exact(bytes, 1, "app tag")?[0];
            let app =
                App::from_tag(tag).ok_or_else(|| bad(format!("entry {i}: bad app tag {tag}")))?;
            let nx = read_u64(bytes, "nx")?;
            let ny = read_u64(bytes, "ny")?;
            let registry = read_u64(bytes, "registry hash")?;
            let cores = read_u64(bytes, "core count")?;
            let name_len = read_u32(bytes, "backend name length")? as usize;
            if name_len == 0 || name_len > MAX_NAME {
                return Err(bad(format!("entry {i}: backend name length {name_len}")));
            }
            let name_bytes = read_exact(bytes, name_len, "backend name")?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| bad(format!("entry {i}: backend name is not UTF-8")))?;
            let backend = Backend::parse(name)
                .ok_or_else(|| bad(format!("entry {i}: unregistered backend {name:?}")))?;
            let block = read_u64(bytes, "block size")?;
            if block == 0 || block > 1 << 20 {
                return Err(bad(format!("entry {i}: block size {block}")));
            }
            let trials = read_u32(bytes, "trial count")?;
            if trials > 1_000_000 {
                return Err(bad(format!("entry {i}: implausible trial count {trials}")));
            }
            let seconds_per_step = read_f64(bytes, "seconds per step")?;
            if !seconds_per_step.is_finite() || seconds_per_step <= 0.0 {
                return Err(bad(format!(
                    "entry {i}: seconds/step {seconds_per_step} not a positive finite number"
                )));
            }
            let gb_per_s = read_f64(bytes, "GB/s")?;
            if !gb_per_s.is_finite() || gb_per_s < 0.0 {
                return Err(bad(format!("entry {i}: GB/s {gb_per_s} invalid")));
            }
            entries.push(TuneEntry {
                key: TuneKey {
                    app,
                    nx,
                    ny,
                    registry,
                    cores,
                },
                backend,
                block_size: block as usize,
                trials,
                seconds_per_step,
                gb_per_s,
            });
        }
        if !bytes.is_empty() {
            return Err(bad(format!(
                "{} trailing bytes after last tune entry",
                bytes.len()
            )));
        }
        Ok(TuneStore { entries })
    }

    /// Load from a file; `NotFound` bubbles up as the normal cold-start
    /// signal, corrupt contents as `InvalidData`.
    pub fn load(path: &std::path::Path) -> io::Result<TuneStore> {
        TuneStore::decode(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneStore {
        let mut s = TuneStore::new();
        s.upsert(TuneEntry {
            key: TuneKey {
                app: App::Airfoil,
                nx: 48,
                ny: 24,
                registry: registry_hash(),
                cores: 2,
            },
            backend: Backend::Threaded,
            block_size: 256,
            trials: 5,
            seconds_per_step: 1.25e-3,
            gb_per_s: 12.5,
        });
        s.upsert(TuneEntry {
            key: TuneKey {
                app: App::Volna,
                nx: 20,
                ny: 14,
                registry: registry_hash(),
                cores: 2,
            },
            backend: Backend::FusedSimd { lanes: 4 },
            block_size: 1024,
            trials: 6,
            seconds_per_step: 8.0e-4,
            gb_per_s: 20.0,
        });
        s
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let s = sample();
        let bytes = s.encode();
        let back = TuneStore::decode(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn upsert_replaces_same_key() {
        let mut s = sample();
        let mut e = *s.lookup(&sample().entries[0].key).unwrap();
        e.backend = Backend::Seq;
        s.upsert(e);
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup(&e.key).unwrap().backend, Backend::Seq);
    }

    #[test]
    fn hostile_headers_are_typed_errors() {
        assert!(TuneStore::decode(&[]).is_err());
        assert!(TuneStore::decode(b"UMPX\x01\x00\x00\x00\x00\x00\x00\x00").is_err());
        let mut bytes = sample().encode();
        bytes[4] = bytes[4].wrapping_add(1); // version low byte
        assert!(TuneStore::decode(&bytes).is_err());
    }

    #[test]
    fn unregistered_backend_name_is_rejected() {
        let mut s = sample();
        let bytes = s.encode();
        // corrupt the backend-name bytes of the first entry in place:
        // "threaded" starts after 12 (header) + 1 + 8*4 (key) + 4 (len)
        let name_at = 12 + 1 + 32 + 4;
        let mut corrupt = bytes.clone();
        corrupt[name_at] = b'z';
        assert!(TuneStore::decode(&corrupt).is_err());
        // a retired registry row is as unknown as a garbled one
        let old_len = "threaded".len();
        let retired = b"tiled_simd4";
        let mut spliced = bytes[..name_at - 4].to_vec();
        spliced.extend_from_slice(&(retired.len() as u32).to_le_bytes());
        spliced.extend_from_slice(retired);
        spliced.extend_from_slice(&bytes[name_at + old_len..]);
        let err = TuneStore::decode(&spliced).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("unregistered backend \"tiled_simd4\""),
            "{err}"
        );
        s.entries.clear();
        assert!(TuneStore::decode(&s.encode()).unwrap().is_empty());
    }

    #[test]
    fn registry_hash_is_order_sensitive_and_stable() {
        assert_eq!(registry_hash(), registry_hash());
        assert_ne!(registry_hash(), 0);
    }
}
