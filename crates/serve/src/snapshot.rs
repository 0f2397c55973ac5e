//! The versioned binary job-snapshot format (`UMPJ`, version 2).
//!
//! Layout, all integers little-endian:
//!
//! ```text
//! magic    4  b"UMPJ"
//! version  4  u32 = 2
//! -- spec --------------------------------------------------------
//! app      1  u8 (0 = airfoil, 1 = volna)
//! nx, ny   8+8  u64
//! backend  4+n  u32 length + canonical Backend name bytes
//! steps    8  u64
//! seed     8  u64
//! block    8  u64
//! ckpt     8  u64 (checkpoint_every; 0 = none)
//! -- progress ----------------------------------------------------
//! done     8  u64 completed steps
//! history  4 + 8·done  u32 count + f64 bit patterns (RMS / Δt)
//! -- state -------------------------------------------------------
//! ndats    4  u32
//! dats     ndats × OpDat::save payloads (magic UMPD, see ump_core)
//! ```
//!
//! Only *evolving* dats are stored; mesh topology, geometry, and the
//! seeded initial conditions are deterministic functions of the spec
//! and are rebuilt on restore. Values travel as exact `f64` bit
//! patterns end to end, so a kill/restore cycle is bit-identical to an
//! uninterrupted run — the acceptance property of the service layer.
//! Edge dats are stored in the rebuilt mesh's edge order, so a change
//! to that order bumps the version: version 2 is the canonical
//! cell-major order, and a version-1 snapshot is refused.

use std::io::{self, Read};

use ump_core::{Backend, OpDat};

use crate::job::{App, JobSpec};

/// Magic prefix of the job-snapshot format.
pub const JOB_SNAPSHOT_MAGIC: [u8; 4] = *b"UMPJ";

/// Current job-snapshot version; [`decode`] rejects others.
pub const JOB_SNAPSHOT_VERSION: u32 = 2;

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Serialize a job (spec + progress + evolving dats) to bytes.
pub fn encode(spec: &JobSpec, steps_done: u64, history: &[f64], dats: &[&OpDat<f64>]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(128 + dats.iter().map(|d| d.data.len() * 8 + 64).sum::<usize>());
    out.extend_from_slice(&JOB_SNAPSHOT_MAGIC);
    out.extend_from_slice(&JOB_SNAPSHOT_VERSION.to_le_bytes());
    out.push(spec.app.tag());
    out.extend_from_slice(&(spec.nx as u64).to_le_bytes());
    out.extend_from_slice(&(spec.ny as u64).to_le_bytes());
    let backend = spec.backend.name();
    out.extend_from_slice(&(backend.len() as u32).to_le_bytes());
    out.extend_from_slice(backend.as_bytes());
    out.extend_from_slice(&spec.steps.to_le_bytes());
    out.extend_from_slice(&spec.seed.to_le_bytes());
    out.extend_from_slice(&(spec.block_size as u64).to_le_bytes());
    out.extend_from_slice(&spec.checkpoint_every.to_le_bytes());
    out.extend_from_slice(&steps_done.to_le_bytes());
    out.extend_from_slice(&(history.len() as u32).to_le_bytes());
    for v in history {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(dats.len() as u32).to_le_bytes());
    for dat in dats {
        dat.save(&mut out).expect("Vec<u8> writes are infallible");
    }
    out
}

/// A decoded snapshot, before the simulation is rebuilt around it.
#[derive(Debug)]
pub struct Decoded {
    /// The embedded job spec.
    pub spec: JobSpec,
    /// Completed steps at snapshot time.
    pub steps_done: u64,
    /// Per-step reduction history up to `steps_done`.
    pub history: Vec<f64>,
    /// The evolving dats, in the app's canonical order.
    pub dats: Vec<OpDat<f64>>,
}

fn decode_header(r: &mut impl Read) -> io::Result<(JobSpec, u64)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != JOB_SNAPSHOT_MAGIC {
        return Err(bad(format!("not a job snapshot: magic {magic:?}")));
    }
    let version = read_u32(r)?;
    if version != JOB_SNAPSHOT_VERSION {
        return Err(bad(format!(
            "job snapshot version {version}, expected {JOB_SNAPSHOT_VERSION}"
        )));
    }
    let mut app = [0u8; 1];
    r.read_exact(&mut app)?;
    let app = App::from_tag(app[0]).ok_or_else(|| bad(format!("unknown app tag {}", app[0])))?;
    let nx = read_u64(r)? as usize;
    let ny = read_u64(r)? as usize;
    let name_len = read_u32(r)? as usize;
    if name_len > 256 {
        return Err(bad(format!("backend name length {name_len} implausible")));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|e| bad(format!("backend name: {e}")))?;
    let backend = Backend::parse(&name)
        .ok_or_else(|| bad(format!("backend {name} is not in the registry")))?;
    let steps = read_u64(r)?;
    let seed = read_u64(r)?;
    let block_size = read_u64(r)? as usize;
    let checkpoint_every = read_u64(r)?;
    let steps_done = read_u64(r)?;
    let spec = JobSpec {
        app,
        nx,
        ny,
        backend,
        steps,
        seed,
        block_size,
        checkpoint_every,
    };
    // a decoded spec passes the same validation as a submitted one, so
    // a bit-flipped header cannot commit a restore to an absurd mesh
    // or step count
    spec.validate()
        .map_err(|why| bad(format!("snapshot spec invalid: {why}")))?;
    if steps_done > spec.steps {
        return Err(bad(format!(
            "snapshot claims {steps_done} done of {} total steps",
            spec.steps
        )));
    }
    Ok((spec, steps_done))
}

/// Decode only the spec and step counter — admission-time validation
/// without rebuilding any state.
pub fn peek(bytes: &[u8]) -> io::Result<(JobSpec, u64)> {
    decode_header(&mut &bytes[..])
}

/// Decode a full snapshot.
pub fn decode(bytes: &[u8]) -> io::Result<Decoded> {
    let mut r = bytes;
    let (spec, steps_done) = decode_header(&mut r)?;
    let hist_len = read_u32(&mut r)? as usize;
    if hist_len as u64 != steps_done {
        return Err(bad(format!(
            "history holds {hist_len} entries for {steps_done} completed steps"
        )));
    }
    let mut history = Vec::with_capacity(hist_len.min(1 << 16));
    for _ in 0..hist_len {
        history.push(f64::from_bits(read_u64(&mut r)?));
    }
    let ndats = read_u32(&mut r)? as usize;
    if ndats > 64 {
        return Err(bad(format!("{ndats} dats implausible")));
    }
    let mut dats = Vec::with_capacity(ndats);
    for _ in 0..ndats {
        dats.push(OpDat::<f64>::load(&mut r)?);
    }
    Ok(Decoded {
        spec,
        steps_done,
        history,
        dats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_every_field() {
        let spec = JobSpec::new(App::Volna, 31, 17, Backend::FusedSimd { lanes: 4 }, 99)
            .with_seed(123456789)
            .with_block_size(512)
            .with_checkpoint_every(10);
        let q: OpDat<f64> = OpDat::from_fn("w", 3, 2, |e| vec![e as f64, -0.5]);
        let bytes = encode(&spec, 42, &[1.5, 2.5], &[&q]);
        // peek never touches the payload
        let (peeked, done) = peek(&bytes).unwrap();
        assert_eq!(peeked, spec);
        assert_eq!(done, 42);
        let full = decode(&bytes).unwrap_err();
        // 42 steps but 2 history entries: decode catches the mismatch
        assert!(full.to_string().contains("history"), "{full}");
        let bytes_ok = encode(&spec, 2, &[1.5, 2.5], &[&q]);
        let full = decode(&bytes_ok).unwrap();
        assert_eq!(full.history, vec![1.5, 2.5]);
        assert_eq!(full.dats.len(), 1);
        assert_eq!(full.dats[0].data, q.data);
    }

    #[test]
    fn garbage_is_rejected_not_misread() {
        assert!(peek(b"nope").is_err());
        assert!(decode(&[]).is_err());
        let spec = JobSpec::new(App::Airfoil, 4, 4, Backend::Seq, 1);
        let mut bytes = encode(&spec, 0, &[], &[]);
        bytes[5] ^= 0xff; // version corruption
        assert!(peek(&bytes).unwrap_err().to_string().contains("version"));
    }

    #[test]
    fn version_1_snapshots_are_refused() {
        // version 1 stored edge dats in the pre-cell-major edge order
        let spec = JobSpec::new(App::Volna, 4, 4, Backend::Seq, 1);
        let mut bytes = encode(&spec, 0, &[], &[]);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1, expected 2"), "{err}");
    }

    /// A snapshot naming a backend the registry no longer lists (such as
    /// the retired `mpi_fused_simd4`) is a typed error from both entry
    /// points, never a panic.
    #[test]
    fn unregistered_backend_names_are_refused() {
        let spec = JobSpec::new(App::Airfoil, 4, 4, Backend::Seq, 1);
        let bytes = encode(&spec, 0, &[], &[]);
        // magic, version, app tag, nx, ny, then the name's length prefix
        let at = 4 + 4 + 1 + 8 + 8;
        let old_len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        assert_eq!(&bytes[at + 4..at + 4 + old_len], b"seq");
        let retired = b"mpi_fused_simd4";
        let mut spliced = bytes[..at].to_vec();
        spliced.extend_from_slice(&(retired.len() as u32).to_le_bytes());
        spliced.extend_from_slice(retired);
        spliced.extend_from_slice(&bytes[at + 4 + old_len..]);
        for err in [peek(&spliced).unwrap_err(), decode(&spliced).unwrap_err()] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains("backend mpi_fused_simd4 is not in the registry"),
                "{err}"
            );
        }
    }
}
