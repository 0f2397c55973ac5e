//! Host probe: core count plus a tiny STREAM-triad bandwidth
//! measurement, for harnesses that report what host they ran on. The
//! tuner itself reads only the core count (`available_parallelism`)
//! and runs no triad.

/// What a harness reports about the machine it is running on.
///
/// `measure()` runs a sub-100ms STREAM-style triad across all cores;
/// tests and deterministic callers use [`HostProbe::fixed`] instead,
/// since a measured probe varies run to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostProbe {
    /// Available hardware parallelism.
    pub cores: usize,
    /// Measured aggregate triad bandwidth, GB/s.
    pub stream_gbs: f64,
}

/// Per-thread triad working set: 3 arrays × 2²⁰ doubles = 24 MB —
/// comfortably past last-level cache at any plausible core count.
const TRIAD_N: usize = 1 << 20;
/// Timed repetitions per thread (best-of, as STREAM itself reports).
const TRIAD_REPS: usize = 3;
/// Probe thread cap: past this the measurement saturates the memory
/// controller anyway and only the setup cost grows.
const MAX_PROBE_THREADS: usize = 16;

impl HostProbe {
    /// Construct from known values — the deterministic path for tests
    /// and for replaying a probe recorded elsewhere.
    pub fn fixed(cores: usize, stream_gbs: f64) -> HostProbe {
        HostProbe {
            cores: cores.max(1),
            stream_gbs: stream_gbs.max(0.1),
        }
    }

    /// Measure the live host: `available_parallelism` for the core
    /// count, and a parallel `a[i] = b[i] + s·c[i]` triad for the
    /// bandwidth roof (sum of per-thread best-rep rates).
    pub fn measure() -> HostProbe {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = cores.min(MAX_PROBE_THREADS);
        let per_thread: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| scope.spawn(move || triad_gbs(t as u64)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        HostProbe {
            cores,
            stream_gbs: per_thread.iter().sum::<f64>().max(0.1),
        }
    }
}

/// One thread's triad rate in GB/s (best of [`TRIAD_REPS`]).
fn triad_gbs(salt: u64) -> f64 {
    let mut a = vec![0.0f64; TRIAD_N];
    let b = vec![1.5f64 + salt as f64 * 1e-9; TRIAD_N];
    let c = vec![0.25f64; TRIAD_N];
    let mut best = 0.0f64;
    for rep in 0..TRIAD_REPS {
        let s = 1.0 + rep as f64 * 1e-12;
        let t0 = std::time::Instant::now();
        for i in 0..TRIAD_N {
            a[i] = b[i] + s * c[i];
        }
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        // three streams of 8-byte words per element
        best = best.max((3 * 8 * TRIAD_N) as f64 / dt / 1e9);
    }
    // keep the result observable so the loop is not dead code
    std::hint::black_box(a[TRIAD_N / 2]);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_probe_is_plausible() {
        let p = HostProbe::measure();
        assert!(p.cores >= 1);
        assert!(p.stream_gbs > 0.1, "triad rate {}", p.stream_gbs);
    }
}
