//! Sample statistics, process memory, and the provenance block every
//! result carries.

use std::path::PathBuf;

use crate::json::quote;

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Median of `reps` timings of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Teams, ranks and pools never oversubscribe the host.
pub fn clamp_to_host(requested: usize) -> usize {
    requested.min(nproc()).max(1)
}

/// The benchmark package's directory: `cargo run` exports it, and the
/// compile-time value covers running the built binary directly.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Commit of the checkout, read from `<repo>/.git` without walking up
/// (the driver's checkout is not a repository: "unknown" there).
fn git_commit() -> String {
    let git = package_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().into();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Data-cache sizes of cpu0, smallest first, as the kernel names them.
fn cache_sizes() -> String {
    let mut levels = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        match (read("level"), read("type"), read("size")) {
            (Ok(level), Ok(kind), Ok(size)) if kind != "Instruction" => {
                levels.push(format!("L{level}={size}"));
            }
            _ => {}
        }
    }
    if levels.is_empty() {
        "unknown".into()
    } else {
        levels.join(" ")
    }
}

/// Ordered key/value provenance; printed with every result and stored
/// in the trace file.
#[derive(Default)]
pub struct Provenance(Vec<(String, String)>);

impl Provenance {
    pub fn for_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Provenance {
        let mut p = Provenance::default();
        p.put("workload", workload);
        p.put("seed", seed);
        p.put("seconds", seconds);
        p.put("traced", traced);
        p.put("git_commit", git_commit());
        p.put("rustc", env!("UMP_BENCH_RUSTC"));
        p.put("rustflags", env!("UMP_BENCH_RUSTFLAGS"));
        p.put("target", env!("UMP_BENCH_TARGET"));
        p.put("isa", ump_simd::isa_name());
        p.put("nproc", nproc());
        p.put("caches", cache_sizes());
        p
    }

    pub fn put(&mut self, key: &str, value: impl ToString) {
        self.0.push((key.to_string(), value.to_string()));
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect();
        format!("{{{}}}", rows.join(","))
    }
}
