//! Per-loop instrumentation: the timing/bandwidth/GFLOP bookkeeping
//! behind Tables V–VIII ("useful bandwidth, calculated based on the
//! minimal amount of data moved", §6.1).

use std::collections::HashMap;
use std::time::Instant;

use parking_lot::Mutex;

use crate::profile::LoopProfile;

/// Accumulated statistics of one parallel loop.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoopStats {
    /// Number of invocations.
    pub calls: usize,
    /// Total wall seconds.
    pub seconds: f64,
    /// Total useful bytes moved (paper counting: per-element words ×
    /// word size × elements, no cache or map-table corrections).
    pub bytes: f64,
    /// Total useful FLOPs.
    pub flops: f64,
}

impl LoopStats {
    /// Achieved useful bandwidth in GB/s.
    pub fn gb_per_s(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.bytes / self.seconds / 1e9
        }
    }

    /// Achieved computational throughput in GFLOP/s.
    pub fn gflop_per_s(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.flops / self.seconds / 1e9
        }
    }
}

/// Accumulated cross-loop fusion statistics of one recorded chain (the
/// `ump-lazy` runtime reports these): how many pool dispatch rounds and
/// how much re-streamed memory traffic fusion saved versus running the
/// same chain loop-by-loop.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FusionStats {
    /// Chain executions recorded.
    pub executions: usize,
    /// Loops recorded, summed over executions.
    pub loops: usize,
    /// Groups dispatched (fused and sequential), summed over executions.
    pub groups: usize,
    /// Pool dispatch rounds the fused execution issued.
    pub fused_rounds: usize,
    /// Rounds the same chain issues when every loop runs alone (the
    /// unfused drivers' dispatch count).
    pub unfused_rounds: usize,
    /// Read bytes *not* re-streamed from memory because a fused group
    /// revisits a dat while its block is still cache-resident (paper
    /// counting: useful words × word size, no cache modelling).
    pub bytes_saved: f64,
    /// Timesteps covered per execution, summed over executions: 1 for a
    /// per-step chain, N for a cross-timestep tiled super-chain.
    pub steps: usize,
    /// Dat bytes that stayed tile-resident *across* timestep boundaries
    /// instead of making a memory round trip per step — the
    /// bandwidth-elimination a cross-timestep tiled execution adds on
    /// top of within-step fusion (0 for per-step chains).
    pub cross_step_bytes_saved: f64,
}

impl FusionStats {
    /// Dispatch rounds (≈ team-wide barriers) fusion removed.
    pub fn rounds_saved(&self) -> usize {
        self.unfused_rounds.saturating_sub(self.fused_rounds)
    }
}

/// A per-run recorder of loop statistics.
#[derive(Default)]
pub struct Recorder {
    stats: Mutex<HashMap<String, LoopStats>>,
    fusion: Mutex<HashMap<String, FusionStats>>,
}

impl Recorder {
    /// Fresh recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Time `f` as one invocation of `profile` over `n_elems` elements of
    /// a `word_bytes` application (4 = SP, 8 = DP).
    pub fn time<T>(
        &self,
        profile: &LoopProfile,
        word_bytes: usize,
        n_elems: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.record(
            &profile.name,
            dt,
            profile.bytes_per_elem(word_bytes) * n_elems as f64,
            profile.flops_per_elem * n_elems as f64,
        );
        out
    }

    /// Record a pre-measured invocation.
    pub fn record(&self, name: &str, seconds: f64, bytes: f64, flops: f64) {
        let mut stats = self.stats.lock();
        let entry = stats.entry(name.to_string()).or_default();
        entry.calls += 1;
        entry.seconds += seconds;
        entry.bytes += bytes;
        entry.flops += flops;
    }

    /// Statistics of one loop, if recorded.
    pub fn get(&self, name: &str) -> Option<LoopStats> {
        self.stats.lock().get(name).copied()
    }

    /// All statistics sorted by loop name.
    pub fn report(&self) -> Vec<(String, LoopStats)> {
        let stats = self.stats.lock();
        let mut rows: Vec<_> = stats.iter().map(|(k, v)| (k.clone(), *v)).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Sum of wall seconds over all loops, each counted once. `ump_lazy`
    /// records a fused group under `fused[a+b+…]` and again under its
    /// members' names, whose shares add up to the group's time, so only
    /// the members are summed.
    pub fn total_seconds(&self) -> f64 {
        self.stats
            .lock()
            .iter()
            .filter(|(name, _)| !name.starts_with("fused["))
            .map(|(_, s)| s.seconds)
            .sum()
    }

    /// Accumulate one chain execution's fusion statistics under the
    /// chain's name.
    pub fn record_fusion(&self, chain: &str, delta: FusionStats) {
        let mut fusion = self.fusion.lock();
        let e = fusion.entry(chain.to_string()).or_default();
        e.executions += delta.executions.max(1);
        e.loops += delta.loops;
        e.groups += delta.groups;
        e.fused_rounds += delta.fused_rounds;
        e.unfused_rounds += delta.unfused_rounds;
        e.bytes_saved += delta.bytes_saved;
        e.steps += delta.steps.max(1);
        e.cross_step_bytes_saved += delta.cross_step_bytes_saved;
    }

    /// Fusion statistics of one chain, if recorded.
    pub fn fusion(&self, chain: &str) -> Option<FusionStats> {
        self.fusion.lock().get(chain).copied()
    }

    /// All fusion statistics sorted by chain name.
    pub fn fusion_report(&self) -> Vec<(String, FusionStats)> {
        let fusion = self.fusion.lock();
        let mut rows: Vec<_> = fusion.iter().map(|(k, v)| (k.clone(), *v)).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arg::{Access, ArgInfo};

    fn copy_profile() -> LoopProfile {
        LoopProfile {
            name: "save_soln".into(),
            set: "cells".into(),
            args: vec![
                ArgInfo::direct("q", 4, Access::Read),
                ArgInfo::direct("qold", 4, Access::Write),
            ],
            flops_per_elem: 4.0,
            transcendentals_per_elem: 0.0,
            description: "Direct copy".into(),
        }
    }

    #[test]
    fn time_accumulates_volume() {
        let rec = Recorder::new();
        let p = copy_profile();
        rec.time(&p, 8, 1000, || {});
        rec.time(&p, 8, 1000, || {});
        let s = rec.get("save_soln").unwrap();
        assert_eq!(s.calls, 2);
        // 8 words/elem * 8 B * 1000 elems * 2 calls
        assert_eq!(s.bytes, 2.0 * 8.0 * 8.0 * 1000.0);
        assert_eq!(s.flops, 2.0 * 4.0 * 1000.0);
        assert!(s.seconds >= 0.0);
    }

    #[test]
    fn derived_rates() {
        let rec = Recorder::new();
        rec.record("k", 0.5, 1e9, 2e9);
        let s = rec.get("k").unwrap();
        assert!((s.gb_per_s() - 2.0).abs() < 1e-12);
        assert!((s.gflop_per_s() - 4.0).abs() < 1e-12);
        let zero = LoopStats::default();
        assert_eq!(zero.gb_per_s(), 0.0);
    }

    #[test]
    fn report_is_sorted_and_total_sums() {
        let rec = Recorder::new();
        rec.record("b", 1.0, 0.0, 0.0);
        rec.record("a", 2.0, 0.0, 0.0);
        let rows = rec.report();
        assert_eq!(rows[0].0, "a");
        assert_eq!(rows[1].0, "b");
        assert_eq!(rec.total_seconds(), 3.0);
    }

    #[test]
    fn fusion_stats_accumulate_per_chain() {
        let rec = Recorder::new();
        assert!(rec.fusion("airfoil_step").is_none());
        let delta = FusionStats {
            executions: 1,
            loops: 9,
            groups: 7,
            fused_rounds: 9,
            unfused_rounds: 11,
            bytes_saved: 1000.0,
            steps: 0,
            cross_step_bytes_saved: 0.0,
        };
        rec.record_fusion("airfoil_step", delta);
        rec.record_fusion("airfoil_step", delta);
        let s = rec.fusion("airfoil_step").unwrap();
        assert_eq!(s.executions, 2);
        assert_eq!(s.loops, 18);
        assert_eq!(s.fused_rounds, 18);
        assert_eq!(s.rounds_saved(), 4);
        assert_eq!(s.bytes_saved, 2000.0);
        // legacy per-step chains (steps: 0 in the delta) count 1 step
        // per execution so steps-per-execution stays meaningful
        assert_eq!(s.steps, 2);
        assert_eq!(s.cross_step_bytes_saved, 0.0);
        assert_eq!(rec.fusion_report().len(), 1);
        // a tiled super-chain reports its real step count and the
        // cross-step traffic it kept tile-resident
        rec.record_fusion(
            "airfoil_tiled",
            FusionStats {
                executions: 1,
                loops: 36,
                groups: 1,
                fused_rounds: 2,
                unfused_rounds: 36,
                bytes_saved: 0.0,
                steps: 4,
                cross_step_bytes_saved: 4096.0,
            },
        );
        let t = rec.fusion("airfoil_tiled").unwrap();
        assert_eq!(t.steps, 4);
        assert_eq!(t.cross_step_bytes_saved, 4096.0);
    }
}
