//! The four benchmark machines of paper Table I.

/// A machine model: Table I's published figures plus a few latency
/// parameters calibrated once (see crate docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Machine {
    /// Display name.
    pub name: &'static str,
    /// Core count (total across sockets; 60 used on the Phi).
    pub cores: usize,
    /// Clock in GHz.
    pub freq_ghz: f64,
    /// Last-level cache in MB (per chip × chips).
    pub cache_mb: f64,
    /// STREAM bandwidth, GB/s (the achievable roof, not the vendor peak).
    pub stream_gbs: f64,
    /// DGEMM throughput, GFLOP/s (achievable compute roof, DP).
    pub gemm_dp: f64,
    /// SGEMM throughput, GFLOP/s (SP).
    pub gemm_sp: f64,
    /// Vector lanes for doubles (4 AVX, 8 IMCI, 32 warp-equivalent).
    pub vec_dp: usize,
    /// Per-element extra cost of a gathered (vs streamed) byte, as a
    /// bandwidth derating factor in [0, 1]: effective BW for fully
    /// irregular access = `stream_gbs * gather_eff`.
    pub gather_eff: f64,
    /// Cycles per serialized scatter lane-element on one core (the
    /// colored increment's cost driver; whole-machine cost divides by
    /// `cores`).
    pub scatter_cycles: f64,
    /// Scalar-issue recovery factor: out-of-order CPUs reclaim some of
    /// the lost lanes through superscalar ILP (>1); the Phi's in-order
    /// cores issue scalar code far below one op/cycle (<1).
    pub scalar_ilp: f64,
    /// Scalar `sqrt`-class instruction cost in cycles (§6.2 quotes 44 on
    /// the CPU).
    pub sqrt_cycles: f64,
    /// Per-loop threading launch overhead, microseconds (OpenMP barrier /
    /// CUDA launch).
    pub launch_us: f64,
    /// Additional per-work-group scheduling cost of the OpenCL runtime,
    /// nanoseconds (§4.1: TBB scheduling beats static OpenMP loops).
    pub opencl_sched_ns: f64,
    /// MPI synchronization overhead as a fraction of compute time at the
    /// paper's 2.8M-cell scale (§6.5: ~4% CPU, ~13% Phi).
    pub mpi_sync_frac: f64,
    /// Is this a GPU (SIMT-native: gathers in hardware, no scalar
    /// fallback penalty)?
    pub is_gpu: bool,
}

impl Machine {
    /// Vector lanes for a given word size.
    pub fn vec_lanes(&self, word_bytes: usize) -> usize {
        if word_bytes == 8 {
            self.vec_dp
        } else {
            self.vec_dp * 2
        }
    }

    /// GEMM roof for a word size.
    pub fn gemm(&self, word_bytes: usize) -> f64 {
        if word_bytes == 8 {
            self.gemm_dp
        } else {
            self.gemm_sp
        }
    }

    /// Machine balance FLOP/byte (Table I's last row) at a word size.
    pub fn flop_per_byte(&self, word_bytes: usize) -> f64 {
        self.gemm(word_bytes) / self.stream_gbs
    }
}

/// CPU 1: 2 × Xeon E5-2640 (Sandy Bridge), Table I column 1.
pub fn cpu1() -> Machine {
    Machine {
        name: "CPU1 (2x E5-2640)",
        cores: 12,
        freq_ghz: 2.4,
        cache_mb: 30.0,
        stream_gbs: 66.8,
        gemm_dp: 229.0,
        gemm_sp: 433.0,
        vec_dp: 4,
        gather_eff: 0.55,
        scatter_cycles: 3.0,
        scalar_ilp: 1.4,
        // §6.2 quotes 44 cycles/sqrt; measured adt_calc implies partial
        // pipelining, ~28 effective
        sqrt_cycles: 28.0,
        launch_us: 4.0,
        opencl_sched_ns: 80.0,
        mpi_sync_frac: 0.04,
        is_gpu: false,
    }
}

/// CPU 2: 2 × Xeon E5-2697 v2 (Ivy Bridge), Table I column 2.
pub fn cpu2() -> Machine {
    Machine {
        name: "CPU2 (2x E5-2697v2)",
        cores: 24,
        freq_ghz: 2.7,
        cache_mb: 60.0,
        stream_gbs: 98.76,
        gemm_dp: 510.0,
        gemm_sp: 944.0,
        vec_dp: 4,
        // double the cache: indirect access suffers less
        gather_eff: 0.65,
        scatter_cycles: 2.5,
        scalar_ilp: 1.4,
        sqrt_cycles: 28.0,
        launch_us: 5.0,
        opencl_sched_ns: 80.0,
        mpi_sync_frac: 0.04,
        is_gpu: false,
    }
}

/// Xeon Phi 5110P (KNC), Table I column 3.
pub fn phi() -> Machine {
    Machine {
        name: "Xeon Phi 5110P",
        cores: 60,
        freq_ghz: 1.053,
        cache_mb: 30.0,
        stream_gbs: 171.0,
        gemm_dp: 833.0,
        gemm_sp: 1729.0,
        vec_dp: 8,
        // in-order cores, gathers stall hard (§6.6: indirect kernels
        // "significantly slower")
        gather_eff: 0.28,
        scatter_cycles: 4.0,
        scalar_ilp: 0.25,
        sqrt_cycles: 60.0,
        launch_us: 12.0,
        opencl_sched_ns: 120.0,
        mpi_sync_frac: 0.13,
        is_gpu: false,
    }
}

/// NVIDIA Tesla K40, Table I column 4.
pub fn k40() -> Machine {
    Machine {
        name: "Tesla K40",
        cores: 2880,
        freq_ghz: 0.87,
        cache_mb: 1.5,
        stream_gbs: 244.0,
        gemm_dp: 1420.0,
        gemm_sp: 3730.0,
        // warp of 32 threads behaves like 32 DP lanes for serialization
        vec_dp: 32,
        gather_eff: 0.22,
        scatter_cycles: 12.0,
        scalar_ilp: 1.0,
        sqrt_cycles: 8.0,
        launch_us: 6.0,
        opencl_sched_ns: 0.0,
        mpi_sync_frac: 0.02,
        is_gpu: true,
    }
}

/// All four machines in Table I order.
pub fn all() -> Vec<Machine> {
    vec![cpu1(), cpu2(), phi(), k40()]
}

/// A machine calibrated from a live host probe: measured core count and
/// STREAM bandwidth, with the latency/efficiency parameters inherited
/// from [`cpu1`]'s calibration (the closest paper machine to a generic
/// out-of-order x86 host). The compute roof is estimated from the core
/// count at a nominal 2.5 GHz with 4 DP lanes × FMA — crude: a model
/// to set beside host measurements, not an absolute FLOP/s figure.
///
/// Deliberately **not** part of [`all`]: the Table I tests iterate that
/// list and pin its bandwidth ordering to the paper.
pub fn host(cores: usize, stream_gbs: f64) -> Machine {
    let cores = cores.max(1);
    let freq_ghz = 2.5;
    Machine {
        name: "host (auto-calibrated)",
        cores,
        freq_ghz,
        cache_mb: 2.5 * cores as f64,
        stream_gbs: stream_gbs.max(1.0),
        // 4 DP lanes × 2 (FMA) per cycle per core
        gemm_dp: cores as f64 * freq_ghz * 8.0,
        gemm_sp: cores as f64 * freq_ghz * 16.0,
        vec_dp: 4,
        gather_eff: 0.55,
        scatter_cycles: 3.0,
        scalar_ilp: 1.4,
        sqrt_cycles: 28.0,
        launch_us: 4.0,
        opencl_sched_ns: 80.0,
        mpi_sync_frac: 0.04,
        is_gpu: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_balance_column_reproduced() {
        // paper Table I FLOP/byte row: 3.42(6.48), 5.43(9.34), 4.87(10.1),
        // 6.35(16.3) — computed from GEMM/stream pairs ±STREAM rounding
        let expect = [
            (cpu1(), 3.42, 6.48),
            (cpu2(), 5.43, 9.34),
            (phi(), 4.87, 10.1),
            (k40(), 6.35, 16.3),
        ];
        for (m, dp, sp) in expect {
            assert!(
                (m.flop_per_byte(8) - dp).abs() < 0.6,
                "{}: dp {} vs {}",
                m.name,
                m.flop_per_byte(8),
                dp
            );
            assert!(
                (m.flop_per_byte(4) - sp).abs() < 1.1,
                "{}: sp {} vs {}",
                m.name,
                m.flop_per_byte(4),
                sp
            );
        }
    }

    #[test]
    fn lane_widths() {
        assert_eq!(cpu1().vec_lanes(8), 4);
        assert_eq!(cpu1().vec_lanes(4), 8);
        assert_eq!(phi().vec_lanes(4), 16);
        assert_eq!(k40().vec_lanes(8), 32);
    }

    #[test]
    fn bandwidth_ordering_matches_paper() {
        // paper §6.6: K40 > Phi > CPU2 > CPU1 in stream bandwidth
        let bw: Vec<f64> = all().iter().map(|m| m.stream_gbs).collect();
        assert!(bw[3] > bw[2] && bw[2] > bw[1] && bw[1] > bw[0]);
    }
}
