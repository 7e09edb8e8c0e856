//! Device descriptions: the hardware parameters that drive the cache
//! geometry and the timing model.

/// Static description of a simulated GPU.
///
/// The default preset models the NVIDIA GeForce RTX 2080 Ti used in the
/// paper's evaluation (Turing TU102, CUDA 10.2 era). Figures are public
/// datasheet / microbenchmark values:
///
/// * 68 SMs @ 1.545 GHz boost, 64 FP32 lanes per SM → 13.45 TFLOP/s FP32
/// * 11 GiB GDDR6 @ 616 GB/s
/// * 5.5 MiB L2, ~2.0 TB/s measured read bandwidth
/// * 64 KiB L1/tex per SM (96 KiB carveout configurable); 32-bit loads
///   sustain ~32 B/cycle/SM (one 32 B sector per cycle), the figure
///   microbenchmark studies report for Turing — this is what makes
///   *memory transactions* (sectors) a first-class cost, as the paper
///   argues
/// * 64 K 32-bit registers per SM, 255 per thread max
/// * 32-byte memory transaction (sector) granularity — the unit the paper
///   counts as one "memory transaction"
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Human-readable name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// FP32 lanes (CUDA cores) per SM.
    pub fp32_lanes_per_sm: u32,
    /// DRAM bandwidth, bytes/second.
    pub dram_bw: f64,
    /// L2 aggregate bandwidth, bytes/second.
    pub l2_bw: f64,
    /// Aggregate L1 bandwidth across the device, bytes/second.
    pub l1_bw: f64,
    /// Aggregate shared-memory bandwidth across the device, bytes/second.
    pub smem_bw: f64,
    /// L1 cache capacity per SM, bytes.
    pub l1_bytes: usize,
    /// L1 associativity (ways).
    pub l1_ways: usize,
    /// L2 cache capacity (device-wide), bytes.
    pub l2_bytes: usize,
    /// L2 associativity (ways).
    pub l2_ways: usize,
    /// Cache line size in bytes (tag granularity).
    pub line_bytes: usize,
    /// Sector size in bytes (fill & transaction granularity).
    pub sector_bytes: usize,
    /// Shared-memory banks (a power of two, at most 32).
    pub smem_banks: usize,
    /// Registers (32-bit) per SM.
    pub regs_per_sm: u32,
    /// Max resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Shared memory per SM, bytes.
    pub smem_per_sm: usize,
    /// Fixed cost of one kernel launch, seconds (driver + dispatch).
    pub launch_overhead_s: f64,
    /// Round-trip DRAM latency in cycles — the latency floor for tiny grids.
    pub dram_latency_cycles: f64,
    /// Local-memory (register spill) extra latency per transaction, cycles.
    /// The paper quotes ≈500 cycles for dynamically indexed private arrays.
    pub local_mem_latency_cycles: f64,
}

impl DeviceConfig {
    /// The paper's evaluation platform: NVIDIA RTX 2080 Ti.
    pub fn rtx2080ti() -> Self {
        DeviceConfig {
            name: "NVIDIA GeForce RTX 2080 Ti (simulated)".into(),
            sm_count: 68,
            clock_hz: 1.545e9,
            fp32_lanes_per_sm: 64,
            dram_bw: 616.0e9,
            l2_bw: 2000.0e9,
            // 32 B/cycle/SM × 68 SMs × 1.545 GHz
            l1_bw: 3.36e12,
            // 32 banks × 4 B/cycle/SM
            smem_bw: 13.4e12,
            l1_bytes: 64 * 1024,
            l1_ways: 4,
            l2_bytes: 5632 * 1024,
            l2_ways: 16,
            line_bytes: 128,
            sector_bytes: 32,
            smem_banks: 32,
            regs_per_sm: 65536,
            max_threads_per_sm: 1024,
            smem_per_sm: 64 * 1024,
            launch_overhead_s: 4.0e-6,
            dram_latency_cycles: 450.0,
            local_mem_latency_cycles: 500.0,
        }
    }

    /// A previous-generation comparison point: NVIDIA GTX 1080 Ti
    /// (Pascal GP102). Pascal coalesces at 32 B sectors like Turing but has
    /// a smaller, slower L1 and no unified L1/smem.
    pub fn gtx1080ti() -> Self {
        DeviceConfig {
            name: "NVIDIA GeForce GTX 1080 Ti (simulated)".into(),
            sm_count: 28,
            clock_hz: 1.582e9,
            fp32_lanes_per_sm: 128,
            dram_bw: 484.0e9,
            l2_bw: 1300.0e9,
            // ~32 B/cycle/SM × 28 SMs
            l1_bw: 1.42e12,
            smem_bw: 5.7e12,
            l1_bytes: 48 * 1024,
            l1_ways: 4,
            l2_bytes: 2816 * 1024,
            l2_ways: 16,
            line_bytes: 128,
            sector_bytes: 32,
            smem_banks: 32,
            regs_per_sm: 65536,
            max_threads_per_sm: 2048,
            smem_per_sm: 96 * 1024,
            launch_overhead_s: 5.0e-6,
            dram_latency_cycles: 500.0,
            local_mem_latency_cycles: 550.0,
        }
    }

    /// A newer-generation comparison point: an NVIDIA A100-class device
    /// (Ampere GA100, 40 GB HBM2): far more DRAM bandwidth and a 40 MiB L2,
    /// shifting more kernels from memory- to compute-bound.
    pub fn a100_like() -> Self {
        DeviceConfig {
            name: "NVIDIA A100-class (simulated)".into(),
            sm_count: 108,
            clock_hz: 1.41e9,
            fp32_lanes_per_sm: 64,
            dram_bw: 1555.0e9,
            l2_bw: 5000.0e9,
            // ~64 B/cycle/SM on Ampere's wider L1 path
            l1_bw: 9.7e12,
            smem_bw: 19.5e12,
            l1_bytes: 192 * 1024,
            l1_ways: 4,
            l2_bytes: 40 * 1024 * 1024,
            l2_ways: 16,
            line_bytes: 128,
            sector_bytes: 32,
            smem_banks: 32,
            regs_per_sm: 65536,
            max_threads_per_sm: 2048,
            smem_per_sm: 164 * 1024,
            launch_overhead_s: 3.5e-6,
            dram_latency_cycles: 480.0,
            local_mem_latency_cycles: 450.0,
        }
    }

    /// A deliberately tiny device for unit tests: small caches so eviction
    /// paths are exercised with small workloads.
    pub fn test_tiny() -> Self {
        DeviceConfig {
            name: "test-tiny".into(),
            sm_count: 2,
            clock_hz: 1.0e9,
            fp32_lanes_per_sm: 64,
            dram_bw: 100.0e9,
            l2_bw: 400.0e9,
            l1_bw: 1600.0e9,
            smem_bw: 1600.0e9,
            l1_bytes: 2 * 1024,
            l1_ways: 2,
            l2_bytes: 8 * 1024,
            l2_ways: 4,
            line_bytes: 128,
            sector_bytes: 32,
            smem_banks: 32,
            regs_per_sm: 65536,
            max_threads_per_sm: 1024,
            smem_per_sm: 48 * 1024,
            launch_overhead_s: 1.0e-6,
            dram_latency_cycles: 400.0,
            local_mem_latency_cycles: 500.0,
        }
    }

    /// Peak FP32 throughput in FLOP/s (2 FLOPs per FMA lane per cycle).
    pub fn peak_flops(&self) -> f64 {
        self.sm_count as f64 * self.fp32_lanes_per_sm as f64 * 2.0 * self.clock_hz
    }

    /// Stable device identity for persisted caches: the name (lowercased,
    /// non-alphanumerics collapsed to `-`) plus the parameters that change
    /// kernel selection — SM count and width, clock, cache geometry and
    /// transaction size. Two devices with equal fingerprints plan
    /// identically, so a plan tuned on one is valid on the other. The
    /// format is part of the plan-cache persistence contract.
    pub fn fingerprint(&self) -> String {
        let mut slug = String::with_capacity(self.name.len());
        for c in self.name.chars() {
            if c.is_ascii_alphanumeric() {
                slug.push(c.to_ascii_lowercase());
            } else if !slug.ends_with('-') {
                slug.push('-');
            }
        }
        let slug = slug.trim_matches('-');
        format!(
            "{slug}@sm{}x{}@{:.0}mhz@l1_{}@l2_{}@line{}@sector{}@warp{}",
            self.sm_count,
            self.fp32_lanes_per_sm,
            self.clock_hz / 1e6,
            self.l1_bytes,
            self.l2_bytes,
            self.line_bytes,
            self.sector_bytes,
            self.max_threads_per_sm,
        )
    }

    /// Sectors per cache line.
    pub fn sectors_per_line(&self) -> usize {
        self.line_bytes / self.sector_bytes
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::rtx2080ti()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx2080ti_peak_flops_matches_datasheet() {
        let d = DeviceConfig::rtx2080ti();
        let tflops = d.peak_flops() / 1e12;
        assert!((13.0..14.0).contains(&tflops), "got {tflops} TFLOP/s");
    }

    #[test]
    fn sector_line_geometry() {
        let d = DeviceConfig::rtx2080ti();
        assert_eq!(d.sectors_per_line(), 4);
        assert_eq!(d.l1_bytes % d.line_bytes, 0);
        assert_eq!(d.l2_bytes % d.line_bytes, 0);
    }

    #[test]
    fn presets_have_consistent_geometry() {
        for d in [
            DeviceConfig::rtx2080ti(),
            DeviceConfig::gtx1080ti(),
            DeviceConfig::a100_like(),
        ] {
            assert_eq!(d.sectors_per_line(), 4, "{}", d.name);
            assert_eq!(d.l1_bytes % (d.line_bytes * d.l1_ways), 0, "{}", d.name);
            assert_eq!(d.l2_bytes % (d.line_bytes * d.l2_ways), 0, "{}", d.name);
            assert!(d.peak_flops() > 1e12, "{}", d.name);
        }
    }

    #[test]
    fn generational_ordering_sane() {
        let pascal = DeviceConfig::gtx1080ti();
        let turing = DeviceConfig::rtx2080ti();
        let ampere = DeviceConfig::a100_like();
        assert!(pascal.dram_bw < turing.dram_bw);
        assert!(turing.dram_bw < ampere.dram_bw);
        assert!(ampere.l2_bytes > 4 * turing.l2_bytes);
    }

    #[test]
    fn fingerprints_are_distinct_stable_and_filesystem_safe() {
        let presets = [
            DeviceConfig::rtx2080ti(),
            DeviceConfig::gtx1080ti(),
            DeviceConfig::a100_like(),
            DeviceConfig::test_tiny(),
        ];
        let fps: Vec<String> = presets.iter().map(|d| d.fingerprint()).collect();
        let unique: std::collections::BTreeSet<&String> = fps.iter().collect();
        assert_eq!(unique.len(), presets.len(), "{fps:?}");
        for fp in &fps {
            assert!(
                fp.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_@.".contains(c)),
                "unsafe char in {fp}"
            );
        }
        // renaming alone changes the fingerprint; bandwidth alone does not
        // (bandwidth shifts modeled times uniformly, not plan validity)
        let mut d = DeviceConfig::rtx2080ti();
        assert_eq!(d.fingerprint(), DeviceConfig::rtx2080ti().fingerprint());
        d.name = "something else".into();
        assert_ne!(d.fingerprint(), DeviceConfig::rtx2080ti().fingerprint());
    }

    #[test]
    fn tiny_device_has_small_caches() {
        let d = DeviceConfig::test_tiny();
        assert!(d.l1_bytes < DeviceConfig::rtx2080ti().l1_bytes);
        assert_eq!(d.l1_bytes / d.line_bytes % d.l1_ways, 0);
    }
}
