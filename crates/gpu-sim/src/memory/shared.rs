//! Per-block shared memory with bank-conflict accounting.
//!
//! Shared memory is organized as 32 banks of 4-byte words. A warp access
//! completes in one pass when every active lane touches a distinct bank (or
//! lanes touching the same bank read the *same* word — the broadcast case);
//! otherwise the access is replayed once per additional word mapped to the
//! most-contended bank.

use crate::lane::{LaneMask, VF, VU, WARP};

/// A block's shared-memory arena (f32 words).
#[derive(Debug)]
pub struct SharedMem {
    data: Vec<f32>,
    banks: usize,
}

impl SharedMem {
    /// Create an arena able to hold `words` f32 values, interleaved over
    /// `banks` banks (a power of two, at most one per warp lane).
    pub fn new(words: usize, banks: usize) -> Self {
        assert!(
            (1..=WARP).contains(&banks) && banks.is_power_of_two(),
            "shared memory needs a power-of-two bank count in 1..={WARP}, got {banks}"
        );
        SharedMem {
            data: vec![0.0; words],
            banks,
        }
    }

    /// Capacity in words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Debug check that the pass count is insensitive to inactive-lane
    /// indices: recompute with inactive lanes poisoned and require the same
    /// result. Guards the invariant the analyzer's OOB pass relies on — a
    /// masked-off garbage index must cost (and mean) nothing.
    #[cfg(debug_assertions)]
    fn assert_inactive_lanes_ignored(&self, idx: &VU, mask: LaneMask, passes: u64) {
        let poisoned = VU::from_fn(|l| {
            if mask.get(l) {
                idx.lane(l)
            } else {
                0xDEAD_0000 + l as u32
            }
        });
        debug_assert_eq!(
            self.passes(&poisoned, mask),
            passes,
            "inactive-mask lanes contributed shared-memory passes"
        );
    }

    /// The bank holding word `w`.
    #[inline]
    fn bank(&self, w: u32) -> usize {
        w as usize & (self.banks - 1)
    }

    /// Number of serialized passes for a warp access at the given word
    /// indices: `max_b (distinct words in bank b)`, minimum 1 for any
    /// active access.
    pub fn passes(&self, idx: &VU, mask: LaneMask) -> u64 {
        if mask.is_empty() {
            return 0;
        }
        // One pass when every active lane has a bank of its own.
        let mut banks_hit = 0u32;
        for lane in mask.lanes() {
            banks_hit |= 1 << self.bank(idx.lane(lane));
        }
        if banks_hit.count_ones() == mask.count() {
            return 1;
        }
        // Sorting the active words puts duplicates side by side, so each
        // distinct word is counted once in its bank: same word in the same
        // bank broadcasts.
        let mut words = idx.0;
        let mut n = WARP;
        if !mask.is_full() {
            n = 0;
            for lane in mask.lanes() {
                words[n] = idx.lane(lane);
                n += 1;
            }
        }
        let words = &mut words[..n];
        words.sort_unstable();
        let mut per_bank = [0u32; WARP];
        let mut worst = 1;
        for (i, &w) in words.iter().enumerate() {
            if i > 0 && words[i - 1] == w {
                continue;
            }
            let bank = &mut per_bank[self.bank(w)];
            *bank += 1;
            worst = worst.max(*bank);
        }
        worst as u64
    }

    /// Warp load. Returns the loaded lanes (inactive lanes read 0.0) and the
    /// number of serialized passes.
    pub fn load(&self, idx: &VU, mask: LaneMask) -> (VF, u64) {
        let passes = self.passes(idx, mask);
        #[cfg(debug_assertions)]
        self.assert_inactive_lanes_ignored(idx, mask, passes);
        let v = VF::from_fn(|l| {
            if mask.get(l) {
                let i = idx.lane(l) as usize;
                assert!(
                    i < self.data.len(),
                    "shared load OOB: {i} >= {}",
                    self.data.len()
                );
                self.data[i]
            } else {
                0.0
            }
        });
        (v, passes)
    }

    /// Vectorized warp load (`LDS.128`): each active lane reads `K`
    /// consecutive words starting at its index. Bank serialization is
    /// computed over 16-byte segments — a warp-uniform (broadcast) vec4
    /// read costs a single pass, which is how real GEMM kernels amortize
    /// their shared-memory A-operand reads.
    pub fn load_vec<const K: usize>(&self, idx: &VU, mask: LaneMask) -> ([VF; K], u64) {
        assert!(
            K.is_power_of_two() && K <= 4,
            "LDS supports 1/2/4-word vectors"
        );
        if mask.is_empty() {
            return ([VF::splat(0.0); K], 0);
        }
        // Distinct 4-word segments per bank-group decide the pass count;
        // a K-word access must be K-word aligned (as on hardware).
        let mut out = [VF::splat(0.0); K];
        let mut segs = [0u32; WARP];
        let mut n = 0;
        for lane in mask.lanes() {
            let base = idx.lane(lane);
            assert!(
                (base as usize).is_multiple_of(K),
                "vector smem access must be aligned"
            );
            // Neighbouring lanes usually read the same segment: skip the
            // repeat here so the sort below sees few entries.
            let seg = base / 4;
            if n == 0 || segs[n - 1] != seg {
                segs[n] = seg;
                n += 1;
            }
            let words = self
                .data
                .get(base as usize..base as usize + K)
                .expect("shared vec load OOB");
            for (v, &w) in out.iter_mut().zip(words) {
                v.0[lane] = w;
            }
        }
        let segs = &mut segs[..n];
        segs.sort_unstable();
        let distinct = 1 + segs.windows(2).filter(|p| p[0] != p[1]).count();
        // 16 B lanes: 8 segments move per 128 B pass.
        (out, (distinct as u64).div_ceil(8))
    }

    /// Fault-injection hook ([`crate::faults`]): flip one bit of word
    /// `idx`, modelling an SRAM upset that persists until the word is next
    /// overwritten. No-op (never a panic) when `idx` is out of the arena —
    /// the injector picks among indices a real access just touched, so a
    /// miss here only happens for empty arenas.
    pub fn corrupt_word(&mut self, idx: usize, bit: u32) {
        if let Some(w) = self.data.get_mut(idx) {
            *w = crate::faults::flip_f32_bit(*w, bit);
        }
    }

    /// Warp store. When two active lanes write the same word, the
    /// lower-numbered lane wins deterministically (hardware leaves it
    /// undefined; a fixed rule keeps simulations reproducible).
    pub fn store(&mut self, idx: &VU, val: &VF, mask: LaneMask) -> u64 {
        let passes = self.passes(idx, mask);
        #[cfg(debug_assertions)]
        self.assert_inactive_lanes_ignored(idx, mask, passes);
        // Iterate high→low so the lowest active lane's value lands last.
        for lane in (0..WARP).rev().filter(|&l| mask.get(l)) {
            let i = idx.lane(lane) as usize;
            assert!(
                i < self.data.len(),
                "shared store OOB: {i} >= {}",
                self.data.len()
            );
            self.data[i] = val.lane(lane);
        }
        passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn smem(words: usize) -> SharedMem {
        SharedMem::new(words, 32)
    }

    /// The straightforward pass count: a per-bank list of distinct words.
    fn passes_oracle(banks: usize, idx: &VU, mask: LaneMask) -> u64 {
        if mask.is_empty() {
            return 0;
        }
        let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks];
        for lane in mask.lanes() {
            let w = idx.lane(lane);
            let bank = &mut per_bank[w as usize % banks];
            if !bank.contains(&w) {
                bank.push(w);
            }
        }
        per_bank
            .iter()
            .map(|v| v.len() as u64)
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// The straightforward vector-load pass count: distinct 16-byte
    /// segments, eight per pass.
    fn vec_passes_oracle(idx: &VU, mask: LaneMask) -> u64 {
        let segs: std::collections::BTreeSet<u32> = mask.lanes().map(|l| idx.lane(l) / 4).collect();
        (segs.len() as u64).div_ceil(8)
    }

    /// Word indices shaped to hit the interesting pass counts: arbitrary,
    /// broadcast-heavy, all lanes in one bank (up to 32-way), and a few
    /// words per bank with repeats.
    fn shaped(raw: &[u32], shape: u32) -> VU {
        VU::from_fn(|l| match shape {
            0 => raw[l] % 4096,
            1 => raw[l] % 4,
            2 => (raw[l] % 64) * 32,
            _ => (raw[l] % 3) * 32 + (l as u32 % 5),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn passes_match_per_bank_oracle(
            raw in prop::collection::vec(any::<u32>(), WARP),
            mask in any::<u32>(),
            shape in 0u32..4,
            banks_pow in 0u32..6,
        ) {
            let idx = shaped(&raw, shape);
            let mask = LaneMask(mask);
            let banks = 1usize << banks_pow;
            let s = SharedMem::new(8192, banks);
            prop_assert_eq!(s.passes(&idx, mask), passes_oracle(banks, &idx, mask));
            prop_assert_eq!(s.passes(&idx, LaneMask::ALL), passes_oracle(banks, &idx, LaneMask::ALL));
        }

        #[test]
        fn vec_load_passes_match_segment_oracle(
            raw in prop::collection::vec(any::<u32>(), WARP),
            mask in any::<u32>(),
            shape in 0u32..4,
        ) {
            let idx = shaped(&raw, shape) * 4;
            let mask = LaneMask(mask);
            let s = SharedMem::new(4096 * 4 + 4, 32);
            let (_, passes) = s.load_vec::<4>(&idx, mask);
            prop_assert_eq!(passes, vec_passes_oracle(&idx, mask));
        }
    }

    #[test]
    fn conflict_free_unit_stride() {
        let s = smem(64);
        let idx = VU::lane_id();
        assert_eq!(s.passes(&idx, LaneMask::ALL), 1);
    }

    #[test]
    fn broadcast_same_word_is_one_pass() {
        let s = smem(64);
        let idx = VU::splat(5);
        assert_eq!(s.passes(&idx, LaneMask::ALL), 1);
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        let s = smem(128);
        let idx = VU::from_fn(|l| (l * 2) as u32);
        assert_eq!(s.passes(&idx, LaneMask::ALL), 2);
    }

    #[test]
    fn stride_32_is_fully_serialized() {
        let s = smem(2048);
        let idx = VU::from_fn(|l| (l * 32) as u32);
        assert_eq!(s.passes(&idx, LaneMask::ALL), 32);
    }

    #[test]
    fn lane_pairs_sharing_a_word_give_sixteen_way_conflict() {
        let s = smem(2048);
        let idx = VU::from_fn(|l| (l / 2 * 32) as u32);
        assert_eq!(s.passes(&idx, LaneMask::ALL), 16);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut s = smem(64);
        let idx = VU::lane_id();
        let val = VF::from_fn(|l| l as f32 * 1.5);
        s.store(&idx, &val, LaneMask::ALL);
        let (rd, passes) = s.load(&idx, LaneMask::ALL);
        assert_eq!(rd, val);
        assert_eq!(passes, 1);
    }

    #[test]
    fn conflicting_store_low_lane_wins() {
        let mut s = smem(8);
        let idx = VU::splat(3);
        let val = VF::from_fn(|l| l as f32);
        s.store(&idx, &val, LaneMask::ALL);
        let (rd, _) = s.load(&VU::splat(3), LaneMask::first(1));
        assert_eq!(rd.lane(0), 0.0);
    }

    #[test]
    fn masked_lanes_do_not_access() {
        let s = smem(4);
        // lane 20 would be OOB, but it is masked off
        let idx = VU::from_fn(|l| if l < 4 { l as u32 } else { 1000 });
        let (v, p) = s.load(&idx, LaneMask::first(4));
        assert_eq!(p, 1);
        assert_eq!(v.lane(3), 0.0);
    }

    #[test]
    fn inactive_lane_garbage_never_adds_passes() {
        // Regression: inactive lanes carrying maximally bank-conflicting
        // (and OOB) indices must not change the pass count of the access.
        let mut s = smem(64);
        let mask = LaneMask::first(8);
        let clean = VU::from_fn(|l| if l < 8 { l as u32 } else { 0 });
        let dirty = VU::from_fn(|l| {
            if l < 8 {
                l as u32
            } else {
                7000 + (l as u32) * 32
            }
        });
        assert_eq!(s.passes(&clean, mask), s.passes(&dirty, mask));
        let (vc, pc) = s.load(&clean, mask);
        let (vd, pd) = s.load(&dirty, mask);
        assert_eq!((vc, pc), (vd, pd));
        assert_eq!(s.store(&clean, &VF::splat(1.0), mask), pc);
    }

    #[test]
    fn empty_mask_costs_nothing() {
        let s = smem(4);
        assert_eq!(s.passes(&VU::splat(0), LaneMask::NONE), 0);
    }
}
