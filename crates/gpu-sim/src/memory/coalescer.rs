//! The global-memory coalescer.
//!
//! When a warp executes a load or store, the hardware inspects the 32 lane
//! addresses and merges them into the minimal set of 32-byte *sectors*
//! (Volta/Turing granularity). Each distinct sector is one **memory
//! transaction** — the quantity the paper's two optimizations reduce.

use crate::lane::{LaneMask, WARP};

/// Capacity of a [`coalesce_into`] output: a warp access of at most one
/// sector per lane touches at most two sectors per lane.
pub const MAX_SECTORS: usize = 2 * WARP;

/// The sector set of one warp-level access, as returned by [`coalesce`]:
/// each sector a warp access touches appears once, by its base address, in
/// ascending order. The simulator's own datapath uses the allocation-free
/// [`coalesce_into`]; this owned form is for callers that keep the set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalesceResult {
    /// Distinct sector base addresses touched, ascending.
    pub sectors: Vec<u64>,
}

impl CoalesceResult {
    /// Number of memory transactions this access costs: one per sector.
    pub fn transactions(&self) -> u64 {
        self.sectors.len() as u64
    }
}

/// Coalesce a warp access of `size` bytes per lane at the given byte
/// addresses into `out`, returning how many sectors it touches: `out[..n]`
/// holds their distinct base addresses, ascending. Inactive lanes
/// contribute nothing. An access that straddles a sector boundary touches
/// both sectors (possible with mis-aligned layouts).
///
/// Panics unless `sector_bytes` is a power of two and
/// `1 <= size <= sector_bytes`, which bounds the result by [`MAX_SECTORS`].
pub fn coalesce_into(
    addrs: &[u64; WARP],
    mask: LaneMask,
    size: u32,
    sector_bytes: u64,
    out: &mut [u64; MAX_SECTORS],
) -> usize {
    assert!(
        sector_bytes.is_power_of_two(),
        "sector size must be a power of two"
    );
    assert!(
        size >= 1 && size as u64 <= sector_bytes,
        "a lane access must fit in one sector's bytes"
    );
    let align = !(sector_bytes - 1);
    let mut n = 0;
    for lane in mask.lanes() {
        let a = addrs[lane];
        let first = a & align;
        let last = (a + size as u64 - 1) & align;
        // Neighbouring lanes usually share a sector: skip the repeat here
        // so the sort below sees a handful of entries, not 32.
        if n == 0 || out[n - 1] != first {
            out[n] = first;
            n += 1;
        }
        if last != first {
            out[n] = last;
            n += 1;
        }
    }
    let touched = &mut out[..n];
    touched.sort_unstable();
    let mut distinct = 0;
    for i in 0..n {
        if distinct == 0 || out[distinct - 1] != out[i] {
            out[distinct] = out[i];
            distinct += 1;
        }
    }
    distinct
}

/// [`coalesce_into`] returning an owned [`CoalesceResult`].
pub fn coalesce(
    addrs: &[u64; WARP],
    mask: LaneMask,
    size: u32,
    sector_bytes: u64,
) -> CoalesceResult {
    let mut out = [0u64; MAX_SECTORS];
    let n = coalesce_into(addrs, mask, size, sector_bytes, &mut out);
    CoalesceResult {
        sectors: out[..n].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::LaneMask;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The straightforward sector set: every sector each active lane's
    /// bytes overlap.
    fn coalesce_oracle(addrs: &[u64; WARP], mask: LaneMask, size: u32, sb: u64) -> Vec<u64> {
        let mut set = BTreeSet::new();
        for l in mask.lanes() {
            for byte in addrs[l]..addrs[l] + size as u64 {
                set.insert(byte / sb * sb);
            }
        }
        set.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn coalesce_into_matches_set_oracle(
            raw in prop::collection::vec(any::<u64>(), WARP),
            mask in any::<u32>(),
            shape in 0u32..4,
            sb_pow in 2u32..8,
            size_pick in any::<u32>(),
        ) {
            let sb = 1u64 << sb_pow;
            let size = 1 + size_pick % sb as u32;
            // Scattered, dense (lanes sharing sectors), sector-boundary
            // straddling, and unaligned-stride address shapes.
            let addrs: [u64; WARP] = std::array::from_fn(|l| match shape {
                0 => raw[l] % (1 << 40),
                1 => 0x1000 + raw[l] % 256,
                2 => 0x2000 + (raw[l] % 16) * sb + sb - 1 - raw[l] % 3,
                _ => 0x3001 + l as u64 * (raw[0] % 67),
            });
            let mask = LaneMask(mask);
            let mut out = [0u64; MAX_SECTORS];
            let n = coalesce_into(&addrs, mask, size, sb, &mut out);
            prop_assert_eq!(&out[..n], &coalesce_oracle(&addrs, mask, size, sb)[..]);
            prop_assert_eq!(coalesce(&addrs, mask, size, sb).sectors, out[..n].to_vec());
        }
    }

    #[test]
    fn every_lane_straddling_fills_the_output() {
        // 32 lanes, each an 8-byte access over its own sector boundary.
        let a: [u64; WARP] = std::array::from_fn(|l| 0x1000 + l as u64 * 64 + 28);
        let mut out = [0u64; MAX_SECTORS];
        assert_eq!(
            coalesce_into(&a, LaneMask::ALL, 8, 32, &mut out),
            MAX_SECTORS
        );
        assert_eq!(out.to_vec(), coalesce_oracle(&a, LaneMask::ALL, 8, 32));
    }

    #[test]
    #[should_panic(expected = "fit in one sector")]
    fn lane_access_wider_than_a_sector_is_rejected() {
        let a = [0u64; WARP];
        let _ = coalesce(&a, LaneMask::ALL, 64, 32);
    }

    fn addrs_from(f: impl Fn(usize) -> u64) -> [u64; WARP] {
        std::array::from_fn(f)
    }

    #[test]
    fn fully_coalesced_f32_is_four_sectors() {
        // 32 lanes × 4 B contiguous & aligned = 128 B = 4 × 32 B sectors.
        let a = addrs_from(|l| 0x1000 + l as u64 * 4);
        let r = coalesce(&a, LaneMask::ALL, 4, 32);
        assert_eq!(r.transactions(), 4);
        assert_eq!(r.sectors, vec![0x1000, 0x1020, 0x1040, 0x1060]);
    }

    #[test]
    fn broadcast_is_one_sector() {
        let a = addrs_from(|_| 0x2000);
        let r = coalesce(&a, LaneMask::ALL, 4, 32);
        assert_eq!(r.transactions(), 1);
    }

    #[test]
    fn strided_access_wastes_transactions() {
        // stride 32 B: every lane its own sector — 32 transactions.
        let a = addrs_from(|l| 0x3000 + l as u64 * 32);
        let r = coalesce(&a, LaneMask::ALL, 4, 32);
        assert_eq!(r.transactions(), 32);
    }

    #[test]
    fn misaligned_access_spills_into_extra_sector() {
        // contiguous but starting 4 bytes before a sector boundary
        let a = addrs_from(|l| 0x101c + l as u64 * 4);
        let r = coalesce(&a, LaneMask::ALL, 4, 32);
        assert_eq!(r.transactions(), 5);
    }

    #[test]
    fn inactive_lanes_do_not_count() {
        let a = addrs_from(|l| 0x4000 + l as u64 * 4);
        let r = coalesce(&a, LaneMask::first(8), 4, 32);
        assert_eq!(r.transactions(), 1); // 8 × 4 B = 32 B
        let r0 = coalesce(&a, LaneMask::NONE, 4, 32);
        assert_eq!(r0.transactions(), 0);
    }

    #[test]
    fn access_straddling_sector_counts_both() {
        let a = addrs_from(|_| 0x501e); // 8-byte access over boundary at 0x5020
        let r = coalesce(&a, LaneMask::first(1), 8, 32);
        assert_eq!(r.transactions(), 2);
    }

    #[test]
    fn transaction_count_is_permutation_invariant() {
        let base = addrs_from(|l| 0x6000 + ((l * 7) % 32) as u64 * 4);
        let sorted = addrs_from(|l| 0x6000 + l as u64 * 4);
        let r1 = coalesce(&base, LaneMask::ALL, 4, 32);
        let r2 = coalesce(&sorted, LaneMask::ALL, 4, 32);
        assert_eq!(r1.sectors, r2.sectors);
    }
}
