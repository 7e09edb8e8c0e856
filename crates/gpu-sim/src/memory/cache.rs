//! A sectored, set-associative cache model with LRU replacement.
//!
//! Models the tag behaviour of NVIDIA L1 and L2 caches: tags are kept per
//! 128-byte *line*, but fills and transactions happen per 32-byte *sector*
//! (so a sparse access pattern does not pay for whole lines). Only tags are
//! tracked — data lives in [`super::global::GlobalMem`]; the cache exists to
//! classify each sector access as hit or miss.

/// Replacement/allocation policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Allocate lines on write misses (L2: yes; L1 write-through: no).
    pub allocate_on_write: bool,
    /// Track dirty sectors and report them on eviction (write-back).
    pub write_back: bool,
}

impl CachePolicy {
    /// Turing L1: write-through, no write-allocate.
    pub fn l1() -> Self {
        CachePolicy {
            allocate_on_write: false,
            write_back: false,
        }
    }

    /// Turing L2: write-back with write-allocate.
    pub fn l2() -> Self {
        CachePolicy {
            allocate_on_write: true,
            write_back: true,
        }
    }
}

/// Outcome of a sector access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Sector present.
    Hit,
    /// Line present but sector not yet filled (sector miss).
    SectorMiss,
    /// Line absent (allocates, possibly evicting).
    LineMiss,
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid: u8,
    dirty: u8,
    stamp: u64,
}

/// The cache model. Geometry is fixed at construction.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    line_bytes: u64,
    sector_bytes: u64,
    policy: CachePolicy,
    tick: u64,
    /// Dirty sectors evicted (write-back traffic to the next level).
    pub evicted_dirty_sectors: u64,
}

impl SectoredCache {
    /// Build a cache of `capacity_bytes` with `ways`-way associativity.
    pub fn new(
        capacity_bytes: usize,
        ways: usize,
        line_bytes: usize,
        sector_bytes: usize,
        policy: CachePolicy,
    ) -> Self {
        assert!(
            line_bytes.is_power_of_two() && sector_bytes.is_power_of_two(),
            "line and sector sizes must be powers of two"
        );
        assert!(line_bytes.is_multiple_of(sector_bytes));
        assert!(line_bytes / sector_bytes <= 8, "dirty/valid masks are u8");
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "bad cache geometry"
        );
        let nsets = lines / ways;
        SectoredCache {
            sets: vec![Vec::with_capacity(ways); nsets],
            ways,
            line_bytes: line_bytes as u64,
            sector_bytes: sector_bytes as u64,
            policy,
            tick: 0,
            evicted_dirty_sectors: 0,
        }
    }

    // Line and sector sizes are powers of two (checked in `new`): shifts
    // and masks stand in for the divisions on the per-sector path.
    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr >> self.line_bytes.trailing_zeros()) % self.sets.len() as u64) as usize
    }

    fn sector_bit(&self, sector_addr: u64) -> u8 {
        let off = (sector_addr & (self.line_bytes - 1)) >> self.sector_bytes.trailing_zeros();
        1u8 << off
    }

    /// Access one sector (its 32-byte-aligned base address). Returns the
    /// hit/miss classification; the cache state is updated accordingly.
    pub fn access(&mut self, sector_addr: u64, is_write: bool) -> Access {
        debug_assert_eq!(sector_addr % self.sector_bytes, 0);
        self.tick += 1;
        let tick = self.tick;
        let line_addr = sector_addr & !(self.line_bytes - 1);
        let bit = self.sector_bit(sector_addr);
        let ways = self.ways;
        let set_idx = self.set_index(line_addr);
        let write_back = self.policy.write_back;
        let allocate_on_write = self.policy.allocate_on_write;
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.tag == line_addr) {
            line.stamp = tick;
            if is_write && write_back {
                line.dirty |= bit;
            }
            return if line.valid & bit != 0 {
                if is_write {
                    line.valid |= bit;
                }
                Access::Hit
            } else {
                line.valid |= bit;
                Access::SectorMiss
            };
        }

        // Line miss.
        if is_write && !allocate_on_write {
            return Access::LineMiss;
        }
        if set.len() == ways {
            // Evict LRU.
            let (lru, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .expect("non-empty set");
            let victim = set.swap_remove(lru);
            self.evicted_dirty_sectors += victim.dirty.count_ones() as u64;
        }
        set.push(Line {
            tag: line_addr,
            valid: bit,
            dirty: if is_write && write_back { bit } else { 0 },
            stamp: tick,
        });
        Access::LineMiss
    }

    /// Access the same sector `n` times in a row, equivalent to calling
    /// [`SectoredCache::access`] `n` times but consuming the run in one
    /// probe. Returns the classification of the *first* access; the
    /// remaining `n - 1` are hits by construction whenever the first access
    /// left the sector resident (after any access under write-allocate, or
    /// any load), because nothing else touches the cache in between: the
    /// tick advances by `n` and the line's stamp lands on the final tick,
    /// exactly as the per-event loop would leave it. Under
    /// no-write-allocate a write run that misses stays missing, so the
    /// remaining events replay individually.
    pub fn access_run(&mut self, sector_addr: u64, is_write: bool, n: u64) -> Access {
        let first = self.access(sector_addr, is_write);
        if n <= 1 {
            return first;
        }
        let line_addr = sector_addr & !(self.line_bytes - 1);
        let bit = self.sector_bit(sector_addr);
        let set_idx = self.set_index(line_addr);
        let resident = self.sets[set_idx]
            .iter()
            .position(|l| l.tag == line_addr && l.valid & bit != 0);
        match resident {
            Some(pos) => {
                self.tick += n - 1;
                self.sets[set_idx][pos].stamp = self.tick;
            }
            None => {
                // Only reachable for write runs under no-write-allocate
                // (unused by L2 replay, but keeps the API policy-honest).
                for _ in 1..n {
                    self.access(sector_addr, is_write);
                }
            }
        }
        first
    }

    /// Flush every dirty sector, accumulating into
    /// [`SectoredCache::evicted_dirty_sectors`], and invalidate the cache.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set.drain(..) {
                self.evicted_dirty_sectors += line.dirty.count_ones() as u64;
            }
        }
    }

    /// Number of currently valid sectors (test introspection).
    pub fn resident_sectors(&self) -> u64 {
        self.sets
            .iter()
            .flat_map(|s| s.iter())
            .map(|l| l.valid.count_ones() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2_1kib() -> SectoredCache {
        // 1 KiB, 2-way, 128 B lines, 32 B sectors → 4 sets.
        SectoredCache::new(1024, 2, 128, 32, CachePolicy::l2())
    }

    #[test]
    fn second_access_hits() {
        let mut c = l2_1kib();
        assert_eq!(c.access(0x1000, false), Access::LineMiss);
        assert_eq!(c.access(0x1000, false), Access::Hit);
    }

    #[test]
    fn sector_miss_within_resident_line() {
        let mut c = l2_1kib();
        assert_eq!(c.access(0x1000, false), Access::LineMiss);
        // same 128 B line, different sector
        assert_eq!(c.access(0x1020, false), Access::SectorMiss);
        assert_eq!(c.access(0x1020, false), Access::Hit);
    }

    #[test]
    fn lru_eviction_in_set() {
        let mut c = l2_1kib();
        // 4 sets → line addresses 512 B apart map to the same set.
        let stride = 4 * 128;
        c.access(0x0, false);
        c.access(stride, false); // set full (2 ways)
        c.access(0x0, false); // refresh line 0
        c.access(2 * stride, false); // evicts `stride` (LRU)
        assert_eq!(c.access(0x0, false), Access::Hit);
        assert_eq!(c.access(stride, false), Access::LineMiss);
    }

    #[test]
    fn writeback_counts_dirty_sector_evictions() {
        let mut c = l2_1kib();
        let stride = 4 * 128u64;
        c.access(0x0, true); // dirty sector
        c.access(0x20, true); // second dirty sector, same line
        c.access(stride, false);
        c.access(2 * stride, false); // evicts line 0 with 2 dirty sectors
        assert_eq!(c.evicted_dirty_sectors, 2);
    }

    #[test]
    fn flush_reports_all_dirty() {
        let mut c = l2_1kib();
        c.access(0x0, true);
        c.access(0x100, true);
        c.flush();
        assert_eq!(c.evicted_dirty_sectors, 2);
        assert_eq!(c.resident_sectors(), 0);
    }

    #[test]
    fn l1_write_through_does_not_allocate_on_write() {
        let mut c = SectoredCache::new(1024, 2, 128, 32, CachePolicy::l1());
        assert_eq!(c.access(0x0, true), Access::LineMiss);
        // still not resident
        assert_eq!(c.access(0x0, false), Access::LineMiss);
        // but a write to a resident line updates it and hits
        assert_eq!(c.access(0x0, true), Access::Hit);
        assert_eq!(c.evicted_dirty_sectors, 0);
        c.flush();
        assert_eq!(c.evicted_dirty_sectors, 0);
    }

    #[test]
    fn capacity_bounds_resident_sectors() {
        let mut c = l2_1kib();
        for i in 0..1000u64 {
            c.access(i * 32, false);
        }
        assert!(c.resident_sectors() <= 1024 / 32);
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn rejects_impossible_geometry() {
        SectoredCache::new(100, 3, 128, 32, CachePolicy::l1());
    }

    #[test]
    fn access_run_matches_per_event_loop() {
        // Interleave runs with competing lines so LRU stamps matter, and
        // compare against the reference per-event loop on a twin cache.
        let ops = [
            (0x0u64, false, 4u64),
            (4 * 128, true, 3),
            (0x0, true, 1),
            (8 * 128, false, 5),
            (0x20, true, 2),
            (4 * 128, false, 1),
            (12 * 128, false, 2), // forces an eviction decision
        ];
        for policy in [CachePolicy::l2(), CachePolicy::l1()] {
            let mut fast = SectoredCache::new(1024, 2, 128, 32, policy);
            let mut slow = SectoredCache::new(1024, 2, 128, 32, policy);
            for &(addr, w, n) in &ops {
                let a = fast.access_run(addr, w, n);
                let mut b = None;
                for _ in 0..n {
                    let r = slow.access(addr, w);
                    b.get_or_insert(r);
                }
                assert_eq!(Some(a), b);
                assert_eq!(fast.evicted_dirty_sectors, slow.evicted_dirty_sectors);
                assert_eq!(fast.resident_sectors(), slow.resident_sectors());
                assert_eq!(fast.tick, slow.tick);
            }
            fast.flush();
            slow.flush();
            assert_eq!(fast.evicted_dirty_sectors, slow.evicted_dirty_sectors);
        }
    }
}
