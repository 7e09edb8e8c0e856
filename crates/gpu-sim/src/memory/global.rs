//! Device global memory: flat `f32` buffers living in a single virtual
//! address space, so that coalescing and cache behaviour can be computed
//! from real byte addresses.

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub(crate) usize);

#[derive(Debug)]
struct Buffer {
    base: u64,
    data: Vec<f32>,
}

/// Base of the global-memory arena. Chosen away from zero so that address
/// arithmetic bugs (e.g. unallocated buffer zero) surface loudly.
const GLOBAL_BASE: u64 = 1 << 32;

/// Alignment of buffer base addresses: one cache line, as `cudaMalloc`
/// guarantees (it actually guarantees 256 B; 128 B is what coalescing
/// needs).
const BUF_ALIGN: u64 = 256;

/// The simulated device's global memory.
#[derive(Debug, Default)]
pub struct GlobalMem {
    bufs: Vec<Buffer>,
    next_base: u64,
}

impl GlobalMem {
    /// Empty global memory.
    pub fn new() -> Self {
        GlobalMem {
            bufs: Vec::new(),
            next_base: GLOBAL_BASE,
        }
    }

    /// Allocate a zero-filled buffer of `len` f32 elements.
    pub fn alloc(&mut self, len: usize) -> BufId {
        self.upload_vec(vec![0.0; len])
    }

    /// Allocate a buffer initialized from host data.
    pub fn upload(&mut self, data: &[f32]) -> BufId {
        self.upload_vec(data.to_vec())
    }

    /// Allocate a buffer taking ownership of host data.
    pub fn upload_vec(&mut self, data: Vec<f32>) -> BufId {
        let base = self.next_base;
        let bytes = (data.len() as u64 * 4).max(1);
        self.next_base = (base + bytes).div_ceil(BUF_ALIGN) * BUF_ALIGN;
        self.bufs.push(Buffer { base, data });
        BufId(self.bufs.len() - 1)
    }

    /// Read back a buffer. A buffer handed out by [`GlobalMem::take`]
    /// reads back empty.
    pub fn download(&self, id: BufId) -> &[f32] {
        &self.bufs[id.0].data
    }

    /// Move a buffer's contents out to the host without copying: how a
    /// result leaves the simulator. The buffer is left with length 0 and
    /// no longer counts as live in [`GlobalMem::total_elems`]; any later
    /// device access to it fails as an out-of-bounds access. Its base
    /// address, and the address of every later allocation, are unchanged,
    /// so coalescing, cache behaviour and every counter are too.
    pub fn take(&mut self, id: BufId) -> Vec<f32> {
        std::mem::take(&mut self.bufs[id.0].data)
    }

    /// Overwrite a prefix of a buffer's contents from the host, leaving the
    /// tail untouched: re-homing a logical tensor into an oversized pool
    /// buffer. Panics if `data` exceeds the capacity.
    pub fn write_host_prefix(&mut self, id: BufId, data: &[f32]) {
        let buf = &mut self.bufs[id.0];
        assert!(
            data.len() <= buf.data.len(),
            "prefix write OOB: buffer {} has {} elems, prefix {}",
            id.0,
            buf.data.len(),
            data.len()
        );
        buf.data[..data.len()].copy_from_slice(data);
    }

    /// Overwrite a buffer's contents from the host (lengths must match).
    pub fn write_host(&mut self, id: BufId, data: &[f32]) {
        let buf = &mut self.bufs[id.0];
        assert_eq!(buf.data.len(), data.len(), "host write length mismatch");
        buf.data.copy_from_slice(data);
    }

    /// Zero a buffer (host-side `cudaMemset`).
    pub fn zero(&mut self, id: BufId) {
        for v in &mut self.bufs[id.0].data {
            *v = 0.0;
        }
    }

    /// Element count of a buffer.
    pub fn len(&self, id: BufId) -> usize {
        self.bufs[id.0].data.len()
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self, id: BufId) -> bool {
        self.bufs[id.0].data.is_empty()
    }

    /// Virtual byte address of element `idx` of buffer `id`.
    #[inline]
    pub fn addr(&self, id: BufId, idx: u32) -> u64 {
        self.bufs[id.0].base + idx as u64 * 4
    }

    /// Base byte address of buffer `id` (hoisted once per warp access by
    /// the batched address path).
    #[inline]
    pub(crate) fn buf_base(&self, id: BufId) -> u64 {
        self.bufs[id.0].base
    }

    /// Device-side element read (bounds-checked).
    #[inline]
    pub fn read_elem(&self, id: BufId, idx: u32) -> f32 {
        let buf = &self.bufs[id.0];
        match buf.data.get(idx as usize) {
            Some(&v) => v,
            None => panic!(
                "device read OOB: buffer {} has {} elems, index {}",
                id.0,
                buf.data.len(),
                idx
            ),
        }
    }

    /// Device-side element write (bounds-checked).
    #[inline]
    pub fn write_elem(&mut self, id: BufId, idx: u32, v: f32) {
        let buf = &mut self.bufs[id.0];
        let len = buf.data.len();
        match buf.data.get_mut(idx as usize) {
            Some(slot) => *slot = v,
            None => panic!(
                "device write OOB: buffer {} has {len} elems, index {}",
                id.0, idx
            ),
        }
    }

    /// Total allocated elements across live buffers. A buffer handed out
    /// by [`GlobalMem::take`] counts 0.
    pub fn total_elems(&self) -> usize {
        self.bufs.iter().map(|b| b.data.len()).sum()
    }

    /// Panic exactly as [`GlobalMem::write_elem`] would on an out-of-bounds
    /// index, without writing. Used by the store-buffer overlay so parallel
    /// launches fail with byte-identical diagnostics to sequential ones.
    #[inline]
    #[cfg(test)]
    pub(crate) fn assert_write_in_bounds(&self, id: BufId, idx: u32) {
        let len = self.bufs[id.0].data.len();
        if idx as usize >= len {
            panic!(
                "device write OOB: buffer {} has {len} elems, index {}",
                id.0, idx
            );
        }
    }

    /// Raw mutable element storage of one buffer (store-buffer application).
    pub(crate) fn buf_data_mut(&mut self, id: BufId) -> &mut [f32] {
        &mut self.bufs[id.0].data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut m = GlobalMem::new();
        let a = m.upload(&[1.0, 2.0, 3.0]);
        assert_eq!(m.download(a), &[1.0, 2.0, 3.0]);
        assert_eq!(m.len(a), 3);
        m.write_elem(a, 1, 9.0);
        assert_eq!(m.read_elem(a, 1), 9.0);
    }

    #[test]
    fn buffers_are_line_aligned_and_disjoint() {
        let mut m = GlobalMem::new();
        let a = m.alloc(5);
        let b = m.alloc(100);
        assert_eq!(m.addr(a, 0) % BUF_ALIGN, 0);
        assert_eq!(m.addr(b, 0) % BUF_ALIGN, 0);
        // end of a strictly before start of b
        assert!(m.addr(a, 4) + 4 <= m.addr(b, 0));
    }

    #[test]
    fn addresses_stride_by_four_bytes() {
        let mut m = GlobalMem::new();
        let a = m.alloc(10);
        assert_eq!(m.addr(a, 3) - m.addr(a, 0), 12);
    }

    #[test]
    #[should_panic(expected = "OOB")]
    fn oob_read_panics() {
        let mut m = GlobalMem::new();
        let a = m.alloc(2);
        m.read_elem(a, 2);
    }

    #[test]
    fn prefix_accessors_alias_an_oversized_buffer() {
        let mut m = GlobalMem::new();
        let pool = m.upload(&[9.0; 8]);
        m.write_host_prefix(pool, &[1.0, 2.0, 3.0]);
        assert_eq!(&m.download(pool)[..3], &[1.0, 2.0, 3.0]);
        // The tail is untouched — stale data beyond the logical length.
        assert_eq!(m.download(pool)[3], 9.0);
    }

    #[test]
    #[should_panic(expected = "prefix write OOB")]
    fn oversized_prefix_write_panics() {
        let mut m = GlobalMem::new();
        let a = m.alloc(2);
        m.write_host_prefix(a, &[0.0; 3]);
    }

    #[test]
    fn take_moves_the_contents_out_intact() {
        let mut m = GlobalMem::new();
        let a = m.upload(&[1.0, 2.0, 3.0]);
        assert_eq!(m.take(a), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn taken_buffer_is_empty_and_no_longer_live() {
        let mut m = GlobalMem::new();
        let a = m.alloc(7);
        let b = m.alloc(5);
        let before = m.total_elems();
        let _ = m.take(b);
        assert_eq!(m.len(b), 0);
        assert!(m.is_empty(b));
        assert!(m.download(b).is_empty());
        assert_eq!(m.total_elems(), before - 5);
        assert_eq!(m.len(a), 7);
    }

    #[test]
    fn take_leaves_every_address_unchanged() {
        let mut plain = GlobalMem::new();
        let mut taken = GlobalMem::new();
        let (a0, a1) = (plain.alloc(100), taken.alloc(100));
        let _ = taken.take(a1);
        assert_eq!(plain.addr(a0, 3), taken.addr(a1, 3));
        let (b0, b1) = (plain.alloc(9), taken.alloc(9));
        assert_eq!(plain.addr(b0, 0), taken.addr(b1, 0));
    }

    #[test]
    fn device_read_of_a_taken_buffer_is_out_of_bounds() {
        use crate::lane::LaneMask;
        use crate::{DeviceConfig, GpuSim, LaunchConfig, LaunchError};
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let x = sim.mem.upload(&[7.0; 32]);
        let y = sim.mem.alloc(32);
        let _ = sim.mem.take(x);
        let err = sim
            .try_launch(&LaunchConfig::linear(1, 32), |blk| {
                blk.each_warp(|w| {
                    let tid = w.thread_idx();
                    let v = w.gld(x, &tid, LaneMask::ALL);
                    w.gst(y, &tid, &v, LaneMask::ALL);
                });
            })
            .unwrap_err();
        assert!(matches!(err, LaunchError::OutOfBounds(_)), "{err:?}");
        // The stale contents never reached the device.
        assert_eq!(sim.mem.download(y), &[0.0; 32]);
    }

    #[test]
    fn zero_resets_contents() {
        let mut m = GlobalMem::new();
        let a = m.upload(&[5.0; 4]);
        m.zero(a);
        assert_eq!(m.download(a), &[0.0; 4]);
    }
}
