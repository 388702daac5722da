//! Simulated global memory (HBM).
//!
//! Global memory is a real byte buffer: kernels produce bit-accurate
//! results. Allocation is a bump allocator (kernels and tests create a
//! fresh [`GlobalMemory`] per run). Device-side accesses (`device_read` /
//! `device_write`, issued by the MTE engines) are counted toward the
//! global bandwidth accounting; host-side accesses (uploading inputs,
//! downloading results) are free, mirroring how the paper measures device
//! kernel time only.

use crate::error::{SimError, SimResult};
use crate::prof::ProfileRecorder;
use dtypes::Element;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Alignment of global-memory allocations in bytes (Ascend requires 32 B;
/// we use 512 B which also keeps tiles cache-line aligned).
pub const GM_ALIGN: usize = 512;

/// A byte region inside global memory, produced by [`GlobalMemory::alloc`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First byte offset.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
}

impl Region {
    /// Returns the sub-region `[byte_off, byte_off + len)`, bounds-checked.
    pub fn slice(&self, byte_off: usize, len: usize) -> SimResult<Region> {
        if byte_off + len > self.len {
            return Err(SimError::OutOfBounds {
                what: "Region::slice",
                offset: byte_off,
                len,
                region: self.len,
            });
        }
        Ok(Region {
            offset: self.offset + byte_off,
            len,
        })
    }
}

/// Simulated High Bandwidth Memory: byte buffer + bump allocator + traffic
/// counters.
pub struct GlobalMemory {
    bytes: RwLock<Vec<u8>>,
    capacity: usize,
    next: AtomicUsize,
    device_bytes_read: AtomicU64,
    device_bytes_written: AtomicU64,
    profiler: Mutex<Option<Arc<ProfileRecorder>>>,
}

impl GlobalMemory {
    /// Creates an empty global memory with the given capacity in bytes.
    pub fn new(capacity: usize) -> Self {
        GlobalMemory {
            bytes: RwLock::new(Vec::new()),
            capacity,
            next: AtomicUsize::new(0),
            device_bytes_read: AtomicU64::new(0),
            device_bytes_written: AtomicU64::new(0),
            profiler: Mutex::new(None),
        }
    }

    /// Attaches a fresh [`ProfileRecorder`] to this memory and returns
    /// it: every kernel launched against this memory from now on submits
    /// its finished profile there. The recorder is per-launch-state, not
    /// per-thread, so concurrent launches on *other* memories are
    /// unaffected and sequential launches cannot leak profiles into each
    /// other. Replaces any previously attached recorder.
    pub fn attach_profiler(&self) -> Arc<ProfileRecorder> {
        let recorder = ProfileRecorder::new();
        *self.profiler.lock().expect("GlobalMemory lock poisoned") = Some(Arc::clone(&recorder));
        recorder
    }

    /// Detaches the profile recorder, if any; subsequent launches stop
    /// recording profiles.
    pub fn detach_profiler(&self) {
        *self.profiler.lock().expect("GlobalMemory lock poisoned") = None;
    }

    /// The currently attached profile recorder, if any.
    pub fn profiler(&self) -> Option<Arc<ProfileRecorder>> {
        self.profiler
            .lock()
            .expect("GlobalMemory lock poisoned")
            .clone()
    }

    /// Allocates `len` bytes (zero-initialized), aligned to [`GM_ALIGN`].
    pub fn alloc(&self, len: usize) -> SimResult<Region> {
        let aligned = len.div_ceil(GM_ALIGN) * GM_ALIGN;
        let offset = self
            .next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur + aligned <= self.capacity).then_some(cur + aligned)
            })
            .map_err(|cur| SimError::GlobalMemoryExhausted {
                requested: len,
                available: self.capacity - cur,
            })?;
        let mut bytes = self.bytes.write().expect("GlobalMemory lock poisoned");
        if bytes.len() < offset + aligned {
            bytes.resize(offset + aligned, 0);
        }
        Ok(Region { offset, len })
    }

    /// Allocates space for `len` elements of type `T`.
    pub fn alloc_elems<T: Element>(&self, len: usize) -> SimResult<Region> {
        self.alloc(len * T::SIZE)
    }

    /// High-water mark of the bump allocator: a proxy for the kernel's
    /// working-set size used by the L2-vs-HBM bandwidth decision.
    pub fn high_water(&self) -> usize {
        self.next.load(Ordering::SeqCst)
    }

    /// Device bytes read so far (MTE inbound traffic).
    pub fn bytes_read(&self) -> u64 {
        self.device_bytes_read.load(Ordering::SeqCst)
    }

    /// Device bytes written so far (MTE outbound traffic).
    pub fn bytes_written(&self) -> u64 {
        self.device_bytes_written.load(Ordering::SeqCst)
    }

    /// Charges extra inbound traffic without moving data — the wasted
    /// part of a line-granularity strided access.
    pub fn account_read_padding(&self, bytes: u64) {
        self.device_bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    fn check(
        &self,
        what: &'static str,
        region: Region,
        byte_off: usize,
        len: usize,
    ) -> SimResult<usize> {
        if byte_off + len > region.len {
            return Err(SimError::OutOfBounds {
                what,
                offset: byte_off,
                len,
                region: region.len,
            });
        }
        Ok(region.offset + byte_off)
    }

    /// Device-side read (counted as HBM traffic).
    pub fn device_read(&self, region: Region, byte_off: usize, dst: &mut [u8]) -> SimResult<()> {
        let start = self.check("device_read", region, byte_off, dst.len())?;
        let bytes = self.bytes.read().expect("GlobalMemory lock poisoned");
        dst.copy_from_slice(&bytes[start..start + dst.len()]);
        self.device_bytes_read
            .fetch_add(dst.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Device-side write (counted as HBM traffic).
    pub fn device_write(&self, region: Region, byte_off: usize, src: &[u8]) -> SimResult<()> {
        let start = self.check("device_write", region, byte_off, src.len())?;
        let mut bytes = self.bytes.write().expect("GlobalMemory lock poisoned");
        bytes[start..start + src.len()].copy_from_slice(src);
        self.device_bytes_written
            .fetch_add(src.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Host-side typed upload (not counted as device traffic).
    pub fn host_write_slice<T: Element>(
        &self,
        region: Region,
        elem_off: usize,
        src: &[T],
    ) -> SimResult<()> {
        let byte_off = elem_off * T::SIZE;
        let len = src.len() * T::SIZE;
        let start = self.check("host_write_slice", region, byte_off, len)?;
        let mut bytes = self.bytes.write().expect("GlobalMemory lock poisoned");
        for (i, v) in src.iter().enumerate() {
            v.write_le(&mut bytes[start + i * T::SIZE..start + (i + 1) * T::SIZE]);
        }
        Ok(())
    }

    /// Host-side typed download (not counted as device traffic).
    pub fn host_read_slice<T: Element>(
        &self,
        region: Region,
        elem_off: usize,
        len: usize,
    ) -> SimResult<Vec<T>> {
        let byte_off = elem_off * T::SIZE;
        let nbytes = len * T::SIZE;
        let start = self.check("host_read_slice", region, byte_off, nbytes)?;
        let bytes = self.bytes.read().expect("GlobalMemory lock poisoned");
        Ok((0..len)
            .map(|i| T::read_le(&bytes[start + i * T::SIZE..start + (i + 1) * T::SIZE]))
            .collect())
    }

    /// Host-side upload of a whole vector into a fresh allocation.
    pub fn upload<T: Element>(&self, data: &[T]) -> SimResult<Region> {
        let region = self.alloc_elems::<T>(data.len())?;
        self.host_write_slice(region, 0, data)?;
        Ok(region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtypes::F16;

    #[test]
    fn alloc_is_aligned_and_bounded() {
        let gm = GlobalMemory::new(4096);
        let a = gm.alloc(100).unwrap();
        let b = gm.alloc(100).unwrap();
        assert_eq!(a.offset % GM_ALIGN, 0);
        assert_eq!(b.offset, GM_ALIGN);
        assert!(gm.alloc(4096).is_err(), "over-capacity alloc must fail");
    }

    #[test]
    fn upload_download_round_trip() {
        let gm = GlobalMemory::new(1 << 20);
        let data: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
        let region = gm.upload(&data).unwrap();
        let back: Vec<f32> = gm.host_read_slice(region, 0, 1000).unwrap();
        assert_eq!(back, data);
        // Partial read at an offset.
        let mid: Vec<f32> = gm.host_read_slice(region, 500, 10).unwrap();
        assert_eq!(mid, &data[500..510]);
    }

    #[test]
    fn f16_upload_round_trip() {
        let gm = GlobalMemory::new(1 << 16);
        let data: Vec<F16> = (0..100).map(|i| F16::from_f32(i as f32)).collect();
        let region = gm.upload(&data).unwrap();
        assert_eq!(gm.host_read_slice::<F16>(region, 0, 100).unwrap(), data);
    }

    #[test]
    fn device_traffic_is_counted_host_traffic_is_not() {
        let gm = GlobalMemory::new(1 << 16);
        let region = gm.alloc(1024).unwrap();
        gm.host_write_slice(region, 0, &[1u8; 1024]).unwrap();
        assert_eq!(gm.bytes_read(), 0);
        assert_eq!(gm.bytes_written(), 0);

        let mut buf = [0u8; 512];
        gm.device_read(region, 0, &mut buf).unwrap();
        gm.device_write(region, 512, &buf).unwrap();
        assert_eq!(gm.bytes_read(), 512);
        assert_eq!(gm.bytes_written(), 512);
        assert_eq!(buf, [1u8; 512]);
    }

    #[test]
    fn out_of_bounds_access_errors() {
        let gm = GlobalMemory::new(1 << 16);
        let region = gm.alloc(64).unwrap();
        let mut buf = [0u8; 32];
        assert!(gm.device_read(region, 48, &mut buf).is_err());
        assert!(gm.device_write(region, 64, &buf).is_err());
        assert!(gm.host_read_slice::<f32>(region, 15, 2).is_err());
    }

    #[test]
    fn region_slice() {
        let r = Region {
            offset: 512,
            len: 256,
        };
        let s = r.slice(64, 64).unwrap();
        assert_eq!(
            s,
            Region {
                offset: 576,
                len: 64
            }
        );
        assert!(r.slice(200, 64).is_err());
    }

    #[test]
    fn high_water_tracks_allocations() {
        let gm = GlobalMemory::new(1 << 20);
        assert_eq!(gm.high_water(), 0);
        gm.alloc(1000).unwrap();
        assert_eq!(gm.high_water(), 1024);
        gm.alloc(10).unwrap();
        assert_eq!(gm.high_water(), 1536);
    }
}
