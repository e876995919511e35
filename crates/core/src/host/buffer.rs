//! Simulated device (DRAM) buffers.
//!
//! In the OpenCL flow of the paper, the host allocates buffers in the
//! FPGA's DDR banks, transfers data, invokes routines on them, and copies
//! results back (Sec. II-B). [`DeviceBuffer`] is that allocation: shared,
//! interior-mutable storage plus the DDR bank it lives in — the bank
//! matters because streams touching the same bank contend for its
//! bandwidth (see [`fblas_arch::MemorySystem`]).

use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

/// A buffer resident in simulated device memory.
///
/// Cloning is cheap and yields a handle to the same storage, mirroring
/// how multiple interface modules may address the same DRAM region.
#[derive(Debug, Clone)]
pub struct DeviceBuffer<T> {
    data: Arc<RwLock<Vec<T>>>,
    bank: usize,
    name: String,
}

impl<T: Clone + Send + Sync + 'static> DeviceBuffer<T> {
    /// Wrap host data into a device buffer on the given DDR bank.
    pub fn from_vec(name: impl Into<String>, data: Vec<T>, bank: usize) -> Self {
        DeviceBuffer {
            data: Arc::new(RwLock::new(data)),
            bank,
            name: name.into(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.read().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// DDR bank index this buffer is allocated in.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Buffer name (used in module and channel labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Copy the device contents back to the host (the OpenCL
    /// `enqueueReadBuffer`).
    pub fn to_host(&self) -> Vec<T> {
        self.data.read().clone()
    }

    /// Overwrite device contents from the host (the OpenCL
    /// `enqueueWriteBuffer`).
    ///
    /// # Panics
    /// Panics if the length differs from the allocation.
    pub fn from_host(&self, src: &[T]) {
        let mut guard = self.data.write();
        assert_eq!(
            guard.len(),
            src.len(),
            "device buffer size mismatch on write"
        );
        guard.clone_from_slice(src);
    }

    /// Read one element.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn get(&self, idx: usize) -> T {
        self.data.read()[idx].clone()
    }

    /// Read access to the underlying storage until the guard drops.
    /// Take at most one guard per buffer at a time: a second read on
    /// the same thread may block behind a queued writer.
    pub fn read(&self) -> RwLockReadGuard<'_, Vec<T>> {
        self.data.read()
    }

    /// Run a closure with read access to the underlying storage.
    pub fn with_read<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        f(&self.data.read())
    }

    /// Run a closure with write access to the underlying storage.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        f(&mut self.data.write())
    }
}

impl<T: Clone + Default + Send + Sync + 'static> DeviceBuffer<T> {
    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn zeroed(name: impl Into<String>, len: usize, bank: usize) -> Self {
        DeviceBuffer::from_vec(name, vec![T::default(); len], bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_host_device() {
        let b = DeviceBuffer::from_vec("x", vec![1.0f32, 2.0, 3.0], 0);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.bank(), 0);
        assert_eq!(b.name(), "x");
        assert_eq!(b.to_host(), vec![1.0, 2.0, 3.0]);
        b.from_host(&[4.0, 5.0, 6.0]);
        assert_eq!(b.get(1), 5.0);
    }

    #[test]
    fn clones_share_storage() {
        let b = DeviceBuffer::<f64>::zeroed("y", 4, 1);
        let b2 = b.clone();
        b.with_write(|v| v[2] = 9.0);
        assert_eq!(b2.get(2), 9.0);
        assert_eq!(b2.bank(), 1);
    }

    #[test]
    fn with_read_observes_contents() {
        let b = DeviceBuffer::from_vec("z", vec![1u32, 2, 3], 0);
        let sum = b.with_read(|s| s.iter().sum::<u32>());
        assert_eq!(sum, 6);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_write_panics() {
        let b = DeviceBuffer::from_vec("w", vec![0.0f64; 2], 0);
        b.from_host(&[1.0]);
    }
}
