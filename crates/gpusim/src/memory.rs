//! Host and device memory modelling.
//!
//! Host buffers play the role of pinned (or pageable) staging memory —
//! `cudaHostAlloc` in the paper's setup. Device buffers live in the GPU's
//! capacity-tracked memory. In *functional* mode both sides carry real
//! element data so kernels can compute; in *timing* mode they are ghosts that
//! only remember their type and length.

use crate::error::SimError;
use cocopelia_hostblas::Dtype;

/// Identifier of a host (staging) buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostBufId(pub(crate) usize);

/// Identifier of a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevBufId(pub(crate) usize);

/// Next-id watermarks of one device's buffer arenas: the ids the next
/// device allocation and the next host registration will receive.
///
/// Buffer ids index slot vectors that only grow, and a freed or taken
/// slot is never handed out again, so a buffer alive now with an id at or
/// past a mark was allocated after the mark was taken — and every buffer
/// below the mark that is alive now was alive then too. A snapshot of the
/// marks therefore stands in for a snapshot of the whole live set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferMarks {
    /// Id of the next device allocation.
    pub dev: DevBufId,
    /// Id of the next host registration.
    pub host: HostBufId,
}

/// Element storage of a buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Real single-precision data (functional mode).
    F32(Vec<f32>),
    /// Real double-precision data (functional mode).
    F64(Vec<f64>),
    /// Metadata-only storage (timing mode).
    Ghost {
        /// Element precision the ghost represents.
        dtype: Dtype,
        /// Element count the ghost represents.
        len: usize,
    },
}

impl Payload {
    /// Allocates a zero-filled payload.
    pub fn new(dtype: Dtype, len: usize, functional: bool) -> Payload {
        if functional {
            match dtype {
                Dtype::F32 => Payload::F32(vec![0.0; len]),
                Dtype::F64 => Payload::F64(vec![0.0; len]),
            }
        } else {
            Payload::Ghost { dtype, len }
        }
    }

    /// Element precision.
    pub fn dtype(&self) -> Dtype {
        match self {
            Payload::F32(_) => Dtype::F32,
            Payload::F64(_) => Dtype::F64,
            Payload::Ghost { dtype, .. } => *dtype,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Payload::F32(v) => v.len(),
            Payload::F64(v) => v.len(),
            Payload::Ghost { len, .. } => *len,
        }
    }

    /// True if the payload holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes.
    pub fn bytes(&self) -> usize {
        self.len() * self.dtype().width()
    }

    /// True if real data is present (functional mode).
    pub fn is_functional(&self) -> bool {
        !matches!(self, Payload::Ghost { .. })
    }

    /// Borrow as `f64` data.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional `f64` storage.
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Payload::F64(v) => v,
            other => panic!("payload is {:?}, not functional f64", other.dtype()),
        }
    }

    /// Mutably borrow as `f64` data.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional `f64` storage.
    pub fn as_f64_mut(&mut self) -> &mut [f64] {
        match self {
            Payload::F64(v) => v,
            other => panic!("payload is {:?}, not functional f64", other.dtype()),
        }
    }

    /// Borrow as `f32` data.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional `f32` storage.
    pub fn as_f32(&self) -> &[f32] {
        match self {
            Payload::F32(v) => v,
            other => panic!("payload is {:?}, not functional f32", other.dtype()),
        }
    }

    /// Mutably borrow as `f32` data.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional `f32` storage.
    pub fn as_f32_mut(&mut self) -> &mut [f32] {
        match self {
            Payload::F32(v) => v,
            other => panic!("payload is {:?}, not functional f32", other.dtype()),
        }
    }
}

impl From<Vec<f32>> for Payload {
    fn from(v: Vec<f32>) -> Self {
        Payload::F32(v)
    }
}

impl From<Vec<f64>> for Payload {
    fn from(v: Vec<f64>) -> Self {
        Payload::F64(v)
    }
}

/// A host-side staging buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct HostBuffer {
    /// Element storage.
    pub payload: Payload,
    /// Whether the buffer is page-locked. Pageable buffers transfer at a
    /// reduced bandwidth ([`LinkSpec::pageable_factor`](crate::spec::LinkSpec)).
    pub pinned: bool,
}

/// Registry of host buffers known to the simulator.
#[derive(Debug, Default)]
pub(crate) struct HostArena {
    bufs: Vec<Option<HostBuffer>>,
}

impl HostArena {
    pub(crate) fn register(&mut self, buf: HostBuffer) -> HostBufId {
        let id = HostBufId(self.bufs.len());
        self.bufs.push(Some(buf));
        id
    }

    pub(crate) fn get(&self, id: HostBufId) -> Result<&HostBuffer, SimError> {
        self.bufs
            .get(id.0)
            .and_then(|b| b.as_ref())
            .ok_or_else(|| SimError::UnknownBuffer {
                what: format!("host buffer {}", id.0),
            })
    }

    pub(crate) fn get_mut(&mut self, id: HostBufId) -> Result<&mut HostBuffer, SimError> {
        self.bufs
            .get_mut(id.0)
            .and_then(|b| b.as_mut())
            .ok_or_else(|| SimError::UnknownBuffer {
                what: format!("host buffer {}", id.0),
            })
    }

    pub(crate) fn unregister(&mut self, id: HostBufId) -> Result<HostBuffer, SimError> {
        self.bufs
            .get_mut(id.0)
            .and_then(|b| b.take())
            .ok_or_else(|| SimError::UnknownBuffer {
                what: format!("host buffer {}", id.0),
            })
    }

    /// Ids of every live (registered, not yet taken) host buffer at or
    /// past `from`, ascending.
    pub(crate) fn live_from(&self, from: HostBufId) -> Vec<HostBufId> {
        let from = from.0.min(self.bufs.len());
        self.bufs[from..]
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|_| HostBufId(from + i)))
            .collect()
    }

    /// The id the next registration will receive.
    pub(crate) fn next_id(&self) -> HostBufId {
        HostBufId(self.bufs.len())
    }
}

/// Capacity-tracked device memory.
#[derive(Debug)]
pub(crate) struct DeviceMemory {
    capacity: usize,
    used: usize,
    bufs: Vec<Option<Payload>>,
}

impl DeviceMemory {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            used: 0,
            bufs: Vec::new(),
        }
    }

    pub(crate) fn used(&self) -> usize {
        self.used
    }

    pub(crate) fn available(&self) -> usize {
        self.capacity - self.used
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ids of every live (not yet freed) device buffer at or past `from`,
    /// ascending.
    pub(crate) fn live_from(&self, from: DevBufId) -> Vec<DevBufId> {
        let from = from.0.min(self.bufs.len());
        self.bufs[from..]
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|_| DevBufId(from + i)))
            .collect()
    }

    /// The id the next allocation will receive.
    pub(crate) fn next_id(&self) -> DevBufId {
        DevBufId(self.bufs.len())
    }

    pub(crate) fn alloc(
        &mut self,
        dtype: Dtype,
        len: usize,
        functional: bool,
    ) -> Result<DevBufId, SimError> {
        let bytes = len * dtype.width();
        if bytes > self.available() {
            return Err(SimError::OutOfDeviceMemory {
                requested: bytes,
                available: self.available(),
            });
        }
        self.used += bytes;
        let id = DevBufId(self.bufs.len());
        self.bufs.push(Some(Payload::new(dtype, len, functional)));
        Ok(id)
    }

    pub(crate) fn free(&mut self, id: DevBufId) -> Result<(), SimError> {
        let slot = self
            .bufs
            .get_mut(id.0)
            .ok_or_else(|| SimError::UnknownBuffer {
                what: format!("device buffer {}", id.0),
            })?;
        match slot.take() {
            Some(p) => {
                self.used -= p.bytes();
                Ok(())
            }
            None => Err(SimError::UnknownBuffer {
                what: format!("device buffer {}", id.0),
            }),
        }
    }

    pub(crate) fn get(&self, id: DevBufId) -> Result<&Payload, SimError> {
        self.bufs
            .get(id.0)
            .and_then(|b| b.as_ref())
            .ok_or_else(|| SimError::UnknownBuffer {
                what: format!("device buffer {}", id.0),
            })
    }

    /// Temporarily removes a payload (used by the functional executor to
    /// obtain disjoint borrows of kernel operands).
    pub(crate) fn take_payload(&mut self, id: DevBufId) -> Result<Payload, SimError> {
        self.bufs
            .get_mut(id.0)
            .and_then(|b| b.take())
            .ok_or_else(|| SimError::UnknownBuffer {
                what: format!("device buffer {}", id.0),
            })
    }

    /// Restores a payload previously removed with [`take_payload`](Self::take_payload).
    pub(crate) fn restore_payload(&mut self, id: DevBufId, payload: Payload) {
        self.bufs[id.0] = Some(payload);
    }
}

#[cfg(test)]
#[allow(clippy::items_after_test_module)]
mod tests {
    use super::*;

    #[test]
    fn payload_ghost_tracks_metadata() {
        let p = Payload::new(Dtype::F64, 10, false);
        assert_eq!(p.len(), 10);
        assert_eq!(p.bytes(), 80);
        assert!(!p.is_functional());
    }

    #[test]
    fn payload_functional_zeroed() {
        let p = Payload::new(Dtype::F32, 4, true);
        assert_eq!(p.as_f32(), &[0.0; 4]);
        assert!(p.is_functional());
    }

    #[test]
    #[should_panic(expected = "not functional f64")]
    fn wrong_view_panics() {
        let p = Payload::new(Dtype::F32, 4, true);
        let _ = p.as_f64();
    }

    #[test]
    fn device_memory_accounting() {
        let mut dm = DeviceMemory::new(100);
        let a = dm.alloc(Dtype::F64, 5, false).expect("fits"); // 40 bytes
        assert_eq!(dm.used(), 40);
        let b = dm.alloc(Dtype::F32, 10, false).expect("fits"); // 40 bytes
        assert_eq!(dm.available(), 20);
        let err = dm.alloc(Dtype::F64, 4, false).expect_err("32 > 20");
        assert!(matches!(
            err,
            SimError::OutOfDeviceMemory {
                requested: 32,
                available: 20
            }
        ));
        dm.free(a).expect("free a");
        assert_eq!(dm.used(), 40);
        dm.free(b).expect("free b");
        assert_eq!(dm.used(), 0);
    }

    #[test]
    fn double_free_is_error() {
        let mut dm = DeviceMemory::new(100);
        let a = dm.alloc(Dtype::F64, 1, false).expect("fits");
        dm.free(a).expect("first free");
        assert!(dm.free(a).is_err());
        assert!(dm.get(a).is_err());
    }

    #[test]
    fn host_arena_round_trip() {
        let mut arena = HostArena::default();
        let id = arena.register(HostBuffer {
            payload: vec![1.0f64, 2.0].into(),
            pinned: true,
        });
        assert_eq!(arena.get(id).expect("present").payload.len(), 2);
        let buf = arena.unregister(id).expect("present");
        assert_eq!(buf.payload.as_f64(), &[1.0, 2.0]);
        assert!(arena.get(id).is_err());
    }

    #[test]
    fn take_restore_payload() {
        let mut dm = DeviceMemory::new(1000);
        let a = dm.alloc(Dtype::F64, 2, true).expect("fits");
        let mut p = dm.take_payload(a).expect("present");
        p.as_f64_mut()[0] = 7.0;
        dm.restore_payload(a, p);
        assert_eq!(dm.get(a).expect("present").as_f64()[0], 7.0);
    }
}

/// Extension of [`Scalar`](cocopelia_hostblas::Scalar) that ties each
/// element type to its [`Payload`] representation, letting generic
/// schedulers move typed data through the simulator without matching on
/// [`Dtype`] at every call site.
pub trait SimScalar: cocopelia_hostblas::Scalar {
    /// The runtime type tag for this scalar.
    const DTYPE: Dtype;

    /// Wraps an owned vector as a payload.
    fn into_payload(v: Vec<Self>) -> Payload;

    /// Borrows a payload's data as this type.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional storage of this type.
    fn payload_slice(p: &Payload) -> &[Self];

    /// Consumes a payload into an owned vector of this type.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional storage of this type.
    fn payload_into_vec(p: Payload) -> Vec<Self>;
}

impl SimScalar for f32 {
    const DTYPE: Dtype = Dtype::F32;

    fn into_payload(v: Vec<Self>) -> Payload {
        Payload::F32(v)
    }

    fn payload_slice(p: &Payload) -> &[Self] {
        p.as_f32()
    }

    fn payload_into_vec(p: Payload) -> Vec<Self> {
        match p {
            Payload::F32(v) => v,
            other => panic!("payload is {:?}, not functional f32", other.dtype()),
        }
    }
}

impl SimScalar for f64 {
    const DTYPE: Dtype = Dtype::F64;

    fn into_payload(v: Vec<Self>) -> Payload {
        Payload::F64(v)
    }

    fn payload_slice(p: &Payload) -> &[Self] {
        p.as_f64()
    }

    fn payload_into_vec(p: Payload) -> Vec<Self> {
        match p {
            Payload::F64(v) => v,
            other => panic!("payload is {:?}, not functional f64", other.dtype()),
        }
    }
}
