//! Linear memory (spec §4.2.8): a contiguous, 64 KiB-paged byte buffer that
//! only ever grows — the mechanism behind the paper's Wasm memory findings
//! (§2.2.2, Tables 4/6): *"instead of reclaiming memory that is no longer in
//! use, the linear memory is further extended to a bigger size."*

use crate::types::Limits;
use std::fmt;

/// Bytes per WebAssembly page.
pub const PAGE_SIZE: usize = 64 * 1024;

/// Errors raised by memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// An access fell outside the current memory size.
    OutOfBounds {
        /// Byte address of the access.
        addr: u64,
        /// Access width in bytes.
        width: u32,
        /// Current memory size in bytes.
        size: usize,
    },
    /// A grow request exceeded the declared maximum or engine limit.
    GrowFailed {
        /// Pages requested.
        delta: u32,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfBounds { addr, width, size } => write!(
                f,
                "out-of-bounds access: {width} bytes at {addr} (memory is {size} bytes)"
            ),
            MemoryError::GrowFailed { delta } => write!(f, "memory.grow by {delta} pages failed"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// A linear memory instance. The VM's loads and stores use the
/// fixed-width [`load`](Self::load) and [`store`](Self::store), inlined
/// into the caller and checked against the current size on every access,
/// so a grow is seen at once; [`read`](Self::read) and
/// [`write`](Self::write) take any width.
#[derive(Debug, Clone)]
pub struct LinearMemory {
    bytes: Vec<u8>,
    limits: Limits,
    /// Number of successful `memory.grow` operations (cost accounting).
    pub grow_count: u64,
    /// Total pages added by grows (cost accounting).
    pub grown_pages: u64,
}

impl LinearMemory {
    /// Hard engine cap: 4 GiB (65 536 pages), the MVP maximum.
    pub const MAX_PAGES: u32 = 65_536;

    /// Instantiate a memory at its declared minimum size.
    pub fn new(limits: Limits) -> Self {
        LinearMemory {
            bytes: vec![0; limits.min as usize * PAGE_SIZE],
            limits,
            grow_count: 0,
            grown_pages: 0,
        }
    }

    /// Current size in pages.
    pub fn size_pages(&self) -> u32 {
        (self.bytes.len() / PAGE_SIZE) as u32
    }

    /// Current size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Grow by `delta` pages. Returns the previous size in pages, or -1
    /// (as wasm does) when the grow is refused.
    pub fn grow(&mut self, delta: u32) -> i32 {
        let old_pages = self.size_pages();
        let Some(new_pages) = old_pages.checked_add(delta) else {
            return -1;
        };
        let cap = self
            .limits
            .max
            .unwrap_or(Self::MAX_PAGES)
            .min(Self::MAX_PAGES);
        if new_pages > cap {
            return -1;
        }
        self.bytes.resize(new_pages as usize * PAGE_SIZE, 0);
        self.grow_count += 1;
        self.grown_pages += delta as u64;
        old_pages as i32
    }

    /// Read `width` bytes at `addr` (bounds-checked): data segments and
    /// host reads, whose width is not fixed.
    pub fn read(&self, addr: u64, width: u32) -> Result<&[u8], MemoryError> {
        let end = addr
            .checked_add(width as u64)
            .filter(|&e| e <= self.bytes.len() as u64);
        match end {
            Some(end) => Ok(&self.bytes[addr as usize..end as usize]),
            None => Err(self.out_of_bounds(addr, width as usize)),
        }
    }

    /// Write bytes at `addr` (bounds-checked): data segments and host
    /// writes, whose width is not fixed.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemoryError> {
        let end = addr
            .checked_add(data.len() as u64)
            .filter(|&e| e <= self.bytes.len() as u64);
        match end {
            Some(end) => {
                self.bytes[addr as usize..end as usize].copy_from_slice(data);
                Ok(())
            }
            None => Err(self.out_of_bounds(addr, data.len())),
        }
    }

    /// Load `N` bytes at `addr` as an array, bounds-checked against the
    /// current size: the fixed-width access the VM's loads use, read in
    /// place.
    #[inline]
    pub fn load<const N: usize>(&self, addr: u64) -> Result<[u8; N], MemoryError> {
        let chunk = usize::try_from(addr)
            .ok()
            .and_then(|a| self.bytes.get(a..)?.first_chunk::<N>());
        match chunk {
            Some(b) => Ok(*b),
            None => Err(self.out_of_bounds(addr, N)),
        }
    }

    /// Store `N` bytes at `addr`, bounds-checked against the current size:
    /// the fixed-width access the VM's stores use. Out of bounds, nothing
    /// is written.
    #[inline]
    pub fn store<const N: usize>(&mut self, addr: u64, data: [u8; N]) -> Result<(), MemoryError> {
        let chunk = usize::try_from(addr)
            .ok()
            .and_then(|a| self.bytes.get_mut(a..)?.first_chunk_mut::<N>());
        match chunk {
            Some(b) => {
                *b = data;
                Ok(())
            }
            None => Err(self.out_of_bounds(addr, N)),
        }
    }

    #[cold]
    fn out_of_bounds(&self, addr: u64, width: usize) -> MemoryError {
        MemoryError::OutOfBounds {
            addr,
            width: width as u32,
            size: self.bytes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_min_pages() {
        let m = LinearMemory::new(Limits::at_least(2));
        assert_eq!(m.size_pages(), 2);
        assert_eq!(m.size_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn grow_returns_old_size_and_zero_fills() {
        let mut m = LinearMemory::new(Limits::at_least(1));
        assert_eq!(m.grow(3), 1);
        assert_eq!(m.size_pages(), 4);
        assert_eq!(m.load::<4>((4 * PAGE_SIZE - 4) as u64).unwrap(), [0; 4]);
        assert_eq!(m.grow_count, 1);
        assert_eq!(m.grown_pages, 3);
    }

    #[test]
    fn grow_respects_max() {
        let mut m = LinearMemory::new(Limits::bounded(1, 2));
        assert_eq!(m.grow(1), 1);
        assert_eq!(m.grow(1), -1);
        assert_eq!(m.size_pages(), 2);
    }

    #[test]
    fn grow_overflow_is_refused() {
        let mut m = LinearMemory::new(Limits::at_least(1));
        assert_eq!(m.grow(u32::MAX), -1);
    }

    #[test]
    fn bounds_checked_reads_and_writes() {
        let mut m = LinearMemory::new(Limits::at_least(1));
        m.store(0, 0xdeadbeef_u32.to_le_bytes()).unwrap();
        assert_eq!(m.load(0).map(u32::from_le_bytes), Ok(0xdeadbeef));
        assert_eq!(m.read(0, 4).unwrap(), &0xdeadbeef_u32.to_le_bytes());
        // The last `N` bytes are in bounds; an access straddling the end
        // fails and writes nothing.
        let end = PAGE_SIZE as u64 - 2;
        assert_eq!(m.load::<2>(end), Ok([0; 2]));
        let oob = Err(MemoryError::OutOfBounds {
            addr: end,
            width: 4,
            size: PAGE_SIZE,
        });
        assert_eq!(m.load::<4>(end), oob);
        assert_eq!(m.store(end, [1; 4]), oob.map(|_| ()));
        assert_eq!(m.read(end, 2).unwrap(), &[0, 0]);
        // Address overflow does not panic.
        assert!(m.read(u64::MAX, 8).is_err());
        assert!(m.load::<8>(u64::MAX).is_err());
        assert!(m.store(u64::MAX - 1, [0; 8]).is_err());
    }

    #[test]
    fn f64_round_trips_bits() {
        let mut m = LinearMemory::new(Limits::at_least(1));
        for v in [0.0, -1.5, f64::INFINITY, f64::MIN_POSITIVE] {
            m.store(8, v.to_le_bytes()).unwrap();
            assert_eq!(
                m.load(8).map(f64::from_le_bytes).unwrap().to_bits(),
                v.to_bits()
            );
        }
    }
}
