//! Offline stub of the `bytes` crate.
//!
//! Implements exactly the API surface this workspace uses: little-endian
//! `Buf` reads from a `&[u8]` cursor and `BufMut` appends to a `Vec<u8>`.
//! Semantics match the real crate for these operations (including panics
//! on short reads).

/// Read-side cursor operations (little-endian subset).
pub trait Buf {
    /// Returns the bytes remaining to be read.
    fn remaining(&self) -> usize;

    /// Copies `dst.len()` bytes out, advancing the cursor.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Skips `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    fn advance(&mut self, n: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }

    fn advance(&mut self, n: usize) {
        assert!(self.len() >= n, "advance past end of slice");
        *self = &self[n..];
    }
}

/// Write-side append operations (little-endian subset).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_little_endian() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(42);
        buf.put_f64_le(1.5);
        let mut rd: &[u8] = &buf;
        assert_eq!(rd.get_u8(), 7);
        assert_eq!(rd.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(rd.get_u64_le(), 42);
        assert_eq!(rd.get_f64_le(), 1.5);
        assert!(rd.is_empty());
    }
}
