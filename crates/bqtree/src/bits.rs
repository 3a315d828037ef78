//! Word-buffered bit writer and reader over byte buffers.
//!
//! The BQ-Tree bitstream mixes 2-bit node codes with 16-bit literal leaves,
//! packed LSB-first within each byte. Both ends keep a 64-bit buffer and
//! move whole words between it and the byte buffer, so reading or writing a
//! field is a mask and a shift rather than a loop over bytes.

/// Append-only bit writer. Bits are packed LSB-first within each byte.
#[derive(Debug, Default)]
pub struct BitWriter {
    /// Whole words flushed so far, as little-endian bytes.
    buf: Vec<u8>,
    /// Pending bits, LSB-first; only the low `pending` bits are set.
    acc: u64,
    /// Bits held in `acc` (0..64).
    pending: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.pending as usize
    }

    /// Write the low `n` bits of `v` (n ≤ 32), LSB-first.
    #[inline]
    pub fn put(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || v < (1u32 << n), "value {v} wider than {n} bits");
        let v = u64::from(v) & ((1u64 << n) - 1);
        self.acc |= v << self.pending;
        self.pending += n;
        if self.pending >= 64 {
            self.buf.extend_from_slice(&self.acc.to_le_bytes());
            self.pending -= 64;
            // The bits of `v` that did not fit. `n ≤ 32` puts the old
            // `pending` in 32..64, so the shift is in 1..=32.
            self.acc = v >> (n - self.pending);
        }
    }

    /// Finish, returning the packed bytes (trailing bits zero-padded).
    pub fn finish(mut self) -> Vec<u8> {
        let tail = self.pending.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.buf
    }
}

/// Reader matching [`BitWriter`]'s packing.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Index of the first byte of `data` not yet counted in `avail`.
    next: usize,
    /// Unread bits, LSB-first. The low `avail` bits are valid; above them
    /// `buf` may already hold the leading bits of `data[next]`, which the
    /// next refill writes again with the same values.
    buf: u64,
    /// Valid bits in `buf` (0..64).
    avail: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            next: 0,
            buf: 0,
            avail: 0,
        }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        (self.data.len() - self.next) * 8 + self.avail as usize
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.next * 8 - self.avail as usize
    }

    /// Top `buf` up with whole bytes: one unaligned word load while eight
    /// bytes remain, byte by byte at the end of the stream. Leaves at least
    /// 57 valid bits unless the stream is exhausted.
    #[cold]
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.next..self.next + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
            self.buf |= word << self.avail;
            let bytes = (63 - self.avail) / 8;
            self.next += bytes as usize;
            self.avail += bytes * 8;
        } else {
            while self.avail <= 56 && self.next < self.data.len() {
                self.buf |= u64::from(self.data[self.next]) << self.avail;
                self.next += 1;
                self.avail += 8;
            }
        }
    }

    /// Read `n` bits (n ≤ 32), LSB-first. Panics past the end.
    #[inline]
    pub fn get(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        if self.avail < n {
            self.refill();
            assert!(self.avail >= n, "bitstream underrun");
        }
        let v = self.buf & ((1u64 << n) - 1);
        self.buf >>= n;
        self.avail -= n;
        v as u32
    }

    /// The next `n` bits (n ≤ 56) without consuming them, or `None` if
    /// fewer than `n` remain.
    #[inline]
    pub fn peek(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 56);
        if self.avail < n {
            self.refill();
            if self.avail < n {
                return None;
            }
        }
        Some(self.buf & ((1u64 << n) - 1))
    }

    /// Consume `n` bits that a [`peek`](Self::peek) of at least `n` bits
    /// has just returned.
    #[inline]
    pub fn skip(&mut self, n: u32) {
        assert!(n <= self.avail, "skip past the peeked bits");
        self.buf >>= n;
        self.avail -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.put(0b10, 2);
        w.put(0b1, 1);
        w.put(0xBEEF, 16);
        w.put(0b101, 3);
        w.put(0xFFFF_FFFF, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(2), 0b10);
        assert_eq!(r.get(1), 0b1);
        assert_eq!(r.get(16), 0xBEEF);
        assert_eq!(r.get(3), 0b101);
        assert_eq!(r.get(32), 0xFFFF_FFFF);
    }

    #[test]
    fn bit_len_accounting() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.put(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.put(3, 2);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn many_two_bit_codes() {
        let codes: Vec<u32> = (0..1000).map(|i| i % 3).collect();
        let mut w = BitWriter::new();
        for &c in &codes {
            w.put(c, 2);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 250);
        let mut r = BitReader::new(&bytes);
        for &c in &codes {
            assert_eq!(r.get(2), c);
        }
    }

    #[test]
    fn padding_is_zero() {
        let mut w = BitWriter::new();
        w.put(0b1, 1);
        let bytes = w.finish();
        assert_eq!(bytes[0], 0b0000_0001);
    }

    #[test]
    #[should_panic(expected = "underrun")]
    fn underrun_panics() {
        let bytes = [0u8; 1];
        let mut r = BitReader::new(&bytes);
        r.get(8);
        r.get(1);
    }

    /// Reference packing: one bit at a time, LSB-first within each byte.
    fn pack_bitwise(fields: &[(u32, u32)]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        for &(v, n) in fields {
            for i in 0..n {
                if pos.is_multiple_of(8) {
                    out.push(0);
                }
                if (v >> i) & 1 == 1 {
                    out[pos / 8] |= 1 << (pos % 8);
                }
                pos += 1;
            }
        }
        out
    }

    #[test]
    fn word_buffering_matches_bitwise_packing() {
        // Widths 1..=32 in a rotating order, so fields straddle every byte
        // and word boundary; long enough to take both refill paths.
        let mut state = 0x2545_F491_u32;
        let fields: Vec<(u32, u32)> = (0..700u32)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                let n = i * 7 % 32 + 1;
                (
                    if n == 32 {
                        state
                    } else {
                        state & ((1 << n) - 1)
                    },
                    n,
                )
            })
            .collect();
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.put(v, n);
        }
        let total: usize = fields.iter().map(|&(_, n)| n as usize).sum();
        assert_eq!(w.bit_len(), total);
        let bytes = w.finish();
        assert_eq!(bytes, pack_bitwise(&fields));
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.get(n), v);
        }
        assert_eq!(r.position(), total);
        assert_eq!(r.remaining(), bytes.len() * 8 - total);
    }

    #[test]
    fn reads_to_the_last_bit_then_underruns() {
        // 9 bytes: one word load, then the byte-wise tail.
        let bytes: Vec<u8> = (1..=9).collect();
        let mut r = BitReader::new(&bytes);
        let mut got = Vec::new();
        for _ in 0..9 {
            got.push(r.get(8) as u8);
        }
        assert_eq!(got, bytes);
        assert_eq!(r.remaining(), 0);
        let err = std::panic::catch_unwind(move || r.get(1)).expect_err("read past the end");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"bitstream underrun"));
    }

    #[test]
    fn peek_then_skip_matches_get() {
        // 10 bytes: peeks inside the first word load, across the refill
        // and against the byte-wise tail.
        let bytes: Vec<u8> = (0..10u8).map(|i| i.wrapping_mul(73) ^ 0x5A).collect();
        let mut peeking = BitReader::new(&bytes);
        let mut getting = BitReader::new(&bytes);
        for n in [3, 56, 1, 17] {
            let peeked = peeking.peek(n).expect("bits remain");
            assert_eq!(peeking.peek(n), Some(peeked), "peek consumes nothing");
            peeking.skip(n);
            let (a, b) = (getting.get(n.min(32)), getting.get(n.saturating_sub(32)));
            assert_eq!(peeked, u64::from(a) | u64::from(b) << n.min(32), "{n} bits");
            assert_eq!(peeking.position(), getting.position());
        }
        assert_eq!(peeking.remaining(), 3);
        assert_eq!(peeking.peek(4), None, "past the end");
        assert_eq!(peeking.peek(3), Some(u64::from(getting.get(3))));
    }

    #[test]
    fn remaining_tracks_reads() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining(), 32);
        r.get(5);
        assert_eq!(r.remaining(), 27);
        assert_eq!(r.position(), 5);
    }
}
