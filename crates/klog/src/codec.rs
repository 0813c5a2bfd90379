//! The one control-plane codec: segment frames, producer snapshots,
//! checkpoints, the transaction log, committed offsets and store spills are
//! all written by a [`Writer`] and read by a [`Reader`]. Integers are
//! little-endian; byte strings carry a `u32` length. A file is [`seal`]ed
//! as `magic + body + crc32(magic + body)` and [`open`]ed by checking both.
//! Every read is bounds-checked, so a decoder built on [`Reader`] is total:
//! malformed input decodes to `None`, never a panic.

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `data` — the checksum framing every on-disk payload.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// An encoding under construction. A length that does not fit its prefix
/// is written saturated, so the result fails to decode instead of
/// panicking here.
#[derive(Debug, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty encoding with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self(Vec::with_capacity(bytes))
    }

    /// One byte.
    pub fn put_u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// A `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// An `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// An `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A count or length, as a `u32`.
    pub fn put_count(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    /// `bytes`, unframed: the caller's format knows their length.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// `bytes` behind their `u32` length.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_count(bytes.len());
        self.put_raw(bytes);
    }

    /// An optional byte string behind an `i32` length, `-1` for `None`.
    pub fn put_opt_bytes(&mut self, bytes: Option<&[u8]>) {
        self.put_i32(bytes.map_or(-1, |b| i32::try_from(b.len()).unwrap_or(i32::MAX)));
        self.put_raw(bytes.unwrap_or_default());
    }

    /// The encoding.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// A file of `magic`, the body `body` writes, and the CRC32 of both.
pub fn seal(magic: u32, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::default();
    w.put_u32(magic);
    body(&mut w);
    let crc = crc32(&w.0);
    w.put_u32(crc);
    w.0
}

/// The body of a [`seal`]ed file, if `buf` carries `magic` and its CRC
/// holds.
pub fn open(buf: &[u8], magic: u32) -> Option<Reader<'_>> {
    let (sealed, crc) = buf.split_at(buf.len().checked_sub(4)?);
    let mut r = Reader::new(sealed);
    (Reader::new(crc).u32()? == crc32(sealed) && r.u32()? == magic).then_some(r)
}

/// A cursor over an encoding; every read is bounds-checked and `None`
/// past the end.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` bytes, unframed.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// An `i32`.
    pub fn i32(&mut self) -> Option<i32> {
        self.array().map(i32::from_le_bytes)
    }

    /// An `i64`.
    pub fn i64(&mut self) -> Option<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// A count or length written by [`Writer::put_count`].
    pub fn count(&mut self) -> Option<usize> {
        self.u32().map(|n| n as usize)
    }

    /// A byte string written by [`Writer::put_bytes`].
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.count()?;
        self.take(n)
    }

    /// A UTF-8 string written by [`Writer::put_bytes`].
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// An optional byte string written by [`Writer::put_opt_bytes`].
    pub fn opt_bytes(&mut self) -> Option<Option<&'a [u8]>> {
        match usize::try_from(self.i32()?) {
            Ok(n) => self.take(n).map(Some),
            Err(_) => Some(None),
        }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `value`, if every byte was read: trailing bytes are malformation.
    pub fn end<T>(&self, value: T) -> Option<T> {
        (self.pos == self.buf.len()).then_some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is 0xCBF43926 (standard check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_value_reads_back() {
        let mut w = Writer::default();
        w.put_u8(7);
        w.put_u32(u32::MAX);
        w.put_i32(-2);
        w.put_i64(i64::MIN);
        w.put_bytes(b"topic");
        w.put_opt_bytes(None);
        w.put_opt_bytes(Some(b""));
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(u32::MAX));
        assert_eq!(r.i32(), Some(-2));
        assert_eq!(r.i64(), Some(i64::MIN));
        assert_eq!(r.str(), Some("topic"));
        assert_eq!(r.opt_bytes(), Some(None));
        assert_eq!(r.opt_bytes(), Some(Some(&b""[..])));
        assert_eq!(r.end(()), Some(()));
        assert_eq!(r.u8(), None, "nothing past the end");
    }

    #[test]
    fn a_sealed_file_opens_only_whole_and_under_its_magic() {
        let file = seal(0x4B54_5354, |w| w.put_i64(42));
        assert_eq!(open(&file, 0x4B54_5354).and_then(|mut r| r.i64()), Some(42));
        assert!(open(&file, 0x4B54_5355).is_none(), "another magic");
        assert!(open(&file[..file.len() - 1], 0x4B54_5354).is_none(), "torn");
        for short in 0..4 {
            assert!(open(&file[..short], 0x4B54_5354).is_none());
        }
        let mut flipped = file.clone();
        flipped[5] ^= 0x10;
        assert!(open(&flipped, 0x4B54_5354).is_none(), "a flipped bit fails the CRC");
    }
}
