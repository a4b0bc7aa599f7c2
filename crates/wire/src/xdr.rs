//! XDR-style marshalling primitives (the C client library's wire format).
//!
//! The paper's C client library marshals arguments with XDR (RFC 1832):
//! big-endian fixed-width scalars, opaque byte arrays padded to 4-byte
//! boundaries, strings as length-prefixed opaque data. Marshalling is
//! "mostly pointer manipulation" (paper §5.1, Result 2): scalars are
//! written directly and payloads are bulk-copied — the cheap cost profile
//! that makes the C client fast in Experiment 2.

use bytes::Bytes;

use crate::error::WireError;
use crate::frame::EncodedFrame;
use crate::pool::{self, ZC_THRESHOLD};

/// Pads a length up to the next multiple of four.
#[must_use]
pub fn padded_len(len: usize) -> usize {
    (len + 3) & !3
}

/// Writer of XDR-encoded data into a growable buffer.
///
/// Two modes share every `put_*` path. The contiguous mode
/// ([`XdrWriter::new`]/[`XdrWriter::with_capacity`]) writes everything
/// into one buffer — the legacy layout. The scatter mode
/// ([`XdrWriter::scatter`]) stages scalars in a pooled buffer but
/// emits large payloads as borrowed [`Bytes`] segments
/// ([`XdrWriter::put_payload`]), producing an [`EncodedFrame`] whose
/// flattened bytes are identical to the contiguous encoding.
///
/// # Examples
///
/// ```
/// use dstampede_wire::xdr::{XdrReader, XdrWriter};
///
/// # fn main() -> Result<(), dstampede_wire::WireError> {
/// let mut w = XdrWriter::new();
/// w.put_u32(7);
/// w.put_string("cam0");
/// let buf = w.into_bytes();
///
/// let mut r = XdrReader::new(&buf);
/// assert_eq!(r.get_u32()?, 7);
/// assert_eq!(r.get_string()?, "cam0");
/// r.finish()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct XdrWriter {
    buf: Vec<u8>,
    segments: Vec<Bytes>,
    /// Bytes already sealed into `segments`.
    sealed: usize,
    /// Whether `put_payload` may emit borrowed segments.
    scatter: bool,
}

impl XdrWriter {
    /// An empty contiguous-mode writer.
    #[must_use]
    pub fn new() -> Self {
        XdrWriter::default()
    }

    /// An empty contiguous-mode writer with reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        XdrWriter {
            buf: Vec::with_capacity(cap),
            ..XdrWriter::default()
        }
    }

    /// An empty scatter-mode writer staging into a pooled buffer:
    /// payloads at or above [`ZC_THRESHOLD`] become borrowed segments
    /// of the resulting [`EncodedFrame`] instead of being copied.
    #[must_use]
    pub fn scatter(cap: usize) -> Self {
        XdrWriter {
            buf: pool::get(cap).into_vec(),
            segments: Vec::new(),
            sealed: 0,
            scatter: true,
        }
    }

    /// Bytes written so far (across all segments).
    #[must_use]
    pub fn len(&self) -> usize {
        self.sealed + self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seals the staged buffer into the segment list.
    fn seal(&mut self) {
        if !self.buf.is_empty() {
            let seg = Bytes::from(std::mem::take(&mut self.buf));
            self.sealed += seg.len();
            self.segments.push(seg);
        }
    }

    /// Consumes the writer, returning the encoded bytes as one
    /// contiguous vector (flattening any scatter segments).
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        if self.segments.is_empty() {
            return self.buf;
        }
        let mut out = Vec::with_capacity(self.len());
        for s in &self.segments {
            out.extend_from_slice(s);
        }
        out.extend_from_slice(&self.buf);
        out
    }

    /// Consumes the writer, returning the scatter-gather frame. In
    /// contiguous mode this is a single-segment frame.
    #[must_use]
    pub fn into_frame(mut self) -> EncodedFrame {
        self.seal();
        EncodedFrame::from_segments(self.segments)
    }

    /// Writes an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a signed 32-bit integer.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes an unsigned 64-bit integer ("unsigned hyper").
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a signed 64-bit integer ("hyper").
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a boolean as an XDR int (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(u32::from(v));
    }

    /// Writes an IEEE-754 double.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes variable-length opaque data: length, bytes, zero padding to a
    /// four-byte boundary.
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.buf.extend_from_slice(data);
        let pad = padded_len(data.len()) - data.len();
        self.buf.extend_from_slice(&[0u8; 3][..pad]);
    }

    /// Writes an item payload as opaque data. Byte-identical to
    /// [`XdrWriter::put_opaque`], but in scatter mode payloads at or
    /// above [`ZC_THRESHOLD`] are emitted as borrowed segments —
    /// refcount bumps, not memcpys; the pad bytes then open the next
    /// staged segment.
    pub fn put_payload(&mut self, payload: &Bytes) {
        let len = payload.len();
        self.put_u32(len as u32);
        if self.scatter && len >= ZC_THRESHOLD {
            self.seal();
            self.sealed += len;
            self.segments.push(payload.clone());
            pool::note_copy_avoided(len);
        } else {
            self.buf.extend_from_slice(payload);
        }
        let pad = padded_len(len) - len;
        self.buf.extend_from_slice(&[0u8; 3][..pad]);
    }

    /// Writes a UTF-8 string as opaque data.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Writes an optional value: a presence flag followed by the value.
    pub fn put_option<T, F>(&mut self, v: Option<&T>, mut f: F)
    where
        F: FnMut(&mut Self, &T),
    {
        match v {
            Some(inner) => {
                self.put_bool(true);
                f(self, inner);
            }
            None => self.put_bool(false),
        }
    }
}

/// Reader of XDR-encoded data from a byte slice.
///
/// When constructed over a refcounted buffer
/// ([`XdrReader::with_backing`]), [`XdrReader::get_payload`] yields
/// large payloads as [`Bytes::slice`] views into that buffer — zero
/// copy, alias-safe because the views keep the allocation alive.
#[derive(Debug, Clone)]
pub struct XdrReader<'a> {
    buf: &'a [u8],
    pos: usize,
    backing: Option<&'a Bytes>,
}

impl<'a> XdrReader<'a> {
    /// A reader positioned at the start of `buf`. Payload reads copy
    /// (the legacy decode path).
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        XdrReader {
            buf,
            pos: 0,
            backing: None,
        }
    }

    /// A reader over a refcounted receive buffer: payload reads at or
    /// above [`ZC_THRESHOLD`] return slice views instead of copies.
    #[must_use]
    pub fn with_backing(bytes: &'a Bytes) -> Self {
        XdrReader {
            buf: bytes,
            pos: 0,
            backing: Some(bytes),
        }
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads an unsigned 32-bit integer.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than four bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a signed 32-bit integer.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than four bytes remain.
    pub fn get_i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads an unsigned 64-bit integer.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than eight bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a signed 64-bit integer.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than eight bytes remain.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on short input; [`WireError::BadValue`] if
    /// the integer is neither 0 nor 1.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::BadValue(format!("bool encoded as {v}"))),
        }
    }

    /// Reads an IEEE-754 double.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than eight bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads variable-length opaque data (borrowing from the input).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on short input; [`WireError::BadPadding`]
    /// if the pad bytes are non-zero.
    pub fn get_opaque(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        let data = self.take(len)?;
        let pad = padded_len(len) - len;
        let padding = self.take(pad)?;
        if padding.iter().any(|&b| b != 0) {
            return Err(WireError::BadPadding);
        }
        Ok(data)
    }

    /// Reads an item payload written by [`XdrWriter::put_payload`] (or
    /// [`XdrWriter::put_opaque`] — the encodings are identical). With
    /// a backing buffer, payloads at or above [`ZC_THRESHOLD`] come
    /// back as slice views into it; smaller ones (and all reads
    /// without backing) are copied, which keeps tiny payloads from
    /// pinning a large receive buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`XdrReader::get_opaque`].
    pub fn get_payload(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_u32()? as usize;
        let off = self.pos;
        let data = self.take(len)?;
        let pad = padded_len(len) - len;
        let padding = self.take(pad)?;
        if padding.iter().any(|&b| b != 0) {
            return Err(WireError::BadPadding);
        }
        match self.backing {
            Some(b) if len >= ZC_THRESHOLD => {
                pool::note_copy_avoided(len);
                Ok(b.slice(off..off + len))
            }
            _ => Ok(Bytes::copy_from_slice(data)),
        }
    }

    /// Reads a UTF-8 string.
    ///
    /// # Errors
    ///
    /// As [`XdrReader::get_opaque`], plus [`WireError::BadUtf8`].
    pub fn get_string(&mut self) -> Result<String, WireError> {
        let data = self.get_opaque()?;
        String::from_utf8(data.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads an optional value encoded by [`XdrWriter::put_option`].
    ///
    /// # Errors
    ///
    /// Propagates errors from the presence flag and the inner decoder.
    pub fn get_option<T, F>(&mut self, mut f: F) -> Result<Option<T>, WireError>
    where
        F: FnMut(&mut Self) -> Result<T, WireError>,
    {
        if self.get_bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Asserts that the input is fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] if input remains.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = XdrWriter::new();
        w.put_u32(0xdead_beef);
        w.put_i32(-7);
        w.put_u64(0x0123_4567_89ab_cdef);
        w.put_i64(i64::MIN);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(3.25);
        let buf = w.into_bytes();
        let mut r = XdrReader::new(&buf);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_i32().unwrap(), -7);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.get_i64().unwrap(), i64::MIN);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), 3.25);
        r.finish().unwrap();
    }

    #[test]
    fn scalars_are_big_endian() {
        let mut w = XdrWriter::new();
        w.put_u32(1);
        assert_eq!(w.into_bytes(), vec![0, 0, 0, 1]);
    }

    #[test]
    fn opaque_pads_to_four_bytes() {
        for len in 0..=9 {
            let data: Vec<u8> = (0..len as u8).collect();
            let mut w = XdrWriter::new();
            w.put_opaque(&data);
            let buf = w.into_bytes();
            assert_eq!(buf.len(), 4 + padded_len(len), "len={len}");
            let mut r = XdrReader::new(&buf);
            assert_eq!(r.get_opaque().unwrap(), &data[..]);
            r.finish().unwrap();
        }
    }

    #[test]
    fn string_round_trips() {
        let mut w = XdrWriter::new();
        w.put_string("héllo 世界");
        let buf = w.into_bytes();
        let mut r = XdrReader::new(&buf);
        assert_eq!(r.get_string().unwrap(), "héllo 世界");
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = XdrWriter::new();
        w.put_opaque(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        let mut r = XdrReader::new(&buf);
        assert_eq!(r.get_string().unwrap_err(), WireError::BadUtf8);
    }

    #[test]
    fn nonzero_padding_rejected() {
        let mut w = XdrWriter::new();
        w.put_opaque(&[1]);
        let mut buf = w.into_bytes();
        buf[6] = 0xcc; // corrupt a pad byte
        let mut r = XdrReader::new(&buf);
        assert_eq!(r.get_opaque().unwrap_err(), WireError::BadPadding);
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = XdrReader::new(&[0, 0]);
        assert_eq!(r.get_u32().unwrap_err(), WireError::Truncated);
        // Opaque whose declared length exceeds what is present.
        let mut w = XdrWriter::new();
        w.put_opaque(b"abcdef");
        let buf = w.into_bytes();
        let mut r = XdrReader::new(&buf[..6]);
        assert_eq!(r.get_opaque().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn bad_bool_rejected() {
        let mut w = XdrWriter::new();
        w.put_u32(2);
        let buf = w.into_bytes();
        let mut r = XdrReader::new(&buf);
        assert!(matches!(r.get_bool(), Err(WireError::BadValue(_))));
    }

    #[test]
    fn option_round_trips() {
        let mut w = XdrWriter::new();
        w.put_option(Some(&5u32), |w, v| w.put_u32(*v));
        w.put_option::<u32, _>(None, |w, v| w.put_u32(*v));
        let buf = w.into_bytes();
        let mut r = XdrReader::new(&buf);
        assert_eq!(r.get_option(|r| r.get_u32()).unwrap(), Some(5));
        assert_eq!(r.get_option(|r| r.get_u32()).unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn finish_detects_trailing_bytes() {
        let mut w = XdrWriter::new();
        w.put_u32(1);
        w.put_u32(2);
        let buf = w.into_bytes();
        let mut r = XdrReader::new(&buf);
        let _ = r.get_u32().unwrap();
        assert_eq!(r.finish().unwrap_err(), WireError::TrailingBytes(4));
    }

    #[test]
    fn padded_len_math() {
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(1), 4);
        assert_eq!(padded_len(4), 4);
        assert_eq!(padded_len(5), 8);
    }

    /// The scatter encoding must flatten to exactly the contiguous
    /// encoding — including the pad bytes that land at the start of
    /// the segment after a borrowed payload.
    #[test]
    fn scatter_flattens_to_contiguous_layout() {
        for len in [
            0usize,
            5,
            ZC_THRESHOLD - 1,
            ZC_THRESHOLD,
            ZC_THRESHOLD + 3,
            4097,
        ] {
            let payload = Bytes::from((0..len).map(|i| i as u8).collect::<Vec<u8>>());
            let mut contiguous = XdrWriter::new();
            contiguous.put_u32(7);
            contiguous.put_payload(&payload);
            contiguous.put_u64(9);
            let mut scattered = XdrWriter::scatter(64);
            scattered.put_u32(7);
            scattered.put_payload(&payload);
            scattered.put_u64(9);
            assert_eq!(scattered.len(), contiguous.len(), "len={len}");
            assert_eq!(scattered.into_bytes(), contiguous.into_bytes(), "len={len}");
        }
    }

    #[test]
    fn scatter_borrows_large_payloads() {
        let payload = Bytes::from(vec![0xabu8; ZC_THRESHOLD]);
        let mut w = XdrWriter::scatter(64);
        w.put_payload(&payload);
        let frame = w.into_frame();
        assert!(
            frame
                .segments()
                .iter()
                .any(|s| s.shares_allocation_with(&payload)),
            "payload must ride as a borrowed segment"
        );
    }

    #[test]
    fn payload_decode_is_a_view_with_backing() {
        let payload = Bytes::from(vec![0x5au8; 1000]);
        let mut w = XdrWriter::new();
        w.put_payload(&payload);
        let wire = Bytes::from(w.into_bytes());
        let mut r = XdrReader::with_backing(&wire);
        let got = r.get_payload().unwrap();
        r.finish().unwrap();
        assert_eq!(got, payload);
        assert!(got.shares_allocation_with(&wire), "decode must not copy");
        // Small payloads are copied so they don't pin the buffer.
        let small = Bytes::from(vec![1u8; 8]);
        let mut w = XdrWriter::new();
        w.put_payload(&small);
        let wire = Bytes::from(w.into_bytes());
        let mut r = XdrReader::with_backing(&wire);
        let got = r.get_payload().unwrap();
        assert_eq!(got, small);
        assert!(!got.shares_allocation_with(&wire));
    }
}
