//! Length-prefixed framing over any ordered byte stream.
//!
//! Every transport in the workspace that moves real bytes — localhost TCP in
//! the examples, the `reconciled` daemon, OS pipes in tests — carries the
//! same frame unit: a `u32` little-endian length followed by the payload.
//! The codec is written once here against [`std::io::Read`] and
//! [`std::io::Write`], so sockets, pipes, and in-memory cursors all share
//! one implementation (the `netsim` crate re-exports these functions for
//! backwards compatibility; it no longer carries its own copy).
//!
//! On top of the raw byte frames, [`write_mux_frame`] / [`read_mux_frame`]
//! move whole [`MuxFrame`]s, which is the unit the session-multiplexed
//! protocol (and the `reconciled` wire protocol after its handshake)
//! exchanges.

use std::io::{self, Read, Write};

use crate::error::{EngineError, Result};
use crate::mux::MuxFrame;

/// Upper bound on a single frame (guards against malformed peers allocating
/// unbounded memory).
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Bytes of framing overhead per frame: the `u32` little-endian length
/// prefix. Byte accounting at higher layers adds this per frame.
pub const LENGTH_PREFIX_BYTES: usize = 4;

/// Writes one length-prefixed frame.
///
/// Frames above [`MAX_FRAME_BYTES`] are rejected symmetrically with
/// [`read_frame`]: a frame we would refuse to read must never be emitted,
/// otherwise a conformant peer drops the connection mid-protocol.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Appends one length-prefixed frame to a staging buffer, for senders that
/// coalesce several frames into one write (a client's round of requests, a
/// server's replies to one request). Size limits match [`write_frame`].
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    // MAX_FRAME_BYTES fits a u32, so the cast cannot truncate.
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Reads one length-prefixed frame. End-of-stream before a complete frame
/// (even before the first byte) is [`io::ErrorKind::UnexpectedEof`]; use
/// [`read_frame_or_eof`] when a close at a frame boundary is a normal
/// outcome the caller wants to tell apart from truncation.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Vec<u8>> {
    read_frame_or_eof(reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended before a frame"))
}

/// Reads one length-prefixed frame, returning `Ok(None)` on a clean
/// end-of-stream — EOF *before any byte* of the frame. EOF after the frame
/// started (a peer dying mid-frame) is still an
/// [`io::ErrorKind::UnexpectedEof`] error, so connection accounting can
/// distinguish orderly closes from truncation.
pub fn read_frame_or_eof<R: Read>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_bytes.len() {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental, nonblocking-aware frame reassembly.
///
/// The blocking codec above ([`read_frame`]) owns the transport: it loops on
/// `read` until a whole frame arrived. An event-driven server cannot block —
/// it gets told "this socket has *some* bytes", reads whatever is there, and
/// must resume mid-frame on the next readiness event. `FrameBuffer` is that
/// resumable half: feed it raw bytes in any fragmentation
/// ([`Self::push_bytes`]), pop complete frames ([`Self::next_frame`]).
///
/// Guarantees, matched against the blocking codec by property tests:
///
/// * **Split-invariance** — for any byte stream produced by [`write_frame`],
///   any partitioning of that stream into `push_bytes` calls yields exactly
///   the frames [`read_frame`] would have returned, in order.
/// * **Bounded memory** — a length prefix above the configured maximum is
///   rejected with [`io::ErrorKind::InvalidData`] *before* any payload is
///   buffered, so a malicious peer cannot make the server allocate the
///   claimed size. The error is sticky: a stream is unframeable once
///   desynchronized, and the connection must be dropped.
/// * **No panics** — arbitrary garbage either reassembles into (garbage)
///   frames for the layer above to reject, or errors; it never panics.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    start: usize,
    max_frame: usize,
    poisoned: bool,
}

impl FrameBuffer {
    /// A buffer accepting frames up to [`MAX_FRAME_BYTES`].
    pub fn new() -> FrameBuffer {
        FrameBuffer::with_max_frame(MAX_FRAME_BYTES)
    }

    /// A buffer accepting frames up to `max_frame` bytes. Servers reading
    /// *requests* (tiny by protocol) pass a much smaller bound than the
    /// global [`MAX_FRAME_BYTES`], so a peer claiming a huge frame is cut
    /// off after 4 bytes instead of 64 MiB.
    pub fn with_max_frame(max_frame: usize) -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            start: 0,
            max_frame: max_frame.min(MAX_FRAME_BYTES),
            poisoned: false,
        }
    }

    /// Appends raw transport bytes (any fragmentation).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when a frame has started arriving but is not complete — an EOF
    /// now would be truncation (mirrors [`read_frame_or_eof`]'s distinction
    /// between a clean close and a peer dying mid-frame).
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are needed.
    ///
    /// A length prefix above the configured maximum yields
    /// [`io::ErrorKind::InvalidData`], exactly like [`read_frame`] on the
    /// same bytes; the buffer stays poisoned afterwards (framing cannot
    /// resynchronize) and every later call repeats the error.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame stream is desynchronized after an oversized frame",
            ));
        }
        if self.buffered() < LENGTH_PREFIX_BYTES {
            self.compact();
            return Ok(None);
        }
        let prefix = &self.buf[self.start..self.start + LENGTH_PREFIX_BYTES];
        let len = u32::from_le_bytes(prefix.try_into().expect("length checked")) as usize;
        if len > self.max_frame {
            self.poisoned = true;
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame exceeds the configured maximum",
            ));
        }
        if self.buffered() < LENGTH_PREFIX_BYTES + len {
            self.compact();
            return Ok(None);
        }
        let body_start = self.start + LENGTH_PREFIX_BYTES;
        let frame = self.buf[body_start..body_start + len].to_vec();
        self.start = body_start + len;
        self.compact();
        Ok(Some(frame))
    }

    /// Reclaims consumed bytes once they dominate the allocation (amortized
    /// O(1) per byte: each byte is memmoved at most once per half-drain).
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

impl Default for FrameBuffer {
    fn default() -> Self {
        FrameBuffer::new()
    }
}

/// Writes one [`MuxFrame`] as a length-prefixed frame.
pub fn write_mux_frame<W: Write>(writer: &mut W, frame: &MuxFrame) -> Result<()> {
    write_frame(writer, &frame.to_bytes()).map_err(EngineError::from)
}

/// Reads one [`MuxFrame`] from a length-prefixed frame.
///
/// Transport failures surface as [`EngineError::Io`]; a frame that arrives
/// intact but does not parse as a mux frame surfaces as
/// [`EngineError::WireFormat`].
pub fn read_mux_frame<R: Read>(reader: &mut R) -> Result<MuxFrame> {
    let bytes = read_frame(reader).map_err(EngineError::from)?;
    MuxFrame::from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineMessage;
    use std::io::Cursor;

    #[test]
    fn roundtrip_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &vec![7u8; 10_000]).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), vec![7u8; 10_000]);
    }

    #[test]
    fn truncated_frame_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_frame_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
        // Just past the limit, with the exact error kind.
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_frame_rejected_on_write() {
        // The limit must hold symmetrically: what read_frame refuses,
        // write_frame must never produce.
        let payload = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "no partial frame may be emitted");
    }

    #[test]
    fn limit_sized_frame_roundtrips_both_ways() {
        // Exactly MAX_FRAME_BYTES is legal on both sides of the link.
        let payload = vec![0xabu8; MAX_FRAME_BYTES];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let back = read_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back.len(), MAX_FRAME_BYTES);
        assert_eq!(back, payload);
    }

    #[test]
    fn mux_frames_roundtrip_through_the_stream_codec() {
        let frames = [
            MuxFrame::new(1, 0, EngineMessage::Open(vec![1, 2, 3])),
            MuxFrame::new(7, 513, EngineMessage::Payload(vec![9; 1_000])),
            MuxFrame::new(u32::MAX, u16::MAX, EngineMessage::Done),
        ];
        let mut buf = Vec::new();
        for frame in &frames {
            write_mux_frame(&mut buf, frame).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for frame in &frames {
            assert_eq!(&read_mux_frame(&mut cursor).unwrap(), frame);
        }
        // Stream exhausted: the next read is an Io error, not a panic.
        assert!(matches!(
            read_mux_frame(&mut cursor),
            Err(EngineError::Io(io::ErrorKind::UnexpectedEof, _))
        ));
    }

    #[test]
    fn intact_frame_with_garbage_payload_is_a_wire_format_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0xff; 3]).unwrap();
        assert!(matches!(
            read_mux_frame(&mut Cursor::new(buf)),
            Err(EngineError::WireFormat(_))
        ));
    }

    #[test]
    fn eof_at_a_frame_boundary_is_clean_but_mid_frame_is_not() {
        // Empty stream: a clean close.
        assert!(read_frame_or_eof(&mut Cursor::new(Vec::new()))
            .unwrap()
            .is_none());
        // A full frame then EOF: frame, then a clean close.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"last frame").unwrap();
        let mut cursor = Cursor::new(buf.clone());
        assert_eq!(
            read_frame_or_eof(&mut cursor).unwrap().unwrap(),
            b"last frame"
        );
        assert!(read_frame_or_eof(&mut cursor).unwrap().is_none());
        // EOF inside the header or inside the payload: truncation errors.
        for cut in [1, 3, 5, buf.len() - 1] {
            let err = read_frame_or_eof(&mut Cursor::new(buf[..cut].to_vec())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    /// Reference decode with the blocking codec: all frames of a stream.
    fn blocking_decode(stream: &[u8]) -> Vec<Vec<u8>> {
        let mut cursor = Cursor::new(stream.to_vec());
        let mut frames = Vec::new();
        while let Some(frame) = read_frame_or_eof(&mut cursor).unwrap() {
            frames.push(frame);
        }
        frames
    }

    /// A sample stream of frames with assorted sizes (empty, tiny, and
    /// larger than any single read), encoded by the blocking codec.
    fn sample_stream() -> Vec<u8> {
        let mut stream = Vec::new();
        for payload in [
            b"".to_vec(),
            b"x".to_vec(),
            (0..=255u8).collect::<Vec<u8>>(),
            vec![0xA5; 10_000],
            b"tail".to_vec(),
        ] {
            write_frame(&mut stream, &payload).unwrap();
        }
        stream
    }

    #[test]
    fn frame_buffer_reassembles_identically_at_every_split_point() {
        let stream = sample_stream();
        let expected = blocking_decode(&stream);
        // Two-part splits at *every* byte position: both sides of every
        // prefix boundary and every mid-payload cut are covered.
        for cut in 0..=stream.len() {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for part in [&stream[..cut], &stream[cut..]] {
                fb.push_bytes(part);
                while let Some(frame) = fb.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            assert_eq!(got, expected, "split at byte {cut}");
            assert!(!fb.has_partial(), "split at byte {cut} left residue");
        }
    }

    #[test]
    fn frame_buffer_survives_random_fragmentation() {
        let stream = sample_stream();
        let expected = blocking_decode(&stream);
        let mut rng = riblt_hash::XorShift64Star::new(0xF8A3_11ED);
        for trial in 0..200 {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            let mut pos = 0usize;
            while pos < stream.len() {
                // Chunk sizes from 1 byte to ~600: covers byte-by-byte
                // trickle and multi-frame gulps in one distribution.
                let chunk = 1 + (rng.next_u64() % 600) as usize;
                let end = (pos + chunk).min(stream.len());
                fb.push_bytes(&stream[pos..end]);
                pos = end;
                while let Some(frame) = fb.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            assert_eq!(got, expected, "trial {trial}");
            assert!(!fb.has_partial());
        }
    }

    #[test]
    fn frame_buffer_rejects_oversized_frames_before_buffering_them() {
        // Against the global cap.
        let mut fb = FrameBuffer::new();
        fb.push_bytes(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The error is sticky: framing cannot resynchronize.
        assert!(fb.next_frame().is_err());

        // Against a tighter per-connection request bound: a frame the
        // blocking codec would accept is still refused, after only the
        // 4 prefix bytes were ever buffered.
        let mut fb = FrameBuffer::with_max_frame(1024);
        let mut stream = Vec::new();
        write_frame(&mut stream, &vec![0u8; 2048]).unwrap();
        fb.push_bytes(&stream[..LENGTH_PREFIX_BYTES]);
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(fb.buffered(), LENGTH_PREFIX_BYTES, "payload never buffered");
    }

    #[test]
    fn frame_buffer_limit_sized_frame_is_legal() {
        let mut fb = FrameBuffer::with_max_frame(64);
        let mut stream = Vec::new();
        write_frame(&mut stream, &[7u8; 64]).unwrap();
        fb.push_bytes(&stream);
        assert_eq!(fb.next_frame().unwrap().unwrap(), vec![7u8; 64]);
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_buffer_never_panics_on_garbage() {
        let mut rng = riblt_hash::XorShift64Star::new(0x6A09_E667);
        for _ in 0..100 {
            let len = (rng.next_u64() % 512) as usize;
            let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut fb = FrameBuffer::with_max_frame(256);
            fb.push_bytes(&garbage);
            // Drain until it needs more bytes or errors; both are fine,
            // panicking or looping forever is not.
            for _ in 0..(len + 1) {
                match fb.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn frame_buffer_partial_frame_is_visible_for_eof_accounting() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"half").unwrap();
        let mut fb = FrameBuffer::new();
        fb.push_bytes(&stream[..stream.len() - 1]);
        assert_eq!(fb.next_frame().unwrap(), None);
        // A close now is truncation, not a clean EOF.
        assert!(fb.has_partial());
        fb.push_bytes(&stream[stream.len() - 1..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"half");
        assert!(!fb.has_partial());
    }

    #[test]
    fn frame_buffer_mux_frames_match_the_blocking_mux_codec() {
        // The reassembled frames must parse into the same MuxFrames the
        // blocking mux codec reads from the identical stream.
        let frames = [
            MuxFrame::new(3, 1, EngineMessage::Open(vec![5, 6, 7])),
            MuxFrame::new(3, 1, EngineMessage::Payload(vec![9; 300])),
            MuxFrame::new(3, 1, EngineMessage::Done),
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            write_mux_frame(&mut stream, frame).unwrap();
        }
        for cut in 0..=stream.len() {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for part in [&stream[..cut], &stream[cut..]] {
                fb.push_bytes(part);
                while let Some(bytes) = fb.next_frame().unwrap() {
                    got.push(MuxFrame::from_bytes(&bytes).unwrap());
                }
            }
            assert_eq!(got, frames.to_vec(), "split at byte {cut}");
        }
    }

    /// A reader that returns at most `chunk` bytes per `read` call: models
    /// a nonblocking socket draining a peer's partial writes. The blocking
    /// codec must reassemble regardless of write fragmentation.
    struct ChunkedReader {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn blocking_codec_tolerates_partial_writes_of_every_size() {
        let stream = sample_stream();
        let expected = blocking_decode(&stream);
        for chunk in [1, 2, 3, 5, 7, 64, 1000] {
            let mut reader = ChunkedReader {
                data: stream.clone(),
                pos: 0,
                chunk,
            };
            let mut got = Vec::new();
            while let Some(frame) = read_frame_or_eof(&mut reader).unwrap() {
                got.push(frame);
            }
            assert_eq!(got, expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn over_real_sockets() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let msg = read_frame(&mut conn).unwrap();
            write_frame(&mut conn, &msg).unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        write_frame(&mut client, b"ping over tcp").unwrap();
        assert_eq!(read_frame(&mut client).unwrap(), b"ping over tcp");
        handle.join().unwrap();
    }
}
