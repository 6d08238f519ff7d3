//! Length-prefixed frame I/O and the bounds-checked payload reader.
//!
//! Everything on the wire after the 5-byte handshake is a *frame*:
//! a `u32` little-endian body length followed by that many body bytes.
//! The body's first byte is a request/response tag (see
//! [`super::Request`] / [`super::Response`]); the rest is tag-specific.
//!
//! Each frame costs one system call each way. [`write_frame`] encodes the
//! body into a reusable per-connection buffer behind 4 reserved bytes,
//! patches the length in and hands the whole frame to one `write_all`,
//! so the peer never wakes for a bare length prefix. [`read_frame`] reads
//! through the connection's [`BufRead`] buffer, where one `read` brings
//! in a small frame whole and pipelined frames share reads; the
//! handshake reads through the same buffer, so bytes a client sends
//! right behind its hello wait there for the first frame read. Lengths
//! above [`MAX_FRAME`] are rejected before any allocation, and a body's
//! buffer grows with the bytes that arrive, not with the length the
//! prefix claims, so a garbage prefix cannot make either end buffer
//! gigabytes.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};

use crate::error::{DbError, Result};

/// Protocol magic, sent by the client as the first 4 connection bytes
/// and echoed by the server.
pub const MAGIC: [u8; 4] = *b"XORD";

/// Protocol version byte following the magic. Version 2 dropped version
/// 1's commit request (tag `0x05`): an acknowledged statement is durable.
/// Version 3 dropped the explain and set messages: `EXPLAIN [ANALYZE]`
/// is a `Query` and `SET` an `Execute`, like every other statement.
pub const VERSION: u8 = 3;

/// Largest accepted frame body. Generous for row batches (the engine's
/// whole Shakespeare corpus is ~8 MiB) while keeping a malicious or
/// corrupt length prefix from driving a giant allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Capacity a connection's write buffer keeps between frames, so one large
/// result does not pin its size for the rest of the connection; also what
/// a body read reserves before its bytes arrive.
const RETAINED_CAPACITY: usize = 64 << 10;

/// Write one frame in a single `write_all`: `encode` appends the body to
/// `buf`, the connection's reusable write buffer, behind 4 bytes reserved
/// for the `u32`-LE length, which is patched in once the body is known.
/// Returns the body length. A body above [`MAX_FRAME`] is refused before
/// anything reaches `w`.
pub fn write_frame(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<usize> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    encode(buf);
    let len = buf.len() - 4;
    let sent = if len > MAX_FRAME {
        Err(DbError::Protocol(format!("frame body {len} B exceeds MAX_FRAME {MAX_FRAME} B")))
    } else {
        buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
        w.write_all(buf).and_then(|()| w.flush()).map(|()| len).map_err(DbError::Io)
    };
    if buf.capacity() > RETAINED_CAPACITY {
        buf.clear();
        buf.shrink_to(RETAINED_CAPACITY);
    }
    sent
}

/// Read one frame body through the connection's read buffer. `Ok(None)`
/// on clean EOF *between* frames (the peer closed the connection); `Err`
/// on a truncated length prefix or body, or on a length above
/// [`MAX_FRAME`].
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no more frames" (EOF before any length byte) from a
    // mid-prefix truncation.
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(DbError::Protocol(format!(
                    "connection closed inside a frame length prefix ({got}/4 bytes)"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(DbError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(DbError::Protocol(format!(
            "frame length {len} B exceeds MAX_FRAME {MAX_FRAME} B"
        )));
    }
    // A small frame's worth up front; past that the body grows only as
    // its bytes arrive.
    let mut body = Vec::with_capacity(len.min(RETAINED_CAPACITY));
    r.by_ref().take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(DbError::Protocol(format!(
            "connection closed inside a {len} B frame body ({} B arrived)",
            body.len()
        )));
    }
    Ok(Some(body))
}

/// Client side of the connection handshake: send `MAGIC` + [`VERSION`],
/// then require the server to echo them back. `conn` is the connection's
/// read buffer; writes go to the stream under it.
pub fn client_handshake<S: Read + Write>(conn: &mut BufReader<S>) -> Result<()> {
    let mut hello = [0u8; 5];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4] = VERSION;
    conn.get_mut().write_all(&hello)?;
    conn.get_mut().flush()?;
    let mut echo = [0u8; 5];
    conn.read_exact(&mut echo).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            DbError::Protocol("server closed the connection during the handshake".into())
        } else {
            DbError::Io(e)
        }
    })?;
    if echo != hello {
        return Err(DbError::Protocol(format!("bad handshake echo {echo:02x?}")));
    }
    Ok(())
}

/// Server side of the handshake: require `MAGIC` + [`VERSION`] as the
/// first 5 bytes, then echo them. A wrong magic or version is a
/// [`DbError::Protocol`]; an EOF before 5 bytes (port scanners, health
/// probes) is reported the same way but is harmless to the server loop.
/// The hello is read through `conn`, the connection's read buffer, so
/// frames sent in the same segment stay buffered for [`read_frame`].
pub fn server_handshake<S: Read + Write>(conn: &mut BufReader<S>) -> Result<()> {
    let mut hello = [0u8; 5];
    conn.read_exact(&mut hello).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            DbError::Protocol("client closed the connection during the handshake".into())
        } else {
            DbError::Io(e)
        }
    })?;
    if hello[..4] != MAGIC {
        return Err(DbError::Protocol(format!("bad magic {:02x?}", &hello[..4])));
    }
    if hello[4] != VERSION {
        return Err(DbError::Protocol(format!(
            "unsupported protocol version {} (this server speaks {VERSION})",
            hello[4]
        )));
    }
    conn.get_mut().write_all(&hello)?;
    conn.get_mut().flush()?;
    Ok(())
}

// ---- payload building and parsing ---------------------------------------

/// Append a length-prefixed UTF-8 string to a payload.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over one frame body. Every read returns
/// [`DbError::Protocol`] instead of panicking when the payload is
/// truncated, and [`Reader::finish`] rejects trailing garbage, so a
/// malformed frame can never take down the peer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a frame body.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            DbError::Protocol(format!(
                "frame truncated reading {what}: need {n} B at offset {}, body is {} B",
                self.pos,
                self.buf.len()
            ))
        })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a `u16` (little-endian).
    pub fn u16(&mut self, what: &str) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Read a `u32` (little-endian).
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Read a `u64` (little-endian).
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Read a `u32`-length-prefixed byte slice.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8]> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String> {
        let b = self.bytes(what)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| DbError::Protocol(format!("{what} is not valid UTF-8")))
    }

    /// Require the cursor to have consumed the whole body.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(DbError::Protocol(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let len = write_frame(&mut out, &mut Vec::new(), |b| b.extend_from_slice(body)).unwrap();
        assert_eq!(len, body.len());
        out
    }

    #[test]
    fn frame_round_trip() {
        for body in [&b""[..], b"x", &vec![0xAB; 100_000][..]] {
            let wire = framed(body);
            assert_eq!(wire.len(), 4 + body.len());
            let got = read_frame(&mut Cursor::new(&wire)).unwrap().unwrap();
            assert_eq!(got, body);
        }
        // Two frames back to back, then a clean EOF.
        let mut wire = framed(b"one");
        wire.extend_from_slice(&framed(b"two"));
        let mut cur = Cursor::new(&wire);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"one");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"two");
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF is None, not an error");
    }

    #[test]
    fn truncated_frames_are_protocol_errors() {
        let wire = framed(b"hello");
        // Every strict prefix except the empty one fails cleanly.
        for cut in 1..wire.len() {
            let err = match read_frame(&mut Cursor::new(&wire[..cut])) {
                Err(e) => e,
                Ok(v) => panic!("prefix of {cut} B decoded to {v:?}"),
            };
            assert!(matches!(err, DbError::Protocol(_)), "cut={cut}: {err}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut wire = (u32::MAX).to_le_bytes().to_vec();
        wire.extend_from_slice(b"whatever");
        let err = read_frame(&mut Cursor::new(&wire)).unwrap_err();
        assert!(matches!(err, DbError::Protocol(ref m) if m.contains("MAX_FRAME")), "{err}");
        // And the writer refuses to produce one, then lets go of the
        // oversized buffer.
        let (mut sink, mut buf) = (Vec::new(), Vec::new());
        assert!(write_frame(&mut sink, &mut buf, |b| b.resize(MAX_FRAME + 5, 0)).is_err());
        assert!(sink.is_empty(), "nothing hit the wire");
        assert!(buf.capacity() <= RETAINED_CAPACITY, "{}", buf.capacity());
    }

    /// Counts the calls a frame costs on either side of the socket.
    struct Counting<T> {
        inner: T,
        calls: usize,
    }

    impl<T: Read> Read for Counting<T> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.inner.read(buf)
        }
    }

    impl Write for Counting<Vec<u8>> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.inner.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut w = Counting { inner: Vec::new(), calls: 0 };
        let mut buf = Vec::new();
        for (i, body) in [&b""[..], b"ping", &vec![0xAB; 100_000][..]].iter().enumerate() {
            write_frame(&mut w, &mut buf, |b| b.extend_from_slice(body)).unwrap();
            assert_eq!(w.calls, i + 1, "{} B body", body.len());
        }
        let wire = w.inner;
        assert_eq!(wire.len(), 3 * 4 + 4 + 100_000);
        let mut r = Cursor::new(&wire);
        for body in [&b""[..], b"ping", &vec![0xAB; 100_000][..]] {
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), body);
        }
    }

    #[test]
    fn pipelined_frames_share_reads() {
        const N: usize = 50;
        let wire: Vec<u8> = (0..N).flat_map(|i| framed(format!("frame {i}").as_bytes())).collect();
        // One small frame alone: one read.
        let mut r = BufReader::new(Counting { inner: Cursor::new(framed(b"x")), calls: 0 });
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"x");
        assert_eq!(r.get_ref().calls, 1);
        // N pipelined frames, then EOF: at most N reads in all.
        let mut r = BufReader::new(Counting { inner: Cursor::new(wire), calls: 0 });
        for i in 0..N {
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), format!("frame {i}").as_bytes());
        }
        assert!(read_frame(&mut r).unwrap().is_none());
        assert!(r.get_ref().calls <= N, "{} reads for {N} frames", r.get_ref().calls);
    }

    /// Hands out 1, 2, …, 7, 1, 2, … bytes per call.
    struct ShortReads {
        data: Cursor<Vec<u8>>,
        next: usize,
    }

    impl Read for ShortReads {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.next = self.next % 7 + 1;
            let n = self.next.min(buf.len());
            self.data.read(&mut buf[..n])
        }
    }

    #[test]
    fn short_reads_still_decode_every_frame() {
        let bodies = [b"".to_vec(), b"one".to_vec(), vec![7; 100_000], b"last".to_vec()];
        let wire: Vec<u8> = bodies.iter().flat_map(|b| framed(b)).collect();
        // A buffer smaller than a frame, and the default one.
        for capacity in [16, 8 << 10] {
            let short = ShortReads { data: Cursor::new(wire.clone()), next: 0 };
            let mut r = BufReader::with_capacity(capacity, short);
            for body in &bodies {
                assert_eq!(&read_frame(&mut r).unwrap().unwrap(), body);
            }
            assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after the last frame");
        }
    }

    #[test]
    fn handshake_round_trip_and_rejections() {
        // Paired in-memory pipes: run both sides against byte buffers.
        let mut client_out = Vec::new();
        {
            let mut hello = [0u8; 5];
            hello[..4].copy_from_slice(&MAGIC);
            hello[4] = VERSION;
            client_out.extend_from_slice(&hello);
        }
        // Server sees a good hello, and the frame sent right behind it
        // stays buffered for the first frame read.
        let mut input = client_out.clone();
        input.extend_from_slice(&framed(b"first"));
        let mut conn = BufReader::new(DuplexBuf::new(&input));
        server_handshake(&mut conn).unwrap();
        assert_eq!(conn.get_ref().written, client_out, "server echoes the hello");
        assert_eq!(read_frame(&mut conn).unwrap().unwrap(), b"first");

        // Bad magic.
        let mut duplex = BufReader::new(DuplexBuf::new(b"HTTP/"));
        let err = server_handshake(&mut duplex).unwrap_err();
        assert!(matches!(err, DbError::Protocol(ref m) if m.contains("magic")), "{err}");

        // Wrong version.
        let mut bad = MAGIC.to_vec();
        bad.push(99);
        let mut duplex = BufReader::new(DuplexBuf::new(&bad));
        let err = server_handshake(&mut duplex).unwrap_err();
        assert!(matches!(err, DbError::Protocol(ref m) if m.contains("version")), "{err}");

        // Client rejects a garbled echo.
        let mut duplex = BufReader::new(DuplexBuf::new(b"NOPE!"));
        let err = client_handshake(&mut duplex).unwrap_err();
        assert!(matches!(err, DbError::Protocol(_)), "{err}");
    }

    /// Reads from a fixed input, records writes — a one-shot fake socket.
    struct DuplexBuf {
        input: Cursor<Vec<u8>>,
        written: Vec<u8>,
    }

    impl DuplexBuf {
        fn new(input: &[u8]) -> DuplexBuf {
            DuplexBuf { input: Cursor::new(input.to_vec()), written: Vec::new() }
        }
    }

    impl Read for DuplexBuf {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for DuplexBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn reader_bounds_checks_everything() {
        let mut body = Vec::new();
        body.push(7u8);
        body.extend_from_slice(&0xBEEFu16.to_le_bytes());
        put_str(&mut body, "hi");
        let mut r = Reader::new(&body);
        assert_eq!(r.u8("tag").unwrap(), 7);
        assert_eq!(r.u16("n").unwrap(), 0xBEEF);
        assert_eq!(r.str("s").unwrap(), "hi");
        r.finish().unwrap();

        // Truncations at every byte fail with Protocol, never panic.
        for cut in 0..body.len() {
            let mut r = Reader::new(&body[..cut]);
            let result = (|| -> Result<()> {
                r.u8("tag")?;
                r.u16("n")?;
                r.str("s")?;
                r.finish()
            })();
            assert!(matches!(result, Err(DbError::Protocol(_))), "cut={cut}: {result:?}");
        }

        // Trailing garbage is rejected.
        let mut with_junk = body.clone();
        with_junk.push(0);
        let mut r = Reader::new(&with_junk);
        r.u8("tag").unwrap();
        r.u16("n").unwrap();
        r.str("s").unwrap();
        assert!(matches!(r.finish(), Err(DbError::Protocol(_))));

        // A string length that runs past the body is caught.
        let mut lying = Vec::new();
        lying.extend_from_slice(&100u32.to_le_bytes());
        lying.extend_from_slice(b"short");
        let mut r = Reader::new(&lying);
        assert!(matches!(r.str("s"), Err(DbError::Protocol(_))));

        // Invalid UTF-8 in a string field is caught.
        let mut bad_utf8 = Vec::new();
        bad_utf8.extend_from_slice(&2u32.to_le_bytes());
        bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&bad_utf8);
        assert!(matches!(r.str("s"), Err(DbError::Protocol(ref m)) if m.contains("UTF-8")));
    }
}
