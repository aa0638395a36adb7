//! Length-prefixed framing: `[u32 LE length][u8 version][payload]`.
//!
//! The length covers the version byte plus the payload. [`read_head`]
//! checks a frame's length bounds and then its version before any payload
//! byte is read, so a corrupt or hostile head — a length above
//! [`MAX_FRAME`], or a frame of another protocol version — is refused
//! before anything is allocated for it. Both ends then decode the payload
//! as it arrives ([`crate::wire::Request::decode_from`],
//! [`crate::wire::Response::decode_from`]), so no buffer holds a whole
//! frame; [`read_frame`] reads one whole, for callers that want the bytes.

use std::io::{self, Read, Write};

/// Protocol version carried in every frame. Version 3 ships an exact
/// walk's partials as narrow per-kind cell columns; version 2 (tables
/// column-major, every partial state a full `AggState`) and version 1
/// frames are refused at the head.
pub const PROTOCOL_VERSION: u8 = 3;

/// Bytes of a frame's head: the length prefix and the version.
pub const HEAD_LEN: u64 = 5;

/// Upper bound on a single frame body (version byte + payload): 256 MiB.
pub const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Write one frame. Returns the total bytes written (prefix included).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    let body_len = payload.len() + 1;
    if body_len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {body_len} bytes exceeds the {MAX_FRAME} byte limit"),
        ));
    }
    let len = (body_len as u32).to_le_bytes();
    w.write_all(&[len[0], len[1], len[2], len[3], PROTOCOL_VERSION])?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(4 + body_len as u64)
}

/// Read a frame's 5-byte head and return the length of the payload that
/// follows it. Length bounds, then version, are checked before any payload
/// byte is read.
pub fn read_head(r: &mut impl Read) -> io::Result<usize> {
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let body_len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if body_len == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame"));
    }
    if body_len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {body_len} bytes exceeds the {MAX_FRAME} byte limit"),
        ));
    }
    if head[4] != PROTOCOL_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported protocol version {}", head[4]),
        ));
    }
    Ok(body_len - 1)
}

/// Read one frame whole, returning its payload ([`read_head`], then the
/// payload it announces).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut payload = vec![0u8; read_head(r)?];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(written, buf.len() as u64);
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        buf[4] = 9;
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_wrong_version_before_reading_the_payload() {
        // A head claiming the largest legal body, wrong version, no payload
        // bytes at all: the answer is the version, not a short read.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32).to_le_bytes());
        buf.push(PROTOCOL_VERSION + 1);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported protocol version"), "{err}");
    }

    #[test]
    fn a_version_1_frame_is_refused_at_the_head() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        buf[4] = 1;
        let err = read_head(&mut Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("unsupported protocol version 1"), "{err}");
    }

    #[test]
    fn a_version_2_frame_is_refused_at_the_head() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        buf[4] = 2;
        let err = read_head(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported protocol version 2"), "{err}");
    }

    #[test]
    fn rejects_oversized_length_prefix() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.push(PROTOCOL_VERSION);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_body() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut Cursor::new(&buf)).is_err());
    }
}
