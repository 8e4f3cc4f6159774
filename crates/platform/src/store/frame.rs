//! The one record frame both logs write: the chat store's segments and
//! the KV write-ahead log.
//!
//! Layout on disk: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//! A file is a run of frames; the first frame that is short or fails
//! its CRC ends the file's valid prefix, and everything from there on
//! is a torn tail (a crash mid-append) that [`open_trimmed`] cuts away.
//!
//! Appends go through [`append`], which writes at the caller's tracked
//! end offset (never wherever the file cursor was left) and trims a
//! failed frame, so bytes of a failed append never sit in front of a
//! frame that is later acknowledged.

use super::{crc32, FaultInjector};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Frame header length: `len` plus `crc32`.
pub(crate) const HEADER: usize = 8;

/// `payload` as one frame.
fn encode(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// `(payload length, crc32)` of a frame header.
fn decode_header(hdr: &[u8]) -> (usize, u32) {
    let len = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(hdr[4..HEADER].try_into().unwrap());
    (len, crc)
}

/// The valid frames of a buffer, in order, as `(offset, payload)`.
/// Iteration stops at the first short or CRC-failing frame; after it,
/// [`Frames::end`] is the length of the valid prefix.
pub(crate) struct Frames<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Frames<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Frames { buf, pos: 0 }
    }

    /// Byte offset just past the last frame yielded so far.
    pub(crate) fn end(&self) -> u64 {
        self.pos as u64
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.pos;
        let (len, crc) = decode_header(self.buf.get(start..start + HEADER)?);
        let payload = self.buf.get(start + HEADER..start + HEADER + len)?;
        if crc32(payload) != crc {
            return None;
        }
        self.pos = start + HEADER + len;
        Some((start as u64, payload))
    }
}

/// Open (creating) the framed file at `path` for appending and cut off
/// any torn tail, durably. Returns the file and its valid contents.
pub(crate) fn open_trimmed(path: &Path) -> std::io::Result<(File, Vec<u8>)> {
    let mut file = OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false) // only the torn tail goes, below
        .open(path)?;
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    let mut frames = Frames::new(&buf);
    frames.by_ref().for_each(drop);
    let valid = frames.end();
    if valid < buf.len() as u64 {
        file.set_len(valid)?;
        file.sync_all()?;
        buf.truncate(valid as usize);
    }
    Ok((file, buf))
}

/// Append `payload` as one frame at `end`, the caller's tracked end of
/// the valid prefix, then `sync_data` it when `sync` names a fault
/// point. On any failure the file is cut back to `end` (fault point
/// `trim`) and the error returned. Returns the frame's length.
pub(crate) fn append(
    fault: &FaultInjector,
    file: &mut File,
    end: u64,
    payload: &[u8],
    write: &'static str,
    sync: Option<&'static str>,
    trim: &'static str,
) -> std::io::Result<u64> {
    let frame = encode(payload);
    file.seek(SeekFrom::Start(end))?;
    let written = fault
        .write_all(write, file, &frame)
        .and_then(|()| match sync {
            Some(point) => fault.sync_data(point, file),
            None => Ok(()),
        });
    if let Err(e) = written {
        // Best effort: if the trim fails too, the next append still
        // starts at `end`, and a reopen cuts whatever is left.
        let _ = fault.set_len(trim, file, end);
        return Err(e);
    }
    Ok(frame.len() as u64)
}

/// Read the frame at `offset` and return its payload, verifying its
/// CRC. `read` is the fault point for post-read corruption, which the
/// CRC check turns into an `InvalidData` error.
pub(crate) fn read_at(
    fault: &FaultInjector,
    file: &mut File,
    offset: u64,
    read: &'static str,
) -> std::io::Result<Vec<u8>> {
    file.seek(SeekFrom::Start(offset))?;
    let mut hdr = [0u8; HEADER];
    file.read_exact(&mut hdr)?;
    let (len, crc) = decode_header(&hdr);
    let mut payload = vec![0u8; len];
    file.read_exact(&mut payload)?;
    fault.post_read(read, &mut payload)?;
    if crc32(&payload) != crc {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "CRC mismatch",
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_stop_at_the_first_short_or_corrupt_frame() {
        let mut buf = encode(b"one");
        buf.extend(encode(b""));
        buf.extend(encode(b"three"));
        let intact = buf.len() as u64;
        let got: Vec<(u64, &[u8])> = Frames::new(&buf).collect();
        assert_eq!(
            got,
            vec![(0, &b"one"[..]), (11, &b""[..]), (19, &b"three"[..])]
        );

        // A short tail (header promising more than is there) ends the
        // prefix at the last whole frame.
        buf.extend(&encode(b"torn")[..9]);
        let mut frames = Frames::new(&buf);
        assert_eq!(frames.by_ref().count(), 3);
        assert_eq!(frames.end(), intact);

        // A CRC failure ends it at the corrupt frame.
        buf[HEADER] ^= 0xFF;
        let mut frames = Frames::new(&buf);
        assert_eq!(frames.by_ref().count(), 0);
        assert_eq!(frames.end(), 0);
    }
}
