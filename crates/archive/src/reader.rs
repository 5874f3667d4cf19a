//! The streaming archive reader.
//!
//! [`ArchiveReader`] pulls one block at a time from any [`Read`]
//! source with bounded memory (one block buffered at a time). Every
//! block's CRC is verified **before** any payload decoding, so a
//! flipped bit can never decode into a wrong value — it surfaces as a
//! typed [`ArchiveError`], and every block before the damage has
//! already been yielded. A stream that ends exactly on a block
//! boundary reads as a clean (if unterminated) recording; a stream
//! that ends mid-block is reported as [`ArchiveError::Truncated`].

use crate::format::{
    decode_block_payload, ArchiveBlock, RunMeta, BLOCK_HEADER_LEN, FORMAT_VERSION, MAGIC,
    MAX_BLOCK_LEN,
};
use crate::{ArchiveError, Result};
use std::io::Read;
use wbsn_core::link::crc32;

/// Streaming epoch-block reader over any [`Read`] source.
#[derive(Debug)]
pub struct ArchiveReader<R: Read> {
    src: R,
    meta: RunMeta,
    /// Byte offset of the next unread block.
    offset: u64,
    /// Block assembly buffer, reused.
    buf: Vec<u8>,
    /// Set once the trailer, clean EOF, or an error is reached.
    finished: bool,
    /// Whether the trailer block was seen (a complete recording).
    sealed: bool,
}

/// Everything a lossy full read recovers: the header metadata, every
/// block before any damage, and the damage itself (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveContents {
    /// The stream header's run metadata.
    pub meta: RunMeta,
    /// Every block recovered, in stream order.
    pub blocks: Vec<ArchiveBlock>,
    /// The error that stopped reading, `None` for a clean stream.
    pub error: Option<ArchiveError>,
    /// Whether the run trailer was reached (recording is complete).
    pub sealed: bool,
}

/// Outcome of trying to fill a buffer exactly.
enum Fill {
    /// The buffer was filled.
    Full,
    /// EOF before the first byte.
    Empty,
    /// EOF after some bytes but before the buffer was full.
    Partial,
    /// The source itself failed.
    Failed(ArchiveError),
}

fn read_full<R: Read>(src: &mut R, buf: &mut [u8], offset: &mut u64) -> Fill {
    let mut got = 0usize;
    while got < buf.len() {
        match src.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                *offset += got as u64;
                return Fill::Failed(ArchiveError::Io(e.kind()));
            }
        }
    }
    *offset += got as u64;
    if got == buf.len() {
        Fill::Full
    } else if got == 0 {
        Fill::Empty
    } else {
        Fill::Partial
    }
}

impl<R: Read> ArchiveReader<R> {
    /// Opens an archive, reading and validating the stream header.
    pub fn new(mut src: R) -> Result<Self> {
        let mut offset = 0u64;
        let mut fixed = [0u8; 10];
        match read_full(&mut src, &mut fixed, &mut offset) {
            Fill::Full => {}
            Fill::Empty | Fill::Partial => {
                return Err(ArchiveError::Truncated {
                    offset: 0,
                    what: "stream header",
                })
            }
            Fill::Failed(e) => return Err(e),
        }
        if fixed[..4] != MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        let version = u16::from_le_bytes([fixed[4], fixed[5]]);
        // A version-1 stream has no continuation schedule in its
        // header (and a warm-start flag in its place): this build
        // reads only the version it writes.
        if version != FORMAT_VERSION {
            return Err(ArchiveError::UnsupportedVersion {
                got: version,
                supported: FORMAT_VERSION,
            });
        }
        let meta_len = u32::from_le_bytes([fixed[6], fixed[7], fixed[8], fixed[9]]) as usize;
        if meta_len as u64 > u64::from(MAX_BLOCK_LEN) {
            return Err(ArchiveError::Malformed {
                what: "stream header",
                detail: format!("metadata length {meta_len} exceeds the block limit"),
            });
        }
        let mut buf = vec![0u8; meta_len + 4];
        match read_full(&mut src, &mut buf, &mut offset) {
            Fill::Full => {}
            Fill::Empty | Fill::Partial => {
                return Err(ArchiveError::Truncated {
                    offset: 0,
                    what: "stream header metadata",
                })
            }
            Fill::Failed(e) => return Err(e),
        }
        let mut check = Vec::with_capacity(10 + meta_len);
        check.extend_from_slice(&fixed);
        check.extend_from_slice(&buf[..meta_len]);
        let stored = u32::from_le_bytes([
            buf[meta_len],
            buf[meta_len + 1],
            buf[meta_len + 2],
            buf[meta_len + 3],
        ]);
        if crc32(&check) != stored {
            return Err(ArchiveError::CrcMismatch { offset: 0 });
        }
        let meta = RunMeta::decode(&buf[..meta_len])?;
        Ok(ArchiveReader {
            src,
            meta,
            offset,
            buf,
            finished: false,
            sealed: false,
        })
    }

    /// The stream header's run metadata.
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// Whether the run trailer has been reached.
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// Reads the next block. `Ok(None)` means the stream ended cleanly
    /// (trailer reached, or EOF exactly on a block boundary). Any
    /// damage — truncation mid-block, a CRC mismatch, a payload that
    /// cannot decode — is returned once as a typed error, after which
    /// the reader stays finished.
    pub fn next_block(&mut self) -> Result<Option<ArchiveBlock>> {
        if self.finished {
            return Ok(None);
        }
        match self.next_block_inner() {
            Ok(Some(block)) => Ok(Some(block)),
            Ok(None) => {
                self.finished = true;
                Ok(None)
            }
            Err(e) => {
                self.finished = true;
                Err(e)
            }
        }
    }

    fn next_block_inner(&mut self) -> Result<Option<ArchiveBlock>> {
        let block_offset = self.offset;
        let mut header = [0u8; BLOCK_HEADER_LEN];
        match read_full(&mut self.src, &mut header, &mut self.offset) {
            Fill::Full => {}
            Fill::Empty => return Ok(None), // clean EOF on a block boundary
            Fill::Partial => {
                return Err(ArchiveError::Truncated {
                    offset: block_offset,
                    what: "block header",
                })
            }
            Fill::Failed(e) => return Err(e),
        }
        let block_kind = header[0];
        let session = u64::from_le_bytes([
            header[1], header[2], header[3], header[4], header[5], header[6], header[7], header[8],
        ]);
        let epoch = u32::from_le_bytes([header[9], header[10], header[11], header[12]]);
        let len = u32::from_le_bytes([header[13], header[14], header[15], header[16]]);
        if len > MAX_BLOCK_LEN {
            // A corrupted length field would otherwise send the reader
            // miles off the stream; treat it as structural damage.
            return Err(ArchiveError::Malformed {
                what: "block length",
                detail: format!("{len} bytes exceeds the {MAX_BLOCK_LEN}-byte block limit"),
            });
        }
        let len = len as usize;
        self.buf.clear();
        self.buf.resize(len + 4, 0);
        let mut body = std::mem::take(&mut self.buf);
        let fill = read_full(&mut self.src, &mut body, &mut self.offset);
        self.buf = body;
        match fill {
            Fill::Full => {}
            Fill::Empty | Fill::Partial => {
                return Err(ArchiveError::Truncated {
                    offset: block_offset,
                    what: "block body",
                })
            }
            Fill::Failed(e) => return Err(e),
        }
        let stored = u32::from_le_bytes([
            self.buf[len],
            self.buf[len + 1],
            self.buf[len + 2],
            self.buf[len + 3],
        ]);
        // CRC covers header + payload; verify before decoding a byte.
        let mut check = Vec::with_capacity(BLOCK_HEADER_LEN + len);
        check.extend_from_slice(&header);
        check.extend_from_slice(&self.buf[..len]);
        if crc32(&check) != stored {
            return Err(ArchiveError::CrcMismatch {
                offset: block_offset,
            });
        }
        let block = decode_block_payload(block_kind, session, epoch, &self.buf[..len])?;
        if matches!(block, ArchiveBlock::Trailer(_)) {
            self.sealed = true;
            self.finished = true;
        }
        Ok(Some(block))
    }

    /// Reads every recoverable block, capturing (rather than
    /// propagating) any damage — the forensic entry point.
    pub fn into_contents(mut self) -> ArchiveContents {
        let mut blocks = Vec::new();
        let error = loop {
            match self.next_block() {
                Ok(Some(block)) => blocks.push(block),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        ArchiveContents {
            meta: self.meta,
            blocks,
            error,
            sealed: self.sealed,
        }
    }
}

/// Reads an entire archive strictly: any damage is an error.
pub fn read_archive<R: Read>(src: R) -> Result<(RunMeta, Vec<ArchiveBlock>)> {
    let contents = ArchiveReader::new(src)?.into_contents();
    if let Some(e) = contents.error {
        return Err(e);
    }
    Ok((contents.meta, contents.blocks))
}
