//! The framing contract: the exact bytes of a frame, and what a frame costs
//! in calls on the stream underneath — one `write` to send it, and one `read`
//! through the connection's buffer once the whole frame has arrived — plus
//! decoding under any split of the byte stream into reads.

use malleus_wire::{
    from_bytes, read_frame, read_frame_opt, to_bytes, write_frame, DEFAULT_MAX_FRAME_LEN,
};
use std::io::{BufReader, Read, Write};

/// Records what it is given and counts the `write` calls.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    writes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Hands out at most `chunk` bytes per `read` and counts the calls, EOF
/// included.
struct CountingReader<'a> {
    bytes: &'a [u8],
    chunk: usize,
    reads: usize,
}

impl<'a> CountingReader<'a> {
    fn new(bytes: &'a [u8], chunk: usize) -> Self {
        Self {
            bytes,
            chunk,
            reads: 0,
        }
    }
}

impl Read for CountingReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        let n = out.len().min(self.chunk).min(self.bytes.len());
        let (given, rest) = self.bytes.split_at(n);
        out[..n].copy_from_slice(given);
        self.bytes = rest;
        Ok(n)
    }
}

/// About the size of a daemon response (a 110B outcome is ~3 KB).
fn response_sized() -> Vec<u64> {
    (0..400).collect()
}

fn frames(values: &[Vec<u64>]) -> Vec<u8> {
    let mut buf = Vec::new();
    for v in values {
        write_frame(&mut buf, v, DEFAULT_MAX_FRAME_LEN).unwrap();
    }
    buf
}

/// The bytes of one frame, pinned: peers built before and after a change
/// to the framing code still interoperate only if these never move.
#[test]
fn golden_frame_bytes_are_pinned() {
    let golden: [u8; 22] = [
        b'M', b'W', b'I', b'R', // magic
        1, 0, // WIRE_VERSION, little-endian u16
        12, 0, 0, 0, // payload length, little-endian u32
        4, 0, 0, 0, 0, 0, 0, 0, // the string's length, as u64
        b'p', b'l', b'a', b'n',
    ];
    let value = "plan".to_string();
    let mut written = Vec::new();
    write_frame(&mut written, &value, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(written, golden);
    let payload = read_frame(&mut &golden[..], DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(from_bytes::<String>(&payload), Ok(value));
}

#[test]
fn a_frame_is_one_write() {
    for value in [Vec::new(), vec![9u64], response_sized()] {
        let mut w = CountingWriter::default();
        write_frame(&mut w, &value, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(w.writes, 1, "{} payload bytes", to_bytes(&value).len());
        assert_eq!(w.bytes, frames(&[value]));
    }
}

#[test]
fn a_refused_frame_writes_nothing() {
    let mut w = CountingWriter::default();
    assert!(write_frame(&mut w, &response_sized(), 64).is_err());
    assert_eq!((w.writes, w.bytes.len()), (0, 0));
}

#[test]
fn an_arrived_frame_is_one_read_through_the_buffer() {
    let value = response_sized();
    let bytes = frames(std::slice::from_ref(&value));
    let mut r = BufReader::new(CountingReader::new(&bytes, usize::MAX));
    let payload = read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(payload, to_bytes(&value));
    assert_eq!(r.get_ref().reads, 1);
}

#[test]
fn two_frames_in_one_read_both_decode_in_order() {
    let first = response_sized();
    let second = vec![1u64, 2, 3];
    let bytes = frames(&[first.clone(), second.clone()]);
    let mut r = BufReader::new(CountingReader::new(&bytes, usize::MAX));
    assert_eq!(
        read_frame(&mut r, DEFAULT_MAX_FRAME_LEN),
        Ok(to_bytes(&first))
    );
    assert_eq!(
        read_frame(&mut r, DEFAULT_MAX_FRAME_LEN),
        Ok(to_bytes(&second))
    );
    assert_eq!(r.get_ref().reads, 1, "both frames came in one read");
    assert_eq!(read_frame_opt(&mut r, DEFAULT_MAX_FRAME_LEN), Ok(None));
}

#[test]
fn frames_decode_however_the_stream_is_split_into_reads() {
    // The middle frame is larger than the connection buffer (8 KiB).
    let values = [response_sized(), (0..3_000).collect(), vec![1u64, 2, 3]];
    let bytes = frames(&values);
    for chunk in [1, 7, 4_096] {
        let mut r = BufReader::new(CountingReader::new(&bytes, chunk));
        for v in &values {
            assert_eq!(
                read_frame(&mut r, DEFAULT_MAX_FRAME_LEN),
                Ok(to_bytes(v)),
                "{chunk}-byte reads"
            );
        }
        assert_eq!(read_frame_opt(&mut r, DEFAULT_MAX_FRAME_LEN), Ok(None));
        if chunk == 1 {
            assert_eq!(r.get_ref().reads, bytes.len() + 1, "one per byte, then EOF");
        }
    }
}
