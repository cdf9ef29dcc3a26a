//! `malleus-wire` — hand-rolled length-prefixed binary codec for the
//! standalone plan server.
//!
//! The workspace's offline `serde` shim is a no-op marker (derives compile but
//! produce no serialization), so the cross-process transport cannot lean on
//! `serde_json`/`bincode`.  This crate provides an explicit, versioned binary
//! encoding instead:
//!
//! * the [`Wire`] trait — `encode` into an [`Encoder`], `decode` from a
//!   [`Decoder`] — implemented here for every planner type that travels
//!   between a `PlanClient` and the daemon (`PlanOutcome`, `PlannedOutcome`,
//!   `PlanError`, `ParallelizationPlan`, `PlannerConfig`,
//!   `ProfiledCoefficients`, `ClusterSnapshot`, `ScoredLattice`, ...), and by
//!   `malleus_service::server` for its own request/response/error types;
//! * framing ([`write_frame`] / [`read_frame`]): each message is prefixed
//!   with a fixed 10-byte header carrying a magic, the protocol version and
//!   the payload length, so a reader can reject foreign/corrupt/oversized
//!   traffic *before* allocating for it.  A frame costs one `write` (the
//!   value is encoded behind a reserved header that is patched in place)
//!   and, once it has arrived, one `read` through the connection's
//!   `BufRead` buffer.
//!
//! Determinism contract: `f64` values are encoded as their IEEE-754 bit
//! patterns ([`f64::to_bits`]) and decoded with [`f64::from_bits`], so a plan
//! that crosses the wire is **byte-identical** to the plan the planner
//! produced — the facade's equivalence harness proves socket-path plans equal
//! the direct `Planner::plan` oracle bit for bit.
//!
//! Robustness contract: decoding never panics and never allocates more than
//! the input could justify.  Malformed input surfaces as a typed
//! [`WireError`] — truncated buffers, length prefixes past the frame cap,
//! unknown enum tags, unknown protocol versions, trailing garbage.  Length
//! prefixes are validated against the bytes actually available before any
//! `Vec` reservation, so a hostile "2^60 elements follow" prefix costs
//! nothing.

// Request-serving code answers every failure with a typed error; tests may
// panic freely.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]
// Floats are compared bitwise (`to_bits`), so plans stay byte-identical.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use malleus_cluster::{ClusterSnapshot, GpuId};
use malleus_core::{
    BackendId, LatticeEntry, Parallelism, ParallelizationPlan, PipelinePlan, PlanError,
    PlanOutcome, PlanTiming, PlannedOutcome, PlannerConfig, ScoredLattice, StagePlan, TpGroup,
};
use malleus_model::{HardwareParams, MemoryModel, ModelSpec, ProfiledCoefficients};
use std::io::{BufRead, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Protocol version carried in every frame header.  It changes whenever a
/// payload encoding does, so a peer built against another encoding is
/// refused with [`WireError::UnknownVersion`] instead of misparsing.
pub const WIRE_VERSION: u16 = 2;

/// Frame magic: rejects non-malleus traffic on the first four bytes.
pub const FRAME_MAGIC: [u8; 4] = *b"MWIR";

/// Frame header size: magic (4) + version (2) + payload length (4).
pub const FRAME_HEADER_LEN: usize = 10;

/// Default cap on a frame payload (64 MiB — a 512-GPU lattice-bearing
/// outcome is well under 1 MiB, so this is generous without allowing a
/// hostile peer to command an unbounded allocation).
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 << 20;

/// Typed decode/framing failures.  Every malformed-input path lands here —
/// the codec never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A length prefix exceeded the configured cap.
    Oversized {
        /// The claimed length.
        len: usize,
        /// The cap it violated.
        cap: usize,
    },
    /// An enum tag no variant claims (wrong type, corrupt stream, or a newer
    /// peer).
    UnknownTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u64,
    },
    /// The frame header carried a protocol version this build does not speak.
    UnknownVersion {
        /// The version in the header.
        version: u16,
    },
    /// The frame header did not start with [`FRAME_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// A complete value decoded but bytes remained — the payload is not what
    /// the caller thinks it is.
    TrailingBytes {
        /// Bytes left over.
        remaining: usize,
    },
    /// A field decoded but held an impossible value (invalid UTF-8, a bool
    /// that is neither 0 nor 1, a u64 that does not fit `usize`).
    Corrupt {
        /// The field/type that was corrupt.
        what: &'static str,
    },
    /// The underlying stream failed while reading/writing a frame.
    Io {
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            WireError::Oversized { len, cap } => {
                write!(f, "length prefix {len} exceeds the cap {cap}")
            }
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::UnknownVersion { version } => {
                write!(f, "unknown wire protocol version {version}")
            }
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:?}"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
            WireError::Corrupt { what } => write!(f, "corrupt {what}"),
            WireError::Io { kind, detail } => write!(f, "frame I/O failed ({kind:?}): {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

/// Append-only encode buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64` so 32- and 64-bit peers interoperate.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Exact IEEE-754 bit pattern — the byte-identity contract.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked decode cursor over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let truncated = WireError::Truncated {
            needed: n,
            available: self.remaining(),
        };
        // `.get` (never slice indexing) so a hostile length can only produce
        // a typed error, not a panic in the request path.
        let end = self.pos.checked_add(n).ok_or(truncated.clone())?;
        let slice = self.buf.get(self.pos..end).ok_or(truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// [`take`](Self::take) into a fixed-size array (for `from_le_bytes`),
    /// avoiding the panicking `try_into().unwrap()` conversion.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.take_array::<1>()?))
    }

    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_array::<2>()?))
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array::<4>()?))
    }

    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }

    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.get_u64()?).map_err(|_| WireError::Corrupt { what: "usize" })
    }

    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag {
                what: "bool",
                tag: tag as u64,
            }),
        }
    }

    /// A length prefix for a sequence whose elements each occupy at least one
    /// byte: validated against the remaining input *before* any allocation,
    /// so a hostile count can never command memory the stream cannot back.
    pub fn get_seq_len(&mut self) -> Result<usize, WireError> {
        let len = self.get_usize()?;
        if len > self.remaining() {
            return Err(WireError::Truncated {
                needed: len,
                available: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_seq_len()?;
        self.take(len)
    }

    /// Length-prefixed UTF-8.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt {
            what: "utf-8 string",
        })
    }

    /// Assert the value consumed the whole buffer.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// Binary encode/decode for one type.  Implementations must round-trip
/// *exactly* — `decode(encode(x)) == x`, with `f64`s compared by bit pattern.
pub trait Wire: Sized {
    /// Append this value to the encoder.
    fn encode(&self, e: &mut Encoder);
    /// Consume this value from the decoder.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError>;
}

/// Encode a value to a fresh byte vector.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    value.encode(&mut e);
    e.into_bytes()
}

/// Decode a value that must consume the whole buffer (trailing bytes are a
/// typed error, not silently ignored).
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Decoder::new(bytes);
    let value = T::decode(&mut d)?;
    d.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Encode `value` as one framed message (`MWIR`, version, payload length,
/// payload) and send it with a single `write_all`.  The value is encoded
/// after reserved header bytes whose length field is patched in place, so
/// the frame is one buffer and the payload is never copied.  A payload over
/// `cap` is refused with [`WireError::Oversized`] before any byte is
/// written, so the stream stays frame-aligned.
pub fn write_frame<W: Write, T: Wire>(w: &mut W, value: &T, cap: usize) -> Result<(), WireError> {
    let mut e = Encoder {
        buf: vec![0; FRAME_HEADER_LEN],
    };
    value.encode(&mut e);
    let mut frame = e.buf;
    let len = frame.len() - FRAME_HEADER_LEN;
    let cap = cap.min(u32::MAX as usize);
    if len > cap {
        return Err(WireError::Oversized { len, cap });
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    header[6..10].copy_from_slice(&(len as u32).to_le_bytes());
    for (slot, byte) in frame.iter_mut().zip(header) {
        *slot = byte;
    }
    w.write_all(&frame)?;
    Ok(())
}

/// Read until `buf` is full or EOF; returns bytes read.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut got = 0;
    while let Some(rest) = buf.get_mut(got..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(got)
}

/// Read one framed payload through the connection's buffer: once a whole
/// frame has arrived, header and payload cost one `read` on the stream
/// underneath (wrap a socket in one `BufReader` for the connection's
/// lifetime).  The header is validated (magic, version, length ≤ `cap`)
/// before the payload allocation, and a stream that ends mid-frame is a
/// typed [`WireError::Truncated`].  After any error the stream is no longer
/// known to be frame-aligned — the rest of a refused frame may be queued
/// behind it — so callers close the connection.
pub fn read_frame<R: BufRead>(r: &mut R, cap: usize) -> Result<Vec<u8>, WireError> {
    match read_frame_opt(r, cap)? {
        Some(payload) => Ok(payload),
        None => Err(WireError::Truncated {
            needed: FRAME_HEADER_LEN,
            available: 0,
        }),
    }
}

/// Like [`read_frame`], but a clean EOF *before any header byte* returns
/// `Ok(None)` — how a server loop distinguishes "client hung up" from
/// "client sent garbage".
pub fn read_frame_opt<R: BufRead>(r: &mut R, cap: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let got = read_full(r, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    if got < FRAME_HEADER_LEN {
        return Err(WireError::Truncated {
            needed: FRAME_HEADER_LEN,
            available: got,
        });
    }
    if header[..4] != FRAME_MAGIC {
        return Err(WireError::BadMagic {
            found: [header[0], header[1], header[2], header[3]],
        });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::UnknownVersion { version });
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if len > cap {
        return Err(WireError::Oversized { len, cap });
    }
    let mut payload = vec![0u8; len];
    let got = read_full(r, &mut payload)?;
    if got < len {
        return Err(WireError::Truncated {
            needed: len,
            available: got,
        });
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Primitive / container impls
// ---------------------------------------------------------------------------

macro_rules! wire_primitive {
    ($t:ty, $put:ident, $get:ident) => {
        impl Wire for $t {
            fn encode(&self, e: &mut Encoder) {
                e.$put(*self);
            }
            fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
                d.$get()
            }
        }
    };
}

wire_primitive!(u8, put_u8, get_u8);
wire_primitive!(u16, put_u16, get_u16);
wire_primitive!(u32, put_u32, get_u32);
wire_primitive!(u64, put_u64, get_u64);
wire_primitive!(usize, put_usize, get_usize);
wire_primitive!(f64, put_f64, get_f64);
wire_primitive!(bool, put_bool, get_bool);

impl Wire for String {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        d.get_str()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            tag => Err(WireError::UnknownTag {
                what: "Option",
                tag: tag as u64,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.len());
        for item in self {
            item.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        // Every Wire value occupies ≥ 1 byte, so get_seq_len's
        // count-vs-remaining check bounds the reservation.
        let len = d.get_seq_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, e: &mut Encoder) {
        (**self).encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(T::decode(d)?))
    }
}

impl Wire for Duration {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.as_secs());
        e.put_u32(self.subsec_nanos());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let secs = d.get_u64()?;
        let nanos = d.get_u32()?;
        if nanos >= 1_000_000_000 {
            return Err(WireError::Corrupt {
                what: "Duration subsecond nanos",
            });
        }
        Ok(Duration::new(secs, nanos))
    }
}

// ---------------------------------------------------------------------------
// Cluster / model types
// ---------------------------------------------------------------------------

impl Wire for GpuId {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(GpuId(d.get_u32()?))
    }
}

impl Wire for ClusterSnapshot {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.num_nodes);
        self.node_of.encode(e);
        self.rates.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ClusterSnapshot {
            num_nodes: usize::decode(d)?,
            node_of: Vec::decode(d)?,
            rates: Vec::decode(d)?,
        })
    }
}

impl Wire for ModelSpec {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_u32(self.num_layers);
        e.put_u64(self.hidden_size);
        e.put_u64(self.ffn_hidden_size);
        e.put_u64(self.num_heads);
        e.put_u64(self.num_kv_heads);
        e.put_u64(self.vocab_size);
        e.put_u64(self.seq_len);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ModelSpec {
            name: d.get_str()?,
            num_layers: d.get_u32()?,
            hidden_size: d.get_u64()?,
            ffn_hidden_size: d.get_u64()?,
            num_heads: d.get_u64()?,
            num_kv_heads: d.get_u64()?,
            vocab_size: d.get_u64()?,
            seq_len: d.get_u64()?,
        })
    }
}

impl Wire for HardwareParams {
    fn encode(&self, e: &mut Encoder) {
        e.put_f64(self.gpu_peak_flops);
        e.put_f64(self.achievable_flops_fraction);
        e.put_f64(self.gpu_memory_bytes);
        e.put_f64(self.memory_reserve_bytes);
        e.put_f64(self.intra_node_bandwidth);
        e.put_f64(self.inter_node_bandwidth);
        e.put_f64(self.collective_latency);
        e.put_f64(self.checkpoint_bandwidth);
        e.put_f64(self.restart_init_seconds);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(HardwareParams {
            gpu_peak_flops: d.get_f64()?,
            achievable_flops_fraction: d.get_f64()?,
            gpu_memory_bytes: d.get_f64()?,
            memory_reserve_bytes: d.get_f64()?,
            intra_node_bandwidth: d.get_f64()?,
            inter_node_bandwidth: d.get_f64()?,
            collective_latency: d.get_f64()?,
            checkpoint_bandwidth: d.get_f64()?,
            restart_init_seconds: d.get_f64()?,
        })
    }
}

impl Wire for MemoryModel {
    fn encode(&self, e: &mut Encoder) {
        e.put_f64(self.activation_bytes_per_token_per_hidden);
        e.put_f64(self.backward_peak_factor);
        e.put_f64(self.param_and_grad_bytes_per_param);
        e.put_f64(self.optimizer_bytes_per_param);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(MemoryModel {
            activation_bytes_per_token_per_hidden: d.get_f64()?,
            backward_peak_factor: d.get_f64()?,
            param_and_grad_bytes_per_param: d.get_f64()?,
            optimizer_bytes_per_param: d.get_f64()?,
        })
    }
}

impl Wire for ProfiledCoefficients {
    fn encode(&self, e: &mut Encoder) {
        self.spec.encode(e);
        self.hardware.encode(e);
        self.memory.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ProfiledCoefficients {
            spec: ModelSpec::decode(d)?,
            hardware: HardwareParams::decode(d)?,
            memory: MemoryModel::decode(d)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Core planner types
// ---------------------------------------------------------------------------

impl Wire for Parallelism {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Parallelism::Auto => e.put_u8(0),
            Parallelism::Fixed(n) => {
                e.put_u8(1);
                e.put_usize(*n);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(Parallelism::Auto),
            1 => Ok(Parallelism::Fixed(d.get_usize()?)),
            tag => Err(WireError::UnknownTag {
                what: "Parallelism",
                tag: tag as u64,
            }),
        }
    }
}

impl Wire for PlannerConfig {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.global_batch_size);
        self.candidate_tp_degrees.encode(e);
        self.candidate_micro_batch_sizes.encode(e);
        self.candidate_dp.encode(e);
        self.fixed_dp.encode(e);
        e.put_f64(self.straggler_threshold);
        e.put_bool(self.enable_group_splitting);
        e.put_bool(self.nonuniform_layers);
        e.put_bool(self.nonuniform_data);
        e.put_bool(self.nonuniform_stages);
        self.parallelism.encode(e);
        e.put_bool(self.incremental);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(PlannerConfig {
            global_batch_size: d.get_u64()?,
            candidate_tp_degrees: Vec::decode(d)?,
            candidate_micro_batch_sizes: Vec::decode(d)?,
            candidate_dp: Option::decode(d)?,
            fixed_dp: Option::decode(d)?,
            straggler_threshold: d.get_f64()?,
            enable_group_splitting: d.get_bool()?,
            nonuniform_layers: d.get_bool()?,
            nonuniform_data: d.get_bool()?,
            nonuniform_stages: d.get_bool()?,
            parallelism: Parallelism::decode(d)?,
            incremental: d.get_bool()?,
        })
    }
}

impl Wire for TpGroup {
    fn encode(&self, e: &mut Encoder) {
        self.gpus.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(TpGroup {
            gpus: Vec::decode(d)?,
        })
    }
}

impl Wire for StagePlan {
    fn encode(&self, e: &mut Encoder) {
        self.group.encode(e);
        e.put_u32(self.layers);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(StagePlan {
            group: TpGroup::decode(d)?,
            layers: d.get_u32()?,
        })
    }
}

impl Wire for PipelinePlan {
    fn encode(&self, e: &mut Encoder) {
        self.stages.encode(e);
        e.put_u64(self.num_micro_batches);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(PipelinePlan {
            stages: Vec::decode(d)?,
            num_micro_batches: d.get_u64()?,
        })
    }
}

impl Wire for ParallelizationPlan {
    fn encode(&self, e: &mut Encoder) {
        self.pipelines.encode(e);
        e.put_u64(self.micro_batch_size);
        self.removed_gpus.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ParallelizationPlan {
            pipelines: Vec::decode(d)?,
            micro_batch_size: d.get_u64()?,
            removed_gpus: Vec::decode(d)?,
        })
    }
}

impl Wire for PlanTiming {
    fn encode(&self, e: &mut Encoder) {
        self.grouping.encode(e);
        self.division.encode(e);
        self.ordering.encode(e);
        self.assignment.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(PlanTiming {
            grouping: Duration::decode(d)?,
            division: Duration::decode(d)?,
            ordering: Duration::decode(d)?,
            assignment: Duration::decode(d)?,
        })
    }
}

impl Wire for LatticeEntry {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.max_tp);
        e.put_usize(self.dp);
        e.put_u64(self.micro_batch);
        e.put_bool(self.nonuniform_division);
        self.estimated_step_time.encode(e);
        e.put_bool(self.reused);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(LatticeEntry {
            max_tp: d.get_u32()?,
            dp: d.get_usize()?,
            micro_batch: d.get_u64()?,
            nonuniform_division: d.get_bool()?,
            estimated_step_time: Option::decode(d)?,
            reused: d.get_bool()?,
        })
    }
}

impl Wire for ScoredLattice {
    fn encode(&self, e: &mut Encoder) {
        self.entries.encode(e);
        e.put_usize(self.reused);
        e.put_usize(self.evaluated);
        e.put_bool(self.delta);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ScoredLattice {
            entries: Vec::decode(d)?,
            reused: d.get_usize()?,
            evaluated: d.get_usize()?,
            delta: d.get_bool()?,
        })
    }
}

impl Wire for PlanOutcome {
    fn encode(&self, e: &mut Encoder) {
        self.plan.encode(e);
        e.put_f64(self.estimated_step_time);
        e.put_f64(self.estimated_step_time_simplified);
        e.put_u32(self.chosen_tp);
        e.put_usize(self.dp);
        self.timing.encode(e);
        self.lattice.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(PlanOutcome {
            plan: ParallelizationPlan::decode(d)?,
            estimated_step_time: d.get_f64()?,
            estimated_step_time_simplified: d.get_f64()?,
            chosen_tp: d.get_u32()?,
            dp: d.get_usize()?,
            timing: PlanTiming::decode(d)?,
            lattice: Option::decode(d)?,
        })
    }
}

impl Wire for BackendId {
    fn encode(&self, e: &mut Encoder) {
        // Tag = position in BackendId::ALL — stable like BackendId::code(),
        // but one byte.
        let tag = match BackendId::ALL.iter().position(|b| b == self) {
            Some(i) => i as u8,
            // Unreachable by construction (ALL enumerates the enum); emit a
            // tag `decode` rejects as UnknownTag rather than panicking in an
            // encode path.
            None => u8::MAX,
        };
        e.put_u8(tag);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let tag = d.get_u8()?;
        BackendId::ALL
            .get(tag as usize)
            .copied()
            .ok_or(WireError::UnknownTag {
                what: "BackendId",
                tag: tag as u64,
            })
    }
}

impl Wire for PlannedOutcome {
    fn encode(&self, e: &mut Encoder) {
        self.backend.encode(e);
        self.plan.encode(e);
        self.active_gpus.encode(e);
        e.put_f64(self.estimated_step_time);
        e.put_f64(self.transition_cost);
        e.put_str(&self.description);
        self.malleus.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(PlannedOutcome {
            backend: BackendId::decode(d)?,
            plan: Option::decode(d)?,
            active_gpus: Vec::decode(d)?,
            estimated_step_time: d.get_f64()?,
            transition_cost: d.get_f64()?,
            description: d.get_str()?,
            malleus: Option::decode(d)?,
        })
    }
}

impl Wire for PlanError {
    fn encode(&self, e: &mut Encoder) {
        match self {
            PlanError::NoUsableGpus => e.put_u8(0),
            PlanError::NoFeasiblePlan { reason } => {
                e.put_u8(1);
                e.put_str(reason);
            }
            PlanError::InvalidPlan { reason } => {
                e.put_u8(2);
                e.put_str(reason);
            }
            PlanError::InfeasibleDataParallel { dp, groups } => {
                e.put_u8(3);
                e.put_usize(*dp);
                e.put_usize(*groups);
            }
            PlanError::NoHealthyNodes => e.put_u8(4),
            PlanError::InfeasibleConfiguration { backend, reason } => {
                e.put_u8(5);
                e.put_str(backend);
                e.put_str(reason);
            }
            PlanError::CannotAdapt { backend, reason } => {
                e.put_u8(6);
                e.put_str(backend);
                e.put_str(reason);
            }
            PlanError::Unavailable { reason } => {
                e.put_u8(7);
                e.put_str(reason);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(PlanError::NoUsableGpus),
            1 => Ok(PlanError::NoFeasiblePlan {
                reason: d.get_str()?,
            }),
            2 => Ok(PlanError::InvalidPlan {
                reason: d.get_str()?,
            }),
            3 => Ok(PlanError::InfeasibleDataParallel {
                dp: d.get_usize()?,
                groups: d.get_usize()?,
            }),
            4 => Ok(PlanError::NoHealthyNodes),
            5 => Ok(PlanError::InfeasibleConfiguration {
                backend: d.get_str()?,
                reason: d.get_str()?,
            }),
            6 => Ok(PlanError::CannotAdapt {
                backend: d.get_str()?,
                reason: d.get_str()?,
            }),
            7 => Ok(PlanError::Unavailable {
                reason: d.get_str()?,
            }),
            tag => Err(WireError::UnknownTag {
                what: "PlanError",
                tag: tag as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_bit_patterns_survive_exactly() {
        for v in [
            0.0,
            -0.0,
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1.0000000000000002,
        ] {
            let decoded: f64 = from_bytes(&to_bytes(&v)).unwrap();
            assert_eq!(decoded.to_bits(), v.to_bits());
        }
        // NaN payload bits survive too.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let decoded: f64 = from_bytes(&to_bytes(&nan)).unwrap();
        assert_eq!(decoded.to_bits(), nan.to_bits());
    }

    #[test]
    fn hostile_sequence_length_is_rejected_before_allocation() {
        // Claims 2^60 u64 elements with only 8 bytes of backing input.
        let mut e = Encoder::new();
        e.put_u64(1u64 << 60);
        e.put_u64(42);
        let err = from_bytes::<Vec<u64>>(&e.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0xAB);
        assert_eq!(
            from_bytes::<u32>(&bytes).unwrap_err(),
            WireError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let value = "hello".to_string();
        let mut buf = Vec::new();
        write_frame(&mut buf, &value, DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut reader = &buf[..];
        let read = read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(read, to_bytes(&value));
        assert_eq!(read_frame_opt(&mut reader, DEFAULT_MAX_FRAME_LEN), Ok(None));
    }

    #[test]
    fn oversized_payload_is_rejected_on_write_and_read() {
        // A length prefix and 24 bytes: a 32-byte payload.
        let value = vec![0u8; 24];
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &value, 16),
            Err(WireError::Oversized { len: 32, cap: 16 })
        ));
        assert!(buf.is_empty(), "a refused frame writes nothing");
        write_frame(&mut buf, &value, 64).unwrap();
        assert!(matches!(
            read_frame(&mut &buf[..], 16),
            Err(WireError::Oversized { len: 32, cap: 16 })
        ));
    }

    /// A reader that fails every other `read` with `Interrupted` and
    /// otherwise hands out one byte, as a socket may under signals.
    struct Trickle<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            if self.reads % 2 == 1 {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let (Some(slot), Some((&byte, rest))) = (out.first_mut(), self.bytes.split_first())
            else {
                return Ok(0);
            };
            *slot = byte;
            self.bytes = rest;
            Ok(1)
        }
    }

    #[test]
    fn frames_survive_one_byte_reads_and_interrupts() {
        let first = "straggler".to_string();
        let second = vec![1u64, 2, 3];
        let mut buf = Vec::new();
        write_frame(&mut buf, &first, DEFAULT_MAX_FRAME_LEN).unwrap();
        write_frame(&mut buf, &second, DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut reader = std::io::BufReader::new(Trickle {
            bytes: &buf,
            reads: 0,
        });
        assert_eq!(
            read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN),
            Ok(to_bytes(&first))
        );
        assert_eq!(
            read_frame_opt(&mut reader, DEFAULT_MAX_FRAME_LEN),
            Ok(Some(to_bytes(&second)))
        );
        assert_eq!(read_frame_opt(&mut reader, DEFAULT_MAX_FRAME_LEN), Ok(None));
        // Every frame byte cost one interrupted and one one-byte read.
        let reads = reader.get_ref().reads;
        assert!(reads >= 2 * buf.len(), "{reads}");
    }
}
