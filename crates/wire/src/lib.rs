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
//! * [`wire_struct!`] and [`wire_enum!`], which declare a type's format
//!   once: the list of a struct's fields, or of an enum's tags and variant
//!   fields.  The order of a list is the format, so reordering, adding or
//!   dropping an entry changes the bytes and needs a [`WIRE_VERSION`] bump;
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

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
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
wire_primitive!(u32, put_u32, get_u32);
wire_primitive!(u64, put_u64, get_u64);
wire_primitive!(usize, put_usize, get_usize);
wire_primitive!(f64, put_f64, get_f64);
wire_primitive!(bool, put_bool, get_bool);

/// Implements [`Wire`] for a struct from the list of its fields, which
/// `encode` writes and `decode` reads in list order.  A tuple struct lists
/// its field indices: `wire_struct!(GpuId { 0 })`.
///
/// ```
/// use malleus_wire::{from_bytes, to_bytes, wire_struct};
///
/// #[derive(Debug, PartialEq)]
/// struct Span { start: u64, len: u32 }
/// wire_struct!(Span { start, len });
///
/// let span = Span { start: 7, len: 2 };
/// assert_eq!(to_bytes(&span), [7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0]);
/// assert_eq!(from_bytes(&to_bytes(&span)), Ok(span));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($t:ident { $($field:tt),* $(,)? }) => {
        impl $crate::Wire for $t {
            fn encode(&self, e: &mut $crate::Encoder) {
                $($crate::Wire::encode(&self.$field, e);)*
            }
            fn decode(d: &mut $crate::Decoder<'_>) -> Result<Self, $crate::WireError> {
                // Struct-expression fields evaluate in the order written.
                Ok(Self {
                    $($field: $crate::Wire::decode(d)?,)*
                })
            }
        }
    };
}

/// Implements [`Wire`] for an enum from `tag => variant` entries: `encode`
/// writes the one-byte tag, then the variant's fields in list order.  A
/// variant is a unit, a tuple with one name per field, or a struct.  A tag
/// no entry lists decodes to [`WireError::UnknownTag`] naming the type.
///
/// ```
/// use malleus_wire::{from_bytes, to_bytes, wire_enum, WireError};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape { Empty, Line(u32), Rect { w: u32, h: u32 } }
/// wire_enum!(Shape { 0 => Empty, 1 => Line(len), 2 => Rect { w, h } });
///
/// assert_eq!(to_bytes(&Shape::Line(3)), [1, 3, 0, 0, 0]);
/// let rect = Shape::Rect { w: 2, h: 5 };
/// assert_eq!(from_bytes(&to_bytes(&rect)), Ok(rect));
/// let unknown = WireError::UnknownTag { what: "Shape", tag: 3 };
/// assert_eq!(from_bytes::<Shape>(&[3]), Err(unknown));
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($t:ident {
        $($tag:literal => $variant:ident
            $(($($pos:ident),*))?
            $({ $($field:ident),* })?
        ),* $(,)?
    }) => {
        impl $crate::Wire for $t {
            fn encode(&self, e: &mut $crate::Encoder) {
                match self {
                    $(Self::$variant $(($($pos),*))? $({ $($field),* })? => {
                        e.put_u8($tag);
                        $($($crate::Wire::encode($pos, e);)*)?
                        $($($crate::Wire::encode($field, e);)*)?
                    })*
                }
            }
            fn decode(d: &mut $crate::Decoder<'_>) -> Result<Self, $crate::WireError> {
                match d.get_u8()? {
                    $($tag => {
                        $($(let $pos = $crate::Wire::decode(d)?;)*)?
                        $($(let $field = $crate::Wire::decode(d)?;)*)?
                        Ok(Self::$variant $(($($pos),*))? $({ $($field),* })?)
                    })*
                    tag => Err($crate::WireError::UnknownTag {
                        what: stringify!($t),
                        tag: u64::from(tag),
                    }),
                }
            }
        }
    };
}

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
// Planner formats: one declaration each, in today's v2 field and tag order
// ---------------------------------------------------------------------------

wire_struct!(GpuId { 0 });
wire_struct!(ClusterSnapshot {
    num_nodes,
    node_of,
    rates
});
wire_struct!(ModelSpec {
    name,
    num_layers,
    hidden_size,
    ffn_hidden_size,
    num_heads,
    num_kv_heads,
    vocab_size,
    seq_len
});
wire_struct!(HardwareParams {
    gpu_peak_flops,
    achievable_flops_fraction,
    gpu_memory_bytes,
    memory_reserve_bytes,
    intra_node_bandwidth,
    inter_node_bandwidth,
    collective_latency,
    checkpoint_bandwidth,
    restart_init_seconds
});
wire_struct!(MemoryModel {
    activation_bytes_per_token_per_hidden,
    backward_peak_factor,
    param_and_grad_bytes_per_param,
    optimizer_bytes_per_param
});
wire_struct!(ProfiledCoefficients {
    spec,
    hardware,
    memory
});
wire_enum!(Parallelism {
    0 => Auto,
    1 => Fixed(threads),
});
wire_struct!(PlannerConfig {
    global_batch_size,
    candidate_tp_degrees,
    candidate_micro_batch_sizes,
    candidate_dp,
    fixed_dp,
    straggler_threshold,
    enable_group_splitting,
    nonuniform_layers,
    nonuniform_data,
    nonuniform_stages,
    parallelism,
    incremental
});
wire_struct!(TpGroup { gpus });
wire_struct!(StagePlan { group, layers });
wire_struct!(PipelinePlan {
    stages,
    num_micro_batches
});
wire_struct!(ParallelizationPlan {
    pipelines,
    micro_batch_size,
    removed_gpus
});
wire_struct!(PlanTiming {
    grouping,
    division,
    ordering,
    assignment
});
wire_struct!(LatticeEntry {
    max_tp,
    dp,
    micro_batch,
    nonuniform_division,
    estimated_step_time,
    reused
});
wire_struct!(ScoredLattice {
    entries,
    reused,
    evaluated,
    delta
});
wire_struct!(PlanOutcome {
    plan,
    estimated_step_time,
    estimated_step_time_simplified,
    chosen_tp,
    dp,
    timing,
    lattice
});
// Tags follow `BackendId::ALL` order.
wire_enum!(BackendId {
    0 => Malleus,
    1 => Megatron,
    2 => DeepSpeed,
    3 => Oobleck,
    4 => MegatronRestart,
    5 => DeepSpeedRestart,
});
wire_struct!(PlannedOutcome {
    backend,
    plan,
    active_gpus,
    estimated_step_time,
    transition_cost,
    description,
    malleus
});
wire_enum!(PlanError {
    0 => NoUsableGpus,
    1 => NoFeasiblePlan { reason },
    2 => InvalidPlan { reason },
    3 => InfeasibleDataParallel { dp, groups },
    4 => NoHealthyNodes,
    5 => InfeasibleConfiguration { backend, reason },
    6 => CannotAdapt { backend, reason },
    7 => Unavailable { reason },
});

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
