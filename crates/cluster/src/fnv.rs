//! The workspace's FNV-1a hasher for fingerprints and cache keys.

/// Incremental 64-bit FNV-1a over little-endian `u64` words, fed byte by
/// byte.  Snapshot fingerprints, planner memo keys, service cache keys and
/// backend config fingerprints all use it, so equal inputs hash equally
/// everywhere; collisions are possible and every cache confirms hits by
/// full equality.  The methods are `#[inline]` so that callers in other
/// crates hash with straight-line code rather than a call per word.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Mix one word, least-significant byte first.
    #[inline]
    pub fn u64(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Mix a float's exact bit pattern.
    #[inline]
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Mix the length, then each byte as its own word.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.u64(bytes.len() as u64);
        for &b in bytes {
            self.u64(u64::from(b));
        }
        self
    }

    /// The hash of everything mixed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}
