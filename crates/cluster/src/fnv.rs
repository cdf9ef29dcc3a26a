//! The workspace's FNV-1a hasher for fingerprints and cache keys.

/// Incremental 64-bit FNV-1a over whole `u64` words, with SplitMix64's
/// finalizer on [`Fnv1a::finish`].  Snapshot fingerprints, planner memo
/// keys, service cache keys and backend config fingerprints all use it, so
/// equal inputs hash equally everywhere; collisions are possible and every
/// cache confirms hits by full equality.  The methods are `#[inline]` so
/// that callers in other crates hash with straight-line code rather than a
/// call per word.
///
/// Each word costs one xor-multiply.  A multiply carries a bit only
/// upwards, so before finalization the low bits of the state depend only on
/// the low bits of the words mixed: the rates 1.0, 2.0 and 3.75 differ only
/// in their high bits.  The finalizer folds the high bits down, which
/// consumers that take the key modulo a small count (the service's L2
/// shards) rely on.
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

    /// Mix one word.
    #[inline]
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.0 = (self.0 ^ value).wrapping_mul(Self::PRIME);
        self
    }

    /// Mix a float's exact bit pattern.
    #[inline]
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Mix the length, then each byte as its own word (one multiply per
    /// byte).
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.u64(bytes.len() as u64);
        for &b in bytes {
            self.u64(u64::from(b));
        }
        self
    }

    /// The hash of everything mixed so far, passed through SplitMix64's
    /// finalizer (Steele, Lea & Flood, OOPSLA 2014) so that every output bit
    /// depends on every state bit.
    #[inline]
    pub fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}
