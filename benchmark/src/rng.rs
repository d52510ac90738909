//! The benchmark's only source of randomness: SplitMix64 seeded from
//! `--seed`. The program under test receives generated inputs, never the
//! seed, and the same seed always yields the same inputs.

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`tag`) of one `seed`, so that adding a
    /// draw to one input generator never shifts another's sequence.
    pub fn stream(seed: u64, tag: &str) -> Rng {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for byte in tag.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = Rng(state);
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_tag() {
        let draw = |seed, tag| {
            let mut rng = Rng::stream(seed, tag);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
    }

    #[test]
    fn range_stays_inside_its_bounds() {
        let mut rng = Rng::stream(7, "range");
        for _ in 0..1000 {
            let v = rng.range(10, 13);
            assert!((10..=13).contains(&v));
        }
    }
}
