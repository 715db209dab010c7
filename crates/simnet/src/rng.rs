//! Deterministic pseudo-random numbers for the simulator.
//!
//! A SplitMix64 generator: tiny, fast, and good enough for latency jitter
//! and workload generation. Implemented in-repo so simulation determinism
//! does not depend on an external crate's version-to-version stream
//! stability.

/// A deterministic PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed.wrapping_add(0x9E3779B97F4A7C15),
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns a uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_u64() % (hi - lo)
    }

    /// Samples a normal distribution via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Samples an exponential distribution with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Returns `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Derives an independent child stream without consuming any draws
    /// from `self`.
    ///
    /// The child's seed mixes the parent's *current* state with `salt`
    /// through one SplitMix64 finalizer round, so (a) the parent's draw
    /// sequence is untouched — callers that never fork observe exactly
    /// the same stream — and (b) distinct salts (e.g. per-epoch ids)
    /// get decorrelated streams whose contents do not depend on the
    /// order the forks are consumed in.
    pub fn stream(&self, salt: u64) -> Rng {
        let mut z = self
            .state
            .wrapping_add(salt.wrapping_mul(0x9E3779B97F4A7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        Rng {
            state: z ^ (z >> 31),
        }
    }

    /// Picks a uniformly random element of a slice.
    ///
    /// Returns `None` on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.uniform_u64(0, items.len() as u64) as usize;
            Some(&items[i])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let x = r.uniform(5.0, 10.0);
            assert!((5.0..10.0).contains(&x));
            let n = r.uniform_u64(3, 8);
            assert!((3..8).contains(&n));
        }
    }

    #[test]
    fn normal_mean_is_close() {
        let mut r = Rng::new(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.normal(100.0, 15.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn exponential_is_positive_with_right_mean() {
        let mut r = Rng::new(13);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.exponential(50.0);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 50.0).abs() < 2.5, "mean={mean}");
    }

    #[test]
    fn chance_frequency_matches_probability() {
        let mut r = Rng::new(17);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits={hits}");
    }

    #[test]
    fn stream_fork_leaves_parent_untouched_and_decorrelates_salts() {
        let mut forked = Rng::new(42);
        let mut plain = Rng::new(42);
        let mut s0 = forked.stream(0);
        let mut s1 = forked.stream(1);
        // Forking consumed nothing: the parent replays the unforked stream.
        for _ in 0..100 {
            assert_eq!(forked.next_u64(), plain.next_u64());
        }
        // Distinct salts give distinct streams, and equal salts replay.
        assert_ne!(s0.next_u64(), s1.next_u64());
        let mut again = Rng::new(42).stream(0);
        let mut reference = Rng::new(42).stream(0);
        for _ in 0..100 {
            assert_eq!(again.next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn pick_covers_all_elements() {
        let mut r = Rng::new(19);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*r.pick(&items).unwrap() as usize - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
        assert!(r.pick::<i32>(&[]).is_none());
    }
}
