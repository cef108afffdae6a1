//! Small numeric helpers: order statistics, the seeded generator that turns
//! `--seed` into workload inputs, and the 64-bit state hash of the
//! determinism check.

/// Linear-interpolated percentile (`p` in `[0, 100]`) of unsorted samples;
/// `0.0` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Smallest sample; `0.0` for an empty slice.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The wall time of one unit of work (a transient, a batch, a burst) with
/// the host's interference taken out; the one rule behind every workload's
/// `wall_s`.
///
/// `walls[r]` is repetition `r`'s whole-unit wall time and `sub_units[r][i]`
/// the time it spent on sub-unit `i` (an accepted step, a batch job, a
/// request). Every repetition executes the same sub-units (the determinism
/// checks enforce it), so whatever a repetition spent on sub-unit `i` beyond
/// the fastest observation of it is interference. Each repetition's wall is
/// scaled by how much shorter its sub-units would have been at their fastest,
/// `Σᵢ minᵣ tᵣᵢ / Σᵢ tᵣᵢ`, which keeps the repetition's own ratio of wall to
/// summed sub-unit time (what runs outside the sub-units, how well jobs pack
/// onto workers), and the result is the median over the repetitions.
///
/// This is a floor, not a typical time: a change that slows only some
/// repetitions moves it little. The plain median of `walls` is reported next
/// to it as `wall_median_s` for that reason. It is used because on the
/// 2-vCPU sandbox this benchmark was defined on, neighbouring tenants slow
/// stretches of 1–20 s by 20–50 %: medians of whole-unit walls spread
/// 14–37 % between invocations of one commit, past the largest bound a
/// metric may have, and this statistic 4–17 % in the same round.
pub fn steady_wall(walls: &[f64], sub_units: &[Vec<f64>]) -> f64 {
    let units = sub_units.iter().map(Vec::len).min().unwrap_or(0);
    let fastest: f64 = (0..units)
        .map(|i| sub_units.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum();
    let scaled: Vec<f64> = walls
        .iter()
        .zip(sub_units)
        .map(|(wall, r)| wall * ratio(fastest, r[..units].iter().sum()))
        .collect();
    median(&scaled)
}

/// Estimated total time of a layer: the median cost of one probed call times
/// the number of calls the run itself counted.
pub fn estimate_total(per_call_seconds: &[f64], calls: usize) -> f64 {
    median(per_call_seconds) * calls as f64
}

/// `a / b`, or `0.0` when the denominator is zero (a layer that never ran).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// always produces the same inputs.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed`, decorrelated per `stream` so every use site
    /// draws its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        SeedRng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// A factor within `1 ± relative`.
    pub fn jitter(&mut self, relative: f64) -> f64 {
        1.0 + relative * (2.0 * self.unit() - 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over the bit patterns of `values`, continuing from `hash`.
pub fn hash_f64s(mut hash: u64, values: &[f64]) -> u64 {
    for v in values {
        hash = hash_bytes(hash, &v.to_bits().to_le_bytes());
    }
    hash
}

/// FNV-1a over raw bytes, continuing from `hash`.
pub fn hash_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a offset basis: the starting value for [`hash_f64s`] / [`hash_bytes`].
pub const HASH_SEED: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn steady_wall_takes_each_sub_unit_at_its_fastest() {
        // Three repetitions of a 3-unit pass, each hit on another unit and
        // each spending a tenth of its sub-unit time outside the sub-units.
        let reps = vec![
            vec![9.0, 2.0, 3.0],
            vec![1.0, 9.0, 3.0],
            vec![1.0, 2.0, 9.0],
        ];
        let walls = [15.4, 14.3, 13.2];
        assert!((steady_wall(&walls, &reps) - 6.6).abs() < 1e-12);
        // Two workers at 75 % packing: wall = Σ jobs / (2 × 0.75).
        let jobs = vec![vec![3.0, 3.0], vec![6.0, 3.0]];
        assert!((steady_wall(&[4.0, 6.0], &jobs) - 4.0).abs() < 1e-12);
        assert_eq!(steady_wall(&[], &[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn estimate_is_per_call_median_times_counter() {
        // One outlier probe must not move the estimate.
        let probes = [2e-6, 2e-6, 50e-6, 2e-6, 2e-6];
        assert!((estimate_total(&probes, 1000) - 2e-3).abs() < 1e-15);
        assert_eq!(estimate_total(&[], 1000), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn seed_rng_repeats_and_separates_streams() {
        let a: Vec<u64> = {
            let mut r = SeedRng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SeedRng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SeedRng::new(7, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SeedRng::new(1, 0);
        for _ in 0..100 {
            let j = r.jitter(1e-6);
            assert!((j - 1.0).abs() <= 1e-6);
            let u = r.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&u));
        }
        let mut items: Vec<usize> = (0..10).collect();
        r.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn hash_depends_on_every_bit() {
        let h1 = hash_f64s(HASH_SEED, &[1.0, 2.0]);
        let h2 = hash_f64s(HASH_SEED, &[1.0, 2.0 + f64::EPSILON * 2.0]);
        assert_ne!(h1, h2);
        assert_eq!(h1, hash_f64s(HASH_SEED, &[1.0, 2.0]));
    }
}
