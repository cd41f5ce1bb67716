//! A fixed-size log-linear latency histogram.
//!
//! Values below 64 get a bucket each; above that every power of two is
//! cut into 64 equal buckets, so a bucket is at most 1/64 (1.6%) of its
//! lower bound wide. The table has a fixed 3,776 counters however many
//! samples it takes, which keeps latency sampling out of `peak_rss_mb`
//! (`cpdb-obs`'s log₂ buckets cannot resolve a tenth; a growing `Vec`
//! of samples would be the largest allocation of a read workload).

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { counts: Box::new([0; BUCKETS]), total: 0, sum: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// Inclusive lower bound and width of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The `q`-quantile, interpolated by rank inside its bucket (so two
    /// runs whose medians share a bucket still read differently). 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(0.0, self.total as f64);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 && (seen + n) as f64 >= rank {
                let (lo, width) = bucket_range(i);
                let into = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * into;
            }
            seen += n;
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bucket_range(i);
            assert_eq!(lo, next, "bucket {i} starts where the last ended");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + (width - 1)), i);
            assert!(lo < SUB || width * SUB <= lo, "at most 1/64 wide");
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at 2^64");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    /// Percentiles stay within 3% of a sorted-sample oracle, on a
    /// heavy-tailed mix like the latencies the benchmark records.
    #[test]
    fn percentiles_match_a_sorted_oracle() {
        let mut rng = Rng::new(11);
        let mut hist = Hist::default();
        let mut samples = Vec::new();
        for _ in 0..200_000 {
            let base = 2_000 + rng.below(6_000);
            let v = match rng.below(100) {
                0 => base * 400,
                1..=5 => base * 12,
                _ => base,
            };
            hist.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let oracle = samples[((q * samples.len() as f64) as usize).min(samples.len() - 1)];
            let got = hist.quantile(q);
            let err = (got - oracle as f64).abs() / oracle as f64;
            assert!(err <= 0.03, "q{q}: {got} vs {oracle} ({err:.4})");
        }
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((hist.mean() - mean).abs() < 1e-6 * mean);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        (0..1000).for_each(|v| a.record(v));
        (1000..2000).for_each(|v| b.record(v));
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        assert!((a.quantile(0.5) - 1000.0).abs() < 20.0);
    }
}
