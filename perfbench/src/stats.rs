//! Pure arithmetic behind the reported figures: percentiles with their
//! sample counts, geometric means per size class, span self time, and
//! the Table I cycle error. Everything here is deterministic and
//! covered by the unit tests at the bottom.

use afft_bench::paper::Table1Row;

/// A percentile read off a sample set, with the counts that say how
/// far it can be trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Number of samples it was read from.
    pub samples: usize,
    /// Samples strictly above `value`: a tail percentile is resolved
    /// only when at least ten samples lie beyond it.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted`, which must
/// be in ascending order. `None` for an empty set.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let value = sorted[rank.min(sorted.len()) - 1];
    let beyond = sorted.len() - sorted.partition_point(|&v| v <= value);
    Some(Quantile { value, samples: sorted.len(), beyond })
}

/// Sorts a sample set in place and returns it, for [`percentile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of `values` (mean of the middle pair for an even count);
/// `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    match s.len() {
        0 => None,
        len if len % 2 == 1 => Some(s[mid]),
        _ => Some((s[mid - 1] + s[mid]) / 2.0),
    }
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and the highest quarter. Robust to a few outliers like a
/// median, yet it moves smoothly when the values shift between two
/// levels. 0 for an empty set.
pub fn iq_mean(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let cut = s.len() / 4;
    mean(&s[cut..s.len() - cut])
}

/// Geometric mean of strictly positive values; `None` when empty or
/// when any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Geometric mean of `rates` over the members of each class, in the
/// order the classes are given. `rates` pairs a class name with one
/// size's rate; a class with no member yields `None`.
pub fn class_geomeans<'a>(
    classes: &[&'a str],
    rates: &[(&str, f64)],
) -> Vec<(&'a str, Option<f64>)> {
    classes
        .iter()
        .map(|&class| {
            let members: Vec<f64> =
                rates.iter().filter(|(c, _)| *c == class).map(|&(_, r)| r).collect();
            (class, geomean(&members))
        })
        .collect()
}

/// A fixed-size uniform sample of a stream of values (Vitter's
/// algorithm R), so the benchmark's own memory stays the same whatever
/// the throughput and `peak_rss_mb` measures the program.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    values: Vec<f64>,
    seen: u64,
    rng: crate::Rng,
}

impl Reservoir {
    /// An empty reservoir of `cap` slots, allocated and written now:
    /// its pages are resident from the start, so how many samples a
    /// run takes does not show in `peak_rss_mb`.
    pub fn new(cap: usize, seed: u64) -> Self {
        let mut values = vec![0.0; cap];
        values.fill(1.0);
        std::hint::black_box(&mut values);
        values.clear();
        Reservoir { cap, values, seen: 0, rng: crate::Rng::new(seed, 0x5a3) }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(v);
        } else {
            let slot = self.rng.next_u64() % self.seen;
            if let Some(kept) = self.values.get_mut(slot as usize) {
                *kept = v;
            }
        }
    }

    /// Empties the reservoir, keeping its allocation.
    pub fn clear(&mut self) {
        self.values.clear();
        self.seen = 0;
    }

    /// The sample, ascending.
    pub fn sorted(&self) -> Vec<f64> {
        sorted(self.values.clone())
    }
}

impl Default for Reservoir {
    /// Room for 2^17 samples: a p99 read from a full reservoir has
    /// about 1300 samples beyond it.
    fn default() -> Self {
        Reservoir::new(1 << 17, 0)
    }
}

/// One recorded interval, as the self-time computation sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, in nanoseconds from any common epoch.
    pub start: u64,
    /// End (>= start), same epoch.
    pub end: u64,
    /// Index of the parent interval in the same slice, if any.
    pub parent: Option<usize>,
}

/// Self time of every interval: its duration minus the part of it that
/// its children cover. Children may overlap one another and may stick
/// out of the parent; only the union of their overlap with the parent
/// is subtracted, so self time is never negative and never counts an
/// instant twice.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Mean over the paper's Table I rows of |simulated / published - 1|.
/// `cycles` pairs each size with its simulated cycle count; every
/// Table I size must be present.
pub fn table1_err(table: &[Table1Row], cycles: &[(usize, u64)]) -> Result<f64, String> {
    let mut sum = 0.0;
    for row in table {
        let &(_, sim) = cycles
            .iter()
            .find(|(n, _)| *n == row.n)
            .ok_or_else(|| format!("no simulated cycle count for N = {}", row.n))?;
        sum += (sim as f64 / row.cycles as f64 - 1.0).abs();
    }
    Ok(sum / table.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_bench::paper::TABLE1;

    #[test]
    fn percentile_is_nearest_rank_with_its_counts() {
        let s = sorted((1..=100).map(f64::from).rev().collect());
        let p50 = percentile(&s, 50.0).unwrap();
        assert_eq!(p50, Quantile { value: 50.0, samples: 100, beyond: 50 });
        let p99 = percentile(&s, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&s, 100.0).unwrap().value, 100.0);
        assert_eq!(
            percentile(&[7.0], 99.0).unwrap(),
            Quantile { value: 7.0, samples: 1, beyond: 0 }
        );
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn percentile_counts_ties_as_not_beyond() {
        let s = sorted(vec![1.0, 2.0, 2.0, 2.0, 3.0]);
        assert_eq!(percentile(&s, 50.0).unwrap(), Quantile { value: 2.0, samples: 5, beyond: 1 });
        // A p99 over 2000 samples leaves 20 beyond it: resolved.
        let big = sorted((0..2000).map(f64::from).collect());
        assert_eq!(percentile(&big, 99.0).unwrap().beyond, 20);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, 1);
        for v in 0..100_000 {
            r.push(f64::from(v));
        }
        let s = r.sorted();
        assert_eq!(s.len(), 1000);
        // A uniform sample of 0..100000 has its median near 50000.
        let mid = percentile(&s, 50.0).unwrap().value;
        assert!((40_000.0..60_000.0).contains(&mid), "{mid}");
        r.clear();
        r.push(3.0);
        assert_eq!(r.sorted(), vec![3.0]);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn iq_mean_drops_the_outer_quarters() {
        // 8 values: the lowest two and the highest two go.
        assert_eq!(iq_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        // Fewer than 4 values: nothing is dropped.
        assert_eq!(iq_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(iq_mean(&[]), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_per_class() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
        let rates = [("pow2", 100.0), ("rough", 10.0), ("pow2", 400.0), ("rough", 1000.0)];
        let got = class_geomeans(&["pow2", "smooth", "rough"], &rates);
        assert_eq!(got[0].0, "pow2");
        assert!((got[0].1.unwrap() - 200.0).abs() < 1e-9);
        assert_eq!(got[1], ("smooth", None));
        assert!((got[2].1.unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            Interval { start: 0, end: 100, parent: None },
            // Two children overlapping each other on [20, 30).
            Interval { start: 10, end: 30, parent: Some(0) },
            Interval { start: 20, end: 40, parent: Some(0) },
            // A child sticking out past the parent's end.
            Interval { start: 90, end: 120, parent: Some(0) },
            // A grandchild: counts against its own parent only.
            Interval { start: 12, end: 18, parent: Some(1) },
        ];
        // Parent: 100 - (30 covered by [10,40) + 10 by [90,100)) = 60.
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = [
            Interval { start: 5, end: 10, parent: None },
            Interval { start: 0, end: 20, parent: Some(0) },
        ];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn table1_err_against_the_paper() {
        // Exactly the paper's cycles: no error.
        let exact: Vec<(usize, u64)> = TABLE1.iter().map(|r| (r.n, r.cycles)).collect();
        assert_eq!(table1_err(&TABLE1, &exact).unwrap(), 0.0);
        // Every size at twice the paper's cycles: |2 - 1| = 1 each.
        let double: Vec<(usize, u64)> = TABLE1.iter().map(|r| (r.n, 2 * r.cycles)).collect();
        assert!((table1_err(&TABLE1, &double).unwrap() - 1.0).abs() < 1e-12);
        // One size 10% under, the rest exact: 0.1 / 5.
        let mut under = exact.clone();
        under[4].1 = 4168 - 417;
        let want = (1.0 - 3751.0 / 4168.0) / 5.0;
        assert!((table1_err(&TABLE1, &under).unwrap() - want).abs() < 1e-12);
        assert!(table1_err(&TABLE1, &exact[..4]).is_err());
    }
}
