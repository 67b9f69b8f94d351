//! Sample statistics: median, quartiles, maximum, sample count, and the
//! highest tail percentile the sample count supports.

/// Percentiles considered for the tail report, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// How many samples must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Summary of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when the sample
    /// count reaches no tail percentile.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty or holds a NaN.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no samples to summarize");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let (q1, median, q3) = quartiles_sorted(&sorted);
        Summary {
            n: sorted.len(),
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
            tail: tail_sorted(&sorted),
        }
    }
}

/// Median of `values`.
///
/// # Panics
///
/// Panics when `values` is empty or holds a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The three quartile cut points of sorted data, computed like Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method), so
/// spreads reported here match the ones an outside script computes.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    let middle = if ld % 2 == 1 {
        sorted[ld / 2]
    } else {
        (sorted[ld / 2 - 1] + sorted[ld / 2]) / 2.0
    };
    if ld < 2 {
        return (sorted[0], middle, sorted[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // Exact integer arithmetic like the reference: `i·m - j·4` may be
        // negative or exceed 4 after clamping.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), middle, cut(3))
}

/// The highest percentile of [`TAIL_PERCENTILES`] with at least
/// [`TAIL_MIN_BEYOND`] samples above it.
fn tail_sorted(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = nearest_rank(sorted.len(), p);
        (sorted.len() - rank >= TAIL_MIN_BEYOND).then(|| (p, sorted[rank - 1]))
    })
}

/// The 1-based nearest rank of percentile `p` among `n` sorted samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The tolerance keeps binary rounding of `p` (99.9 is inexact) from
    // bumping an exact rank to the next one.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil();
    (rank as usize).clamp(1, n)
}

/// Percentile `p` (0–100) of `values` by the nearest-rank rule.
///
/// # Panics
///
/// Panics when `values` is empty or holds a NaN.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted[nearest_rank(sorted.len(), p) - 1]
}
