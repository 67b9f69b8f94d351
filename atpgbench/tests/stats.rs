//! The sample statistics agree with Python's `statistics` module, which
//! is what outside checks of the benchmark's spread use.

use pdf_atpgbench::stats::{median, percentile, Summary, TAIL_MIN_BEYOND};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn quartiles_match_python_exclusive_quantiles() {
    // Expected values from `statistics.quantiles(data, n=4)`.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
            [2.75, 5.5, 8.25],
        ),
        (&[1., 2., 3., 4., 5.], [1.5, 3.0, 4.5]),
        (&[1., 2.], [0.75, 1.5, 2.25]),
        (&[3.5, 1.25, 9.0, 4.0, 7.75, 2.0], [1.8125, 3.75, 8.0625]),
    ];
    for (data, [q1, q2, q3]) in cases {
        let s = Summary::of(data);
        assert!(
            close(s.q1, q1) && close(s.median, q2) && close(s.q3, q3),
            "{data:?}: {s:?}"
        );
        assert_eq!(s.n, data.len());
    }
}

#[test]
fn summary_reports_max_and_single_samples() {
    let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
    assert!(close(s.max, 4.0));
    assert!(close(s.median, 2.5));
    let single = Summary::of(&[7.0]);
    assert!(close(single.median, 7.0) && close(single.q1, 7.0) && close(single.q3, 7.0));
    assert!(close(median(&[5.0, 1.0, 3.0]), 3.0));
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let values = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
    // Twenty samples leave two beyond p90: no tail is reported.
    assert_eq!(Summary::of(&values(20)).tail, None);
    assert_eq!(Summary::of(&values(99)).tail, None);
    // A hundred samples put exactly ten beyond p90.
    assert_eq!(Summary::of(&values(100)).tail, Some((90.0, 90.0)));
    assert_eq!(Summary::of(&values(1000)).tail, Some((99.0, 990.0)));
    assert_eq!(Summary::of(&values(10_000)).tail, Some((99.9, 9990.0)));
    let (p, _) = Summary::of(&values(500)).tail.unwrap();
    let beyond = 500 - (p / 100.0 * 500.0).ceil() as usize;
    assert!(beyond >= TAIL_MIN_BEYOND);
}

#[test]
fn percentile_uses_the_nearest_rank() {
    let data = [15.0, 20.0, 35.0, 40.0, 50.0];
    assert!(close(percentile(&data, 30.0), 20.0));
    assert!(close(percentile(&data, 40.0), 20.0));
    assert!(close(percentile(&data, 50.0), 35.0));
    assert!(close(percentile(&data, 100.0), 50.0));
    assert!(close(percentile(&data, 0.0), 15.0));
}
