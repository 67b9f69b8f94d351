//! Test sets and robust fault simulation.
//!
//! A two-pattern test detects a path delay fault robustly **iff** its
//! simulated waveforms satisfy the fault's necessary assignment set
//! `A(p)` (paper Sec. 2.1) — so robust fault simulation reduces to one
//! hazard-conservative waveform simulation per test plus a requirement
//! check per fault.

use pdf_faults::FaultList;
use pdf_netlist::{Circuit, TwoPattern};
use pdf_runctl::RunBudget;
use pdf_sim::SimOptions;

/// One test in the plain-text interchange line format (`v1 v2`), shared
/// by [`TestSet::to_text`] and the checkpoint writer.
pub(crate) fn test_line(test: &TwoPattern) -> String {
    let mut s = String::with_capacity(2 * test.first().len() + 1);
    push_test_line(&mut s, test);
    s
}

/// Appends [`test_line`]'s text to `s`, one character per value.
fn push_test_line(s: &mut String, test: &TwoPattern) {
    s.extend(test.first().iter().map(|v| v.to_char()));
    s.push(' ');
    s.extend(test.second().iter().map(|v| v.to_char()));
}

/// An ordered collection of two-pattern tests.
///
/// # Example
///
/// ```
/// use pdf_atpg::{Justifier, TestSet};
/// use pdf_faults::FaultList;
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::PathEnumerator;
///
/// let circuit = s27();
/// let paths = PathEnumerator::new(&circuit).enumerate();
/// let (faults, _) = FaultList::build(&circuit, &paths.store);
///
/// // One test for the first fault, then measure what else it catches.
/// let mut justifier = Justifier::new(&circuit, 1);
/// let justified = justifier.justify(&faults.entries()[0].assignments).unwrap();
/// let set = TestSet::from_tests(vec![justified.test]);
/// let coverage = set.coverage(&circuit, &faults);
/// assert!(coverage.detected_count() >= 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TestSet {
    tests: Vec<TwoPattern>,
}

impl TestSet {
    /// Creates an empty test set.
    #[must_use]
    pub fn new() -> TestSet {
        TestSet::default()
    }

    /// Creates a test set from tests.
    #[must_use]
    pub fn from_tests(tests: Vec<TwoPattern>) -> TestSet {
        TestSet { tests }
    }

    /// Appends a test.
    pub fn push(&mut self, test: TwoPattern) {
        self.tests.push(test);
    }

    /// Shortens the set to `len` tests, dropping the rest. No-op when the
    /// set is already that short — the generator uses this to roll a
    /// budget-truncated round back to its committed boundary.
    pub fn truncate(&mut self, len: usize) {
        self.tests.truncate(len);
    }

    /// Number of tests.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Returns `true` if the set holds no tests.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// The tests, in generation order.
    #[inline]
    #[must_use]
    pub fn tests(&self) -> &[TwoPattern] {
        &self.tests
    }

    /// Simulates the whole set against a fault list on the packed,
    /// thread-parallel kernel.
    #[must_use]
    pub fn coverage(&self, circuit: &Circuit, faults: &FaultList) -> Coverage {
        Coverage {
            detected: pdf_sim::coverage_flags(circuit, &self.tests, faults.entries()),
        }
    }

    /// [`TestSet::coverage`], taking the simulation option block (which
    /// has no settings; see [`SimOptions`]).
    #[must_use]
    pub fn coverage_with(
        &self,
        _opts: SimOptions,
        circuit: &Circuit,
        faults: &FaultList,
    ) -> Coverage {
        self.coverage(circuit, faults)
    }
}

impl TestSet {
    /// Static compaction post-pass: the classic reverse-order sweep. Tests
    /// are visited newest-first; a test is kept only if it detects at
    /// least one fault no already-kept test detects. Complements the
    /// paper's *dynamic* compaction — late tests were generated for the
    /// hard leftover faults and tend to cover the easy early targets too.
    ///
    /// The returned set preserves generation order of the kept tests and
    /// detects exactly the same faults of `faults` as `self`.
    #[must_use]
    pub fn minimized(&self, circuit: &Circuit, faults: &FaultList) -> TestSet {
        let keep = self.kept_after_sweep(circuit, faults);
        TestSet {
            tests: self
                .tests
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(t, _)| t.clone())
                .collect(),
        }
    }

    /// Consuming variant of [`TestSet::minimized`]: moves the kept tests
    /// out instead of cloning them. Preferred when the unminimized set is
    /// discarded anyway.
    #[must_use]
    pub fn into_minimized(self, circuit: &Circuit, faults: &FaultList) -> TestSet {
        let keep = self.kept_after_sweep(circuit, faults);
        TestSet {
            tests: self
                .tests
                .into_iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(t, _)| t)
                .collect(),
        }
    }

    /// [`TestSet::minimized`] under a cooperative run budget: when
    /// the budget is (or becomes) exhausted at the compaction boundary,
    /// the set is returned unminimized — a valid, merely uncompacted,
    /// result — instead of starting a sweep there is no time for.
    ///
    /// Returns the set and whether the budget cut the pass short. The
    /// budget is polled once on entry (the sweep itself is one bounded
    /// simulation pass, not an open-ended loop). The simulation option
    /// block has no settings (see [`SimOptions`]).
    #[must_use]
    pub fn minimized_within(
        &self,
        budget: &RunBudget,
        _opts: SimOptions,
        circuit: &Circuit,
        faults: &FaultList,
    ) -> (TestSet, bool) {
        if budget.exhausted() {
            return (self.clone(), true);
        }
        (self.minimized(circuit, faults), false)
    }

    /// The reverse-order sweep shared by the minimization entry points:
    /// which tests survive, as flags aligned with `self.tests`.
    fn kept_after_sweep(&self, circuit: &Circuit, faults: &FaultList) -> Vec<bool> {
        let _phase = pdf_telemetry::Span::enter("compact");
        let per_test = pdf_sim::per_test_detections(circuit, &self.tests, faults.entries());
        let mut covered = vec![false; faults.len()];
        let mut keep = vec![false; self.tests.len()];
        for (k, detections) in per_test.iter().enumerate().rev() {
            if detections.iter().any(|&i| !covered[i]) {
                keep[k] = true;
                for &i in detections {
                    covered[i] = true;
                }
            }
        }
        let dropped = keep.iter().filter(|&&k| !k).count();
        pdf_telemetry::count(pdf_telemetry::counters::TESTS_DROPPED, dropped as u64);
        keep
    }

    /// Serializes the set to the plain-text interchange format: one test
    /// per line, the two patterns separated by whitespace, `#` comments.
    ///
    /// ```text
    /// # path-delay-atpg test set v1
    /// 0011010 1000010
    /// 1100110 1100100
    /// ```
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::from("# path-delay-atpg test set v1\n");
        for t in &self.tests {
            push_test_line(&mut s, t);
            s.push('\n');
        }
        s
    }

    /// Parses the plain-text interchange format produced by
    /// [`TestSet::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseTestSetError`] on malformed lines, value characters
    /// outside `{0, 1, x}`, or inconsistent pattern widths.
    pub fn from_text(text: &str) -> Result<TestSet, ParseTestSetError> {
        let mut tests = Vec::new();
        let mut width = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let test = parse_test_line(line, lineno)?;
            if *width.get_or_insert(test.len()) != test.len() {
                return Err(ParseTestSetError::WidthMismatch { line: lineno });
            }
            tests.push(test);
        }
        Ok(TestSet { tests })
    }
}

/// Parses one comment-free test line (`v1 v2`), reporting errors at
/// 1-based line `lineno`.
pub(crate) fn parse_test_line(line: &str, lineno: usize) -> Result<TwoPattern, ParseTestSetError> {
    let mut parts = line.split_whitespace();
    let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(ParseTestSetError::Malformed { line: lineno });
    };
    let parse = |s: &str| -> Result<Vec<pdf_logic::Value>, ParseTestSetError> {
        s.chars()
            .map(|c| {
                pdf_logic::Value::try_from(c).map_err(|_| ParseTestSetError::BadValue {
                    line: lineno,
                    ch: c,
                })
            })
            .collect()
    };
    let v1 = parse(a)?;
    let v2 = parse(b)?;
    if v1.len() != v2.len() {
        return Err(ParseTestSetError::WidthMismatch { line: lineno });
    }
    Ok(TwoPattern::new(v1, v2))
}

/// Error returned by [`TestSet::from_text`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseTestSetError {
    /// A line is not two whitespace-separated patterns.
    Malformed {
        /// 1-based line number.
        line: usize,
    },
    /// A pattern contains a character outside `{0, 1, x}`.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The offending character.
        ch: char,
    },
    /// Pattern widths differ within a line or across lines.
    WidthMismatch {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for ParseTestSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseTestSetError::Malformed { line } => {
                write!(f, "line {line}: expected two whitespace-separated patterns")
            }
            ParseTestSetError::BadValue { line, ch } => {
                write!(f, "line {line}: invalid value character `{ch}`")
            }
            ParseTestSetError::WidthMismatch { line } => {
                write!(f, "line {line}: inconsistent pattern width")
            }
        }
    }
}

impl std::error::Error for ParseTestSetError {}

impl FromIterator<TwoPattern> for TestSet {
    fn from_iter<T: IntoIterator<Item = TwoPattern>>(iter: T) -> TestSet {
        TestSet {
            tests: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a TestSet {
    type Item = &'a TwoPattern;
    type IntoIter = std::slice::Iter<'a, TwoPattern>;

    fn into_iter(self) -> Self::IntoIter {
        self.tests.iter()
    }
}

/// Which faults of a list a test set detects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coverage {
    detected: Vec<bool>,
}

impl Coverage {
    /// Per-fault detection flags, aligned with the fault list.
    #[inline]
    #[must_use]
    pub fn detected(&self) -> &[bool] {
        &self.detected
    }

    /// Number of detected faults.
    #[must_use]
    pub fn detected_count(&self) -> usize {
        self.detected.iter().filter(|&&d| d).count()
    }

    /// Detection fraction over the fault list (0 for an empty list).
    #[must_use]
    pub fn fault_coverage(&self) -> f64 {
        if self.detected.is_empty() {
            0.0
        } else {
            self.detected_count() as f64 / self.detected.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Justifier;
    use pdf_netlist::iscas::s27;
    use pdf_paths::PathEnumerator;
    use proptest::prelude::Strategy;

    fn setup() -> (Circuit, FaultList) {
        let c = s27();
        let paths = PathEnumerator::new(&c).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        (c, faults)
    }

    #[test]
    fn empty_set_detects_nothing() {
        let (c, faults) = setup();
        let cov = TestSet::new().coverage(&c, &faults);
        assert_eq!(cov.detected_count(), 0);
        assert_eq!(cov.fault_coverage(), 0.0);
    }

    #[test]
    fn generated_test_detects_its_target() {
        let (c, faults) = setup();
        let mut j = Justifier::new(&c, 77).with_attempts(4);
        let mut set = TestSet::new();
        let mut targets = Vec::new();
        for (i, e) in faults.iter().enumerate().take(6) {
            if let Some(r) = j.justify(&e.assignments) {
                set.push(r.test);
                targets.push(i);
            }
        }
        assert!(!set.is_empty());
        let cov = set.coverage(&c, &faults);
        for i in targets {
            assert!(cov.detected()[i], "target fault {i} must be detected");
        }
    }

    #[test]
    fn minimization_preserves_coverage_and_shrinks() {
        let (c, faults) = setup();
        let mut j = Justifier::new(&c, 21).with_attempts(2);
        // Deliberately redundant: try a test for every single fault.
        let set: TestSet = faults
            .iter()
            .filter_map(|e| j.justify(&e.assignments))
            .map(|r| r.test)
            .collect();
        let min = set.minimized(&c, &faults);
        assert!(min.len() <= set.len());
        assert_eq!(
            min.coverage(&c, &faults).detected(),
            set.coverage(&c, &faults).detected(),
        );
        // Idempotent.
        let again = min.minimized(&c, &faults);
        assert_eq!(again.len(), min.len());
        // The one-fault-per-test construction is heavily redundant on s27.
        assert!(min.len() < set.len(), "{} vs {}", min.len(), set.len());
    }

    #[test]
    fn into_minimized_matches_minimized() {
        let (c, faults) = setup();
        let mut j = Justifier::new(&c, 13).with_attempts(2);
        let set: TestSet = faults
            .iter()
            .filter_map(|e| j.justify(&e.assignments))
            .map(|r| r.test)
            .collect();
        let by_ref = set.minimized(&c, &faults);
        let by_move = set.into_minimized(&c, &faults);
        assert_eq!(by_ref.tests(), by_move.tests());
    }

    #[test]
    fn minimization_of_empty_set_is_empty() {
        let (c, faults) = setup();
        assert!(TestSet::new().minimized(&c, &faults).is_empty());
    }

    #[test]
    fn text_round_trip() {
        let (c, faults) = setup();
        let mut j = Justifier::new(&c, 9).with_attempts(4);
        let set: TestSet = faults
            .iter()
            .take(8)
            .filter_map(|e| j.justify(&e.assignments))
            .map(|r| r.test)
            .collect();
        assert!(!set.is_empty());
        let text = set.to_text();
        let parsed = TestSet::from_text(&text).unwrap();
        assert_eq!(parsed.len(), set.len());
        for (a, b) in parsed.tests().iter().zip(set.tests()) {
            assert_eq!(a, b);
        }
        // Coverage is preserved byte-for-byte.
        assert_eq!(
            parsed.coverage(&c, &faults).detected_count(),
            set.coverage(&c, &faults).detected_count()
        );
    }

    #[test]
    fn text_parse_errors() {
        assert!(matches!(
            TestSet::from_text("0101\n"),
            Err(ParseTestSetError::Malformed { line: 1 })
        ));
        assert!(matches!(
            TestSet::from_text("01 02\n"),
            Err(ParseTestSetError::BadValue { line: 1, ch: '2' })
        ));
        assert!(matches!(
            TestSet::from_text("01 011\n"),
            Err(ParseTestSetError::WidthMismatch { line: 1 })
        ));
        assert!(matches!(
            TestSet::from_text("01 01\n011 010\n"),
            Err(ParseTestSetError::WidthMismatch { line: 2 })
        ));
        // Comments, blanks, and x values are fine.
        let ok = TestSet::from_text("# hi\n\n0x1 1x0  # trailing\n").unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn budgeted_minimization_degrades_to_identity_when_exhausted() {
        let (c, faults) = setup();
        let mut j = Justifier::new(&c, 21).with_attempts(2);
        let set: TestSet = faults
            .iter()
            .filter_map(|e| j.justify(&e.assignments))
            .map(|r| r.test)
            .collect();
        let spent =
            RunBudget::unlimited().and_cancel(pdf_runctl::CancelToken::cancel_after_polls(1));
        let (kept, cut_short) = set.minimized_within(&spent, SimOptions::default(), &c, &faults);
        assert!(cut_short);
        assert_eq!(
            kept.tests(),
            set.tests(),
            "exhausted budget skips the sweep"
        );
        let (min, cut_short) =
            set.minimized_within(&RunBudget::unlimited(), SimOptions::default(), &c, &faults);
        assert!(!cut_short);
        assert_eq!(min.tests(), set.minimized(&c, &faults).tests());
    }

    /// The per-value `write!` formatting [`test_line`] replaced.
    fn test_line_by_write(test: &TwoPattern) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for v in test.first() {
            let _ = write!(s, "{v}");
        }
        s.push(' ');
        for v in test.second() {
            let _ = write!(s, "{v}");
        }
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn test_line_matches_the_formatted_reference(
            values in (0usize..40).prop_flat_map(|n| {
                proptest::collection::vec(0usize..3, 2 * n)
            })
        ) {
            let values: Vec<_> = values.into_iter().map(|i| pdf_logic::Value::ALL[i]).collect();
            let (v1, v2) = values.split_at(values.len() / 2);
            let test = TwoPattern::new(v1.to_vec(), v2.to_vec());
            let line = test_line_by_write(&test);
            proptest::prop_assert_eq!(&test_line(&test), &line);
            let text = TestSet::from_tests(vec![test.clone(), test]).to_text();
            proptest::prop_assert_eq!(
                text,
                format!("# path-delay-atpg test set v1\n{line}\n{line}\n")
            );
        }
    }

    #[test]
    fn coverage_is_monotone_in_tests() {
        let (c, faults) = setup();
        let mut j = Justifier::new(&c, 5).with_attempts(4);
        let mut tests = Vec::new();
        for e in faults.iter().take(10) {
            if let Some(r) = j.justify(&e.assignments) {
                tests.push(r.test);
            }
        }
        let mut prev = 0usize;
        for k in 0..=tests.len() {
            let set = TestSet::from_tests(tests[..k].to_vec());
            let count = set.coverage(&c, &faults).detected_count();
            assert!(count >= prev);
            prev = count;
        }
    }
}
