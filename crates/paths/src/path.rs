//! Physical paths through a line-level circuit.

use core::fmt;

use pdf_netlist::{Circuit, LineId};

/// A physical path: a connected sequence of lines starting at a primary
/// input.
///
/// A path is *complete* when its last line is a (pseudo) primary output;
/// otherwise it is *partial*. The delay of a path is the sum of its lines'
/// delays (the paper's default model assigns one unit per line, so delay
/// equals line count).
///
/// Paths display in the paper's notation:
///
/// ```
/// use pdf_netlist::LineId;
/// use pdf_paths::Path;
///
/// let p = Path::new(vec![LineId::new(1), LineId::new(8), LineId::new(9)]);
/// assert_eq!(p.to_string(), "(2,9,10)"); // 1-based line numbers
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Path {
    lines: Vec<LineId>,
}

impl Path {
    /// Creates a path from its line sequence.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is empty. Connectivity against a specific circuit
    /// is *not* checked here; use [`Path::validate`].
    #[must_use]
    pub fn new(lines: Vec<LineId>) -> Path {
        assert!(!lines.is_empty(), "a path has at least one line");
        Path { lines }
    }

    /// The lines of the path, in input-to-output order.
    #[inline]
    #[must_use]
    pub fn lines(&self) -> &[LineId] {
        &self.lines
    }

    /// The first line (the path's source).
    #[inline]
    #[must_use]
    pub fn source(&self) -> LineId {
        self.lines[0]
    }

    /// The last line reached so far (the path's sink once complete).
    #[inline]
    #[must_use]
    pub fn last(&self) -> LineId {
        *self.lines.last().expect("paths are non-empty")
    }

    /// The number of lines on the path.
    #[inline]
    #[must_use]
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// The path's delay under the circuit's delay model (sum of line
    /// delays; equals [`Path::line_count`] under the default unit model).
    #[must_use]
    pub fn delay(&self, circuit: &Circuit) -> u32 {
        self.lines.iter().map(|&l| circuit.line(l).delay()).sum()
    }

    /// Returns `true` if the path ends at a (pseudo) primary output.
    #[must_use]
    pub fn is_complete(&self, circuit: &Circuit) -> bool {
        circuit.line(self.last()).is_output()
    }

    /// The tightest upper bound on the delay of any complete path having
    /// this path as a prefix: `len(p) = delay(p) + d(last(p))` (paper,
    /// Fig. 2). Equals [`Path::delay`] for complete paths.
    #[must_use]
    pub fn max_extension_delay(&self, circuit: &Circuit) -> u32 {
        self.delay(circuit) + circuit.distance_to_output(self.last())
    }

    /// Returns a new path extended by `line`.
    #[must_use]
    pub fn extended(&self, line: LineId) -> Path {
        let mut lines = Vec::with_capacity(self.lines.len() + 1);
        lines.extend_from_slice(&self.lines);
        lines.push(line);
        Path { lines }
    }

    /// Checks that the path is structurally valid in `circuit`: it starts
    /// at a primary input and each line feeds the next.
    ///
    /// # Errors
    ///
    /// Returns a [`PathError`] describing the first violation.
    pub fn validate(&self, circuit: &Circuit) -> Result<(), PathError> {
        if self.lines.iter().any(|l| l.index() >= circuit.line_count()) {
            return Err(PathError::UnknownLine);
        }
        if !circuit.kind(self.source()).is_input() {
            return Err(PathError::BadSource {
                line: self.source(),
            });
        }
        for w in self.lines.windows(2) {
            if !circuit.fanin(w[1]).contains(&w[0]) {
                return Err(PathError::Disconnected {
                    from: w[0],
                    to: w[1],
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, l) in self.lines.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{l}")?;
        }
        f.write_str(")")
    }
}

impl FromIterator<LineId> for Path {
    fn from_iter<T: IntoIterator<Item = LineId>>(iter: T) -> Path {
        Path::new(iter.into_iter().collect())
    }
}

/// Error produced by [`Path::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathError {
    /// A line id on the path does not exist in the circuit.
    UnknownLine,
    /// The path does not start at a primary input.
    BadSource {
        /// The offending first line.
        line: LineId,
    },
    /// Two consecutive lines are not connected.
    Disconnected {
        /// The earlier line.
        from: LineId,
        /// The later line, which `from` does not feed.
        to: LineId,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::UnknownLine => f.write_str("path references a line outside the circuit"),
            PathError::BadSource { line } => {
                write!(f, "path source (line {line}) is not a primary input")
            }
            PathError::Disconnected { from, to } => {
                write!(f, "line {from} does not feed line {to}")
            }
        }
    }
}

impl std::error::Error for PathError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_netlist::iscas::s27;

    fn path(ids: &[usize]) -> Path {
        ids.iter().map(|&k| LineId::new(k - 1)).collect()
    }

    #[test]
    fn paper_example_path_is_valid() {
        let c = s27();
        let p = path(&[2, 9, 10, 15]);
        p.validate(&c).unwrap();
        assert!(p.is_complete(&c));
        assert_eq!(p.delay(&c), 4);
        assert_eq!(p.to_string(), "(2,9,10,15)");
    }

    #[test]
    fn longest_paper_path() {
        let c = s27();
        let p = path(&[1, 8, 13, 14, 16, 19, 20, 21, 22, 25]);
        p.validate(&c).unwrap();
        assert!(p.is_complete(&c));
        assert_eq!(p.delay(&c), 10);
        assert_eq!(p.max_extension_delay(&c), 10);
    }

    #[test]
    fn partial_path_extension_bound() {
        let c = s27();
        // (1,8,13) can extend to the length-10 path above.
        let p = path(&[1, 8, 13]);
        p.validate(&c).unwrap();
        assert!(!p.is_complete(&c));
        assert_eq!(p.max_extension_delay(&c), 10);
        let q = p.extended(LineId::new(13)); // line 14
        q.validate(&c).unwrap();
        assert_eq!(q.line_count(), 4);
    }

    #[test]
    fn disconnected_path_rejected() {
        let c = s27();
        let p = path(&[2, 9, 15]); // 9 does not feed 15 directly (10 does)
        assert!(matches!(
            p.validate(&c),
            Err(PathError::Disconnected { .. })
        ));
    }

    #[test]
    fn non_input_source_rejected() {
        let c = s27();
        let p = path(&[9, 10, 15]);
        assert!(matches!(p.validate(&c), Err(PathError::BadSource { .. })));
    }

    #[test]
    fn unknown_line_rejected() {
        let c = s27();
        let p = path(&[2, 99]);
        assert_eq!(p.validate(&c), Err(PathError::UnknownLine));
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn empty_path_panics() {
        let _ = Path::new(vec![]);
    }
}
