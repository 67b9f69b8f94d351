//! Compact closure table of statically learned implications.
//!
//! Classic static learning (SOCRATES-style) asserts every line value once,
//! propagates it, and records the **contrapositives** of whatever followed:
//! if asserting `l = v` forces `m = w`, then any test with `m = ¬w` must
//! have `l = ¬v`. The forward direction is rediscovered by the
//! [`Implicator`](crate::Implicator) on demand; the contrapositive is the
//! direction its backward rules cannot always reproduce, which is exactly
//! what makes the table worth carrying around.
//!
//! Learning is restricted to the **outer components** of a waveform triple
//! (`α1`, the value under the first pattern, and `α3`, the value under the
//! second): in every completed two-pattern test those components settle to
//! a binary value, so "not 0" really means "1". The intermediate component
//! `α2` is genuinely three-valued (`x` means *may glitch*) and admits no
//! such complement — it never enters the table.
//!
//! The table itself is plain data (built once per circuit by the
//! `pdf-analyze` learning pass, consumed here by the implication engine),
//! stored as one adjacency row per `(line, slot, value)` literal. A fanout
//! branch carries its stem's value, so the learning pass keys both ends of
//! every pair by stem, and the engine looks rows up by stem only: a row
//! keyed by a fanout branch never fires.

use pdf_logic::Value;
use pdf_netlist::LineId;

/// One `(line, slot, value)` literal of the closure table.
///
/// `slot` is a component index of a waveform triple and is always `0`
/// (`α1`) or `2` (`α3`); `value` is always specified.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Literal {
    /// The line the literal constrains.
    pub line: LineId,
    /// The triple component: `0` for `α1`, `2` for `α3`.
    pub slot: usize,
    /// The binary value asserted on that component.
    pub value: Value,
}

impl Literal {
    /// Creates a literal. `slot` must be `0` or `2`, `value` specified.
    #[must_use]
    pub fn new(line: LineId, slot: usize, value: Value) -> Literal {
        debug_assert!(slot == 0 || slot == 2, "mid-slot literals are unsound");
        debug_assert!(value.is_specified());
        Literal { line, slot, value }
    }

    /// The literal with the complementary value on the same component.
    #[must_use]
    pub fn negated(self) -> Literal {
        Literal {
            line: self.line,
            slot: self.slot,
            value: !self.value,
        }
    }

    /// Packs the literal into its dense table key.
    fn key(self) -> usize {
        let slot_bit = usize::from(self.slot == 2);
        let value_bit = usize::from(self.value == Value::One);
        self.line.index() * 4 + slot_bit * 2 + value_bit
    }

    /// Unpacks a dense table key.
    fn from_key(key: usize) -> Literal {
        Literal {
            line: LineId::new(key / 4),
            slot: if key & 2 == 0 { 0 } else { 2 },
            value: if key & 1 == 0 {
                Value::Zero
            } else {
                Value::One
            },
        }
    }
}

/// The learned-implication closure table of one circuit.
///
/// Maps each antecedent literal to the consequent literals it forces.
/// Every stored pair `a ⇒ c` is a *sound* implication: any two-pattern
/// test whose waveforms satisfy `a` also satisfies `c`. Rows are sorted
/// and deduplicated, so lookup iteration order is deterministic.
///
/// # Example
///
/// ```
/// use pdf_faults::{LearnedImplications, Literal};
/// use pdf_logic::Value;
/// use pdf_netlist::LineId;
///
/// let mut table = LearnedImplications::new(4);
/// let a = Literal::new(LineId::new(2), 0, Value::Zero);
/// let c = Literal::new(LineId::new(0), 2, Value::One);
/// assert!(table.add(a, c));
/// assert!(!table.add(a, c)); // duplicates are ignored
/// assert_eq!(table.len(), 1);
/// assert_eq!(table.consequents(a).collect::<Vec<_>>(), vec![c]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LearnedImplications {
    /// `rows[key(antecedent)]` holds the packed consequent keys, sorted.
    rows: Vec<Vec<u32>>,
    len: usize,
}

impl LearnedImplications {
    /// An empty table for a circuit with `line_count` lines.
    #[must_use]
    pub fn new(line_count: usize) -> LearnedImplications {
        LearnedImplications {
            rows: vec![Vec::new(); line_count * 4],
            len: 0,
        }
    }

    /// Records `antecedent ⇒ consequent`. Returns `false` (and stores
    /// nothing) when the pair is already present or degenerate
    /// (self-implication on the same line).
    pub fn add(&mut self, antecedent: Literal, consequent: Literal) -> bool {
        if antecedent.line == consequent.line {
            return false;
        }
        let row = &mut self.rows[antecedent.key()];
        let packed = consequent.key() as u32;
        match row.binary_search(&packed) {
            Ok(_) => false,
            Err(i) => {
                row.insert(i, packed);
                self.len += 1;
                true
            }
        }
    }

    /// The consequents forced by `antecedent`, in deterministic order.
    pub fn consequents(&self, antecedent: Literal) -> impl Iterator<Item = Literal> + '_ {
        self.rows
            .get(antecedent.key())
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .map(|&k| Literal::from_key(k as usize))
    }

    /// Iterates over every stored `(antecedent, consequent)` pair.
    pub fn iter(&self) -> impl Iterator<Item = (Literal, Literal)> + '_ {
        self.rows.iter().enumerate().flat_map(|(key, row)| {
            row.iter()
                .map(move |&c| (Literal::from_key(key), Literal::from_key(c as usize)))
        })
    }

    /// Number of stored implications.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing was learned.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(line: usize, slot: usize, value: Value) -> Literal {
        Literal::new(LineId::new(line), slot, value)
    }

    #[test]
    fn key_roundtrip() {
        for line in 0..5 {
            for slot in [0usize, 2] {
                for value in [Value::Zero, Value::One] {
                    let l = lit(line, slot, value);
                    assert_eq!(Literal::from_key(l.key()), l);
                }
            }
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut t = LearnedImplications::new(3);
        assert!(t.add(lit(0, 0, Value::One), lit(1, 2, Value::Zero)));
        assert!(t.add(lit(0, 0, Value::One), lit(2, 0, Value::One)));
        assert!(!t.add(lit(0, 0, Value::One), lit(1, 2, Value::Zero)));
        assert_eq!(t.len(), 2);
        let cons: Vec<Literal> = t.consequents(lit(0, 0, Value::One)).collect();
        assert_eq!(cons.len(), 2);
        assert!(t.consequents(lit(0, 0, Value::Zero)).next().is_none());
    }

    #[test]
    fn self_implication_rejected() {
        let mut t = LearnedImplications::new(2);
        assert!(!t.add(lit(1, 0, Value::One), lit(1, 2, Value::One)));
        assert!(t.is_empty());
    }

    #[test]
    fn iter_reports_all_pairs() {
        let mut t = LearnedImplications::new(3);
        t.add(lit(0, 0, Value::One), lit(1, 2, Value::Zero));
        t.add(lit(2, 2, Value::Zero), lit(0, 0, Value::Zero));
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&(lit(0, 0, Value::One), lit(1, 2, Value::Zero))));
    }

    #[test]
    fn negation_flips_value_only() {
        let l = lit(4, 2, Value::One);
        let n = l.negated();
        assert_eq!(n.line, l.line);
        assert_eq!(n.slot, 2);
        assert_eq!(n.value, Value::Zero);
    }
}
