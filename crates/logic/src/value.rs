//! The scalar three-valued domain `{0, 1, x}`.

use core::fmt;
use core::ops::{BitAnd, BitOr, BitXor, Not};
use core::str::FromStr;

/// A three-valued logic value: `0`, `1`, or unknown/unspecified `x`.
///
/// `x` plays two roles in path delay fault test generation, and both use the
/// same algebra:
///
/// * in **simulation** it means "value not determined by the current partial
///   input assignment",
/// * in a **requirement** (an entry of the necessary assignment set `A(p)`)
///   it means "don't care".
///
/// The logical operations implement Kleene's strong three-valued logic:
/// a controlling operand decides the result even when the other operand is
/// `x` (`0 & x = 0`, `1 | x = 1`).
///
/// # Example
///
/// ```
/// use pdf_logic::Value;
///
/// assert_eq!(Value::Zero & Value::X, Value::Zero);
/// assert_eq!(Value::One | Value::X, Value::One);
/// assert_eq!(!Value::X, Value::X);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown / unspecified / don't-care.
    #[default]
    X,
}

impl Value {
    /// All three values, in `0, 1, x` order. Convenient for exhaustive tests.
    pub const ALL: [Value; 3] = [Value::Zero, Value::One, Value::X];

    /// Returns `true` if the value is `0` or `1` (not `x`).
    #[inline]
    #[must_use]
    pub const fn is_specified(self) -> bool {
        !matches!(self, Value::X)
    }

    /// Converts to `bool` when specified.
    ///
    /// Returns `None` for [`Value::X`].
    #[inline]
    #[must_use]
    pub const fn to_bool(self) -> Option<bool> {
        match self {
            Value::Zero => Some(false),
            Value::One => Some(true),
            Value::X => None,
        }
    }

    /// Three-valued conjunction (`0` is controlling).
    #[inline]
    #[must_use]
    pub const fn and(self, other: Value) -> Value {
        match (self, other) {
            (Value::Zero, _) | (_, Value::Zero) => Value::Zero,
            (Value::One, Value::One) => Value::One,
            _ => Value::X,
        }
    }

    /// Three-valued disjunction (`1` is controlling).
    #[inline]
    #[must_use]
    pub const fn or(self, other: Value) -> Value {
        match (self, other) {
            (Value::One, _) | (_, Value::One) => Value::One,
            (Value::Zero, Value::Zero) => Value::Zero,
            _ => Value::X,
        }
    }

    /// Three-valued exclusive or (no controlling value: any `x` operand
    /// makes the result `x`).
    #[inline]
    #[must_use]
    pub const fn xor(self, other: Value) -> Value {
        match (self, other) {
            (Value::X, _) | (_, Value::X) => Value::X,
            (a, b) => {
                if matches!(a, Value::One) != matches!(b, Value::One) {
                    Value::One
                } else {
                    Value::Zero
                }
            }
        }
    }

    /// Three-valued negation (`!x = x`).
    #[inline]
    #[must_use]
    pub const fn negate(self) -> Value {
        match self {
            Value::Zero => Value::One,
            Value::One => Value::Zero,
            Value::X => Value::X,
        }
    }

    /// Returns `true` if `self` (a simulated value) satisfies the
    /// requirement `req`: either `req` is a don't-care, or the values agree.
    ///
    /// ```
    /// use pdf_logic::Value;
    ///
    /// assert!(Value::Zero.satisfies(Value::X));
    /// assert!(Value::Zero.satisfies(Value::Zero));
    /// assert!(!Value::X.satisfies(Value::Zero)); // unknown does not satisfy a demand
    /// ```
    #[inline]
    #[must_use]
    pub const fn satisfies(self, req: Value) -> bool {
        match req {
            Value::X => true,
            _ => matches!(
                (self, req),
                (Value::Zero, Value::Zero) | (Value::One, Value::One)
            ),
        }
    }

    /// Returns `true` if `self` and `other` could describe the same line:
    /// they are equal or at least one is `x`.
    #[inline]
    #[must_use]
    pub const fn is_compatible(self, other: Value) -> bool {
        matches!(self, Value::X) || matches!(other, Value::X) || self as u8 == other as u8
    }

    /// Intersects two *requirements*: `x` is unconstrained, specified values
    /// must agree.
    ///
    /// Returns `None` on conflict (`0` vs `1`). This is the operation used
    /// to merge the necessary assignment sets `A(p)` of several faults that
    /// one test must detect simultaneously.
    #[inline]
    #[must_use]
    pub const fn intersect(self, other: Value) -> Option<Value> {
        match (self, other) {
            (Value::X, v) | (v, Value::X) => Some(v),
            (Value::Zero, Value::Zero) => Some(Value::Zero),
            (Value::One, Value::One) => Some(Value::One),
            _ => None,
        }
    }

    /// The value's character in the test-file format: `0`, `1` or `x`.
    #[inline]
    #[must_use]
    pub const fn to_char(self) -> char {
        match self {
            Value::Zero => '0',
            Value::One => '1',
            Value::X => 'x',
        }
    }
}

impl From<bool> for Value {
    #[inline]
    fn from(b: bool) -> Self {
        if b {
            Value::One
        } else {
            Value::Zero
        }
    }
}

impl BitAnd for Value {
    type Output = Value;
    #[inline]
    fn bitand(self, rhs: Value) -> Value {
        self.and(rhs)
    }
}

impl BitOr for Value {
    type Output = Value;
    #[inline]
    fn bitor(self, rhs: Value) -> Value {
        self.or(rhs)
    }
}

impl BitXor for Value {
    type Output = Value;
    #[inline]
    fn bitxor(self, rhs: Value) -> Value {
        self.xor(rhs)
    }
}

impl Not for Value {
    type Output = Value;
    #[inline]
    fn not(self) -> Value {
        self.negate()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Error returned when parsing a [`Value`] from a string fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseValueError {
    found: char,
}

impl fmt::Display for ParseValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid logic value `{}`, expected 0, 1 or x",
            self.found
        )
    }
}

impl std::error::Error for ParseValueError {}

impl FromStr for Value {
    type Err = ParseValueError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut chars = s.chars();
        let (Some(c), None) = (chars.next(), chars.next()) else {
            return Err(ParseValueError {
                found: s.chars().next().unwrap_or('?'),
            });
        };
        Value::try_from(c)
    }
}

impl TryFrom<char> for Value {
    type Error = ParseValueError;

    fn try_from(c: char) -> Result<Self, Self::Error> {
        match c {
            '0' => Ok(Value::Zero),
            '1' => Ok(Value::One),
            'x' | 'X' => Ok(Value::X),
            other => Err(ParseValueError { found: other }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_truth_table() {
        use Value::{One, Zero, X};
        assert_eq!(Zero & Zero, Zero);
        assert_eq!(Zero & One, Zero);
        assert_eq!(One & Zero, Zero);
        assert_eq!(One & One, One);
        assert_eq!(X & Zero, Zero);
        assert_eq!(Zero & X, Zero);
        assert_eq!(X & One, X);
        assert_eq!(One & X, X);
        assert_eq!(X & X, X);
    }

    #[test]
    fn or_truth_table() {
        use Value::{One, Zero, X};
        assert_eq!(Zero | Zero, Zero);
        assert_eq!(Zero | One, One);
        assert_eq!(One | One, One);
        assert_eq!(X | One, One);
        assert_eq!(One | X, One);
        assert_eq!(X | Zero, X);
        assert_eq!(Zero | X, X);
        assert_eq!(X | X, X);
    }

    #[test]
    fn xor_truth_table() {
        use Value::{One, Zero, X};
        assert_eq!(Zero ^ Zero, Zero);
        assert_eq!(Zero ^ One, One);
        assert_eq!(One ^ Zero, One);
        assert_eq!(One ^ One, Zero);
        for v in Value::ALL {
            assert_eq!(X ^ v, X);
            assert_eq!(v ^ X, X);
        }
    }

    #[test]
    fn negation() {
        assert_eq!(!Value::Zero, Value::One);
        assert_eq!(!Value::One, Value::Zero);
        assert_eq!(!Value::X, Value::X);
    }

    #[test]
    fn de_morgan_holds_in_three_valued_logic() {
        for a in Value::ALL {
            for b in Value::ALL {
                assert_eq!(!(a & b), !a | !b);
                assert_eq!(!(a | b), !a & !b);
            }
        }
    }

    #[test]
    fn satisfies_semantics() {
        // Everything satisfies a don't-care.
        for v in Value::ALL {
            assert!(v.satisfies(Value::X));
        }
        // A demand is only satisfied by the exact value.
        assert!(Value::Zero.satisfies(Value::Zero));
        assert!(Value::One.satisfies(Value::One));
        assert!(!Value::Zero.satisfies(Value::One));
        assert!(!Value::One.satisfies(Value::Zero));
        assert!(!Value::X.satisfies(Value::Zero));
        assert!(!Value::X.satisfies(Value::One));
    }

    #[test]
    fn intersect_merges_requirements() {
        assert_eq!(Value::X.intersect(Value::One), Some(Value::One));
        assert_eq!(Value::Zero.intersect(Value::X), Some(Value::Zero));
        assert_eq!(Value::One.intersect(Value::One), Some(Value::One));
        assert_eq!(Value::Zero.intersect(Value::One), None);
    }

    #[test]
    fn intersect_is_commutative_and_associative_where_defined() {
        for a in Value::ALL {
            for b in Value::ALL {
                assert_eq!(a.intersect(b), b.intersect(a));
                for c in Value::ALL {
                    let left = a.intersect(b).and_then(|ab| ab.intersect(c));
                    let right = b.intersect(c).and_then(|bc| a.intersect(bc));
                    assert_eq!(left, right);
                }
            }
        }
    }

    #[test]
    fn parse_round_trip() {
        for v in Value::ALL {
            let s = v.to_string();
            assert_eq!(s.parse::<Value>().unwrap(), v);
        }
        assert!("2".parse::<Value>().is_err());
        assert!("01".parse::<Value>().is_err());
        assert!("".parse::<Value>().is_err());
    }

    #[test]
    fn bool_conversions() {
        assert_eq!(Value::from(true), Value::One);
        assert_eq!(Value::from(false), Value::Zero);
        assert_eq!(Value::One.to_bool(), Some(true));
        assert_eq!(Value::Zero.to_bool(), Some(false));
        assert_eq!(Value::X.to_bool(), None);
    }
}
