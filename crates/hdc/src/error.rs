//! Error types for the hypervector substrate.

use std::error::Error;
use std::fmt;

/// Two hypervectors with different dimensionalities were combined.
///
/// Every binary operation in this crate ([`BitVector::xor`],
/// [`BitVector::hamming`], …) requires both operands to have the same
/// number of dimensions; mixing dimensionalities is always a logic
/// error in the calling code, so the offending sizes are carried for
/// diagnosis.
///
/// [`BitVector::xor`]: crate::BitVector::xor
/// [`BitVector::hamming`]: crate::BitVector::hamming
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimensionMismatchError {
    /// Dimensionality of the left operand.
    pub left: usize,
    /// Dimensionality of the right operand.
    pub right: usize,
}

impl fmt::Display for DimensionMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hypervector dimensionality mismatch: {} vs {}",
            self.left, self.right
        )
    }
}

impl Error for DimensionMismatchError {}

/// Umbrella error for fallible operations in `hdface-hdc`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HdcError {
    /// Operand dimensionalities disagree.
    DimensionMismatch(DimensionMismatchError),
    /// A dimensionality of zero was requested where at least one
    /// component is required.
    EmptyDimension,
    /// A probability parameter fell outside `[0, 1]`.
    InvalidProbability(f64),
    /// A pattern of more set bits than the vector has dimensions was
    /// requested.
    WeightOutOfRange {
        /// The requested number of set bits.
        weight: usize,
        /// The vector's dimensionality.
        dim: usize,
    },
}

impl fmt::Display for HdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdcError::DimensionMismatch(e) => e.fmt(f),
            HdcError::EmptyDimension => write!(f, "hypervector dimensionality must be non-zero"),
            HdcError::InvalidProbability(p) => {
                write!(f, "probability {p} is outside the closed interval [0, 1]")
            }
            HdcError::WeightOutOfRange { weight, dim } => {
                write!(f, "weight {weight} exceeds the dimensionality {dim}")
            }
        }
    }
}

impl Error for HdcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HdcError::DimensionMismatch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DimensionMismatchError> for HdcError {
    fn from(e: DimensionMismatchError) -> Self {
        HdcError::DimensionMismatch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_both_sizes() {
        let e = DimensionMismatchError { left: 8, right: 16 };
        let s = e.to_string();
        assert!(s.contains('8') && s.contains("16"));
    }

    #[test]
    fn hdc_error_from_mismatch_preserves_source() {
        let e: HdcError = DimensionMismatchError { left: 1, right: 2 }.into();
        assert!(Error::source(&e).is_some());
        assert_eq!(
            e,
            HdcError::DimensionMismatch(DimensionMismatchError { left: 1, right: 2 })
        );
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HdcError>();
        assert_send_sync::<DimensionMismatchError>();
    }

    #[test]
    fn invalid_probability_display() {
        let e = HdcError::InvalidProbability(1.5);
        assert!(e.to_string().contains("1.5"));
    }
}
