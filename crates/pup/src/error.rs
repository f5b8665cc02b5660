//! Unpacking errors.

use std::fmt;

/// Why unpacking failed. Packing and sizing are infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PupError {
    /// The buffer ended before the traversal was satisfied.
    Truncated {
        /// Bytes the traversal tried to read at the failure point.
        needed: usize,
        /// Offset at which the shortfall occurred.
        at: usize,
    },
    /// `from_bytes` requires full consumption; this many bytes were left.
    TrailingBytes(usize),
    /// A `String` field held bytes that are not valid UTF-8.
    InvalidUtf8 {
        /// Offset of the string payload in the buffer.
        at: usize,
    },
    /// A length prefix or tag had an impossible value.
    Corrupt(&'static str),
}

impl fmt::Display for PupError {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PupError::Truncated { needed, at } => {
                write!(f, "pup buffer truncated: needed {needed} bytes at offset {at}")
            }
            PupError::TrailingBytes(n) => write!(f, "pup buffer has {n} trailing bytes"),
            PupError::InvalidUtf8 { at } => write!(f, "invalid UTF-8 in string at offset {at}"),
            PupError::Corrupt(what) => write!(f, "corrupt pup data: {what}"),
        }
    }
}

impl std::error::Error for PupError {}
