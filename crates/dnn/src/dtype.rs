//! The element type of gradients on the wire.

use std::fmt;

/// Element type used on the wire for gradient communication.
///
/// AIACC-Training supports half-precision gradient compression; the wire dtype
/// affects transfer size but not the logical element count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// 32-bit IEEE float (4 bytes/element).
    #[default]
    F32,
    /// 16-bit IEEE half float (2 bytes/element).
    F16,
}

impl DType {
    /// Bytes occupied by one element.
    pub const fn bytes_per_elem(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DType::F32 => write!(f, "f32"),
            DType::F16 => write!(f, "f16"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.bytes_per_elem(), 4);
        assert_eq!(DType::F16.bytes_per_elem(), 2);
    }
}
