//! Tensor shapes, data types and byte footprints.

use std::fmt;

use serde::Serialize;

/// Numeric precision of tensor elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DataType {
    /// 8-bit integer (original TPU inference precision).
    Int8,
    /// 16-bit brain floating point.
    Bf16,
    /// 32-bit floating point.
    Fp32,
}

impl DataType {
    /// Size of one element in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        match self {
            DataType::Int8 => 1,
            DataType::Bf16 => 2,
            DataType::Fp32 => 4,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int8 => write!(f, "int8"),
            DataType::Bf16 => write!(f, "bf16"),
            DataType::Fp32 => write!(f, "fp32"),
        }
    }
}

/// Which of an NPU layer's operand tensors is being referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Input activations (IA).
    InputActivation,
    /// Weights / filters (W).
    Weight,
    /// Output activations (OA).
    OutputActivation,
}

/// Serialized via [`fmt::Display`] (`"IA"` / `"W"` / `"OA"`): the kind
/// appears once per tile fetch in the Figure 14 trace artifacts, and the
/// short operand labels keep those artifacts compact and identical to the
/// historical format.
impl Serialize for TensorKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl fmt::Display for TensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorKind::InputActivation => write!(f, "IA"),
            TensorKind::Weight => write!(f, "W"),
            TensorKind::OutputActivation => write!(f, "OA"),
        }
    }
}

/// A logical tensor shape (up to 4 dimensions) with an element type.
///
/// The NPU maps tensors to a linear (1-D) address range in row-major order;
/// the innermost dimension is contiguous in memory (Section I / III-C).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct TensorShape {
    dims: Vec<u64>,
    dtype: DataType,
}

impl TensorShape {
    /// Creates a shape from its dimensions (outermost first).
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any dimension is zero.
    #[must_use]
    pub fn new(dims: &[u64], dtype: DataType) -> Self {
        assert!(!dims.is_empty(), "a tensor needs at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "tensor dimensions must be positive: {dims:?}"
        );
        TensorShape {
            dims: dims.to_vec(),
            dtype,
        }
    }

    /// Dimensions, outermost first.
    #[must_use]
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Element data type.
    #[must_use]
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Total number of elements.
    #[must_use]
    pub fn elements(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Total footprint in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.elements() * self.dtype.bytes()
    }

    /// Length of the innermost (contiguous) dimension in bytes.
    #[must_use]
    pub fn row_bytes(&self) -> u64 {
        self.dims.last().copied().unwrap_or(1) * self.dtype.bytes()
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]{}", self.dtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DataType::Int8.bytes(), 1);
        assert_eq!(DataType::Bf16.bytes(), 2);
        assert_eq!(DataType::Fp32.bytes(), 4);
    }

    #[test]
    fn shape_footprint() {
        let t = TensorShape::new(&[1, 3, 224, 224], DataType::Int8);
        assert_eq!(t.elements(), 3 * 224 * 224);
        assert_eq!(t.bytes(), 3 * 224 * 224);
        assert_eq!(t.row_bytes(), 224);
        let t2 = TensorShape::new(&[64, 3, 7, 7], DataType::Bf16);
        assert_eq!(t2.bytes(), 64 * 3 * 7 * 7 * 2);
    }

    #[test]
    fn display_formats() {
        let t = TensorShape::new(&[2, 8], DataType::Fp32);
        assert_eq!(t.to_string(), "[2x8]fp32");
        assert_eq!(TensorKind::Weight.to_string(), "W");
        assert_eq!(TensorKind::InputActivation.to_string(), "IA");
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = TensorShape::new(&[4, 0], DataType::Int8);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_shape_rejected() {
        let _ = TensorShape::new(&[], DataType::Int8);
    }
}
