//! A minimal NCHW `f32` tensor.

/// A dense row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor by calling `f(flat_index)` for each element.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Tensor {
        let n = Tensor::check_shape(shape);
        Tensor {
            shape: shape.to_vec(),
            data: (0..n).map(&mut f).collect(),
        }
    }

    fn check_shape(shape: &[usize]) -> usize {
        assert!(!shape.is_empty(), "tensor shape cannot be empty");
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor shape {shape:?} has a zero dimension"
        );
        shape.iter().product()
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Read-only view of the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Element at a 3-D (C, H, W) index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-D or the index is out of bounds.
    pub fn at3(&self, c: usize, h: usize, w: usize) -> f32 {
        assert_eq!(self.shape.len(), 3, "at3 on {:?}", self.shape);
        let (ch, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(c < ch && h < hh && w < ww, "index out of bounds");
        self.data[(c * hh + h) * ww + w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout() {
        let t = Tensor::from_fn(&[2, 3, 4], |i| i as f32);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(&t.data()[..4], &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(t.at3(0, 1, 0), 4.0);
        assert_eq!(t.at3(1, 2, 3), 23.0);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dim_panics() {
        Tensor::from_fn(&[2, 0], |_| 0.0);
    }
}
