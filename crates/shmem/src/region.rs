//! The symmetric-heap region: the data plane of the PGAS model.

/// A symmetric allocation of `f32` row vectors across PEs, mirroring
/// `nvshmem_malloc` for a partitioned embedding matrix.
///
/// Each PE owns a block of rows of `dim` floats. A row anywhere in the
/// cluster is addressed by `(pe, local_row)` — exactly the Figure-5
/// addressing after MGG's global→local index conversion.
///
/// # Examples
///
/// ```
/// use mgg_shmem::SymmetricRegion;
///
/// // Scatter a 4x2 matrix across two PEs, two rows each.
/// let matrix: Vec<f32> = (0..8).map(|x| x as f32).collect();
/// let region = SymmetricRegion::scatter_rows(&matrix, &[2, 2], 2);
///
/// // Global row 2 is PE 1's first row, readable from any PE.
/// assert_eq!(region.row(1, 0), &[4.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricRegion {
    dim: usize,
    bufs: Vec<Vec<f32>>,
}

impl SymmetricRegion {
    /// Allocates `rows_per_pe[pe] x dim` zeros on every PE.
    fn zeros(rows_per_pe: &[usize], dim: usize) -> Self {
        assert!(!rows_per_pe.is_empty(), "need at least one PE");
        assert!(dim > 0, "dim must be positive");
        let bufs = rows_per_pe.iter().map(|&r| vec![0.0f32; r * dim]).collect();
        SymmetricRegion { dim, bufs }
    }

    /// Allocates and fills from a dense `rows x dim` matrix, scattering
    /// row blocks to PEs in order (PE 0 gets the first
    /// `rows_per_pe[0]` rows, and so on).
    pub fn scatter_rows(matrix: &[f32], rows_per_pe: &[usize], dim: usize) -> Self {
        let total: usize = rows_per_pe.iter().sum();
        assert_eq!(matrix.len(), total * dim, "matrix shape mismatch");
        let mut region = Self::zeros(rows_per_pe, dim);
        let mut offset = 0usize;
        for (pe, &rows) in rows_per_pe.iter().enumerate() {
            let len = rows * dim;
            region.bufs[pe].copy_from_slice(&matrix[offset..offset + len]);
            offset += len;
        }
        region
    }

    /// Immutable view of row `(pe, local_row)`.
    #[inline]
    pub fn row(&self, pe: usize, local_row: u32) -> &[f32] {
        let start = local_row as usize * self.dim;
        &self.bufs[pe][start..start + self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_places_row_blocks_in_pe_order() {
        let matrix: Vec<f32> = (0..12).map(|x| x as f32).collect(); // 6 rows x dim 2
        let region = SymmetricRegion::scatter_rows(&matrix, &[2, 3, 1], 2);
        assert_eq!(region.row(0, 1), &[2.0, 3.0]);
        assert_eq!(region.row(1, 0), &[4.0, 5.0]);
        assert_eq!(region.row(2, 0), &[10.0, 11.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_row_panics() {
        let region = SymmetricRegion::zeros(&[1, 1], 2);
        let _ = region.row(0, 1);
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn scatter_shape_checked() {
        let _ = SymmetricRegion::scatter_rows(&[0.0; 5], &[2, 1], 2);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #[test]
        fn scatter_then_row_reads_every_row(
            rows_per_pe in proptest::collection::vec(0usize..20, 1..6),
            dim in 1usize..16,
        ) {
            let total: usize = rows_per_pe.iter().sum();
            let matrix: Vec<f32> = (0..total * dim).map(|i| i as f32 * 0.5).collect();
            let region = SymmetricRegion::scatter_rows(&matrix, &rows_per_pe, dim);
            let mut global = 0usize;
            for (pe, &rows) in rows_per_pe.iter().enumerate() {
                for r in 0..rows {
                    let want = &matrix[global * dim..(global + 1) * dim];
                    prop_assert_eq!(region.row(pe, r as u32), want);
                    global += 1;
                }
            }
        }
    }
}
