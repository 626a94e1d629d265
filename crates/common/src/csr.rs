//! Compressed Sparse Row (CSR) packing of ragged row collections.
//!
//! A `Vec<Vec<T>>` costs one heap allocation and one pointer chase per
//! row; the hot block-graph sweeps of the ER crate (Edge Pruning
//! neighbourhood scans, co-occurrence counting) touch millions of rows
//! per query, so the per-table indices pack every row into one
//! contiguous `data` buffer addressed through an `offsets` table —
//! `row(i)` is two loads and a bounds check, rows are adjacent in
//! memory, and a full sweep is a linear scan of `data`.

/// A row that would take a [`Csr`] past `u32::MAX` stored elements, the
/// range its offsets address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrOverflow {
    /// The element count the refused row would have brought the CSR to.
    pub elements: usize,
}

impl std::fmt::Display for CsrOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} elements exceed the u32 offset range of a CSR buffer",
            self.elements
        )
    }
}

impl std::error::Error for CsrOverflow {}

/// A read-mostly CSR matrix: `offsets[i]..offsets[i + 1]` delimits row
/// `i` inside the flat `data` buffer.
///
/// Offsets are `u32` (matching the workspace-wide dense `u32` id types),
/// capping total stored elements at `u32::MAX`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Creates an empty CSR with zero rows.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// Creates an empty CSR pre-sized for `rows` rows totalling
    /// `data_cap` elements.
    pub fn with_capacity(rows: usize, data_cap: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            data: Vec::with_capacity(data_cap),
        }
    }

    /// Appends one row, returning its index. Rows must arrive in row
    /// order — CSR construction is append-only.
    ///
    /// A row that would take the total element count past `u32::MAX`
    /// (the offset width) is refused with [`CsrOverflow`] and leaves the
    /// CSR as it was: the offsets would otherwise wrap and every later
    /// row alias earlier data. Million-record tables sit orders of
    /// magnitude below the cap.
    pub fn push_row(&mut self, row: &[T]) -> Result<usize, CsrOverflow> {
        let total = self.data.len() + row.len();
        if total > u32::MAX as usize {
            return Err(CsrOverflow { elements: total });
        }
        self.data.extend_from_slice(row);
        self.offsets.push(self.data.len() as u32);
        Ok(self.offsets.len() - 2)
    }

    /// The row at `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.data[lo..hi]
    }

    /// Mutable view of the row at `i` (for in-place per-row sorting
    /// during index construction).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &mut self.data[lo..hi]
    }

    /// Length of the row at `i` without materializing the slice.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the CSR holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total elements across all rows.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    /// Iterates the rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        (0..self.n_rows()).map(move |i| self.row(i))
    }
}

impl Csr<u32> {
    /// Inverts an adjacency in two counting passes: element `v` of row
    /// `r` becomes element `r` of output row `v`. `n_out_rows` must
    /// exceed every stored value.
    ///
    /// Within each output row the stored source-row indices ascend (rows
    /// are scanned in order) — the order a stable counting sort of the
    /// row-major `(value, row)` pairs gives — so the ER index can invert
    /// block↔record memberships without ever materializing that
    /// intermediate pair vector.
    pub fn transpose(&self, n_out_rows: usize) -> Csr<u32> {
        let mut offsets = vec![0u32; n_out_rows + 1];
        for &v in &self.data {
            offsets[v as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..n_out_rows].to_vec();
        let mut data = vec![0u32; self.data.len()];
        for r in 0..self.n_rows() {
            let (lo, hi) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
            for &v in &self.data[lo..hi] {
                let c = &mut cursor[v as usize];
                data[*c as usize] = r as u32;
                *c += 1;
            }
        }
        Csr { offsets, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pair-vector inversion [`Csr::transpose`] replaces: a stable
    /// two-pass counting sort of `(row, value)` pairs, so within each
    /// row values keep the order they appear in `pairs`.
    fn from_pairs(n_rows: usize, pairs: &[(u32, u32)]) -> Csr<u32> {
        let mut offsets = vec![0u32; n_rows + 1];
        for &(r, _) in pairs {
            offsets[r as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..n_rows].to_vec();
        let mut data = vec![0u32; pairs.len()];
        for &(r, v) in pairs {
            let c = &mut cursor[r as usize];
            data[*c as usize] = v;
            *c += 1;
        }
        Csr { offsets, data }
    }

    #[test]
    fn push_and_read_rows() {
        let mut c: Csr<u32> = Csr::new();
        assert!(c.is_empty());
        assert_eq!(c.push_row(&[3, 1, 4]), Ok(0));
        assert_eq!(c.push_row(&[]), Ok(1));
        assert_eq!(c.push_row(&[1, 5]), Ok(2));
        assert_eq!(c.n_rows(), 3);
        assert_eq!(c.row(0), &[3, 1, 4]);
        assert_eq!(c.row(1), &[] as &[u32]);
        assert_eq!(c.row(2), &[1, 5]);
        assert_eq!(c.row_len(0), 3);
        assert_eq!(c.total_len(), 5);
        let all: Vec<&[u32]> = c.rows().collect();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn overflowing_row_is_a_typed_error() {
        // Zero-sized elements: four billion of them allocate nothing.
        let cap = u32::MAX as usize;
        let big = vec![(); cap + 1];
        let mut c: Csr<()> = Csr::new();
        assert_eq!(c.push_row(&big), Err(CsrOverflow { elements: cap + 1 }));
        assert!(c.is_empty(), "a refused row leaves nothing behind");
        assert_eq!(c.push_row(&big[..cap]), Ok(0));
        assert_eq!(c.push_row(&[]), Ok(1));
        assert_eq!(c.push_row(&[()]), Err(CsrOverflow { elements: cap + 1 }));
        assert_eq!((c.n_rows(), c.total_len()), (2, cap));
    }

    #[test]
    fn row_mut_sorts_in_place() {
        let mut c: Csr<u32> = Csr::new();
        c.push_row(&[9, 2, 7]).unwrap();
        c.row_mut(0).sort_unstable();
        assert_eq!(c.row(0), &[2, 7, 9]);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut c: Csr<u16> = Csr::with_capacity(2, 8);
        c.push_row(&[7]).unwrap();
        assert_eq!(c.row(0), &[7]);
        assert_eq!(c.n_rows(), 1);
    }

    #[test]
    fn transpose_matches_pair_inversion() {
        // blocks→records example: transpose must equal the pair-vector
        // inversion it replaces, row for row.
        let mut blocks: Csr<u32> = Csr::new();
        blocks.push_row(&[0, 2, 3]).unwrap();
        blocks.push_row(&[]).unwrap();
        blocks.push_row(&[1, 2]).unwrap();
        blocks.push_row(&[0]).unwrap();
        let n_records = 4;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (b, row) in blocks.rows().enumerate() {
            for &r in row {
                pairs.push((r, b as u32));
            }
        }
        let via_pairs = from_pairs(n_records, &pairs);
        let via_transpose = blocks.transpose(n_records);
        assert_eq!(via_pairs, via_transpose);
        // Round trip restores the original.
        assert_eq!(via_transpose.transpose(blocks.n_rows()), blocks);
    }

    #[test]
    fn transpose_empty_and_empty_rows() {
        let c: Csr<u32> = Csr::new();
        let t = c.transpose(5);
        assert_eq!(t.n_rows(), 5);
        assert!((0..5).all(|i| t.row(i).is_empty()));
    }

    #[test]
    fn transpose_output_rows_ascend() {
        // Source rows are scanned in order, so each output row's stored
        // source indices must ascend — the invariant the ER block graph
        // relies on (block contents sorted by record id).
        let mut c: Csr<u32> = Csr::new();
        c.push_row(&[1, 0]).unwrap();
        c.push_row(&[0, 1]).unwrap();
        c.push_row(&[1]).unwrap();
        let t = c.transpose(2);
        assert_eq!(t.row(0), &[0, 1]);
        assert_eq!(t.row(1), &[0, 1, 2]);
    }
}
