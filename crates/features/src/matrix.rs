//! Feature matrix: the `X[L][F]` array consumed by Algorithm 1 and by the
//! machine-learning substrate.

use crate::error::FeatureError;

/// A dense row-major matrix of `L` windows × `F` features with named columns.
///
/// This is the `X[L][F]` input of the paper's Algorithm 1: each row holds the
/// feature vector extracted from one sliding window.
///
/// # Example
///
/// ```
/// use seizure_features::FeatureMatrix;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let mut m = FeatureMatrix::with_names(vec!["a".into(), "b".into()]);
/// m.push_row(vec![1.0, 2.0])?;
/// m.push_row(vec![3.0, 4.0])?;
/// assert_eq!(m.num_windows(), 2);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// assert_eq!(m.column(0), vec![1.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureMatrix {
    names: Vec<String>,
    data: Vec<f64>,
    rows: usize,
}

impl FeatureMatrix {
    /// Creates an empty matrix with the given feature (column) names.
    pub fn with_names(names: Vec<String>) -> Self {
        Self {
            names,
            data: Vec::new(),
            rows: 0,
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::DimensionMismatch`] if any row's length differs
    /// from the number of feature names.
    pub fn from_rows(names: Vec<String>, rows: Vec<Vec<f64>>) -> Result<Self, FeatureError> {
        let mut m = Self::with_names(names);
        for row in rows {
            m.push_row(row)?;
        }
        Ok(m)
    }

    /// Creates a matrix from a single flat row-major buffer, the layout the
    /// batch extraction path fills in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::DimensionMismatch`] if there are no feature
    /// names or `data.len()` is not a multiple of the feature count.
    pub fn from_flat(names: Vec<String>, data: Vec<f64>) -> Result<Self, FeatureError> {
        if names.is_empty() {
            return Err(FeatureError::DimensionMismatch {
                detail: "a feature matrix needs at least one named column".to_string(),
            });
        }
        if !data.len().is_multiple_of(names.len()) {
            return Err(FeatureError::DimensionMismatch {
                detail: format!(
                    "flat buffer of {} values is not a multiple of {} features",
                    data.len(),
                    names.len()
                ),
            });
        }
        let rows = data.len() / names.len();
        Ok(Self { names, data, rows })
    }

    /// The underlying flat row-major buffer (`num_windows() * num_features()`
    /// values). This is the zero-copy input of the flat-forest batch
    /// prediction path.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer, for callers that fill or
    /// transform a matrix in place and keep it alive for reuse (e.g. writing
    /// one window's quality row into a preallocated one-row matrix).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Clears the matrix and prepares `rows` zeroed windows in place,
    /// reusing the existing allocation; returns the mutable flat buffer.
    /// This is the multi-record reuse entry of the batch extraction path.
    pub(crate) fn reset_rows(&mut self, rows: usize) -> &mut [f64] {
        let len = rows * self.names.len();
        self.rows = rows;
        self.data.clear();
        self.data.resize(len, 0.0);
        &mut self.data
    }

    /// Installs the column names produced by `names` unless the matrix
    /// already carries exactly those names, clearing stale rows on a change.
    /// Building the names to compare is trivial next to extracting even one
    /// record, and comparing the full set keeps a workspace safe to share
    /// between extractors of equal width.
    pub(crate) fn ensure_names(&mut self, names: impl FnOnce() -> Vec<String>) {
        let names = names();
        if self.names != names {
            self.names = names;
            self.data.clear();
            self.rows = 0;
        }
    }

    /// Appends one window's feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::DimensionMismatch`] if the row length differs
    /// from the number of feature names.
    pub fn push_row(&mut self, row: Vec<f64>) -> Result<(), FeatureError> {
        if row.len() != self.names.len() {
            return Err(FeatureError::DimensionMismatch {
                detail: format!(
                    "row has {} values but the matrix has {} features",
                    row.len(),
                    self.names.len()
                ),
            });
        }
        self.data.extend_from_slice(&row);
        self.rows += 1;
        Ok(())
    }

    /// Number of windows (rows), the `L` of Algorithm 1.
    pub fn num_windows(&self) -> usize {
        self.rows
    }

    /// Number of features (columns), the `F` of Algorithm 1.
    pub fn num_features(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if the matrix holds no windows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Feature (column) names.
    pub fn feature_names(&self) -> &[String] {
        &self.names
    }

    /// One window's feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_windows()`.
    pub fn row(&self, index: usize) -> &[f64] {
        let f = self.num_features();
        &self.data[index * f..(index + 1) * f]
    }

    /// Iterator over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks(self.num_features().max(1)).take(self.rows)
    }

    /// Copies one feature column.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_features()`.
    pub fn column(&self, index: usize) -> Vec<f64> {
        assert!(index < self.num_features(), "column index out of range");
        (0..self.rows).map(|r| self.row(r)[index]).collect()
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(col < self.num_features(), "column index out of range");
        self.row(row)[col]
    }

    /// Mutable access to the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut f64 {
        let f = self.num_features();
        assert!(col < f, "column index out of range");
        assert!(row < self.rows, "row index out of range");
        &mut self.data[row * f + col]
    }

    /// Returns a new matrix containing only the columns at the given indices,
    /// in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::DimensionMismatch`] if any index is out of range.
    pub fn select_columns(&self, indices: &[usize]) -> Result<FeatureMatrix, FeatureError> {
        for &i in indices {
            if i >= self.num_features() {
                return Err(FeatureError::DimensionMismatch {
                    detail: format!(
                        "column index {i} out of range for a matrix with {} features",
                        self.num_features()
                    ),
                });
            }
        }
        let names = indices.iter().map(|&i| self.names[i].clone()).collect();
        let mut out = FeatureMatrix::with_names(names);
        for r in 0..self.rows {
            let row = indices.iter().map(|&i| self.get(r, i)).collect();
            out.push_row(row)
                .expect("selected row length matches names");
        }
        Ok(out)
    }

    /// Appends all rows of `other` to this matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::DimensionMismatch`] if the feature counts differ.
    pub fn append(&mut self, other: &FeatureMatrix) -> Result<(), FeatureError> {
        if other.num_features() != self.num_features() {
            return Err(FeatureError::DimensionMismatch {
                detail: format!(
                    "cannot append a matrix with {} features to one with {}",
                    other.num_features(),
                    self.num_features()
                ),
            });
        }
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
        Ok(())
    }

    /// Converts the matrix into plain row vectors (used by the ML substrate).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(|r| r.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureMatrix {
        FeatureMatrix::from_rows(
            vec!["f1".into(), "f2".into(), "f3".into()],
            vec![
                vec![1.0, 2.0, 3.0],
                vec![4.0, 5.0, 6.0],
                vec![7.0, 8.0, 9.0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn dimensions_and_access() {
        let m = sample();
        assert_eq!(m.num_windows(), 3);
        assert_eq!(m.num_features(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(2), vec![3.0, 6.0, 9.0]);
        assert_eq!(m.get(2, 0), 7.0);
        assert_eq!(m.feature_names()[1], "f2");
    }

    #[test]
    fn push_row_validates_length() {
        let mut m = FeatureMatrix::with_names(vec!["a".into(), "b".into()]);
        assert!(m.push_row(vec![1.0]).is_err());
        assert!(m.push_row(vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn get_mut_modifies_value() {
        let mut m = sample();
        *m.get_mut(0, 0) = 42.0;
        assert_eq!(m.get(0, 0), 42.0);
    }

    #[test]
    fn select_columns_projects_and_orders() {
        let m = sample();
        let p = m.select_columns(&[2, 0]).unwrap();
        assert_eq!(p.num_features(), 2);
        assert_eq!(p.feature_names(), &["f3".to_string(), "f1".to_string()]);
        assert_eq!(p.row(1), &[6.0, 4.0]);
        assert!(m.select_columns(&[5]).is_err());
    }

    #[test]
    fn append_concatenates_windows() {
        let mut a = sample();
        let b = sample();
        a.append(&b).unwrap();
        assert_eq!(a.num_windows(), 6);
        let other = FeatureMatrix::with_names(vec!["x".into()]);
        assert!(a.append(&other).is_err());
    }

    #[test]
    fn rows_iterator_yields_all_rows() {
        let m = sample();
        let rows: Vec<_> = m.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn to_rows_round_trips() {
        let m = sample();
        let rows = m.to_rows();
        let m2 = FeatureMatrix::from_rows(m.feature_names().to_vec(), rows).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn empty_matrix_behaviour() {
        let m = FeatureMatrix::with_names(vec!["a".into()]);
        assert!(m.is_empty());
        assert_eq!(m.num_windows(), 0);
        assert_eq!(m.rows().count(), 0);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn column_out_of_range_panics() {
        sample().column(9);
    }
}
