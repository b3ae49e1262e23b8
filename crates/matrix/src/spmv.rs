//! Dense-vector SpMV over the boolean pattern matrix.
//!
//! The paper's 2D decomposition descends from parallel SpMV (Hendrickson,
//! Leland & Plimpton's matrix-vector algorithm, the paper's \[22\]); this
//! module provides the dense-vector kernel that regime needs, where every
//! vertex holds a value from the first iteration, unlike BFS frontiers.
//! No BFS driver calls it.

use crate::Dcsc;

/// `y = A · x` over (+, ×) with an implicit value of 1.0 for every stored
/// entry: `y[r] = Σ x[c]` over stored `(r, c)`.
pub fn spmv_dense(a: &Dcsc, x: &[f64]) -> Vec<f64> {
    assert_eq!(
        x.len() as u64,
        a.ncols(),
        "vector/matrix dimension mismatch"
    );
    let mut y = vec![0.0; a.nrows() as usize];
    for (c, rows) in a.nonempty_columns() {
        let xv = x[c as usize];
        if xv != 0.0 {
            for &r in rows {
                y[r as usize] += xv;
            }
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_selected_columns() {
        // 3x3: column 0 hits rows 1,2; column 2 hits row 0.
        let a = Dcsc::from_triples(3, 3, &[(1, 0), (2, 0), (0, 2)]);
        let y = spmv_dense(&a, &[2.0, 5.0, 3.0]);
        assert_eq!(y, vec![3.0, 2.0, 2.0]);
    }

    #[test]
    fn zero_vector_gives_zero() {
        let a = Dcsc::from_triples(2, 2, &[(0, 1), (1, 0)]);
        assert_eq!(spmv_dense(&a, &[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn identity_pattern_permutes_nothing() {
        let a = Dcsc::from_triples(3, 3, &[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(spmv_dense(&a, &[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matches_triple_sum_reference() {
        let triples = [(0u64, 1u64), (2, 1), (1, 3), (3, 0), (3, 3)];
        let a = Dcsc::from_triples(4, 4, &triples);
        let x = [0.5, 1.5, 2.5, 3.5];
        let mut expected = vec![0.0; 4];
        for &(r, c) in &triples {
            expected[r as usize] += x[c as usize];
        }
        assert_eq!(spmv_dense(&a, &x), expected);
    }
}
