//! Semirings for SpMSV.
//!
//! §3.2: "The syntax ⊗ denotes the matrix-vector multiplication operation on
//! a special (select, max)-semiring". For a boolean adjacency matrix the
//! "multiply" of a stored nonzero `A(i, j)` with a vector entry `x(j)`
//! *selects* the vector value (the candidate parent), and duplicate
//! contributions to the same output row are combined with `max`. The max is
//! arbitrary but deterministic — any parent at the previous level is a
//! correct BFS parent; picking the max makes runs reproducible across
//! kernels and process grids.

use crate::Index;

/// A semiring specialized to boolean (pattern-only) matrices: the matrix
/// contributes structure, the vector contributes values.
pub trait Semiring {
    /// Vector entry type.
    type T: Copy;

    /// Combines a stored nonzero at `(row, col)` with the vector value at
    /// `col`, yielding the contribution to output row `row`.
    fn multiply(row: Index, col: Index, x: Self::T) -> Self::T;

    /// Combines two contributions to the same output row. Must be
    /// associative and commutative (kernels merge in different orders).
    fn add(a: Self::T, b: Self::T) -> Self::T;
}

/// The paper's BFS semiring: multiply selects the vector value (candidate
/// parent id), add keeps the maximum.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelectMax;

impl Semiring for SelectMax {
    type T = Index;

    #[inline]
    fn multiply(_row: Index, _col: Index, x: Index) -> Index {
        x
    }

    #[inline]
    fn add(a: Index, b: Index) -> Index {
        a.max(b)
    }
}

/// (min, +) tropical semiring over `u64` distances: the second semiring
/// the tests run the SpMSV kernels under, to show they are generic.
/// Multiply adds the unit edge weight.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type T = u64;

    #[inline]
    fn multiply(_row: Index, _col: Index, x: u64) -> u64 {
        x.saturating_add(1)
    }

    #[inline]
    fn add(a: u64, b: u64) -> u64 {
        a.min(b)
    }
}

/// Boolean (or, and) semiring: reachability only.
#[derive(Clone, Copy, Debug, Default)]
pub struct BoolOr;

impl Semiring for BoolOr {
    type T = bool;

    #[inline]
    fn multiply(_row: Index, _col: Index, x: bool) -> bool {
        x
    }

    #[inline]
    fn add(a: bool, b: bool) -> bool {
        a || b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_max_selects_and_maxes() {
        assert_eq!(SelectMax::multiply(9, 3, 42), 42);
        assert_eq!(SelectMax::add(3, 7), 7);
        assert_eq!(SelectMax::add(7, 3), 7);
    }

    #[test]
    fn min_plus_increments_and_mins() {
        assert_eq!(MinPlus::multiply(0, 0, 5), 6);
        assert_eq!(MinPlus::add(3, 7), 3);
        assert_eq!(MinPlus::multiply(0, 0, u64::MAX), u64::MAX);
    }

    #[test]
    fn bool_or_is_or() {
        assert!(BoolOr::add(true, false));
        assert!(!BoolOr::add(false, false));
        assert!(BoolOr::multiply(0, 0, true));
    }

    #[test]
    fn adds_are_commutative_and_associative() {
        for a in [0u64, 1, 99] {
            for b in [0u64, 5, 77] {
                for c in [2u64, 88] {
                    assert_eq!(SelectMax::add(a, b), SelectMax::add(b, a));
                    assert_eq!(
                        SelectMax::add(SelectMax::add(a, b), c),
                        SelectMax::add(a, SelectMax::add(b, c))
                    );
                    assert_eq!(MinPlus::add(a, b), MinPlus::add(b, a));
                }
            }
        }
    }
}
