//! Sparse matrix–sparse vector multiplication (SpMSV).
//!
//! §4.2: "the computation time is dominated by the sequential SpMSV
//! operation [...] This corresponds to selection, scaling and finally
//! merging columns of the local adjacency matrix that are indexed by the
//! nonzeros in the sparse vector. Computationally, we form the union
//! ⋃ A_ij(:,k) for all k where f_i(k) exists."
//!
//! The paper explores two merge strategies and settles on a polyalgorithm
//! (Fig. 3):
//!
//! * **SPA** (sparse accumulator, Gilbert–Moler–Schreiber): "a dense vector
//!   of values, a bit mask representing the 'occupied' flags, and a list
//!   that keeps the indices of existing elements" — fastest at low
//!   concurrency but with an `O(n/pr)` dense footprint per call.
//! * **Heap**: "a priority-queue of size nnz(f_i) \[performing\] an unbalanced
//!   multiway merging" — an extra log factor, but `O(nnz)` memory and a
//!   sorted output for free; wins beyond ≈10 000 cores (Fig. 3).
//!
//! Both kernels are kept as the model series of Fig. 3 (`fig3_spa_vs_heap`
//! times them); the 2D BFS runs neither. It scatters into a sort-free
//! SelectMax accumulator that keeps the SPA's dense slots, drops its sort,
//! and doubles as the fold's sieve (see DESIGN.md).

use crate::{Dcsc, Index, Semiring, SparseVector};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable sparse-accumulator state. §4.2 notes the SPA's downside is "the
/// temporary dense vectors"; reusing one workspace across the ~O(diameter)
/// SpMSV calls of a BFS amortizes both allocation and the O(n/pr) clearing
/// cost (we clear only touched entries).
#[derive(Clone, Debug)]
pub struct SpaWorkspace<T> {
    values: Vec<T>,
    occupied: Vec<bool>,
    touched: Vec<Index>,
}

impl<T: Copy + Default> SpaWorkspace<T> {
    /// A workspace for output dimension `nrows`.
    pub fn new(nrows: u64) -> Self {
        let n = usize::try_from(nrows).expect("dimension exceeds usize");
        Self {
            values: vec![T::default(); n],
            occupied: vec![false; n],
            touched: Vec::new(),
        }
    }

    /// Output dimension this workspace serves.
    pub fn dim(&self) -> u64 {
        self.values.len() as u64
    }

    pub(crate) fn scatter<S: Semiring<T = T>>(&mut self, row: Index, col: Index, x: T) {
        let r = row as usize;
        let contrib = S::multiply(row, col, x);
        if self.occupied[r] {
            self.values[r] = S::add(self.values[r], contrib);
        } else {
            self.occupied[r] = true;
            self.values[r] = contrib;
            self.touched.push(row);
        }
    }

    /// Drains the accumulated entries as a sorted sparse vector, resetting
    /// the workspace ("having to explicitly sort the indices at the end of
    /// the iteration", §4.2).
    pub(crate) fn gather(&mut self, dim: u64) -> SparseVector<T> {
        self.touched.sort_unstable();
        let entries: Vec<(Index, T)> = self
            .touched
            .iter()
            .map(|&r| (r, self.values[r as usize]))
            .collect();
        for &r in &self.touched {
            self.occupied[r as usize] = false;
        }
        self.touched.clear();
        SparseVector::from_sorted(dim, entries)
    }
}

/// SpMSV via the sparse accumulator. `ws` must have `ws.dim() == a.nrows()`.
pub fn spmsv_spa<S: Semiring>(
    a: &Dcsc,
    x: &SparseVector<S::T>,
    ws: &mut SpaWorkspace<S::T>,
) -> SparseVector<S::T>
where
    S::T: Default,
{
    assert_eq!(x.dim(), a.ncols(), "vector/matrix dimension mismatch");
    assert_eq!(ws.dim(), a.nrows(), "workspace/matrix dimension mismatch");
    for (col, xval) in x.iter() {
        for &row in a.column(col) {
            ws.scatter::<S>(row, col, xval);
        }
    }
    ws.gather(a.nrows())
}

/// SpMSV via an unbalanced multiway merge with a binary heap keyed on the
/// next row id of each active column cursor. `O(flops · log nnz(x))` time,
/// `O(nnz(x))` extra memory, sorted output by construction.
pub fn spmsv_heap<S: Semiring>(a: &Dcsc, x: &SparseVector<S::T>) -> SparseVector<S::T> {
    assert_eq!(x.dim(), a.ncols(), "vector/matrix dimension mismatch");
    // Cursor state per selected nonempty column.
    struct Cursor<'m, T> {
        rows: &'m [Index],
        pos: usize,
        col: Index,
        xval: T,
    }
    let mut cursors: Vec<Cursor<'_, S::T>> = Vec::with_capacity(x.nnz());
    let mut heap: BinaryHeap<Reverse<(Index, usize)>> = BinaryHeap::with_capacity(x.nnz());
    for (col, xval) in x.iter() {
        let rows = a.column(col);
        if !rows.is_empty() {
            let id = cursors.len();
            heap.push(Reverse((rows[0], id)));
            cursors.push(Cursor {
                rows,
                pos: 0,
                col,
                xval,
            });
        }
    }

    let mut entries: Vec<(Index, S::T)> = Vec::new();
    while let Some(Reverse((row, id))) = heap.pop() {
        let (col, xval) = {
            let c = &cursors[id];
            (c.col, c.xval)
        };
        let contrib = S::multiply(row, col, xval);
        match entries.last_mut() {
            Some(last) if last.0 == row => last.1 = S::add(last.1, contrib),
            _ => entries.push((row, contrib)),
        }
        let c = &mut cursors[id];
        c.pos += 1;
        if c.pos < c.rows.len() {
            heap.push(Reverse((c.rows[c.pos], id)));
        }
    }
    SparseVector::from_sorted(a.nrows(), entries)
}

/// Flops of `a ⊗ x`: total selected-column nonzeros.
pub fn spmsv_flops<T: Copy>(a: &Dcsc, x: &SparseVector<T>) -> usize {
    x.iter().map(|(col, _)| a.column(col).len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinPlus, SelectMax};

    /// Reference SpMSV: dense accumulation via a BTreeMap.
    fn reference<S: Semiring>(a: &Dcsc, x: &SparseVector<S::T>) -> Vec<(Index, S::T)> {
        let mut out: std::collections::BTreeMap<Index, S::T> = Default::default();
        for (col, xval) in x.iter() {
            for &row in a.column(col) {
                let contrib = S::multiply(row, col, xval);
                out.entry(row)
                    .and_modify(|v| *v = S::add(*v, contrib))
                    .or_insert(contrib);
            }
        }
        out.into_iter().collect()
    }

    fn sample_matrix() -> Dcsc {
        // 6x6 adjacency-ish pattern.
        Dcsc::from_triples(
            6,
            6,
            &[
                (1, 0),
                (2, 0),
                (3, 1),
                (3, 2),
                (4, 2),
                (5, 3),
                (0, 4),
                (2, 5),
                (4, 5),
            ],
        )
    }

    #[test]
    fn spa_matches_reference() {
        let a = sample_matrix();
        let x = SparseVector::from_sorted(6, vec![(0, 0u64), (2, 2), (5, 5)]);
        let mut ws = SpaWorkspace::new(6);
        let y = spmsv_spa::<SelectMax>(&a, &x, &mut ws);
        assert_eq!(y.entries(), reference::<SelectMax>(&a, &x).as_slice());
    }

    #[test]
    fn heap_matches_reference() {
        let a = sample_matrix();
        let x = SparseVector::from_sorted(6, vec![(0, 0u64), (2, 2), (5, 5)]);
        let y = spmsv_heap::<SelectMax>(&a, &x);
        assert_eq!(y.entries(), reference::<SelectMax>(&a, &x).as_slice());
    }

    #[test]
    fn kernels_agree_on_duplicate_heavy_input() {
        // Columns 0 and 5 both hit rows 2 and 4 -> add() must fire.
        let a = sample_matrix();
        let x = SparseVector::from_sorted(6, vec![(0, 10u64), (5, 3)]);
        let mut ws = SpaWorkspace::new(6);
        let spa = spmsv_spa::<SelectMax>(&a, &x, &mut ws);
        let heap = spmsv_heap::<SelectMax>(&a, &x);
        assert_eq!(spa, heap);
        assert_eq!(spa.get(2), Some(10)); // max(10, 3)
    }

    #[test]
    fn empty_vector_gives_empty_result() {
        let a = sample_matrix();
        let x: SparseVector<u64> = SparseVector::empty(6);
        let mut ws = SpaWorkspace::new(6);
        assert!(spmsv_spa::<SelectMax>(&a, &x, &mut ws).is_empty());
        assert!(spmsv_heap::<SelectMax>(&a, &x).is_empty());
    }

    #[test]
    fn workspace_is_reusable_across_calls() {
        let a = sample_matrix();
        let mut ws = SpaWorkspace::new(6);
        let x1 = SparseVector::from_sorted(6, vec![(0, 0u64)]);
        let x2 = SparseVector::from_sorted(6, vec![(4, 4u64)]);
        let y1 = spmsv_spa::<SelectMax>(&a, &x1, &mut ws);
        let y2 = spmsv_spa::<SelectMax>(&a, &x2, &mut ws);
        assert_eq!(y1.entries(), reference::<SelectMax>(&a, &x1).as_slice());
        assert_eq!(y2.entries(), reference::<SelectMax>(&a, &x2).as_slice());
    }

    #[test]
    fn min_plus_semiring_works() {
        let a = sample_matrix();
        let x = SparseVector::from_sorted(6, vec![(0, 0u64), (2, 7)]);
        let mut ws = SpaWorkspace::new(6);
        let y = spmsv_spa::<MinPlus>(&a, &x, &mut ws);
        assert_eq!(y.entries(), reference::<MinPlus>(&a, &x).as_slice());
        // Row 2 reachable from col 0 (dist 0+1): value 1.
        assert_eq!(y.get(2), Some(1));
    }

    #[test]
    fn flops_counts_selected_columns() {
        let a = sample_matrix();
        let x = SparseVector::from_sorted(6, vec![(0, 0u64), (5, 5)]);
        assert_eq!(spmsv_flops(&a, &x), 4); // col 0 has 2, col 5 has 2
    }
}
