//! Property-based tests for the sparse-matrix substrate: DCSC must be
//! indistinguishable from plain compressed columns whichever constructor
//! built it, and every
//! SpMSV kernel must agree with a naive reference on arbitrary inputs.

use dmbfs_matrix::{
    spmsv_heap, spmsv_spa, Dcsc, Index, MinPlus, SelectMax, Semiring, SpaWorkspace, SparseVector,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Strategy: a random triple list within an `nrows × ncols` matrix.
fn triples(nrows: u64, ncols: u64, max_nnz: usize) -> impl Strategy<Value = Vec<(Index, Index)>> {
    prop::collection::vec((0..nrows, 0..ncols), 0..max_nnz)
}

/// Strategy: strictly ascending column ids below `ncols`, each with a
/// sorted list of rows below 16 that may repeat rows or be empty.
fn sorted_columns(ncols: u64, max_cols: usize) -> impl Strategy<Value = Vec<(Index, Vec<Index>)>> {
    prop::collection::btree_map(0..ncols, prop::collection::vec(0u64..16, 0..8), 0..max_cols)
        .prop_map(|m| {
            m.into_iter()
                .map(|(c, mut rows)| {
                    rows.sort_unstable();
                    (c, rows)
                })
                .collect()
        })
}

/// Strategy: a random sorted sparse vector of dimension `dim`.
fn sparse_vec(dim: u64, max_nnz: usize) -> impl Strategy<Value = SparseVector<u64>> {
    prop::collection::btree_map(0..dim, 0u64..1000, 0..max_nnz)
        .prop_map(move |m| SparseVector::from_sorted(dim, m.into_iter().collect()))
}

/// Plain CSC columns of a triple list: each column's rows, sorted and
/// deduplicated.
fn csc_columns(ncols: u64, t: &[(Index, Index)]) -> Vec<Vec<Index>> {
    let mut columns = vec![BTreeSet::new(); ncols as usize];
    for &(r, c) in t {
        columns[c as usize].insert(r);
    }
    columns
        .into_iter()
        .map(|c| c.into_iter().collect())
        .collect()
}

fn reference<S: Semiring>(a: &Dcsc, x: &SparseVector<S::T>) -> Vec<(Index, S::T)> {
    let mut out: BTreeMap<Index, S::T> = BTreeMap::new();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dcsc_equals_csc_on_every_column(t in triples(40, 60, 200)) {
        let d = Dcsc::from_triples(40, 60, &t);
        let c = csc_columns(60, &t);
        d.check_invariants().unwrap();
        prop_assert_eq!(d.nnz(), c.iter().map(Vec::len).sum::<usize>());
        for col in 0..60 {
            prop_assert_eq!(d.column(col), &c[col as usize][..], "column {}", col);
        }
    }

    #[test]
    fn dcsc_triples_round_trip(t in triples(30, 30, 150)) {
        let d = Dcsc::from_triples(30, 30, &t);
        let back: Vec<_> = d.triples().collect();
        let d2 = Dcsc::from_triples(30, 30, &back);
        prop_assert_eq!(d, d2);
    }

    #[test]
    fn sorted_columns_build_equals_from_triples(
        dense in sorted_columns(32, 40),
        hypersparse in sorted_columns(1 << 20, 40),
    ) {
        for (ncols, cols) in [(32, dense), (1 << 20, hypersparse)] {
            let columns = cols.iter().map(|(c, rows)| (*c, rows.iter().copied()));
            let built = Dcsc::from_sorted_columns(16, ncols, columns);
            let triples: Vec<(Index, Index)> = cols
                .iter()
                .flat_map(|(c, rows)| rows.iter().map(move |&r| (r, *c)))
                .collect();
            let reference = Dcsc::from_triples(16, ncols, &triples);
            built.check_invariants().unwrap();
            reference.check_invariants().unwrap();
            prop_assert_eq!(&built, &reference);
            // Independent of `from_triples`: each column is its rows
            // with duplicates merged, and empty columns are not stored.
            for (c, rows) in &cols {
                let mut distinct = rows.clone();
                distinct.dedup();
                prop_assert_eq!(built.column(*c), distinct.as_slice(), "column {}", c);
            }
            prop_assert_eq!(built.nzc(), cols.iter().filter(|(_, r)| !r.is_empty()).count());
        }
    }

    #[test]
    fn spa_and_heap_agree_with_reference(
        t in triples(50, 50, 300),
        x in sparse_vec(50, 40),
    ) {
        let a = Dcsc::from_triples(50, 50, &t);
        let expected = reference::<SelectMax>(&a, &x);
        let mut ws = SpaWorkspace::new(50);
        let spa = spmsv_spa::<SelectMax>(&a, &x, &mut ws);
        prop_assert_eq!(spa.entries(), expected.as_slice());
        let heap = spmsv_heap::<SelectMax>(&a, &x);
        prop_assert_eq!(heap.entries(), expected.as_slice());
    }

    #[test]
    fn min_plus_kernels_agree(
        t in triples(40, 40, 200),
        x in sparse_vec(40, 30),
    ) {
        let a = Dcsc::from_triples(40, 40, &t);
        let expected = reference::<MinPlus>(&a, &x);
        let mut ws = SpaWorkspace::new(40);
        let spa = spmsv_spa::<MinPlus>(&a, &x, &mut ws);
        prop_assert_eq!(spa.entries(), expected.as_slice());
        let heap = spmsv_heap::<MinPlus>(&a, &x);
        prop_assert_eq!(heap.entries(), expected.as_slice());
    }

    #[test]
    fn spmsv_output_is_sorted_and_in_range(
        t in triples(64, 64, 300),
        x in sparse_vec(64, 40),
    ) {
        let a = Dcsc::from_triples(64, 64, &t);
        let y = spmsv_heap::<SelectMax>(&a, &x);
        prop_assert!(y.check_invariants());
        prop_assert!(y.entries().iter().all(|&(r, _)| r < 64));
    }

    #[test]
    fn workspace_reuse_never_leaks_state(
        t in triples(32, 32, 150),
        x1 in sparse_vec(32, 20),
        x2 in sparse_vec(32, 20),
    ) {
        let a = Dcsc::from_triples(32, 32, &t);
        let mut ws = SpaWorkspace::new(32);
        let _ = spmsv_spa::<SelectMax>(&a, &x1, &mut ws);
        let y2 = spmsv_spa::<SelectMax>(&a, &x2, &mut ws);
        let expected = reference::<SelectMax>(&a, &x2);
        prop_assert_eq!(y2.entries(), expected.as_slice());
    }

    #[test]
    fn sparse_vector_merge_is_order_insensitive(
        entries in prop::collection::vec((0u64..100, 0u64..50), 0..60),
    ) {
        let a = SparseVector::from_unsorted(100, entries.clone(), u64::max);
        let reversed: Vec<_> = entries.into_iter().rev().collect();
        let b = SparseVector::from_unsorted(100, reversed, u64::max);
        prop_assert_eq!(a, b);
    }
}
