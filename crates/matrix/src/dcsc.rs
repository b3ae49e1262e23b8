//! Doubly compressed sparse columns (DCSC) for hypersparse matrices.
//!
//! §4.1: after 2D partitioning "a strictly O(m) data structure with fast
//! indexing support is required. [...] DCSC for BFS consists of an array IR
//! of row ids (size m), which is indexed by two parallel arrays of column
//! pointers (CP) and column ids (JC). The size of these parallel arrays are
//! on the order of the number of columns that has at least one nonzero (nzc)
//! in them." (Buluç & Gilbert, IPDPS 2008.)
//!
//! Column lookup must be near-constant time during SpMSV; we keep the
//! original paper's AUX acceleration array: a coarse bucket index over JC so
//! a column probe scans O(1) expected JC entries instead of a log(nzc)
//! binary search.

use crate::Index;

/// A boolean hypersparse matrix in DCSC layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dcsc {
    nrows: u64,
    ncols: u64,
    /// Column ids that contain at least one nonzero, ascending (len `nzc`).
    jc: Vec<Index>,
    /// Column pointers into `ir` (len `nzc + 1`).
    cp: Vec<usize>,
    /// Row ids, sorted ascending within each column (len `nnz`).
    ir: Vec<Index>,
    /// AUX bucket index: `aux[b]` is the first JC position whose column id
    /// is `>= b * bucket_width`. Length `nbuckets + 1`.
    aux: Vec<usize>,
    /// Width of each AUX bucket in column-id space (power of two shift).
    bucket_shift: u32,
}

impl Dcsc {
    /// Builds from `(row, col)` nonzero coordinates; duplicates are merged.
    /// Sorts the coordinates into column-major order, then hands the
    /// columns to [`Dcsc::from_sorted_columns`].
    pub fn from_triples(nrows: u64, ncols: u64, triples: &[(Index, Index)]) -> Self {
        let mut sorted: Vec<(Index, Index)> = triples.iter().map(|&(r, c)| (c, r)).collect();
        sorted.sort_unstable();
        let columns = sorted
            .chunk_by(|a, b| a.0 == b.0)
            .map(|col| (col[0].0, col.iter().map(|&(_, r)| r)));
        Self::from_sorted_columns(nrows, ncols, columns)
    }

    /// Builds from columns given in strictly ascending id order, each with
    /// its row ids sorted ascending (a CSR adjacency block is one such
    /// column). Adjacent duplicate rows are merged and columns with no rows
    /// are skipped. Nothing is sorted: `columns` is walked once to size the
    /// arrays from the column lengths and once to fill them, and `ir` is
    /// trimmed to its exact size only if duplicates were merged.
    pub fn from_sorted_columns<I, R>(nrows: u64, ncols: u64, columns: I) -> Self
    where
        I: Iterator<Item = (Index, R)> + Clone,
        R: IntoIterator<Item = Index>,
        R::IntoIter: ExactSizeIterator,
    {
        let (mut nzc, mut len) = (0usize, 0usize);
        for (_, rows) in columns.clone() {
            let k = rows.into_iter().len();
            nzc += usize::from(k > 0);
            len += k;
        }
        let mut jc: Vec<Index> = Vec::with_capacity(nzc);
        let mut cp: Vec<usize> = Vec::with_capacity(nzc + 1);
        let mut ir: Vec<Index> = Vec::with_capacity(len);
        cp.push(0);
        for (c, rows) in columns {
            debug_assert!(c < ncols && jc.last().is_none_or(|&last| last < c));
            let start = ir.len();
            ir.extend(rows);
            let col = &mut ir[start..];
            debug_assert!(col.is_sorted() && col.last().is_none_or(|&r| r < nrows));
            if col.windows(2).any(|w| w[0] == w[1]) {
                // Merge duplicate rows in place; sorted, they are adjacent.
                let mut kept = 1;
                for k in 1..col.len() {
                    if col[k] != col[kept - 1] {
                        col[kept] = col[k];
                        kept += 1;
                    }
                }
                ir.truncate(start + kept);
            }
            if ir.len() > start {
                jc.push(c);
                cp.push(ir.len());
            }
        }
        debug_assert_eq!(jc.len(), nzc);
        ir.shrink_to_fit();

        // AUX: aim for ~1 JC entry per bucket. bucket_width =
        // 2^bucket_shift ≈ ncols / nzc, so a lookup scans O(1) expected
        // entries.
        let nzc = nzc.max(1);
        let ideal_width = (ncols / nzc as u64).max(1);
        let bucket_shift = 63 - ideal_width.leading_zeros().min(63);
        let nbuckets = (ncols >> bucket_shift) as usize + 1;
        let mut aux = vec![0usize; nbuckets + 1];
        {
            // aux[b] = first position in jc with jc[pos] >> shift >= b.
            let mut pos = 0usize;
            for (b, slot) in aux.iter_mut().enumerate() {
                while pos < jc.len() && (jc[pos] >> bucket_shift) < b as u64 {
                    pos += 1;
                }
                *slot = pos;
            }
        }

        Self {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            aux,
            bucket_shift,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> u64 {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> u64 {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.ir.len()
    }

    /// Number of nonempty columns (`nzc`).
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    /// Sorted row ids of column `c`; empty slice when the column has no
    /// nonzeros. AUX-accelerated probe.
    pub fn column(&self, c: Index) -> &[Index] {
        debug_assert!(c < self.ncols);
        let b = (c >> self.bucket_shift) as usize;
        let lo = self.aux[b];
        let hi = self.aux[(b + 1).min(self.aux.len() - 1)].max(lo);
        // Scan the (expected O(1)-sized) bucket slice; fall back to binary
        // search within it for pathological buckets.
        let slice = &self.jc[lo..hi];
        let found = if slice.len() <= 8 {
            slice.iter().position(|&j| j == c).map(|p| lo + p)
        } else {
            slice.binary_search(&c).ok().map(|p| lo + p)
        };
        match found {
            Some(pos) => &self.ir[self.cp[pos]..self.cp[pos + 1]],
            None => &[],
        }
    }

    /// Iterates `(column id, sorted row ids)` over nonempty columns.
    pub fn nonempty_columns(&self) -> impl Iterator<Item = (Index, &[Index])> + '_ {
        self.jc
            .iter()
            .enumerate()
            .map(move |(k, &c)| (c, &self.ir[self.cp[k]..self.cp[k + 1]]))
    }

    /// Iterates over all `(row, col)` nonzeros in column-major order.
    pub fn triples(&self) -> impl Iterator<Item = (Index, Index)> + '_ {
        self.nonempty_columns()
            .flat_map(|(c, rows)| rows.iter().map(move |&r| (r, c)))
    }

    /// Bytes of index data held: `O(nnz + nzc)`, independent of `ncols`
    /// except for the (tiny) AUX array — the whole point of DCSC.
    pub fn index_bytes(&self) -> usize {
        self.jc.len() * size_of::<Index>()
            + self.cp.len() * size_of::<usize>()
            + self.ir.len() * size_of::<Index>()
            + self.aux.len() * size_of::<usize>()
    }

    /// Structural invariants (property tests).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.cp.len() != self.jc.len() + 1 {
            return Err("cp length != nzc + 1".into());
        }
        if self.jc.windows(2).any(|w| w[0] >= w[1]) {
            return Err("jc not strictly ascending".into());
        }
        if self.cp.windows(2).any(|w| w[0] >= w[1]) {
            return Err("cp not strictly ascending (empty column stored?)".into());
        }
        if self.cp.first() != Some(&0) || self.cp.last() != Some(&self.ir.len()) {
            return Err("cp endpoints wrong".into());
        }
        for k in 0..self.jc.len() {
            let rows = &self.ir[self.cp[k]..self.cp[k + 1]];
            if rows.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "rows of column {} not strictly ascending",
                    self.jc[k]
                ));
            }
            if rows.iter().any(|&r| r >= self.nrows) {
                return Err("row id out of range".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn triples() -> Vec<(Index, Index)> {
        vec![(3, 3), (0, 1), (2, 1), (1, 3), (0, 4), (0, 1), (5, 900)]
    }

    #[test]
    fn matches_csc_columns() {
        let t = triples();
        let d = Dcsc::from_triples(8, 1000, &t);
        // Plain CSC columns: each column's rows, sorted and deduplicated.
        let mut csc = vec![BTreeSet::new(); 1000];
        for &(r, c) in &t {
            csc[c as usize].insert(r);
        }
        for col in 0..1000 {
            let expected: Vec<Index> = csc[col as usize].iter().copied().collect();
            assert_eq!(d.column(col), expected, "column {col}");
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn nzc_exact() {
        let d = Dcsc::from_triples(8, 1000, &triples());
        // nonempty columns: 1, 3, 4, 900
        assert_eq!(d.nzc(), 4);
        assert_eq!(d.nnz(), 6); // (0,1) deduped
    }

    #[test]
    fn hypersparse_storage_beats_csc() {
        // 10 nonzeros scattered over a million columns.
        let t: Vec<(Index, Index)> = (0..10).map(|i| (i, i * 99_991)).collect();
        let d = Dcsc::from_triples(16, 1_000_000, &t);
        // Plain CSC holds a pointer per column plus a row id per nonzero.
        let csc = 1_000_001 * size_of::<usize>() + t.len() * size_of::<Index>();
        assert!(
            d.index_bytes() * 10 < csc,
            "DCSC {} bytes vs CSC {csc} bytes",
            d.index_bytes(),
        );
    }

    #[test]
    fn empty_matrix_is_fine() {
        let d = Dcsc::from_triples(4, 4, &[]);
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.nzc(), 0);
        assert!(d.column(2).is_empty());
        d.check_invariants().unwrap();
    }

    #[test]
    fn triples_round_trip() {
        let t = triples();
        let d = Dcsc::from_triples(8, 1000, &t);
        let back: Vec<_> = d.triples().collect();
        let d2 = Dcsc::from_triples(8, 1000, &back);
        assert_eq!(d, d2);
    }

    #[test]
    fn single_column_matrix() {
        let d = Dcsc::from_triples(5, 1, &[(4, 0), (0, 0), (2, 0)]);
        assert_eq!(d.column(0), &[0, 2, 4]);
        assert_eq!(d.nzc(), 1);
    }

    #[test]
    fn dense_column_space() {
        // Every column nonempty: AUX buckets of width 1.
        let t: Vec<(Index, Index)> = (0..64).map(|c| (c % 4, c)).collect();
        let d = Dcsc::from_triples(4, 64, &t);
        for c in 0..64 {
            assert_eq!(d.column(c), &[c % 4]);
        }
    }
}
