//! Graph serialization: a compact binary edge-list format and Matrix
//! Market exchange files.
//!
//! The binary format mirrors the Graph 500 convention of streaming
//! generated edge tuples to disk before the (untimed) construction phase:
//!
//! ```text
//! magic   8 bytes  "DMBFSEL1"
//! n       8 bytes  little-endian u64 vertex count
//! m       8 bytes  little-endian u64 edge count
//! edges   m * 16 bytes  (u64 source, u64 target), little endian
//! ```
//!
//! Matrix Market (`%%MatrixMarket matrix coordinate pattern general`) is
//! supported for interchange with the sparse-matrix world the 2D algorithm
//! lives in — adjacency matrices written by this module load in Octave,
//! SciPy, and CombBLAS.

use crate::weighted::{Weight, WeightedEdge};
use crate::{Edge, EdgeList};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"DMBFSEL1";
const MAGIC_WEIGHTED: &[u8; 8] = b"DMBFSWL1";

/// Writes the binary edge-list format to `w`.
pub fn write_binary<W: Write>(el: &EdgeList, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&el.num_vertices.to_le_bytes())?;
    w.write_all(&(el.edges.len() as u64).to_le_bytes())?;
    for &(u, v) in &el.edges {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Cap on the up-front reservation for a record count read from a file:
/// the header is untrusted input, so a corrupt `m` must not turn into a
/// capacity-overflow panic or a failed multi-terabyte allocation before a
/// single record is read. Beyond the cap the vector grows as records
/// actually arrive.
const MAX_RESERVE: u64 = 1 << 20;

/// The shared body of both binary readers: magic, `n`, `m`, then `m`
/// little-endian records of `LEN` bytes, each starting with a `(u64
/// source, u64 target)` pair checked against `n`; `record` builds the
/// element from the endpoints and the record's remaining bytes. A short
/// read is [`io::ErrorKind::UnexpectedEof`] naming the record index and
/// the `m` the header promised.
fn read_records<R: Read, T, const LEN: usize>(
    r: R,
    magic: &[u8; 8],
    format: &str,
    record: impl Fn(u64, u64, &[u8]) -> T,
) -> io::Result<(u64, Vec<T>)> {
    let mut r = BufReader::new(r);
    let truncated = |e: io::Error, what: String| match e.kind() {
        io::ErrorKind::UnexpectedEof => {
            io::Error::new(e.kind(), format!("dmbfs {format} truncated: {what}"))
        }
        _ => e,
    };
    let mut head = [0u8; 24];
    r.read_exact(&mut head)
        .map_err(|e| truncated(e, "shorter than its 24-byte header".into()))?;
    if &head[..8] != magic {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("not a dmbfs {format} (bad magic)"),
        ));
    }
    let [n, m] = [8, 16].map(|at| u64::from_le_bytes(std::array::from_fn(|k| head[at + k])));
    let mut records = Vec::with_capacity(m.min(MAX_RESERVE) as usize);
    let mut rec = [0u8; LEN];
    for i in 0..m {
        r.read_exact(&mut rec).map_err(|e| {
            truncated(
                e,
                format!("file ends inside record {i}, header promised m = {m}"),
            )
        })?;
        let endpoint = |at: usize| u64::from_le_bytes(std::array::from_fn(|k| rec[at + k]));
        let (u, v) = (endpoint(0), endpoint(8));
        if u >= n || v >= n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("edge ({u}, {v}) out of range for n = {n}"),
            ));
        }
        records.push(record(u, v, &rec[16..]));
    }
    Ok((n, records))
}

/// Reads the binary edge-list format from `r`.
pub fn read_binary<R: Read>(r: R) -> io::Result<EdgeList> {
    let (n, edges) = read_records::<_, Edge, 16>(r, MAGIC, "binary edge list", |u, v, _| (u, v))?;
    Ok(EdgeList::new(n, edges))
}

/// Writes to a file path (binary format).
pub fn save_binary<P: AsRef<Path>>(el: &EdgeList, path: P) -> io::Result<()> {
    write_binary(el, std::fs::File::create(path)?)
}

/// Reads from a file path (binary format).
pub fn load_binary<P: AsRef<Path>>(path: P) -> io::Result<EdgeList> {
    read_binary(std::fs::File::open(path)?)
}

/// Writes a weighted edge list: magic `DMBFSWL1`, then `n`, `m`, then
/// `m` little-endian `(u64 source, u64 target, u32 weight)` records.
pub fn write_binary_weighted<W: Write>(
    num_vertices: u64,
    edges: &[WeightedEdge],
    w: W,
) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC_WEIGHTED)?;
    w.write_all(&num_vertices.to_le_bytes())?;
    w.write_all(&(edges.len() as u64).to_le_bytes())?;
    for &(u, v, weight) in edges {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
        w.write_all(&weight.to_le_bytes())?;
    }
    w.flush()
}

/// Reads the weighted binary format, returning `(num_vertices, edges)`.
pub fn read_binary_weighted<R: Read>(r: R) -> io::Result<(u64, Vec<WeightedEdge>)> {
    read_records::<_, WeightedEdge, 20>(r, MAGIC_WEIGHTED, "weighted edge list", |u, v, tail| {
        (
            u,
            v,
            Weight::from_le_bytes(std::array::from_fn(|k| tail[k])),
        )
    })
}

/// Writes the edge list as a Matrix Market coordinate pattern file
/// (1-indexed, one line per stored edge).
pub fn write_matrix_market<W: Write>(el: &EdgeList, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(w, "% generated by dmbfs")?;
    writeln!(
        w,
        "{} {} {}",
        el.num_vertices,
        el.num_vertices,
        el.edges.len()
    )?;
    for &(u, v) in &el.edges {
        // Matrix convention: entry (row, col) = (target, source) so that
        // A^T x pushes along out-edges, matching the 2D algorithm's
        // pre-transposed storage (§3.2).
        writeln!(w, "{} {}", v + 1, u + 1)?;
    }
    w.flush()
}

/// Reads a Matrix Market coordinate file (pattern or real entries; values
/// are ignored) into an edge list, converting 1-indexed `(row, col)` back
/// to `(source, target) = (col−1, row−1)`.
pub fn read_matrix_market<R: Read>(r: R) -> io::Result<EdgeList> {
    let r = BufReader::new(r);
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut lines = r.lines();
    let header = lines.next().ok_or_else(|| bad("empty file"))??;
    if !header.starts_with("%%MatrixMarket matrix coordinate") {
        return Err(bad("not a MatrixMarket coordinate file"));
    }
    let mut dims: Option<(u64, u64, u64)> = None;
    let mut edges: Vec<Edge> = Vec::new();
    for line in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        match dims {
            None => {
                let rows: u64 = it
                    .next()
                    .ok_or_else(|| bad("bad size line"))?
                    .parse()
                    .map_err(|_| bad("bad size line"))?;
                let cols: u64 = it
                    .next()
                    .ok_or_else(|| bad("bad size line"))?
                    .parse()
                    .map_err(|_| bad("bad size line"))?;
                let nnz: u64 = it
                    .next()
                    .ok_or_else(|| bad("bad size line"))?
                    .parse()
                    .map_err(|_| bad("bad size line"))?;
                if rows != cols {
                    return Err(bad("adjacency matrices must be square"));
                }
                dims = Some((rows, cols, nnz));
                edges.reserve(nnz.min(MAX_RESERVE) as usize);
            }
            Some((rows, _, _)) => {
                let row: u64 = it
                    .next()
                    .ok_or_else(|| bad("bad entry line"))?
                    .parse()
                    .map_err(|_| bad("bad entry line"))?;
                let col: u64 = it
                    .next()
                    .ok_or_else(|| bad("bad entry line"))?
                    .parse()
                    .map_err(|_| bad("bad entry line"))?;
                if row == 0 || col == 0 || row > rows || col > rows {
                    return Err(bad("entry out of range (MatrixMarket is 1-indexed)"));
                }
                edges.push((col - 1, row - 1));
            }
        }
    }
    let (n, _, nnz) = dims.ok_or_else(|| bad("missing size line"))?;
    if edges.len() as u64 != nnz {
        return Err(bad("entry count does not match header"));
    }
    Ok(EdgeList::new(n, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, RmatConfig};

    fn sample() -> EdgeList {
        let mut el = rmat(&RmatConfig::graph500(7, 3));
        el.canonicalize_undirected();
        el
    }

    #[test]
    fn binary_round_trip() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(el, back);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTMAGIC\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn binary_rejects_out_of_range_edges() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u64.to_le_bytes()); // n = 2
        buf.extend_from_slice(&1u64.to_le_bytes()); // m = 1
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&9u64.to_le_bytes()); // target 9 >= n
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        assert!(read_binary(buf.as_slice()).is_err());
    }

    /// Both binary formats, each as a valid 3-record file plus its reader
    /// reduced to "did it fail, and how".
    type ReadErr = fn(&[u8]) -> io::Error;
    fn both_formats() -> [(Vec<u8>, ReadErr); 2] {
        let mut plain = Vec::new();
        write_binary(&EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]), &mut plain).unwrap();
        let mut weighted = Vec::new();
        write_binary_weighted(4, &[(0, 1, 5), (1, 2, 6), (2, 3, 7)], &mut weighted).unwrap();
        [
            (plain, |b| read_binary(b).unwrap_err()),
            (weighted, |b| read_binary_weighted(b).unwrap_err()),
        ]
    }

    #[test]
    fn corrupt_record_count_is_an_error_not_an_abort() {
        for (mut file, read_err) in both_formats() {
            // Header only, `m = u64::MAX`: this used to reach
            // `Vec::with_capacity` unchecked.
            file.truncate(24);
            file[16..].copy_from_slice(&u64::MAX.to_le_bytes());
            let err = read_err(&file);
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            let msg = err.to_string();
            assert!(
                msg.contains("record 0") && msg.contains(&u64::MAX.to_string()),
                "{msg}"
            );
            // A header cut short is the same kind of error.
            assert_eq!(read_err(&file[..20]).kind(), io::ErrorKind::UnexpectedEof);
        }
        // Matrix Market's size line is outside input too.
        let mm = format!(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 {}\n1 2\n",
            u64::MAX
        );
        assert!(read_matrix_market(mm.as_bytes()).is_err());
    }

    #[test]
    fn truncation_mid_record_names_the_record_and_the_promised_count() {
        for (file, read_err) in both_formats() {
            let err = read_err(&file[..file.len() - 7]); // inside record 2
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            let msg = err.to_string();
            assert!(msg.contains("record 2") && msg.contains("m = 3"), "{msg}");
        }
    }

    #[test]
    fn matrix_market_round_trip() {
        let el = sample();
        let mut buf = Vec::new();
        write_matrix_market(&el, &mut buf).unwrap();
        let mut back = read_matrix_market(buf.as_slice()).unwrap();
        let mut orig = el.clone();
        back.dedup();
        orig.dedup();
        assert_eq!(orig, back);
    }

    #[test]
    fn matrix_market_rejects_garbage() {
        assert!(read_matrix_market(&b"hello world"[..]).is_err());
        assert!(read_matrix_market(
            &b"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n0 1\n"[..]
        )
        .is_err()); // 0 is out of range in 1-indexed format
        assert!(read_matrix_market(
            &b"%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 1\n"[..]
        )
        .is_err()); // count mismatch
    }

    #[test]
    fn file_round_trip() {
        let el = sample();
        let dir = std::env::temp_dir().join("dmbfs-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.bin");
        save_binary(&el, &path).unwrap();
        let back = load_binary(&path).unwrap();
        assert_eq!(el, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn weighted_binary_round_trip() {
        use crate::weighted::attach_uniform_weights;
        let el = sample();
        let edges = attach_uniform_weights(&el, 9, 5);
        let mut buf = Vec::new();
        write_binary_weighted(el.num_vertices, &edges, &mut buf).unwrap();
        let (n, back) = read_binary_weighted(buf.as_slice()).unwrap();
        assert_eq!(n, el.num_vertices);
        assert_eq!(back, edges);
    }

    #[test]
    fn weighted_binary_rejects_plain_format() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        assert!(read_binary_weighted(buf.as_slice()).is_err());
    }

    #[test]
    fn empty_edge_list_round_trips() {
        let el = EdgeList::new(5, vec![]);
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), el);
    }
}
