//! Plain-text edge-list I/O, for users who want to bring real graphs.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A line did not parse as an edge.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses a whitespace-separated `dst src` edge list. Lines starting with
/// `#` or `%` are comments. Node count is `1 + max id` unless a larger
/// `min_nodes` is given.
pub fn read_edge_list<R: Read>(reader: R, min_nodes: usize) -> Result<CsrGraph, IoError> {
    let br = BufReader::new(reader);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_id: usize = 0;
    for (i, line) in br.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |tok: Option<&str>, i: usize| -> Result<NodeId, IoError> {
            tok.ok_or_else(|| IoError::Parse { line: i + 1, reason: "missing field".into() })?
                .parse::<NodeId>()
                .map_err(|e| IoError::Parse { line: i + 1, reason: e.to_string() })
        };
        let d = parse(it.next(), i)?;
        let s = parse(it.next(), i)?;
        max_id = max_id.max(d as usize).max(s as usize);
        edges.push((d, s));
    }
    let n = min_nodes.max(if edges.is_empty() { 0 } else { max_id + 1 });
    let mut b = GraphBuilder::new(n);
    b.extend(edges);
    Ok(b.build())
}

/// Writes the graph as a `dst src` edge list.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, writer: W) -> Result<(), IoError> {
    let mut bw = BufWriter::new(writer);
    writeln!(bw, "# {} nodes, {} edges", graph.num_nodes(), graph.num_edges())?;
    for v in 0..graph.num_nodes() as NodeId {
        for &u in graph.neighbors(v) {
            writeln!(bw, "{v} {u}")?;
        }
    }
    bw.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::ring;

    #[test]
    fn roundtrip() {
        let g = ring(6);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..], 0).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n% other comment\n0 1\n1 0\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn min_nodes_pads() {
        let g = read_edge_list("0 1\n".as_bytes(), 10).unwrap();
        assert_eq!(g.num_nodes(), 10);
    }

    #[test]
    fn bad_token_reports_line() {
        let err = read_edge_list("0 1\nxyz 3\n".as_bytes(), 0).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn missing_field_is_error() {
        assert!(read_edge_list("42\n".as_bytes(), 0).is_err());
    }
}

/// Magic bytes of the binary CSR format.
const CSR_MAGIC: &[u8; 8] = b"MGGCSR1\0";

/// Writes the graph in a compact binary CSR format (little-endian):
/// magic, node count, edge count, row pointers, column indices.
pub fn write_csr_binary<W: Write>(graph: &CsrGraph, writer: W) -> Result<(), IoError> {
    let mut bw = BufWriter::new(writer);
    bw.write_all(CSR_MAGIC)?;
    bw.write_all(&(graph.num_nodes() as u64).to_le_bytes())?;
    bw.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    for &p in graph.row_ptr() {
        bw.write_all(&p.to_le_bytes())?;
    }
    for &c in graph.col_idx() {
        bw.write_all(&c.to_le_bytes())?;
    }
    bw.flush()?;
    Ok(())
}

/// Reads a graph written by [`write_csr_binary`].
pub fn read_csr_binary<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let mut br = BufReader::new(reader);
    let bad = |reason: &str| IoError::Parse { line: 0, reason: reason.into() };
    let mut magic = [0u8; 8];
    br.read_exact(&mut magic)?;
    if &magic != CSR_MAGIC {
        return Err(bad("bad magic: not an MGG binary CSR file"));
    }
    let mut u64buf = [0u8; 8];
    br.read_exact(&mut u64buf)?;
    let n = u64::from_le_bytes(u64buf) as usize;
    br.read_exact(&mut u64buf)?;
    let m = u64::from_le_bytes(u64buf) as usize;
    // Guard against absurd headers before allocating.
    if n > (1 << 33) || m > (1 << 40) {
        return Err(bad("header sizes out of range"));
    }
    let mut row_ptr = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        br.read_exact(&mut u64buf)?;
        row_ptr.push(u64::from_le_bytes(u64buf));
    }
    let mut u32buf = [0u8; 4];
    let mut col_idx = Vec::with_capacity(m);
    for _ in 0..m {
        br.read_exact(&mut u32buf)?;
        col_idx.push(NodeId::from_le_bytes(u32buf));
    }
    // Validate invariants through the checked constructor.
    if row_ptr.first() != Some(&0)
        || row_ptr.last() != Some(&(m as u64))
        || row_ptr.windows(2).any(|w| w[0] > w[1])
        || col_idx.iter().any(|&c| (c as usize) >= n.max(1))
    {
        return Err(bad("corrupt CSR arrays"));
    }
    Ok(CsrGraph::from_raw(row_ptr, col_idx))
}

#[cfg(test)]
mod binary_tests {
    use super::*;
    use crate::generators::rmat::{rmat, RmatConfig};

    #[test]
    fn binary_roundtrip() {
        let g = rmat(&RmatConfig::graph500(8, 2_000, 7));
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        let h = read_csr_binary(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        let g = rmat(&RmatConfig::graph500(9, 4_000, 9));
        let mut bin = Vec::new();
        write_csr_binary(&g, &mut bin).unwrap();
        let mut txt = Vec::new();
        write_edge_list(&g, &mut txt).unwrap();
        assert!(bin.len() < txt.len());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_csr_binary(&b"NOTMAGIC\0\0\0\0"[..]).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn rejects_truncated_file() {
        let g = crate::generators::regular::ring(5);
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_csr_binary(&buf[..]).is_err());
    }

    #[test]
    fn rejects_corrupt_row_ptr() {
        let g = crate::generators::regular::ring(5);
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        // Corrupt a row pointer (bytes after magic + 2 u64 header words).
        buf[8 + 16 + 9] = 0xFF;
        assert!(read_csr_binary(&buf[..]).is_err());
    }
}
