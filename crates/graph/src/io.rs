//! Graph serialisation: text edge lists (SNAP style) and a compact binary
//! format for fast reloading of generated benchmark graphs.

use crate::{builder, Graph};
use pcd_util::{PcdError, VertexId, Weight};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Largest vertex id a reader accepts. `u32::MAX` itself is reserved for
/// the [`pcd_util::NO_VERTEX`] sentinel, and `nv = max id + 1` must still
/// fit `u32`, so ids above this are rejected instead of being silently
/// truncated.
pub const MAX_VERTEX_ID: u64 = u32::MAX as u64 - 1;

/// Reads a whitespace-separated edge list: one `i j [w]` per line; `#` or
/// `%` lines are comments. Vertices are the ids as written; `nv` becomes
/// `max id + 1`.
///
/// Untrusted input: ids above [`MAX_VERTEX_ID`] and weights that would
/// overflow the graph's total-weight accumulator return line-numbered
/// errors; nothing in this path panics.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, PcdError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
    let mut max_id: u32 = 0;
    let mut total: Weight = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>, what: &str| -> Result<u64, PcdError> {
            s.ok_or_else(|| PcdError::parse_at(lineno, format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|_| PcdError::parse_at(lineno, format!("unparsable {what}")))
        };
        let id = |raw: u64, what: &str| -> Result<VertexId, PcdError> {
            if raw > MAX_VERTEX_ID {
                Err(PcdError::parse_at(
                    lineno,
                    format!("{what} id {raw} exceeds the maximum {MAX_VERTEX_ID}"),
                ))
            } else {
                Ok(raw as VertexId)
            }
        };
        let i = id(parse(it.next(), "source")?, "source")?;
        let j = id(parse(it.next(), "target")?, "target")?;
        let w = match it.next() {
            Some(s) => s
                .parse::<u64>()
                .map_err(|_| PcdError::parse_at(lineno, "unparsable weight"))?,
            None => 1,
        };
        total = total.checked_add(w).ok_or_else(|| {
            PcdError::parse_at(lineno, "total weight overflows the u64 accumulator")
        })?;
        max_id = max_id.max(i).max(j);
        edges.push((i, j, w));
    }
    let nv = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    builder::try_from_edges(nv, edges)
}

/// Writes the graph as a weighted edge list (self-loops as `v v w`).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {} edges {}", g.num_vertices(), g.num_edges())?;
    for (i, j, wt) in g.edges() {
        writeln!(w, "{i} {j} {wt}")?;
    }
    for v in 0..g.num_vertices() as u32 {
        let s = g.self_loop(v);
        if s > 0 {
            writeln!(w, "{v} {v} {s}")?;
        }
    }
    w.flush()
}

const BIN_MAGIC: &[u8; 8] = b"PCDGRPH1";

/// Writes the compact binary format: magic, `nv`, `ne`, then the raw
/// `src`/`dst` (u32 LE) and `weight`/`self_loop` (u64 LE) arrays. Bucket
/// structure is rebuilt on load.
pub fn write_binary<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(BIN_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for &x in g.srcs() {
        w.write_all(&x.to_le_bytes())?;
    }
    for &x in g.dsts() {
        w.write_all(&x.to_le_bytes())?;
    }
    for &x in g.weights() {
        w.write_all(&x.to_le_bytes())?;
    }
    for &x in g.self_loops() {
        w.write_all(&x.to_le_bytes())?;
    }
    w.flush()
}

/// Reads the binary format written by [`write_binary`].
///
/// Generic readers have no length oracle, so the body is read
/// incrementally and a truncated stream surfaces as an error rather than
/// an over-allocation. When the total size *is* known (files — see
/// [`load`]), use [`read_binary_limited`], which cross-checks the header
/// against the real length before reading the body.
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, PcdError> {
    read_binary_limited(reader, None)
}

/// Bytes per edge in the binary body: `src` + `dst` (u32) and weight (u64).
const BIN_EDGE_BYTES: u64 = 4 + 4 + 8;
/// Bytes of magic + `nv` + `ne` preamble.
const BIN_PREAMBLE_BYTES: u64 = 8 + 8 + 8;

/// As [`read_binary`], with the total input length (including magic and
/// header) when known. A header whose `nv`/`ne` disagree with the
/// available bytes is rejected *before* any allocation, so a corrupt or
/// truncated `.bin` cannot trigger a multi-GB allocation attempt.
pub fn read_binary_limited<R: Read>(
    reader: R,
    available_bytes: Option<u64>,
) -> Result<Graph, PcdError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(PcdError::corrupt("bad magic"));
    }
    let nv = read_u64(&mut r)? as usize;
    let ne = read_u64(&mut r)? as usize;
    // Untrusted sizes: refuse anything that cannot fit u32 vertex ids
    // before allocating (a corrupt header must not trigger OOM).
    if nv > u32::MAX as usize || ne > (u32::MAX as usize) * 8 {
        return Err(PcdError::corrupt(format!(
            "implausible header sizes nv={nv} ne={ne}"
        )));
    }
    let need = (ne as u64)
        .checked_mul(BIN_EDGE_BYTES)
        .and_then(|b| b.checked_add((nv as u64).checked_mul(8)?))
        .ok_or_else(|| PcdError::corrupt("header sizes overflow the byte count"))?;
    if let Some(avail) = available_bytes {
        let body = avail.saturating_sub(BIN_PREAMBLE_BYTES);
        if need != body {
            return Err(PcdError::corrupt(format!(
                "header declares nv={nv} ne={ne} ({need} body bytes) but input has {body}"
            )));
        }
    }
    // Grow buffers only as data actually arrives, so a corrupt header
    // cannot force a huge upfront allocation even without a length oracle.
    let mut edges = Vec::new();
    let mut src = Vec::new();
    for _ in 0..ne {
        src.push(read_u32(&mut r)?);
    }
    let mut dst = Vec::new();
    for _ in 0..ne {
        dst.push(read_u32(&mut r)?);
    }
    for e in 0..ne {
        let (i, j) = (src[e], dst[e]);
        if i as usize >= nv || j as usize >= nv {
            return Err(PcdError::corrupt(format!(
                "edge {e} endpoint ({i}, {j}) out of range for {nv} vertices"
            )));
        }
        edges.push((i, j, read_u64(&mut r)?));
    }
    for v in 0..nv {
        let s = read_u64(&mut r)?;
        if s > 0 {
            edges.push((v as u32, v as u32, s));
        }
    }
    builder::try_from_edges(nv, edges)
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Writes the METIS / DIMACS-challenge graph format: a header
/// `nv ne fmt` with `fmt = 1` (edge weights), then one line per vertex
/// listing `neighbour weight` pairs with 1-based vertex ids. Self-loop
/// weights cannot be represented and are rejected.
pub fn write_metis<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    if g.self_loops().iter().any(|&s| s > 0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "METIS format cannot represent self-loops",
        ));
    }
    let csr = crate::Csr::from_graph(g);
    let mut w = BufWriter::new(writer);
    writeln!(w, "{} {} 1", g.num_vertices(), g.num_edges())?;
    for v in 0..g.num_vertices() as u32 {
        let mut first = true;
        for (u, wt) in csr.neighbors(v) {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{} {}", u + 1, wt)?;
            first = false;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Reads the METIS / DIMACS-challenge format (fmt codes 0 = unweighted
/// and 1/001 = edge-weighted are supported).
pub fn read_metis<R: Read>(reader: R) -> Result<Graph, PcdError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate().filter_map(|(n, l)| match l {
        Ok(s) => {
            let t = s.trim().to_string();
            if t.is_empty() || t.starts_with('%') {
                None
            } else {
                Some(Ok((n, t)))
            }
        }
        Err(e) => Some(Err(e)),
    });
    let (hline, header) = lines
        .next()
        .ok_or_else(|| PcdError::corrupt("empty METIS file"))??;
    let mut parts = header.split_whitespace();
    let nv: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| PcdError::parse_at(hline, "bad vertex count"))?;
    let ne: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| PcdError::parse_at(hline, "bad edge count"))?;
    if nv as u64 > MAX_VERTEX_ID + 1 {
        return Err(PcdError::parse_at(
            hline,
            format!("vertex count {nv} exceeds the u32 id space"),
        ));
    }
    let fmt = parts.next().unwrap_or("0");
    let weighted = matches!(fmt, "1" | "001" | "011");
    if matches!(fmt, "10" | "11" | "010" | "110" | "111") {
        return Err(PcdError::corrupt("METIS vertex weights are not supported"));
    }

    // `ne` is untrusted: cap the pre-allocation, the vector grows as real
    // data arrives.
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::with_capacity(ne.min(1 << 20));
    let mut total: Weight = 0;
    for (v, item) in (0u32..).zip(lines) {
        let (lineno, line) = item?;
        if v as usize >= nv {
            return Err(PcdError::parse_at(
                lineno,
                "more vertex lines than the header declares",
            ));
        }
        let mut it = line.split_whitespace();
        while let Some(tok) = it.next() {
            let u: u64 = tok
                .parse()
                .map_err(|_| PcdError::parse_at(lineno, "bad neighbour id"))?;
            if u == 0 || u as usize > nv {
                return Err(PcdError::parse_at(lineno, "neighbour id out of range"));
            }
            let wt: u64 = if weighted {
                it.next()
                    .ok_or_else(|| PcdError::parse_at(lineno, "missing edge weight"))?
                    .parse()
                    .map_err(|_| PcdError::parse_at(lineno, "bad edge weight"))?
            } else {
                1
            };
            let u = (u - 1) as u32;
            // Each edge appears in both endpoints' lines; keep one copy.
            if v <= u {
                total = total.checked_add(wt).ok_or_else(|| {
                    PcdError::parse_at(lineno, "total weight overflows the u64 accumulator")
                })?;
                edges.push((v, u, wt));
            }
        }
    }
    builder::try_from_edges(nv, edges)
}

/// Convenience: loads a graph from a path, dispatching on extension
/// (`.bin` → binary, `.metis`/`.graph` → METIS, anything else → edge
/// list). Binary reads are validated against the file's real length.
pub fn load(path: &Path) -> Result<Graph, PcdError> {
    let f = std::fs::File::open(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => {
            let len = f.metadata().ok().map(|m| m.len());
            read_binary_limited(f, len)
        }
        Some("metis") | Some("graph") => read_metis(f),
        _ => read_edge_list(f),
    }
}

/// Convenience: saves a graph to a path (same dispatch as [`load`]).
pub fn save(g: &Graph, path: &Path) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => write_binary(g, f),
        Some("metis") | Some("graph") => write_metis(g, f),
        _ => write_edge_list(g, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> Graph {
        GraphBuilder::new(4)
            .add_edge(0, 1, 2)
            .add_edge(1, 2, 1)
            .add_edge(2, 3, 3)
            .add_self_loop(0, 4)
            .build()
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.total_weight(), g.total_weight());
        assert_eq!(g2.self_loops(), g.self_loops());
    }

    #[test]
    fn binary_roundtrip_exact() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g2.srcs(), g.srcs());
        assert_eq!(g2.dsts(), g.dsts());
        assert_eq!(g2.weights(), g.weights());
        assert_eq!(g2.self_loops(), g.self_loops());
    }

    #[test]
    fn comments_and_default_weight() {
        let text = "# a comment\n% another\n0 1\n1 2 5\n\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.total_weight(), 6);
    }

    #[test]
    fn duplicate_lines_accumulate() {
        let text = "0 1\n1 0\n0 1 3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.total_weight(), 5);
    }

    #[test]
    fn malformed_line_errors() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 potato\n".as_bytes()).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTMAGIC________".to_vec();
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn oversize_vertex_id_rejected_with_line() {
        let text = format!("0 1\n{} 1\n", u32::MAX as u64);
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("exceeds"), "{err}");
        // The largest accepted id is MAX_VERTEX_ID == u32::MAX - 1; an id
        // one beyond (== NO_VERTEX) must fail, one below is parseable.
        assert!(read_edge_list(format!("{} 1\n", MAX_VERTEX_ID + 1).as_bytes()).is_err());
    }

    #[test]
    fn weight_overflow_rejected_with_line() {
        let text = format!("0 1 {}\n1 2 2\n", u64::MAX);
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn binary_header_checked_against_length() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // With the true length the read succeeds.
        assert!(read_binary_limited(&buf[..], Some(buf.len() as u64)).is_ok());
        // Lie about the header's edge count: rejected before any body read.
        let mut lying = buf.clone();
        lying[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_binary_limited(&lying[..], Some(lying.len() as u64)).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
        // A merely-too-large (but plausible) count is caught by the length
        // cross-check.
        let mut padded = buf.clone();
        padded[16..24].copy_from_slice(&1000u64.to_le_bytes());
        let err = read_binary_limited(&padded[..], Some(padded.len() as u64)).unwrap_err();
        assert!(err.to_string().contains("but input has"), "{err}");
    }

    #[test]
    fn truncated_binary_rejected() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        for cut in 0..buf.len() {
            let r = read_binary(&buf[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes unexpectedly parsed");
            let r = read_binary_limited(&buf[..cut], Some(cut as u64));
            assert!(
                r.is_err(),
                "limited prefix of {cut} bytes unexpectedly parsed"
            );
        }
    }

    #[test]
    fn binary_out_of_range_endpoint_rejected() {
        // nv = 2, ne = 1, edge (7, 9): endpoints beyond nv must error, not
        // panic in the builder.
        let mut buf = Vec::new();
        buf.extend_from_slice(BIN_MAGIC);
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&9u32.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn metis_roundtrip() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 2)
            .add_edge(1, 2, 1)
            .add_edge(2, 3, 3)
            .build();
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("4 3 1"), "{text}");
        let g2 = read_metis(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), 4);
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(g2.total_weight(), g.total_weight());
    }

    #[test]
    fn metis_unweighted_read() {
        let text = "% comment\n3 2\n2\n1 3\n2\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.total_weight(), 2);
    }

    #[test]
    fn metis_rejects_self_loops_on_write() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1, 1)
            .add_self_loop(0, 1)
            .build();
        let mut buf = Vec::new();
        assert!(write_metis(&g, &mut buf).is_err());
    }

    #[test]
    fn metis_rejects_vertex_weights() {
        let text = "2 1 11\n1 1 2 1\n1 1 1\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn metis_out_of_range_neighbour() {
        let text = "2 1\n3\n\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn empty_edge_list() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
