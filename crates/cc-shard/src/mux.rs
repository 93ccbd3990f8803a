//! The ordered writer: merges pre-encoded byte chunks into one
//! deterministic stream, in chunk-index order.

use std::io::{self, Write};
use std::sync::mpsc::Receiver;

/// Drains `rx` until every sender is gone, writing pre-encoded byte chunks
/// to `out` in chunk-index order.
///
/// This is the one JSONL writer: the intra-run parallel pipeline's encoder
/// workers deliver one chunk per window batch, and
/// [`run_sharded_jsonl`](crate::run_sharded_jsonl) delivers one chunk per
/// shard (indexed by shard id). Producers race and deliver `(index, bytes)`
/// pairs in whatever order they finish; this function holds out-of-order
/// chunks in a pending map and writes each the moment its index becomes
/// the next expected one. Indices must be dense (0, 1, 2, …) and unique;
/// the output is then a deterministic function of the chunk contents, not
/// of thread scheduling. If a gap never fills (a worker died), everything
/// after the gap is still written, in index order, before returning.
///
/// Returns the writer and the number of chunks written.
pub fn mux_chunks<W: Write>(rx: Receiver<(u64, Vec<u8>)>, mut out: W) -> io::Result<(W, u64)> {
    let mut pending: std::collections::BTreeMap<u64, Vec<u8>> = std::collections::BTreeMap::new();
    let mut next = 0u64;
    let mut written = 0u64;
    for (index, chunk) in rx {
        if index == next {
            out.write_all(&chunk)?;
            written += 1;
            next += 1;
            while let Some(ready) = pending.remove(&next) {
                out.write_all(&ready)?;
                written += 1;
                next += 1;
            }
        } else {
            pending.insert(index, chunk);
        }
    }
    // Defensive: a dead encoder left a gap. Emit the stragglers in index
    // order so the tail of the stream survives for post-mortems.
    for (_, chunk) in pending {
        out.write_all(&chunk)?;
        written += 1;
    }
    out.flush()?;
    Ok((out, written))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    #[test]
    fn chunk_mux_reorders_by_index() {
        let (tx, rx) = sync_channel::<(u64, Vec<u8>)>(16);
        // Encoder workers finish out of order.
        for index in [2u64, 0, 3, 1] {
            tx.send((index, format!("chunk{index};").into_bytes()))
                .unwrap();
        }
        drop(tx);
        let (bytes, written) = mux_chunks(rx, Vec::new()).unwrap();
        assert_eq!(written, 4);
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "chunk0;chunk1;chunk2;chunk3;"
        );
    }

    #[test]
    fn chunk_mux_flushes_past_a_gap() {
        let (tx, rx) = sync_channel::<(u64, Vec<u8>)>(16);
        // Index 1 never arrives (its encoder died).
        tx.send((0, b"a".to_vec())).unwrap();
        tx.send((2, b"c".to_vec())).unwrap();
        tx.send((3, b"d".to_vec())).unwrap();
        drop(tx);
        let (bytes, written) = mux_chunks(rx, Vec::new()).unwrap();
        assert_eq!(written, 3);
        assert_eq!(&bytes, b"acd");
    }
}
