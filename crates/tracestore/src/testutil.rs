//! Fixtures the in-crate unit tests share: a scratch directory, one
//! deterministic record stream and a hand-framed segment image.

use crate::codec::encode_block;
use crate::segment::{write_block, write_segment_header};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use vscsi::{IoDirection, Lba, TargetId, VDiskId, VmId};
use vscsi_stats::TraceRecord;

/// A directory under the system temp dir, unique per process, tag and
/// call, removed on drop.
pub(crate) struct TempDir(pub(crate) PathBuf);

impl TempDir {
    pub(crate) fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        let path =
            std::env::temp_dir().join(format!("tracestore-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Record `serial` of the fixture stream: three targets in rotation,
/// reads and writes alternating, 4 KiB commands back to back on the LBA
/// axis, one issue every 500 ns, each completed 250 ns later.
pub(crate) fn rec(serial: u64) -> TraceRecord {
    TraceRecord {
        serial,
        target: TargetId::new(VmId((serial % 3) as u32), VDiskId(0)),
        direction: if serial.is_multiple_of(2) {
            IoDirection::Read
        } else {
            IoDirection::Write
        },
        lba: Lba::new(serial * 8),
        num_sectors: 8,
        issue_ns: 1_000 + serial * 500,
        complete_ns: Some(1_000 + serial * 500 + 250),
        complete_seq: Some(serial + 1),
    }
}

/// A segment image: the header, then one framed block per slice.
pub(crate) fn segment_with_blocks(blocks: &[&[TraceRecord]]) -> Vec<u8> {
    let mut out = Vec::new();
    write_segment_header(&mut out).unwrap();
    for block in blocks {
        let (payload, count) = encode_block(block);
        write_block(&mut out, &payload, count).unwrap();
    }
    out
}
