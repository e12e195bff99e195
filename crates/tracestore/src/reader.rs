//! Reading traces back: single segment files or whole store directories,
//! with per-file integrity reporting instead of panics.

use crate::segment::{read_segment, SegmentIntegrity, SEGMENT_EXTENSION};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use vscsi_stats::TraceRecord;

/// Per-file integrity stats for everything a read touched.
#[derive(Debug, Clone, Default)]
pub struct IntegrityReport {
    /// One entry per segment file, in read order.
    pub files: Vec<(PathBuf, SegmentIntegrity)>,
}

impl IntegrityReport {
    /// All files' stats folded together.
    pub fn aggregate(&self) -> SegmentIntegrity {
        let mut total = SegmentIntegrity::default();
        for (_, integrity) in &self.files {
            total.merge(integrity);
        }
        total
    }

    /// Whether every file read back fully intact.
    pub fn is_clean(&self) -> bool {
        self.files.iter().all(|(_, i)| i.is_clean())
    }
}

impl fmt::Display for IntegrityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (path, integrity) in &self.files {
            writeln!(f, "{}: {integrity}", path.display())?;
        }
        if self.files.len() > 1 {
            writeln!(f, "total: {}", self.aggregate())?;
        }
        Ok(())
    }
}

/// Lists a store directory's `*.vseg` segment files in name order — the
/// order the writer created them in, which every reader and the query
/// engine treat as the canonical record order.
///
/// # Errors
///
/// I/O failures, or a directory containing no segment files.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXTENSION))
        .collect();
    segments.sort();
    if segments.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no .{SEGMENT_EXTENSION} segments in {}", dir.display()),
        ));
    }
    Ok(segments)
}

/// Reads a trace from `path`: either one segment file, or a store
/// directory whose `*.vseg` files are read in name order (the order the
/// writer created them in).
///
/// Damage inside segments is *not* an error — corrupt blocks are skipped
/// and truncated tails recovered, with the particulars in the returned
/// [`IntegrityReport`].
///
/// # Errors
///
/// I/O failures, a directory containing no segment files, or a file that
/// was never a tracestore segment.
pub fn read_trace(path: &Path) -> io::Result<(Vec<TraceRecord>, IntegrityReport)> {
    let mut report = IntegrityReport::default();
    let mut records = Vec::new();
    if path.is_dir() {
        for segment in list_segments(path)? {
            let (mut segment_records, integrity) = read_segment(&segment)?;
            records.append(&mut segment_records);
            report.files.push((segment, integrity));
        }
    } else {
        let (segment_records, integrity) = read_segment(path)?;
        records = segment_records;
        report.files.push((path.to_path_buf(), integrity));
    }
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{rec, segment_with_blocks, TempDir};
    use std::fs;

    fn write_segment_file(path: &Path, records: &[TraceRecord]) {
        fs::write(path, segment_with_blocks(&[records])).unwrap();
    }

    #[test]
    fn directory_read_is_name_ordered() {
        let dir = TempDir::new("order");
        let a: Vec<TraceRecord> = (0..5).map(rec).collect();
        let b: Vec<TraceRecord> = (5..9).map(rec).collect();
        // Write out of order; name sort must restore it.
        write_segment_file(&dir.0.join("trace-00001.vseg"), &b);
        write_segment_file(&dir.0.join("trace-00000.vseg"), &a);
        fs::write(dir.0.join("notes.txt"), "ignored").unwrap();
        let (records, report) = read_trace(&dir.0).unwrap();
        let mut expected = a;
        expected.extend(b);
        assert_eq!(records, expected);
        assert_eq!(report.files.len(), 2);
        assert!(report.is_clean());
        assert_eq!(report.aggregate().records_recovered, 9);
    }

    #[test]
    fn single_file_read() {
        let dir = TempDir::new("single");
        let a: Vec<TraceRecord> = (0..3).map(rec).collect();
        let path = dir.0.join("only.vseg");
        write_segment_file(&path, &a);
        let (records, report) = read_trace(&path).unwrap();
        assert_eq!(records, a);
        assert_eq!(report.files.len(), 1);
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = TempDir::new("empty");
        let err = read_trace(&dir.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn non_segment_file_is_invalid_data() {
        let dir = TempDir::new("garbage");
        let path = dir.0.join("bogus.vseg");
        fs::write(&path, b"definitely not a segment").unwrap();
        let err = read_trace(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn display_lists_per_file_lines() {
        let dir = TempDir::new("display");
        let a: Vec<TraceRecord> = (0..2).map(rec).collect();
        write_segment_file(&dir.0.join("trace-00000.vseg"), &a);
        write_segment_file(&dir.0.join("trace-00001.vseg"), &a);
        let (_, report) = read_trace(&dir.0).unwrap();
        let text = report.to_string();
        assert!(text.contains("trace-00000.vseg"));
        assert!(text.contains("total:"));
    }
}
