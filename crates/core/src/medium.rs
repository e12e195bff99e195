//! The one durable-file seam: how a file reaches stable storage.
//!
//! Every plane that persists bytes — `VSCKPT2` checkpoints
//! ([`checkpoint`](crate::checkpoint)), `tracestore`'s `VSTRSEG1` segments
//! and `VSTRIDX1` sidecars — creates, syncs and renames files through a
//! [`Medium`]. [`FsMedium`] is the real filesystem; `faultkit` wraps any
//! medium to inject torn writes, dropped fsyncs, read errors and rename
//! reordering, so one fault layer covers every plane.
//!
//! [`publish_atomic`] is the only place the workspace spells the classic
//! atomic-replace protocol: stage at a `.tmp` sibling, `fsync`, `rename`
//! over the final name. A crash at any point leaves either the previous
//! file (or none) or the complete new one, plus at worst a `.tmp` orphan
//! that readers ignore.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// How a fault-injecting medium classifies a write it silently sabotaged.
/// Purely an *accounting* channel: the sabotage itself (truncated bytes,
/// no-op fsync) is invisible at the I/O level, exactly as on real broken
/// storage, but a ledger such as
/// [`CheckpointLedger`](crate::CheckpointLedger) can still partition every
/// attempt honestly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteTaint {
    /// Some of the written bytes never reached the file (torn/short
    /// write).
    Torn,
    /// `sync_all` reported success without durably flushing.
    FsyncDropped,
}

/// One open file being written through a [`Medium`].
pub trait MediumFile: Write + Send {
    /// Forces everything written so far to stable storage (flush, then
    /// `File::sync_all`, on the real medium).
    fn sync_all(&mut self) -> io::Result<()>;

    /// For fault-injecting media only: whether this handle silently
    /// sabotaged the write, and how. The filesystem medium returns `None`.
    fn taint(&self) -> Option<WriteTaint> {
        None
    }
}

/// The storage seam durable files are written and read back through.
/// Only [`Medium::create`] is required; the rest default to the real
/// filesystem, so a test double that misbehaves on writes implements one
/// method. Every operation propagates the medium's own I/O error.
pub trait Medium: Send {
    /// Creates (truncating) a file for writing.
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn MediumFile>>;

    /// Atomically replaces `to` with `from` — the commit step of
    /// [`publish_atomic`].
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    /// Reads an entire file.
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    /// Lists the files in a directory (any order; callers sort).
    fn list(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect()
    }

    /// Removes a file (retention trimming; best-effort at call sites).
    fn remove(&mut self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

impl fmt::Debug for dyn Medium {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("dyn Medium")
    }
}

/// The real filesystem medium: buffered files whose `sync_all` flushes
/// the buffer before the fsync. A single write at least as large as the
/// buffer (a busy service's checkpoint) goes straight to the file.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsMedium;

struct FsFile(BufWriter<File>);

impl Write for FsFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl MediumFile for FsFile {
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.flush()?;
        self.0.get_ref().sync_all()
    }
}

impl Medium for FsMedium {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn MediumFile>> {
        Ok(Box::new(FsFile(BufWriter::new(File::create(path)?))))
    }
}

/// Publishes `bytes` at `final_path` atomically and durably: create
/// `tmp` → `write_all` → `flush` → `sync_all` → close → `rename`. Returns
/// the handle's [`WriteTaint`] (always `None` on the real filesystem) so a
/// caller keeping a ledger can book a silently sabotaged write; callers
/// without one ignore it and rely on the file's own CRC. On error
/// `final_path` is untouched and `tmp` may be left behind as an orphan.
pub fn publish_atomic(
    medium: &mut dyn Medium,
    tmp: &Path,
    final_path: &Path,
    bytes: &[u8],
) -> io::Result<Option<WriteTaint>> {
    let mut file = medium.create(tmp)?;
    file.write_all(bytes)?;
    file.flush()?;
    file.sync_all()?;
    let taint = file.taint();
    drop(file);
    medium.rename(tmp, final_path)?;
    Ok(taint)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_all_flushes_a_buffered_write_while_the_handle_is_open() {
        let dir = std::env::temp_dir().join(format!("medium-flush-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("small.bin");
        let mut file = FsMedium.create(&path).expect("create");
        let bytes = [0xA5u8; 1000]; // well under BufWriter's 8 KiB
        file.write_all(&bytes).expect("write");
        file.sync_all().expect("sync");
        assert_eq!(
            fs::metadata(&path).expect("stat").len(),
            bytes.len() as u64,
            "sync_all must flush before it fsyncs"
        );
        drop(file);
        let _ = fs::remove_dir_all(&dir);
    }
}
