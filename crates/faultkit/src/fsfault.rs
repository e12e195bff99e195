//! Deterministic filesystem fault injection for the durability seam.
//!
//! The checkpoint plane ([`vscsi_stats::checkpoint`]) and the trace
//! store both funnel every byte they persist through one narrow trait,
//! [`Medium`]. This module wraps it with a fault layer that misbehaves
//! the way real disks and filesystems do across power loss:
//!
//! * **Torn / short write** — only a prefix of the file reaches the
//!   medium; everything reports success.
//! * **Dropped fsync** — `sync_all` returns `Ok` but nothing was
//!   durable; after the (simulated) crash the file is empty.
//! * **Read error** — `EIO` on read-back, transient per call.
//! * **Rename reordering** — the rename becomes visible *before* the
//!   data it was supposed to commit, so the final path holds a torn
//!   file. The journal-less-filesystem classic.
//!
//! Every decision is a pure function of `(seed, op index)` via the same
//! splitmix64 mixer the command-path fault plans use, so a faulted run
//! is exactly as reproducible as a healthy one — the property the
//! `ext_crash` experiment and its two-run comparison rely on.
//!
//! Sabotage is *silent* on the write path, as in life. The seam
//! additionally carries an accounting side-channel
//! ([`MediumFile::taint`]) so the checkpoint daemon's
//! [`CheckpointLedger`] can partition attempts exactly (`written + torn +
//! fsync_dropped + io_errors == attempts`) without being able to *act* on
//! the taint — recovery still has to survive on CRCs alone. The trace
//! store keeps no such ledger and ignores it: its CRC-framed blocks and
//! total decoding are what keep queries honest.
//!
//! A [`CrashSchedule`] turns the layer into a guillotine: at a chosen
//! create-op index the simulated kernel dies mid-write, between fsync
//! and rename, or immediately after the rename, and every operation
//! after that refuses with `BrokenPipe` so the harness can stop the
//! world and drive recovery from whatever is actually on disk.
//!
//! # Examples
//!
//! ```
//! use faultkit::{FsFaultConfig, FsFaults};
//!
//! let faults = FsFaults::new(42, FsFaultConfig::hostile());
//! let medium = faults.medium(vscsi_stats::FsMedium);
//! // hand `Box::new(medium)` to CheckpointDaemon::with_medium(...), or
//! // `medium` itself to TraceStore::create_with_medium(...)
//! # let _ = medium;
//! assert!(!faults.crashed());
//! ```

use simkit::splitmix64;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use vscsi_stats::checkpoint::CheckpointLedger;
use vscsi_stats::{Medium, MediumFile, WriteTaint};

/// Per-mille rates for each filesystem fault class, plus the torn-write
/// cut bound. All-zero ([`FsFaultConfig::healthy`]) makes the layer a
/// pure pass-through (still crash-schedulable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsFaultConfig {
    /// Per-mille of created files that keep only a prefix.
    pub torn_write_permille: u16,
    /// Per-mille of created files whose fsync silently does nothing
    /// (the file is empty after the crash).
    pub dropped_fsync_permille: u16,
    /// Per-mille of created files whose rename lands before their data
    /// (final path exists, contents torn).
    pub rename_reorder_permille: u16,
    /// Per-mille of reads that fail with `EIO`.
    pub read_error_permille: u16,
    /// Torn/reordered files keep a pseudorandom prefix in
    /// `[0, torn_keep_bound)` bytes. Keep this below the smallest
    /// object the wrapped seam writes so a torn file is never
    /// accidentally complete; the default (24) is under the 26-byte
    /// minimum of both the `VSCKPT2` and `VSTRIDX1` frames.
    pub torn_keep_bound: u32,
}

impl FsFaultConfig {
    /// No injected faults at all.
    pub const fn healthy() -> Self {
        FsFaultConfig {
            torn_write_permille: 0,
            dropped_fsync_permille: 0,
            rename_reorder_permille: 0,
            read_error_permille: 0,
            torn_keep_bound: 24,
        }
    }

    /// A storage stack having a genuinely bad day: roughly one write in
    /// five sabotaged one way or another, one read in ten failing.
    pub const fn hostile() -> Self {
        FsFaultConfig {
            torn_write_permille: 80,
            dropped_fsync_permille: 60,
            rename_reorder_permille: 60,
            read_error_permille: 100,
            torn_keep_bound: 24,
        }
    }
}

impl Default for FsFaultConfig {
    fn default() -> Self {
        FsFaultConfig::healthy()
    }
}

/// The fate a fault plan assigns to one created file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsWriteFault {
    /// Only the first `keep` bytes reach the medium.
    Torn {
        /// Bytes of prefix that survive.
        keep: usize,
    },
    /// `sync_all` lies; nothing reaches the medium.
    DroppedFsync,
    /// The rename commits before the data: the *final* path ends up
    /// holding only the first `keep` bytes.
    RenameReorder {
        /// Bytes of prefix that survive.
        keep: usize,
    },
}

/// Pure `(seed, op index) → fault` decision function. Holds no mutable
/// state; the shared [`FsFaults`] core supplies the op indices.
#[derive(Debug, Clone, Copy)]
pub struct FsFaultPlan {
    seed: u64,
    config: FsFaultConfig,
}

impl FsFaultPlan {
    /// A plan drawing from `seed` with the given rates.
    pub(crate) fn new(seed: u64, config: FsFaultConfig) -> Self {
        FsFaultPlan { seed, config }
    }

    /// The fate of the `op`-th created file (global create-op index).
    pub fn write_fault(&self, op: u64) -> Option<FsWriteFault> {
        let x = splitmix64(
            self.seed
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(splitmix64(op)),
        );
        let roll = (x % 1000) as u16;
        let keep = ((x >> 32) % self.config.torn_keep_bound.max(1) as u64) as usize;
        let c = &self.config;
        let mut edge = c.torn_write_permille;
        if roll < edge {
            return Some(FsWriteFault::Torn { keep });
        }
        edge += c.dropped_fsync_permille;
        if roll < edge {
            return Some(FsWriteFault::DroppedFsync);
        }
        edge += c.rename_reorder_permille;
        if roll < edge {
            return Some(FsWriteFault::RenameReorder { keep });
        }
        None
    }

    /// Whether the `op`-th read (global read-op index) fails with `EIO`.
    pub fn read_fault(&self, op: u64) -> bool {
        let x = splitmix64(
            self.seed
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .wrapping_add(splitmix64(op ^ 0x5EED_0F5E_ED0F_5EED)),
        );
        ((x % 1000) as u16) < self.config.read_error_permille
    }
}

/// Where in the create → write → fsync → rename sequence the simulated
/// kernel dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// Mid-write: the file keeps a tiny prefix, the op errors, and the
    /// rename never happens (a torn `.tmp` orphan is all that remains).
    MidWrite,
    /// Between fsync and rename: the staged file is fully durable at
    /// its temporary path, but the commit rename never lands.
    AfterFsync,
    /// Immediately after the rename: the op is fully durable; death
    /// arrives before anything else can run.
    AfterRename,
}

/// A scheduled kill: die at the `at_create_op`-th file creation, in the
/// given phase. Everything after returns `BrokenPipe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSchedule {
    /// Global create-op index the guillotine triggers on.
    pub at_create_op: u64,
    /// Where in that op's lifecycle it falls.
    pub phase: CrashPhase,
}

/// Exact fault accounting, mirroring the checkpoint plane's
/// [`CheckpointLedger`]: every create op is healthy or lands in exactly
/// one sabotage bucket.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FsFaultStats {
    /// Files created through the layer.
    pub create_ops: u64,
    /// Reads attempted through the layer.
    pub read_ops: u64,
    /// Renames attempted through the layer.
    pub rename_ops: u64,
    /// Created files torn to a prefix.
    pub torn_writes: u64,
    /// Created files whose fsync was dropped (empty after crash).
    pub dropped_fsyncs: u64,
    /// Created files whose rename beat their data.
    pub rename_reorders: u64,
    /// Reads failed with injected `EIO`.
    pub read_errors: u64,
    /// Operations refused because the simulated kernel already died.
    pub crash_refusals: u64,
}

impl FsFaultStats {
    /// Create ops that were sabotaged (each in exactly one bucket).
    pub(crate) fn injected_writes(&self) -> u64 {
        self.torn_writes + self.dropped_fsyncs + self.rename_reorders
    }

    /// The ledger identity: every op is accounted exactly once.
    pub fn conserves(&self) -> bool {
        self.injected_writes() <= self.create_ops && self.read_errors <= self.read_ops
    }

    /// Cross-checks this ledger against the checkpoint daemon's: every
    /// torn/reordered file the daemon saw as `torn`, every dropped
    /// fsync as `fsync_dropped`. Only meaningful when the wrapped
    /// medium served exactly one daemon and no crash fired.
    pub fn matches_checkpoint_ledger(&self, ledger: &CheckpointLedger) -> bool {
        self.torn_writes + self.rename_reorders == ledger.torn
            && self.dropped_fsyncs == ledger.fsync_dropped
    }
}

#[derive(Debug)]
struct FaultCore {
    plan: FsFaultPlan,
    stats: FsFaultStats,
    crash: Option<CrashSchedule>,
    crash_on_next_rename: bool,
    crash_after_next_rename: bool,
    crashed: bool,
}

/// Shared handle to one fault layer: the plan, the op counters, the
/// stats ledger, and the crash guillotine. Clone it into as many
/// [`FaultyMedium`]s as should share one op-index sequence.
#[derive(Debug, Clone)]
pub struct FsFaults {
    core: Arc<Mutex<FaultCore>>,
}

fn crash_err() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "faultkit: simulated crash")
}

impl FsFaults {
    /// A fault layer drawing from `seed` with the given rates.
    pub fn new(seed: u64, config: FsFaultConfig) -> Self {
        FsFaults {
            core: Arc::new(Mutex::new(FaultCore {
                plan: FsFaultPlan::new(seed, config),
                stats: FsFaultStats::default(),
                crash: None,
                crash_on_next_rename: false,
                crash_after_next_rename: false,
                crashed: false,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FaultCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the accounting ledger.
    pub fn stats(&self) -> FsFaultStats {
        self.lock().stats
    }

    /// Arms the guillotine (replacing any earlier schedule).
    pub fn schedule_crash(&self, schedule: CrashSchedule) {
        self.lock().crash = Some(schedule);
    }

    /// Whether the simulated kernel has died. Once true, every
    /// operation through the layer refuses with `BrokenPipe`.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Kills the layer immediately, without waiting for a scheduled
    /// crash op. A harness uses this to correlate death across seams:
    /// when the guillotine fires on one fault layer (say the checkpoint
    /// medium), the same power cut takes the trace store's medium with
    /// it.
    pub fn kill(&self) {
        self.set_crashed();
    }

    /// Wraps a medium — the checkpoint daemon's or the trace store's —
    /// with this fault layer.
    pub fn medium<M: Medium + 'static>(&self, inner: M) -> FaultyMedium<M> {
        FaultyMedium {
            faults: self.clone(),
            inner,
        }
    }

    /// Decides the fate of the next created file and books it.
    fn next_create(&self) -> io::Result<WriteMode> {
        let mut c = self.lock();
        if c.crashed {
            c.stats.crash_refusals += 1;
            return Err(crash_err());
        }
        let op = c.stats.create_ops;
        c.stats.create_ops += 1;
        if let Some(s) = c.crash.filter(|s| s.at_create_op == op) {
            return Ok(match s.phase {
                CrashPhase::MidWrite => {
                    let keep = (splitmix64(c.plan.seed ^ op) % 16) as usize;
                    WriteMode::CrashMidWrite { keep }
                }
                CrashPhase::AfterFsync => {
                    c.crash_on_next_rename = true;
                    WriteMode::Clean
                }
                CrashPhase::AfterRename => {
                    c.crash_after_next_rename = true;
                    WriteMode::Clean
                }
            });
        }
        Ok(match c.plan.write_fault(op) {
            None => WriteMode::Clean,
            Some(FsWriteFault::Torn { keep }) => {
                c.stats.torn_writes += 1;
                WriteMode::Torn { keep }
            }
            Some(FsWriteFault::DroppedFsync) => {
                c.stats.dropped_fsyncs += 1;
                WriteMode::DropAll
            }
            Some(FsWriteFault::RenameReorder { keep }) => {
                c.stats.rename_reorders += 1;
                WriteMode::Reorder { keep }
            }
        })
    }

    /// Gates a rename: crash refusal, scheduled kills, accounting.
    /// Returns whether the caller should perform the real rename (and
    /// whether to die right after it).
    fn next_rename(&self) -> io::Result<bool> {
        let mut c = self.lock();
        if c.crashed {
            c.stats.crash_refusals += 1;
            return Err(crash_err());
        }
        c.stats.rename_ops += 1;
        if c.crash_on_next_rename {
            c.crash_on_next_rename = false;
            c.crashed = true;
            return Err(crash_err());
        }
        let die_after = c.crash_after_next_rename;
        c.crash_after_next_rename = false;
        Ok(die_after)
    }

    fn next_read(&self) -> io::Result<()> {
        let mut c = self.lock();
        if c.crashed {
            c.stats.crash_refusals += 1;
            return Err(crash_err());
        }
        let op = c.stats.read_ops;
        c.stats.read_ops += 1;
        if c.plan.read_fault(op) {
            c.stats.read_errors += 1;
            return Err(io::Error::other("faultkit: injected EIO"));
        }
        Ok(())
    }

    fn refuse_if_crashed(&self) -> io::Result<()> {
        let mut c = self.lock();
        if c.crashed {
            c.stats.crash_refusals += 1;
            return Err(crash_err());
        }
        Ok(())
    }

    fn set_crashed(&self) {
        self.lock().crashed = true;
    }
}

/// How a wrapped file handle treats the bytes it is given.
#[derive(Debug, Clone, Copy)]
enum WriteMode {
    Clean,
    Torn { keep: usize },
    Reorder { keep: usize },
    DropAll,
    CrashMidWrite { keep: usize },
}

/// [`Medium`] wrapper injecting this module's fault vocabulary into
/// checkpoint, segment and sidecar writes alike. Build via
/// [`FsFaults::medium`].
#[derive(Debug)]
pub struct FaultyMedium<M: Medium> {
    faults: FsFaults,
    inner: M,
}

struct FaultyFile {
    inner: Box<dyn MediumFile>,
    mode: WriteMode,
    faults: FsFaults,
    passed: usize,
}

impl FaultyFile {
    /// Passes through at most `keep - passed` bytes, always reporting the
    /// full length as written (the sabotage is silent).
    fn pass_prefix(&mut self, keep: usize, buf: &[u8]) -> io::Result<usize> {
        let n = keep.saturating_sub(self.passed).min(buf.len());
        if n > 0 {
            self.inner.write_all(&buf[..n])?;
        }
        self.passed += buf.len();
        Ok(buf.len())
    }
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.mode {
            WriteMode::Clean => self.inner.write(buf),
            WriteMode::Torn { keep } | WriteMode::Reorder { keep } => self.pass_prefix(keep, buf),
            WriteMode::DropAll => {
                self.passed += buf.len();
                Ok(buf.len())
            }
            WriteMode::CrashMidWrite { keep } => {
                let _ = self.pass_prefix(keep, buf);
                let _ = self.inner.flush();
                self.faults.set_crashed();
                Err(crash_err())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.mode {
            WriteMode::Clean | WriteMode::Torn { .. } | WriteMode::Reorder { .. } => {
                self.inner.flush()
            }
            WriteMode::DropAll => Ok(()),
            WriteMode::CrashMidWrite { .. } => Err(crash_err()),
        }
    }
}

impl MediumFile for FaultyFile {
    fn sync_all(&mut self) -> io::Result<()> {
        match self.mode {
            WriteMode::Clean | WriteMode::Torn { .. } | WriteMode::Reorder { .. } => {
                self.inner.sync_all()
            }
            // The lie at the heart of the dropped fsync.
            WriteMode::DropAll => Ok(()),
            WriteMode::CrashMidWrite { .. } => Err(crash_err()),
        }
    }

    fn taint(&self) -> Option<WriteTaint> {
        match self.mode {
            WriteMode::Clean | WriteMode::CrashMidWrite { .. } => None,
            WriteMode::Torn { .. } | WriteMode::Reorder { .. } => Some(WriteTaint::Torn),
            WriteMode::DropAll => Some(WriteTaint::FsyncDropped),
        }
    }
}

impl<M: Medium> Medium for FaultyMedium<M> {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn MediumFile>> {
        let mode = self.faults.next_create()?;
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultyFile {
            inner,
            mode,
            faults: self.faults.clone(),
            passed: 0,
        }))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let die_after = self.faults.next_rename()?;
        let result = self.inner.rename(from, to);
        if die_after {
            self.faults.set_crashed();
        }
        result
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.faults.next_read()?;
        self.inner.read(path)
    }

    fn list(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.faults.refuse_if_crashed()?;
        self.inner.list(dir)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.faults.refuse_if_crashed()?;
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};
    use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId, VDiskId, VmId};
    use vscsi_stats::{
        load_latest, CheckpointConfig, CheckpointDaemon, CollectorConfig, FsMedium, StatsService,
        VscsiEvent,
    };

    static DIR_N: AtomicU64 = AtomicU64::new(0);

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let n = DIR_N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("fsfault-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn busy_service() -> Arc<StatsService> {
        let service = Arc::new(StatsService::new(CollectorConfig::paper_figures()));
        service.enable_all();
        let target = TargetId::new(VmId(1), VDiskId(0));
        let mut events = Vec::new();
        for i in 0..200u64 {
            let req = IoRequest::new(
                RequestId(i),
                target,
                if i % 3 == 0 {
                    IoDirection::Write
                } else {
                    IoDirection::Read
                },
                Lba::new((i * 131) % (1 << 18)),
                16,
                simkit::SimTime::from_micros(i * 90),
            );
            events.push(VscsiEvent::Issue(req));
            events.push(VscsiEvent::Complete(IoCompletion::new(
                req,
                simkit::SimTime::from_micros(i * 90 + 250),
            )));
        }
        service.handle_batch(&events);
        service
    }

    fn daemon_with_faults(dir: &Path, faults: &FsFaults, interval_ns: u64) -> CheckpointDaemon {
        let mut config = CheckpointConfig::new(dir);
        config.interval_ns = interval_ns;
        config.retain = 100; // keep everything: retention trims would hide fault accounting
        CheckpointDaemon::with_medium(busy_service(), config, Box::new(faults.medium(FsMedium)))
    }

    #[test]
    fn plans_are_pure_in_seed_and_op() {
        let a = FsFaultPlan::new(99, FsFaultConfig::hostile());
        let b = FsFaultPlan::new(99, FsFaultConfig::hostile());
        let mut injected = 0;
        for op in 0..2000 {
            assert_eq!(a.write_fault(op), b.write_fault(op));
            assert_eq!(a.read_fault(op), b.read_fault(op));
            injected += u64::from(a.write_fault(op).is_some());
        }
        // ~20% of 2000; wide bounds so the test never flakes on seed.
        assert!((150..750).contains(&injected), "injected={injected}");
        let other = FsFaultPlan::new(100, FsFaultConfig::hostile());
        assert!((0..2000).any(|op| a.write_fault(op) != other.write_fault(op)));
    }

    #[test]
    fn hostile_daemon_ledgers_close_exactly() {
        let dir = tmpdir("ledger");
        let faults = FsFaults::new(7, FsFaultConfig::hostile());
        let mut daemon = daemon_with_faults(&dir, &faults, 1_000);
        for tick in 1..=120u64 {
            let _ = daemon.tick(tick * 1_000);
        }
        let ledger = daemon.health().ledger();
        assert!(ledger.conserves(), "{ledger:?}");
        assert_eq!(ledger.attempts, 120);
        assert!(ledger.torn > 0, "hostile run should tear something");
        assert!(ledger.fsync_dropped > 0);
        let stats = faults.stats();
        assert!(stats.conserves(), "{stats:?}");
        assert!(
            stats.matches_checkpoint_ledger(&ledger),
            "{stats:?} vs {ledger:?}"
        );
        // Recovery over the faulted directory never panics and, with
        // some checkpoint written clean, finds a durable one whose seq
        // the daemon also believes in.
        let recovered = load_latest(&mut FsMedium, &dir).expect("some clean checkpoint");
        assert_eq!(
            Some(recovered.seq),
            daemon.health().last_durable_seq(),
            "recovery and ledger must agree on the durable frontier"
        );
    }

    #[test]
    fn crash_after_fsync_leaves_tmp_only() {
        let dir = tmpdir("crash-fsync");
        let faults = FsFaults::new(1, FsFaultConfig::healthy());
        faults.schedule_crash(CrashSchedule {
            at_create_op: 1,
            phase: CrashPhase::AfterFsync,
        });
        let mut daemon = daemon_with_faults(&dir, &faults, 1_000);
        assert!(matches!(daemon.tick(1_000), Some(Ok(0))));
        assert!(matches!(daemon.tick(2_000), Some(Err(_))));
        assert!(faults.crashed());
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            names.iter().any(|n| n.ends_with(".vsckpt.tmp")),
            "staged file survives the crash: {names:?}"
        );
        assert_eq!(
            names.iter().filter(|n| n.ends_with(".vsckpt")).count(),
            1,
            "only the pre-crash checkpoint committed: {names:?}"
        );
        // Everything after the crash refuses.
        assert!(daemon.tick(3_000).map(|r| r.is_err()).unwrap_or(true));
        let recovered = load_latest(&mut FsMedium, &dir).expect("seq 0 survives");
        assert_eq!(recovered.seq, 0);
    }

    #[test]
    fn crash_mid_write_and_after_rename() {
        // Mid-write: torn tmp orphan, no commit.
        let dir = tmpdir("crash-mid");
        let faults = FsFaults::new(2, FsFaultConfig::healthy());
        faults.schedule_crash(CrashSchedule {
            at_create_op: 0,
            phase: CrashPhase::MidWrite,
        });
        let mut daemon = daemon_with_faults(&dir, &faults, 1_000);
        assert!(matches!(daemon.tick(1_000), Some(Err(_))));
        assert!(faults.crashed());
        assert!(load_latest(&mut FsMedium, &dir).is_none());

        // After-rename: the op is fully durable, death comes after.
        let dir = tmpdir("crash-after");
        let faults = FsFaults::new(3, FsFaultConfig::healthy());
        faults.schedule_crash(CrashSchedule {
            at_create_op: 0,
            phase: CrashPhase::AfterRename,
        });
        let mut daemon = daemon_with_faults(&dir, &faults, 1_000);
        assert!(matches!(daemon.tick(1_000), Some(Ok(0))));
        assert!(faults.crashed());
        assert_eq!(load_latest(&mut FsMedium, &dir).expect("durable").seq, 0);
    }

    #[test]
    fn rename_reorder_leaves_torn_final_file_that_recovery_skips() {
        let dir = tmpdir("reorder");
        // 100% reorder: every created file commits torn.
        let config = FsFaultConfig {
            rename_reorder_permille: 1000,
            ..FsFaultConfig::healthy()
        };
        let faults = FsFaults::new(4, config);
        let mut daemon = daemon_with_faults(&dir, &faults, 1_000);
        assert!(matches!(daemon.tick(1_000), Some(Ok(_))));
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            names.iter().any(|n| n.ends_with(".vsckpt")),
            "rename became visible: {names:?}"
        );
        assert!(load_latest(&mut FsMedium, &dir).is_none());
        assert_eq!(daemon.health().ledger().torn, 1);
        assert_eq!(daemon.health().last_durable_seq(), None);
    }

    #[test]
    fn faulty_backend_keeps_store_and_queries_alive() {
        use tracestore::{IndexSource, TraceStore, TraceStoreConfig};
        use vscsi_stats::{TraceRecord, TraceSink};

        let dir = tmpdir("backend");
        let faults = FsFaults::new(11, FsFaultConfig::hostile());
        let mut config = TraceStoreConfig::new(&dir);
        config.segment_max_bytes = 4 << 10;
        config.chunk_bytes = 1 << 10;
        let store = TraceStore::create_with_medium(config, faults.medium(FsMedium)).expect("store");
        let mut handle = store.handle();
        for i in 0..5000u64 {
            handle.append(&TraceRecord {
                serial: i,
                target: TargetId::new(VmId(1), VDiskId(0)),
                direction: IoDirection::Read,
                lba: Lba::new(i * 8),
                num_sectors: 8,
                issue_ns: i * 1_000,
                complete_ns: Some(i * 1_000 + 250_000),
                complete_seq: Some(i + 5000),
            });
        }
        drop(handle);
        let report = store.finish();
        assert!(faults.stats().create_ops > 0);
        assert!(faults.stats().conserves());
        // Index loading over the wreckage is total: every segment either
        // yields an index (sidecar or rebuilt) or a clean error for the
        // files the faults beheaded — never a panic.
        let mut loaded = 0u32;
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) == Some("vseg") {
                match tracestore::load_or_build_file(&path) {
                    Ok((_, IndexSource::Sidecar | IndexSource::Rebuilt)) => loaded += 1,
                    Err(_) => {} // header torn away: correctly rejected
                }
            }
        }
        assert!(loaded > 0, "some segments must survive a hostile run");
        let _ = report;
    }

    /// What a path holds after a publish attempt.
    #[derive(Debug, Clone, Copy)]
    enum Left {
        Absent,
        Whole,
        /// A pseudorandom prefix strictly shorter than this.
        Under(u64),
    }

    #[test]
    fn publish_atomic_under_every_fate_for_both_planes() {
        use vscsi_stats::publish_atomic;
        use Left::{Absent, Under, Whole};

        const PAYLOAD: [u8; 100] = [0x5A; 100]; // well past torn_keep_bound
        let calm = FsFaultConfig::healthy();
        let (mut tear, mut lose, mut swap) = (calm, calm, calm);
        tear.torn_write_permille = 1000;
        lose.dropped_fsync_permille = 1000;
        swap.rename_reorder_permille = 1000;
        let mid = Some(CrashPhase::MidWrite);
        let synced = Some(CrashPhase::AfterFsync);
        let renamed = Some(CrashPhase::AfterRename);
        let torn = Ok(Some(WriteTaint::Torn));
        let dropped = Ok(Some(WriteTaint::FsyncDropped));
        let died = Err(io::ErrorKind::BrokenPipe);
        // (fate, weather, crash phase, taint or error, tmp, final, renames)
        let table = [
            ("clean", calm, None, Ok(None), Absent, Whole, 1),
            ("torn", tear, None, torn, Absent, Under(24), 1),
            ("lost fsync", lose, None, dropped, Absent, Under(1), 1),
            ("reorder", swap, None, torn, Absent, Under(24), 1),
            ("mid-write", calm, mid, died, Under(16), Absent, 0),
            ("after fsync", calm, synced, died, Whole, Absent, 1),
            ("after rename", calm, renamed, Ok(None), Absent, Whole, 1),
        ];
        for target in ["ckpt-0000000000.vsckpt", "trace-00000.vidx"] {
            for (fate, weather, crash, want, want_tmp, want_final, renames) in table {
                let what = format!("{target} / {fate}");
                let dir = tmpdir("publish");
                let final_path = dir.join(target);
                let tmp_path = dir.join(format!("{target}.tmp"));
                let faults = FsFaults::new(5, weather);
                if let Some(phase) = crash {
                    faults.schedule_crash(CrashSchedule {
                        at_create_op: 0,
                        phase,
                    });
                }
                let got = publish_atomic(
                    &mut faults.medium(FsMedium),
                    &tmp_path,
                    &final_path,
                    &PAYLOAD,
                );
                assert_eq!(got.map_err(|e| e.kind()), want, "{what}");
                for (path, want) in [(&tmp_path, want_tmp), (&final_path, want_final)] {
                    let len = fs::metadata(path).ok().map(|m| m.len());
                    let ok = match want {
                        Absent => len.is_none(),
                        Whole => len == Some(PAYLOAD.len() as u64),
                        Under(bound) => len.is_some_and(|n| n < bound),
                    };
                    assert!(
                        ok,
                        "{what}: {} holds {len:?}, want {want:?}",
                        path.display()
                    );
                }
                let stats = faults.stats();
                assert!(stats.conserves(), "{what}: {stats:?}");
                assert_eq!((stats.create_ops, stats.rename_ops), (1, renames), "{what}");
                assert_eq!(
                    stats.injected_writes(),
                    u64::from(weather != calm),
                    "{what}"
                );
                assert_eq!(faults.crashed(), crash.is_some(), "{what}");
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn ext_crash_policy_is_deterministic_end_to_end() {
        // Two identical hostile daemon runs produce identical ledgers,
        // stats, and on-disk durable frontiers.
        let frontiers: Vec<_> = (0..2)
            .map(|run| {
                let dir = tmpdir(&format!("det-{run}"));
                let faults = FsFaults::new(21, FsFaultConfig::hostile());
                let mut daemon = daemon_with_faults(&dir, &faults, 1_000);
                for tick in 1..=60u64 {
                    let _ = daemon.tick(tick * 1_000);
                }
                (
                    faults.stats(),
                    daemon.health().ledger(),
                    daemon.health().last_durable_seq(),
                )
            })
            .collect();
        assert_eq!(frontiers[0], frontiers[1]);
    }
}
