//! OSDL Database Test 2 model (§4.2, Figure 4, [20]).
//!
//! DBT-2 is "a fair usage implementation of the TPC-C benchmark
//! specification [that] simulates a wholesale parts supplier where several
//! workers access a database, update customer information and check on
//! parts inventories", run by the paper against PostgreSQL 8.1 on ext3
//! (250 warehouses, 50 connections, ~50 GiB database, 8 KiB pages).
//!
//! The model reproduces the mechanisms behind Figure 4's signature:
//!
//! * **8 KiB everywhere** — PostgreSQL's page size (Figure 4(b));
//! * **write OIO pinned at ~32** — the background writer flushes dirty
//!   pages in fixed batches of 32 concurrent writes (Figure 4(c));
//! * **mostly random writes with bursts of locality** — each transaction
//!   dirties a couple of pages near an append frontier (orders/history
//!   tables) plus a few uniformly random ones (stock/customer); batch-
//!   sorted writeback turns the frontier pages into short-distance runs
//!   (Figure 4(a): "20% within 500 sectors, 33% within 5000");
//! * **I/O rate varying ~15% over minutes** — a periodic checkpoint
//!   enlarges flush batches (Figure 4(d)).

use crate::workload::{BlockIo, Poll, Workload};
use simkit::{Dist, SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use vscsi::{Lba, SECTOR_SIZE};

/// Tag base for background-writer I/Os.
const BGW_TAG_BASE: u64 = 1 << 32;
/// Tag base for WAL writes (connection id + this base).
const WAL_TAG_BASE: u64 = 1 << 33;

/// DBT-2 model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Dbt2Params {
    /// Concurrent database connections (the paper used 50).
    pub connections: u32,
    /// Database size in bytes (the paper's DB grew to ~50 GiB).
    pub db_bytes: u64,
    /// Page size (PostgreSQL: 8 KiB).
    pub page_bytes: u64,
    /// Mean keying/think time between transactions.
    pub think: Dist,
    /// Pages read per transaction.
    pub reads_per_txn: Dist,
    /// Background-writer batch size (flushes this many pages concurrently).
    pub bgwriter_batch: u32,
    /// Background-writer cadence.
    pub bgwriter_interval: SimDuration,
    /// Checkpoint cadence (flush batches triple while one is active).
    pub checkpoint_interval: SimDuration,
    /// WAL region size in bytes.
    pub wal_bytes: u64,
    /// Popularity skew of page accesses: `(segments, exponent)` applies a
    /// Zipf distribution over that many hash-scattered table segments
    /// (TPC-C's hot-warehouse skew); `None` means uniform.
    pub access_skew: Option<(u64, f64)>,
    /// Whether commit records are written to a WAL region on *this*
    /// virtual disk. Set `false` when modelling a deployment with the WAL
    /// placed on a separate disk (§3.6 of the paper recommends splitting
    /// workloads across virtual disks to separate their components).
    pub emit_wal: bool,
}

impl Default for Dbt2Params {
    fn default() -> Self {
        Dbt2Params {
            connections: 50,
            db_bytes: 50 * 1024 * 1024 * 1024,
            page_bytes: 8192,
            think: Dist::exponential(40_000.0), // 40 ms in µs
            reads_per_txn: Dist::uniform(4.0, 16.0),
            bgwriter_batch: 32,
            bgwriter_interval: SimDuration::from_millis(250),
            checkpoint_interval: SimDuration::from_secs(45),
            wal_bytes: 1024 * 1024 * 1024,
            access_skew: Some((1024, 1.1)),
            emit_wal: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Thinking,
    Reading { remaining: u32 },
    Committing,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    Conn(u32),
    Bgwriter,
    Checkpoint,
}

/// A running DBT-2/PostgreSQL workload.
#[derive(Debug)]
pub struct Dbt2Workload {
    name: String,
    params: Dbt2Params,
    rng: SimRng,
    conns: Vec<ConnState>,
    /// Dirty page numbers awaiting the background writer (sorted).
    dirty: BTreeSet<u64>,
    /// Append frontier for the hot (orders/history) table region, in pages.
    hot_frontier: u64,
    /// WAL append position, in sectors within the WAL region.
    wal_head: u64,
    timers: BinaryHeap<Reverse<(SimTime, u64, TimerKind)>>,
    timer_seq: u64,
    bgw_outstanding: u32,
    checkpoint_active: bool,
    transactions: u64,
}

impl Dbt2Workload {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (no connections, page not a sector
    /// multiple, database smaller than a page).
    pub fn new(name: &str, params: Dbt2Params, rng: SimRng) -> Self {
        assert!(params.connections > 0);
        assert!(params.page_bytes.is_multiple_of(SECTOR_SIZE));
        assert!(params.db_bytes >= params.page_bytes * 1024);
        let pages = params.db_bytes / params.page_bytes;
        Dbt2Workload {
            name: name.to_owned(),
            conns: vec![ConnState::Thinking; params.connections as usize],
            // Hot append region starts 3/4 into the database.
            hot_frontier: pages * 3 / 4,
            params,
            rng,
            dirty: BTreeSet::new(),
            wal_head: 0,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            bgw_outstanding: 0,
            checkpoint_active: false,
            transactions: 0,
        }
    }

    fn arm(&mut self, at: SimTime, kind: TimerKind) {
        self.timers.push(Reverse((at, self.timer_seq, kind)));
        self.timer_seq += 1;
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.timers.peek().map(|Reverse((t, _, _))| *t)
    }

    fn page_sectors(&self) -> u32 {
        (self.params.page_bytes / SECTOR_SIZE) as u32
    }

    fn total_pages(&self) -> u64 {
        self.params.db_bytes / self.params.page_bytes
    }

    /// The on-disk sector of a data page; data lives after the WAL region.
    fn page_lba(&self, page: u64) -> Lba {
        Lba::new(self.params.wal_bytes / SECTOR_SIZE + page * u64::from(self.page_sectors()))
    }

    fn read_io(&mut self, conn: u32) -> BlockIo {
        // 85% table probes (stock/customer/item), 15% near the hot
        // frontier (recent orders). Probes are Zipf-skewed over hash-
        // scattered segments when `access_skew` is set: popular warehouses
        // are hit more often, but popularity does not imply adjacency.
        let pages = self.total_pages();
        let page = if self.rng.chance(0.15) {
            let back = self.rng.range_inclusive(0, 512);
            self.hot_frontier.saturating_sub(back) % pages
        } else if let Some((segments, exponent)) = self.params.access_skew {
            let segments = segments.min(pages).max(1);
            let rank = Dist::zipf(segments, exponent).sample(&mut self.rng) as u64;
            // Scatter ranks across the address space so skew affects
            // popularity (cache behaviour) but not spatial locality.
            let mut h = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            let seg = h % segments;
            let seg_pages = (pages / segments).max(1);
            seg * seg_pages + self.rng.range_inclusive(0, seg_pages - 1)
        } else {
            self.rng.range_inclusive(0, pages - 1)
        };
        BlockIo::read(
            self.page_lba(page % pages),
            self.page_sectors(),
            u64::from(conn),
        )
    }

    fn wal_io(&mut self, conn: u32) -> BlockIo {
        let sectors = u64::from(self.page_sectors());
        let wal_len = self.params.wal_bytes / SECTOR_SIZE;
        if self.wal_head + sectors > wal_len {
            self.wal_head = 0;
        }
        let lba = Lba::new(self.wal_head);
        self.wal_head += sectors;
        BlockIo::write(lba, sectors as u32, WAL_TAG_BASE + u64::from(conn))
    }

    /// Marks the pages a transaction dirtied: one page at the hot append
    /// frontier (orders/history rows, adjacent after batch sorting — the
    /// within-500-sectors bursts of Figure 4(a)), one page *near* the
    /// frontier (index leaves, within a few thousand sectors), and several
    /// uniformly random ones (stock/customer heap updates).
    fn dirty_txn_pages(&mut self) {
        let pages = self.total_pages();
        self.dirty.insert(self.hot_frontier % pages);
        self.hot_frontier = (self.hot_frontier + 1) % pages;
        let near_back = self.rng.range_inclusive(8, 256);
        self.dirty
            .insert(self.hot_frontier.saturating_sub(near_back) % pages);
        let n = self.rng.range_inclusive(2, 4);
        for _ in 0..n {
            self.dirty.insert(self.rng.range_inclusive(0, pages - 1));
        }
    }

    fn begin_txn(&mut self, conn: u32) -> Vec<BlockIo> {
        let reads = self
            .params
            .reads_per_txn
            .sample(&mut self.rng)
            .round()
            .max(1.0) as u32;
        self.conns[conn as usize] = ConnState::Reading { remaining: reads };
        vec![self.read_io(conn)]
    }

    /// Pops the next dirty page in sorted order (PostgreSQL's buffer scan
    /// order — this creates the short-distance write bursts of Figure 4(a)).
    fn pop_dirty(&mut self) -> Option<u64> {
        let page = *self.dirty.iter().next()?;
        self.dirty.remove(&page);
        Some(page)
    }

    fn bgw_write(&mut self, page: u64) -> BlockIo {
        self.bgw_outstanding += 1;
        BlockIo::write(
            self.page_lba(page),
            self.page_sectors(),
            BGW_TAG_BASE + page,
        )
    }

    /// Tops the background writer's in-flight window back up to its target
    /// ("PostgreSQL is always issuing around 32 writes simultaneously",
    /// §4.2). During a checkpoint the window triples.
    fn bgwriter_fire(&mut self, now: SimTime) -> Vec<BlockIo> {
        self.arm(now + self.params.bgwriter_interval, TimerKind::Bgwriter);
        let factor = if self.checkpoint_active { 3 } else { 1 };
        let target = self.params.bgwriter_batch * factor;
        let mut ios = Vec::new();
        while self.bgw_outstanding < target {
            match self.pop_dirty() {
                Some(page) => ios.push(self.bgw_write(page)),
                None => break,
            }
        }
        ios
    }
}

impl Workload for Dbt2Workload {
    fn start(&mut self, now: SimTime) -> Poll {
        // Stagger connection start over the first think interval.
        for c in 0..self.params.connections {
            let delay = self.params.think.sample(&mut self.rng);
            self.arm(
                now + SimDuration::from_micros_f64(delay),
                TimerKind::Conn(c),
            );
        }
        self.arm(now + self.params.bgwriter_interval, TimerKind::Bgwriter);
        self.arm(now + self.params.checkpoint_interval, TimerKind::Checkpoint);
        Poll {
            issue: Vec::new(),
            timer: self.next_timer(),
        }
    }

    fn on_complete(&mut self, now: SimTime, tag: u64) -> Poll {
        let ios = if tag >= WAL_TAG_BASE {
            // Commit record durable: transaction done; think, then restart.
            let conn = (tag - WAL_TAG_BASE) as u32;
            debug_assert_eq!(self.conns[conn as usize], ConnState::Committing);
            self.conns[conn as usize] = ConnState::Thinking;
            self.transactions += 1;
            self.dirty_txn_pages();
            let delay = self.params.think.sample(&mut self.rng);
            self.arm(
                now + SimDuration::from_micros_f64(delay),
                TimerKind::Conn(conn),
            );
            Vec::new()
        } else if tag >= BGW_TAG_BASE {
            self.bgw_outstanding = self.bgw_outstanding.saturating_sub(1);
            // Sustain the write window: replace the completed write with
            // the next dirty page, if any.
            let factor = if self.checkpoint_active { 3 } else { 1 };
            if self.bgw_outstanding < self.params.bgwriter_batch * factor {
                match self.pop_dirty() {
                    Some(page) => vec![self.bgw_write(page)],
                    None => Vec::new(),
                }
            } else {
                Vec::new()
            }
        } else {
            let conn = tag as u32;
            match self.conns[conn as usize] {
                ConnState::Reading { remaining } if remaining > 1 => {
                    self.conns[conn as usize] = ConnState::Reading {
                        remaining: remaining - 1,
                    };
                    vec![self.read_io(conn)]
                }
                ConnState::Reading { .. } if self.params.emit_wal => {
                    // All reads done: write the commit record.
                    self.conns[conn as usize] = ConnState::Committing;
                    vec![self.wal_io(conn)]
                }
                ConnState::Reading { .. } => {
                    // WAL lives on another disk: the transaction completes
                    // here without a local commit write.
                    self.conns[conn as usize] = ConnState::Thinking;
                    self.transactions += 1;
                    self.dirty_txn_pages();
                    let delay = self.params.think.sample(&mut self.rng);
                    self.arm(
                        now + SimDuration::from_micros_f64(delay),
                        TimerKind::Conn(conn),
                    );
                    Vec::new()
                }
                state => unreachable!("read completion in state {state:?}"),
            }
        };
        Poll {
            issue: ios,
            timer: self.next_timer(),
        }
    }

    fn on_timer(&mut self, now: SimTime) -> Poll {
        let mut ios = Vec::new();
        while let Some(&Reverse((at, _, kind))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            match kind {
                TimerKind::Conn(c) => {
                    if self.conns[c as usize] == ConnState::Thinking {
                        ios.extend(self.begin_txn(c));
                    }
                }
                TimerKind::Bgwriter => ios.extend(self.bgwriter_fire(now)),
                TimerKind::Checkpoint => {
                    // Checkpoints alternate a heavy phase with a quiet one.
                    self.checkpoint_active = !self.checkpoint_active;
                    let next = if self.checkpoint_active {
                        self.params.checkpoint_interval / 3
                    } else {
                        self.params.checkpoint_interval
                    };
                    self.arm(now + next, TimerKind::Checkpoint);
                }
            }
        }
        Poll {
            issue: ios,
            timer: self.next_timer(),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vscsi::IoDirection;

    fn small() -> Dbt2Workload {
        Dbt2Workload::new(
            "dbt2",
            Dbt2Params {
                connections: 4,
                db_bytes: 512 * 1024 * 1024,
                think: Dist::constant(1_000.0), // 1 ms
                ..Default::default()
            },
            SimRng::seed_from(1),
        )
    }

    /// Drives the workload for `steps` timer/completion rounds with an
    /// instant-completion device; returns all I/Os seen.
    fn drive(wl: &mut Dbt2Workload, steps: usize) -> Vec<BlockIo> {
        let mut seen = Vec::new();
        let mut now = SimTime::ZERO;
        let mut poll = wl.start(now);
        let mut pending: Vec<BlockIo> = poll.issue.clone();
        seen.extend(poll.issue.iter().copied());
        for _ in 0..steps {
            if let Some(io) = pending.pop() {
                now += SimDuration::from_micros(50);
                poll = wl.on_complete(now, io.tag);
            } else if let Some(t) = poll.timer {
                now = now.max(t);
                poll = wl.on_timer(now);
            } else {
                break;
            }
            seen.extend(poll.issue.iter().copied());
            pending.extend(poll.issue.iter().copied());
        }
        seen
    }

    #[test]
    fn all_ios_are_page_sized() {
        let mut wl = small();
        let ios = drive(&mut wl, 3_000);
        assert!(!ios.is_empty());
        assert!(ios.iter().all(|io| io.sectors == 16), "8 KiB everywhere");
    }

    #[test]
    fn transactions_complete_and_dirty_pages_accumulate() {
        let mut wl = small();
        drive(&mut wl, 5_000);
        assert!(wl.transactions > 10, "txns = {}", wl.transactions);
    }

    #[test]
    fn bgwriter_issues_concurrent_batches() {
        let mut wl = small();
        let ios = drive(&mut wl, 20_000);
        // Find a contiguous run of bgwriter writes (tags >= BGW base, < WAL base).
        let mut best_run = 0;
        let mut run = 0;
        for io in &ios {
            if io.tag >= BGW_TAG_BASE && io.tag < WAL_TAG_BASE {
                run += 1;
                best_run = best_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(best_run >= 16, "bgwriter batch run = {best_run}");
    }

    #[test]
    fn sorted_writeback_has_local_bursts() {
        let mut wl = small();
        let ios = drive(&mut wl, 30_000);
        let writes: Vec<&BlockIo> = ios
            .iter()
            .filter(|io| {
                io.direction == IoDirection::Write
                    && io.tag >= BGW_TAG_BASE
                    && io.tag < WAL_TAG_BASE
            })
            .collect();
        assert!(
            writes.len() > 50,
            "not enough bgwriter writes: {}",
            writes.len()
        );
        // Consecutive bgwriter writes within a batch are ascending; a good
        // fraction are within 5000 sectors (Figure 4(a) locality bursts).
        let mut near = 0;
        let mut total = 0;
        for w in writes.windows(2) {
            let d = w[1].lba.sector() as i64 - w[0].lba.sector() as i64;
            if d > 0 {
                total += 1;
                if d <= 5_000 {
                    near += 1;
                }
            }
        }
        assert!(total > 20);
        let frac = f64::from(near) / f64::from(total);
        assert!(frac > 0.15, "locality fraction {frac}");
    }

    #[test]
    fn wal_writes_are_sequential_appends() {
        let mut wl = small();
        let ios = drive(&mut wl, 10_000);
        let wal: Vec<&BlockIo> = ios.iter().filter(|io| io.tag >= WAL_TAG_BASE).collect();
        assert!(wal.len() > 5);
        for w in wal.windows(2) {
            let a = w[0].lba.sector();
            let b = w[1].lba.sector();
            assert!(b == a + 16 || b == 0, "WAL not sequential: {a} -> {b}");
        }
        // WAL lives below the data region.
        let wal_len = wl.params.wal_bytes / SECTOR_SIZE;
        assert!(wal.iter().all(|io| io.lba.sector() < wal_len));
    }

    #[test]
    fn reads_are_mostly_random_with_hot_tail() {
        let mut wl = small();
        let ios = drive(&mut wl, 20_000);
        let reads: Vec<&BlockIo> = ios.iter().filter(|io| io.direction.is_read()).collect();
        assert!(reads.len() > 100);
        let distinct: std::collections::HashSet<u64> =
            reads.iter().map(|io| io.lba.sector()).collect();
        // Zipf popularity skew means some pages repeat, but the stream must
        // still spread broadly (it is spatially random).
        assert!(distinct.len() > reads.len() / 4, "reads too repetitive");
    }

    #[test]
    fn access_skew_concentrates_popularity() {
        let skewed = {
            let mut wl = small();
            let ios = drive(&mut wl, 20_000);
            let reads: Vec<u64> = ios
                .iter()
                .filter(|io| io.direction.is_read())
                .map(|io| io.lba.sector())
                .collect();
            let mut counts = std::collections::HashMap::new();
            for r in &reads {
                *counts.entry(*r).or_insert(0u32) += 1;
            }
            let max = *counts.values().max().unwrap();
            (reads.len(), max)
        };
        let uniform = {
            let mut wl = Dbt2Workload::new(
                "dbt2",
                Dbt2Params {
                    connections: 4,
                    db_bytes: 512 * 1024 * 1024,
                    think: Dist::constant(1_000.0),
                    access_skew: None,
                    ..Default::default()
                },
                SimRng::seed_from(1),
            );
            let ios = drive(&mut wl, 20_000);
            let reads: Vec<u64> = ios
                .iter()
                .filter(|io| io.direction.is_read())
                .map(|io| io.lba.sector())
                .collect();
            let mut counts = std::collections::HashMap::new();
            for r in &reads {
                *counts.entry(*r).or_insert(0u32) += 1;
            }
            (reads.len(), *counts.values().max().unwrap())
        };
        assert!(
            skewed.1 > uniform.1,
            "skewed hottest page ({}) should beat uniform ({})",
            skewed.1,
            uniform.1
        );
    }

    #[test]
    fn determinism() {
        let ios1 = drive(&mut small(), 2_000);
        let ios2 = drive(&mut small(), 2_000);
        assert_eq!(ios1, ios2);
    }

    #[test]
    fn wal_suppressed_when_on_a_separate_disk() {
        let mut wl = Dbt2Workload::new(
            "dbt2",
            Dbt2Params {
                connections: 4,
                db_bytes: 512 * 1024 * 1024,
                think: Dist::constant(1_000.0),
                emit_wal: false,
                ..Default::default()
            },
            SimRng::seed_from(1),
        );
        let ios = drive(&mut wl, 20_000);
        assert!(wl.transactions > 10, "txns still complete without WAL");
        assert!(
            ios.iter().all(|io| io.tag < WAL_TAG_BASE),
            "no WAL I/Os may be issued"
        );
        // Data writes (background writer) still happen.
        assert!(ios.iter().any(|io| io.direction.is_write()));
    }
}
