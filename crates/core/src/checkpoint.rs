//! The crash-consistency plane: durable `VSCKPT2` checkpoints of the
//! whole [`StatsService`], written atomically on a virtual-clock cadence,
//! restored on startup with zero loss up to the last durable snapshot.
//!
//! # The durability contract
//!
//! A checkpoint is one self-verifying file holding a complete
//! [`ServiceCheckpoint`]: every collector's exact state (its histogram
//! set, the seek window ring, the in-flight census, the interval series,
//! the 2-D correlation matrix), every shard governor's
//! posture and admission ledger, the retained salvage records, the
//! restart epoch, the fleet frame sequence, and each active tracer's
//! replay watermark. Restoring it rebuilds a service whose observable
//! surfaces — `FetchAllHistograms`, health, fleet frames — are
//! bit-identical to the checkpointed one.
//!
//! # Write discipline
//!
//! Every write follows the classic atomic-replace protocol
//! ([`publish_atomic`]):
//!
//! 1. encode the full [`frame`] (`VSCKPT2` magic ‖ length ‖ CRC ‖ payload);
//! 2. write it to a `.tmp` sibling;
//! 3. `fsync` the `.tmp` file;
//! 4. `rename` it over the final `ckpt-<seq>.vsckpt` name.
//!
//! A crash at any point leaves either the previous checkpoint intact or a
//! `.tmp` orphan that recovery ignores. A torn write, a dropped fsync, or
//! a reordered rename (all injectable through
//! [`Medium`] — `faultkit` wraps it) at worst produces a file
//! whose CRC does not verify; [`load_latest`] skips it and falls back to
//! the next-newest durable checkpoint, so recovery *never* panics and
//! never loads a half-written snapshot.
//!
//! # Accounting
//!
//! Every attempt is booked in exactly one [`CheckpointLedger`] bucket:
//! `written + torn + fsync_dropped + io_errors == attempts`, always. The
//! taint channel ([`MediumFile::taint`](crate::MediumFile::taint)) is how a
//! fault-injecting medium reports — for accounting only — that an
//! apparently successful write was silently sabotaged; the filesystem
//! medium never taints.
//!
//! # Recovery invariant
//!
//! `recovered state == last durable checkpoint + replayable trace tail`.
//! The checkpoint stores, per traced target, the tracer's
//! `next_event_seq` watermark `W`. Trace records with `serial >= W` (and
//! completions with `complete_seq >= W`) happened after the snapshot;
//! replaying just those on top of the restored collectors reproduces the
//! pre-crash state exactly, because records below `W` are already inside
//! the checkpointed histograms and the checkpoint carries the in-flight
//! census needed to complete commands that were outstanding at snapshot
//! time. Only the tail *after the last durable trace block* is lost, and
//! it is booked as lost — never silently absorbed.
//!
//! # Format revisions
//!
//! ```text
//! VSCKPT2  per collector: slab[233]  aggregates[16]  -- the stored slots of
//!          `HistogramSet`, in `HistogramSet::stored_slots` order
//! VSCKPT1  per collector: slab[300]  aggregates[21]  -- every metric × lens
//!          pair, `All` `Reads` `Writes` per metric; read-only
//! ```
//!
//! The rest of the payload is the same in both. Durable bytes outlive the
//! process that wrote them — the checkpoint a host recovers from after an
//! upgrade was written by the build before it — so
//! [`ServiceCheckpoint::decode`] still reads `VSCKPT1`: it keeps the
//! stored slots and refuses a file whose derived `All` slot is not the
//! sum of its `Reads` and `Writes` slots, which no `VSCKPT1` writer could
//! have produced. Nothing writes `VSCKPT1` any more; re-encoding a
//! recovered checkpoint writes `VSCKPT2`. (A fleet frame is the opposite
//! case: it lives for one poll, both ends are rebuilt together, and its
//! previous revision is simply refused.)

use crate::collector::{CollectorConfig, CollectorState, HistogramState};
use crate::frame;
use crate::histogram_set::{HistogramSet, SlotAgg};
use crate::medium::{publish_atomic, FsMedium, Medium, WriteTaint};
use crate::sentinel::{DegradeLevel, LoadCounters, SalvageRecord, SalvagedTarget, SentinelState};
use crate::service::StatsService;
use crate::varint::{self, unzigzag, unzigzag128, zigzag, zigzag128};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use vscsi::{TargetId, VDiskId, VmId};

/// Magic prefix of every checkpoint file this build writes.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"VSCKPT2\0";

/// Magic of the previous revision, which [`ServiceCheckpoint::decode`]
/// still reads: the same payload, except that each collector's histogram
/// set held all 21 (metric, lens) slots.
const CHECKPOINT_MAGIC_V1: [u8; 8] = *b"VSCKPT1\0";

/// File extension of a durable checkpoint.
pub const CHECKPOINT_EXTENSION: &str = "vsckpt";

/// One target's slice of a checkpoint: its collector state (if histogram
/// collection ever touched it) and, when a trace is active, the tracer's
/// replay watermark.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetCheckpoint {
    /// The (VM, disk) pair.
    pub target: TargetId,
    /// Complete collector export, when the target has a collector.
    pub collector: Option<CollectorState>,
    /// The tracer's `next_event_seq` at snapshot time, when a trace is
    /// active: recovery replays durable trace records with sequence at or
    /// above this on top of the restored collector.
    pub tracer_watermark: Option<u64>,
}

/// A complete, plain-data snapshot of a [`StatsService`] — what the
/// `VSCKPT2` codec persists and [`StatsService::from_checkpoint`]
/// restores. Produced by [`StatsService::checkpoint_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCheckpoint {
    /// The shared collector configuration (every collector in a service is
    /// built from the same template, so it is stored once).
    pub config: CollectorConfig,
    /// Restart epoch at snapshot time.
    pub epoch: u64,
    /// Fleet frame sequence at snapshot time (continued on restore).
    pub frame_seq: u64,
    /// Whether collection was enabled.
    pub enabled: bool,
    /// Whether the sentinel supervision layer was armed. The *config* is
    /// operator policy and is re-supplied at restore time; this flag lets
    /// recovery assert the policy was re-attached.
    pub sentinel_on: bool,
    /// Shard table size (a power of two; targets re-route identically).
    pub shard_count: u32,
    /// Total quarantine salvages, including beyond the retention cap.
    pub salvages_total: u64,
    /// Watchdog trips against shards.
    pub shard_watchdog_trips: u64,
    /// One governor state per shard, in shard order.
    pub sentinels: Vec<SentinelState>,
    /// Retained quarantine salvage records.
    pub salvages: Vec<SalvageRecord>,
    /// Every target with state, in target order.
    pub targets: Vec<TargetCheckpoint>,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Streaming decoder over a checkpoint payload: varint reads with
/// total-error handling (truncation and overlong encodings surface as
/// `Err`, never panics).
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn u64(&mut self) -> Result<u64, String> {
        varint::decode_u64(self.buf, &mut self.pos).ok_or_else(|| "truncated varint".to_owned())
    }

    fn usize_bounded(&mut self, what: &str, max: u64) -> Result<usize, String> {
        let v = self.u64()?;
        if v > max {
            return Err(format!("{what} {v} exceeds bound {max}"));
        }
        Ok(v as usize)
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(unzigzag(self.u64()?))
    }

    fn i128(&mut self) -> Result<i128, String> {
        let lo = self.u64()?;
        let hi = self.u64()?;
        Ok(unzigzag128(u128::from(lo) | (u128::from(hi) << 64)))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid bool {other}")),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        u32::try_from(self.u64()?).map_err(|_| format!("{what} overflows u32"))
    }

    fn vec_u64(&mut self, what: &str, max: u64) -> Result<Vec<u64>, String> {
        let n = self.usize_bounded(what, max)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after checkpoint payload",
                self.buf.len() - self.pos
            ))
        }
    }
}

fn put_u64(v: u64, out: &mut Vec<u8>) {
    varint::encode_u64(v, out);
}

fn put_i64(v: i64, out: &mut Vec<u8>) {
    put_u64(zigzag(v), out);
}

fn put_i128(v: i128, out: &mut Vec<u8>) {
    let z = zigzag128(v);
    put_u64(z as u64, out);
    put_u64((z >> 64) as u64, out);
}

fn put_bool(v: bool, out: &mut Vec<u8>) {
    put_u64(u64::from(v), out);
}

fn put_opt_u64(v: Option<u64>, out: &mut Vec<u8>) {
    match v {
        Some(v) => {
            put_bool(true, out);
            put_u64(v, out);
        }
        None => put_bool(false, out),
    }
}

fn put_vec_u64(values: &[u64], out: &mut Vec<u8>) {
    put_u64(values.len() as u64, out);
    for &v in values {
        put_u64(v, out);
    }
}

/// Sanity bound on decoded collection lengths: no legitimate checkpoint
/// holds more than this many elements in any one vector, so a corrupt
/// length varint fails fast instead of attempting a huge allocation.
const MAX_LEN: u64 = 1 << 24;

fn put_histogram_state(h: &HistogramState, out: &mut Vec<u8>) {
    put_vec_u64(&h.counts, out);
    put_i128(h.sum, out);
    match h.min_max {
        Some((min, max)) => {
            put_bool(true, out);
            put_i64(min, out);
            put_i64(max, out);
        }
        None => put_bool(false, out),
    }
}

fn get_histogram_state(d: &mut Dec<'_>) -> Result<HistogramState, String> {
    let counts = d.vec_u64("interval bins", MAX_LEN)?;
    let sum = d.i128()?;
    let min_max = if d.bool()? {
        Some((d.i64()?, d.i64()?))
    } else {
        None
    };
    Ok(HistogramState {
        counts,
        sum,
        min_max,
    })
}

fn put_collector_state(s: &CollectorState, out: &mut Vec<u8>) {
    // The config is intentionally absent: all of a service's collectors
    // share its config template, stored once at the checkpoint level.
    put_vec_u64(s.set.counters(), out);
    put_u64(s.set.aggregates().len() as u64, out);
    for a in s.set.aggregates() {
        put_u64(a.total, out);
        put_i128(a.sum, out);
        put_i64(a.min, out);
        put_i64(a.max, out);
    }
    put_vec_u64(&s.window_ends, out);
    put_u64(s.window_cursor, out);
    put_u64(s.window_filled, out);
    put_opt_u64(s.last_end_block, out);
    put_opt_u64(s.last_end_block_by_dir[0], out);
    put_opt_u64(s.last_end_block_by_dir[1], out);
    put_opt_u64(s.last_arrival_ns, out);
    put_u64(u64::from(s.outstanding), out);
    put_u64(u64::from(s.outstanding_by_dir[0]), out);
    put_u64(u64::from(s.outstanding_by_dir[1]), out);
    put_u64(s.issued_commands, out);
    put_u64(s.completed_commands, out);
    put_u64(s.error_commands, out);
    put_u64(s.clock_anomalies, out);
    put_u64(s.bytes_read, out);
    put_u64(s.bytes_written, out);
    put_u64(s.latency_intervals.len() as u64, out);
    for h in &s.latency_intervals {
        put_histogram_state(h, out);
    }
    put_u64(s.outstanding_intervals.len() as u64, out);
    for h in &s.outstanding_intervals {
        put_histogram_state(h, out);
    }
    // In-flight census: keys are sorted, so delta-encode them.
    put_u64(s.inflight_seeks.len() as u64, out);
    let mut prev = 0u64;
    for &(key, seek) in &s.inflight_seeks {
        put_u64(varint::delta(prev, key), out);
        put_i64(seek, out);
        prev = key;
    }
    match &s.seek_latency_counts {
        Some(counts) => {
            put_bool(true, out);
            put_vec_u64(counts, out);
        }
        None => put_bool(false, out),
    }
}

fn get_collector_state(
    d: &mut Dec<'_>,
    config: &CollectorConfig,
    v1: bool,
) -> Result<CollectorState, String> {
    let slab = d.vec_u64("slab", MAX_LEN)?;
    let agg_count = d.usize_bounded("agg count", MAX_LEN)?;
    let mut aggs = Vec::with_capacity(agg_count);
    for _ in 0..agg_count {
        aggs.push(SlotAgg {
            total: d.u64()?,
            sum: d.i128()?,
            min: d.i64()?,
            max: d.i64()?,
        });
    }
    let set = if v1 {
        HistogramSet::from_v1_parts(&slab, &aggs)?
    } else {
        HistogramSet::from_parts(&slab, &aggs)?
    };
    let window_ends = d.vec_u64("window ring", MAX_LEN)?;
    let window_cursor = d.u64()?;
    let window_filled = d.u64()?;
    let last_end_block = d.opt_u64()?;
    let last_end_block_by_dir = [d.opt_u64()?, d.opt_u64()?];
    let last_arrival_ns = d.opt_u64()?;
    let outstanding = d.u32("outstanding")?;
    let outstanding_by_dir = [d.u32("outstanding[r]")?, d.u32("outstanding[w]")?];
    let issued_commands = d.u64()?;
    let completed_commands = d.u64()?;
    let error_commands = d.u64()?;
    let clock_anomalies = d.u64()?;
    let bytes_read = d.u64()?;
    let bytes_written = d.u64()?;
    let lat_count = d.usize_bounded("latency intervals", MAX_LEN)?;
    let mut latency_intervals = Vec::with_capacity(lat_count);
    for _ in 0..lat_count {
        latency_intervals.push(get_histogram_state(d)?);
    }
    let oio_count = d.usize_bounded("outstanding intervals", MAX_LEN)?;
    let mut outstanding_intervals = Vec::with_capacity(oio_count);
    for _ in 0..oio_count {
        outstanding_intervals.push(get_histogram_state(d)?);
    }
    let inflight_count = d.usize_bounded("inflight census", MAX_LEN)?;
    let mut inflight_seeks = Vec::with_capacity(inflight_count);
    let mut prev = 0u64;
    for _ in 0..inflight_count {
        let key = varint::apply_delta(prev, d.u64()?);
        let seek = d.i64()?;
        inflight_seeks.push((key, seek));
        prev = key;
    }
    let seek_latency_counts = if d.bool()? {
        Some(d.vec_u64("2-D matrix", MAX_LEN)?)
    } else {
        None
    };
    let state = CollectorState {
        config: config.clone(),
        set,
        window_ends,
        window_cursor,
        window_filled,
        last_end_block,
        last_end_block_by_dir,
        last_arrival_ns,
        outstanding,
        outstanding_by_dir,
        issued_commands,
        completed_commands,
        error_commands,
        clock_anomalies,
        bytes_read,
        bytes_written,
        latency_intervals,
        outstanding_intervals,
        inflight_seeks,
        seek_latency_counts,
    };
    state.validate()?;
    Ok(state)
}

fn put_sentinel_state(s: &SentinelState, out: &mut Vec<u8>) {
    put_u64(s.level.index() as u64, out);
    put_u64(s.window_start_ns, out);
    put_u64(s.window_events, out);
    put_u64(u64::from(s.calm_windows), out);
    put_u64(s.level_transitions, out);
    put_u64(s.memory_bytes, out);
    put_u64(u64::from(s.chaos_fired), out);
    put_u64(s.generation, out);
    let c = &s.counters;
    put_u64(c.offered, out);
    put_u64(c.ingested, out);
    put_u64(c.sampled_out, out);
    put_u64(c.shed, out);
    for &v in &c.offered_at_level {
        put_u64(v, out);
    }
    put_u64(c.light_events, out);
    put_u64(c.light_bytes, out);
    put_u64(c.stale_completions, out);
    put_u64(c.quarantines, out);
}

fn get_sentinel_state(d: &mut Dec<'_>) -> Result<SentinelState, String> {
    let level = DegradeLevel::from_index(d.usize_bounded("degrade level", 3)?)
        .ok_or_else(|| "invalid degrade level".to_owned())?;
    let window_start_ns = d.u64()?;
    let window_events = d.u64()?;
    let calm_windows = d.u32("calm windows")?;
    let level_transitions = d.u64()?;
    let memory_bytes = d.u64()?;
    let chaos_fired = d.u32("chaos fired")?;
    let generation = d.u64()?;
    let counters = LoadCounters {
        offered: d.u64()?,
        ingested: d.u64()?,
        sampled_out: d.u64()?,
        shed: d.u64()?,
        offered_at_level: [d.u64()?, d.u64()?, d.u64()?, d.u64()?],
        light_events: d.u64()?,
        light_bytes: d.u64()?,
        stale_completions: d.u64()?,
        quarantines: d.u64()?,
    };
    Ok(SentinelState {
        level,
        window_start_ns,
        window_events,
        calm_windows,
        level_transitions,
        memory_bytes,
        chaos_fired,
        generation,
        counters,
    })
}

impl ServiceCheckpoint {
    /// Encodes this checkpoint (tagged with the monotonic checkpoint
    /// sequence number `seq`) as a complete self-verifying `VSCKPT2`
    /// [`frame`]: magic ‖ `payload_len:u32le` ‖
    /// `crc32(magic ‖ payload):u32le` ‖ payload.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut p = Vec::with_capacity(4096);
        put_u64(seq, &mut p);
        put_u64(self.epoch, &mut p);
        put_u64(self.frame_seq, &mut p);
        put_bool(self.enabled, &mut p);
        put_bool(self.sentinel_on, &mut p);
        put_u64(u64::from(self.shard_count), &mut p);
        put_u64(self.salvages_total, &mut p);
        put_u64(self.shard_watchdog_trips, &mut p);
        put_u64(self.config.window_capacity as u64, &mut p);
        put_opt_u64(self.config.series_interval.map(|d| d.as_nanos()), &mut p);
        put_bool(self.config.correlate_seek_latency, &mut p);
        put_u64(self.sentinels.len() as u64, &mut p);
        for s in &self.sentinels {
            put_sentinel_state(s, &mut p);
        }
        put_u64(self.salvages.len() as u64, &mut p);
        for r in &self.salvages {
            put_u64(r.shard as u64, &mut p);
            put_u64(r.generation, &mut p);
            put_u64(r.at_ns, &mut p);
            put_u64(r.targets.len() as u64, &mut p);
            for t in &r.targets {
                put_u64(u64::from(t.target.vm.0), &mut p);
                put_u64(u64::from(t.target.disk.0), &mut p);
                put_u64(t.issued, &mut p);
                put_u64(t.completed, &mut p);
                put_u64(u64::from(t.outstanding), &mut p);
                put_vec_u64(&t.error_outcomes, &mut p);
            }
        }
        put_u64(self.targets.len() as u64, &mut p);
        for t in &self.targets {
            put_u64(u64::from(t.target.vm.0), &mut p);
            put_u64(u64::from(t.target.disk.0), &mut p);
            match &t.collector {
                Some(c) => {
                    put_bool(true, &mut p);
                    put_collector_state(c, &mut p);
                }
                None => put_bool(false, &mut p),
            }
            put_opt_u64(t.tracer_watermark, &mut p);
        }
        frame::seal(&CHECKPOINT_MAGIC, &p).expect("checkpoint payload fits the frame's u32 length")
    }

    /// Decodes a `VSCKPT2` frame — or a `VSCKPT1` one, whose histogram
    /// sets are narrowed to the stored slots (module docs, "Format
    /// revisions") — into `(seq, checkpoint)`. Total: every
    /// corruption mode — truncation, bit flips, bad magic, bad lengths,
    /// structurally impossible states — returns `Err`, never panics, so a
    /// torn or sabotaged checkpoint file is safely skippable.
    pub fn decode(bytes: &[u8]) -> Result<(u64, ServiceCheckpoint), String> {
        let v1 = bytes.starts_with(&CHECKPOINT_MAGIC_V1);
        let magic = if v1 {
            &CHECKPOINT_MAGIC_V1
        } else {
            &CHECKPOINT_MAGIC
        };
        let mut d = Dec {
            buf: frame::open(magic, bytes)?,
            pos: 0,
        };
        let seq = d.u64()?;
        let epoch = d.u64()?;
        let frame_seq = d.u64()?;
        let enabled = d.bool()?;
        let sentinel_on = d.bool()?;
        let shard_count = d.u32("shard count")?;
        if shard_count == 0 || !shard_count.is_power_of_two() {
            return Err(format!("shard count {shard_count} not a power of two"));
        }
        let salvages_total = d.u64()?;
        let shard_watchdog_trips = d.u64()?;
        let window_capacity = d.usize_bounded("window capacity", MAX_LEN)?;
        if window_capacity == 0 {
            return Err("window capacity is zero".to_owned());
        }
        let series_interval = match d.opt_u64()? {
            Some(0) => return Err("zero series interval".to_owned()),
            Some(ns) => Some(simkit::SimDuration::from_nanos(ns)),
            None => None,
        };
        let correlate_seek_latency = d.bool()?;
        let config = CollectorConfig {
            window_capacity,
            series_interval,
            correlate_seek_latency,
        };
        let sentinel_count = d.usize_bounded("sentinel count", MAX_LEN)?;
        if sentinel_count != shard_count as usize {
            return Err(format!(
                "{sentinel_count} sentinel states for {shard_count} shards"
            ));
        }
        let mut sentinels = Vec::with_capacity(sentinel_count);
        for _ in 0..sentinel_count {
            sentinels.push(get_sentinel_state(&mut d)?);
        }
        let salvage_count = d.usize_bounded("salvage count", MAX_LEN)?;
        let mut salvages = Vec::with_capacity(salvage_count);
        for _ in 0..salvage_count {
            let shard = d.usize_bounded("salvage shard", MAX_LEN)?;
            let generation = d.u64()?;
            let at_ns = d.u64()?;
            let target_count = d.usize_bounded("salvage targets", MAX_LEN)?;
            let mut targets = Vec::with_capacity(target_count);
            for _ in 0..target_count {
                let vm = d.u32("salvage vm")?;
                let disk = d.u32("salvage disk")?;
                let issued = d.u64()?;
                let completed = d.u64()?;
                let outstanding = d.u32("salvage outstanding")?;
                let error_outcomes = d.vec_u64("salvage outcomes", MAX_LEN)?;
                targets.push(SalvagedTarget {
                    target: TargetId::new(VmId(vm), VDiskId(disk)),
                    issued,
                    completed,
                    outstanding,
                    error_outcomes,
                });
            }
            salvages.push(SalvageRecord {
                shard,
                generation,
                at_ns,
                targets,
            });
        }
        let target_count = d.usize_bounded("target count", MAX_LEN)?;
        let mut targets = Vec::with_capacity(target_count);
        for _ in 0..target_count {
            let vm = d.u32("target vm")?;
            let disk = d.u32("target disk")?;
            let collector = if d.bool()? {
                Some(get_collector_state(&mut d, &config, v1)?)
            } else {
                None
            };
            let tracer_watermark = d.opt_u64()?;
            targets.push(TargetCheckpoint {
                target: TargetId::new(VmId(vm), VDiskId(disk)),
                collector,
                tracer_watermark,
            });
        }
        d.done()?;
        Ok((
            seq,
            ServiceCheckpoint {
                config,
                epoch,
                frame_seq,
                enabled,
                sentinel_on,
                shard_count,
                salvages_total,
                shard_watchdog_trips,
                sentinels,
                salvages,
                targets,
            },
        ))
    }
}

// ---------------------------------------------------------------------------
// Files, ledger, health
// ---------------------------------------------------------------------------

/// A durable checkpoint file identified in a checkpoint directory:
/// `ckpt-<seq>.vsckpt`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CheckpointFile {
    /// The checkpoint sequence number from the file name.
    pub seq: u64,
    /// Full path.
    pub path: PathBuf,
}

impl CheckpointFile {
    /// The file name for checkpoint `seq`.
    pub(crate) fn name(seq: u64) -> String {
        format!("ckpt-{seq:010}.{CHECKPOINT_EXTENSION}")
    }

    /// Parses a directory entry; `None` for anything that is not a final
    /// checkpoint file (`.tmp` orphans, the trace segments, stray files).
    pub fn parse(path: &Path) -> Option<CheckpointFile> {
        if path.extension()? != CHECKPOINT_EXTENSION {
            return None;
        }
        let stem = path.file_stem()?.to_str()?;
        let seq = stem.strip_prefix("ckpt-")?.parse().ok()?;
        Some(CheckpointFile {
            seq,
            path: path.to_path_buf(),
        })
    }
}

/// Exact accounting for checkpoint I/O. Every attempt lands in exactly
/// one bucket, so [`CheckpointLedger::conserves`] holds at every instant:
/// `written + torn + fsync_dropped + io_errors == attempts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointLedger {
    /// Checkpoint writes started.
    pub attempts: u64,
    /// Completed untainted: written, fsynced, renamed.
    pub written: u64,
    /// Completed but torn by the medium (bytes silently truncated).
    pub torn: u64,
    /// Completed but the fsync was silently dropped by the medium.
    pub fsync_dropped: u64,
    /// Failed with an I/O error at any stage.
    pub io_errors: u64,
}

impl CheckpointLedger {
    /// The conservation identity.
    pub fn conserves(&self) -> bool {
        self.written + self.torn + self.fsync_dropped + self.io_errors == self.attempts
    }
}

/// Shared health surface of a [`CheckpointDaemon`]: the live ledger, the
/// last durable checkpoint, and the request channel behind
/// `command("checkpoint")`. All atomics — readable from any thread
/// while the daemon runs.
#[derive(Debug)]
pub struct CheckpointHealth {
    attempts: AtomicU64,
    written: AtomicU64,
    torn: AtomicU64,
    fsync_dropped: AtomicU64,
    io_errors: AtomicU64,
    /// Sequence of the last checkpoint that completed untainted
    /// (`u64::MAX` = none yet).
    last_durable_seq: AtomicU64,
    /// Virtual timestamp of that checkpoint.
    last_durable_ns: AtomicU64,
    /// Virtual timestamp of the last daemon tick (for age rendering).
    last_tick_ns: AtomicU64,
    /// Set by `command("checkpoint")`; consumed by the next tick.
    requested: AtomicBool,
}

impl Default for CheckpointHealth {
    /// Nothing attempted, nothing durable (`u64::MAX` sentinel).
    fn default() -> Self {
        CheckpointHealth {
            attempts: AtomicU64::new(0),
            written: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            fsync_dropped: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            last_durable_seq: AtomicU64::new(u64::MAX),
            last_durable_ns: AtomicU64::new(0),
            last_tick_ns: AtomicU64::new(0),
            requested: AtomicBool::new(false),
        }
    }
}

impl CheckpointHealth {
    /// Snapshot of the I/O ledger.
    pub fn ledger(&self) -> CheckpointLedger {
        CheckpointLedger {
            attempts: self.attempts.load(Ordering::Acquire),
            written: self.written.load(Ordering::Acquire),
            torn: self.torn.load(Ordering::Acquire),
            fsync_dropped: self.fsync_dropped.load(Ordering::Acquire),
            io_errors: self.io_errors.load(Ordering::Acquire),
        }
    }

    /// The last durable checkpoint sequence, if any completed untainted.
    pub fn last_durable_seq(&self) -> Option<u64> {
        match self.last_durable_seq.load(Ordering::Acquire) {
            u64::MAX => None,
            seq => Some(seq),
        }
    }

    /// Virtual nanoseconds between the last tick and the last durable
    /// checkpoint — how stale a restore-right-now would be.
    pub(crate) fn age_ns(&self) -> Option<u64> {
        self.last_durable_seq()?;
        Some(
            self.last_tick_ns
                .load(Ordering::Acquire)
                .saturating_sub(self.last_durable_ns.load(Ordering::Acquire)),
        )
    }

    /// Requests an immediate checkpoint from the daemon's next tick
    /// (the seam behind `command("checkpoint")`).
    pub(crate) fn request_now(&self) {
        self.requested.store(true, Ordering::Release);
    }

    fn take_request(&self) -> bool {
        self.requested.swap(false, Ordering::AcqRel)
    }

    /// One-line operator rendering: last durable seq, age, and failure
    /// counters — the row `command("health")` displays.
    pub(crate) fn render(&self) -> String {
        let l = self.ledger();
        let (seq, age) = match (self.last_durable_seq(), self.age_ns()) {
            (Some(seq), Some(age)) => (seq.to_string(), format!("{}us", age / 1_000)),
            _ => ("none".to_owned(), "-".to_owned()),
        };
        format!(
            "last_durable_seq={seq} age={age} attempts={} written={} torn={} \
             fsync_dropped={} io_errors={} conserved={}",
            l.attempts,
            l.written,
            l.torn,
            l.fsync_dropped,
            l.io_errors,
            l.conserves(),
        )
    }
}

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

/// Configuration for a [`CheckpointDaemon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory checkpoints are written into (must exist).
    pub dir: PathBuf,
    /// Virtual-clock cadence between checkpoints.
    pub interval_ns: u64,
    /// Checkpoint files to retain (older ones are trimmed; minimum 1).
    /// The newest durable checkpoint survives however many tainted
    /// writes follow it.
    pub retain: usize,
}

impl CheckpointConfig {
    /// A sensible default: 1-second virtual cadence, keep 3.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            interval_ns: 1_000_000_000,
            retain: 3,
        }
    }
}

/// The checkpoint writer: snapshots the service and persists it with the
/// write-tmp → fsync → rename discipline, on a virtual-clock cadence.
///
/// Deterministic: the caller drives [`CheckpointDaemon::tick`] from its
/// own (virtual) clock; the daemon owns no thread.
#[derive(Debug)]
pub struct CheckpointDaemon {
    service: Arc<StatsService>,
    config: CheckpointConfig,
    medium: Box<dyn Medium>,
    health: Arc<CheckpointHealth>,
    next_seq: u64,
    next_due_ns: Option<u64>,
}

impl CheckpointDaemon {
    /// Creates a daemon writing through the real filesystem.
    pub fn new(service: Arc<StatsService>, config: CheckpointConfig) -> Self {
        CheckpointDaemon::with_medium(service, config, Box::new(FsMedium))
    }

    /// Creates a daemon writing through an arbitrary medium (the fault
    /// injection seam). Resumes the sequence numbering after any
    /// checkpoints already present in the directory, so a restarted
    /// daemon never reuses a sequence number.
    pub fn with_medium(
        service: Arc<StatsService>,
        config: CheckpointConfig,
        mut medium: Box<dyn Medium>,
    ) -> Self {
        let next_seq = medium
            .list(&config.dir)
            .unwrap_or_default()
            .iter()
            .filter_map(|p| CheckpointFile::parse(p))
            .map(|f| f.seq + 1)
            .max()
            .unwrap_or(0);
        CheckpointDaemon {
            service,
            config,
            medium,
            health: Arc::new(CheckpointHealth::default()),
            next_seq,
            next_due_ns: None,
        }
    }

    /// The shared health surface (attach it to the service to light up
    /// `command("checkpoint")` and the health row).
    pub fn health(&self) -> Arc<CheckpointHealth> {
        Arc::clone(&self.health)
    }

    /// One scheduler step at virtual time `now_ns`: writes a checkpoint
    /// if the cadence is due or one was requested, otherwise does
    /// nothing. Returns `None` when no write was attempted. The first
    /// tick anchors the cadence (and writes a baseline checkpoint).
    pub fn tick(&mut self, now_ns: u64) -> Option<io::Result<u64>> {
        self.health.last_tick_ns.store(now_ns, Ordering::Release);
        let requested = self.health.take_request();
        let due = match self.next_due_ns {
            None => true,
            Some(due) => now_ns >= due,
        };
        if !due && !requested {
            return None;
        }
        self.next_due_ns = Some(now_ns.saturating_add(self.config.interval_ns));
        Some(self.checkpoint_now(now_ns))
    }

    /// Unconditionally writes a checkpoint at virtual time `now_ns`,
    /// returning its sequence number. Books exactly one ledger bucket.
    pub(crate) fn checkpoint_now(&mut self, now_ns: u64) -> io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.health.attempts.fetch_add(1, Ordering::AcqRel);
        let result = self.write_checkpoint(seq, now_ns);
        match &result {
            Ok(_) => self.trim_retention(),
            Err(_) => {
                self.health.io_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
        result
    }

    fn write_checkpoint(&mut self, seq: u64, now_ns: u64) -> io::Result<u64> {
        let snapshot = self.service.checkpoint_snapshot();
        let bytes = snapshot.encode(seq);
        let final_path = self.config.dir.join(CheckpointFile::name(seq));
        let tmp_path = final_path.with_extension(format!("{CHECKPOINT_EXTENSION}.tmp"));
        match publish_atomic(self.medium.as_mut(), &tmp_path, &final_path, &bytes)? {
            None => {
                self.health.written.fetch_add(1, Ordering::AcqRel);
                self.health.last_durable_seq.store(seq, Ordering::Release);
                self.health.last_durable_ns.store(now_ns, Ordering::Release);
            }
            Some(WriteTaint::Torn) => {
                self.health.torn.fetch_add(1, Ordering::AcqRel);
            }
            Some(WriteTaint::FsyncDropped) => {
                self.health.fsync_dropped.fetch_add(1, Ordering::AcqRel);
            }
        }
        Ok(seq)
    }

    /// Removes final checkpoint files beyond the retention count, oldest
    /// first — but only files older than the durable frontier: a run of
    /// tainted writes must never push out the one checkpoint recovery can
    /// still load, and until this daemon has written something durable no
    /// file on disk is known to be superseded. Best-effort: removal
    /// failures are ignored (the files are merely stale, and recovery
    /// skips anything corrupt anyway).
    fn trim_retention(&mut self) {
        let Some(frontier) = self.health.last_durable_seq() else {
            return;
        };
        let Ok(paths) = self.medium.list(&self.config.dir) else {
            return;
        };
        let mut files: Vec<CheckpointFile> = paths
            .iter()
            .filter_map(|p| CheckpointFile::parse(p))
            .collect();
        files.sort();
        let excess = files.len().saturating_sub(self.config.retain.max(1));
        for f in files[..excess].iter().filter(|f| f.seq < frontier) {
            let _ = self.medium.remove(&f.path);
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Result of scanning a checkpoint directory for the newest durable
/// checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredCheckpoint {
    /// The recovered checkpoint's sequence number.
    pub seq: u64,
    /// The decoded checkpoint.
    pub checkpoint: ServiceCheckpoint,
    /// Newer checkpoint files that were present but failed to decode
    /// (torn writes, dropped fsyncs, read errors) and were skipped.
    pub skipped_corrupt: u32,
}

/// Finds and decodes the newest durable checkpoint in `dir`, newest
/// first, skipping (and counting) anything that fails to read or decode.
/// Total: torn files, CRC mismatches, and read errors all fall through
/// to the next-newest candidate; `None` means no durable checkpoint
/// exists (including a missing directory — the cold-start case).
pub fn load_latest(medium: &mut dyn Medium, dir: &Path) -> Option<RecoveredCheckpoint> {
    let paths = medium.list(dir).unwrap_or_default();
    let mut files: Vec<CheckpointFile> = paths
        .iter()
        .filter_map(|p| CheckpointFile::parse(p))
        .collect();
    files.sort();
    let mut skipped = 0u32;
    for f in files.iter().rev() {
        let Ok(bytes) = medium.read(&f.path) else {
            skipped += 1;
            continue;
        };
        match ServiceCheckpoint::decode(&bytes) {
            Ok((seq, checkpoint)) => {
                return Some(RecoveredCheckpoint {
                    seq,
                    checkpoint,
                    skipped_corrupt: skipped,
                });
            }
            Err(_) => skipped += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MediumFile;
    use crate::service::VscsiEvent;
    use simkit::SimTime;
    use std::fs;
    use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId};

    fn target(vm: u32, disk: u32) -> TargetId {
        TargetId::new(VmId(vm), VDiskId(disk))
    }

    fn feed(service: &StatsService, n: u64) {
        let mut events = Vec::new();
        for i in 0..n {
            let t = target((i % 3) as u32, 0);
            let req = IoRequest::new(
                RequestId(i),
                t,
                if i % 4 == 0 {
                    IoDirection::Write
                } else {
                    IoDirection::Read
                },
                Lba::new((i * 97) % (1 << 20)),
                8 << (i % 4),
                SimTime::from_micros(i * 120),
            );
            events.push(VscsiEvent::Issue(req));
            if i % 5 != 0 {
                events.push(VscsiEvent::Complete(IoCompletion::new(
                    req,
                    SimTime::from_micros(i * 120 + 300),
                )));
            }
        }
        service.handle_batch(&events);
    }

    fn busy_service() -> Arc<StatsService> {
        let service = Arc::new(StatsService::new(CollectorConfig::paper_figures()));
        service.enable_all();
        feed(&service, 500);
        service
    }

    #[test]
    fn snapshot_roundtrips_through_codec() {
        let service = busy_service();
        let snap = service.checkpoint_snapshot();
        let bytes = snap.encode(7);
        let (seq, decoded) = ServiceCheckpoint::decode(&bytes).expect("decode");
        assert_eq!(seq, 7);
        assert_eq!(decoded, snap);
    }

    #[test]
    fn restore_is_bit_identical() {
        let service = busy_service();
        let snap = service.checkpoint_snapshot();
        let restored = StatsService::from_checkpoint(&snap, None);
        assert_eq!(restored.checkpoint_snapshot(), snap);
        assert_eq!(
            restored.fetch_all_histograms(),
            service.fetch_all_histograms()
        );
        // And the restored service keeps *collecting* identically.
        feed(&service, 40);
        feed(&restored, 40);
        assert_eq!(
            restored.fetch_all_histograms(),
            service.fetch_all_histograms()
        );
    }

    #[test]
    fn decode_never_panics_on_corruption() {
        let service = busy_service();
        let bytes = service.checkpoint_snapshot().encode(1);
        // Truncations at every prefix length.
        for len in 0..bytes.len().min(64) {
            assert!(ServiceCheckpoint::decode(&bytes[..len]).is_err());
        }
        assert!(ServiceCheckpoint::decode(&bytes[..bytes.len() - 1]).is_err());
        // Single-byte corruption anywhere is caught by the CRC.
        for idx in [0, 8, 12, 16, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x41;
            assert!(ServiceCheckpoint::decode(&bad).is_err(), "byte {idx}");
        }
    }

    #[test]
    fn daemon_writes_atomically_and_recovers() {
        let dir = std::env::temp_dir().join(format!(
            "vsckpt-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let service = busy_service();
        let mut cfg = CheckpointConfig::new(&dir);
        cfg.retain = 2;
        let mut daemon = CheckpointDaemon::new(Arc::clone(&service), cfg);
        assert!(daemon.tick(0).expect("first tick writes").is_ok());
        assert!(daemon.tick(100).is_none(), "not due yet");
        feed(&service, 100);
        assert!(daemon.tick(2_000_000_000).expect("due").is_ok());
        assert!(daemon.tick(4_000_000_000).expect("due").is_ok());
        let ledger = daemon.health().ledger();
        assert_eq!(ledger.written, 3);
        assert!(ledger.conserves());
        // Retention trimmed to 2, no tmp orphans.
        let names: Vec<_> = fs::read_dir(&dir)
            .expect("readdir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names.iter().all(|n| n.ends_with(".vsckpt")), "{names:?}");
        // Recovery loads the newest and matches the live service.
        let rec = load_latest(&mut FsMedium, &dir).expect("recover");
        assert_eq!(rec.seq, 2);
        assert_eq!(rec.skipped_corrupt, 0);
        assert_eq!(rec.checkpoint, service.checkpoint_snapshot());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A medium that tears every write while `tear` is set: half the
    /// bytes land, the handle reports the taint.
    struct TearingMedium {
        tear: Arc<AtomicBool>,
    }

    struct TearingFile {
        inner: Box<dyn MediumFile>,
        torn: bool,
    }

    impl io::Write for TearingFile {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let keep = if self.torn { buf.len() / 2 } else { buf.len() };
            self.inner.write_all(&buf[..keep])?;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl MediumFile for TearingFile {
        fn sync_all(&mut self) -> io::Result<()> {
            self.inner.sync_all()
        }

        fn taint(&self) -> Option<WriteTaint> {
            self.torn.then_some(WriteTaint::Torn)
        }
    }

    impl Medium for TearingMedium {
        fn create(&mut self, path: &Path) -> io::Result<Box<dyn MediumFile>> {
            Ok(Box::new(TearingFile {
                inner: FsMedium.create(path)?,
                torn: self.tear.load(Ordering::Acquire),
            }))
        }
    }

    #[test]
    fn retention_never_trims_the_durable_frontier() {
        let dir = std::env::temp_dir().join(format!("vsckpt-retain-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let service = busy_service();
        let mut cfg = CheckpointConfig::new(&dir);
        cfg.retain = 2;
        let tear = Arc::new(AtomicBool::new(false));
        let medium = TearingMedium {
            tear: Arc::clone(&tear),
        };
        let mut daemon = CheckpointDaemon::with_medium(Arc::clone(&service), cfg, Box::new(medium));
        let good = service.checkpoint_snapshot();
        daemon.checkpoint_now(0).expect("clean write");
        // `retain` torn writes in a row: by sequence alone, seq 0 is now
        // the excess file — and the only one recovery can load.
        tear.store(true, Ordering::Release);
        daemon.checkpoint_now(1).expect("torn write");
        daemon.checkpoint_now(2).expect("torn write");
        let health = daemon.health();
        assert_eq!(health.ledger().written, 1);
        assert_eq!(health.ledger().torn, 2);
        assert_eq!(health.last_durable_seq(), Some(0));
        let rec = load_latest(&mut FsMedium, &dir).expect("the frontier survives");
        assert_eq!(rec.seq, 0);
        assert_eq!(rec.skipped_corrupt, 2);
        assert_eq!(rec.checkpoint, good);
        // The next durable write moves the frontier and trimming resumes.
        tear.store(false, Ordering::Release);
        daemon.checkpoint_now(3).expect("clean write");
        let mut seqs: Vec<u64> = fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| CheckpointFile::parse(&e.expect("entry").path()))
            .map(|f| f.seq)
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_skips_corrupt_newest() {
        let dir = std::env::temp_dir().join(format!("vsckpt-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let service = busy_service();
        let mut daemon = CheckpointDaemon::new(Arc::clone(&service), CheckpointConfig::new(&dir));
        let good = service.checkpoint_snapshot();
        daemon.tick(0).expect("write").expect("ok");
        // A newer, torn checkpoint: valid prefix, truncated tail.
        let torn = good.encode(9);
        fs::write(dir.join(CheckpointFile::name(9)), &torn[..torn.len() / 2]).expect("write torn");
        let rec = load_latest(&mut FsMedium, &dir).expect("recover");
        assert_eq!(rec.seq, 0, "fell back past the torn file");
        assert_eq!(rec.skipped_corrupt, 1);
        assert_eq!(rec.checkpoint, good);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn command_surface_requests_checkpoints() {
        let service = busy_service();
        assert!(service.command("checkpoint").is_err(), "nothing attached");
        let dir = std::env::temp_dir().join(format!("vsckpt-cmd-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let mut daemon = CheckpointDaemon::new(Arc::clone(&service), CheckpointConfig::new(&dir));
        service.attach_checkpoint_health(daemon.health());
        daemon.tick(0).expect("baseline").expect("ok");
        assert!(daemon.tick(10).is_none());
        let out = service.command("checkpoint").expect("request");
        assert!(out.contains("checkpoint requested"), "{out}");
        assert!(
            daemon.tick(20).expect("requested write").is_ok(),
            "request forces an off-cadence write"
        );
        let health = service.command("health").expect("health");
        assert!(
            health.contains("checkpoint: last_durable_seq=1"),
            "{health}"
        );
        assert!(health.contains("conserved=true"), "{health}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_file_names_parse() {
        let f = CheckpointFile::parse(Path::new("/x/ckpt-0000000042.vsckpt")).expect("parse");
        assert_eq!(f.seq, 42);
        assert_eq!(CheckpointFile::name(42), "ckpt-0000000042.vsckpt");
        assert!(CheckpointFile::parse(Path::new("/x/ckpt-1.vsckpt.tmp")).is_none());
        assert!(CheckpointFile::parse(Path::new("/x/seg-1.vseg")).is_none());
        assert!(CheckpointFile::parse(Path::new("/x/other.vsckpt")).is_none());
    }
}
