//! The shared storage array: cache + RAID group + spindle calendars.
//!
//! [`StorageArray::submit`] is the array's whole interface: given a
//! physical extent, a direction, and the submission instant, it returns the
//! completion instant. Internally each spindle is a FIFO *calendar*
//! resource (`busy_until`), so queueing delay — the mechanism behind the
//! paper's multi-VM interference results (Figure 6) — emerges naturally
//! when several initiators share the group.

use crate::cache::{ArrayCache, CacheParams};
use crate::disk::{Disk, DiskParams};
use crate::raid::{RaidConfig, RaidLevel};
use faultkit::{FaultOutcome, FaultPlan};
use simkit::{SimDuration, SimRng, SimTime};
use vscsi::{IoDirection, Lba, ScsiStatus, SenseKey, SECTOR_SIZE};

/// Full configuration of an array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayParams {
    /// Striping geometry.
    pub raid: RaidConfig,
    /// Cache behaviour.
    pub cache: CacheParams,
    /// Per-spindle mechanics.
    pub disk: DiskParams,
    /// Fixed controller/firmware cost added to every command.
    pub controller_overhead: SimDuration,
    /// Service time of a read served entirely from cache.
    pub cache_hit_latency: SimDuration,
    /// Latency to acknowledge a write absorbed by write-back cache.
    pub write_ack_latency: SimDuration,
    /// Host link bandwidth (4 Gb FC ≈ 400 MB/s), serializing data transfer.
    pub link_rate: u64,
    /// Time a command grinds inside the firmware (internal retries,
    /// re-reads) before surfacing `MEDIUM ERROR`.
    pub media_error_latency: SimDuration,
    /// Time to reject a command with `BUSY` / `UNIT ATTENTION` — a fast
    /// controller-level refusal, no media involved.
    pub fast_fail_latency: SimDuration,
}

impl Default for ArrayParams {
    fn default() -> Self {
        ArrayParams {
            raid: RaidConfig::new(RaidLevel::Raid0, 15, 128),
            cache: CacheParams::default(),
            disk: DiskParams::fc_15k(),
            controller_overhead: SimDuration::from_micros(30),
            cache_hit_latency: SimDuration::from_micros(120),
            write_ack_latency: SimDuration::from_micros(150),
            link_rate: 400_000_000,
            media_error_latency: SimDuration::from_millis(8),
            fast_fail_latency: SimDuration::from_micros(20),
        }
    }
}

/// Aggregate counters for evaluation harnesses.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArrayStats {
    /// Read commands submitted.
    pub reads: u64,
    /// Write commands submitted.
    pub writes: u64,
    /// Sectors read.
    pub read_sectors: u64,
    /// Sectors written.
    pub write_sectors: u64,
    /// Reads served entirely from cache.
    pub read_full_hits: u64,
    /// Commands failed with `MEDIUM ERROR` by the fault plan.
    pub media_errors: u64,
    /// Commands refused with `BUSY` by the fault plan.
    pub busy_rejections: u64,
    /// Commands failed with `UNIT ATTENTION` by the fault plan.
    pub unit_attentions: u64,
    /// Commands swallowed (no completion) by the fault plan.
    pub hangs: u64,
}

/// What the array did with a command submitted through the fallible
/// entry point [`StorageArray::submit_with_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// A completion (successful or failed) will surface at `at`.
    Completed {
        /// Completion instant.
        at: SimTime,
        /// SCSI outcome the completion carries.
        status: ScsiStatus,
    },
    /// The command was swallowed by a firmware hang: no completion will
    /// ever arrive. Only the initiator's timeout/abort path reclaims it.
    Hung,
}

/// A simulated storage array shared by all initiators that hold a
/// reference to it.
///
/// # Examples
///
/// ```
/// use simkit::{SimRng, SimTime};
/// use storage::{ArrayParams, StorageArray};
/// use vscsi::{IoDirection, Lba};
///
/// let mut array = StorageArray::new(ArrayParams::default(), SimRng::seed_from(1));
/// let done = array.submit(IoDirection::Read, Lba::new(0), 16, SimTime::ZERO);
/// assert!(done > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct StorageArray {
    params: ArrayParams,
    disks: Vec<Disk>,
    /// Per-spindle FIFO calendar: when the spindle next becomes free.
    busy_until: Vec<SimTime>,
    /// Host-link calendar (shared data path).
    link_busy_until: SimTime,
    cache: ArrayCache,
    stats: ArrayStats,
    /// Injected-fault schedule, if any (see the `faultkit` crate).
    fault_plan: Option<FaultPlan>,
}

impl StorageArray {
    /// Builds an array; each spindle gets an independent RNG sub-stream.
    pub fn new(params: ArrayParams, rng: SimRng) -> Self {
        let disks = (0..params.raid.disks)
            .map(|i| Disk::new(params.disk.clone(), rng.fork(&format!("disk{i}"))))
            .collect::<Vec<_>>();
        let busy_until = vec![SimTime::ZERO; params.raid.disks];
        StorageArray {
            cache: ArrayCache::new(params.cache.clone()),
            params,
            disks,
            busy_until,
            link_busy_until: SimTime::ZERO,
            stats: ArrayStats::default(),
            fault_plan: None,
        }
    }

    /// Attaches a fault plan; subsequent [`StorageArray::submit_with_faults`]
    /// calls consult it. Replaces any previous plan.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The array's configuration.
    pub fn params(&self) -> &ArrayParams {
        &self.params
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ArrayStats {
        self.stats
    }

    /// Read-cache state (hit/miss counters, residency).
    pub fn cache(&self) -> &ArrayCache {
        &self.cache
    }

    /// Submits one command at time `now`; returns its completion instant.
    ///
    /// Commands on the same spindle queue FCFS in submission order, so the
    /// caller must submit in non-decreasing `now` order for results to be
    /// meaningful (the hypervisor's event loop guarantees this).
    pub fn submit(
        &mut self,
        direction: IoDirection,
        lba: Lba,
        sectors: u64,
        now: SimTime,
    ) -> SimTime {
        debug_assert!(sectors > 0, "zero-length array command");
        match direction {
            IoDirection::Read => self.submit_read(lba, sectors, now),
            IoDirection::Write => self.submit_write(lba, sectors, now),
        }
    }

    /// Fallible variant of [`StorageArray::submit`]: consults the
    /// attached [`FaultPlan`] (if any) before servicing.
    ///
    /// * No plan, or the plan passes the command: normal service; an
    ///   active latency-spike window inflates the service portion of the
    ///   latency (queueing state is charged at normal speed, modelling a
    ///   slow *return* path rather than a slow spindle).
    /// * Media error: the firmware grinds for
    ///   [`ArrayParams::media_error_latency`] and fails the command;
    ///   spindles are not charged.
    /// * BUSY / UNIT ATTENTION: fast controller-level refusal after
    ///   [`ArrayParams::fast_fail_latency`].
    /// * Hang: [`Submission::Hung`] — no completion will ever arrive.
    pub fn submit_with_faults(
        &mut self,
        direction: IoDirection,
        lba: Lba,
        sectors: u64,
        now: SimTime,
    ) -> Submission {
        let decision = match self.fault_plan.as_mut() {
            Some(plan) => plan.decide(direction, lba, sectors.min(u64::from(u32::MAX)) as u32, now),
            None => faultkit::FaultDecision::healthy(),
        };
        let overhead = self.params.controller_overhead;
        match decision.outcome {
            FaultOutcome::None => {
                let done = self.submit(direction, lba, sectors, now);
                let at = if decision.latency_multiplier != 1.0 {
                    now + done
                        .saturating_since(now)
                        .mul_f64(decision.latency_multiplier)
                } else {
                    done
                };
                Submission::Completed {
                    at,
                    status: ScsiStatus::Good,
                }
            }
            FaultOutcome::MediumError => {
                self.stats.media_errors += 1;
                Submission::Completed {
                    at: now + overhead + self.params.media_error_latency,
                    status: ScsiStatus::CheckCondition(SenseKey::MediumError),
                }
            }
            FaultOutcome::UnitAttention => {
                self.stats.unit_attentions += 1;
                Submission::Completed {
                    at: now + overhead + self.params.fast_fail_latency,
                    status: ScsiStatus::CheckCondition(SenseKey::UnitAttention),
                }
            }
            FaultOutcome::Busy => {
                self.stats.busy_rejections += 1;
                Submission::Completed {
                    at: now + overhead + self.params.fast_fail_latency,
                    status: ScsiStatus::Busy,
                }
            }
            FaultOutcome::Hang => {
                self.stats.hangs += 1;
                Submission::Hung
            }
        }
    }

    fn submit_read(&mut self, lba: Lba, sectors: u64, now: SimTime) -> SimTime {
        self.stats.reads += 1;
        self.stats.read_sectors += sectors;
        let outcome = self.cache.read(lba, sectors);
        let start = now + self.params.controller_overhead;
        let link_done = self.claim_link(start, sectors);
        if outcome.is_full_hit() {
            self.stats.read_full_hits += 1;
            return link_done.max(start + self.params.cache_hit_latency);
        }
        // Fetch the whole request from the spindles (misses dominate once
        // any page misses; read-ahead makes true sequential runs full hits).
        let media_done = self.charge_extents(lba, sectors, start, 1);
        // Read-ahead happens in the background: it occupies the spindles
        // after this request but does not delay its completion.
        if outcome.readahead_sectors > 0 {
            let ra_start = media_done;
            let _ =
                self.charge_extents(lba.advance(sectors), outcome.readahead_sectors, ra_start, 1);
        }
        media_done.max(link_done)
    }

    fn submit_write(&mut self, lba: Lba, sectors: u64, now: SimTime) -> SimTime {
        self.stats.writes += 1;
        self.stats.write_sectors += sectors;
        let absorbed = self.cache.write(lba, sectors);
        let start = now + self.params.controller_overhead;
        let link_done = self.claim_link(start, sectors);
        let ops = self.params.raid.write_ops_per_extent();
        if absorbed {
            // Write-back: ack fast, destage in the background.
            let ack = link_done.max(start + self.params.write_ack_latency);
            let _ = self.charge_extents(lba, sectors, ack, ops);
            ack
        } else {
            let media_done = self.charge_extents(lba, sectors, start, ops);
            media_done.max(link_done)
        }
    }

    /// Queues the mapped extents on their spindles starting no earlier than
    /// `start`; returns when the last extent finishes. `ops` replays each
    /// extent that many times (RAID-5 read-modify-write amplification).
    fn charge_extents(&mut self, lba: Lba, sectors: u64, start: SimTime, ops: u32) -> SimTime {
        let mut done = start;
        for extent in self.params.raid.map(lba, sectors) {
            for _ in 0..ops {
                let begin = self.busy_until[extent.disk].max(start);
                let service = self.disks[extent.disk].service(extent.lba, extent.sectors);
                let finish = begin + service;
                self.busy_until[extent.disk] = finish;
                if finish > done {
                    done = finish;
                }
            }
        }
        done
    }

    /// Queues `sectors` of data transfer on the host link.
    fn claim_link(&mut self, start: SimTime, sectors: u64) -> SimTime {
        let begin = self.link_busy_until.max(start);
        let xfer = SimDuration::from_secs_f64(
            (sectors * SECTOR_SIZE) as f64 / self.params.link_rate as f64,
        );
        self.link_busy_until = begin + xfer;
        self.link_busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(cache: CacheParams) -> StorageArray {
        StorageArray::new(
            ArrayParams {
                cache,
                ..Default::default()
            },
            SimRng::seed_from(1),
        )
    }

    #[test]
    fn cache_hit_is_much_faster_than_miss() {
        let mut a = array(CacheParams::default());
        let t0 = SimTime::ZERO;
        let miss = a.submit(IoDirection::Read, Lba::new(0), 16, t0);
        let t1 = miss;
        let hit = a.submit(IoDirection::Read, Lba::new(0), 16, t1);
        let miss_lat = miss - t0;
        let hit_lat = hit - t1;
        assert!(hit_lat < miss_lat / 4, "hit {hit_lat}, miss {miss_lat}");
        assert_eq!(a.stats().read_full_hits, 1);
    }

    #[test]
    fn cache_off_never_hits() {
        let mut a = array(CacheParams::read_cache_off());
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            now = a.submit(IoDirection::Read, Lba::new(0), 16, now);
        }
        assert_eq!(a.stats().read_full_hits, 0);
    }

    #[test]
    fn queueing_delay_builds_under_burst() {
        let mut a = array(CacheParams::read_cache_off());
        // 8 random reads to the same spindle, all at t=0.
        let stripe = a.params().raid.stripe_sectors;
        let data_disks = a.params().raid.data_disks() as u64;
        let mut latencies = Vec::new();
        for i in 0..8u64 {
            // Same column every time: stripe-unit index multiple of data_disks.
            let lba = Lba::new(i * stripe * data_disks * 1000);
            let done = a.submit(IoDirection::Read, lba, 16, SimTime::ZERO);
            latencies.push(done - SimTime::ZERO);
        }
        for w in latencies.windows(2) {
            assert!(w[1] > w[0], "later submissions must queue behind earlier");
        }
    }

    #[test]
    fn striping_spreads_load() {
        let mut a = array(CacheParams::read_cache_off());
        let stripe = a.params().raid.stripe_sectors;
        // Sequential whole-stripe-unit reads land on successive spindles;
        // their completions should overlap rather than strictly serialize.
        let done_serial = {
            let mut b = a.clone();
            let mut last = SimTime::ZERO;
            for i in 0..4u64 {
                // Same spindle (stride by many full rows, defeating the
                // settle window so each access pays a seek).
                let lba = Lba::new(i * stripe * b.params().raid.data_disks() as u64 * 1000);
                last = b.submit(IoDirection::Read, lba, stripe, SimTime::ZERO);
            }
            last
        };
        let done_striped = {
            let mut last = SimTime::ZERO;
            for i in 0..4u64 {
                let lba = Lba::new(i * stripe); // successive columns
                last = a.submit(IoDirection::Read, lba, stripe, SimTime::ZERO);
            }
            last
        };
        assert!(done_striped < done_serial);
    }

    #[test]
    fn write_back_ack_is_fast_write_through_is_slow() {
        let mut wb = array(CacheParams::default());
        let t = SimTime::ZERO;
        let ack = wb.submit(IoDirection::Write, Lba::new(0), 16, t) - t;
        let mut wt = array(CacheParams {
            write_back: false,
            ..Default::default()
        });
        let wt_done = wt.submit(IoDirection::Write, Lba::new(0), 16, t) - t;
        assert!(
            ack < wt_done,
            "write-back ack {ack} vs write-through {wt_done}"
        );
        assert!(ack.as_micros() < 1_000);
    }

    #[test]
    fn raid5_writes_slower_than_raid0() {
        let mk = |level| {
            StorageArray::new(
                ArrayParams {
                    raid: RaidConfig::new(level, 5, 128),
                    cache: CacheParams {
                        read_capacity_bytes: 0,
                        readahead_pages: 0,
                        write_back: false,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                SimRng::seed_from(3),
            )
        };
        let mut r0 = mk(RaidLevel::Raid0);
        let mut r5 = mk(RaidLevel::Raid5);
        let mut t0 = SimTime::ZERO;
        let mut t5 = SimTime::ZERO;
        for i in 0..10u64 {
            let lba = Lba::new(i * 1_000_000);
            t0 = r0.submit(IoDirection::Write, lba, 16, t0);
            t5 = r5.submit(IoDirection::Write, lba, 16, t5);
        }
        assert!(t5 > t0, "raid5 stream {t5} vs raid0 {t0}");
    }

    #[test]
    fn sequential_with_readahead_reaches_hits() {
        let mut a = array(CacheParams::default());
        let mut now = SimTime::ZERO;
        let mut last_latencies = Vec::new();
        for i in 0..40u64 {
            let lba = Lba::new(i * 16);
            let done = a.submit(IoDirection::Read, lba, 16, now);
            last_latencies.push((done - now).as_micros());
            now = done;
        }
        // After warmup the stream should be absorbed by read-ahead hits.
        let tail = &last_latencies[20..];
        let hits_in_tail = tail.iter().filter(|&&us| us < 1_000).count();
        assert!(hits_in_tail > tail.len() / 2, "tail latencies: {tail:?}");
    }

    #[test]
    fn stats_accumulate() {
        let mut a = array(CacheParams::default());
        a.submit(IoDirection::Read, Lba::new(0), 8, SimTime::ZERO);
        a.submit(IoDirection::Write, Lba::new(0), 8, SimTime::ZERO);
        let s = a.stats();
        assert_eq!((s.reads, s.writes), (1, 1));
        assert_eq!(s.read_sectors, 8);
        assert_eq!(s.write_sectors, 8);
    }

    #[test]
    fn submit_with_faults_no_plan_matches_submit() {
        let mut a = array(CacheParams::default());
        let mut b = a.clone();
        let done = a.submit(IoDirection::Read, Lba::new(64), 16, SimTime::ZERO);
        let sub = b.submit_with_faults(IoDirection::Read, Lba::new(64), 16, SimTime::ZERO);
        assert_eq!(
            sub,
            Submission::Completed {
                at: done,
                status: ScsiStatus::Good
            }
        );
    }

    #[test]
    fn media_error_fails_without_touching_spindles() {
        use faultkit::FaultPlanBuilder;
        let mut a = array(CacheParams::read_cache_off());
        a.attach_fault_plan(
            FaultPlanBuilder::new(1)
                .media_error(Lba::new(0), Lba::new(999), None)
                .build(),
        );
        let sub = a.submit_with_faults(IoDirection::Read, Lba::new(10), 8, SimTime::ZERO);
        match sub {
            Submission::Completed { at, status } => {
                assert_eq!(status, ScsiStatus::CheckCondition(SenseKey::MediumError));
                assert_eq!(
                    at,
                    SimTime::ZERO + a.params().controller_overhead + a.params().media_error_latency
                );
            }
            Submission::Hung => panic!("media error must complete"),
        }
        assert_eq!(a.stats().media_errors, 1);
        assert_eq!(a.stats().reads, 0, "failed command must not reach spindles");
    }

    #[test]
    fn busy_rejection_is_fast() {
        use faultkit::FaultPlanBuilder;
        let mut a = array(CacheParams::default());
        a.attach_fault_plan(
            FaultPlanBuilder::new(1)
                .transient_busy(SimTime::ZERO, SimTime::from_millis(10), 1.0)
                .build(),
        );
        let Submission::Completed { at, status } =
            a.submit_with_faults(IoDirection::Write, Lba::new(0), 8, SimTime::ZERO)
        else {
            panic!("busy must complete");
        };
        assert_eq!(status, ScsiStatus::Busy);
        assert!(at.as_micros() < 100, "busy refusal should be fast: {at}");
        assert_eq!(a.stats().busy_rejections, 1);
    }

    #[test]
    fn hang_swallows_the_command() {
        use faultkit::FaultPlanBuilder;
        let mut a = array(CacheParams::default());
        a.attach_fault_plan(
            FaultPlanBuilder::new(1)
                .hang(SimTime::ZERO, SimTime::from_millis(10), 1.0)
                .build(),
        );
        let sub = a.submit_with_faults(IoDirection::Read, Lba::new(0), 8, SimTime::ZERO);
        assert_eq!(sub, Submission::Hung);
        assert_eq!(a.stats().hangs, 1);
    }

    #[test]
    fn latency_spike_inflates_service_time() {
        use faultkit::FaultPlanBuilder;
        let mut healthy = array(CacheParams::read_cache_off());
        let mut spiked = healthy.clone();
        spiked.attach_fault_plan(
            FaultPlanBuilder::new(1)
                .latency_spike(SimTime::ZERO, SimTime::from_millis(100), 4.0)
                .build(),
        );
        let base = healthy.submit(IoDirection::Read, Lba::new(64), 16, SimTime::ZERO);
        let Submission::Completed { at, status } =
            spiked.submit_with_faults(IoDirection::Read, Lba::new(64), 16, SimTime::ZERO)
        else {
            panic!("spike must complete");
        };
        assert_eq!(status, ScsiStatus::Good);
        assert_eq!(
            at.saturating_since(SimTime::ZERO).as_nanos(),
            base.saturating_since(SimTime::ZERO).mul_f64(4.0).as_nanos()
        );
    }
}
