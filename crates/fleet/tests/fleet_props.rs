//! Property tests for the fleet plane: the wire format round-trips
//! bit-exactly for arbitrary histogram states, and the collector survives
//! arbitrary corruption with exact per-host failure accounting — the same
//! accounting whether a host is polled beside others or alone.

use fleet::{
    decode_frame, encode_frame, AggSet, ChaosEndpoint, FetchError, FleetCollector, FrameEndpoint,
    HostFrame, HostId, HostView, PollConfig, TargetHistograms,
};
use proptest::collection::vec;
use proptest::prelude::*;
use simkit::{SimDuration, SimTime};
use vscsi::{TargetId, VDiskId, VmId};
use vscsi_stats::{HistogramSet, SlotAgg};

/// An arbitrary but *valid* stored-slot set for one target: per-slot
/// counts are free, the exact sum is free, and min/max are present
/// (ordered) iff occupied — exactly the states a live collector slab can
/// reach.
fn arb_target() -> impl Strategy<Value = TargetHistograms> {
    (
        any::<u32>(),
        any::<u32>(),
        vec(0u64..1_000_000u64, HistogramSet::new().counters().len()),
        vec(
            any::<(i64, i64, i64)>(),
            HistogramSet::new().aggregates().len(),
        ),
    )
        .prop_map(|(vm, disk, counters, seeds)| {
            let layout = HistogramSet::new();
            let mut offset = 0;
            let aggs: Vec<SlotAgg> = HistogramSet::stored_slots()
                .zip(seeds)
                .map(|((metric, lens), (sum, m1, m2))| {
                    let bins = layout.slot(metric, lens).0.len();
                    let total = counters[offset..offset + bins].iter().sum();
                    offset += bins;
                    if total == 0 {
                        return SlotAgg::EMPTY;
                    }
                    SlotAgg {
                        total,
                        sum: i128::from(sum),
                        min: m1.min(m2),
                        max: m1.max(m2),
                    }
                })
                .collect();
            TargetHistograms {
                target: TargetId::new(VmId(vm), VDiskId(disk)),
                set: HistogramSet::from_parts(&counters, &aggs).unwrap(),
            }
        })
}

fn arb_frame() -> impl Strategy<Value = HostFrame> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        vec(arb_target(), 0..4),
    )
        .prop_map(
            |(host_id, captured_at_us, epoch, seq, resumed, targets)| HostFrame {
                host_id,
                captured_at_us,
                epoch,
                seq,
                resumed,
                targets,
            },
        )
}

/// Logical slots that count one record of [`frame_with`]: the stored
/// ones, and each derived `All` lens once per half.
fn slots_per_record() -> u64 {
    let stored = HistogramSet::stored_slots().count();
    (stored + 2 * (HistogramSet::SLOTS - stored)) as u64
}

/// One-target frame for host 1 holding `records` in every stored slot,
/// stamped with an explicit epoch and sequence; a host that started from
/// zero.
fn frame_with(records: &[i64], epoch: u64, seq: u64) -> Vec<u8> {
    frame_for(1, records, epoch, seq)
}

/// The same frame, from `host`.
fn frame_for(host: HostId, records: &[i64], epoch: u64, seq: u64) -> Vec<u8> {
    let binners = HistogramSet::binners();
    let mut set = HistogramSet::new();
    for (metric, lens) in HistogramSet::stored_slots() {
        for &v in records {
            set.record(&binners, metric, lens, v);
        }
    }
    encode_frame(&HostFrame {
        host_id: host,
        captured_at_us: 0,
        epoch,
        seq,
        resumed: false,
        targets: vec![TargetHistograms {
            target: TargetId::new(VmId(0), VDiskId(0)),
            set,
        }],
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode → encode is the identity on both the frame and
    /// the bytes, for arbitrary histogram states.
    #[test]
    fn encode_decode_is_bit_exact(frame in arb_frame()) {
        let bytes = encode_frame(&frame).unwrap();
        let back = decode_frame(&bytes).unwrap();
        prop_assert_eq!(&back, &frame);
        prop_assert_eq!(encode_frame(&back).unwrap(), bytes);
    }

    /// Any truncation of a valid frame is rejected, never mis-decoded.
    #[test]
    fn truncations_never_decode(frame in arb_frame(), cut in any::<prop::sample::Index>()) {
        let bytes = encode_frame(&frame).unwrap();
        let cut = cut.index(bytes.len());
        prop_assert!(decode_frame(&bytes[..cut]).is_err());
    }

    /// Any single-byte corruption of a valid frame is rejected — the CRC
    /// (payload) or header checks (magic/length) catch it, without panics.
    #[test]
    fn byte_flips_never_decode(
        frame in arb_frame(),
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_frame(&frame).unwrap();
        let at = at.index(bytes.len());
        bytes[at] ^= flip;
        prop_assert!(decode_frame(&bytes).is_err());
    }

    /// Arbitrary garbage never decodes into a frame by accident (the
    /// magic alone rejects virtually everything) and never panics.
    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..512)) {
        let _ = decode_frame(&bytes);
    }

    /// A fleet poll schedule over a mixed script of good, corrupt,
    /// truncated, and unreachable responses: every poll lands in exactly
    /// one ledger bucket, the rollup only ever reflects good frames, and
    /// conservation holds at every window.
    #[test]
    fn collector_accounts_every_fault_exactly(
        polls in vec(0u8..4, 1..20),
        flip in 1u8..=255,
        at in any::<prop::sample::Index>(),
    ) {
        let good = frame_with(&[4096], 0, 0);
        let mut expect_ok = 0u64;
        let mut expect_fetch = 0u64;
        let mut expect_decode = 0u64;
        let script: Vec<Result<Vec<u8>, FetchError>> = polls
            .iter()
            .map(|&kind| match kind {
                0 => {
                    expect_ok += 1;
                    Ok(good.clone())
                }
                1 => {
                    expect_fetch += 1;
                    Err(FetchError::new("down"))
                }
                2 => {
                    expect_decode += 1;
                    let mut bad = good.clone();
                    let i = at.index(bad.len());
                    bad[i] ^= flip;
                    Ok(bad)
                }
                _ => {
                    expect_decode += 1;
                    Ok(good[..at.index(good.len())].to_vec())
                }
            })
            .collect();
        let windows = script.len() as u64;
        // The minimal discipline keeps the script-entry ↔ window mapping
        // 1:1, which is what this exact-accounting property needs.
        let config = PollConfig {
            interval: SimDuration::from_secs(1),
            ..PollConfig::basic()
        };
        let mut collector = FleetCollector::new(config, vec![FrameEndpoint::new(1, 0, script)]);
        for w in 0..windows {
            let now = SimTime::from_secs(w);
            collector.run_until(now);
            let view = collector.view(now);
            prop_assert!(view.conserves());
            prop_assert!(view.fleet.hosts + view.stale_hosts() == 1);
        }
        let status = &collector.status()[0];
        prop_assert_eq!(status.frames_ok, expect_ok);
        prop_assert_eq!(status.fetch_failures, expect_fetch);
        prop_assert_eq!(status.decode_failures, expect_decode);
        prop_assert_eq!(status.polls(), windows);
        // The rollup reflects good frames only: if the host ever answered,
        // its snapshot is the good frame's aggregate, untouched by faults.
        if expect_ok > 0 {
            prop_assert_eq!(status.agg().total_events(), slots_per_record());
        } else {
            prop_assert_eq!(status.agg().total_events(), 0);
        }
    }

    /// For an arbitrary poll schedule (monotone host, arbitrary fetch
    /// outages), merging every per-window delta view re-sums bit-for-bit
    /// to the cumulative snapshot: counts, totals, sums, and min/max.
    #[test]
    fn window_deltas_resum_bit_for_bit(
        plan in vec((vec(-5000i64..5000, 0..3), any::<bool>()), 1..16),
    ) {
        let mut records: Vec<i64> = Vec::new();
        let mut seq = 0u64;
        let mut script = Vec::new();
        for (adds, reachable) in &plan {
            if *reachable {
                records.extend(adds.iter().copied());
                seq += 1;
                script.push(Ok(frame_with(&records, 1, seq)));
            } else {
                script.push(Err(FetchError::new("down")));
            }
        }
        let windows = script.len() as u64;
        let config = PollConfig {
            interval: SimDuration::from_secs(1),
            ..PollConfig::basic()
        };
        let mut collector = FleetCollector::new(config, vec![FrameEndpoint::new(1, 0, script)]);
        let mut resum = AggSet::new();
        for w in 0..windows {
            let now = SimTime::from_secs(w);
            collector.run_until(now);
            let wv = collector.window_view(now);
            prop_assert!(wv.conserves());
            resum.merge(&wv.fleet.agg);
        }
        let status = &collector.status()[0];
        prop_assert!(resum.same_counters(status.agg()), "delta re-sum drifted");
        prop_assert!(status.windowed_total().same_counters(status.agg()));
        prop_assert_eq!(status.lost_windows, 0);
    }

    /// Arbitrary epoch-reset (restart) sequences never panic, and
    /// lost-window/banked-event accounting is exact: each restart between
    /// good windows books exactly one lost window, and the running total
    /// carries every epoch's events exactly once.
    #[test]
    fn epoch_resets_account_lost_windows_exactly(
        plan in vec((any::<bool>(), vec(1i64..4096, 1..3)), 1..12),
    ) {
        assert_epoch_resets_exact(&plan);
    }

    /// Together ≡ apart: a host's ledger, breaker, retries, chaos rolls and
    /// delta chain depend on nothing but that host, so N flaky hosts polled
    /// by one collector (its due hosts shared out over the machine's cores)
    /// end exactly where the same N end when each is polled alone by a
    /// one-endpoint collector, which never leaves the calling thread.
    #[test]
    fn hosts_polled_together_end_where_hosts_polled_alone_do(
        plans in vec(vec((proptest::bool::weighted(0.15), vec(1i64..4096, 0..3)), 4..30), 2..7),
        chaos_seed in any::<u64>(),
        (drop_pct, flip_pct, cut_pct) in (0u64..60, 0u64..20, 0u64..20),
        windows in 6u64..14,
    ) {
        let config = PollConfig {
            evict_after: 6,
            ..PollConfig::default()
        };
        let hosts = || {
            plans.iter().enumerate().map(|(h, plan)| {
                let host = h as HostId;
                let script = restarting_script(host, plan);
                ChaosEndpoint::new(
                    FrameEndpoint::new(host, host % 3, script),
                    chaos_seed,
                    drop_pct,
                    flip_pct,
                    cut_pct,
                )
            })
        };
        let mut together = FleetCollector::new(config, hosts().collect());
        let mut apart: Vec<_> = hosts()
            .map(|host| FleetCollector::new(config, vec![host]))
            .collect();
        for w in 0..windows {
            let now = SimTime::ZERO + config.interval * w;
            together.run_until(now);
            for alone in &mut apart {
                alone.run_until(now);
            }
            for view in [
                Flaky::view,
                Flaky::window_view,
                Flaky::windowed_total_view,
            ] {
                let whole = view(&together, now);
                let parts: Vec<_> = apart.iter().map(|alone| view(alone, now)).collect();
                let leaves: Vec<HostView> =
                    parts.iter().flat_map(|part| part.hosts.clone()).collect();
                // The leaves are the singles' leaves, and the tree above
                // them is what `conserves` re-derives from the leaves.
                prop_assert_eq!(&whole.hosts, &leaves);
                let evicted: usize = parts.iter().map(|part| part.evicted).sum();
                prop_assert_eq!(whole.evicted, evicted);
                prop_assert_eq!(whole.window, w);
                prop_assert!(whole.conserves());
            }
        }
        for (h, alone) in apart.iter().enumerate() {
            prop_assert_eq!(&together.status()[h], &alone.status()[0]);
            prop_assert_eq!(together.endpoints()[h].ledger(), alone.endpoints()[0].ledger());
        }
    }
}

/// A collector over scripted hosts behind seeded chaos.
type Flaky = FleetCollector<ChaosEndpoint<FrameEndpoint>>;

/// A host's answers, one per fetch: `(restart before this answer?, records
/// added)`. A restart clears the counters and moves to the next epoch.
fn restarting_script(host: HostId, plan: &[(bool, Vec<i64>)]) -> Vec<Result<Vec<u8>, FetchError>> {
    let mut records: Vec<i64> = Vec::new();
    let (mut epoch, mut seq) = (1u64, 0u64);
    plan.iter()
        .map(|(restart, adds)| {
            if *restart {
                records.clear();
                epoch += 1;
                seq = 0;
            }
            records.extend(adds);
            seq += 1;
            Ok(frame_for(host, &records, epoch, seq))
        })
        .collect()
}

/// One `(restart before this window?, latencies added)` entry per window.
fn assert_epoch_resets_exact(plan: &[(bool, Vec<i64>)]) {
    let mut records: Vec<i64> = Vec::new();
    let mut epoch = 1u64;
    let mut seq = 0u64;
    let mut banked = 0u64;
    let mut restarts = 0u64;
    let mut script = Vec::new();
    for (i, (restart, adds)) in plan.iter().enumerate() {
        if *restart && i > 0 {
            banked += records.len() as u64;
            records.clear();
            epoch += 1;
            seq = 0;
            restarts += 1;
        }
        records.extend(adds.iter().copied());
        seq += 1;
        script.push(Ok(frame_with(&records, epoch, seq)));
    }
    let windows = script.len() as u64;
    let config = PollConfig {
        interval: SimDuration::from_secs(1),
        ..PollConfig::basic()
    };
    let mut collector = FleetCollector::new(config, vec![FrameEndpoint::new(1, 0, script)]);
    collector.run_until(SimTime::from_secs(windows - 1));
    let s = &collector.status()[0];
    assert_eq!(s.epoch_bumps, restarts);
    assert_eq!(s.lost_windows, restarts, "one lost window per restart");
    assert_eq!(s.seq_rejects, 0);
    assert_eq!(
        s.windowed_total().total_events(),
        (banked + records.len() as u64) * slots_per_record(),
        "every epoch's events counted exactly once"
    );
    let mut rebuilt = s.epoch_base().clone();
    rebuilt.merge(s.agg());
    assert!(rebuilt.same_counters(s.windowed_total()));
    let tv = collector.windowed_total_view(SimTime::from_secs(windows - 1));
    assert!(tv.conserves());
}

/// `[465] ⟲ [153, 3675] ⟲ [3808] ⟲ [2144, 3235]`, the case the offline
/// stub sampler draws for the property above: the second epoch's counters
/// dominate the first's in every bin, and only the frame's `resumed` flag
/// says they are not its continuation.
#[test]
fn epoch_reset_whose_counters_dominate_the_last_snapshot() {
    assert_epoch_resets_exact(&[
        (false, vec![465]),
        (true, vec![153, 3675]),
        (true, vec![3808]),
        (true, vec![2144, 3235]),
    ]);
}
