//! Pins the bytes a host ships and the bytes it writes to disk.
//!
//! A fixed seeded command stream goes into a 4-shard service; the length
//! and CRC-32 of its `VFLHIST3` frame and of its `VSCKPT2` checkpoint are
//! compared against constants computed once and carried across commits.
//! A refactor of the histogram storage must leave all eight numbers
//! alone; a format revision changes them on purpose, in this file, in the
//! commit that revises the format (last: `VFLHIST2` → `VFLHIST3`,
//! 3339 → 2575 B, and `VSCKPT1` → `VSCKPT2`, 4150 → 3384 B and
//! 4673 → 3907 B, when the derived `All` slots stopped travelling).
//!
//! `tests/data/vsckpt1_*.bin` are the `VSCKPT1` bytes the last build
//! before that revision wrote for the same stream (their lengths and CRCs
//! are the constants this file held then). They stay decodable: a
//! checkpoint outlives the process that wrote it.

use fleet::{encode_frame, HostFrame};
use simkit::SimTime;
use vscsi::{
    IoCompletion, IoDirection, IoRequest, Lba, RequestId, ScsiStatus, TargetId, VDiskId, VmId,
};
use vscsi_stats::crc32::crc32;
use vscsi_stats::{
    frame, CollectorConfig, Lens, Metric, ServiceCheckpoint, StatsService, VscsiEvent,
};

const TARGETS: u32 = 6;
const COMMANDS_PER_TARGET: u64 = 300;

/// The `synthetic_commands` recipe of the seeded suites (a third writes,
/// six power-of-two sizes, LBAs across 512 GiB so seeks run both ways and
/// their sums go negative), plus a `BUSY` completion every 17th command so
/// the `Errors` slots fill. Targets start four seconds apart so the
/// `paper_figures` series open several intervals.
fn feed(service: &StatsService) {
    service.enable_all();
    for t in 0..TARGETS {
        let target = TargetId::new(VmId(t / 2), VDiskId(t % 2));
        let key = 0x90_1D_E2 ^ (u64::from(t) << 32);
        let mut events = Vec::new();
        let mut t_us = 4_000_000 * u64::from(t);
        for r in 0..COMMANDS_PER_TARGET {
            let mix = simkit::splitmix64(key ^ r);
            let direction = if mix.is_multiple_of(3) {
                IoDirection::Write
            } else {
                IoDirection::Read
            };
            let req = IoRequest::new(
                RequestId((u64::from(t) << 20) + r),
                target,
                direction,
                Lba::new((mix >> 8) % (1 << 30)),
                8u32 << (mix % 6),
                SimTime::from_micros(t_us),
            );
            let done = SimTime::from_micros(t_us + 50 + (mix >> 40) % 20_000);
            events.push(VscsiEvent::Issue(req));
            events.push(VscsiEvent::Complete(if r % 17 == 16 {
                IoCompletion::with_status(req, done, ScsiStatus::Busy)
            } else {
                IoCompletion::new(req, done)
            }));
            t_us += 100 + mix % 5_000;
        }
        service.handle_batch(&events);
    }
}

/// `(frame length, frame crc, checkpoint length, checkpoint crc)`.
fn pins(config: CollectorConfig) -> (usize, u32, usize, u32) {
    let service = StatsService::with_shards(config, 4);
    feed(&service);
    let frame = encode_frame(&HostFrame::snapshot(7, 24_000_000, 3, &service)).unwrap();
    let checkpoint = service.checkpoint_snapshot().encode(5);
    (
        frame.len(),
        crc32(&frame),
        checkpoint.len(),
        crc32(&checkpoint),
    )
}

#[test]
fn default_config_bytes_are_pinned() {
    assert_eq!(
        pins(CollectorConfig::default()),
        (2575, 3_755_347_165, 3384, 432_766_645)
    );
}

#[test]
fn paper_figures_config_bytes_are_pinned() {
    assert_eq!(
        pins(CollectorConfig::paper_figures()),
        (2575, 3_755_347_165, 3907, 776_772_184)
    );
}

/// The parent build's `VSCKPT1` bytes for the two configs above.
const V1_DEFAULT: &[u8] = include_bytes!("data/vsckpt1_default.bin");
const V1_PAPER_FIGURES: &[u8] = include_bytes!("data/vsckpt1_paper_figures.bin");

#[test]
fn v1_checkpoints_restore_the_same_21_histograms_and_reencode_as_v2() {
    for (bytes, config, (len, crc)) in [
        (V1_DEFAULT, CollectorConfig::default(), (4150, 332_202_579)),
        (
            V1_PAPER_FIGURES,
            CollectorConfig::paper_figures(),
            (4673, 2_563_763_160),
        ),
    ] {
        assert_eq!(&bytes[..8], b"VSCKPT1\0");
        assert_eq!((bytes.len(), crc32(bytes)), (len, crc), "the parent's pins");
        let (seq, decoded) = ServiceCheckpoint::decode(bytes).expect("VSCKPT1 still decodes");
        assert_eq!(seq, 5);

        let fresh = StatsService::with_shards(config, 4);
        feed(&fresh);
        assert_eq!(decoded, fresh.checkpoint_snapshot());
        let restored = StatsService::from_checkpoint(&decoded, None);
        let (restored, fresh) = (restored.collectors(), fresh.collectors());
        assert_eq!(restored.len(), TARGETS as usize);
        for ((t_old, old), (t_new, new)) in restored.iter().zip(&fresh) {
            assert_eq!(t_old, t_new);
            for metric in Metric::ALL {
                for lens in Lens::ALL {
                    let (old, new) = (old.histogram(metric, lens), new.histogram(metric, lens));
                    assert_eq!(old, new, "{t_old} {metric} / {lens}");
                }
            }
        }

        let rewritten = decoded.encode(seq);
        assert_eq!(&rewritten[..8], b"VSCKPT2\0");
        assert_eq!(ServiceCheckpoint::decode(&rewritten), Ok((seq, decoded)));
    }
}

#[test]
fn v1_checkpoint_with_a_derived_slot_that_does_not_add_up_is_refused() {
    let payload = frame::open(b"VSCKPT1\0", V1_DEFAULT).expect("sealed by the parent");
    // The first collector's slab: a 300 (varint AC 02) followed by 300
    // plain varints, the first 18 of them I/O length under the `All` lens.
    let slab = payload
        .windows(2)
        .position(|w| w == [0xAC, 0x02])
        .expect("a 300-counter slab")
        + 2;
    let all = &payload[slab..slab + 18];
    assert!(all.iter().all(|&b| b < 0x7f), "one-byte counters: {all:?}");
    let from = all.iter().position(|&c| c > 0).expect("an occupied bin");
    let to = all.iter().position(|&c| c == 0).expect("a vacant bin");
    // Move one command to a bin neither half has it in: the slot still
    // sums to its total, and is no longer Reads + Writes.
    let mut moved = payload.to_vec();
    moved[slab + from] -= 1;
    moved[slab + to] += 1;
    let resealed = frame::seal(b"VSCKPT1\0", &moved).unwrap();
    let err = ServiceCheckpoint::decode(&resealed).unwrap_err();
    assert_eq!(err, "v1 I/O Length All slot is not Reads + Writes");
    // The same payload under the current magic is not a VSCKPT2 either.
    let relabelled = frame::seal(b"VSCKPT2\0", payload).unwrap();
    let err = ServiceCheckpoint::decode(&relabelled).unwrap_err();
    assert_eq!(err, "histogram set of 300 counters, 21 aggregates");
}
