//! Pins the bytes a host ships and the bytes it writes to disk.
//!
//! A fixed seeded command stream goes into a 4-shard service; the length
//! and CRC-32 of its `VFLHIST2` frame and of its `VSCKPT1` checkpoint are
//! compared against constants computed once and carried across commits.
//! A refactor of the histogram storage must leave all eight numbers
//! alone; a format revision changes them on purpose, in this file, in the
//! commit that revises the format.

use fleet::{encode_frame, HostFrame};
use simkit::SimTime;
use vscsi::{
    IoCompletion, IoDirection, IoRequest, Lba, RequestId, ScsiStatus, TargetId, VDiskId, VmId,
};
use vscsi_stats::crc32::crc32;
use vscsi_stats::{CollectorConfig, StatsService, VscsiEvent};

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
        (3339, 2_339_321_199, 4150, 332_202_579)
    );
}

#[test]
fn paper_figures_config_bytes_are_pinned() {
    assert_eq!(
        pins(CollectorConfig::paper_figures()),
        (3339, 2_339_321_199, 4673, 2_563_763_160)
    );
}
