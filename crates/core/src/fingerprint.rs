//! Workload fingerprinting and automatic categorization.
//!
//! The paper's conclusion (§7) names the follow-on work: "We plan to
//! investigate automatic categorization of workloads and generation of
//! recommendations for virtual disk placement and storage subsystem
//! optimization." This module implements that layer on top of the online
//! histograms.
//!
//! A [`WorkloadFingerprint`] is a compact feature vector computed from a
//! collector's **environment-independent** histograms only (§3.7: I/O
//! size, spatial locality, outstanding I/Os and read/write ratio are
//! portable across storage back-ends; latency and interarrival are not),
//! so the same workload fingerprints identically on a busy array and an
//! idle one. Fingerprints support rule-based classification
//! ([`WorkloadClass`]), nearest-neighbour matching against a labelled
//! [`FingerprintLibrary`], and placement advice ([`recommendations`]).

use crate::collector::IoStatsCollector;
use crate::metrics::{Lens, Metric};
use std::fmt;

/// Compact, environment-independent description of a disk workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadFingerprint {
    /// Commands observed.
    pub commands: u64,
    /// Fraction of commands that are reads, 0–1.
    pub read_fraction: f64,
    /// Mean I/O size in bytes.
    pub mean_io_bytes: f64,
    /// Upper edge of the most populated length bin, bytes.
    pub dominant_io_bytes: i64,
    /// Fraction of commands in the dominant length bin (1.0 = single-sized).
    pub size_concentration: f64,
    /// Fraction of windowed (N=16) seek distances in (0, 2] — sequential
    /// runs, including interleaved streams.
    pub sequentiality: f64,
    /// Same, for writes only (plain per-direction seek distance).
    pub write_sequentiality: f64,
    /// Same, for reads only.
    pub read_sequentiality: f64,
    /// Fraction of plain seek distances beyond ±50 000 sectors — long
    /// seeks, the randomness signature.
    pub randomness: f64,
    /// Mean outstanding I/Os at arrival — workload parallelism (§3.3).
    pub mean_outstanding: f64,
    /// Fraction of arrivals that found ≥ 16 other I/Os outstanding.
    pub deep_queue_fraction: f64,
}

impl WorkloadFingerprint {
    /// Extracts a fingerprint from a collector.
    ///
    /// Returns `None` if fewer than `min_commands` commands were observed
    /// (fingerprints of tiny samples are noise).
    pub fn from_collector(
        collector: &IoStatsCollector,
        min_commands: u64,
    ) -> Option<WorkloadFingerprint> {
        let len = collector.histogram(Metric::IoLength, Lens::All);
        if len.total() < min_commands.max(1) {
            return None;
        }
        let windowed = collector.histogram(Metric::SeekDistanceWindowed, Lens::All);
        let seek = collector.histogram(Metric::SeekDistance, Lens::All);
        let seek_w = collector.histogram(Metric::SeekDistance, Lens::Writes);
        let seek_r = collector.histogram(Metric::SeekDistance, Lens::Reads);
        let oio = collector.histogram(Metric::OutstandingIos, Lens::All);
        let mode = len.mode_bin().expect("non-empty");
        Some(WorkloadFingerprint {
            commands: len.total(),
            read_fraction: collector.read_fraction().unwrap_or(0.0),
            mean_io_bytes: len.mean().unwrap_or(0.0),
            dominant_io_bytes: match len.edges().bin_range(mode) {
                (_, Some(hi)) => hi,
                (Some(lo), None) => lo + 1,
                (None, None) => 0,
            },
            size_concentration: len.count(mode) as f64 / len.total() as f64,
            sequentiality: windowed.fraction_in(0, 2),
            write_sequentiality: seek_w.fraction_in(0, 2),
            read_sequentiality: seek_r.fraction_in(0, 2),
            randomness: 1.0 - seek.fraction_in(-50_000, 50_000),
            mean_outstanding: oio.mean().unwrap_or(0.0),
            deep_queue_fraction: 1.0 - oio.fraction_at_most(16),
        })
    }

    /// Similarity to another fingerprint in `[0, 1]` (1 = identical):
    /// 1 − mean absolute difference over the normalized feature vector.
    pub fn similarity(&self, other: &WorkloadFingerprint) -> f64 {
        let a = self.feature_vector();
        let b = other.feature_vector();
        let dist: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64;
        (1.0 - dist).clamp(0.0, 1.0)
    }

    /// The normalized feature vector (each component in `[0, 1]`).
    pub(crate) fn feature_vector(&self) -> [f64; 8] {
        // log2 size scaled into [0,1] over the 512 B .. 1 MiB range.
        let size_feat = ((self.mean_io_bytes.max(512.0) / 512.0).log2() / 11.0).clamp(0.0, 1.0);
        [
            self.read_fraction,
            size_feat,
            self.size_concentration,
            self.sequentiality,
            self.write_sequentiality,
            self.randomness,
            (self.mean_outstanding / 64.0).clamp(0.0, 1.0),
            self.deep_queue_fraction,
        ]
    }

    /// Rule-based classification.
    pub fn classify(&self) -> WorkloadClass {
        let large = self.mean_io_bytes >= 48.0 * 1024.0;
        let small = self.mean_io_bytes <= 16.0 * 1024.0;
        if self.sequentiality >= 0.7 && large {
            WorkloadClass::StreamingLarge
        } else if self.sequentiality >= 0.7 && self.read_fraction <= 0.2 {
            WorkloadClass::LogAppend
        } else if self.sequentiality >= 0.7 {
            WorkloadClass::SequentialSmall
        } else if self.randomness >= 0.5 && small && self.mean_outstanding >= 4.0 {
            WorkloadClass::OltpDatabase
        } else if self.randomness >= 0.5 && small {
            WorkloadClass::RandomSmall
        } else {
            WorkloadClass::Mixed
        }
    }
}

impl fmt::Display for WorkloadFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fingerprint: {} cmds, {:.0}% reads, ~{:.0}B I/Os (peak {} @ {:.0}%), \
             seq {:.0}% (W {:.0}% / R {:.0}%), random {:.0}%, OIO {:.1}",
            self.commands,
            self.read_fraction * 100.0,
            self.mean_io_bytes,
            self.dominant_io_bytes,
            self.size_concentration * 100.0,
            self.sequentiality * 100.0,
            self.write_sequentiality * 100.0,
            self.read_sequentiality * 100.0,
            self.randomness * 100.0,
            self.mean_outstanding,
        )
    }
}

/// Coarse workload categories for recommendation purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Random small I/O at meaningful concurrency: database/OLTP-style.
    OltpDatabase,
    /// Random small I/O at low concurrency: metadata/mail-style.
    RandomSmall,
    /// Sequential large transfers: backup, media, file copy.
    StreamingLarge,
    /// Sequential small writes: log/journal appenders.
    LogAppend,
    /// Sequential small-block access: scanners, single-stream readers.
    SequentialSmall,
    /// Nothing dominates.
    Mixed,
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkloadClass::OltpDatabase => "OLTP/database (random small, concurrent)",
            WorkloadClass::RandomSmall => "random small I/O (low concurrency)",
            WorkloadClass::StreamingLarge => "streaming (sequential large)",
            WorkloadClass::LogAppend => "log append (sequential small writes)",
            WorkloadClass::SequentialSmall => "sequential small-block stream",
            WorkloadClass::Mixed => "mixed",
        };
        f.write_str(s)
    }
}

/// Human-readable storage-placement recommendations derived from a
/// fingerprint — the §7 "generation of recommendations for virtual disk
/// placement and storage subsystem optimization", grounded in the
/// analyses the paper motivates (RAID stripe sizing \[1\], separating
/// sequential streams §3.1, write-cache checks §3.4).
pub fn recommendations(fp: &WorkloadFingerprint) -> Vec<String> {
    let mut out = Vec::new();
    match fp.classify() {
        WorkloadClass::OltpDatabase => {
            out.push(format!(
                "OLTP-like: prefer many spindles; choose a RAID stripe unit >= the dominant \
                 I/O size ({} B) so single requests stay on one disk",
                fp.dominant_io_bytes
            ));
            if fp.read_fraction < 0.6 {
                out.push(
                    "write-heavy random I/O: RAID-5 read-modify-write will hurt; prefer \
                     RAID-10 or ensure a mirrored write-back cache"
                        .to_owned(),
                );
            }
        }
        WorkloadClass::StreamingLarge => {
            out.push(
                "streaming: enable/size read-ahead; wide striping converts the stream into \
                 parallel spindle transfers"
                    .to_owned(),
            );
            out.push(
                "avoid co-locating with random workloads on the same disk group — the \
                 sequential stream degrades catastrophically under interference (Figure 6)"
                    .to_owned(),
            );
        }
        WorkloadClass::LogAppend => {
            out.push(
                "log append: place on a dedicated small disk group; sequential writes keep \
                 the head stationary only if nothing else seeks"
                    .to_owned(),
            );
        }
        WorkloadClass::RandomSmall => {
            out.push(
                "random small I/O at low concurrency: latency-bound; cache capacity matters \
                 more than spindle count"
                    .to_owned(),
            );
        }
        WorkloadClass::SequentialSmall => {
            out.push(
                "small sequential stream: coalescing at the guest or filesystem layer \
                 (larger request sizes) would cut per-command overhead (compare Figure 5's \
                 XP-vs-Vista copy engines)"
                    .to_owned(),
            );
        }
        WorkloadClass::Mixed => {
            out.push(
                "mixed pattern: consider splitting the workload across multiple virtual \
                 disks so each part can be characterized and placed separately (§3.6)"
                    .to_owned(),
            );
        }
    }
    // Multiple interleaved sequential streams: windowed sequentiality far
    // above plain per-direction sequentiality (§3.1's diagnostic).
    let plain = fp.write_sequentiality.max(fp.read_sequentiality);
    if fp.sequentiality > 0.5 && fp.sequentiality > plain + 0.3 {
        out.push(
            "multiple interleaved sequential streams detected (windowed >> plain seek \
             sequentiality): separate the streams onto different disk groups or change the \
             data layout (§3.1)"
                .to_owned(),
        );
    }
    if fp.deep_queue_fraction > 0.5 {
        out.push(
            "sustained deep queues: verify the device queue depth and array port queues are \
             sized for the parallelism the guest generates (§3.3)"
                .to_owned(),
        );
    }
    out
}

/// A labelled set of reference fingerprints for nearest-neighbour
/// categorization.
#[derive(Debug, Default, Clone)]
pub struct FingerprintLibrary {
    entries: Vec<(String, WorkloadFingerprint)>,
}

impl FingerprintLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        FingerprintLibrary::default()
    }

    /// Adds a labelled fingerprint.
    pub fn insert(&mut self, label: impl Into<String>, fp: WorkloadFingerprint) {
        self.entries.push((label.into(), fp));
    }

    /// The best-matching label and its similarity, if the library is
    /// non-empty.
    pub fn nearest(&self, fp: &WorkloadFingerprint) -> Option<(&str, f64)> {
        self.entries
            .iter()
            .map(|(label, reference)| (label.as_str(), reference.similarity(fp)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("similarity is finite"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{SimDuration, SimTime};
    use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};

    /// Builds a collector fed with a synthetic pattern.
    fn feed(
        n: u64,
        sectors: u32,
        read_frac: f64,
        sequential: bool,
        outstanding: u32,
    ) -> IoStatsCollector {
        let mut c = IoStatsCollector::default();
        let mut inflight: Vec<IoRequest> = Vec::new();
        for i in 0..n {
            let dir = if (i as f64 / n as f64) < read_frac {
                IoDirection::Read
            } else {
                IoDirection::Write
            };
            let lba = if sequential {
                i * u64::from(sectors)
            } else {
                (i.wrapping_mul(2_654_435_761)) % 500_000_000
            };
            let req = IoRequest::new(
                RequestId(i),
                TargetId::default(),
                dir,
                Lba::new(lba),
                sectors,
                SimTime::from_micros(i * 100),
            );
            c.on_issue(&req);
            inflight.push(req);
            if inflight.len() > outstanding as usize {
                let done = inflight.remove(0);
                c.on_complete(&IoCompletion::new(done, SimTime::from_micros(i * 100 + 50)));
            }
        }
        let end = SimTime::from_micros(n * 100) + SimDuration::from_millis(10);
        for done in inflight {
            c.on_complete(&IoCompletion::new(done, end));
        }
        c
    }

    #[test]
    fn oltp_pattern_classifies_as_oltp() {
        let c = feed(2_000, 16, 0.7, false, 16); // 8K random, OIO 16
        let fp = WorkloadFingerprint::from_collector(&c, 100).unwrap();
        assert_eq!(fp.classify(), WorkloadClass::OltpDatabase);
        assert!(fp.randomness > 0.8);
        assert!((fp.read_fraction - 0.7).abs() < 0.05);
        assert!(fp.mean_outstanding > 8.0);
    }

    #[test]
    fn streaming_pattern_classifies_as_streaming() {
        let c = feed(2_000, 256, 1.0, true, 4); // 128K sequential reads
        let fp = WorkloadFingerprint::from_collector(&c, 100).unwrap();
        assert_eq!(fp.classify(), WorkloadClass::StreamingLarge);
        assert!(fp.sequentiality > 0.9, "seq = {}", fp.sequentiality);
    }

    #[test]
    fn log_append_classifies() {
        let c = feed(2_000, 8, 0.0, true, 1); // 4K sequential writes
        let fp = WorkloadFingerprint::from_collector(&c, 100).unwrap();
        assert_eq!(fp.classify(), WorkloadClass::LogAppend);
    }

    #[test]
    fn random_small_low_concurrency() {
        let c = feed(2_000, 8, 0.5, false, 1);
        let fp = WorkloadFingerprint::from_collector(&c, 100).unwrap();
        assert_eq!(fp.classify(), WorkloadClass::RandomSmall);
    }

    #[test]
    fn too_few_commands_yields_none() {
        let c = feed(10, 8, 1.0, true, 1);
        assert!(WorkloadFingerprint::from_collector(&c, 100).is_none());
        assert!(WorkloadFingerprint::from_collector(&c, 5).is_some());
    }

    #[test]
    fn similarity_orders_correctly() {
        let oltp_a =
            WorkloadFingerprint::from_collector(&feed(2_000, 16, 0.7, false, 16), 1).unwrap();
        let oltp_b =
            WorkloadFingerprint::from_collector(&feed(2_000, 16, 0.65, false, 12), 1).unwrap();
        let stream =
            WorkloadFingerprint::from_collector(&feed(2_000, 256, 1.0, true, 4), 1).unwrap();
        assert!(oltp_a.similarity(&oltp_b) > oltp_a.similarity(&stream));
        assert!(oltp_a.similarity(&oltp_a) > 0.999);
    }

    #[test]
    fn library_nearest_neighbour() {
        let mut lib = FingerprintLibrary::new();
        assert!(lib
            .nearest(&WorkloadFingerprint::from_collector(&feed(100, 8, 1.0, true, 1), 1).unwrap())
            .is_none());
        lib.insert(
            "oltp",
            WorkloadFingerprint::from_collector(&feed(2_000, 16, 0.7, false, 16), 1).unwrap(),
        );
        lib.insert(
            "backup",
            WorkloadFingerprint::from_collector(&feed(2_000, 256, 1.0, true, 4), 1).unwrap(),
        );
        assert_eq!(lib.entries.len(), 2);
        let probe =
            WorkloadFingerprint::from_collector(&feed(1_500, 16, 0.75, false, 20), 1).unwrap();
        let (label, score) = lib.nearest(&probe).unwrap();
        assert_eq!(label, "oltp");
        assert!(score > 0.8, "score = {score}");
    }

    #[test]
    fn recommendations_mention_key_risks() {
        let stream =
            WorkloadFingerprint::from_collector(&feed(2_000, 256, 1.0, true, 4), 1).unwrap();
        let recs = recommendations(&stream);
        assert!(recs.iter().any(|r| r.contains("interference")));

        let mut oltp =
            WorkloadFingerprint::from_collector(&feed(2_000, 16, 0.3, false, 16), 1).unwrap();
        let recs = recommendations(&oltp);
        assert!(recs.iter().any(|r| r.contains("stripe")));
        assert!(recs
            .iter()
            .any(|r| r.contains("RAID-10") || r.contains("write-back")));
        // Deep queues trigger the queue-depth advice.
        oltp.deep_queue_fraction = 0.9;
        assert!(recommendations(&oltp)
            .iter()
            .any(|r| r.contains("queue depth")));
    }

    #[test]
    fn interleaved_streams_advice() {
        // Two interleaved sequential streams: windowed seq high, plain low.
        let mut c = IoStatsCollector::default();
        let mut id = 0u64;
        for i in 0..1_000u64 {
            for base in [0u64, 400_000_000] {
                let req = IoRequest::new(
                    RequestId(id),
                    TargetId::default(),
                    IoDirection::Read,
                    Lba::new(base + i * 64),
                    64,
                    SimTime::from_micros(id * 50),
                );
                c.on_issue(&req);
                c.on_complete(&IoCompletion::new(req, SimTime::from_micros(id * 50 + 20)));
                id += 1;
            }
        }
        let fp = WorkloadFingerprint::from_collector(&c, 1).unwrap();
        assert!(fp.sequentiality > 0.9);
        let recs = recommendations(&fp);
        assert!(
            recs.iter()
                .any(|r| r.contains("interleaved sequential streams")),
            "recs = {recs:?}"
        );
    }

    #[test]
    fn display_is_informative() {
        let fp = WorkloadFingerprint::from_collector(&feed(500, 16, 0.5, false, 8), 1).unwrap();
        let s = fp.to_string();
        assert!(s.contains("cmds"));
        assert!(s.contains("OIO"));
        assert_eq!(WorkloadClass::Mixed.to_string(), "mixed");
    }
}
