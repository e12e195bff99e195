//! Sample summaries and the digest every correctness check compares.

use vscsi_stats::{IoStatsCollector, Lens, Metric, StatsService};

/// Median of `samples` (0 when empty, which a report never prints).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    simkit::quantile(samples, q).unwrap_or(0.0)
}

/// FNV-1a over a stream of `u64`s: the one digest used for inputs,
/// histogram state and ledgers, so "same bytes" is one comparison.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn fold(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn fold_bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        self.fold(bytes.len() as u64);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Folds every histogram cell and command counter of one collector.
pub fn fold_collector(d: &mut Digest, collector: &IoStatsCollector) {
    d.fold(collector.issued_commands());
    d.fold(collector.completed_commands());
    d.fold(collector.error_commands());
    for metric in Metric::ALL {
        for lens in Lens::ALL {
            let histogram = collector.histogram(metric, lens);
            d.fold(histogram.total());
            for &count in histogram.counts() {
                d.fold(count);
            }
        }
    }
}

/// Digest of a whole service: every target (ascending) and every
/// histogram cell. Two services that saw the same per-target event order
/// digest the same, whichever ingest path fed them.
pub fn service_digest(service: &StatsService) -> u64 {
    let mut collectors = service.collectors();
    collectors.sort_by_key(|(target, _)| *target);
    let mut d = Digest::default();
    for (target, collector) in &collectors {
        d.fold(u64::from(target.vm.0));
        d.fold(u64::from(target.disk.0));
        fold_collector(&mut d, collector);
    }
    d.value()
}
