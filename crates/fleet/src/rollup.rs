//! Hierarchical rollup: host → tenant → fleet.
//!
//! The paper's histograms are pure counter vectors, so they merge
//! losslessly ([`HistogramSet::merge`] is `Histogram::merge` slot by slot:
//! commutative and associative, and merge-of-parts equals ingest-of-union
//! — property-tested in the histo and core crates). That makes fleet
//! aggregation *exact*: the root of the rollup tree carries precisely the
//! sum of its leaves, bin for bin, and [`FleetView::conserves`] re-derives
//! the tree from the leaves to prove it. No sketches, no sampling error —
//! the same numbers vCenter would show for one host, summed across
//! thousands.

use crate::wire::TargetHistograms;
use histo::MergeError;
use std::collections::BTreeMap;
use vscsi_stats::HistogramSet;

/// Identifies a simulated host within the fleet.
pub type HostId = u64;

/// Identifies a tenant (a group of hosts rolled up together).
pub type TenantId = u64;

/// A full metric × lens histogram set, mergeable with any other — the
/// aggregation state of one rollup node. Every set has the one slot layout
/// [`HistogramSet`] fixes, so merging and subtracting cannot mismatch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggSet(pub(crate) HistogramSet);

impl AggSet {
    /// An empty set.
    pub fn new() -> Self {
        AggSet::default()
    }

    /// Merges one target's decoded histogram set into this node.
    ///
    /// # Errors
    ///
    /// None: the `Result` is kept only because the frozen benchmark binds
    /// it with `let _ =` and its lint gate denies `clippy::let_unit_value`;
    /// it goes with the next `[benchmark]` PR (ROADMAP item 2).
    pub fn merge_target(&mut self, target: &TargetHistograms) -> Result<(), MergeError> {
        self.0.merge(&target.set);
        Ok(())
    }

    /// Merges another node's whole set into this one.
    pub fn merge(&mut self, other: &AggSet) {
        self.0.merge(&other.0);
    }

    /// Total observations across every slot.
    pub fn total_events(&self) -> u64 {
        self.0.total_events()
    }

    /// The cumulative difference `self − prev`, or `None` when any counter
    /// regressed — the signature of a host restart. See
    /// [`HistogramSet::try_delta`] for the rule and for why merging every
    /// windowed delta of an epoch reproduces the cumulative snapshot.
    pub fn try_delta(&self, prev: &AggSet) -> Option<AggSet> {
        self.0.try_delta(&prev.0).map(AggSet)
    }

    /// `true` when every slot's counters, totals, sums, and min/max match.
    pub fn same_counters(&self, other: &AggSet) -> bool {
        self == other
    }
}

/// One rollup node: an aggregated histogram set plus how much it covers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RollupNode {
    /// The merged histograms.
    pub agg: AggSet,
    /// Distinct (VM, disk) targets under this node.
    pub targets: usize,
    /// Hosts contributing to this node.
    pub hosts: usize,
}

/// One host's contribution to a view: its latest good snapshot plus
/// liveness metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct HostView {
    /// The host.
    pub host: HostId,
    /// Its tenant.
    pub tenant: TenantId,
    /// `true` if the host missed enough polls that its snapshot is no
    /// longer trusted — stale hosts are excluded from fleet/tenant sums.
    pub stale: bool,
    /// Targets in the host's latest good snapshot.
    pub targets: usize,
    /// Latest good snapshot (empty if the host never answered).
    pub agg: AggSet,
    /// Virtual-clock capture time of that snapshot, microseconds.
    pub captured_at_us: u64,
}

/// A consistent fleet picture assembled from the latest good snapshot of
/// every live host: the fleet root, per-tenant nodes, and per-host leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetView {
    /// Poll-window index (virtual time / poll interval) the view was
    /// assembled in.
    pub window: u64,
    /// The root: every live host merged.
    pub fleet: RollupNode,
    /// Tenant-level nodes, keyed by tenant.
    pub tenants: BTreeMap<TenantId, RollupNode>,
    /// Per-host leaves, including stale ones (marked, not merged).
    pub hosts: Vec<HostView>,
    /// Hosts evicted from the live fleet (dead past the eviction
    /// horizon). They have no leaf here at all — this count books them so
    /// view-level accounting still covers every host ever enrolled.
    pub evicted: usize,
}

impl FleetView {
    /// Assembles the tree from per-host leaves, booking `evicted` hosts
    /// that no longer have one. Stale hosts are carried in
    /// [`FleetView::hosts`] but contribute nothing to tenant or fleet
    /// nodes.
    pub(crate) fn assemble(window: u64, hosts: Vec<HostView>, evicted: usize) -> FleetView {
        let mut fleet = RollupNode::default();
        let mut tenants: BTreeMap<TenantId, RollupNode> = BTreeMap::new();
        for h in hosts.iter().filter(|h| !h.stale) {
            let tenant = tenants.entry(h.tenant).or_default();
            for node in [&mut fleet, tenant] {
                node.agg.merge(&h.agg);
                node.targets += h.targets;
                node.hosts += 1;
            }
        }
        FleetView {
            window,
            fleet,
            tenants,
            hosts,
            evicted,
        }
    }

    /// Exact conservation: re-derives every tenant node and the fleet root
    /// from the per-host leaves and compares whole histogram states
    /// (counters, totals, sums, min/max). Also checks the tenant layer
    /// partitions the fleet: summed tenant nodes equal the root.
    pub fn conserves(&self) -> bool {
        let rebuilt = FleetView::assemble(self.window, self.hosts.clone(), self.evicted);
        if rebuilt.fleet != self.fleet || rebuilt.tenants != self.tenants {
            return false;
        }
        let mut tenant_sum = AggSet::new();
        let mut tenant_targets = 0usize;
        for node in self.tenants.values() {
            tenant_sum.merge(&node.agg);
            tenant_targets += node.targets;
        }
        tenant_sum == self.fleet.agg && tenant_targets == self.fleet.targets
    }

    /// Hosts currently marked stale.
    pub fn stale_hosts(&self) -> usize {
        self.hosts.iter().filter(|h| h.stale).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{uniform_target, UNIFORM_SLOTS};

    fn target_set(seed: i64) -> TargetHistograms {
        uniform_target(&[seed, seed * 3 + 1])
    }

    fn host(id: HostId, tenant: TenantId, seeds: &[i64], stale: bool) -> HostView {
        let mut agg = AggSet::new();
        for &s in seeds {
            agg.merge_target(&target_set(s)).unwrap();
        }
        HostView {
            host: id,
            tenant,
            stale,
            targets: seeds.len(),
            agg,
            captured_at_us: 0,
        }
    }

    #[test]
    fn assemble_sums_exactly_and_conserves() {
        let hosts = vec![
            host(0, 0, &[5, 9], false),
            host(1, 0, &[100], false),
            host(2, 1, &[7, 8, 2000], false),
        ];
        let view = FleetView::assemble(3, hosts, 0);
        assert_eq!(view.fleet.hosts, 3);
        assert_eq!(view.fleet.targets, 6);
        assert_eq!(view.tenants.len(), 2);
        // 6 target sets × 2 records each, in `UNIFORM_SLOTS` slots.
        assert_eq!(view.fleet.agg.total_events(), 6 * UNIFORM_SLOTS * 2);
        assert!(view.conserves());
    }

    #[test]
    fn stale_hosts_are_reported_but_not_merged() {
        let hosts = vec![host(0, 0, &[5], false), host(1, 0, &[9], true)];
        let view = FleetView::assemble(0, hosts, 0);
        assert_eq!(view.fleet.hosts, 1);
        assert_eq!(view.stale_hosts(), 1);
        assert_eq!(view.fleet.agg.total_events(), UNIFORM_SLOTS * 2);
        assert!(view.conserves());
    }

    #[test]
    fn try_delta_telescopes_bit_for_bit() {
        let base = host(0, 0, &[5, 9], false).agg;
        let mut cum = base.clone();
        cum.merge_target(&target_set(100)).unwrap();
        let delta = cum.try_delta(&base).unwrap();
        let mut resum = base.clone();
        resum.merge(&delta);
        assert!(resum.same_counters(&cum));
        // A no-change window deltas to all-empty slots.
        assert_eq!(base.try_delta(&base).unwrap().total_events(), 0);
    }

    #[test]
    fn try_delta_flags_regression() {
        let base = host(0, 0, &[5], false).agg;
        let mut cum = base.clone();
        cum.merge_target(&target_set(9)).unwrap();
        assert!(base.try_delta(&cum).is_none(), "count regression");
    }
}
