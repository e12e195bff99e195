//! # vscsistats-bench — experiment harness
//!
//! Shared scenario builders and report rendering for the experiment
//! binaries: one per paper table/figure, the §7 extensions, and six
//! seeded suites. See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for the recorded paper-vs-measured results. Nothing
//! here measures wall-clock time; `ext_e2e` (`crates/e2e`) is the only
//! benchmark.
//!
//! Paper figures and extensions:
//!
//! | target | artifact |
//! |---|---|
//! | `fig2_filebench_ufs` | Figure 2 — Filebench OLTP on UFS |
//! | `fig3_filebench_zfs` | Figure 3 — Filebench OLTP on ZFS |
//! | `fig4_dbt2` | Figure 4 — DBT-2 on ext3/PostgreSQL model |
//! | `fig5_filecopy` | Figure 5 — XP vs Vista large file copy |
//! | `table2_microbench` | Table 2 — service overhead microbenchmark |
//! | `fig6_interference` | Figure 6 / §5.3 — multi-VM interference |
//! | `ablation_window` | §3.1 — seek-window size sweep |
//! | `ext_fingerprint`, `ext_whatif_placement`, `ext_trace_analysis`, `ext_split_disks` | §7 / §3.6 extensions |
//! | `vscsistats` | the command-line front end |
//!
//! Seeded suites — `ext_x [seed]`, stdout a function of the seed, exit
//! status = every check passed; `tests/suites.rs` runs each twice and
//! compares:
//!
//! | target | what it abuses |
//! |---|---|
//! | `ext_faults` | device fault plans: bit-stable histograms, hang-storm quarantine |
//! | `ext_overload` | sentinel governor, trace-store watchdog, shard-panic quarantine |
//! | `ext_fleet` | fleet rollup at 256 hosts / 10 240 targets, clean and under wire chaos |
//! | `ext_fleetchaos` | fleet retry/backoff, breaker, eviction, restart re-basing |
//! | `ext_crash` | checkpoint and trace-segment crash points, zero-loss recovery |
//! | `ext_query` | indexed parallel query ≡ naive ≡ online, pushdown skip ratio, corruption |

#![warn(missing_docs)]

pub mod legacy;
pub mod overload;
pub mod reporting;
pub mod scenarios;
