//! # vscsistats-bench — experiment harness
//!
//! Shared scenario builders and report rendering for the experiment
//! binaries (one per paper table/figure) and the Criterion benches. See
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for the
//! recorded paper-vs-measured results.
//!
//! Binaries:
//!
//! | target | artifact |
//! |---|---|
//! | `fig2_filebench_ufs` | Figure 2 — Filebench OLTP on UFS |
//! | `fig3_filebench_zfs` | Figure 3 — Filebench OLTP on ZFS |
//! | `fig4_dbt2` | Figure 4 — DBT-2 on ext3/PostgreSQL model |
//! | `fig5_filecopy` | Figure 5 — XP vs Vista large file copy |
//! | `table2_microbench` | Table 2 — service overhead microbenchmark |
//! | `fig6_interference` | Figure 6 / §5.3 — multi-VM interference |
//! | `ext_overload` | sentinel governor / watchdog / quarantine chaos suite (`BENCH_overload.json`) |

#![warn(missing_docs)]

pub mod legacy;
pub mod overload;
pub mod reporting;
pub mod scenarios;
