//! Report rendering for the experiment binaries: paper-style histogram
//! panels plus PASS/FAIL shape checks against the paper's claims.

use histo::Histogram;
use std::fmt::Write as _;

/// Renders one labelled histogram panel (the analogue of one sub-figure).
pub fn panel(title: &str, h: &Histogram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "--- {title} ---");
    let _ = writeln!(out, "{h}");
    out
}

/// Renders two histograms side by side for comparison figures (e.g.
/// Figure 5's XP vs Vista overlays).
pub fn panel2(title: &str, label_a: &str, a: &Histogram, label_b: &str, b: &Histogram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "--- {title} ---");
    let width = (0..a.edges().bin_count())
        .map(|i| a.edges().bin_label(i).len())
        .max()
        .unwrap_or(4)
        .max(4);
    let _ = writeln!(out, "{:>width$} {:>12} {:>12}", "bin", label_a, label_b);
    if a.edges() == b.edges() {
        for (i, (la, ca)) in a.iter_labeled().enumerate() {
            let _ = writeln!(out, "{la:>width$} {ca:>12} {:>12}", b.count(i));
        }
    } else {
        let _ = writeln!(out, "(layouts differ; showing separately)");
        out.push_str(&panel(label_a, a));
        out.push_str(&panel(label_b, b));
    }
    out
}

/// One paper-vs-measured shape check.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// What the paper claims (human-readable).
    pub claim: String,
    /// What we measured (human-readable).
    pub measured: String,
    /// Did the measured shape match?
    pub pass: bool,
}

impl ShapeCheck {
    /// Builds a check.
    pub fn new(claim: impl Into<String>, measured: impl Into<String>, pass: bool) -> Self {
        ShapeCheck {
            claim: claim.into(),
            measured: measured.into(),
            pass,
        }
    }
}

/// Renders the shape-check table and returns `(rendered, all_passed)`.
pub fn shape_report(checks: &[ShapeCheck]) -> (String, bool) {
    let mut out = String::new();
    let mut all = true;
    let _ = writeln!(out, "=== paper-vs-measured shape checks ===");
    for c in checks {
        let mark = if c.pass { "PASS" } else { "FAIL" };
        all &= c.pass;
        let _ = writeln!(out, "[{mark}] {}", c.claim);
        let _ = writeln!(out, "       measured: {}", c.measured);
    }
    let _ = writeln!(
        out,
        "result: {}",
        if all {
            "ALL SHAPES MATCH"
        } else {
            "SHAPE MISMATCH"
        }
    );
    (out, all)
}

/// The seeded suites' whole command line, `ext_x [seed]`: the one
/// optional argument as the seed, or `default`. Anything else prints the
/// usage line and exits with status 2.
pub fn seed_arg(default: u64) -> u64 {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let seed = match args.next() {
        None => Some(default),
        Some(arg) => arg.parse().ok(),
    };
    match (seed, args.next()) {
        (Some(seed), None) => seed,
        _ => {
            eprintln!("usage: {program} [seed]");
            std::process::exit(2);
        }
    }
}

/// Percentage-formats a fraction.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> Histogram {
        let mut h = Histogram::with_edges(vec![0, 10]).unwrap();
        h.record(5);
        h
    }

    #[test]
    fn panel_contains_title_and_bars() {
        let p = panel("I/O Length Histogram", &hist());
        assert!(p.contains("I/O Length Histogram"));
        assert!(p.contains('#'));
    }

    #[test]
    fn panel2_same_layout_columns() {
        let a = hist();
        let mut b = Histogram::with_edges(vec![0, 10]).unwrap();
        b.record(100);
        let p = panel2("cmp", "XP", &a, "Vista", &b);
        assert!(p.contains("XP"));
        assert!(p.contains("Vista"));
        assert!(p.lines().count() >= 5);
    }

    #[test]
    fn panel2_mismatched_layouts_fall_back() {
        let a = hist();
        let b = Histogram::with_edges(vec![7]).unwrap();
        let p = panel2("cmp", "a", &a, "b", &b);
        assert!(p.contains("layouts differ"));
    }

    #[test]
    fn shape_report_flags_failures() {
        let (text, ok) = shape_report(&[
            ShapeCheck::new("x", "y", true),
            ShapeCheck::new("z", "w", false),
        ]);
        assert!(!ok);
        assert!(text.contains("[PASS] x"));
        assert!(text.contains("[FAIL] z"));
        assert!(text.contains("SHAPE MISMATCH"));
        let (text, ok) = shape_report(&[ShapeCheck::new("x", "y", true)]);
        assert!(ok);
        assert!(text.contains("ALL SHAPES MATCH"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.915), "91.5%");
    }
}
