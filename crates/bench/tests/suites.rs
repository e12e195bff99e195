//! The seeded suites are functions of their seed: each binary runs twice at
//! the seed below and must exit 0 with byte-identical stdout both times.
//! A suite that joins the list gets the same check; nothing else in the
//! repository diffs suite output.

use std::process::Command;

/// `(binary, seed)`.
const SUITES: [(&str, &str); 6] = [
    (env!("CARGO_BIN_EXE_ext_faults"), "250"),
    (env!("CARGO_BIN_EXE_ext_overload"), "37"),
    (env!("CARGO_BIN_EXE_ext_fleet"), "11"),
    (env!("CARGO_BIN_EXE_ext_fleetchaos"), "23"),
    (env!("CARGO_BIN_EXE_ext_crash"), "11"),
    (env!("CARGO_BIN_EXE_ext_query"), "11"),
];

#[test]
fn every_suite_passes_and_repeats_byte_for_byte() {
    let mut failures = Vec::new();
    for (bin, seed) in SUITES {
        let run = || Command::new(bin).arg(seed).output().expect("suite runs");
        let (first, second) = (run(), run());
        for out in [&first, &second] {
            if !out.status.success() {
                failures.push(format!(
                    "{bin} {seed}: {}\n{}{}",
                    out.status,
                    String::from_utf8_lossy(&out.stdout),
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
        }
        if first.stdout != second.stdout {
            failures.push(format!(
                "{bin} {seed}: stdout differs between two runs\n--- first\n{}--- second\n{}",
                String::from_utf8_lossy(&first.stdout),
                String::from_utf8_lossy(&second.stdout)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
