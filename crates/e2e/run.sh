#!/usr/bin/env bash
# Build ext_e2e from this checkout, then run it with the arguments given.
#
#   bash crates/e2e/run.sh --workload hook_hot --seed 11 --seconds 12 --trace 0
#   bash crates/e2e/run.sh                      # all five workloads, full size
#   bash crates/e2e/run.sh --smoke
#   bash crates/e2e/run.sh compare A.json B.json
#   bash crates/e2e/run.sh --build-only
#
# The build is `cargo build --release -p vscsistats-e2e`. Where the crates.io
# registry does not resolve (the development container), the same cargo build
# runs --offline with the registry crates patched to the API-compatible stubs
# in tools/offline-harness/stubs. Which of the two linked the binary is baked
# into it and stamped into every output as provenance.build; `compare` refuses
# to compare across the two (the stub parking_lot is not the real lock).
#
# Everything is written under $CARGO_TARGET_DIR (default: target/), inside the
# checkout. Build chatter goes to stderr; stdout belongs to ext_e2e.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/core ] || [ ! -d tools/offline-harness/stubs ]; then
    echo "run.sh: $root is not a checkout of the repository (the benchmark builds the library crates from source)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
mkdir -p "$target"
mode_file="$target/e2e-build-mode"
bin="$target/release/ext_e2e"

VSCSI_E2E_RUSTC="$(rustc --version)"
export VSCSI_E2E_RUSTC

build_cargo() {
    VSCSI_E2E_BUILD=cargo CARGO_NET_RETRY=0 \
        cargo build --release -p vscsistats-e2e 1>&2
}

# One throwaway package per registry crate the workspace names, each pointing
# its lib at the stub source, handed to cargo as [patch.crates-io] entries.
build_stubs() {
    local stubs="$target/offline-stubs" src="$root/tools/offline-harness/stubs"
    local patch=() name version extra lib
    while read -r name version; do
        mkdir -p "$stubs/$name"
        extra=""
        [ "$name" = serde ] && extra=$'[dependencies]\nserde_derive = { version = "1", path = "../serde_derive" }\n[features]\nderive = []'
        [ "$name" = serde_derive ] && extra="proc-macro = true"
        if [ -f "$src/$name.rs" ]; then
            lib="$src/$name.rs"
        else
            # Named by a manifest but never compiled for this binary.
            : >"$stubs/$name/empty.rs"
            lib="$stubs/$name/empty.rs"
        fi
        # $extra lands inside [lib] for serde_derive and opens new tables for serde.
        printf '[package]\nname = "%s"\nversion = "%s"\nedition = "2021"\n[lib]\npath = "%s"\n%s\n' \
            "$name" "$version" "$lib" "$extra" >"$stubs/$name/Cargo.toml"
        patch+=(--config "patch.crates-io.$name.path='$stubs/$name'")
    done <<'EOF'
serde 1.0.999
serde_derive 1.0.999
parking_lot 0.12.999
rand 0.8.999
bytes 1.999.0
crossbeam 0.8.999
proptest 1.999.0
criterion 0.5.999
EOF
    local had_lock=0
    [ -f Cargo.lock ] && had_lock=1
    local status=0
    VSCSI_E2E_BUILD=offline-stubs \
        cargo build --release --offline -p vscsistats-e2e "${patch[@]}" 1>&2 || status=$?
    # The lock file written here names the stubs; leave none behind.
    [ "$had_lock" = 0 ] && rm -f Cargo.lock
    return "$status"
}

mode=""
[ -f "$mode_file" ] && mode="$(cat "$mode_file")"
case "$mode" in
    cargo) build_cargo ;;
    offline-stubs) build_stubs ;;
    *)
        if build_cargo 2>"$target/e2e-cargo-attempt.log"; then
            mode=cargo
        else
            echo "run.sh: cargo could not build against the registry (log: $target/e2e-cargo-attempt.log); building --offline against tools/offline-harness/stubs" >&2
            build_stubs
            mode=offline-stubs
        fi
        echo "$mode" >"$mode_file"
        ;;
esac

[ "${1:-}" = "--build-only" ] && exit 0

VSCSI_E2E_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export VSCSI_E2E_COMMIT
exec "$bin" "$@"
