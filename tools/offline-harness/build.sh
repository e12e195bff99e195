#!/bin/bash
# Offline harness: compile the workspace with stub external deps.
set -e
FH=/tmp/fh
LIB=$FH/lib
R=/root/repo
E="--edition 2021 -L $LIB --out-dir $LIB"
cd $R

step() { echo "=== $1"; shift; "$@"; }

step serde_derive rustc --edition 2021 --crate-type proc-macro --crate-name serde_derive \
    $FH/stubs/serde_derive.rs --out-dir $LIB
step serde rustc $E --crate-type lib --crate-name serde $FH/stubs/serde.rs \
    --extern serde_derive=$LIB/libserde_derive.so
step parking_lot rustc $E --crate-type lib --crate-name parking_lot $FH/stubs/parking_lot.rs
step rand rustc $E --crate-type lib --crate-name rand $FH/stubs/rand.rs
step bytes rustc $E --crate-type lib --crate-name bytes $FH/stubs/bytes.rs
step crossbeam rustc $E --crate-type lib --crate-name crossbeam $FH/stubs/crossbeam.rs
step proptest rustc $E --crate-type lib --crate-name proptest $FH/stubs/proptest.rs

X_SERDE="--extern serde=$LIB/libserde.rlib --extern serde_derive=$LIB/libserde_derive.so"

step simkit rustc $E --crate-type lib --crate-name simkit crates/simkit/src/lib.rs \
    $X_SERDE --extern rand=$LIB/librand.rlib
step histo rustc $E --crate-type lib --crate-name histo crates/histo/src/lib.rs \
    $X_SERDE --extern simkit=$LIB/libsimkit.rlib
step vscsi rustc $E --crate-type lib --crate-name vscsi crates/vscsi/src/lib.rs \
    $X_SERDE --extern simkit=$LIB/libsimkit.rlib --extern bytes=$LIB/libbytes.rlib
step vscsi_stats rustc $E --crate-type lib --crate-name vscsi_stats crates/core/src/lib.rs \
    $X_SERDE --extern simkit=$LIB/libsimkit.rlib --extern histo=$LIB/libhisto.rlib \
    --extern vscsi=$LIB/libvscsi.rlib --extern parking_lot=$LIB/libparking_lot.rlib
step tracestore rustc $E --crate-type lib --crate-name tracestore crates/tracestore/src/lib.rs \
    --extern simkit=$LIB/libsimkit.rlib --extern vscsi=$LIB/libvscsi.rlib --extern vscsi_stats=$LIB/libvscsi_stats.rlib \
    --extern parking_lot=$LIB/libparking_lot.rlib
step fleet rustc $E --crate-type lib --crate-name fleet crates/fleet/src/lib.rs \
    --extern simkit=$LIB/libsimkit.rlib --extern histo=$LIB/libhisto.rlib \
    --extern vscsi=$LIB/libvscsi.rlib --extern vscsi_stats=$LIB/libvscsi_stats.rlib
step faultkit rustc $E --crate-type lib --crate-name faultkit crates/faultkit/src/lib.rs \
    $X_SERDE --extern simkit=$LIB/libsimkit.rlib --extern vscsi=$LIB/libvscsi.rlib \
    --extern vscsi_stats=$LIB/libvscsi_stats.rlib
step storage rustc $E --crate-type lib --crate-name storage crates/storage/src/lib.rs \
    $X_SERDE --extern simkit=$LIB/libsimkit.rlib --extern vscsi=$LIB/libvscsi.rlib \
    --extern faultkit=$LIB/libfaultkit.rlib
step guests rustc $E --crate-type lib --crate-name guests crates/guests/src/lib.rs \
    $X_SERDE --extern simkit=$LIB/libsimkit.rlib --extern vscsi=$LIB/libvscsi.rlib \
    --extern rand=$LIB/librand.rlib
step esx rustc $E --crate-type lib --crate-name esx crates/esx/src/lib.rs \
    $X_SERDE --extern simkit=$LIB/libsimkit.rlib --extern vscsi=$LIB/libvscsi.rlib \
    --extern storage=$LIB/libstorage.rlib --extern guests=$LIB/libguests.rlib \
    --extern vscsi_stats=$LIB/libvscsi_stats.rlib --extern faultkit=$LIB/libfaultkit.rlib
step vscsistats_bench rustc $E --crate-type lib --crate-name vscsistats_bench crates/bench/src/lib.rs \
    --extern simkit=$LIB/libsimkit.rlib --extern histo=$LIB/libhisto.rlib \
    --extern vscsi=$LIB/libvscsi.rlib --extern storage=$LIB/libstorage.rlib \
    --extern guests=$LIB/libguests.rlib --extern esx=$LIB/libesx.rlib \
    --extern faultkit=$LIB/libfaultkit.rlib --extern vscsi_stats=$LIB/libvscsi_stats.rlib \
    --extern tracestore=$LIB/libtracestore.rlib --extern fleet=$LIB/libfleet.rlib \
    --extern rand=$LIB/librand.rlib --extern crossbeam=$LIB/libcrossbeam.rlib \
    --extern parking_lot=$LIB/libparking_lot.rlib
step facade rustc $E --crate-type lib --crate-name vscsistats_repro src/lib.rs \
    --extern simkit=$LIB/libsimkit.rlib --extern histo=$LIB/libhisto.rlib \
    --extern vscsi=$LIB/libvscsi.rlib --extern storage=$LIB/libstorage.rlib \
    --extern guests=$LIB/libguests.rlib --extern esx=$LIB/libesx.rlib \
    --extern faultkit=$LIB/libfaultkit.rlib --extern vscsi_stats=$LIB/libvscsi_stats.rlib \
    --extern tracestore=$LIB/libtracestore.rlib --extern fleet=$LIB/libfleet.rlib
echo "=== all rlibs built"
