#!/bin/bash
# Build and run crate unit tests (plain #[test] in src) via rustc --test.
set -e
FH=/tmp/fh
LIB=$FH/lib
R=/root/repo
E="--edition 2021 -L $LIB"
X_SERDE="--extern serde=$LIB/libserde.rlib --extern serde_derive=$LIB/libserde_derive.so"
cd $R

t() {
  name=$1; src=$2; shift 2
  echo "=== test:$name"
  rustc $E --test --crate-name ${name}_t -o $FH/bin/${name}_t "$src" "$@"
  $FH/bin/${name}_t --test-threads=4 2>&1 | tail -2
}

t simkit crates/simkit/src/lib.rs $X_SERDE --extern rand=$LIB/librand.rlib
t histo crates/histo/src/lib.rs $X_SERDE --extern simkit=$LIB/libsimkit.rlib
t vscsi crates/vscsi/src/lib.rs $X_SERDE --extern simkit=$LIB/libsimkit.rlib \
  --extern bytes=$LIB/libbytes.rlib
t vscsi_stats crates/core/src/lib.rs $X_SERDE --extern simkit=$LIB/libsimkit.rlib \
  --extern histo=$LIB/libhisto.rlib --extern vscsi=$LIB/libvscsi.rlib \
  --extern parking_lot=$LIB/libparking_lot.rlib
t tracestore crates/tracestore/src/lib.rs --extern simkit=$LIB/libsimkit.rlib --extern vscsi=$LIB/libvscsi.rlib \
  --extern vscsi_stats=$LIB/libvscsi_stats.rlib --extern parking_lot=$LIB/libparking_lot.rlib
t fleet crates/fleet/src/lib.rs --extern simkit=$LIB/libsimkit.rlib \
  --extern histo=$LIB/libhisto.rlib --extern vscsi=$LIB/libvscsi.rlib \
  --extern vscsi_stats=$LIB/libvscsi_stats.rlib
t faultkit crates/faultkit/src/lib.rs $X_SERDE --extern simkit=$LIB/libsimkit.rlib \
  --extern vscsi=$LIB/libvscsi.rlib --extern vscsi_stats=$LIB/libvscsi_stats.rlib \
  --extern tracestore=$LIB/libtracestore.rlib
t esx crates/esx/src/lib.rs $X_SERDE --extern simkit=$LIB/libsimkit.rlib \
  --extern vscsi=$LIB/libvscsi.rlib --extern storage=$LIB/libstorage.rlib \
  --extern guests=$LIB/libguests.rlib --extern vscsi_stats=$LIB/libvscsi_stats.rlib \
  --extern faultkit=$LIB/libfaultkit.rlib
echo "=== all unit tests done"
