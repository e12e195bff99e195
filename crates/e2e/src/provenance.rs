//! Where a number came from: stamped into every output document.

use crate::json::Json;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Provenance {
    /// `"cargo"` (real registry crates) or `"offline-stubs"` (the
    /// `tools/offline-harness` stand-ins); baked in by `run.sh` at build
    /// time. The stub `parking_lot` is not the real lock, so numbers from
    /// the two builds are never compared.
    pub build: &'static str,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: String,
    /// Filesystem type under the work directory.
    pub workdir_fs: String,
}

impl Provenance {
    pub fn collect(workdir: &Path) -> Provenance {
        Provenance {
            build: option_env!("VSCSI_E2E_BUILD").unwrap_or("cargo"),
            nproc: crate::nproc(),
            cpu_model: cpu_model(),
            rustc: option_env!("VSCSI_E2E_RUSTC").unwrap_or("unknown"),
            commit: std::env::var("VSCSI_E2E_COMMIT").unwrap_or_else(|_| "unknown".into()),
            workdir_fs: filesystem_of(workdir),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("build", Json::str(self.build)),
            ("nproc", Json::uint(self.nproc as u64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(self.rustc)),
            ("commit", Json::str(&self.commit)),
            ("workdir_fs", Json::str(&self.workdir_fs)),
        ])
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The type of the mount with the longest mount point that prefixes
/// `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount_point, fs_type) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs_type)| fs_type)
}
