//! The environment every output records, and the scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Voter threads of the closed loop: `C = min(nproc, 4)`.
pub fn voter_threads() -> usize {
    nproc().min(4)
}

/// `rustc -V` of the toolchain on the path.
fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("-V").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The commit checked out in the working directory, read from `.git`
/// there (the benchmark reads nothing above its checkout, so no `git`
/// walking up the tree). `None` where the checkout is not a repository.
fn head_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => match std::fs::read_to_string(Path::new(".git").join(reference)) {
            Ok(hash) => hash.trim().to_string(),
            Err(_) => std::fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(str::trim))?
                .to_string(),
        },
    };
    hash.get(..12).map(str::to_string)
}

/// `key=value` lines describing the machine and build.
pub fn describe() -> Vec<String> {
    let unknown = || "unknown".to_string();
    vec![
        format!("nproc={}", nproc()),
        format!("C={}", voter_threads()),
        format!("commit={}", head_commit().unwrap_or_else(unknown)),
        format!("rustc={}", rustc_version().unwrap_or_else(unknown)),
        format!(
            "DDEMOS_THREADS={}",
            std::env::var("DDEMOS_THREADS").unwrap_or_else(|_| "unset".to_string())
        ),
    ]
}

/// Where the benchmark writes (WAL directories, trace files): under the
/// Cargo target directory, so `.gitignore` already covers it.
pub fn scratch_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("ddbench")
}

/// A directory unique to this run, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    /// # Errors
    /// I/O errors creating the directory.
    pub fn create(label: &str) -> std::io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = scratch_root().join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The filesystem type `path` lives on (longest mount-point prefix in
/// `/proc/mounts`); `storage.commit_us` means nothing on `tmpfs`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`), so work moved
/// into tables and caches shows. `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
