//! The host block: what every number in a report was measured on.

use crate::jobs::{CORES, RANKS, WORKLOADS};
use demsort_types::json::Json;
use std::path::Path;

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ram_mb() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = meminfo.lines().find(|l| l.starts_with("MemTotal:"))?;
    line.split_whitespace().nth(1)?.parse::<u64>().ok().map(|kb| kb / 1024)
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc").arg("-V").output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checked-out commit, read from `.git` by hand (the benchmark may
/// run in an exported tree with no `.git` and no `git` binary).
fn commit(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = read_trimmed(git.join("HEAD"))?;
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head) };
    read_trimmed(git.join(reference)).or_else(|| {
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
    })
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
}

/// Size of the last-level cache as sysfs states it (e.g. `"32768K"`).
fn llc_size() -> Option<String> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    std::fs::read_dir(base)
        .ok()?
        .filter_map(|e| {
            let p = e.ok()?.path();
            let level: u32 = read_trimmed(p.join("level"))?.parse().ok()?;
            Some((level, read_trimmed(p.join("size"))?))
        })
        .max_by_key(|(level, _)| *level)
        .map(|(level, size)| format!("L{level} {size}"))
}

/// Describe the host, the build and the fixed job shape.
pub fn host_block(repo_root: &Path, scratch: &Path) -> Json {
    let text = |v: Option<String>| Json::str(v.unwrap_or_else(|| "unknown".into()));
    let transports = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), Json::str(if w.local { "local" } else { "tcp" })))
        .collect();
    Json::Obj(vec![
        ("nproc".into(), Json::Uint(nproc() as u64)),
        ("ram_mb".into(), ram_mb().map_or(Json::Null, Json::Uint)),
        ("kernel".into(), text(read_trimmed("/proc/sys/kernel/osrelease"))),
        ("rustc".into(), text(rustc_version())),
        ("commit".into(), text(commit(repo_root))),
        ("scratch_fs".into(), text(fs_type(scratch))),
        ("llc".into(), text(llc_size())),
        ("backend".into(), Json::str("MemBackend")),
        ("transport".into(), Json::Obj(transports)),
        ("ranks".into(), Json::Uint(RANKS as u64)),
        ("cores_per_rank".into(), Json::Uint(CORES as u64)),
        // More sorter threads than cores means the run times the
        // scheduler too; say so instead of hiding it.
        ("oversubscribed".into(), Json::Bool(RANKS * CORES > nproc())),
    ])
}
