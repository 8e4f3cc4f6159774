//! The environment a result was measured in, recorded with every run.

use std::path::Path;
use std::process::Command;

pub struct Environment {
    pub nproc: usize,
    /// Filesystem type of the data directory, from `/proc/mounts`.
    pub data_fs: String,
    pub kernel: String,
    pub rustc: String,
    pub git_rev: String,
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix of its canonical path).
pub fn fs_type(dir: &Path) -> Result<String, String> {
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let mounts =
        std::fs::read_to_string("/proc/mounts").map_err(|e| format!("/proc/mounts: {e}"))?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            // Octal escapes (\040 for a space) only matter for exotic
            // mount points; a miss falls back to a shorter prefix.
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
        .ok_or_else(|| format!("no mount holds {}", dir.display()))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_string())
}

impl Environment {
    /// Probe the machine. Refuses a data directory on a RAM-backed
    /// filesystem: fsync there costs nothing and every durable-write
    /// number would be fiction.
    pub fn probe(data_dir: &Path) -> Result<Self, String> {
        let data_fs = fs_type(data_dir)?;
        if matches!(data_fs.as_str(), "tmpfs" | "ramfs") {
            return Err(format!(
                "data dir {} is on {data_fs}; run the benchmark from a disk-backed checkout",
                data_dir.display()
            ));
        }
        Ok(Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            data_fs,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unavailable".to_string()),
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
        })
    }
}
