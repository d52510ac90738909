//! What the benchmark reads from the host: `/proc`, the core count, the
//! toolchain and the commit.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark package's directory (`benchmark/`).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root, parent of [`bench_dir`].
pub fn repo_root() -> PathBuf {
    bench_dir().join("..")
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `W`, the benchmark's only parallelism figure: `--jobs`, engine workers
/// and client threads all equal it.
pub fn workers() -> usize {
    nproc().min(4)
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// `utime + stime` of this process (all threads) in seconds. The kernel
/// reports clock ticks; every Linux ABI fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |i: usize| -> u64 {
        rest.split_whitespace()
            .nth(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3 (state), so utime (14) and stime (15) are 11, 12.
    (field(11) + field(12)) as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Restarts the kernel's tracking of the peak resident set at the current
/// one, so that the next [`peak_rss_mb`] reads the peak since now. False
/// where `/proc/self/clear_refs` cannot be written; the peak then stays
/// that of the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Live threads of this process.
pub fn thread_count() -> u64 {
    proc_status_kb("Threads:").unwrap_or(1)
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The commit measured, or `unknown` outside a git checkout.
pub fn git_hash() -> String {
    command_line("git", &["rev-parse", "HEAD"], &repo_root()).unwrap_or_else(|| "unknown".into())
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"], bench_dir()).unwrap_or_else(|| "unknown".into())
}

/// The profile this binary was built with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Builds the root workspace's `scale-sim` release binary (a no-op when it
/// is fresh) and returns its path, for the `cli.*` metrics.
pub fn build_cli() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "scale-sim",
        ])
        .current_dir(&root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building scale-sim failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if Path::new(&dir).is_absolute() => PathBuf::from(dir),
        // Cargo resolves a relative target directory against its own
        // working directory, which `current_dir` set to the root.
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let binary = target.join("release").join("scale-sim");
    binary
        .is_file()
        .then_some(binary.clone())
        .ok_or_else(|| format!("{} was not built", binary.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        assert!(thread_count() >= 1);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!((1..=4).contains(&workers()));
    }
}
