//! Host-side observations taken from outside the program under test:
//! resident-set peak, minor page faults, heap traffic, and the provenance
//! block stamped into every result file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::json::Value;

/// The benchmark binary's allocator: `System`, plus call/byte counters that
/// only tick while a traced region has switched them on. Untraced runs pay
/// one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are side effects that touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    // Relaxed: the counters publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Switches heap counting on or off (traced iterations only).
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10);
/// 0 where procfs is unavailable.
pub fn minor_faults() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, so minflt is the 8th token from there.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set in MiB (`VmHWM`); 0 where procfs is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything a reader needs to judge whether two result files are
/// comparable: wall numbers mean nothing without the CPU, the thread count
/// and — for the erasure rows — the auto-selected GF(256) and CRC32C tiers.
pub fn provenance() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        (
            "git_commit",
            Value::str(
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::str(cpu_model())),
        (
            "rustc",
            Value::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "gf256_kernel",
            Value::str(sdr_rdma::erasure::Kernel::active().name()),
        ),
        (
            "crc32c_tier",
            Value::str(sdr_rdma::erasure::Crc32c::active().name()),
        ),
        ("os", Value::str(std::env::consts::OS)),
        ("arch", Value::str(std::env::consts::ARCH)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_return_plausible_values() {
        // Linux-only expectations; elsewhere both legitimately read 0.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib() > 0.5);
            let before = minor_faults();
            let mut v = vec![0u8; 8 << 20];
            for page in v.chunks_mut(4096) {
                page[0] = 1;
            }
            std::hint::black_box(&v);
            assert!(minor_faults() > before, "touching 8 MiB must fault");
        }
    }

    #[test]
    fn provenance_names_the_kernels() {
        let p = provenance();
        for key in [
            "git_commit",
            "nproc",
            "cpu_model",
            "rustc",
            "gf256_kernel",
            "crc32c_tier",
        ] {
            assert!(p.get(key).is_some(), "missing {key}");
        }
    }
}
