//! # sdr-bench — harnesses regenerating every table and figure of the paper
//!
//! One binary per figure (`cargo run --release -p sdr-bench --bin figNN`)
//! plus criterion micro-benchmarks (`cargo bench`). This library holds the
//! shared pieces: the paper's canonical channel parameters, sweep grids and
//! plain-text table printing.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig02` | Fig 2 — WAN drop-rate variability vs payload size |
//! | `fig03` | Fig 3 — reliability impact at 400 Gbit/s (3 sweeps) |
//! | `fig09` | Fig 9 — EC-over-SR speedup heatmap |
//! | `fig10` | Fig 10 — 128 MiB deep-dive (mean, p99.9, MDS splits) |
//! | `fig11` | Fig 11 — MDS vs XOR encode throughput and resilience |
//! | `fig12` | Fig 12 — distance × bandwidth grid |
//! | `fig13` | Fig 13 — ring Allreduce p99.9 speedups |
//! | `fig14` | Fig 14 — SDR loopback throughput and thread scaling |
//! | `fig15` | Fig 15 — bitmap chunk size vs packet rate |
//! | `fig16` | Fig 16 — packet-rate scaling toward Tbit/s |
//! | `ablations` | ePSN / generations / GBN design-choice ablations |

#![warn(missing_docs)]

use std::ffi::OsStr;

use sdr_model::Channel;

/// True when `SDR_BENCH_SMOKE` asks for the reduced, seconds-long matrix
/// CI runs. Unset, empty and `0` all mean off.
pub fn smoke() -> bool {
    smoke_requested(std::env::var_os("SDR_BENCH_SMOKE").as_deref())
}

fn smoke_requested(var: Option<&OsStr>) -> bool {
    var.is_some_and(|v| v != "0" && !v.is_empty())
}

/// The paper's workhorse deployment: 400 Gbit/s, 3750 km (25 ms RTT),
/// 4 KiB MTU, 64 KiB bitmap chunks.
pub fn paper_channel(p_drop_packet: f64) -> Channel {
    Channel::new(400e9, 0.025, p_drop_packet)
}

/// Logarithmically spaced grid from `a` to `b` inclusive.
pub fn logspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && a > 0.0 && b > a);
    let (la, lb) = (a.ln(), b.ln());
    (0..n)
        .map(|i| (la + (lb - la) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Human label for a byte count (power-of-two units, like the paper's axes).
pub fn bytes_label(bytes: u64) -> String {
    const UNITS: [(&str, u64); 4] = [
        ("TiB", 1 << 40),
        ("GiB", 1 << 30),
        ("MiB", 1 << 20),
        ("KiB", 1 << 10),
    ];
    for (name, scale) in UNITS {
        if bytes >= scale {
            let v = bytes as f64 / scale as f64;
            return if (v - v.round()).abs() < 1e-9 {
                format!("{:.0} {name}", v)
            } else {
                format!("{:.1} {name}", v)
            };
        }
    }
    format!("{bytes} B")
}

/// Prints a header row followed by a separator.
pub fn table_header(title: &str, cols: &[&str]) {
    println!("\n### {title}");
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Prints one table row.
pub fn table_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Formats a float compactly (3 significant-ish digits).
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logspace_endpoints_and_monotonicity() {
        let g = logspace(1e-6, 1e-2, 5);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 1e-6).abs() < 1e-12);
        assert!((g[4] - 1e-2).abs() < 1e-8);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
        // Log-even spacing: ratios equal.
        let r = g[1] / g[0];
        assert!((g[2] / g[1] - r).abs() < 1e-9);
    }

    #[test]
    fn smoke_is_off_when_unset_empty_or_zero() {
        assert!(!smoke_requested(None));
        assert!(!smoke_requested(Some(OsStr::new(""))));
        assert!(!smoke_requested(Some(OsStr::new("0"))));
        assert!(smoke_requested(Some(OsStr::new("1"))));
        assert!(smoke_requested(Some(OsStr::new("yes"))));
    }

    #[test]
    fn bytes_labels() {
        assert_eq!(bytes_label(128 << 10), "128 KiB");
        assert_eq!(bytes_label(128 << 20), "128 MiB");
        assert_eq!(bytes_label(8 << 30), "8 GiB");
        assert_eq!(bytes_label(2 << 40), "2 TiB");
        assert_eq!(bytes_label(512), "512 B");
    }

    #[test]
    fn paper_channel_parameters() {
        let ch = paper_channel(1e-5);
        assert_eq!(ch.bandwidth_bps, 400e9);
        assert_eq!(ch.rtt_s, 0.025);
        assert_eq!(ch.chunk_bytes, 64 * 1024);
    }
}
