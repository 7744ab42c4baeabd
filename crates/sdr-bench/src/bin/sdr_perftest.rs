//! `sdr_perftest` — an `ib_write_bw`-style command-line tool for the
//! simulated SDR stack (§5.4.1's benchmarking loop as a reusable utility).
//!
//! Runs either the **DPA loopback** throughput loop (real threads, measures
//! packet-completion processing) or a **WAN latency** evaluation (model
//! based, reports completion-time statistics for SR/EC schemes).
//!
//! ```text
//! sdr_perftest loopback [--msg-bytes N] [--mtu N] [--chunk N]
//!                       [--workers N] [--inflight N] [--messages N]
//! sdr_perftest wan      [--msg-bytes N] [--km KM] [--gbps G]
//!                       [--p-drop P] [--trials N]
//! ```

use std::collections::HashMap;

use sdr_core::ImmLayout;
use sdr_dpa::{run_loopback, DpaConfig, LoopbackConfig};
use sdr_model::{ec_summary, sr_quantile_analytic, sr_summary, Channel, EcConfig, SrConfig};

fn parse_args(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() {
                map.insert(key.to_string(), args[i + 1].clone());
                i += 2;
                continue;
            }
        }
        eprintln!("warning: ignoring argument {:?}", args[i]);
        i += 1;
    }
    map
}

fn get<T: std::str::FromStr>(map: &HashMap<String, String>, key: &str, default: T) -> T {
    map.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn usage() -> ! {
    eprintln!(
        "usage: sdr_perftest <loopback|wan> [--key value]...\n\
         loopback: --msg-bytes --mtu --chunk --workers --inflight --messages\n\
         wan:      --msg-bytes --km --gbps --p-drop --trials"
    );
    std::process::exit(2);
}

fn run_loopback_mode(opts: &HashMap<String, String>) {
    let cfg = LoopbackConfig {
        dpa: DpaConfig {
            workers: get(opts, "workers", 2usize),
            msg_slots: 64,
            ring_capacity: 8192,
            layout: ImmLayout::default(),
        },
        msg_bytes: get(opts, "msg-bytes", 16u64 << 20),
        mtu_bytes: get(opts, "mtu", 4096u64),
        chunk_bytes: get(opts, "chunk", 64u64 * 1024),
        inflight: get(opts, "inflight", 16usize),
        messages: get(opts, "messages", 128u64),
        drop_rate: get(opts, "p-drop", 0.0f64),
        seed: get(opts, "seed", 1u64),
        batch_repost: false,
    };
    println!(
        "# sdr_perftest loopback: {} msgs × {} B, MTU {}, chunk {}, {} workers, {} in-flight",
        cfg.messages, cfg.msg_bytes, cfg.mtu_bytes, cfg.chunk_bytes, cfg.dpa.workers, cfg.inflight
    );
    let r = run_loopback(cfg);
    println!("  elapsed        : {:?}", r.elapsed);
    println!("  goodput        : {:.2} Gbit/s", r.goodput_gbps);
    println!("  packet rate    : {:.2} Mpps", r.pkts_per_sec / 1e6);
    println!("  message rate   : {:.0} msgs/s", r.msgs_per_sec);
    println!(
        "  worker stats   : {} pkts, {} chunks, {} dups, {} gen-filtered",
        r.stats.packets, r.stats.chunks, r.stats.duplicates, r.stats.generation_filtered
    );
}

fn run_wan_mode(opts: &HashMap<String, String>) {
    let msg = get(opts, "msg-bytes", 128u64 << 20);
    let km = get(opts, "km", 3750.0f64);
    let gbps = get(opts, "gbps", 400.0f64);
    let p = get(opts, "p-drop", 1e-5f64);
    let trials = get(opts, "trials", 8000usize);
    let ch = Channel::from_km(km, gbps * 1e9, p);
    println!(
        "# sdr_perftest wan: {} B over {} km ({:.2} ms RTT), {} Gbit/s, P_drop {:.1e}",
        msg,
        km,
        ch.rtt_s * 1e3,
        gbps,
        p
    );
    println!(
        "  ideal (lossless)       : {:.3} ms",
        ch.ideal_time(msg) * 1e3
    );
    let sr_rto = SrConfig::rto_multiple(&ch, 3.0);
    let schemes: [(&str, Box<dyn Fn() -> sdr_model::Summary>); 3] = [
        (
            "SR RTO(3RTT)",
            Box::new(|| sr_summary(&ch, msg, &sr_rto, trials, 1)),
        ),
        (
            "SR NACK",
            Box::new(|| sr_summary(&ch, msg, &SrConfig::nack(&ch), trials, 2)),
        ),
        (
            "MDS EC(32,8)",
            Box::new(|| ec_summary(&ch, msg, &EcConfig::mds(32, 8), &sr_rto, trials, 3)),
        ),
    ];
    for (name, f) in schemes {
        let s = f();
        println!(
            "  {name:<22}: mean {:9.3} ms   p99 {:9.3} ms   p99.9 {:9.3} ms",
            s.mean * 1e3,
            s.p99 * 1e3,
            s.p999 * 1e3
        );
    }
    println!(
        "  SR RTO p99.9 (analytic): {:9.3} ms (closed-form tail inversion)",
        sr_quantile_analytic(&ch, msg, &sr_rto, 0.999) * 1e3
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else { usage() };
    let opts = parse_args(&args[1..]);
    match mode.as_str() {
        "loopback" => run_loopback_mode(&opts),
        "wan" => run_wan_mode(&opts),
        _ => usage(),
    }
}
