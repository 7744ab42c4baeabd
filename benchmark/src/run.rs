//! The runner: set up a workload's deployment (five times, median →
//! `setup_s`), warm it, iterate for the wall-clock budget, and derive the
//! metrics. One process runs one workload, so `peak_rss_mib` and the
//! allocator's state belong to that workload alone.

use std::process::Command;
use std::time::Instant;

use sdr_rdma::sim::set_trace_enabled;

use crate::adaptive::ADAPTIVE_STEP;
use crate::bulk::{BULK_EC_LOSSY, BULK_SR_256B, BULK_SR_4K, EC_SUBMESSAGE_BYTES};
use crate::flows::{FLOWS_10K_CHURN, FLOWS_1K};
use crate::host;
use crate::json::Value;
use crate::ladder::{self, Ladder, ROUNDS};
use crate::metrics::{self, MetricDef};
use crate::probes::{self, Probes, REPS};
use crate::span::Spans;
use crate::stats::{fast_quarter_mean, jain, mean, median, quantile_sorted, quartile_spread, sort};
use crate::workload::{iterate, Counts, Sample, Spec, C};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&Spec] = &[
    &FLOWS_1K,
    &FLOWS_10K_CHURN,
    &BULK_SR_4K,
    &BULK_SR_256B,
    &BULK_EC_LOSSY,
    &ADAPTIVE_STEP,
];

pub fn find_workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Deployments built per run (all but one in child processes); `setup_s`
/// is their median build time.
const SETUP_REPEATS: u32 = 5;
/// Iterations of a `--smoke` run (after the warm-up).
const SMOKE_ITERS: u32 = 2;
/// Static SR/EC transfers behind `reliability.adapt.oracle_ratio`.
const ORACLE_ITERS: u32 = 4;
/// Ceiling on host minor faults per packet for workloads whose memory the
/// benchmark fully pre-touches (a cold run reads 1.0).
const WARM_FAULTS_PER_PKT: f64 = 0.02;

#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    /// Wall-clock budget of the iteration loop, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// One warm-up and two iterations, ignoring the budget: same code
    /// paths, seconds instead of minutes.
    pub smoke: bool,
}

/// One emitted metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub def: &'static MetricDef,
    pub value: f64,
    /// Samples behind a median / percentile (1 for a single reading).
    pub samples: usize,
    /// Interquartile distance of those samples as a share of their median
    /// (wall-clock medians only; 0 elsewhere). `compare` calls a metric
    /// whose spread exceeds its bound *unresolved*, never *unchanged*.
    pub spread: f64,
}

/// Everything one run of one workload produced.
pub struct Report {
    pub workload: &'static str,
    pub options: Options,
    /// Timed iterations run, and how many of them the `sim_*` metrics
    /// cover.
    pub iterations: u32,
    pub sim_iterations: u32,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Host nanoseconds (`open` + `run`) of every timed iteration, in
    /// order — the raw sample behind `wall_ns_per_pkt`.
    pub iteration_wall_ns: Vec<f64>,
    pub spans: Spans,
}

/// How a traced run treats one iteration. Untraced runs are all `Plain`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// No bookkeeping: the reference the other two are compared against.
    Plain,
    /// Spans recorded, heap counted.
    Traced,
    /// `sdr-trace` kill switch off (its counters and recorders no-op).
    TraceOff,
}

fn mode_of(trace: bool, iter: u32) -> Mode {
    match (trace, iter % 3) {
        (false, _) | (true, 2) => Mode::Plain,
        (true, 1) => Mode::Traced,
        (true, _) => Mode::TraceOff,
    }
}

/// Builds `spec`'s deployment once and returns the seconds it took: what
/// the hidden `setup` subcommand prints.
pub fn time_setup(spec: &Spec, seed: u64) -> f64 {
    let mut spans = Spans::new(spec.name, false);
    let (_deployment, took) = spans.time("setup", 0, |spans| (spec.build)(seed, spans));
    took.as_secs_f64()
}

/// Runs `sdr-benchmark setup` for this workload in a child process and
/// returns the build time it reports.
fn setup_in_child(spec: &Spec, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args([
            "setup",
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .expect("spawn the setup child");
    assert!(
        out.status.success(),
        "setup child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("setup child prints its build time in seconds")
}

pub fn run(spec: &'static Spec, options: Options) -> Report {
    // The benchmark owns the kill switch; ambient state must not leak in.
    set_trace_enabled(true);
    let mut spans = Spans::new(spec.name, options.trace);
    let seed = options.seed;

    // `setup_s` is the median of this process's own build and four more
    // taken in throwaway child processes *before* it. They cannot be taken
    // here: the stack's `Rc` cycles (fabric ↔ wakers ↔ managers) keep a
    // dropped deployment's node memory alive, and past roughly 1.3 GB of
    // touched memory this class of VM serves first-touch page faults about
    // seven times slower — a second in-process build of the flow
    // deployments would time the hypervisor, not the stack.
    let mut setup_s = Vec::new();
    for i in 1..SETUP_REPEATS {
        let (took, _) = spans.time("setup.child", i, |_| setup_in_child(spec, seed));
        setup_s.push(took);
    }
    let (mut dep, own) = spans.time("setup", 0, |spans| (spec.build)(seed, spans));
    setup_s.push(own.as_secs_f64());

    // Warm-up: allocator pools, estimator registries, lazily built codes.
    spans.set_enabled(false);
    let warm = iterate(dep.as_mut(), 0, spec.batch, &mut spans);
    let (mut attempted, mut failed) = (warm.delivered.attempted, warm.delivered.failed);

    let (sim_iters, budget) = if options.smoke {
        (SMOKE_ITERS, 0.0)
    } else {
        (spec.sim_iters, options.seconds)
    };
    let mut samples: Vec<(Mode, Sample)> = Vec::new();
    let started = Instant::now();
    let mut iter = 0;
    while failed == 0
        && iter < spec.max_iters
        && (iter < sim_iters || started.elapsed().as_secs_f64() < budget)
    {
        iter += 1;
        let mode = mode_of(options.trace, iter);
        spans.set_enabled(mode == Mode::Traced);
        host::set_alloc_counting(mode == Mode::Traced);
        set_trace_enabled(mode != Mode::TraceOff);
        let sample = iterate(dep.as_mut(), iter, spec.batch, &mut spans);
        host::set_alloc_counting(false);
        set_trace_enabled(true);
        attempted += sample.delivered.attempted;
        failed += sample.delivered.failed;
        samples.push((mode, sample));
    }
    spans.set_enabled(options.trace);
    let source_intact = dep.source_intact();
    let peak_rss_mib = host::peak_rss_mib();

    let metrics = if options.trace {
        let ladder = ladder::run(seed, &mut spans);
        let probes = probes::run(seed, &mut spans);
        failed += ladder.failed;
        let oracle = if let Some(static_ms) = spec.oracle {
            let (sr, ec, oracle_failed) = static_ms(seed, ORACLE_ITERS, &mut spans);
            failed += oracle_failed;
            median(&completions_ms(samples.iter().map(|(_, s)| s))) / sr.min(ec)
        } else {
            0.0
        };
        per_layer(spec, &samples, &ladder, &probes, oracle)
    } else {
        end_to_end(spec, &setup_s, peak_rss_mib, &samples, sim_iters)
    };
    let correct = failed == 0 && source_intact && warm_memory_held(spec, &samples);
    Report {
        workload: spec.name,
        options,
        iterations: iter,
        sim_iterations: sim_iters.min(iter),
        attempted,
        failed,
        correct,
        metrics,
        iteration_wall_ns: walls_ns(samples.iter().map(|(_, s)| s)),
        spans,
    }
}

/// The warm-memory guard: where set-up wrote every byte the timed region
/// touches (`Spec::fully_warm`, the flow workloads), so a fault rate near the cold
/// 1.0/pkt means the discipline broke (a new lazily-zeroed arena, a pool
/// that no longer recycles). Faults a workload's own code causes — the
/// bulk rows' per-packet payload copies, EC's fresh parity staging — are
/// reported, not asserted.
fn warm_memory_held(spec: &Spec, samples: &[(Mode, Sample)]) -> bool {
    if !spec.fully_warm {
        return true;
    }
    // The quietest iteration: a broken discipline faults in every one,
    // while the heap still settling over the first few (all a `--smoke`
    // run has) is not what the guard is for.
    let fewest = samples.iter().map(|(_, s)| s.minor_faults).min();
    let per_pkt = fewest.unwrap_or(0) as f64 / spec.pkts() as f64;
    if per_pkt > WARM_FAULTS_PER_PKT {
        eprintln!(
            "{}: {per_pkt:.3} minor faults/pkt in even the quietest timed iteration exceeds the \
             warm-memory ceiling {WARM_FAULTS_PER_PKT}",
            spec.name
        );
    }
    per_pkt <= WARM_FAULTS_PER_PKT
}

fn median_faults(samples: &[(Mode, Sample)]) -> f64 {
    let faults: Vec<f64> = samples.iter().map(|(_, s)| s.minor_faults as f64).collect();
    median(&faults)
}

/// Host nanoseconds (`open` + `run`) of each sample.
fn walls_ns<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples.map(|s| s.wall().as_nanos() as f64).collect()
}

/// Sim completion times of every transfer of every sample, pooled.
fn completions_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples
        .flat_map(|s| s.delivered.completions_ms.iter().copied())
        .collect()
}

fn metric(name: &str, value: f64, samples: usize) -> Metric {
    let def =
        metrics::find(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
    Metric {
        def,
        value,
        samples,
        spread: 0.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn end_to_end(
    spec: &Spec,
    setup_s: &[f64],
    peak_rss_mib: f64,
    samples: &[(Mode, Sample)],
    sim_iters: u32,
) -> Vec<Metric> {
    let pkts = spec.pkts() as f64;
    let walls = walls_ns(samples.iter().map(|(_, s)| s));

    // The sim clock: a fixed prefix of the iterations, so these values are
    // a pure function of the seed.
    let sim = || samples.iter().take(sim_iters as usize).map(|(_, s)| s);
    let k = sim().count();
    let payload_bytes = (spec.payload_bytes * k as u64) as f64;
    let sim_s: f64 = sim().map(|s| s.delivered.sim_elapsed_s).sum();
    let wire_bytes: u64 = sim().map(|s| s.counts[C::FwdBytes]).sum();
    // Completion "stretch": a transfer's completion time over the time the
    // payload issued together with it (the flow population; one bulk
    // transfer) takes to serialize at line rate. A ratio, so one bound
    // fits a 2 ms bulk transfer and a 200 ms flow population.
    let round_bits = (spec.payload_bytes / u64::from(spec.batch)) as f64 * 8.0;
    let ideal_ms = round_bits / spec.line_rate_bps * 1e3;
    let mut stretch: Vec<f64> = completions_ms(sim())
        .iter()
        .map(|ms| ms / ideal_ms)
        .collect();
    sort(&mut stretch);
    let n = stretch.len();
    let slowest_tenth = &stretch[n - n.div_ceil(10)..];

    vec![
        Metric {
            spread: quartile_spread(setup_s),
            ..metric("setup_s", median(setup_s), setup_s.len())
        },
        // The fastest quarter of the iterations, not their median: this
        // host's memory system is shared, and an iteration costs anything
        // from 1.0x to 1.5x its quiet-host time in spells of seconds to
        // minutes (a dependent-load probe drifts 34 -> 46 ns with them
        // while an in-cache loop stays within 3 %). Interference only ever
        // adds time and batching keeps the work per iteration even, so the
        // fast end is the steadier estimate of what the program costs.
        Metric {
            spread: quartile_spread(&walls),
            ..metric(
                "wall_ns_per_pkt",
                fast_quarter_mean(&walls) / pkts,
                walls.len(),
            )
        },
        metric("peak_rss_mib", peak_rss_mib, 1),
        metric(
            "sim_goodput_gbps",
            ratio(payload_bytes * 8.0, sim_s) / 1e9,
            k,
        ),
        // Means, not order statistics: single-transfer completions are
        // quantized by the receiver's poll cadence, and a quantile of a
        // three-level distribution flips between levels from seed to seed.
        metric("sim_completion_stretch_mean", mean(&stretch), n),
        metric(
            "sim_completion_stretch_tail",
            mean(slowest_tenth),
            slowest_tenth.len(),
        ),
        metric(
            "sim_fairness_jain",
            if n == 0 { 0.0 } else { jain(&stretch) },
            n,
        ),
        metric(
            "wire_efficiency",
            ratio(payload_bytes, wire_bytes as f64),
            k,
        ),
    ]
}

fn per_layer(
    spec: &Spec,
    samples: &[(Mode, Sample)],
    l: &Ladder,
    p: &Probes,
    oracle_ratio: f64,
) -> Vec<Metric> {
    let of = |mode: Mode| {
        samples
            .iter()
            .filter(move |(m, _)| *m == mode)
            .map(|(_, s)| s)
    };
    let n = of(Mode::Traced).count();
    let iters = n.max(1) as f64;
    let pkts = spec.pkts() as f64;
    let total = of(Mode::Traced).fold(Counts::default(), |acc, s| acc.plus(&s.counts));
    let per_iter = |c: C| total[c] as f64 / iters;
    let share = |num: C, den: C| ratio(total[num] as f64, total[den] as f64);
    let mean_of = |f: fn(&Sample) -> f64| of(Mode::Traced).map(f).sum::<f64>() / iters;
    // Fast quarter per mode, like `wall_ns_per_pkt` (see `end_to_end`).
    let wall = |mode: Mode| fast_quarter_mean(&walls_ns(of(mode)));
    let (wall_traced, wall_plain, wall_off) =
        (wall(Mode::Traced), wall(Mode::Plain), wall(Mode::TraceOff));
    let mut done = completions_ms(of(Mode::Traced));
    sort(&mut done);
    let pct = |q: f64| {
        if done.is_empty() {
            0.0
        } else {
            quantile_sorted(&done, q)
        }
    };

    // Ledger inputs, in host ns per traced iteration.
    let gib = (1u64 << 30) as f64;
    let crc_ns = 2.0 * spec.payload_bytes as f64 / gib / p.crc32c_gibps_4k * 1e9;
    let encode_ns = per_iter(C::EcEncodedBytes) / gib / p.rs_encode_gibps * 1e9;
    let decoded_bytes = per_iter(C::EcDecoded) * EC_SUBMESSAGE_BYTES as f64;
    let decode_ns = decoded_bytes / gib / p.rs_reconstruct_gibps * 1e9;
    let open_ns = mean_of(|s| s.open.as_nanos() as f64);
    // Data packets on the wire at this workload's top ladder rung, control
    // datagrams at their probe cost, the open calls as measured, and the
    // loss-path decodes the lossless ladder never exercises. Whatever is
    // left is what nobody can name yet.
    let top = (spec.rung)(l);
    let data_pkts = per_iter(C::FwdPkts) - per_iter(C::CtrlDatagramsFwd);
    let attributed = data_pkts * top.ns_per_pkt / top.wire_per_pkt
        + per_iter(C::CtrlDatagrams) * p.control_ns_per_datagram
        + open_ns
        + decode_ns;

    // One metric per line: this is the table the README mirrors.
    #[rustfmt::skip]
    let rows = [
        ("sim.engine.events_per_pkt", per_iter(C::Events) / pkts, n),
        ("sim.engine.dispatch_ns", p.engine_dispatch_ns, REPS),
        ("sim.engine.rearm_ns", p.engine_rearm_ns, REPS),
        ("sim.fabric.ns_per_pkt_4k", l.fabric_4k.ns_per_pkt, ROUNDS),
        ("sim.fabric.ns_per_pkt_256b", l.fabric_256b.ns_per_pkt, ROUNDS),
        ("sim.completion_ms_p50", pct(0.50), done.len()),
        ("sim.completion_ms_p99", pct(0.99), done.len()),
        ("sim.link.drop_ratio", share(C::LinkDropped, C::LinkSent), n),
        ("sim.link.ctrl_share", share(C::RevBytes, C::FwdBytes), n),
        ("core.qp.self_ns_per_pkt_4k", l.qp_4k.ns_per_pkt - l.fabric_4k.ns_per_pkt, ROUNDS),
        ("core.qp.self_ns_per_pkt_256b", l.qp_256b.ns_per_pkt - l.fabric_256b.ns_per_pkt, ROUNDS),
        ("core.bitmap.set_ns", p.bitmap_set_ns, REPS),
        ("core.bitmap.scan_ns_per_kbit", p.bitmap_scan_ns_per_kbit, REPS),
        ("erasure.crc32c.gibps_4k", p.crc32c_gibps_4k, REPS),
        ("erasure.crc32c.est_share", ratio(crc_ns, wall_traced), n),
        ("erasure.rs.encode_gibps", p.rs_encode_gibps, REPS),
        ("erasure.rs.reconstruct_gibps", p.rs_reconstruct_gibps, REPS),
        ("erasure.rs.est_share", ratio(encode_ns + decode_ns, wall_traced), n),
        ("reliability.control.ns_per_datagram", p.control_ns_per_datagram, REPS),
        ("reliability.control.datagrams_per_pkt", per_iter(C::CtrlDatagrams) / pkts, n),
        ("reliability.control.filtered", per_iter(C::CtrlFiltered), n),
        ("reliability.sr.self_ns_per_pkt_4k", l.sr_4k.ns_per_pkt - l.qp_4k.ns_per_pkt, ROUNDS),
        ("reliability.sr.self_ns_per_pkt_256b", l.sr_256b.ns_per_pkt - l.qp_256b.ns_per_pkt, ROUNDS),
        ("reliability.sr.retx_chunks", per_iter(C::RetxChunks), n),
        ("reliability.ec.self_ns_per_pkt_4k", l.ec_4k.ns_per_pkt - l.qp_4k.ns_per_pkt, ROUNDS),
        ("reliability.ec.decoded_submessages", per_iter(C::EcDecoded), n),
        ("reliability.ec.fallback_rounds", per_iter(C::EcFallbackRounds), n),
        ("reliability.flow.self_ns_per_pkt_4k", l.flow_4k.ns_per_pkt - l.sr_4k.ns_per_pkt, ROUNDS),
        ("reliability.flow.open_ns", ratio(open_ns, per_iter(C::FlowsOpened)), n),
        ("reliability.flow.drr_ns_per_item", p.drr_ns_per_item, REPS),
        ("reliability.flow.due_ns_per_op", p.due_ns_per_op, REPS),
        ("reliability.flow.parked_opens", per_iter(C::FlowParked), n),
        ("reliability.flow.urgent_ratio", share(C::FlowUrgent, C::FlowInjected), n),
        ("reliability.adapt.self_ns_per_pkt_4k", l.adapt_4k.ns_per_pkt - l.sr_4k.ns_per_pkt, ROUNDS),
        ("reliability.adapt.switches", per_iter(C::AdaptSwitches), n),
        ("reliability.adapt.proposals", per_iter(C::AdaptProposals), n),
        ("reliability.adapt.oracle_ratio", oracle_ratio, samples.len()),
        ("reliability.advisor.recommend_us", p.advisor_recommend_us, REPS),
        ("dpa.ring.ns_per_cqe", p.dpa_ring_ns_per_cqe, REPS),
        ("dpa.table.ns_per_cqe", p.dpa_table_ns_per_cqe, REPS),
        ("dpa.table.repost_ns", p.dpa_repost_ns, REPS),
        ("dpa.rx_loop.ns_per_cqe", p.dpa_rx_loop_ns_per_cqe, REPS),
        ("dpa.threaded_mpps", p.dpa_threaded_mpps, 1),
        ("trace.counter_inc_ns", p.trace_counter_inc_ns, REPS),
        ("trace.recorder_record_ns", p.trace_recorder_record_ns, REPS),
        ("trace.overhead_share", 1.0 - ratio(wall_off, wall_plain), n),
        ("host.allocs_per_pkt", mean_of(|s| s.allocs as f64) / pkts, n),
        ("host.alloc_bytes_per_pkt", mean_of(|s| s.alloc_bytes as f64) / pkts, n),
        ("host.minor_faults_per_pkt", median_faults(samples) / pkts, samples.len()),
        ("host.unattributed_share", 1.0 - ratio(attributed, wall_traced), n),
        ("bench.span_overhead_share", ratio(wall_traced, wall_plain) - 1.0, n),
    ];
    rows.into_iter()
        .map(|(name, value, samples)| metric(name, value, samples))
        .collect()
}

impl Report {
    /// The contract's result object: the last line of standard output.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        Value::obj([
                            ("value", Value::Num(m.value)),
                            ("unit", Value::str(m.def.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .to_line()
    }

    /// The fuller record written to result files: provenance, options,
    /// iteration counts, and per metric its clock, direction, bound and
    /// sample count.
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("provenance", host::provenance()),
            ("seed", Value::Num(self.options.seed as f64)),
            ("seconds", Value::Num(self.options.seconds)),
            ("trace", Value::Bool(self.options.trace)),
            ("smoke", Value::Bool(self.options.smoke)),
            ("iterations", Value::Num(f64::from(self.iterations))),
            ("sim_iterations", Value::Num(f64::from(self.sim_iterations))),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "iteration_wall_ns",
                Value::Arr(
                    self.iteration_wall_ns
                        .iter()
                        .map(|&ns| Value::Num(ns))
                        .collect(),
                ),
            ),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        Value::obj([
                            ("value", Value::Num(m.value)),
                            ("unit", Value::str(m.def.unit)),
                            ("clock", Value::str(m.def.clock.as_str())),
                            ("better", Value::str(m.def.better.as_str())),
                            ("bound", Value::Num(m.def.bound)),
                            ("samples", Value::Num(m.samples as f64)),
                            ("spread", Value::Num(m.spread)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workload::Delivered;
    use std::time::Duration;

    fn sample(run_ms: u64, completions_ms: &[f64]) -> Sample {
        let mut counts = Counts::default();
        counts[C::FwdBytes] = 300 << 20;
        counts[C::FwdPkts] = 70_000;
        counts[C::Events] = 400_000;
        Sample {
            delivered: Delivered {
                sim_elapsed_s: 0.25,
                completions_ms: completions_ms.to_vec(),
                attempted: completions_ms.len() as u64,
                failed: 0,
            },
            open: Duration::from_millis(1),
            run: Duration::from_millis(run_ms),
            counts,
            ..Sample::default()
        }
    }

    /// Both runs emit exactly the catalogue's names, in the catalogue's
    /// order — so every name `BENCHMARK.json` lists is one the binary
    /// prints (the manifest test ties the file to the catalogue).
    #[test]
    fn runs_emit_exactly_the_catalogue() {
        let samples: Vec<(Mode, Sample)> = (1..=6)
            .map(|i| {
                (
                    mode_of(true, i),
                    sample(300 + u64::from(i), &[100.0, 200.0]),
                )
            })
            .collect();
        let names = |ms: &[Metric]| ms.iter().map(|m| m.def.name).collect::<Vec<_>>();
        let e2e = end_to_end(&FLOWS_1K, &[0.4, 0.5, 0.45], 512.0, &samples, 5);
        assert_eq!(
            names(&e2e),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert!(
            e2e.iter().all(|m| m.value.is_finite() && m.value > 0.0),
            "{e2e:?}"
        );
        let layers = per_layer(
            &FLOWS_1K,
            &samples,
            &Ladder::default(),
            &Probes::default(),
            0.0,
        );
        assert_eq!(
            names(&layers),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn end_to_end_metrics_follow_their_definitions() {
        // Two sim iterations of 1000 × 256 KiB at 10 Gbit/s: the population
        // serializes in 209.7152 ms.
        let samples = vec![
            (Mode::Plain, sample(399, &[104.8576, 209.7152])),
            (Mode::Plain, sample(299, &[209.7152, 419.4304])),
            (Mode::Plain, sample(499, &[1.0])), // beyond the sim prefix
        ];
        let m = end_to_end(&FLOWS_1K, &[0.4], 512.0, &samples, 2);
        let get = |name: &str| m.iter().find(|x| x.def.name == name).unwrap().value;
        let pkts = FLOWS_1K.pkts() as f64;
        assert_eq!(
            get("wall_ns_per_pkt"),
            300e6 / pkts,
            "fastest of 300/400/500 ms"
        );
        let bits = 2.0 * FLOWS_1K.payload_bytes as f64 * 8.0;
        assert!((get("sim_goodput_gbps") - bits / 0.5 / 1e9).abs() < 1e-9);
        assert!((get("sim_completion_stretch_mean") - (0.5 + 1.0 + 1.0 + 2.0) / 4.0).abs() < 1e-9);
        assert!(
            (get("sim_completion_stretch_tail") - 2.0).abs() < 1e-9,
            "slowest tenth of four"
        );
        let wire = 2.0 * (300u64 << 20) as f64;
        assert!(
            (get("wire_efficiency") - 2.0 * FLOWS_1K.payload_bytes as f64 / wire).abs() < 1e-12
        );
    }

    #[test]
    fn traced_iterations_cycle_through_the_three_modes() {
        assert!((1..=9).all(|i| mode_of(false, i) == Mode::Plain));
        let modes: Vec<Mode> = (1..=6).map(|i| mode_of(true, i)).collect();
        for mode in [Mode::Plain, Mode::Traced, Mode::TraceOff] {
            assert_eq!(modes.iter().filter(|m| **m == mode).count(), 2);
        }
    }
}
