//! Chaos soak bench — transfer survivability vs fault density.
//!
//! Companion to the `sdr-reliability` chaos soak *test*: both run
//! [`SoakCase`]s through the one deployment, crash → resume supervisor
//! and survivability-trichotomy verdict in `sdr_reliability::testkit`
//! (delivered byte-identical, aborted with a manifest, or resumed); this
//! binary draws its own distribution and quantifies the outcome. Per
//! fault-density bucket (0–3 scripted fault events on the duplex link) it
//! runs a matrix of seeded adaptive transfers under a fixed operational
//! deadline and reports the survival rate (delivered within the
//! deadline) and the p50/p99 completion time of the survivors. Half the
//! wires also duplicate and reorder packets (the soak test's
//! unfaithful-wire draw); each row reports what the stack filtered —
//! stale/duplicate control datagrams dropped by the incarnation-stamp
//! filter and wire-level duplicates/displacements (both directions), read
//! from the registry's sources (`CtrlFilterStats`, `LinkStats`). Sources
//! are never switched off, so the rows read the same under `SDR_TRACE=0`.
//!
//! A second sweep replaces the scripted faults with a bit-flipping wire
//! (corruption density 0 → 1e-4 per bit) and reports what the integrity
//! machinery absorbed: packets the link corrupted, payloads the NIC
//! refused to DMA (`crc_skipped`), control datagrams the CRC32C trailer
//! dropped. A third crashes the receiver mid-delivery and reports how
//! much the resumed second life re-sent.
//!
//! Every case — survivor or not — must pass the verdict and the teardown
//! check (drained engine, every receive slot released exactly once), or
//! the binary panics with the case key: the bench is also a gate.
//!
//! Emits machine-readable `BENCH_chaos.json`, whose `"metrics"` entry is
//! the `sdr-trace` registry snapshot of the last density-3 case.
//! `SDR_BENCH_SMOKE=1` runs a reduced matrix for CI. Each case derives
//! from a deterministic key printed on failure, so any row reproduces
//! exactly.

use sdr_bench::{fmt, table_header, table_row};
use sdr_reliability::testkit::{draw_faults, draw_unfaithful, Arm, Draw, ProtoHarness, SoakCase};
use sdr_reliability::SchemeSpec;
use sdr_sim::{FaultEvent, FaultPlan, LinkConfig, RestartSide, SimTime};

const BW: f64 = 8e9;
const KM: f64 = 1000.0;
const MSG: u64 = 4 << 20;
/// Operational deadline per transfer. Calibrated against the fault-free
/// worst case (~40 ms: a GBN tail loss eats one full RTO backoff ramp on
/// top of the ~12 ms nominal run), so a clean channel always survives
/// while dense fault scripts can genuinely blow the budget.
const DEADLINE_S: f64 = 0.050;

/// splitmix64 — the per-case deterministic stream (the bench's analogue
/// of the test suite's proptest `TestRng::for_case`).
struct CaseRng(u64);

impl CaseRng {
    fn for_case(key: u64) -> Self {
        CaseRng(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC5A5_C5A5_C5A5_C5A5)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Draw for CaseRng {
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What the stack's filters absorbed during one case, read from the
/// fabric's registry: its sources are the stores themselves (both control
/// endpoints' filters, both link directions, both NICs), which no kill
/// switch turns off.
#[derive(Default)]
struct CaseWire {
    /// Control datagrams dropped as stale incarnations.
    ctrl_stale: u64,
    /// Control datagrams dropped as duplicates/replays.
    ctrl_dupes: u64,
    /// Control datagrams dropped by the CRC32C trailer.
    ctrl_corrupt: u64,
    /// Wire-level packet duplications injected by the link.
    link_dup: u64,
    /// Wire-level packet displacements injected by the link.
    link_reorder: u64,
    /// Wire-level packets the link flipped bits in.
    link_corrupt: u64,
    /// Write payloads whose checksum failed at the NIC: the DMA was
    /// suppressed, the packet became a loss.
    nic_crc_skipped: u64,
}

impl CaseWire {
    fn read(h: &ProtoHarness) -> Self {
        let reg = h.p.fabric.metrics();
        let sum = |name| reg.counter_value(name);
        CaseWire {
            ctrl_stale: sum("ctrl.stale"),
            ctrl_dupes: sum("ctrl.duplicates"),
            ctrl_corrupt: sum("ctrl.corrupt"),
            link_dup: sum("link.duplicated"),
            link_reorder: sum("link.reordered"),
            link_corrupt: sum("link.corrupted"),
            nic_crc_skipped: sum("nic.crc.skipped"),
        }
    }

    fn accumulate(&mut self, other: &CaseWire) {
        self.ctrl_stale += other.ctrl_stale;
        self.ctrl_dupes += other.ctrl_dupes;
        self.ctrl_corrupt += other.ctrl_corrupt;
        self.link_dup += other.link_dup;
        self.link_reorder += other.link_reorder;
        self.link_corrupt += other.link_corrupt;
        self.nic_crc_skipped += other.nic_crc_skipped;
    }
}

/// One table row's cases: the survivors' completion times (ms, sorted),
/// the aborts, what the filters absorbed, and the last case's registry
/// snapshot (`{"fabric": .., "engine": ..}`).
#[derive(Default)]
struct Bucket {
    done_ms: Vec<f64>,
    aborted: u64,
    wire: CaseWire,
    snapshot: String,
}

impl Bucket {
    /// Runs `cases` keys of the `sweep` row: `density` scripted faults on
    /// a wire flipping bits at `corrupt_p`.
    fn run(sweep: &str, keys: impl Iterator<Item = u64>, density: u32, corrupt_p: f64) -> Self {
        let mut b = Bucket::default();
        for key in keys {
            let (h, survived) = run_case(key, sweep, density, corrupt_p);
            match survived {
                Some(t) => b.done_ms.push(t * 1e3),
                None => b.aborted += 1,
            }
            b.wire.accumulate(&CaseWire::read(&h));
            b.snapshot = format!(
                "{{\"fabric\": {}, \"engine\": {}}}",
                h.p.fabric.metrics().snapshot().to_json(),
                h.p.eng.metrics().snapshot().to_json()
            );
        }
        b.done_ms.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b
    }

    fn survived(&self) -> u64 {
        self.done_ms.len() as u64
    }

    /// The survivors' p-th percentile completion, NaN when none survived.
    fn percentile(&self, p: f64) -> f64 {
        let n = self.done_ms.len();
        if n == 0 {
            return f64::NAN;
        }
        self.done_ms[((n as f64 * p).ceil() as usize).clamp(1, n) - 1]
    }
}

/// Runs one seeded case of the `sweep` row at the given fault density and
/// per-bit corruption rate; panics on any trichotomy or teardown
/// violation. Returns the harness and, for a survivor, its completion
/// instant (s).
fn run_case(key: u64, sweep: &str, density: u32, corrupt_p: f64) -> (ProtoHarness, Option<f64>) {
    let mut rng = CaseRng::for_case(key);
    let initial = [
        SchemeSpec::SrNack,
        SchemeSpec::SrRto,
        SchemeSpec::Gbn,
        SchemeSpec::EcMds { k: 32, m: 8 },
    ][rng.below(4) as usize];
    // Baseline loss stays at or below 1e-3: the scripted faults are the
    // stressor here, not a pathological resting channel (the soak test
    // covers those — it has no fixed deadline to calibrate).
    let p_base = 10f64.powf(-(3.0 + rng.next_f64() * 2.0));
    let plan = draw_faults(&mut rng, density.into());
    let link_seed = rng.next_u64();
    let (dup_p, reorder) = draw_unfaithful(&mut rng);
    let mut link = LinkConfig::wan(KM, BW, p_base)
        .with_seed(link_seed)
        .with_duplication(dup_p)
        .with_corruption(corrupt_p);
    if let Some((rp, span)) = reorder {
        link = link.with_reordering(rp, span);
    }
    let case = SoakCase {
        plan,
        deadline: Some(SimTime::from_secs_f64(DEADLINE_S)),
        ..SoakCase::new(link, MSG, link_seed ^ 0xC0DE, initial)
    };
    let (h, v) = case.run();
    let v = v.unwrap_or_else(|e| panic!("case {key} ({sweep}): {e}"));
    if v.arm != Arm::Delivered {
        eprintln!(
            "  abort: key={key} {sweep} initial={initial} p_base={p_base:.1e} tx={} rx={}",
            v.tx.outcome, v.rx.outcome
        );
    }
    let survived = (v.arm == Arm::Delivered).then(|| v.rx_done.as_secs_f64());
    (h, survived)
}

/// Segment size of the restart sweep (finer than the fault sweep's so the
/// delivered fraction at crash has sub-⅛ resolution on a 4 MiB message).
const RESTART_SEG: u64 = 512 << 10;

/// A resumed restart case: the fraction delivered when the receiver died,
/// the already-delivered bytes the second life re-sent (0 when the plan
/// covers exactly the undelivered tail), and its chunk-level repair
/// retransmits (channel loss, not resume overhead).
struct Restarted {
    delivered_frac: f64,
    retx_delivered: u64,
    repair_retx: u64,
}

/// One crash/resume case: a 4 MiB undeadlined adaptive transfer whose
/// receiver dies mid-delivery, re-attaches after a drawn dead time, and
/// resumes from the delivery manifest. The verdict makes the resume
/// deliver byte-identical (the plan is finite); `None` when the crash
/// raced a completed transfer.
fn run_restart_case(key: u64) -> Option<Restarted> {
    let mut rng = CaseRng::for_case(key);
    let p_base = 10f64.powf(-(3.0 + rng.next_f64()));
    // CTS credits spend one 5 ms one-way reaching the sender and data
    // another 5 ms returning, so 4 MiB arrivals span ~10–14.2 ms; a crash
    // drawn inside that window lands mid-delivery.
    let crash_at = SimTime::from_secs_f64(0.0108 + rng.next_f64() * 0.0024);
    let dead = SimTime::from_secs_f64(0.001 + rng.next_f64() * 0.002);
    let link_seed = rng.next_u64();
    let link = LinkConfig::wan(KM, BW, p_base).with_seed(link_seed);
    let case = SoakCase {
        plan: FaultPlan::new_duplex().with(FaultEvent::PeerRestart {
            at: crash_at,
            side: RestartSide::B,
            dead_time: dead,
        }),
        segment_bytes: RESTART_SEG,
        ..SoakCase::new(link, MSG, link_seed ^ 0xC0DE, SchemeSpec::SrNack)
    };
    let (_, v) = case.run();
    let r = v
        .unwrap_or_else(|e| panic!("restart case {key}: {e}"))
        .resumed?;
    // The second life's bytes beyond the undelivered tail re-send
    // delivered data (MSG divides evenly into RESTART_SEG segments).
    let delivered = r.manifest.delivered_bytes();
    let planned_bytes = u64::from(r.tx.segments) * RESTART_SEG;
    Some(Restarted {
        delivered_frac: delivered as f64 / MSG as f64,
        retx_delivered: planned_bytes.saturating_sub(MSG - delivered),
        repair_retx: r.tx.retransmits,
    })
}

fn main() {
    let smoke = sdr_bench::smoke();
    // 50 cases per density bound a survival-rate estimate to a ±7-point
    // 95% binomial CI — enough to distinguish the densities' rates —
    // where the old 20 (±11 points) could not.
    let cases: u64 = if smoke { 5 } else { 50 };
    println!("# Chaos soak — survival rate and completion tail vs fault density");
    println!(
        "deployment: {} km ({:.2} ms RTT), {} Gbit/s, 4 MiB adaptive transfers, \
         deadline {:.0} ms, {cases} cases per density",
        KM,
        2.0 * KM * 5e-6 * 1e3 + 4096.0 * 8.0 / BW * 1e3,
        BW / 1e9,
        DEADLINE_S * 1e3
    );
    let jnum = |v: f64| {
        if v.is_nan() {
            String::from("null")
        } else {
            format!("{v:.3}")
        }
    };

    table_header(
        "survivability vs scripted fault events per transfer",
        &[
            "faults",
            "cases",
            "survived",
            "rate",
            "p50 ms",
            "p99 ms",
            "worst ms",
            "ctrl drops",
            "wire dup",
            "wire reo",
        ],
    );
    let mut json = String::from("{\n  \"bench\": \"chaos_soak\",\n");
    json.push_str(&format!(
        "  \"deadline_ms\": {:.1}, \"cases_per_density\": {cases},\n  \"rows\": [\n",
        DEADLINE_S * 1e3
    ));
    // Registry snapshot of the last (densest) case, embedded below so the
    // JSON carries one full specimen of what the stack exports.
    let mut last_snapshot = String::new();
    for density in 0u32..=3 {
        // Disjoint key ranges per bucket keep every case independent.
        let keys = (0..cases).map(|n| (u64::from(density) << 32) | n);
        let b = Bucket::run(&format!("faults density={density}"), keys, density, 0.0);
        let (survived, w) = (b.survived(), &b.wire);
        let rate = survived as f64 / cases as f64;
        let (p50, p99) = (b.percentile(0.50), b.percentile(0.99));
        table_row(&[
            density.to_string(),
            cases.to_string(),
            survived.to_string(),
            format!("{:.0}%", rate * 100.0),
            fmt(p50),
            fmt(p99),
            fmt(b.percentile(1.0)),
            format!("{}+{}", w.ctrl_stale, w.ctrl_dupes),
            w.link_dup.to_string(),
            w.link_reorder.to_string(),
        ]);
        json.push_str(&format!(
            "    {{\"fault_density\": {density}, \"cases\": {cases}, \"survived\": {survived}, \
             \"survival_rate\": {rate:.3}, \"p50_ms\": {}, \"p99_ms\": {}, \
             \"aborted\": {}, \"ctrl_stale\": {}, \"ctrl_duplicates\": {}, \
             \"link_duplicated\": {}, \"link_reordered\": {}}}{}\n",
            jnum(p50),
            jnum(p99),
            b.aborted,
            w.ctrl_stale,
            w.ctrl_dupes,
            w.link_dup,
            w.link_reorder,
            if density == 3 { "" } else { "," }
        ));
        // A fault-free channel at these loss rates never blows a 2.3x
        // deadline; faulted buckets may abort but must mostly survive.
        if density == 0 {
            assert_eq!(survived, cases, "fault-free bucket must fully survive");
        } else {
            assert!(
                rate >= 0.5,
                "density {density}: survival collapsed to {rate:.2}"
            );
        }
        last_snapshot = b.snapshot;
    }
    json.push_str("  ],\n");

    // ------------------------------------------------------------------
    // Corruption-density sweep: a bit-flipping wire instead of scripted
    // faults. The integrity machinery (control CRC trailers, the NIC's
    // pre-DMA payload check, EC shard audits, the whole-message delivery
    // digest) must turn every flip into a loss: each case either delivers
    // byte-identical or aborts cleanly — silent corruption is the one
    // outcome that can never appear, and the verdict panics if it does.
    // ------------------------------------------------------------------
    let corrupt_densities = [0.0_f64, 1e-6, 1e-5, 1e-4];
    table_header(
        "integrity vs per-bit corruption density (no scripted faults)",
        &[
            "flip/bit",
            "cases",
            "survived",
            "rate",
            "p50 ms",
            "p99 ms",
            "wire flips",
            "nic drops",
            "ctrl crc",
        ],
    );
    json.push_str("  \"corruption_rows\": [\n");
    for (i, &cp) in corrupt_densities.iter().enumerate() {
        // Key space disjoint from the fault buckets (0–3) and the
        // restart sweep (4).
        let keys = (0..cases).map(|n| (8u64 << 32) | ((i as u64) << 24) | n);
        let b = Bucket::run(&format!("corruption corrupt_p={cp:.0e}"), keys, 0, cp);
        let (survived, w) = (b.survived(), &b.wire);
        let rate = survived as f64 / cases as f64;
        let (p50, p99) = (b.percentile(0.50), b.percentile(0.99));
        table_row(&[
            format!("{cp:.0e}"),
            cases.to_string(),
            survived.to_string(),
            format!("{:.0}%", rate * 100.0),
            fmt(p50),
            fmt(p99),
            w.link_corrupt.to_string(),
            w.nic_crc_skipped.to_string(),
            w.ctrl_corrupt.to_string(),
        ]);
        json.push_str(&format!(
            "    {{\"corrupt_per_bit\": {cp:e}, \"cases\": {cases}, \"survived\": {survived}, \
             \"survival_rate\": {rate:.3}, \"p50_ms\": {}, \"p99_ms\": {}, \
             \"aborted\": {}, \"link_corrupted\": {}, \"nic_crc_skipped\": {}, \
             \"ctrl_corrupt\": {}}}{}\n",
            jnum(p50),
            jnum(p99),
            b.aborted,
            w.link_corrupt,
            w.nic_crc_skipped,
            w.ctrl_corrupt,
            if i == corrupt_densities.len() - 1 {
                ""
            } else {
                ","
            }
        ));
        if cp == 0.0 {
            assert_eq!(survived, cases, "clean-wire bucket must fully survive");
        } else {
            // The sweep must actually exercise the guards: the wire
            // flipped packets and the NIC caught data-plane flips before
            // they reached memory. (Survival itself may legitimately fall
            // to zero at the densest setting — corruption behaves as loss
            // and the deadline does the rest.)
            assert!(
                w.link_corrupt > 0,
                "corruption {cp:e}: the wire never flipped a packet"
            );
            assert!(
                w.nic_crc_skipped > 0,
                "corruption {cp:e}: no corrupt payload reached the pre-DMA check"
            );
        }
    }
    json.push_str("  ],\n");

    // ------------------------------------------------------------------
    // Restart/resume sweep: crash the receiver mid-delivery, resume from
    // the manifest, and quantify how much already-delivered data the
    // second life re-sends (the acceptance bound is ≤ 50 %; the plan-based
    // resume should sit at 0).
    // ------------------------------------------------------------------
    let restart_cases: u64 = if smoke { 4 } else { 12 };
    let mut crashed = 0u64;
    let mut frac_sum = 0.0f64;
    let mut retx_frac_sum = 0.0f64;
    let mut repair_sum = 0u64;
    for n in 0..restart_cases {
        let key = (4u64 << 32) | n; // disjoint from the density buckets
        let Some(s) = run_restart_case(key) else {
            continue;
        };
        crashed += 1;
        frac_sum += s.delivered_frac;
        let delivered_bytes = s.delivered_frac * MSG as f64;
        let retx_frac = if delivered_bytes > 0.0 {
            s.retx_delivered as f64 / delivered_bytes
        } else {
            0.0
        };
        retx_frac_sum += retx_frac;
        repair_sum += s.repair_retx;
        assert!(
            retx_frac <= 0.5,
            "restart case {key}: resume re-sent {:.0}% of delivered bytes",
            retx_frac * 100.0
        );
    }
    assert!(crashed > 0, "no restart case crashed mid-transfer");
    // The verdict passed every undeadlined resume only once it delivered
    // byte-identical.
    let resumed = crashed;
    let mean_frac = frac_sum / crashed as f64;
    let mean_retx_frac = retx_frac_sum / crashed as f64;
    table_header(
        "resume after mid-transfer receiver restart",
        &[
            "cases",
            "crashed",
            "resumed",
            "rate",
            "avg done@crash",
            "avg retx of delivered",
            "repair retx",
        ],
    );
    table_row(&[
        restart_cases.to_string(),
        crashed.to_string(),
        resumed.to_string(),
        format!("{:.0}%", resumed as f64 / crashed as f64 * 100.0),
        format!("{:.0}%", mean_frac * 100.0),
        format!("{:.1}%", mean_retx_frac * 100.0),
        repair_sum.to_string(),
    ]);
    json.push_str(&format!(
        "  \"restart\": {{\"cases\": {restart_cases}, \"crashed\": {crashed}, \
         \"resumed\": {resumed}, \"resume_success_rate\": {:.3}, \
         \"mean_delivered_frac_at_crash\": {mean_frac:.3}, \
         \"mean_retx_of_delivered_frac\": {mean_retx_frac:.4}, \
         \"second_life_repair_retransmits\": {repair_sum}}}\n",
        resumed as f64 / crashed as f64
    ));

    // One full registry specimen (the last density-3 case): every
    // counter, gauge and histogram the stack exported during that run.
    json.push_str(&format!("  ,\"metrics\": {last_snapshot}\n"));
    json.push_str("}\n");
    println!(
        "\nExpected shape: survival starts at 100% on the fault-free bucket\n\
         and degrades gently with density; the completion tail (p99)\n\
         stretches as blackouts and RTO backoff ramps push survivors\n\
         toward the deadline. Non-survivors abort cleanly — the trichotomy\n\
         is asserted per case, so this bench doubles as a gate. On the\n\
         corrupting wire, survival tracks the flip density (corruption is\n\
         reclassified as loss, so dense flips turn into deadline aborts)\n\
         while every delivery stays byte-identical. The resume sweep\n\
         re-sends 0% of already-delivered bytes: the manifest plan covers\n\
         exactly the undelivered tail."
    );
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("\nwrote BENCH_chaos.json");
}
