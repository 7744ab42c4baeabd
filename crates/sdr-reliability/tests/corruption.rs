//! End-to-end data-integrity scenarios: the checksummed planes under a
//! corrupting wire and under post-DMA memory damage.
//!
//! * the **acceptance transfer** — 40 MiB adaptive over a 1e-5 bit-flip
//!   link delivers byte-identical, digest-verified, with every corrupt
//!   packet stopped before the DMA and repaired as a loss;
//! * a **digest mismatch** — the sender's source buffer mutates after its
//!   bytes landed, so bitmaps complete but the whole-message digest
//!   disagrees: the receiver refuses delivery with `AbortReason::Corrupt`;
//! * a **source mutation in flight** — data packets name the send buffer
//!   and are read at delivery, so bytes changed between post and delivery
//!   fail the NIC's check against the post-time CRC and are repaired like
//!   a loss: what is delivered is what the source holds, never a mix;
//! * **EC stale shards** — post-DMA corruption of landed chunks is caught
//!   by the arrival-CRC audit before decode, then repaired either by
//!   decoding around the stale shard or (when too many shards are dirty
//!   for the code) by the fallback NACK whose clean re-arrivals heal the
//!   memory in place.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::ProtoHarness;
use sdr_core::SdrConfig;
use sdr_reliability::{
    AbortReason, AdaptConfig, AdaptRecvReport, AdaptReport, EcCodeChoice, EcProtoConfig,
    EcReceiver, EcSender, SchemeSpec, TelemetryConfig, TransferOutcome,
};
use sdr_sim::{Engine, LinkConfig, SimTime};

const BW: f64 = 8e9;
const KM: f64 = 1000.0;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: 4 << 20,
        msg_slots: 64,
        mtu_bytes: 4096,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

/// The PR's acceptance bar: a 40 MiB adaptive transfer over a WAN link
/// flipping bits at 1e-5 per bit (~28% of data packets corrupted) must
/// deliver byte-identical. Corrupt payloads are stopped before the DMA
/// (`crc_skipped`), observed by the verbs layer as losses
/// (`payload_corrupt`), repaired by the ordinary NACK/RTO machinery, and
/// the delivery verdict is digest-verified end to end.
#[test]
fn adaptive_40mib_delivers_byte_identical_over_corrupting_wire() {
    let msg: u64 = 40 << 20;
    let link = LinkConfig::wan(KM, BW, 0.0)
        .with_corruption(1e-5)
        .with_seed(41);
    let mut h = ProtoHarness::new(link, cfg(), msg, 0xC0DE);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, 2 << 20);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 768,
    };
    let run = h.start_adaptive(SchemeSpec::SrNack, &acfg);
    h.run(400_000_000);

    let (tx_rep, _, rx_rep) = run.reports.take().unwrap();
    assert_eq!(tx_rep.outcome, TransferOutcome::Delivered);
    assert_eq!(
        rx_rep.outcome,
        TransferOutcome::Delivered,
        "the digest verdict must accept an honestly repaired transfer"
    );
    assert!(h.delivered_ok(), "delivery must be byte-identical");

    let wire = h.p.fabric.link_stats(h.p.node_a, h.p.node_b).unwrap();
    assert!(wire.corrupted > 0, "the link must actually have corrupted");
    let skipped = h.p.fabric.node(h.p.node_b, |n| n.stats().crc_skipped);
    assert!(skipped > 0, "corrupt payloads must be stopped pre-DMA");
    assert!(
        h.p.qp_b.stats().payload_corrupt > 0,
        "the verbs layer must have reclassified corrupt packets as losses"
    );
}

/// An 8 MiB adaptive SR transfer over a clean 1000 km wire, with the
/// first source byte flipped as soon as `when(packets posted, packets the
/// receiver recorded)` holds (polled every 10 µs). Returns the harness,
/// both reports and the flipped byte.
fn adaptive_with_source_flip(
    when: fn(u64, u64) -> bool,
) -> (ProtoHarness, AdaptReport, AdaptRecvReport, u8) {
    let msg: u64 = 8 << 20;
    let link = LinkConfig::wan(KM, BW, 0.0).with_seed(43);
    let mut h = ProtoHarness::new(link, cfg(), msg, 0xD16E);
    let rtt = h.rtt;
    let acfg = AdaptConfig::new(BW, rtt, 2 << 20);
    let run = h.start_adaptive(SchemeSpec::SrNack, &acfg);
    let ctx = h.p.ctx_a.clone();
    let (src, flipped) = (h.src, h.data[0] ^ 0x20);
    let (fabric, a, b, qp_b) = (h.p.fabric.clone(), h.p.node_a, h.p.node_b, h.p.qp_b.clone());
    let poll = SimTime::from_micros(10);
    h.p.eng.schedule_recurring_in(poll, move |eng| {
        let posted = fabric.link_stats(a, b).expect("linked").sent;
        if !when(posted, qp_b.stats().packets_received) {
            return Some(eng.now() + poll);
        }
        ctx.write_buffer(src, &[flipped]);
        None
    });
    h.run(120_000_000);
    let (tx_rep, _, rx_rep) = run.reports.take().unwrap();
    (h, tx_rep, rx_rep, flipped)
}

/// Whole-message digest mismatch: one source byte mutates *after* its
/// packet landed (the wire is clean and in order, so byte 0's packet is
/// the first the receiver records). Every bitmap completes, but the
/// sender's lazily computed digest covers the mutated buffer, so the
/// receiver's verification round trip ends in `AbortReason::Corrupt`
/// instead of a silently wrong "Delivered".
#[test]
fn source_mutation_after_send_fails_the_delivery_digest() {
    let (h, tx_rep, rx_rep, _) = adaptive_with_source_flip(|_, recorded| recorded > 0);
    // The sender's Delivered rides the final scheme ACK, which precedes
    // the digest round trip — it legitimately reports success here; the
    // *receiver* is the end that must refuse.
    match tx_rep.outcome {
        TransferOutcome::Delivered => {}
        TransferOutcome::Aborted { reason: r, .. } => assert_eq!(r, AbortReason::Corrupt),
    }
    assert_eq!(
        rx_rep.outcome.abort_reason(),
        Some(AbortReason::Corrupt),
        "a digest mismatch must never be reported as Delivered"
    );
    // The landed bytes themselves match what was originally sent — the
    // digest protects against the *source* no longer vouching for them.
    assert!(h.delivered_ok());
}

/// The zero-copy contract with payload checksums on: a data packet names
/// the send buffer and its bytes are read at delivery, 5 ms after the
/// post on this wire. A byte that changes in between no longer matches
/// the CRC taken at post time, so the receiving NIC skips the DMA, the
/// packet's bit stays clear, and the SR repair re-sends it — reading the
/// source again. The transfer delivers exactly what the source holds.
#[test]
fn source_mutation_in_flight_is_caught_at_the_nic_and_repaired() {
    let (h, tx_rep, rx_rep, flipped) = adaptive_with_source_flip(|posted, recorded| {
        assert_eq!(recorded, 0, "the flip must land while byte 0 is in flight");
        posted > 0
    });
    assert_eq!(tx_rep.outcome, TransferOutcome::Delivered);
    assert_eq!(rx_rep.outcome, TransferOutcome::Delivered);
    let mut now_at_source = h.data.clone();
    now_at_source[0] = flipped;
    assert!(
        h.delivered() == now_at_source,
        "the delivery is the source as it stands, not a mix of old and new"
    );
    assert_eq!(h.p.fabric.node(h.p.node_b, |n| n.stats().crc_skipped), 1);
    assert_eq!(h.p.qp_b.stats().payload_corrupt, 1);
}

/// Stands up a 1 MiB EC transfer over a clean fast link and returns the
/// harness plus the started receiver (for stats polling) and the sender
/// completion flag.
fn ec_deploy(k: usize, m: usize, seed: u64) -> (ProtoHarness, Rc<EcReceiver>, Rc<RefCell<bool>>) {
    let msg: u64 = 1 << 20;
    let cfg = SdrConfig {
        max_msg_bytes: 1 << 20,
        msg_slots: 64,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    };
    let link = LinkConfig::wan(50.0, BW, 0.0).with_seed(seed);
    let mut h = ProtoHarness::new(link, cfg, msg, seed ^ 0xEC);
    let model_ch = h.model_channel(BW, 0.0);
    let proto = EcProtoConfig::for_channel(k, m, EcCodeChoice::Mds, &model_ch, msg, h.rtt);
    let done = Rc::new(RefCell::new(false));
    let d = done.clone();
    let _tx = EcSender::start(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        proto,
        move |_e, _rep| *d.borrow_mut() = true,
    );
    let rx = Rc::new(EcReceiver::start(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        proto,
        |_e, _t, _st| {},
    ));
    (h, rx, done)
}

/// One landed data chunk is corrupted in receiver memory (post-DMA — a
/// stray local write, not the wire). The arrival-CRC audit demotes the
/// stale shard to absent *before* decode reads it, and the code decodes
/// around it from parity — delivery stays byte-identical and the decode
/// never consumes poisoned bytes.
#[test]
fn ec_stale_shard_is_demoted_and_decoded_around() {
    let (mut h, rx, done) = ec_deploy(4, 2, 51);
    // Poke one byte of chunk 0 every 2 µs. Pokes before the chunk lands
    // are overwritten by the arriving write; the first poke *after* it
    // lands goes stale at the next audit, at which point we stop so the
    // decode's repair is not re-corrupted.
    let ctx = h.p.ctx_b.clone();
    let (addr, bad) = (h.dst + 7, h.data[7] ^ 0x80);
    let rxp = rx.clone();
    h.p.eng
        .schedule_recurring_at(SimTime::from_nanos(500), move |eng: &mut Engine| {
            if rxp.stats().stale_chunks > 0 || rxp.is_complete() {
                return None;
            }
            ctx.write_buffer(addr, &[bad]);
            Some(eng.now() + SimTime::from_nanos(2_000))
        });
    h.run(80_000_000);

    assert!(*done.borrow(), "sender completed");
    assert!(rx.is_complete() && rx.is_released());
    let st = rx.stats();
    assert!(st.stale_chunks > 0, "the audit must catch the stale shard");
    assert!(
        st.decoded_submessages >= 1,
        "the stale shard is decoded around, not trusted"
    );
    assert!(h.delivered_ok(), "decode repaired the poisoned chunk");
}

/// Too many stale shards for the code (three data chunks of a k=4, m=1
/// submessage kept dirty): decode is impossible, so the fallback timeout
/// NACKs the submessage and the sender's clean re-transmission heals both
/// the memory and the recorded arrival CRCs in place.
#[test]
fn ec_stale_shards_beyond_code_strength_are_renacked_and_healed() {
    let (mut h, rx, done) = ec_deploy(4, 1, 53);
    // Keep bytes of chunks 0, 1 and 2 dirty until the first fallback
    // NACK is on the wire, then stop so the re-sent chunks land clean.
    // With three shards dirty at every audit (a freshly landed chunk is
    // clean for at most one 2 µs poke gap), at most data chunk 3 + the
    // parity chunk + one in-gap chunk are present: under k=4 the decode
    // can never proceed, so the FTO path *must* repair.
    let ctx = h.p.ctx_b.clone();
    let chunk = 64 * 1024u64;
    let pokes: Vec<(u64, u8)> = (0..3)
        .map(|c| {
            let off = c * chunk + 7;
            (h.dst + off, h.data[off as usize] ^ 0x80)
        })
        .collect();
    let rxp = rx.clone();
    h.p.eng
        .schedule_recurring_at(SimTime::from_nanos(500), move |eng: &mut Engine| {
            if rxp.stats().fallback_nacks > 0 || rxp.is_complete() {
                return None;
            }
            for &(addr, bad) in &pokes {
                ctx.write_buffer(addr, &[bad]);
            }
            Some(eng.now() + SimTime::from_nanos(2_000))
        });
    h.run(80_000_000);

    assert!(*done.borrow(), "sender completed");
    assert!(rx.is_complete() && rx.is_released());
    let st = rx.stats();
    assert!(st.stale_chunks > 0, "the audit must catch the stale shards");
    assert!(
        st.fallback_nacks >= 1,
        "with decode impossible, the FTO NACK must fire"
    );
    assert!(h.delivered_ok(), "clean re-arrivals healed the memory");
}
