//! # sdr-core — the SDR SDK (partial message completion over unreliable RDMA)
//!
//! This crate implements the paper's primary contribution: a middleware that
//! extends conventional RDMA completion semantics with **partial message
//! completion** (§3). The full Table 1 API is provided:
//!
//! | Paper call | Here |
//! |---|---|
//! | `context_create` | [`SdrContext::new`] |
//! | `qp_create` | [`SdrContext::qp_create`] / [`SdrQp::create`] |
//! | `qp_info_get` | [`SdrQp::info`] |
//! | `qp_connect` | [`SdrQp::connect`] |
//! | `mr_reg` | [`SdrContext::mr_reg`] |
//! | `send_stream_start` | [`SdrQp::send_stream_start`] |
//! | `send_stream_continue` | [`SdrQp::send_stream_continue`] |
//! | `send_stream_end` | [`SdrQp::send_stream_end`] |
//! | `send_post` | [`SdrQp::send_post`] |
//! | `send_poll` | [`SdrQp::send_poll`] |
//! | `recv_post` | [`SdrQp::recv_post`] |
//! | `recv_bitmap_get` | [`SdrQp::recv_bitmap`] |
//! | `recv_imm_get` | [`SdrQp::recv_imm_get`] |
//! | `recv_complete` | [`SdrQp::recv_complete`] |
//!
//! Key mechanisms, all reproduced from the paper:
//!
//! * one unreliable Write-with-immediate **per packet**, making every packet
//!   an independent single-packet message immune to ePSN drops (§3.2.1);
//! * the 10+18+4-bit immediate split (message id / packet offset / user
//!   immediate fragment), configurable to e.g. 8+22+2 (§3.2.4);
//! * two-level bitmaps: per-packet (backend) coalesced into chunk bits
//!   (frontend) that reliability layers poll (§3.1.1), each chunk
//!   completion also published to the host as it happens
//!   ([`SdrQp::set_chunk_hook`], §3.3) so they need not wait for a poll;
//! * order-based matching with out-of-band clear-to-send (§3.1.3, §3.2.3);
//! * two-stage late-packet protection: NULL-memory-key discard plus
//!   generation-tagged internal QPs (§3.3). This implementation gives each
//!   generation its *own* root memory-key table, which additionally protects
//!   the reposted buffer contents (not just the bitmaps) from
//!   generation-stale DMA — a strict strengthening of the paper's scheme;
//! * multi-channel packet striping for backend parallelism (§3.4.1); the
//!   real-thread offload engine lives in the `sdr-dpa` crate.

#![warn(missing_docs)]

pub mod bitmap;
pub mod config;
pub mod context;
pub mod handles;
pub mod imm;
pub mod qp;
pub mod testkit;

pub use bitmap::{AtomicBitmap, TwoLevelBitmap};
pub use config::SdrConfig;
pub use context::SdrContext;
pub use handles::{RecvHandle, SdrError, SdrStats, SendHandle};
pub use imm::{ImmLayout, UserImmAccumulator};
pub use qp::{SdrQp, SdrQpInfo};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{pattern, sdr_pair, SdrPair};
    use sdr_sim::{LinkConfig, LossModel, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn small_cfg() -> SdrConfig {
        SdrConfig {
            max_msg_bytes: 1 << 20, // 1 MiB
            msg_slots: 4,
            mtu_bytes: 4096,
            chunk_bytes: 16 * 4096, // 16 packets per chunk
            channels: 2,
            generations: 2,
            imm: ImmLayout::default(),
        }
    }

    fn lossless_pair() -> SdrPair {
        sdr_pair(LinkConfig::intra_dc(8e9), small_cfg(), 8 << 20)
    }

    #[test]
    fn one_shot_transfer_lossless() {
        let mut p = lossless_pair();
        let data = pattern(300_000, 1);
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);

        let rh = p
            .qp_b
            .recv_post(&mut p.eng, dst, data.len() as u64)
            .unwrap();
        let sh = p
            .qp_a
            .send_post(&mut p.eng, src, data.len() as u64, Some(0xABCD_1234))
            .unwrap();
        p.eng.run();

        assert!(p.qp_a.send_poll(&sh).unwrap(), "send locally complete");
        assert!(p.qp_b.recv_is_complete(&rh).unwrap(), "all chunks arrived");
        assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
        // 300000 bytes / 4096 = 74 packets ≥ 8 → immediate reassembles.
        assert_eq!(p.qp_b.recv_imm_get(&rh).unwrap(), Some(0xABCD_1234));
        let st = p.qp_b.stats();
        assert_eq!(st.packets_received, 74);
        assert_eq!(st.chunks_completed, 5); // ceil(74/16)
    }

    #[test]
    fn send_before_recv_is_deferred_until_cts() {
        let mut p = lossless_pair();
        let data = pattern(100_000, 2);
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);

        // Sender posts first — injection must wait for the CTS.
        let sh = p
            .qp_a
            .send_post(&mut p.eng, src, data.len() as u64, None)
            .unwrap();
        p.eng.run();
        assert!(!p.qp_a.send_poll(&sh).unwrap(), "no CTS yet, nothing sent");

        let rh = p
            .qp_b
            .recv_post(&mut p.eng, dst, data.len() as u64)
            .unwrap();
        p.eng.run();
        assert!(p.qp_a.send_poll(&sh).unwrap());
        assert!(p.qp_b.recv_is_complete(&rh).unwrap());
        assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
    }

    #[test]
    fn a_deferred_send_meeting_a_smaller_credit_fails() {
        let mut p = lossless_pair();
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        let sh = p.qp_a.send_post(&mut p.eng, src, 40_000, None).unwrap();
        let rh = p.qp_b.recv_post(&mut p.eng, dst, 1000).unwrap();
        p.eng.run();
        assert_eq!(p.qp_a.send_poll(&sh), Err(SdrError::TooLarge));
        assert!(!p.qp_a.has_cts(sh.id()), "the credit is spent");
        assert_eq!(p.qp_b.recv_bitmap(&rh).unwrap().packets().count_set(), 0);
        p.qp_a.send_release(sh);
        assert_eq!(p.qp_a.live_sends(), 0);
    }

    #[test]
    fn order_based_matching_pairs_sends_with_recvs() {
        // Figure 4 semantics: Send1→Recv1, Send2→Recv2, no metadata needed.
        let mut p = lossless_pair();
        let d1 = pattern(50_000, 3);
        let d2 = pattern(70_000, 4);
        let src = p.ctx_a.alloc_buffer(2 << 20);
        p.ctx_a.write_buffer(src, &d1);
        p.ctx_a.write_buffer(src + (1 << 20), &d2);
        let dst1 = p.ctx_b.alloc_buffer(1 << 20);
        let dst2 = p.ctx_b.alloc_buffer(1 << 20);

        let r1 = p.qp_b.recv_post(&mut p.eng, dst1, d1.len() as u64).unwrap();
        let r2 = p.qp_b.recv_post(&mut p.eng, dst2, d2.len() as u64).unwrap();
        p.qp_a
            .send_post(&mut p.eng, src, d1.len() as u64, None)
            .unwrap();
        p.qp_a
            .send_post(&mut p.eng, src + (1 << 20), d2.len() as u64, None)
            .unwrap();
        p.eng.run();

        assert!(p.qp_b.recv_is_complete(&r1).unwrap());
        assert!(p.qp_b.recv_is_complete(&r2).unwrap());
        assert_eq!(p.ctx_b.read_buffer(dst1, d1.len()), d1);
        assert_eq!(p.ctx_b.read_buffer(dst2, d2.len()), d2);
    }

    #[test]
    fn lossy_transfer_reports_missing_chunks_and_stream_repairs_them() {
        // The core SDR promise: the bitmap tells the reliability layer
        // exactly which chunks to retransmit; streaming sends repair them.
        let link = LinkConfig::intra_dc(8e9)
            .with_loss(LossModel::Iid { p: 0.05 })
            .with_seed(99);
        let mut p = sdr_pair(link, small_cfg(), 8 << 20);
        let data = pattern(1 << 20, 5);
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);

        let rh = p
            .qp_b
            .recv_post(&mut p.eng, dst, data.len() as u64)
            .unwrap();
        p.eng.run(); // deliver CTS
        let sh = p
            .qp_a
            .send_stream_start(&mut p.eng, src, data.len() as u64, None)
            .unwrap();
        p.qp_a
            .send_stream_continue(&mut p.eng, &sh, 0, data.len() as u64, |_, _| {})
            .unwrap();
        p.eng.run();

        let bm = p.qp_b.recv_bitmap(&rh).unwrap();
        let total_chunks = bm.total_chunks();
        let missing = bm.chunks().missing_in_first_n(total_chunks);
        assert!(!missing.is_empty(), "5% loss over 256 packets must drop");
        assert!(!bm.is_complete());

        // Retransmit missing chunks (what an SR layer does) until clean.
        for _round in 0..20 {
            let missing = bm.chunks().missing_in_first_n(total_chunks);
            if missing.is_empty() {
                break;
            }
            for c in missing {
                let off = c as u64 * p.qp_a.config().chunk_bytes;
                let len = p.qp_a.config().chunk_bytes.min(data.len() as u64 - off);
                p.qp_a
                    .send_stream_continue(&mut p.eng, &sh, off, len, |_, _| {})
                    .unwrap();
            }
            p.eng.run();
        }
        assert!(bm.is_complete(), "stream retransmission must converge");
        p.qp_a.send_stream_end(&sh).unwrap();
        assert!(p.qp_a.send_poll(&sh).unwrap());
        assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
    }

    #[test]
    fn corrupted_packets_are_reclassified_as_losses_and_repaired() {
        // Tentpole invariant: a payload flipped on the wire is never
        // recorded as received — its bitmap bit stays clear, stats count
        // the rejection, and ordinary stream retransmission heals it
        // exactly like a loss.
        let link = LinkConfig::intra_dc(8e9).with_corruption(1e-5).with_seed(7);
        let mut p = sdr_pair(link, small_cfg(), 8 << 20);
        let data = pattern(1 << 20, 11);
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);

        let rh = p
            .qp_b
            .recv_post(&mut p.eng, dst, data.len() as u64)
            .unwrap();
        p.eng.run(); // deliver CTS
        let sh = p
            .qp_a
            .send_stream_start(&mut p.eng, src, data.len() as u64, None)
            .unwrap();
        p.qp_a
            .send_stream_continue(&mut p.eng, &sh, 0, data.len() as u64, |_, _| {})
            .unwrap();
        p.eng.run();

        let bm = p.qp_b.recv_bitmap(&rh).unwrap();
        assert!(
            !bm.is_complete(),
            "~28% of packets corrupt at 1e-5/bit: some must be rejected"
        );
        // Repair until clean with chunk-granular resends (what the SR
        // layer's NACKs do). These re-send already-recorded packets too —
        // the corrupted-duplicate hazard — but the NIC's pre-DMA checksum
        // check means a corrupt duplicate is simply discarded instead of
        // overwriting clean memory, so plain resends converge to
        // byte-identical delivery just as they do under loss.
        let chunk_bytes = p.qp_a.config().chunk_bytes;
        for _round in 0..60 {
            let missing = bm.chunks().missing_in_first_n(bm.total_chunks());
            if missing.is_empty() {
                break;
            }
            for c in missing {
                let off = c as u64 * chunk_bytes;
                let len = chunk_bytes.min(data.len() as u64 - off);
                p.qp_a
                    .send_stream_continue(&mut p.eng, &sh, off, len, |_, _| {})
                    .unwrap();
            }
            p.eng.run();
        }
        assert!(bm.is_complete(), "retransmission must out-run corruption");
        assert_eq!(
            p.ctx_b.read_buffer(dst, data.len()),
            data,
            "delivered bytes must be identical despite wire corruption"
        );
        let st = p.qp_b.stats();
        assert!(st.payload_corrupt > 0, "rejections must be counted");
        let dropped = p.fabric.node(p.node_b, |n| n.stats().crc_skipped);
        assert!(dropped > 0, "corrupt payloads must be stopped pre-DMA");
        // Pinned: of the 218 payloads the NIC refused, 119 were corrupt
        // duplicates over a clean original — memory still matched the
        // sender's CRC, so they count as duplicates, not as corruption.
        assert_eq!(
            (st.payload_corrupt, st.duplicate_packets, dropped),
            (99, 413, 218)
        );
        let wire = p.fabric.link_stats(p.node_a, p.node_b).unwrap();
        assert!(wire.corrupted > 0, "the link must actually have corrupted");
    }

    #[test]
    fn arrival_crc_audit_detects_post_dma_corruption() {
        // Defense in depth behind the NIC's pre-DMA check: once a packet
        // has landed clean, verify_packet_range re-validates what memory
        // holds *now* against the checksum it arrived with. A bit flipped
        // after the DMA (buggy peer overwrite, stray local write) is
        // exactly what the EC shard audit and the delivery digest use
        // this primitive to catch.
        let mut p = sdr_pair(LinkConfig::intra_dc(8e9), small_cfg(), 8 << 20);
        let data = pattern(1 << 20, 13);
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);

        let rh = p
            .qp_b
            .recv_post(&mut p.eng, dst, data.len() as u64)
            .unwrap();
        p.eng.run();
        p.qp_a
            .send_post(&mut p.eng, src, data.len() as u64, None)
            .unwrap();
        p.eng.run();
        assert!(p.qp_b.recv_is_complete(&rh).unwrap());

        let mtu = p.qp_b.config().mtu_bytes as usize;
        let victim = 37; // arbitrary packet well inside the message
        let landed = p.ctx_b.read_buffer(dst, data.len());
        assert!(p
            .qp_b
            .verify_packet_range(&rh, victim, &landed[victim * mtu..(victim + 1) * mtu])
            .unwrap());

        // Poke one byte of the landed packet, as post-DMA corruption would.
        let mut poked = landed[victim * mtu..(victim + 1) * mtu].to_vec();
        poked[5] ^= 0x40;
        p.ctx_b
            .write_buffer(dst + (victim * mtu) as u64 + 5, &poked[5..6]);
        assert!(
            !p.qp_b.verify_packet_range(&rh, victim, &poked).unwrap(),
            "audit must flag memory that no longer matches the arrival CRC"
        );
        // Neighbours stay clean: detection is packet-granular.
        let after = p.ctx_b.read_buffer(dst, data.len());
        assert!(p
            .qp_b
            .verify_packet_range(&rh, victim - 1, &after[(victim - 1) * mtu..victim * mtu])
            .unwrap());
        assert!(p
            .qp_b
            .verify_packet_range(
                &rh,
                victim + 1,
                &after[(victim + 1) * mtu..(victim + 2) * mtu]
            )
            .unwrap());
    }

    #[test]
    fn corrupted_cts_is_dropped_and_resend_heals_it() {
        // Control-plane integrity: a CTS whose CRC32C trailer fails is
        // dropped like a lost datagram (acting on a flipped seq/len would
        // poison order-based matching); resend_cts over a clean wire
        // delivers the credit.
        let link = LinkConfig::intra_dc(8e9).with_corruption(0.05).with_seed(3);
        let mut p = sdr_pair(link, small_cfg(), 8 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        let rh = p.qp_b.recv_post(&mut p.eng, dst, 100_000).unwrap();
        p.eng.run();
        // 160 bits at 5e-2/bit: the trailer check must have fired.
        assert_eq!(p.qp_a.stats().cts_corrupt, 1, "CTS dropped as corrupt");
        assert!(!p.qp_a.has_cts(0), "flipped credit must not be accepted");

        p.fabric.set_corruption_duplex(p.node_a, p.node_b, 0.0, 1);
        p.qp_b.resend_cts(&mut p.eng, &rh).unwrap();
        p.eng.run();
        assert!(p.qp_a.has_cts(0), "resend over a clean wire heals it");
        assert_eq!(p.qp_a.stats().cts_received, 1);
    }

    #[test]
    fn early_completion_discards_late_packets_via_null_key() {
        // §3.3.1: receiver completes while packets are in flight; the NULL
        // key swallows them and stats record the discards.
        let mut link = LinkConfig::intra_dc(8e9);
        link.one_way_delay = SimTime::from_millis(5);
        let mut p = sdr_pair(link, small_cfg(), 8 << 20);
        let data = pattern(500_000, 6);
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);

        let rh = p
            .qp_b
            .recv_post(&mut p.eng, dst, data.len() as u64)
            .unwrap();
        p.eng.run_until(SimTime::from_millis(11)); // CTS there
        p.qp_a
            .send_post(&mut p.eng, src, data.len() as u64, None)
            .unwrap();
        // Packets (123 × ~4.2 µs serialization) arrive from ~16.0 ms to
        // ~16.5 ms; stop mid-window so some are still in flight.
        p.eng.run_until(SimTime::from_micros(16_200));
        let received_before = p.qp_b.stats().packets_received;
        assert!(received_before > 0, "some packets should have landed");
        p.qp_b.recv_complete(&mut p.eng, &rh).unwrap();
        p.eng.run();

        let st = p.qp_b.stats();
        assert!(
            st.late_null_discarded > 0,
            "in-flight packets must hit the NULL key: {st:?}"
        );
        assert_eq!(
            st.packets_received, received_before,
            "no landing after complete"
        );
        // The handle is now stale.
        assert_eq!(p.qp_b.recv_bitmap(&rh).unwrap_err(), SdrError::BadHandle);
    }

    #[test]
    fn chunk_hook_fires_once_per_chunk_and_dies_with_the_receive() {
        // §3.3: chunk completion is published to the host. The hook hears
        // each chunk once (from outside the QP borrow: it calls back in),
        // nothing after `recv_complete`, and nothing of the slot's next
        // receive.
        let cfg = SdrConfig {
            msg_slots: 1,
            ..small_cfg()
        };
        let mut link = LinkConfig::intra_dc(8e9);
        link.one_way_delay = SimTime::from_millis(5);
        let mut p = sdr_pair(link, cfg, 8 << 20);
        let data = pattern(500_000, 6);
        let len = data.len() as u64;
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);

        let heard = Rc::new(RefCell::new(Vec::new()));
        let rh = p.qp_b.recv_post(&mut p.eng, dst, len).unwrap();
        let (h, qp) = (heard.clone(), p.qp_b.clone());
        p.qp_b
            .set_chunk_hook(&rh, move |_eng, chunk| {
                // The bit is published before the host hears of it.
                assert!(qp.recv_bitmap(&rh).unwrap().chunks().get(chunk));
                h.borrow_mut().push(chunk);
            })
            .unwrap();
        p.qp_a.send_post(&mut p.eng, src, len, None).unwrap();
        // Packets arrive from ~10.0 ms on, ~4.2 µs apart: stop mid-message.
        p.eng.run_until(SimTime::from_micros(10_250));
        let before = heard.borrow().clone();
        let chunks = p.qp_b.recv_bitmap(&rh).unwrap().total_chunks();
        assert!(!before.is_empty() && before.len() < chunks, "{before:?}");
        assert_eq!(before, (0..before.len()).collect::<Vec<_>>());
        assert_eq!(p.qp_b.stats().chunks_completed, before.len() as u64);

        // Completed early: the rest of the message is late.
        p.qp_b.recv_complete(&mut p.eng, &rh).unwrap();
        assert_eq!(
            p.qp_b.set_chunk_hook(&rh, |_, _| {}).unwrap_err(),
            SdrError::BadHandle
        );
        // The slot's next receive completes every chunk; the old hook hears
        // none of it.
        let rh2 = p.qp_b.recv_post(&mut p.eng, dst, len).unwrap();
        assert_eq!(rh2.slot(), rh.slot());
        p.qp_a.send_post(&mut p.eng, src, len, None).unwrap();
        p.eng.run();
        assert!(p.qp_b.recv_is_complete(&rh2).unwrap());
        assert_eq!(*heard.borrow(), before, "nothing after recv_complete");
    }

    #[test]
    fn slot_reuse_rotates_generations_and_filters_stale_completions() {
        // Drive one slot through multiple generations, then inject a forged
        // stale-generation packet and check the stage-2 filter drops it.
        let cfg = SdrConfig {
            msg_slots: 1,
            generations: 2,
            ..small_cfg()
        };
        let mut p = sdr_pair(LinkConfig::intra_dc(8e9), cfg, 8 << 20);
        let data = pattern(100_000, 7);
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);

        // Three sequential messages through the single slot: generations
        // 0, 1, 0.
        for round in 0..3 {
            let rh = p
                .qp_b
                .recv_post(&mut p.eng, dst, data.len() as u64)
                .unwrap();
            p.qp_a
                .send_post(&mut p.eng, src, data.len() as u64, None)
                .unwrap();
            p.eng.run();
            assert!(
                p.qp_b.recv_is_complete(&rh).unwrap(),
                "round {round} incomplete"
            );
            p.qp_b.recv_complete(&mut p.eng, &rh).unwrap();
        }

        // Slot busy error: posting twice without completing.
        let rh = p.qp_b.recv_post(&mut p.eng, dst, 4096).unwrap();
        assert_eq!(
            p.qp_b.recv_post(&mut p.eng, dst, 4096).unwrap_err(),
            SdrError::SlotBusy
        );

        // Forge a packet delivered through the *wrong-generation* UC QP but
        // targeting the current root table (worst-case wraparound alias):
        // stage 2 must filter its completion and leave the bitmap clean.
        let info_b = p.qp_b.info();
        let cur_seq = rh.seq();
        let cur_gen = cur_seq % 2; // msg_slots = 1
        let stale_gen = (cur_gen + 1) % 2;
        let stale_qp = info_b.uc_qps[(stale_gen as usize) * 2]; // channel 0
        let root = info_b.root_mkeys[cur_gen as usize];
        let imm = p.qp_b.config().imm.encode(0, 0, 0);
        let pkt = sdr_sim::Packet {
            src: p.qp_a.info().uc_qps[(stale_gen as usize) * 2],
            dst: stale_qp,
            psn: 0,
            kind: sdr_sim::PacketKind::Write {
                seg: sdr_sim::WriteSeg::Only,
                mkey: root,
                offset: 0,
                imm: Some(imm),
                crc: None,
            },
            payload: bytes::Bytes::from_static(b"stale").into(),
        };
        let before = p.qp_b.stats().generation_filtered;
        p.fabric.send_raw(&mut p.eng, pkt).unwrap();
        p.eng.run();
        let st = p.qp_b.stats();
        assert_eq!(st.generation_filtered, before + 1, "stage-2 filter");
        let bm = p.qp_b.recv_bitmap(&rh).unwrap();
        assert_eq!(bm.packets().count_set(), 0, "bitmap untouched by stale pkt");
    }

    #[test]
    fn sends_larger_than_posted_buffer_are_rejected() {
        let mut p = lossless_pair();
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        let rh = p.qp_b.recv_post(&mut p.eng, dst, 4096).unwrap();
        p.eng.run(); // CTS with len 4096 arrives
        let err = p
            .qp_a
            .send_stream_start(&mut p.eng, src, 8192, None)
            .unwrap_err();
        assert_eq!(err, SdrError::TooLarge);
        // So does a one-shot, without a trace: no live send, no sequence
        // taken, so a fitting one still lands in this receive.
        let err = p.qp_a.send_post(&mut p.eng, src, 8192, None).unwrap_err();
        assert_eq!(err, SdrError::TooLarge);
        assert_eq!((p.qp_a.live_sends(), p.qp_a.next_send_seq()), (0, 0));
        let sh = p.qp_a.send_post(&mut p.eng, src, 4096, None).unwrap();
        p.eng.run();
        assert!(p.qp_a.send_poll(&sh).unwrap() && p.qp_b.recv_is_complete(&rh).unwrap());
        // Over-max sizes rejected outright.
        assert_eq!(
            p.qp_a
                .send_post(&mut p.eng, src, 2 << 20, None)
                .unwrap_err(),
            SdrError::TooLarge
        );
        assert_eq!(
            p.qp_b.recv_post(&mut p.eng, dst, 2 << 20).unwrap_err(),
            SdrError::TooLarge
        );
    }

    #[test]
    fn stream_requires_cts() {
        let mut p = lossless_pair();
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let err = p
            .qp_a
            .send_stream_start(&mut p.eng, src, 4096, None)
            .unwrap_err();
        assert_eq!(err, SdrError::NoCts);
    }

    #[test]
    fn cts_callback_fires_with_seq_and_len() {
        let mut p = lossless_pair();
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        p.qp_a.set_cts_callback(move |_eng, seq, len| {
            seen2.borrow_mut().push((seq, len));
        });
        p.qp_b.recv_post(&mut p.eng, dst, 10_000).unwrap();
        p.qp_b.recv_post(&mut p.eng, dst, 20_000).unwrap();
        p.eng.run();
        assert_eq!(*seen.borrow(), vec![(0, 10_000), (1, 20_000)]);
    }

    #[test]
    fn multi_channel_striping_delivers_everything() {
        let mut p = lossless_pair();
        let data = pattern(256 * 4096, 8);
        let src = p.ctx_a.alloc_buffer(2 << 20);
        let dst = p.ctx_b.alloc_buffer(2 << 20);
        p.ctx_a.write_buffer(src, &data);
        let rh = p
            .qp_b
            .recv_post(&mut p.eng, dst, data.len() as u64)
            .unwrap();
        p.qp_a
            .send_post(&mut p.eng, src, data.len() as u64, None)
            .unwrap();
        p.eng.run();
        assert!(p.qp_b.recv_is_complete(&rh).unwrap());
        assert_eq!(p.qp_b.stats().packets_received, 256);
        assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
    }

    #[test]
    fn unaligned_tail_packet_is_delivered() {
        let mut p = lossless_pair();
        let data = pattern(4096 * 3 + 123, 9);
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);
        let rh = p
            .qp_b
            .recv_post(&mut p.eng, dst, data.len() as u64)
            .unwrap();
        p.qp_a
            .send_post(&mut p.eng, src, data.len() as u64, None)
            .unwrap();
        p.eng.run();
        assert!(p.qp_b.recv_is_complete(&rh).unwrap());
        assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
        assert_eq!(p.qp_b.stats().packets_received, 4);
    }

    #[test]
    fn multipath_ecmp_delivery_is_correct() {
        // §3.4.1: spreading traffic across channel QPs lets deployments use
        // ECMP multi-pathing. Parallel paths reorder packets (modelled as
        // displacement: one packet in four arrives up to eight packets
        // late); SDR's per-packet writes and offset-addressed placement
        // must not care.
        let link = LinkConfig::intra_dc(8e9)
            .with_reordering(0.25, 8)
            .with_seed(3);
        let mut p = sdr_pair(link, small_cfg(), 8 << 20);
        let data = pattern(768 * 1024, 21);
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);
        let rh = p
            .qp_b
            .recv_post(&mut p.eng, dst, data.len() as u64)
            .unwrap();
        let sh = p
            .qp_a
            .send_post(&mut p.eng, src, data.len() as u64, None)
            .unwrap();
        p.eng.run();
        assert!(p.qp_a.send_poll(&sh).unwrap());
        assert!(p.qp_b.recv_is_complete(&rh).unwrap());
        assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
        assert_eq!(p.qp_b.stats().bad_offset, 0);
    }

    #[test]
    fn reordering_does_not_poison_sdr_messages() {
        // The §3.2.1 design point: per-packet Writes survive reordering that
        // would kill a multi-packet UC message.
        let link = LinkConfig::intra_dc(8e9)
            .with_reorder_jitter(SimTime::from_micros(200))
            .with_seed(5);
        let mut p = sdr_pair(link, small_cfg(), 8 << 20);
        let data = pattern(512 * 1024, 10);
        let src = p.ctx_a.alloc_buffer(1 << 20);
        let dst = p.ctx_b.alloc_buffer(1 << 20);
        p.ctx_a.write_buffer(src, &data);
        let rh = p
            .qp_b
            .recv_post(&mut p.eng, dst, data.len() as u64)
            .unwrap();
        p.qp_a
            .send_post(&mut p.eng, src, data.len() as u64, None)
            .unwrap();
        p.eng.run();
        assert!(
            p.qp_b.recv_is_complete(&rh).unwrap(),
            "reordering alone must not lose SDR packets"
        );
        assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
        p.fabric.node(p.node_b, |n| {
            assert_eq!(n.stats().poisoned_msgs, 0);
        });
    }
}
