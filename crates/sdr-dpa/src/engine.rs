//! The DPA engine: worker threads polling completion rings.
//!
//! Reproduces the receive-side offloading of §3.4: `N` worker threads, each
//! bound to one completion ring (= one group of channel QPs), executing the
//! §3.4.2 datapath — generation validation, per-packet bitmap update, chunk
//! publication. The BlueField-3 DPA has 256 energy-efficient hardware
//! threads; this host-side stand-in scales with physical cores instead, so
//! thread counts beyond the machine's cores measure oversubscription (the
//! fig14 / fig16 binaries say so next to the rows it affects).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use sdr_core::imm::ImmLayout;
use sdr_trace::{Counter, Histogram, Registry};

use crate::ring::{CqeRing, DpaCqe};
use crate::table::{DpaMsgTable, ProcessStats};

/// CQEs drained per ring poll (§3.4.2's batched bitmap publishes): each
/// drained batch goes through
/// [`process_batch`](crate::DpaMsgTable::process_batch), which coalesces
/// bitmap-word updates and chunk publishes per message.
const BATCH_BUDGET: usize = 256;

/// Configuration of a DPA engine instance.
#[derive(Clone, Copy, Debug)]
pub struct DpaConfig {
    /// Number of receive worker threads (DPA threads in the paper).
    pub workers: usize,
    /// Message-ID slots in the receive table.
    pub msg_slots: usize,
    /// Completion-ring capacity per worker.
    pub ring_capacity: usize,
    /// Immediate layout.
    pub layout: ImmLayout,
}

impl Default for DpaConfig {
    fn default() -> Self {
        DpaConfig {
            workers: 4,
            msg_slots: 64,
            ring_capacity: 4096,
            layout: ImmLayout::default(),
        }
    }
}

/// A running DPA engine: shared message table + worker threads.
pub struct DpaEngine {
    table: Arc<DpaMsgTable>,
    rings: Vec<Arc<CqeRing>>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<ProcessStats>>,
    rr: std::cell::Cell<usize>,
    metrics: Registry,
}

impl DpaEngine {
    /// Spawns the worker threads and returns the engine handle, with a
    /// private metrics registry.
    pub fn start(cfg: DpaConfig) -> Self {
        Self::start_with_metrics(cfg, Registry::new())
    }

    /// [`start`](Self::start) recording into a caller-supplied registry —
    /// `dpa.polls` (non-empty ring drains), `dpa.completions` (CQEs
    /// processed; completions/poll is their ratio) and `dpa.batch` (CQEs
    /// per drained batch, the §3.4.2 coalescing opportunity). The handles
    /// are plain atomics, shared safely across the worker threads.
    pub fn start_with_metrics(cfg: DpaConfig, metrics: Registry) -> Self {
        assert!(cfg.workers >= 1);
        let table = DpaMsgTable::new(cfg.msg_slots, cfg.layout);
        let rings: Vec<Arc<CqeRing>> = (0..cfg.workers)
            .map(|_| CqeRing::new(cfg.ring_capacity))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let polls = metrics.counter("dpa.polls");
        let completions = metrics.counter("dpa.completions");
        let batch_hist = metrics.histogram("dpa.batch");
        let workers = rings
            .iter()
            .map(|ring| {
                let ring = ring.clone();
                let table = table.clone();
                let stop = stop.clone();
                let trace = WorkerTrace {
                    polls: polls.clone(),
                    completions: completions.clone(),
                    batch: batch_hist.clone(),
                };
                std::thread::spawn(move || worker_loop(&table, &ring, &stop, &trace))
            })
            .collect();
        DpaEngine {
            table,
            rings,
            stop,
            workers,
            rr: std::cell::Cell::new(0),
            metrics,
        }
    }

    /// The shared message table (host-frontend view).
    pub fn table(&self) -> &Arc<DpaMsgTable> {
        &self.table
    }

    /// The engine's metrics registry (`dpa.*` family).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Dispatches a packet completion round-robin across worker rings —
    /// the multi-channel striping of §3.4.1.
    #[inline]
    pub fn dispatch(&self, cqe: DpaCqe) {
        let i = self.rr.get();
        self.rr.set((i + 1) % self.rings.len());
        self.rings[i].push_blocking(cqe);
    }

    /// Completions still queued across all rings.
    pub fn backlog(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }

    /// Stops the workers and returns their merged statistics.
    pub fn shutdown(self) -> ProcessStats {
        self.stop.store(true, Ordering::Release);
        let mut total = ProcessStats::default();
        for w in self.workers {
            let st = w.join().expect("worker panicked");
            total = total.merge(&st);
        }
        total
    }
}

/// Per-worker metric handles (cloned registry handles; all atomic).
struct WorkerTrace {
    polls: Counter,
    completions: Counter,
    batch: Histogram,
}

fn worker_loop(
    table: &DpaMsgTable,
    ring: &CqeRing,
    stop: &AtomicBool,
    trace: &WorkerTrace,
) -> ProcessStats {
    let mut stats = ProcessStats::default();
    let mut batch: Vec<crate::ring::DpaCqe> = Vec::with_capacity(BATCH_BUDGET);
    let mut idle: u32 = 0;
    loop {
        batch.clear();
        let n = ring.pop_batch(&mut batch, BATCH_BUDGET);
        if n > 0 {
            idle = 0;
            trace.polls.inc();
            trace.completions.add(n as u64);
            trace.batch.record(n as u64);
            // One batched pass: bitmap-word updates and chunk publishes
            // coalesce per message instead of one RMW round per packet.
            table.process_batch(&batch, &mut stats);
        } else {
            if stop.load(Ordering::Acquire) && ring.is_empty() {
                return stats;
            }
            idle += 1;
            if idle > 128 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize) -> DpaConfig {
        DpaConfig {
            workers,
            msg_slots: 8,
            ring_capacity: 1024,
            layout: ImmLayout::default(),
        }
    }

    #[test]
    fn single_worker_processes_message() {
        let eng = DpaEngine::start(cfg(1));
        let l = eng.table().layout();
        eng.table().post(0, 0, 64, 16);
        for pkt in 0..64 {
            eng.dispatch(DpaCqe {
                imm: l.encode(0, pkt, 0),
                generation: 0,
                null_write: false,
            });
        }
        // Wait for completion.
        while !eng.table().is_complete(0) {
            std::thread::yield_now();
        }
        let st = eng.shutdown();
        assert_eq!(st.packets, 64);
        assert_eq!(st.chunks, 4);
    }

    #[test]
    fn four_workers_share_one_message_without_loss() {
        // The §3.4.2 scenario: packets of one message striped across
        // channels; racing workers must complete each chunk exactly once.
        let eng = DpaEngine::start(cfg(4));
        let l = eng.table().layout();
        eng.table().post(3, 0, 1024, 16);
        for pkt in 0..1024 {
            eng.dispatch(DpaCqe {
                imm: l.encode(3, pkt, 0),
                generation: 0,
                null_write: false,
            });
        }
        while !eng.table().is_complete(3) {
            std::thread::yield_now();
        }
        let st = eng.shutdown();
        assert_eq!(st.packets, 1024);
        assert_eq!(st.chunks, 64);
        assert_eq!(st.duplicates, 0);
    }

    #[test]
    fn stale_generation_packets_are_filtered_concurrently() {
        let eng = DpaEngine::start(cfg(2));
        let l = eng.table().layout();
        eng.table().post(0, 5, 16, 4);
        for pkt in 0..16 {
            eng.dispatch(DpaCqe {
                imm: l.encode(0, pkt, 0),
                generation: 5,
                null_write: false,
            });
            eng.dispatch(DpaCqe {
                imm: l.encode(0, pkt, 0),
                generation: 4, // stale
                null_write: false,
            });
        }
        while !eng.table().is_complete(0) {
            std::thread::yield_now();
        }
        let st = eng.shutdown();
        assert_eq!(st.packets, 16);
        assert_eq!(st.generation_filtered, 16);
    }

    #[test]
    fn missing_packets_visible_to_host_for_retransmission() {
        let eng = DpaEngine::start(cfg(2));
        let l = eng.table().layout();
        eng.table().post(1, 0, 32, 8);
        // Send all but packets 5 and 20.
        for pkt in (0..32).filter(|&p| p != 5 && p != 20) {
            eng.dispatch(DpaCqe {
                imm: l.encode(1, pkt, 0),
                generation: 0,
                null_write: false,
            });
        }
        while eng.backlog() > 0 {
            std::thread::yield_now();
        }
        // Give workers a beat to drain in-flight pops.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let missing = eng.table().missing_packets(1);
        assert_eq!(missing, vec![5, 20]);
        // Retransmit them (what the SR layer does) and complete.
        for pkt in [5u32, 20] {
            eng.dispatch(DpaCqe {
                imm: l.encode(1, pkt, 0),
                generation: 0,
                null_write: false,
            });
        }
        while !eng.table().is_complete(1) {
            std::thread::yield_now();
        }
        eng.shutdown();
    }
}
