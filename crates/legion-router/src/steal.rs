//! Work stealing for spilled requests in the sharded serving loop.
//!
//! With the event loop sharded one-shard-per-clique, a request that the
//! [`Dispatcher`](crate::Dispatcher) would spill (its best clique's
//! queues are past [`SPILL_THRESHOLD`](crate::SPILL_THRESHOLD)) can no longer be handed straight
//! to the globally least-loaded GPU — that GPU belongs to another
//! shard's thread. Instead the coordinator parks spills in a
//! [`SpillPool`] and drains it at the next quantum boundary, assigning
//! each parked request to the least-loaded GPU under the *projected*
//! queue depths — the underloaded shard "steals" the overloaded
//! shard's excess. Draining is FIFO over park order and breaks
//! queue-depth ties toward the lowest GPU id, so steal order is a pure
//! function of (park order, projected depths) and replays byte-for-byte
//! under a fixed seed.

use std::collections::VecDeque;

use legion_hw::GpuId;

use crate::class::QueuedRequest;

/// FIFO pool of spilled requests awaiting a quantum-boundary steal.
#[derive(Debug, Clone, Default)]
pub struct SpillPool<R: QueuedRequest> {
    parked: VecDeque<R>,
}

impl<R: QueuedRequest> SpillPool<R> {
    /// An empty pool.
    pub fn new() -> Self {
        SpillPool {
            parked: VecDeque::new(),
        }
    }

    /// Parks one spilled request at the tail of the pool.
    pub fn park(&mut self, r: R) {
        self.parked.push_back(r);
    }

    /// Parked requests currently awaiting a steal.
    pub fn len(&self) -> usize {
        self.parked.len()
    }

    /// Whether no requests are parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Drains the pool in park order, assigning each request to the
    /// least-loaded GPU in `queue_lens` (ties go to the lowest GPU id)
    /// and incrementing that GPU's projected depth so consecutive
    /// steals spread out instead of piling onto one victim. `assign` is
    /// called once per request with its chosen GPU.
    pub fn drain_to(&mut self, queue_lens: &mut [usize], mut assign: impl FnMut(R, GpuId)) {
        assert!(!queue_lens.is_empty(), "need at least one GPU to steal to");
        while let Some(r) = self.parked.pop_front() {
            let gpu = queue_lens
                .iter()
                .enumerate()
                .min_by_key(|&(g, &len)| (len, g))
                .map(|(g, _)| g)
                .expect("non-empty queue_lens");
            queue_lens[gpu] += 1;
            assign(r, gpu);
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::class::PriorityClass;

    #[derive(Debug, Clone, Copy)]
    struct TestReq {
        seq: u64,
        arrival: f64,
    }

    impl QueuedRequest for TestReq {
        fn seq(&self) -> u64 {
            self.seq
        }
        fn arrival(&self) -> f64 {
            self.arrival
        }
        fn class(&self) -> PriorityClass {
            PriorityClass::Standard
        }
    }

    /// Steal order is pinned under a fixed seed: FIFO over park order,
    /// each request to the least-loaded GPU at that moment, ties to the
    /// lowest id, projections updated per steal.
    #[test]
    fn steal_order_is_deterministic_under_a_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut pool: SpillPool<TestReq> = SpillPool::new();
        for seq in 0..6u64 {
            pool.park(TestReq {
                seq,
                arrival: rng.gen::<f64>(),
            });
        }
        assert_eq!(pool.len(), 6);
        let mut lens = vec![3usize, 1, 2, 3];
        let mut got: Vec<(u64, GpuId)> = Vec::new();
        pool.drain_to(&mut lens, |r, gpu| got.push((r.seq, gpu)));
        assert!(pool.is_empty());
        // seq 0 -> gpu1 (depth 1); seq 1 -> gpu1/gpu2 tie at 2, lowest
        // id wins -> gpu1; seq 2 -> gpu2 (2); seq 3 -> all at 3, lowest
        // id -> gpu0; seq 4 -> tie at 3 among 1..3 after gpu0 hit 4?
        // No: depths are now [4,3,3,3]; lowest id at 3 is gpu1; seq 5
        // -> gpu2.
        assert_eq!(got, vec![(0, 1), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)]);
        assert_eq!(lens, vec![4, 4, 4, 3]);

        // Byte-identical replay with the same seed.
        let mut rng = StdRng::seed_from_u64(7);
        let mut pool: SpillPool<TestReq> = SpillPool::new();
        for seq in 0..6u64 {
            pool.park(TestReq {
                seq,
                arrival: rng.gen::<f64>(),
            });
        }
        let mut lens = vec![3usize, 1, 2, 3];
        let mut replay: Vec<(u64, GpuId)> = Vec::new();
        pool.drain_to(&mut lens, |r, gpu| replay.push((r.seq, gpu)));
        assert_eq!(got, replay);
    }

    #[test]
    fn drained_requests_keep_their_original_arrivals() {
        let mut pool: SpillPool<TestReq> = SpillPool::new();
        pool.park(TestReq {
            seq: 9,
            arrival: 0.125,
        });
        let mut lens = vec![0usize; 2];
        let mut seen = Vec::new();
        pool.drain_to(&mut lens, |r, gpu| seen.push((r.seq, r.arrival, gpu)));
        assert_eq!(seen, vec![(9, 0.125, 0)]);
    }
}
