//! Weighted round-robin admission queue over per-query chunk queues.
//!
//! Cross-query fairness is the serving layer's scheduling contract: a
//! clique-6 enumeration must not starve a triangle count. The unit of
//! granting is one *chunk* (a bounded run of consecutive task indices,
//! [`crate::ServiceConfig::chunk_tasks`] tasks), so a worker books at
//! most one chunk of a query before the rotation may hand the next
//! grant to a different query — a newly admitted query waits at most
//! one chunk per worker, which is the batch-boundary fairness fix the
//! `FRONTIER_TASK_BATCH` worker loop of the batch cluster never needed
//! (it is single-query) but a multi-tenant pool does.
//!
//! *Within* a query, chunks have no lane affinity: each query holds one
//! queue of un-granted chunks, and whichever live lane asks next is
//! handed the lowest index — which also keeps the in-order commit
//! pipeline's pending buffer as short as it can be. Which lane runs
//! which chunk is intentionally free (it depends on worker timing);
//! result determinism comes from the commit pipeline, not from grants.

use crate::query::QueryId;
use parking_lot::Mutex;
use std::collections::VecDeque;

struct Entry<T> {
    id: QueryId,
    payload: T,
    weight: u32,
    /// Chunks left in this round-robin turn; refilled from `weight`.
    credit: u32,
    /// Un-granted chunks, next to grant first. Never empty: an entry
    /// leaves the rotation with its last grant.
    chunks: VecDeque<usize>,
}

impl<T> Entry<T> {
    fn new(id: QueryId, payload: T, weight: u32, chunks: VecDeque<usize>) -> Self {
        let weight = weight.max(1);
        Entry {
            id,
            payload,
            weight,
            credit: weight,
            chunks,
        }
    }
}

struct State<T> {
    entries: Vec<Entry<T>>,
    /// Position of the entry whose round-robin turn it is. May sit one
    /// past the last entry, meaning "the next admitted query has the
    /// turn" — that is what guarantees a late admission is served within
    /// one chunk of the running query instead of waiting a full cycle.
    cursor: usize,
    /// Lanes whose worker crashed; they are granted nothing.
    dead: Vec<bool>,
}

/// The fair cross-query queue. `T` is the per-query payload handed back
/// with each grant (the service uses `Arc<QueryRun>`).
pub(crate) struct FairQueue<T: Clone> {
    state: Mutex<State<T>>,
}

impl<T: Clone> FairQueue<T> {
    pub(crate) fn new(lanes: usize) -> Self {
        FairQueue {
            state: Mutex::new(State {
                entries: Vec::new(),
                cursor: 0,
                dead: vec![false; lanes],
            }),
        }
    }

    /// Admits a query with chunks `0..chunks` (nothing to grant, nothing
    /// admitted).
    pub(crate) fn admit(&self, id: QueryId, payload: T, weight: u32, chunks: usize) {
        if chunks > 0 {
            let entry = Entry::new(id, payload, weight, (0..chunks).collect());
            self.state.lock().entries.push(entry);
        }
    }

    /// Grants `lane` the next chunk of the entry whose turn it is. The
    /// grant consumes one credit; an exhausted credit (or an emptied
    /// entry) rotates the cursor. A dead lane is granted nothing.
    pub(crate) fn next(&self, lane: usize) -> Option<(T, usize)> {
        let state = &mut *self.state.lock();
        if state.dead[lane] || state.entries.is_empty() {
            return None;
        }
        // A past-the-end cursor wraps to 0 only now that nothing was
        // admitted behind it.
        let cur = state.cursor % state.entries.len();
        let entry = &mut state.entries[cur];
        let chunk = entry.chunks.pop_front().expect("entries are never empty");
        let payload = entry.payload.clone();
        entry.credit -= 1;
        let exhausted_turn = entry.credit == 0;
        if exhausted_turn {
            entry.credit = entry.weight;
        }
        if entry.chunks.is_empty() {
            // The successor shifts into `cur` and inherits the turn.
            state.entries.remove(cur);
            state.cursor = cur;
        } else {
            state.cursor = cur + usize::from(exhausted_turn);
        }
        Some((payload, chunk))
    }

    /// Removes a query's un-granted chunks (cancellation, budget
    /// termination), returning how many were released.
    pub(crate) fn drain(&self, id: QueryId) -> usize {
        let state = &mut *self.state.lock();
        let Some(idx) = state.entries.iter().position(|e| e.id == id) else {
            return 0;
        };
        let released = state.entries.remove(idx).chunks.len();
        if idx < state.cursor {
            state.cursor -= 1;
        }
        released
    }

    /// Total un-granted chunks across every admitted query.
    pub(crate) fn depth(&self) -> usize {
        let state = self.state.lock();
        state.entries.iter().map(|e| e.chunks.len()).sum()
    }

    /// Marks `lane` dead. Nothing is pinned to a lane, so every queued
    /// chunk stays grantable to the survivors.
    pub(crate) fn fail_lane(&self, lane: usize) {
        self.state.lock().dead[lane] = true;
    }

    /// Puts back a chunk that was granted but never executed (its worker
    /// crashed holding it), as its query's next grant — it is the lowest
    /// uncommitted index, so the commit pipeline is waiting on it. If the
    /// query's entry was already retired from the rotation (its last
    /// chunk had been granted), a fresh single-chunk entry is admitted.
    pub(crate) fn requeue(&self, id: QueryId, payload: T, weight: u32, chunk: usize) {
        let state = &mut *self.state.lock();
        match state.entries.iter_mut().find(|e| e.id == id) {
            Some(entry) => entry.chunks.push_front(chunk),
            None => state
                .entries
                .push(Entry::new(id, payload, weight, VecDeque::from([chunk]))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(q: &FairQueue<QueryId>, lane: usize, n: usize) -> Vec<QueryId> {
        (0..n)
            .map(|_| q.next(lane).expect("chunk available").0)
            .collect()
    }

    #[test]
    fn round_robin_alternates_queries() {
        let q = FairQueue::new(1);
        q.admit(0, 0, 1, 4);
        q.admit(1, 1, 1, 4);
        assert_eq!(ids(&q, 0, 8), vec![0, 1, 0, 1, 0, 1, 0, 1]);
        assert!(q.next(0).is_none());
    }

    #[test]
    fn late_admission_is_served_within_one_chunk() {
        // The batch-boundary fairness regression: after one chunk of the
        // running query, a newly admitted query gets the next grant.
        let q = FairQueue::new(1);
        q.admit(0, 0, 1, 10);
        assert_eq!(q.next(0).unwrap().0, 0);
        q.admit(1, 1, 1, 1);
        assert_eq!(q.next(0).unwrap().0, 1, "B must preempt A's next grant");
        assert_eq!(q.next(0).unwrap().0, 0);
    }

    #[test]
    fn weights_scale_grants_per_round() {
        let q = FairQueue::new(1);
        q.admit(0, 0, 2, 6);
        q.admit(1, 1, 1, 3);
        assert_eq!(ids(&q, 0, 9), vec![0, 0, 1, 0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn chunks_are_granted_in_index_order_to_whichever_lane_asks() {
        let q = FairQueue::new(3);
        q.admit(0, 0, 1, 6);
        let granted: Vec<usize> = [2, 0, 0, 1, 2, 1]
            .into_iter()
            .map(|lane| q.next(lane).unwrap().1)
            .collect();
        assert_eq!(granted, vec![0, 1, 2, 3, 4, 5]);
        assert!(q.next(0).is_none());
    }

    #[test]
    fn drain_releases_remaining_chunks() {
        let q = FairQueue::new(1);
        q.admit(0, 0, 1, 5);
        q.admit(1, 1, 1, 5);
        assert_eq!(q.depth(), 10);
        q.next(0);
        assert_eq!(q.drain(0), 4);
        assert_eq!(q.depth(), 5);
        assert_eq!(q.drain(0), 0, "draining twice is a no-op");
        assert_eq!(ids(&q, 0, 5), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn failed_lane_is_granted_nothing_and_strands_nothing() {
        let q = FairQueue::new(2);
        q.admit(0, 0, 1, 4);
        assert_eq!(q.next(1).unwrap().1, 0);
        q.fail_lane(1);
        assert_eq!(q.depth(), 3, "no chunk was pinned to the dead lane");
        assert!(q.next(1).is_none(), "a dead lane grants nothing");
        let granted: Vec<usize> = (0..3).map(|_| q.next(0).unwrap().1).collect();
        assert_eq!(granted, vec![1, 2, 3]);
        assert!(q.next(0).is_none());
    }

    #[test]
    fn dead_lanes_receive_no_new_placements() {
        let q = FairQueue::new(2);
        q.fail_lane(0);
        q.admit(0, 0, 1, 3);
        assert!(q.next(0).is_none());
        assert_eq!(ids(&q, 1, 3), vec![0, 0, 0], "all chunks land on lane 1");
    }

    #[test]
    fn requeue_revives_a_granted_chunk() {
        let q = FairQueue::new(2);
        q.admit(7, 7, 1, 2);
        let (_, c0) = q.next(0).unwrap();
        let (_, c1) = q.next(1).unwrap();
        assert!(q.next(0).is_none(), "entry retired: all chunks granted");
        // Lane 1 crashes mid-chunk: its chunk comes back even though the
        // entry left the rotation.
        q.fail_lane(1);
        q.requeue(7, 7, 1, c1);
        assert_eq!(q.depth(), 1);
        assert_eq!(q.next(0).unwrap(), (7, c1));
        assert_ne!(c0, c1);

        // And with the entry still live, the chunk rejoins it rather
        // than duplicating the query.
        let q = FairQueue::new(1);
        q.admit(3, 3, 1, 3);
        let (_, first) = q.next(0).unwrap();
        q.requeue(3, 3, 1, first);
        assert_eq!(q.depth(), 3);
        assert_eq!(
            q.next(0).unwrap().1,
            first,
            "requeued chunk sits at the front"
        );
    }
}
