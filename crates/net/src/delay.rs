//! Delay line: a background thread that holds messages for their sampled
//! latency and then forwards them to the destination mailbox, so senders
//! never sleep.

use crate::NetworkError;
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

struct Queued<T> {
    due: Instant,
    seq: u64,
    item: T,
}

// Ordering by (due, seq) keeps FIFO among equal deadlines.
impl<T> PartialEq for Queued<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Queued<T> {}
impl<T> PartialOrd for Queued<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Queued<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

struct Shared<T> {
    heap: Mutex<HeapState<T>>,
    cond: Condvar,
}

struct HeapState<T> {
    queue: BinaryHeap<Reverse<Queued<T>>>,
    next_seq: u64,
    shutdown: bool,
}

/// Background delivery of delayed items (the network queues whole
/// transfers, so a batch crosses the simulated wire as one delayed hop).
pub(crate) struct DelayLine<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    worker: Option<JoinHandle<()>>,
}

impl<T: Send + 'static> DelayLine<T> {
    /// Spawn the delay-line worker. `deliver` performs the final hop into
    /// the destination mailbox (the network passes its delivery path, so
    /// reliable-transport dedupe and acks happen at actual delivery time,
    /// not when the message entered the line).
    ///
    /// # Errors
    ///
    /// [`NetworkError::SpawnFailed`] if the OS refuses the worker thread.
    pub(crate) fn new(deliver: impl Fn(T) + Send + 'static) -> Result<Self, NetworkError> {
        let shared = Arc::new(Shared {
            heap: Mutex::new(HeapState {
                queue: BinaryHeap::new(),
                next_seq: 0,
                shutdown: false,
            }),
            cond: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("doct-net-delay".into())
            .spawn(move || Self::run(worker_shared, deliver))
            .map_err(|_| NetworkError::SpawnFailed("doct-net-delay"))?;
        Ok(DelayLine {
            shared,
            worker: Some(worker),
        })
    }

    /// Enqueue `item` for delivery at `due`.
    pub(crate) fn schedule(&self, item: T, due: Instant) {
        let mut state = self.shared.heap.lock();
        if state.shutdown {
            return;
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queue.push(Reverse(Queued { due, seq, item }));
        self.shared.cond.notify_one();
    }

    fn run(shared: Arc<Shared<T>>, deliver: impl Fn(T)) {
        let mut state = shared.heap.lock();
        loop {
            if state.shutdown {
                return;
            }
            let now = crate::clock::now();
            match state.queue.peek() {
                None => {
                    shared.cond.wait(&mut state);
                }
                Some(Reverse(q)) if q.due > now => {
                    let due = q.due;
                    shared.cond.wait_until(&mut state, due);
                }
                Some(_) => {
                    let Reverse(q) = state.queue.pop().expect("peeked element exists");
                    // Drop the lock during the send; the mailbox may apply
                    // backpressure if bounded in the future.
                    drop(state);
                    deliver(q.item);
                    state = shared.heap.lock();
                }
            }
        }
    }
}

impl<T: Send + 'static> Drop for DelayLine<T> {
    fn drop(&mut self) {
        {
            let mut state = self.shared.heap.lock();
            state.shutdown = true;
            self.shared.cond.notify_all();
        }
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Envelope, MessageClass, NodeId};
    use crossbeam::channel::{unbounded, Sender};
    use std::time::Duration;

    fn env(payload: u32) -> Envelope<u32> {
        Envelope {
            src: NodeId(0),
            dst: NodeId(0),
            class: MessageClass::Data,
            seq: 0,
            batch_left: 0,
            payload,
        }
    }

    fn line_into(tx: Sender<Envelope<u32>>) -> DelayLine<Envelope<u32>> {
        DelayLine::new(move |env| {
            let _ = tx.send(env);
        })
        .expect("spawn delay line in test")
    }

    #[test]
    fn delivers_after_deadline() {
        let (tx, rx) = unbounded();
        let line = line_into(tx);
        let start = crate::clock::now();
        line.schedule(env(1), start + Duration::from_millis(20));
        let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.payload, 1);
        assert!(start.elapsed() >= Duration::from_millis(19));
    }

    #[test]
    fn delivers_in_deadline_order_not_submit_order() {
        let (tx, rx) = unbounded();
        let line = line_into(tx);
        let now = crate::clock::now();
        line.schedule(env(2), now + Duration::from_millis(40));
        line.schedule(env(1), now + Duration::from_millis(10));
        let a = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!((a.payload, b.payload), (1, 2));
    }

    #[test]
    fn equal_deadlines_keep_fifo() {
        let (tx, rx) = unbounded();
        let line = line_into(tx);
        let due = crate::clock::now() + Duration::from_millis(5);
        for i in 0..10 {
            line.schedule(env(i), due);
        }
        for i in 0..10 {
            let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(got.payload, i);
        }
    }

    #[test]
    fn drop_shuts_worker_down() {
        let (tx, _rx) = unbounded::<Envelope<u32>>();
        let line = line_into(tx);
        drop(line); // must not hang
    }
}
