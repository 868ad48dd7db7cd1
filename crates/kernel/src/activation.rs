//! Activations: the runtime presence of a logical thread on a node.
//!
//! An activation exists on every node where the thread currently has at
//! least one invocation frame. Pending events are queued here — in a
//! bounded priority [`Mailbox`], not an unbounded FIFO — and consumed at
//! delivery points by the frame that is the thread's *tip*.

use crate::mailbox::{Admission, Mailbox, MailboxConfig};
use crate::{KernelError, ObjectId, ThreadAttributes, ThreadId, Value, WireEvent};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One invocation frame the thread holds on this node.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Object the code belongs to.
    pub object: ObjectId,
    /// Entry point being executed.
    pub entry: String,
    /// Global invocation depth of this frame.
    pub depth: u32,
}

/// Mutable activation state, behind the activation lock.
pub struct ActivationInner {
    /// The thread's travelling attribute record.
    pub attributes: ThreadAttributes,
    /// Events waiting for the next delivery point, in priority lanes.
    pub mailbox: Mailbox,
    /// Local frames, innermost last.
    pub stack: Vec<Frame>,
    /// True while a handler is executing: delivery points inside the
    /// handler do not recurse (events stay queued, like a masked signal).
    pub handling: bool,
    /// Set when a delivered event decided to terminate the thread.
    pub terminated: bool,
    /// Results of synchronous raises this thread is waiting on,
    /// keyed by event seq.
    pub sync_results: HashMap<u64, Value>,
    /// Simulated program counter: incremented by compute loops so the
    /// monitoring application (§6.2) has something to sample.
    pub pc: u64,
}

impl fmt::Debug for ActivationInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivationInner")
            .field("thread", &self.attributes.thread)
            .field("pending", &self.mailbox.len())
            .field("stack", &self.stack.len())
            .field("handling", &self.handling)
            .field("terminated", &self.terminated)
            .finish()
    }
}

/// The runtime presence of a logical thread on one node.
pub struct Activation {
    /// Thread identity.
    pub thread: ThreadId,
    inner: Mutex<ActivationInner>,
    wake: Condvar,
    /// Mailbox depth mirror, maintained by the mailbox under the
    /// activation lock but readable without it (the sweep's atomic
    /// snapshot — it must never contend with delivery).
    depth: Arc<AtomicUsize>,
}

impl fmt::Debug for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Activation")
            .field("thread", &self.thread)
            .finish_non_exhaustive()
    }
}

impl Activation {
    /// New activation carrying `attributes`, with the default mailbox
    /// bounds.
    pub fn new(attributes: ThreadAttributes) -> Self {
        Self::with_mailbox(attributes, MailboxConfig::default())
    }

    /// New activation with explicit mailbox bounds (the kernel passes its
    /// cluster-wide `KernelConfig::mailbox` here at check-in).
    pub fn with_mailbox(attributes: ThreadAttributes, config: MailboxConfig) -> Self {
        let mailbox = Mailbox::new(config);
        let depth = mailbox.depth_handle();
        Activation {
            thread: attributes.thread,
            inner: Mutex::new(ActivationInner {
                attributes,
                mailbox,
                stack: Vec::new(),
                handling: false,
                terminated: false,
                sync_results: HashMap::new(),
                pc: 0,
            }),
            wake: Condvar::new(),
            depth,
        }
    }

    /// Lock the inner state.
    pub fn lock(&self) -> MutexGuard<'_, ActivationInner> {
        self.inner.lock()
    }

    /// Offer an event for the next delivery point. When the mailbox
    /// admits it, blocked kernel operations are woken so they notice;
    /// when the lane is full the event is shed and the caller must
    /// account it as `Overloaded` (the admission is `#[must_use]`).
    pub fn push_event(&self, event: WireEvent) -> Admission {
        let mut inner = self.inner.lock();
        let admission = inner.mailbox.push(event);
        drop(inner);
        if admission.is_stored() {
            self.wake.notify_all();
        }
        admission
    }

    /// Deliver a synchronous-raise result and wake the waiter.
    pub fn push_sync_result(&self, seq: u64, verdict: Value) {
        let mut inner = self.inner.lock();
        inner.sync_results.insert(seq, verdict);
        drop(inner);
        self.wake.notify_all();
    }

    /// Take the next pending event in priority order, unless a handler is
    /// already running. Near-deadline timer jumps use `now_ns` (the
    /// telemetry clock); callers without a clock can pass 0 — priority
    /// order still holds, timers just never jump the user lane.
    pub fn take_event_at(&self, now_ns: u64) -> Option<WireEvent> {
        let mut inner = self.inner.lock();
        if inner.handling {
            return None;
        }
        inner.mailbox.pop(now_ns)
    }

    /// [`Activation::take_event_at`] without a clock.
    pub fn take_event(&self) -> Option<WireEvent> {
        self.take_event_at(0)
    }

    /// Number of queued events.
    pub fn pending_len(&self) -> usize {
        self.inner.lock().mailbox.len()
    }

    /// Mailbox depth without taking the activation lock: an atomic mirror
    /// the mailbox maintains on every push/pop. The kernel sweep samples
    /// this, so it can never observe a mailbox mid-resize and never
    /// blocks delivery.
    pub fn depth_hint(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Shared handle to the depth mirror (see [`Activation::depth_hint`]).
    pub fn depth_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.depth)
    }

    /// Mark the thread terminated (delivery decided `Terminate`).
    pub fn mark_terminated(&self) {
        self.inner.lock().terminated = true;
        self.wake.notify_all();
    }

    /// Whether the thread has been marked terminated.
    pub fn is_terminated(&self) -> bool {
        self.inner.lock().terminated
    }

    /// Block until `deadline` for either a pending event, a sync result
    /// for `seq`, or termination. Returns the sync result if it arrived.
    ///
    /// Used by `raise_and_wait`: the raiser blocks "until it is explicitly
    /// resumed by a handler" (§5.3) yet stays responsive to events aimed
    /// at *it* (e.g. TERMINATE).
    pub fn wait_sync(&self, seq: u64, deadline: Instant) -> SyncWait {
        let mut inner = self.inner.lock();
        loop {
            if let Some(v) = inner.sync_results.remove(&seq) {
                return SyncWait::Resumed(v);
            }
            if inner.terminated {
                return SyncWait::Terminated;
            }
            if !inner.mailbox.is_empty() && !inner.handling {
                return SyncWait::EventPending;
            }
            let now = Instant::now();
            if now >= deadline {
                return SyncWait::TimedOut;
            }
            self.wake
                .wait_until(&mut inner, deadline.min(now + Duration::from_millis(50)));
        }
    }

    /// Event-responsive sleep: returns early if an event arrives or the
    /// thread is terminated.
    pub fn sleep(&self, duration: Duration) -> SleepOutcome {
        let deadline = Instant::now() + duration;
        let mut inner = self.inner.lock();
        loop {
            if inner.terminated {
                return SleepOutcome::Terminated;
            }
            if !inner.mailbox.is_empty() && !inner.handling {
                return SleepOutcome::EventPending;
            }
            if Instant::now() >= deadline {
                return SleepOutcome::Elapsed;
            }
            self.wake.wait_until(&mut inner, deadline);
        }
    }

    /// Snapshot of the attributes (same logical thread: extensions shared).
    pub fn attributes_snapshot(&self) -> ThreadAttributes {
        self.inner.lock().attributes.clone()
    }

    /// Innermost local frame's object, if any.
    pub fn current_object(&self) -> Option<ObjectId> {
        self.inner.lock().stack.last().map(|f| f.object)
    }

    /// Run `f` with mutable access to the attributes.
    pub fn with_attributes<R>(&self, f: impl FnOnce(&mut ThreadAttributes) -> R) -> R {
        f(&mut self.inner.lock().attributes)
    }

    /// Check the termination flag as a `Result`, for kernel call sites.
    pub fn check_live(&self) -> Result<(), KernelError> {
        if self.is_terminated() {
            Err(KernelError::Terminated)
        } else {
            Ok(())
        }
    }
}

/// Outcome of [`Activation::wait_sync`].
#[derive(Debug, Clone, PartialEq)]
pub enum SyncWait {
    /// A handler resumed the raiser with this verdict.
    Resumed(Value),
    /// An event is pending and must be polled before waiting again.
    EventPending,
    /// The thread was terminated while waiting.
    Terminated,
    /// The deadline passed.
    TimedOut,
}

/// Outcome of [`Activation::sleep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepOutcome {
    /// Slept the full duration.
    Elapsed,
    /// Woken by a pending event.
    EventPending,
    /// The thread was terminated.
    Terminated,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventName, SystemEvent};
    use doct_net::NodeId;
    use std::sync::Arc;

    fn activation() -> Activation {
        Activation::new(ThreadAttributes::new(
            ThreadId::new(NodeId(0), 1),
            NodeId(0),
        ))
    }

    fn event(seq: u64) -> WireEvent {
        WireEvent {
            name: EventName::System(SystemEvent::Timer),
            payload: Value::Null,
            raiser: None,
            raiser_node: NodeId(0),
            seq,
            sync: false,
            t_raise_ns: 0,
            attrs: None,
            deadline_ns: None,
        }
    }

    fn named(seq: u64, name: EventName) -> WireEvent {
        WireEvent { name, ..event(seq) }
    }

    #[test]
    fn events_queue_fifo() {
        let a = activation();
        assert!(a.push_event(event(1)).is_stored());
        assert!(a.push_event(event(2)).is_stored());
        assert_eq!(a.pending_len(), 2);
        assert_eq!(a.take_event().unwrap().seq, 1);
        assert_eq!(a.take_event().unwrap().seq, 2);
        assert!(a.take_event().is_none());
    }

    #[test]
    fn control_events_preempt_queued_work() {
        let a = activation();
        assert!(a.push_event(named(1, EventName::user("W"))).is_stored());
        assert!(a.push_event(event(2)).is_stored());
        assert!(a
            .push_event(named(3, EventName::System(SystemEvent::Terminate)))
            .is_stored());
        assert_eq!(a.take_event().unwrap().seq, 3, "TERMINATE jumps the queue");
        assert_eq!(a.take_event().unwrap().seq, 1);
        assert_eq!(a.take_event().unwrap().seq, 2);
    }

    #[test]
    fn full_lane_sheds_and_reports_it() {
        let attrs = ThreadAttributes::new(ThreadId::new(NodeId(0), 9), NodeId(0));
        let a = Activation::with_mailbox(
            attrs,
            MailboxConfig {
                timer_capacity: 1,
                ..MailboxConfig::default()
            },
        );
        assert!(a.push_event(event(1)).is_stored());
        assert_eq!(a.push_event(event(2)), Admission::Shed(crate::Lane::Timer));
        assert_eq!(a.pending_len(), 1, "shed events are not queued");
    }

    #[test]
    fn depth_mirror_moves_on_stored_only_never_on_shed() {
        // The kernel sweep's mailbox-depth sample reads this mirror
        // without the activation lock; a shed that bumped it would
        // overstate the thread's load forever (nothing ever pops the
        // phantom entry). Increment-on-Stored-only is the contract.
        let attrs = ThreadAttributes::new(ThreadId::new(NodeId(0), 10), NodeId(0));
        let a = Activation::with_mailbox(
            attrs,
            MailboxConfig {
                timer_capacity: 1,
                ..MailboxConfig::default()
            },
        );
        assert!(a.push_event(event(1)).is_stored());
        assert_eq!(a.depth_hint(), 1);
        for seq in 2..10 {
            assert_eq!(
                a.push_event(event(seq)),
                Admission::Shed(crate::Lane::Timer)
            );
            assert_eq!(a.depth_hint(), 1, "a shed must never move the mirror");
        }
        let _ = a.take_event();
        assert_eq!(a.depth_hint(), 0, "mirror equals occupancy after drain");
    }

    #[test]
    fn handling_flag_masks_delivery() {
        let a = activation();
        assert!(a.push_event(event(1)).is_stored());
        a.lock().handling = true;
        assert!(a.take_event().is_none(), "masked while handling");
        a.lock().handling = false;
        assert!(a.take_event().is_some());
    }

    #[test]
    fn depth_hint_reads_without_the_activation_lock() {
        // Regression: the kernel sweep used to take the activation lock
        // to read the queue length, so it could observe the mailbox
        // mid-resize (and stall delivery under load). depth_hint must
        // answer even while someone else holds the lock.
        let a = activation();
        assert!(a.push_event(event(1)).is_stored());
        let guard = a.lock();
        assert_eq!(a.depth_hint(), 1, "no deadlock, no lock taken");
        drop(guard);
        let _ = a.take_event();
        assert_eq!(a.depth_hint(), 0);
    }

    #[test]
    fn sleep_returns_early_on_event() {
        let a = Arc::new(activation());
        let a2 = Arc::clone(&a);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            assert!(a2.push_event(event(1)).is_stored());
        });
        let t0 = Instant::now();
        let out = a.sleep(Duration::from_secs(5));
        assert_eq!(out, SleepOutcome::EventPending);
        assert!(t0.elapsed() < Duration::from_secs(2));
        h.join().unwrap();
    }

    #[test]
    fn sleep_elapses_quietly() {
        let a = activation();
        let out = a.sleep(Duration::from_millis(10));
        assert_eq!(out, SleepOutcome::Elapsed);
    }

    #[test]
    fn sync_wait_resumes_on_result() {
        let a = Arc::new(activation());
        let a2 = Arc::clone(&a);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            a2.push_sync_result(7, Value::Int(99));
        });
        let out = a.wait_sync(7, Instant::now() + Duration::from_secs(5));
        assert_eq!(out, SyncWait::Resumed(Value::Int(99)));
        h.join().unwrap();
    }

    #[test]
    fn sync_wait_interrupts_for_pending_events() {
        let a = activation();
        assert!(a.push_event(event(1)).is_stored());
        let out = a.wait_sync(7, Instant::now() + Duration::from_secs(5));
        assert_eq!(out, SyncWait::EventPending);
    }

    #[test]
    fn sync_wait_times_out() {
        let a = activation();
        let out = a.wait_sync(7, Instant::now() + Duration::from_millis(10));
        assert_eq!(out, SyncWait::TimedOut);
    }

    #[test]
    fn termination_wakes_everything() {
        let a = Arc::new(activation());
        let a2 = Arc::clone(&a);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            a2.mark_terminated();
        });
        assert_eq!(a.sleep(Duration::from_secs(5)), SleepOutcome::Terminated);
        assert!(a.check_live().is_err());
        h.join().unwrap();
    }
}
