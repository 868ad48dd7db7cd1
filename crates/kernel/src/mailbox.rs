//! Bounded per-thread priority mailbox (overload control, ROADMAP item 5).
//!
//! Replaces the unbounded pending-event queue of an activation with three
//! priority lanes:
//!
//! * **control** — unbounded FIFO; TERMINATE/QUIT and the other system
//!   events preempt everything and are never shed, so a TIMER flood can
//!   no longer starve a kill (the paper's §6.3 teardown stays live under
//!   saturation);
//! * **timer** — bounded, ordered by usefulness deadline; a tick whose
//!   deadline is near jumps the USER lane, a tick past capacity is shed
//!   (the next tick supersedes it);
//! * **user** — bounded FIFO; past capacity the raise is shed.
//!
//! Admission is an explicit, typed outcome ([`Admission::Shed`]): the
//! kernel turns it into [`crate::DeliveryStatus::Overloaded`] so the
//! delivery ledger accounts every shed raise — nothing is silently
//! dropped.
//!
//! The mailbox maintains its total depth in an [`AtomicUsize`] shared via
//! [`Mailbox::depth_handle`]. The kernel's sweep samples that atomic
//! **without** taking the activation lock, so a sweep can never observe a
//! mailbox mid-resize (and never contends with delivery under load).

use crate::event::{Lane, WireEvent};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for the bounded priority mailbox, part of
/// [`crate::KernelConfig`] (one policy per cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxConfig {
    /// Capacity of the TIMER lane; a tick past it is shed.
    pub timer_capacity: usize,
    /// Capacity of the USER lane; a raise past it is shed.
    pub user_capacity: usize,
    /// Usefulness horizon stamped on timer-lane events at raise: the
    /// event's deadline is `raise time + timer_deadline`.
    pub timer_deadline: Duration,
    /// A timer whose deadline is within this of "now" jumps the USER
    /// lane at the next delivery point.
    pub near_deadline: Duration,
    /// How long a backpressure signal from an overloaded peer keeps the
    /// sender shedding sheddable-lane raises at the source.
    pub backpressure_hold: Duration,
}

impl Default for MailboxConfig {
    fn default() -> Self {
        MailboxConfig {
            // Generous: ordinary workloads never fill these; only a
            // genuine flood (E13) trips admission control.
            timer_capacity: 1024,
            user_capacity: 1024,
            timer_deadline: Duration::from_millis(100),
            near_deadline: Duration::from_millis(10),
            backpressure_hold: Duration::from_millis(100),
        }
    }
}

/// Outcome of offering an event to a bounded mailbox.
#[must_use = "a Shed admission must surface as DeliveryStatus::Overloaded, never vanish"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The event was queued for the next delivery point.
    Stored,
    /// The named (sheddable) lane was at capacity; the event was not
    /// queued and the raiser must be told `Overloaded`.
    Shed(Lane),
}

impl Admission {
    /// True if the event was queued.
    pub fn is_stored(self) -> bool {
        self == Admission::Stored
    }
}

/// Timer-lane entry: min-ordered by deadline, FIFO among equal deadlines
/// (the arrival index breaks ties, so two ticks with one deadline pop in
/// raise order).
struct TimerSlot {
    deadline_ns: u64,
    arrival: u64,
    event: WireEvent,
}

impl PartialEq for TimerSlot {
    fn eq(&self, other: &Self) -> bool {
        self.deadline_ns == other.deadline_ns && self.arrival == other.arrival
    }
}
impl Eq for TimerSlot {}
impl PartialOrd for TimerSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // deadline (then earliest arrival) on top.
        other
            .deadline_ns
            .cmp(&self.deadline_ns)
            .then(other.arrival.cmp(&self.arrival))
    }
}

/// The bounded priority mailbox. Not internally synchronized: it lives
/// behind the activation lock (or the model harness's mutex); only the
/// depth counter is shared lock-free.
pub struct Mailbox {
    config: MailboxConfig,
    control: VecDeque<WireEvent>,
    timer: BinaryHeap<TimerSlot>,
    user: VecDeque<WireEvent>,
    depth: Arc<AtomicUsize>,
    arrivals: u64,
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox")
            .field("control", &self.control.len())
            .field("timer", &self.timer.len())
            .field("user", &self.user.len())
            .finish()
    }
}

impl Mailbox {
    /// Empty mailbox with the given bounds.
    pub fn new(config: MailboxConfig) -> Self {
        Mailbox {
            config,
            control: VecDeque::new(),
            timer: BinaryHeap::new(),
            user: VecDeque::new(),
            depth: Arc::new(AtomicUsize::new(0)),
            arrivals: 0,
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> MailboxConfig {
        self.config
    }

    /// Shared handle to the total depth, updated on every push/pop. Safe
    /// to read without holding the lock that guards the mailbox itself —
    /// this is the kernel sweep's atomic depth snapshot.
    pub fn depth_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.depth)
    }

    /// Total queued events across all lanes.
    pub fn len(&self) -> usize {
        self.control.len() + self.timer.len() + self.user.len()
    }

    /// True when no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued events in `lane`.
    pub fn lane_len(&self, lane: Lane) -> usize {
        match lane {
            Lane::Control => self.control.len(),
            Lane::Timer => self.timer.len(),
            Lane::User => self.user.len(),
        }
    }

    /// Offer `event` for admission. Control-lane events are always
    /// stored; timer/user events are shed when their lane is full.
    pub fn push(&mut self, event: WireEvent) -> Admission {
        let lane = Lane::classify(&event.name);
        match lane {
            Lane::Control => self.control.push_back(event),
            Lane::Timer => {
                if self.timer.len() >= self.config.timer_capacity {
                    return Admission::Shed(Lane::Timer);
                }
                let deadline_ns = event.deadline_ns.unwrap_or(u64::MAX);
                self.arrivals += 1;
                self.timer.push(TimerSlot {
                    deadline_ns,
                    arrival: self.arrivals,
                    event,
                });
            }
            Lane::User => {
                if self.user.len() >= self.config.user_capacity {
                    return Admission::Shed(Lane::User);
                }
                self.user.push_back(event);
            }
        }
        self.depth.fetch_add(1, Ordering::Relaxed);
        Admission::Stored
    }

    /// Take the highest-priority event: control first, then a timer whose
    /// deadline is due within [`MailboxConfig::near_deadline`] of
    /// `now_ns`, then user FIFO, then remaining timers (earliest deadline
    /// first).
    pub fn pop(&mut self, now_ns: u64) -> Option<WireEvent> {
        let event = if let Some(e) = self.control.pop_front() {
            e
        } else if self
            .timer
            .peek()
            .is_some_and(|t| t.deadline_ns <= now_ns.saturating_add(self.near_deadline_ns()))
        {
            self.timer.pop().expect("peeked").event
        } else if let Some(e) = self.user.pop_front() {
            e
        } else {
            self.timer.pop()?.event
        };
        self.depth.fetch_sub(1, Ordering::Relaxed);
        Some(event)
    }

    fn near_deadline_ns(&self) -> u64 {
        self.config
            .near_deadline
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventName, SystemEvent, Value};
    use doct_net::NodeId;

    fn wire(name: EventName, seq: u64, deadline_ns: Option<u64>) -> WireEvent {
        WireEvent {
            name,
            payload: Value::Null,
            raiser: None,
            raiser_node: NodeId(0),
            seq,
            sync: false,
            t_raise_ns: 0,
            attrs: None,
            deadline_ns,
        }
    }

    fn timer(seq: u64, deadline_ns: u64) -> WireEvent {
        wire(
            EventName::System(SystemEvent::Timer),
            seq,
            Some(deadline_ns),
        )
    }

    fn user(seq: u64) -> WireEvent {
        wire(EventName::user("U"), seq, None)
    }

    fn terminate(seq: u64) -> WireEvent {
        wire(EventName::System(SystemEvent::Terminate), seq, None)
    }

    fn tiny() -> MailboxConfig {
        MailboxConfig {
            timer_capacity: 2,
            user_capacity: 2,
            ..MailboxConfig::default()
        }
    }

    #[test]
    fn control_preempts_timer_and_user() {
        let mut m = Mailbox::new(MailboxConfig::default());
        assert!(m.push(user(1)).is_stored());
        assert!(m.push(timer(2, u64::MAX)).is_stored());
        assert!(m.push(terminate(3)).is_stored());
        assert_eq!(m.pop(0).unwrap().seq, 3, "control first");
        assert_eq!(m.pop(0).unwrap().seq, 1, "then user");
        assert_eq!(m.pop(0).unwrap().seq, 2, "then far-deadline timer");
        assert!(m.pop(0).is_none());
    }

    #[test]
    fn control_lane_is_fifo() {
        let mut m = Mailbox::new(MailboxConfig::default());
        for seq in 1..=5 {
            assert!(m.push(terminate(seq)).is_stored());
        }
        for seq in 1..=5 {
            assert_eq!(m.pop(0).unwrap().seq, seq);
        }
    }

    #[test]
    fn near_deadline_timer_jumps_the_user_lane() {
        let mut m = Mailbox::new(MailboxConfig::default());
        let near = m.near_deadline_ns();
        assert!(m.push(user(1)).is_stored());
        assert!(m.push(timer(2, 1_000)).is_stored());
        // At now=0 the timer's deadline (1000ns) is within near_deadline:
        // it preempts the queued user event.
        assert!(near > 1_000);
        assert_eq!(m.pop(0).unwrap().seq, 2);
        assert_eq!(m.pop(0).unwrap().seq, 1);
    }

    #[test]
    fn timers_pop_in_deadline_order_fifo_on_ties() {
        let mut m = Mailbox::new(MailboxConfig::default());
        assert!(m.push(timer(1, 300)).is_stored());
        assert!(m.push(timer(2, 100)).is_stored());
        assert!(m.push(timer(3, 100)).is_stored());
        assert_eq!(m.pop(0).unwrap().seq, 2, "earliest deadline");
        assert_eq!(m.pop(0).unwrap().seq, 3, "FIFO among equal deadlines");
        assert_eq!(m.pop(0).unwrap().seq, 1);
    }

    #[test]
    fn full_sheddable_lanes_shed_with_the_lane_named() {
        let mut m = Mailbox::new(tiny());
        assert!(m.push(user(1)).is_stored());
        assert!(m.push(user(2)).is_stored());
        assert_eq!(m.push(user(3)), Admission::Shed(Lane::User));
        assert!(m.push(timer(4, 1)).is_stored());
        assert!(m.push(timer(5, 2)).is_stored());
        assert_eq!(m.push(timer(6, 3)), Admission::Shed(Lane::Timer));
        assert_eq!(m.len(), 4, "shed events were not queued");
    }

    #[test]
    fn control_lane_never_sheds() {
        let mut m = Mailbox::new(tiny());
        // Saturate both sheddable lanes first.
        for seq in 0..4 {
            let _ = m.push(user(seq));
            let _ = m.push(timer(100 + seq, 1));
        }
        for seq in 0..1000 {
            assert!(
                m.push(terminate(10_000 + seq)).is_stored(),
                "control admission must be unconditional"
            );
        }
        assert_eq!(m.lane_len(Lane::Control), 1000);
    }

    #[test]
    fn depth_handle_tracks_pushes_and_pops_atomically() {
        let mut m = Mailbox::new(tiny());
        let depth = m.depth_handle();
        assert_eq!(depth.load(Ordering::Relaxed), 0);
        assert!(m.push(user(1)).is_stored());
        assert!(m.push(terminate(2)).is_stored());
        assert!(m.push(user(3)).is_stored());
        assert_eq!(m.push(user(4)), Admission::Shed(Lane::User));
        assert_eq!(
            depth.load(Ordering::Relaxed),
            3,
            "shed events never count toward depth"
        );
        let _ = m.pop(0);
        assert_eq!(depth.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn depth_mirror_equals_occupancy_after_every_operation() {
        // Regression pin for the increment-on-Stored-only contract: a shed
        // must leave the mirror untouched, and the mirror must equal the
        // real occupancy after *every* push/pop — the kernel sweep's
        // `kernel.mailbox_depth` sample trusts this atomic without taking
        // the activation lock.
        let mut m = Mailbox::new(tiny());
        let depth = m.depth_handle();
        let check = |m: &Mailbox, d: &Arc<AtomicUsize>| {
            assert_eq!(d.load(Ordering::Relaxed), m.len(), "mirror drifted");
        };
        let pushes: Vec<WireEvent> = vec![
            user(1),
            timer(2, 50),
            user(3),
            user(4), // sheds: user lane full at 2
            terminate(5),
            timer(6, 10),
            timer(7, 20), // sheds: timer lane full at 2
        ];
        for e in pushes {
            let _ = m.push(e);
            check(&m, &depth);
        }
        while m.pop(0).is_some() {
            check(&m, &depth);
        }
        assert_eq!(depth.load(Ordering::Relaxed), 0, "drained mailbox");
    }
}
