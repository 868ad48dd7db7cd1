//! The traced run's instruments, all on the benchmark's side of the
//! public API: spans around calls into the kernel and the event facility,
//! a dispatcher wrapper that times the facility's dispatch, and a reader
//! that folds the program's own lifecycle trace ring into per-stage
//! latencies. Nothing here is compiled into the measured program.

use doct_events::EventFacility;
use doct_kernel::{Ctx, EventDispatcher, ObjectId, ThreadDisposition, WireEvent};
use doct_telemetry::{Stage, Telemetry, TraceEvent};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

thread_local! {
    /// Handler time spent on this OS thread inside the current dispatch,
    /// so the dispatcher wrapper can report its self time.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Append `x` to a span buffer.
pub fn record<T>(buf: &Mutex<Vec<T>>, x: T) {
    buf.lock().expect("span buffer lock").push(x);
}

/// Span buffers of the traced round. Recording is off until `on` is
/// set, so the plain round pays one relaxed load per handler call.
#[derive(Debug, Default)]
pub struct Spans {
    on: AtomicBool,
    /// `Cluster::raise_from` call durations, ns.
    pub raise_call: Mutex<Vec<u64>>,
    /// `RaiseTicket::wait` durations, ns.
    pub ticket_wait: Mutex<Vec<u64>>,
    /// Dispatcher wrapper self time (dispatch minus handler), ns.
    pub dispatch_self: Mutex<Vec<u64>>,
    /// Bench handler closure durations, ns.
    pub handler: Mutex<Vec<u64>>,
    /// (payload tag, event seq) seen by echo handlers: joins a raiser's
    /// round trip to the trace records of its raise.
    pub tag_seq: Mutex<Vec<(u64, u64)>>,
    /// (payload tag, call start ns, return ns) of `raise_and_wait` calls.
    pub round_trip: Mutex<Vec<(u64, u64, u64)>>,
    /// Seqs of control probes, kept out of the stage split.
    probe_seqs: Mutex<HashSet<u64>>,
}

impl Spans {
    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn record_probe(&self, seq: u64) {
        self.probe_seqs.lock().expect("probe set lock").insert(seq);
    }

    /// Run the bench handler body `f`, timing it when recording.
    pub fn handler<R>(&self, clock: &Telemetry, f: impl FnOnce() -> R) -> R {
        if !self.on() {
            return f();
        }
        let t0 = clock.now_ns();
        let r = f();
        let ns = clock.now_ns().saturating_sub(t0);
        CHILD_NS.with(|c| c.set(c.get() + ns));
        record(&self.handler, ns);
        r
    }

    /// Empty a span buffer, returning what it held.
    pub fn take<T>(buf: &Mutex<Vec<T>>) -> Vec<T> {
        std::mem::take(&mut *buf.lock().expect("span buffer lock"))
    }

    pub fn probe_seqs(&self) -> HashSet<u64> {
        self.probe_seqs.lock().expect("probe set lock").clone()
    }
}

/// Times each thread delivery of the installed [`EventFacility`]; the
/// traced round installs it in the facility's place.
pub struct TimedDispatcher {
    pub inner: Arc<EventFacility>,
    pub spans: Arc<Spans>,
    pub clock: Arc<Telemetry>,
}

impl EventDispatcher for TimedDispatcher {
    fn deliver_to_thread(&self, ctx: &mut Ctx, event: WireEvent) -> ThreadDisposition {
        CHILD_NS.with(|c| c.set(0));
        let t0 = self.clock.now_ns();
        let d = self.inner.deliver_to_thread(ctx, event);
        let total = self.clock.now_ns().saturating_sub(t0);
        let child = CHILD_NS.with(Cell::get);
        record(&self.spans.dispatch_self, total.saturating_sub(child));
        d
    }

    fn deliver_to_object(&self, ctx: &mut Ctx, object: ObjectId, event: WireEvent) {
        self.inner.deliver_to_object(ctx, object, event);
    }
}

/// Seqs folded at most; beyond this the reader stops (enough for a p99
/// with hundreds of samples past it).
pub const FOLD_CAP: usize = 60_000;

/// Per-stage latencies folded from trace-ring snapshots. A raise is
/// folded once, when a snapshot holds its Raise, Route, Send, Deliver
/// and ChainWalk records and all the Unwind records it will ever have.
/// Stage times are first-record times, except Unwind, which is the last
/// (for a group raise: first Deliver to last recipient's Unwind, since a
/// `TraceEvent` does not name its recipient).
#[derive(Debug, Default)]
pub struct StageFold {
    folded: HashSet<u64>,
    /// Raise → Route, ns.
    pub route: Vec<u64>,
    /// Route → Send, ns.
    pub send: Vec<u64>,
    /// Send → Deliver, ns.
    pub wire: Vec<u64>,
    /// Deliver → ChainWalk, ns.
    pub mailbox_wait: Vec<u64>,
    /// ChainWalk → last Unwind, ns.
    pub chain: Vec<u64>,
    /// Raise → first Unwind (the handler's resume), ns, by seq.
    pub raise_to_resume: HashMap<u64, u64>,
}

impl StageFold {
    pub fn len(&self) -> usize {
        self.folded.len()
    }

    pub fn full(&self) -> bool {
        self.folded.len() >= FOLD_CAP
    }

    /// Fold the complete, not yet folded raises of one ring snapshot
    /// that were raised at or after `since_ns`. `unwinds` is how many
    /// Unwind records a complete raise of this workload has; seqs in
    /// `exclude` (control probes) are skipped.
    pub fn absorb(
        &mut self,
        records: &[TraceEvent],
        since_ns: u64,
        unwinds: usize,
        exclude: &HashSet<u64>,
    ) {
        let mut by_seq: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
        for r in records {
            by_seq.entry(r.seq).or_default().push(r);
        }
        let mut seqs: Vec<u64> = by_seq.keys().copied().collect();
        seqs.sort_unstable();
        for seq in seqs {
            if self.full() || exclude.contains(&seq) || self.folded.contains(&seq) {
                continue;
            }
            let recs = &by_seq[&seq];
            let first = |s: Stage| recs.iter().filter(|r| r.stage == s).map(|r| r.t_ns).min();
            let unwind: Vec<u64> = recs
                .iter()
                .filter(|r| r.stage == Stage::Unwind)
                .map(|r| r.t_ns)
                .collect();
            let (
                Some(raise),
                Some(route),
                Some(send),
                Some(deliver),
                Some(walk),
                Some(&u_first),
                Some(&u_last),
            ) = (
                first(Stage::Raise),
                first(Stage::Route),
                first(Stage::Send),
                first(Stage::Deliver),
                first(Stage::ChainWalk),
                unwind.iter().min(),
                unwind.iter().max(),
            )
            else {
                continue;
            };
            if raise < since_ns || unwind.len() != unwinds {
                continue;
            }
            self.folded.insert(seq);
            self.route.push(route.saturating_sub(raise));
            self.send.push(send.saturating_sub(route));
            self.wire.push(deliver.saturating_sub(send));
            self.mailbox_wait.push(walk.saturating_sub(deliver));
            self.chain.push(u_last.saturating_sub(walk));
            self.raise_to_resume
                .insert(seq, u_first.saturating_sub(raise));
        }
    }
}

/// Read the trace ring while a traced round runs: snapshot it each time
/// half its capacity has been overwritten, fold what is complete, and
/// return the fold once `stop` is set (after a last snapshot).
pub fn read_ring(
    clock: Arc<Telemetry>,
    spans: Arc<Spans>,
    since_ns: u64,
    unwinds: usize,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<StageFold> {
    std::thread::spawn(move || {
        let ring = clock.ring();
        let half = (ring.capacity() / 2) as u64;
        let mut fold = StageFold::default();
        let mut last = ring.total_recorded();
        loop {
            let stopping = stop.load(Ordering::SeqCst);
            let total = ring.total_recorded();
            if stopping || (total - last >= half && !fold.full()) {
                last = total;
                let records = ring.snapshot();
                fold.absorb(&records, since_ns, unwinds, &spans.probe_seqs());
            }
            if stopping {
                return fold;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use doct_telemetry::RaiseVariant;

    fn ev(seq: u64, t_ns: u64, stage: Stage) -> TraceEvent {
        TraceEvent {
            seq,
            t_ns,
            node: 0,
            stage,
            variant: RaiseVariant::None,
        }
    }

    fn sync_raise(seq: u64, t: u64) -> Vec<TraceEvent> {
        vec![
            ev(seq, t, Stage::Raise),
            ev(seq, t + 1_000, Stage::Route),
            ev(seq, t + 3_000, Stage::Send),
            ev(seq, t + 13_000, Stage::Deliver),
            ev(seq, t + 14_000, Stage::ChainWalk),
            ev(seq, t + 16_000, Stage::Unwind),
            ev(seq, t + 17_000, Stage::Unwind),
        ]
    }

    #[test]
    fn folds_complete_raises_once_and_skips_probes_and_partials() {
        let mut recs = sync_raise(1, 0);
        recs.extend(sync_raise(2, 100_000));
        recs.extend(sync_raise(3, 200_000));
        // Seq 4 has lost its Raise record to ring wraparound.
        recs.extend(sync_raise(4, 300_000).into_iter().skip(1));
        // Seq 5 has not unwound yet.
        recs.extend(sync_raise(5, 400_000).into_iter().take(5));
        let exclude: HashSet<u64> = [3].into_iter().collect();
        let mut fold = StageFold::default();
        fold.absorb(&recs, 0, 2, &exclude);
        fold.absorb(&recs, 0, 2, &exclude);
        assert_eq!(fold.len(), 2);
        assert_eq!(fold.route, vec![1_000, 1_000]);
        assert_eq!(fold.send, vec![2_000, 2_000]);
        assert_eq!(fold.wire, vec![10_000, 10_000]);
        assert_eq!(fold.mailbox_wait, vec![1_000, 1_000]);
        assert_eq!(fold.chain, vec![3_000, 3_000]);
        assert_eq!(fold.raise_to_resume[&2], 16_000);
        // The missing Unwind arrives in a later snapshot.
        let mut later = sync_raise(5, 400_000);
        later.reverse();
        fold.absorb(&later, 0, 2, &exclude);
        assert_eq!(fold.len(), 3);
    }

    #[test]
    fn group_raise_spans_first_deliver_to_last_unwind() {
        let mut recs = vec![ev(9, 0, Stage::Raise)];
        for m in 0..3u64 {
            recs.push(ev(9, 1_000 + m, Stage::Route));
            recs.push(ev(9, 2_000 + m, Stage::Send));
            recs.push(ev(9, 10_000 + m * 5_000, Stage::Deliver));
            recs.push(ev(9, 11_000 + m * 5_000, Stage::ChainWalk));
            recs.push(ev(9, 12_000 + m * 5_000, Stage::Unwind));
        }
        let mut fold = StageFold::default();
        fold.absorb(&recs, 0, 4, &HashSet::new());
        assert_eq!(fold.len(), 0, "three of four unwinds is incomplete");
        fold.absorb(&recs, 0, 3, &HashSet::new());
        assert_eq!(fold.wire, vec![8_000]);
        assert_eq!(fold.chain, vec![22_000 - 11_000]);
    }
}
