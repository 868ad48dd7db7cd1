//! The four workloads, each driven only through the public API:
//! `ClusterBuilder`, `EventFacility::install`, `Ctx::raise_and_wait`,
//! `Cluster::raise_from`, `RaiseTicket::wait` and `Telemetry::metrics`.

use crate::layers::{record, Spans};
use crate::report::{cpu_us, host_ticks, Hist, Windows};
use doct_events::{AttachSpec, CtxEvents, EventFacility, HandlerDecision};
use doct_kernel::{
    Bytes, Cluster, ClusterBuilder, Ctx, EventName, FabricChoice, KernelConfig, LocatorStrategy,
    SpawnOptions, SystemEvent, ThreadGroupId, ThreadHandle, ThreadId, Value,
};
use doct_telemetry::{MetricsSnapshot, Telemetry};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Raiser threads of the unicast workloads: two keep a 2-core machine busy.
const SYNC_RAISERS: usize = 2;
/// Bytes in a unicast payload: an 8-byte tag, then seed-derived fill.
const SYNC_PAYLOAD: usize = 64;
/// Distinct payload fills each raiser cycles through.
const FILLS: usize = 64;
/// Members of the fan-out group, spread over nodes 1..=FAN_NODES.
const FAN_MEMBERS: usize = 16;
const FAN_NODES: usize = 4;
/// Bytes in the one shared fan-out payload.
const FAN_PAYLOAD: usize = 4096;
/// Open-loop offered rate: about 1.5× what the consumer handles.
pub const OFFER_PER_S: u64 = 60_000;
/// Busy time of the open-loop consumer's handler per event.
const SERVICE: Duration = Duration::from_micros(20);
/// Control probe period.
const PROBE_EVERY: Duration = Duration::from_millis(1);
/// Window lengths the latency figures are taken over: each window holds
/// at least about 1000 samples, so its p99 has ten beyond it.
const MAIN_WINDOW: Duration = Duration::from_secs(1);
const CONTROL_WINDOW: Duration = Duration::from_secs(2);
/// Warm-up raises per raiser before any measured round (part of set-up).
/// Long enough (about half a second) that one scheduler stall is a small
/// share of `setup_s`.
const WARM_SYNC: u64 = 10_000;
const WARM_FAN: u64 = 1_500;
const WARM_FLOOD: u64 = 30_000;
/// How long a boundary may take to settle before the run fails.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UnicastSync,
    FanoutReliable,
    UnicastSyncUdp,
    OverloadOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UnicastSync,
        Workload::FanoutReliable,
        Workload::UnicastSyncUdp,
        Workload::OverloadOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UnicastSync => "unicast_sync",
            Workload::FanoutReliable => "fanout_reliable",
            Workload::UnicastSyncUdp => "unicast_sync_udp",
            Workload::OverloadOpen => "overload_open",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn fabric(self) -> FabricChoice {
        match self {
            Workload::UnicastSyncUdp => FabricChoice::Udp,
            _ => FabricChoice::Sim,
        }
    }

    /// Open or closed loop, with its rate or client count.
    pub fn loop_label(self) -> String {
        match self {
            Workload::UnicastSync | Workload::UnicastSyncUdp => {
                format!("closed loop, {SYNC_RAISERS} clients")
            }
            Workload::FanoutReliable => "closed loop, 1 client".into(),
            Workload::OverloadOpen => format!("open loop, {OFFER_PER_S} raises/s offered"),
        }
    }

    /// Unwind records a complete main-stream raise leaves in the trace
    /// ring: a sync raise unwinds at the resume and at the end of the
    /// dispatch; an async one once per recipient.
    pub fn unwinds(self) -> usize {
        match self {
            Workload::UnicastSync | Workload::UnicastSyncUdp => 2,
            Workload::FanoutReliable => FAN_MEMBERS,
            Workload::OverloadOpen => 1,
        }
    }

    fn cluster(self) -> Cluster {
        match self {
            Workload::UnicastSync | Workload::OverloadOpen => ClusterBuilder::new(2).build(),
            Workload::UnicastSyncUdp => ClusterBuilder::new(2)
                .config(KernelConfig::default().with_fabric(FabricChoice::Udp))
                .build(),
            Workload::FanoutReliable => ClusterBuilder::new(1 + FAN_NODES)
                .config(KernelConfig::with_locator(LocatorStrategy::Multicast))
                .reliable()
                .build(),
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything the seed decides: payload bytes and target order. The
/// program sees only these generated inputs, never the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Unicast: raiser `i` targets handler `order[i]`. Fan-out: member
    /// `i` lives on node `1 + order[i] % FAN_NODES`.
    pub order: Vec<usize>,
    fills: Vec<Vec<u8>>,
    fan_payload: Bytes,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let mut order: Vec<usize> = (0..FAN_MEMBERS).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
        }
        let mut bytes =
            |n: usize| -> Vec<u8> { (0..n).map(|_| splitmix(&mut s) as u8).collect::<Vec<u8>>() };
        let fills = (0..FILLS).map(|_| bytes(SYNC_PAYLOAD - 8)).collect();
        let fan_payload = Bytes::from_vec(bytes(FAN_PAYLOAD));
        Inputs {
            order,
            fills,
            fan_payload,
        }
    }

    /// The `k`-th payload: `tag` in the first 8 bytes, then fill `k`.
    pub fn payload(&self, tag: u64, k: u64) -> Bytes {
        let mut v = Vec::with_capacity(SYNC_PAYLOAD);
        v.extend_from_slice(&tag.to_le_bytes());
        v.extend_from_slice(&self.fills[(k % FILLS as u64) as usize]);
        Bytes::from_vec(v)
    }
}

fn tag_of(v: &Value) -> Option<u64> {
    match v {
        Value::Bytes(b) if b.len() >= 8 => {
            Some(u64::from_le_bytes(b.as_slice()[..8].try_into().ok()?))
        }
        _ => None,
    }
}

/// How long a round runs.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Each driver makes this many raises (warm-up).
    Count(u64),
    /// Drivers start no raise this long after the round starts.
    For(Duration),
}

/// When a round's drivers stop, on the telemetry clock.
#[derive(Debug, Clone, Copy)]
enum Stop {
    Count(u64),
    /// Start no raise at or after this time (ns).
    Deadline(u64),
}

impl Stop {
    fn done(self, k: u64, now_ns: u64) -> bool {
        match self {
            Stop::Count(n) => k >= n,
            Stop::Deadline(d) => now_ns >= d,
        }
    }
}

/// Raw outcome of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Main-stream latency (closed loop: call to return; open loop: due
    /// time to handler start), in [`MAIN_WINDOW`]s.
    pub main: Windows,
    /// Control probe latency (call to return), in [`CONTROL_WINDOW`]s.
    pub control: Windows,
    /// Lateness of the round's scheduled sends, ns: the flood for the
    /// open loop, the probe schedule otherwise.
    pub late: Hist,
    /// Raise calls made (main stream plus probes).
    pub attempted: u64,
    /// Raise calls the benchmark saw fail (error, wrong echo, short
    /// fan-out summary).
    pub failed: u64,
    pub issues: Vec<String>,
    /// Telemetry before and after, both at settled boundaries.
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    /// Handler invocations counted by the benchmark's handlers.
    pub handled: u64,
    /// Process CPU over the round, µs.
    pub cpu_us: u64,
    /// Share of the host's CPU time stolen by the hypervisor over the
    /// round: high values mark a run taken on a contended host.
    pub host_steal_frac: f64,
    /// Payload bytes deep-copied process-wide over the round.
    pub bytes_copied: u64,
}

/// A built, warmed cluster with its handler threads.
pub struct Rig {
    pub workload: Workload,
    pub cluster: Cluster,
    pub facility: Arc<EventFacility>,
    pub spans: Arc<Spans>,
    inputs: Arc<Inputs>,
    event: EventName,
    handled: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    threads: Vec<ThreadHandle>,
    /// Unicast: per-raiser target. Fan-out: the members. Open loop: the
    /// consumer. The first is also the control probes' target.
    targets: Vec<ThreadId>,
    group: Option<ThreadGroupId>,
    /// Open-loop consumer samples, due time to handler start.
    flood: Arc<Mutex<Windows>>,
    /// Handler-side check failures.
    issues: Arc<Mutex<Vec<String>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("benchmark state lock")
}

fn spin_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

impl Rig {
    /// Build the cluster, spawn and arm the handler threads, and warm up.
    ///
    /// # Errors
    ///
    /// A spawn failure, or a warm-up that does not settle.
    pub fn setup(workload: Workload, inputs: Arc<Inputs>) -> Result<Rig, String> {
        let cluster = workload.cluster();
        let facility = EventFacility::install(&cluster);
        let event = facility.register_event("BENCH");
        let mut rig = Rig {
            workload,
            cluster,
            facility,
            spans: Arc::new(Spans::default()),
            inputs,
            event,
            handled: Arc::new(AtomicU64::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
            targets: Vec::new(),
            group: None,
            flood: Arc::new(Mutex::new(Windows::default())),
            issues: Arc::new(Mutex::new(Vec::new())),
        };
        rig.spawn_handlers()?;
        let warm = match workload {
            Workload::UnicastSync | Workload::UnicastSyncUdp => WARM_SYNC,
            Workload::FanoutReliable => WARM_FAN,
            Workload::OverloadOpen => WARM_FLOOD,
        };
        rig.round(Until::Count(warm))?;
        Ok(rig)
    }

    fn spawn_handlers(&mut self) -> Result<(), String> {
        let ready = Arc::new(AtomicUsize::new(0));
        let spawn = |node: usize, options: SpawnOptions, role: Role| {
            let ready = Arc::clone(&ready);
            let stop = Arc::clone(&self.stop);
            let arm = self.handler_kit(role);
            self.cluster
                .spawn_fn_with(node, options, move |ctx| {
                    arm(ctx);
                    ready.fetch_add(1, Ordering::SeqCst);
                    while !stop.load(Ordering::Relaxed) {
                        ctx.sleep(Duration::from_millis(20))?;
                    }
                    Ok(Value::Null)
                })
                .map_err(|e| format!("spawn handler: {e}"))
        };
        let mut handles = Vec::new();
        match self.workload {
            Workload::UnicastSync | Workload::UnicastSyncUdp => {
                for _ in 0..SYNC_RAISERS {
                    handles.push(spawn(1, SpawnOptions::default(), Role::Echo)?);
                }
                // Raiser i targets the handler that comes i-th in the
                // seed's order.
                let mut ids: Vec<usize> = (0..SYNC_RAISERS).collect();
                ids.sort_by_key(|&j| self.inputs.order.iter().position(|&o| o == j));
                self.targets = ids.iter().map(|&j| handles[j].thread()).collect();
            }
            Workload::FanoutReliable => {
                let group = self.cluster.create_group();
                for i in 0..FAN_MEMBERS {
                    let node = 1 + self.inputs.order[i] % FAN_NODES;
                    let options = SpawnOptions {
                        group: Some(group),
                        ..SpawnOptions::default()
                    };
                    handles.push(spawn(node, options, Role::Fan)?);
                }
                self.group = Some(group);
                self.targets = handles.iter().map(ThreadHandle::thread).collect();
            }
            Workload::OverloadOpen => {
                handles.push(spawn(1, SpawnOptions::default(), Role::Burn)?);
                self.targets = vec![handles[0].thread()];
            }
        }
        let want = handles.len();
        self.threads = handles;
        let deadline = Instant::now() + Duration::from_secs(10);
        while ready.load(Ordering::SeqCst) < want {
            if Instant::now() > deadline {
                return Err(format!("{want} handler threads not ready in 10 s"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// The code a handler thread runs before it starts waiting: attach
    /// the workload's handler for the bench event, and a TERMINATE
    /// shield that resumes control probes instead of dying.
    fn handler_kit(&self, role: Role) -> impl FnOnce(&mut Ctx) + Send + 'static {
        let (spans, handled, issues, flood) = (
            Arc::clone(&self.spans),
            Arc::clone(&self.handled),
            Arc::clone(&self.issues),
            Arc::clone(&self.flood),
        );
        let clock: Arc<Telemetry> = Arc::clone(self.cluster.telemetry());
        let fan_payload = self.inputs.fan_payload.clone();
        let event = self.event.clone();
        move |ctx: &mut Ctx| {
            let (s, h) = (Arc::clone(&spans), Arc::clone(&handled));
            ctx.attach_handler(
                SystemEvent::Terminate,
                AttachSpec::proc("shield", move |_c, b| {
                    if s.on() {
                        s.record_probe(b.seq);
                    }
                    h.fetch_add(1, Ordering::Relaxed);
                    HandlerDecision::Resume(Value::Null)
                }),
            );
            let app = match role {
                Role::Echo => AttachSpec::proc("echo", move |_c, b| {
                    if spans.on() {
                        if let Some(tag) = tag_of(&b.payload) {
                            record(&spans.tag_seq, (tag, b.seq));
                        }
                    }
                    spans.handler(&clock, || {
                        handled.fetch_add(1, Ordering::Relaxed);
                        HandlerDecision::Resume(b.payload.clone())
                    })
                }),
                Role::Fan => AttachSpec::proc("fan", move |_c, b| {
                    spans.handler(&clock, || {
                        handled.fetch_add(1, Ordering::Relaxed);
                        match &b.payload {
                            Value::Bytes(p) if *p == fan_payload => {}
                            _ => lock(&issues)
                                .push(format!("fan-out payload differs at seq {}", b.seq)),
                        }
                        HandlerDecision::Resume(Value::Null)
                    })
                }),
                Role::Burn => AttachSpec::proc("burn", move |_c, b| {
                    let start = clock.now_ns();
                    spans.handler(&clock, || {
                        handled.fetch_add(1, Ordering::Relaxed);
                        spin_for(SERVICE);
                        match tag_of(&b.payload) {
                            Some(due) => lock(&flood).record(start, start.saturating_sub(due)),
                            None => lock(&issues)
                                .push(format!("flood payload malformed at seq {}", b.seq)),
                        }
                        HandlerDecision::Resume(Value::Null)
                    })
                }),
            };
            ctx.attach_handler(event, app);
        }
    }

    /// Wait until every receipt has resolved (the ledger balances) and
    /// every admitted event has run its handler; return the cumulative
    /// counters and the benchmark's handler count at that point.
    fn settled(&self) -> Result<(MetricsSnapshot, u64), String> {
        let deadline = Instant::now() + QUIESCE_TIMEOUT;
        loop {
            let m = self.cluster.telemetry().metrics();
            let handled = self.handled.load(Ordering::SeqCst);
            let l = Ledger::of(&m);
            if l.balanced() && handled == l.delivered {
                return Ok((m, handled));
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "did not settle in {QUIESCE_TIMEOUT:?}: {l}; handler invocations {handled}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One round: settle, run the workload's driver and the control
    /// prober until `until`, settle again. Both boundaries are settled,
    /// so counter deltas cover exactly the raises made in the round.
    ///
    /// # Errors
    ///
    /// A boundary that does not settle, or a driver that cannot run.
    pub fn round(&self, until: Until) -> Result<Round, String> {
        let clock = Arc::clone(self.cluster.telemetry());
        let (before, handled0) = self.settled()?;
        let copied0 = Bytes::deep_copied_bytes();
        let cpu0 = cpu_us().unwrap_or(0);
        let host0 = host_ticks().unwrap_or_default();
        let t0 = clock.now_ns();
        // A warm-up round has no window: its samples are dropped.
        let (until, t1) = match until {
            Until::Count(n) => (Stop::Count(n), t0),
            Until::For(d) => {
                let t1 = t0 + d.as_nanos() as u64;
                (Stop::Deadline(t1), t1)
            }
        };
        let windows = |w: Duration| Windows::new(t0, t1, w.as_nanos() as u64);
        *lock(&self.flood) = windows(MAIN_WINDOW);
        let mut round = Round {
            main: windows(MAIN_WINDOW),
            control: windows(CONTROL_WINDOW),
            before,
            ..Round::default()
        };
        let done = Arc::new(AtomicBool::new(false));
        let probe_out = Arc::new(Mutex::new(None));
        let prober = self.spawn_prober(
            t0,
            round.control.clone(),
            Arc::clone(&done),
            Arc::clone(&probe_out),
        )?;
        let driven = match self.workload {
            Workload::UnicastSync | Workload::UnicastSyncUdp => {
                self.drive_sync(until, &windows(MAIN_WINDOW), &mut round)
            }
            Workload::FanoutReliable => self.drive_fanout(until, &mut round),
            Workload::OverloadOpen => self.drive_flood(until, &mut round),
        };
        done.store(true, Ordering::SeqCst);
        let joined = prober.join_timeout(Duration::from_secs(30));
        round.cpu_us = cpu_us().unwrap_or(0).saturating_sub(cpu0);
        let host1 = host_ticks().unwrap_or_default();
        round.host_steal_frac = crate::report::ratio(
            host1.0.saturating_sub(host0.0) as f64,
            host1.1.saturating_sub(host0.1) as f64,
        );
        round.bytes_copied = Bytes::deep_copied_bytes() - copied0;
        driven?;
        let probed = lock(&probe_out).take();
        match (joined, probed) {
            (Some(Ok(_)), Some(p)) => {
                round.control = p.latency;
                if self.workload != Workload::OverloadOpen {
                    round.late = p.late;
                }
                round.attempted += p.attempted;
                round.failed += p.failed;
                round.issues.extend(p.issues);
            }
            (joined, _) => return Err(format!("control prober ended early: {joined:?}")),
        }
        let (after, handled1) = self.settled()?;
        round.after = after;
        round.handled = handled1 - handled0;
        if self.workload == Workload::OverloadOpen {
            round.main = std::mem::take(&mut *lock(&self.flood));
        }
        round.issues.extend(lock(&self.issues).drain(..));
        Ok(round)
    }

    /// The control stream every workload carries: a thread on node 0
    /// `raise_and_wait`s a TERMINATE at `probe_target` every
    /// [`PROBE_EVERY`] from `t0`, which the target's shield resumes.
    fn spawn_prober(
        &self,
        t0: u64,
        latency: Windows,
        done: Arc<AtomicBool>,
        out: Arc<Mutex<Option<Driven>>>,
    ) -> Result<ThreadHandle, String> {
        let clock = Arc::clone(self.cluster.telemetry());
        let target = self.targets[0];
        let every = PROBE_EVERY.as_nanos() as u64;
        self.cluster
            .spawn_fn(0, move |ctx| {
                let mut o = Driven {
                    latency,
                    ..Driven::default()
                };
                for k in 0u64.. {
                    let due = t0 + k * every;
                    while !done.load(Ordering::SeqCst) && clock.now_ns() < due {
                        let wait = due.saturating_sub(clock.now_ns()).min(1_000_000);
                        ctx.sleep(Duration::from_nanos(wait))?;
                    }
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    let s = clock.now_ns();
                    o.late.record(s - due);
                    o.attempted += 1;
                    match ctx.raise_and_wait(SystemEvent::Terminate, Value::Null, target) {
                        Ok(_) => {
                            let e = clock.now_ns();
                            o.latency.record(e, e - s);
                        }
                        Err(err) => o.fail(format!("control probe: {err}")),
                    }
                }
                *lock(&out) = Some(o);
                Ok(Value::Null)
            })
            .map_err(|e| format!("spawn prober: {e}"))
    }

    /// Closed loop: each raiser thread on node 0 `raise_and_wait`s its
    /// own handler on node 1 and checks the echoed payload.
    fn drive_sync(&self, until: Stop, window: &Windows, round: &mut Round) -> Result<(), String> {
        let out = Arc::new(Mutex::new(Vec::new()));
        let mut raisers = Vec::new();
        for (i, &target) in self.targets.iter().enumerate() {
            let clock = Arc::clone(self.cluster.telemetry());
            let (inputs, spans, out) = (
                Arc::clone(&self.inputs),
                Arc::clone(&self.spans),
                Arc::clone(&out),
            );
            let event = self.event.clone();
            let latency = window.clone();
            let raiser = self.cluster.spawn_fn(0, move |ctx| {
                let mut o = Driven {
                    latency,
                    ..Driven::default()
                };
                let mut k = 0u64;
                while !until.done(k, clock.now_ns()) {
                    let tag = ((i as u64) << 48) | k;
                    let payload = inputs.payload(tag, k + 7 * i as u64);
                    let s = clock.now_ns();
                    let r =
                        ctx.raise_and_wait(event.clone(), Value::Bytes(payload.clone()), target);
                    let e = clock.now_ns();
                    o.attempted += 1;
                    match r {
                        Ok(Value::Bytes(b)) if b == payload => o.latency.record(e, e - s),
                        Ok(v) => o.fail(format!("raiser {i}: echo differs, got {v:?}")),
                        Err(err) => o.fail(format!("raiser {i}: {err}")),
                    }
                    if spans.on() {
                        record(&spans.round_trip, (tag, s, e));
                    }
                    k += 1;
                }
                lock(&out).push(o);
                Ok(Value::Null)
            });
            raisers.push(raiser.map_err(|e| format!("spawn raiser: {e}"))?);
        }
        for r in raisers {
            match r.join_timeout(Duration::from_secs(60)) {
                Some(Ok(_)) => {}
                other => round.fail(format!("raiser thread ended badly: {other:?}")),
            }
        }
        for o in lock(&out).drain(..) {
            round.absorb(o);
        }
        Ok(())
    }

    /// Closed loop, one client: `raise_from` the shared payload at the
    /// group and wait for every member's receipt.
    fn drive_fanout(&self, until: Stop, round: &mut Round) -> Result<(), String> {
        let clock = self.cluster.telemetry();
        let group = self.group.ok_or("fan-out rig has no group")?;
        let mut k = 0u64;
        while !until.done(k, clock.now_ns()) {
            let payload = Value::Bytes(self.inputs.fan_payload.clone());
            let s = clock.now_ns();
            let ticket = self
                .cluster
                .raise_from(0, self.event.clone(), payload, group);
            let m = clock.now_ns();
            let summary = ticket.wait();
            let e = clock.now_ns();
            round.attempted += 1;
            if summary.delivered == FAN_MEMBERS && summary.all_delivered() {
                round.main.record(e, e - s);
            } else {
                round.fail(format!("fan-out raise {k}: {summary:?}"));
            }
            if self.spans.on() {
                record(&self.spans.raise_call, m - s);
                record(&self.spans.ticket_wait, e - m);
            }
            k += 1;
        }
        Ok(())
    }

    /// Open loop: offer [`OFFER_PER_S`] raises a second at the consumer,
    /// each carrying its due time, whether or not earlier ones finished.
    /// The generator sleeps until the next raise is due, and the sleep's
    /// slack makes it send a few per wake-up: spinning between raises
    /// would take one of a 2-core machine's cores from the consumer and leave
    /// its share, and so the figures, to the scheduler.
    fn drive_flood(&self, until: Stop, round: &mut Round) -> Result<(), String> {
        let clock = self.cluster.telemetry();
        let consumer = self.targets[0];
        let interval = 1e9 / OFFER_PER_S as f64;
        let start = clock.now_ns();
        let mut k = 0u64;
        loop {
            let due = start + (k as f64 * interval) as u64;
            if until.done(k, due) {
                break;
            }
            let now = clock.now_ns();
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
                continue;
            }
            round.late.record(now - due);
            let payload = Value::Bytes(self.inputs.payload(due, k));
            self.cluster
                .raise_from(0, self.event.clone(), payload, consumer)
                .detach();
            if self.spans.on() {
                record(&self.spans.raise_call, clock.now_ns() - now);
            }
            round.attempted += 1;
            k += 1;
        }
        Ok(())
    }
}

/// What one driver thread saw.
#[derive(Debug, Default)]
struct Driven {
    latency: Windows,
    late: Hist,
    attempted: u64,
    failed: u64,
    issues: Vec<String>,
}

impl Driven {
    fn fail(&mut self, issue: String) {
        self.failed += 1;
        self.issues.push(issue);
    }
}

impl Round {
    fn fail(&mut self, issue: String) {
        self.failed += 1;
        self.issues.push(issue);
    }

    fn absorb(&mut self, o: Driven) {
        self.main.merge(&o.latency);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.issues.extend(o.issues);
    }
}

#[derive(Debug, Clone, Copy)]
enum Role {
    Echo,
    Fan,
    Burn,
}

/// The five-term delivery ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub requested: u64,
    pub delivered: u64,
    pub dead: u64,
    pub timeout: u64,
    pub lost: u64,
    pub overloaded: u64,
}

impl Ledger {
    pub fn of(m: &MetricsSnapshot) -> Ledger {
        let get = |n: &str| m.counters.get(n).copied().unwrap_or(0);
        Ledger {
            requested: get("delivery.requested"),
            delivered: get("delivery.delivered"),
            dead: get("delivery.dead"),
            timeout: get("delivery.timeout"),
            lost: get("delivery.lost"),
            overloaded: get("delivery.overloaded"),
        }
    }

    pub fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> Ledger {
        let (a, b) = (Ledger::of(after), Ledger::of(before));
        Ledger {
            requested: a.requested - b.requested,
            delivered: a.delivered - b.delivered,
            dead: a.dead - b.dead,
            timeout: a.timeout - b.timeout,
            lost: a.lost - b.lost,
            overloaded: a.overloaded - b.overloaded,
        }
    }

    pub fn balanced(&self) -> bool {
        self.requested == self.delivered + self.dead + self.timeout + self.lost + self.overloaded
    }
}

impl std::fmt::Display for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requested {} = delivered {} + dead {} + timeout {} + lost {} + overloaded {}",
            self.requested, self.delivered, self.dead, self.timeout, self.lost, self.overloaded
        )
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join_timeout(Duration::from_secs(10));
        }
        self.cluster.shutdown();
    }
}
