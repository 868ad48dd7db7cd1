//! The per-node kernel: mailbox loop, invocation workers, event routing
//! (with the three §7.1 thread locators), and object-event execution
//! (master handler thread or spawn-per-event, §4.3).

use crate::activation::Activation;
use crate::config::{KernelConfig, LocatorStrategy, ObjectEventExecution};
use crate::location_cache::LocationCache;
use crate::message::ReceiptVerdict;
use crate::shard_table::{shard_of, Insert, ShardedTable};
use crate::tcb::{TcbTable, Trail};
use crate::{ClassRegistry, DefaultDispatcher};
use crate::{
    Ctx, DeliveryStatus, EventDispatcher, EventName, GroupRegistry, KernelError, KernelMessage,
    Lane, ObjectDirectory, ObjectId, RaiseTarget, ThreadAttributes, ThreadId, Value, WireEvent,
};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use doct_dsm::{DsmMessage, DsmNode, DsmTransport};
use doct_net::{MessageClass, Network, NodeId};
use doct_telemetry::{RaiseVariant, Stage, Telemetry};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated console/terminal output, keyed by I/O channel name. A thread
/// carries its channel in its attributes, so output from *any* object it
/// visits lands in the right place (paper §3.1's `foo`/`bar` example).
#[derive(Debug, Default)]
pub struct IoHub {
    channels: Mutex<HashMap<String, Vec<String>>>,
}

impl IoHub {
    /// Fresh hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a line to `channel`.
    pub fn emit(&self, channel: &str, line: impl Into<String>) {
        self.channels
            .lock()
            .entry(channel.to_string())
            .or_default()
            .push(line.into());
    }

    /// All lines written to `channel` so far.
    pub fn lines(&self, channel: &str) -> Vec<String> {
        self.channels
            .lock()
            .get(channel)
            .cloned()
            .unwrap_or_default()
    }
}

/// Per-node kernel statistics.
#[derive(Debug, Default)]
pub struct KernelStats {
    /// Invocations executed on this node.
    pub local_invocations: AtomicU64,
    /// Invocation requests sent to other nodes.
    pub remote_invocations: AtomicU64,
    /// Events enqueued for threads on this node.
    pub thread_events: AtomicU64,
    /// Object events executed by a spawned thread.
    pub object_events_spawned: AtomicU64,
    /// Object events executed by the master handler thread.
    pub object_events_master: AtomicU64,
}

/// Reply channel for one in-flight remote invocation: the entry result
/// plus the thread's attributes coming home.
type InvokeReplySender = Sender<(Result<Value, KernelError>, ThreadAttributes)>;

/// One in-flight remote invocation: its reply channel and the peer it is
/// waiting on, so the death watcher can fail every call to a dead node by
/// dropping the senders (the callers' `recv` wakes with `Disconnected`).
struct PendingCall {
    tx: InvokeReplySender,
    home: NodeId,
}

struct DeliveryTracker {
    event: WireEvent,
    target: ThreadId,
    outstanding: usize,
    attempts_left: u32,
    /// Set once the final anchor attempt has been sent.
    anchored: bool,
    deadline: Instant,
    /// An outstanding unicast hint probe: the hinted node, the cache
    /// generation that was probed (so only that entry is invalidated on
    /// disproof), and the deadline after which the delivery stops waiting
    /// for the hint and falls back to the full locator wave.
    hint: Option<(NodeId, u64, Instant)>,
    /// The hint fast path has been tried for this delivery; retries go
    /// straight to the locator wave.
    hint_spent: bool,
    result_tx: Sender<DeliveryStatus>,
}

/// The kernel loop's own sends while it handles the payloads of one
/// delivered wire batch (DESIGN.md §3d). Receipts, trail forwards and
/// anchor sends collect per destination and leave as one `send_many`
/// each after the batch's last payload, so a batch's answers ride back
/// as a batch. Outside a batch (`collecting` false) every send is
/// immediate.
#[derive(Default)]
struct Outbox {
    collecting: bool,
    per_dst: BTreeMap<NodeId, Vec<(MessageClass, KernelMessage)>>,
}

/// What the location cache made of a delivery's first probe.
enum HintProbe {
    /// No usable hint: probe with the locator wave.
    Miss,
    /// Hint armed on the tracker: probe this node alone.
    Armed(NodeId),
    /// Resolved without a probe (shed at the source), or the tracker is
    /// already gone.
    Settled,
}

/// A pending receipt set for one raise; resolves to a
/// [`DeliverySummary`].
#[must_use = "receipts resolve asynchronously: wait() for the summary or detach() explicitly"]
#[derive(Debug)]
pub struct RaiseTicket {
    receivers: Vec<Receiver<DeliveryStatus>>,
    timeout: Duration,
}

/// Aggregate outcome of a raise (one entry per targeted thread; objects
/// resolve to a single entry).
#[must_use = "the summary is the only record of dead/timed-out/lost recipients"]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliverySummary {
    /// Number of recipients the event reached.
    pub delivered: usize,
    /// Recipients that no longer exist (§7.2 dead-target notification).
    pub dead: usize,
    /// Recipients whose receipt never arrived.
    pub timed_out: usize,
    /// Recipients whose tracking kernel vanished before resolving the
    /// receipt (node shutdown mid-raise) — not a delivery timeout.
    pub lost: usize,
    /// Recipients whose bounded mailbox shed the event (admission
    /// control said no; the raise was *not* silently dropped).
    pub overloaded: usize,
    /// Nodes where delivery happened.
    pub nodes: Vec<NodeId>,
}

impl DeliverySummary {
    /// True if every recipient got the event.
    pub fn all_delivered(&self) -> bool {
        self.dead == 0 && self.timed_out == 0 && self.lost == 0 && self.overloaded == 0
    }
}

impl RaiseTicket {
    /// Block until every receipt resolves and summarize.
    pub fn wait(self) -> DeliverySummary {
        parking_lot::lockdep::blocking_point("kernel::RaiseTicket::wait");
        let mut summary = DeliverySummary::default();
        let deadline = Instant::now() + self.timeout + Duration::from_secs(1);
        for rx in self.receivers {
            let now = Instant::now();
            let remaining = deadline.saturating_duration_since(now);
            match rx.recv_timeout(remaining) {
                Ok(DeliveryStatus::Delivered(n)) => {
                    summary.delivered += 1;
                    summary.nodes.push(n);
                }
                Ok(DeliveryStatus::TargetDead) => summary.dead += 1,
                Ok(DeliveryStatus::Timeout) => summary.timed_out += 1,
                Ok(DeliveryStatus::Overloaded(_)) => summary.overloaded += 1,
                // A disconnected receipt channel means the tracking
                // kernel is gone, not that delivery timed out.
                Ok(DeliveryStatus::Lost) | Err(_) => summary.lost += 1,
            }
        }
        summary
    }

    /// Fire-and-forget: drop the receipts.
    pub fn detach(self) {}

    /// Take the raw receipt receivers (one per targeted thread).
    pub fn into_receivers(self) -> Vec<Receiver<DeliveryStatus>> {
        self.receivers
    }

    /// Pre-resolved ticket; `timeout` is the facility's configured raise
    /// timeout so waiters on already-settled receipts behave like every
    /// other waiter.
    fn immediate(status: DeliveryStatus, timeout: Duration) -> Self {
        let (tx, rx) = bounded(1);
        let _ = tx.send(status);
        RaiseTicket {
            receivers: vec![rx],
            timeout,
        }
    }
}

struct KernelDsmTransport {
    net: Arc<Network<KernelMessage>>,
}

impl DsmTransport for KernelDsmTransport {
    fn send(&self, from: NodeId, to: NodeId, msg: DsmMessage) {
        let _ = self
            .net
            .send(from, to, KernelMessage::Dsm(msg), MessageClass::Dsm);
    }
}

/// One node of the DO/CT cluster.
pub struct NodeKernel {
    node: NodeId,
    config: KernelConfig,
    net: Arc<Network<KernelMessage>>,
    dsm: DsmNode,
    directory: Arc<ObjectDirectory>,
    classes: Arc<ClassRegistry>,
    groups: Arc<GroupRegistry>,
    io: Arc<IoHub>,
    dispatcher: RwLock<Arc<dyn EventDispatcher>>,
    activations: Mutex<HashMap<ThreadId, (Arc<Activation>, u32)>>,
    tcbs: TcbTable,
    pending_calls: Mutex<HashMap<u64, PendingCall>>,
    deliveries: ShardedTable<DeliveryTracker>,
    /// Last known location of recently targeted threads (unicast fast
    /// path for `send_probes`); `None` when disabled by config.
    location_cache: Option<LocationCache>,
    next_id: AtomicU64,
    next_thread_seq: AtomicU64,
    next_object_seq: AtomicU64,
    object_event_tx: Sender<(ObjectId, WireEvent)>,
    object_event_rx: Mutex<Option<Receiver<(ObjectId, WireEvent)>>>,
    shutdown: AtomicBool,
    stats: KernelStats,
    telemetry: Arc<Telemetry>,
    self_ref: Mutex<Option<std::sync::Weak<NodeKernel>>>,
    timer_tx: Mutex<Option<Sender<TimerCmd>>>,
}

/// Commands for the cluster timer service (§6.2 periodic TIMER events and
/// one-shot ALARM events).
#[derive(Debug)]
pub enum TimerCmd {
    /// Register a timer for `thread`.
    Register {
        /// Target thread.
        thread: ThreadId,
        /// Timer id (for cancellation).
        id: u64,
        /// Firing period (or delay, for one-shot alarms).
        period: Duration,
        /// Payload delivered with each event.
        payload: Value,
        /// Event name to raise (TIMER for periodic, ALARM for one-shot).
        event: EventName,
        /// Fire once and unregister.
        one_shot: bool,
    },
    /// Cancel one timer.
    Cancel {
        /// Target thread.
        thread: ThreadId,
        /// Timer id.
        id: u64,
    },
    /// Cancel every timer of a (dead) thread.
    CancelThread(ThreadId),
    /// Stop the timer service.
    Shutdown,
}

impl fmt::Debug for NodeKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeKernel")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl NodeKernel {
    /// Construct a node kernel. The caller (the cluster builder) starts
    /// the kernel loop and master handler thread via
    /// [`NodeKernel::start`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node: NodeId,
        config: KernelConfig,
        net: Arc<Network<KernelMessage>>,
        directory: Arc<ObjectDirectory>,
        classes: Arc<ClassRegistry>,
        groups: Arc<GroupRegistry>,
        io: Arc<IoHub>,
        dsm_config: doct_dsm::DsmConfig,
        telemetry: Arc<Telemetry>,
    ) -> Arc<Self> {
        let transport = Arc::new(KernelDsmTransport {
            net: Arc::clone(&net),
        });
        let (oe_tx, oe_rx) = unbounded();
        let kernel = Arc::new(NodeKernel {
            node,
            config,
            dsm: DsmNode::with_stats(
                node,
                dsm_config,
                transport,
                doct_dsm::DsmNodeStats::bound(telemetry.registry(), node),
            ),
            net,
            directory,
            classes,
            groups,
            io,
            dispatcher: RwLock::new(Arc::new(DefaultDispatcher)),
            activations: Mutex::new(HashMap::new()),
            tcbs: TcbTable::new(),
            pending_calls: Mutex::new(HashMap::new()),
            deliveries: ShardedTable::new(telemetry.counter("kernel.shard_contention")),
            location_cache: config
                .location_cache
                .enabled
                .then(|| LocationCache::new(config.location_cache, telemetry.registry())),
            next_id: AtomicU64::new(1),
            next_thread_seq: AtomicU64::new(1),
            next_object_seq: AtomicU64::new(1),
            object_event_tx: oe_tx,
            object_event_rx: Mutex::new(Some(oe_rx)),
            shutdown: AtomicBool::new(false),
            stats: KernelStats::default(),
            telemetry,
            self_ref: Mutex::new(None),
            timer_tx: Mutex::new(None),
        });
        *kernel.self_ref.lock() = Some(Arc::downgrade(&kernel));
        kernel
    }

    fn me(&self) -> Arc<NodeKernel> {
        self.self_ref
            .lock()
            .as_ref()
            .and_then(|w| w.upgrade())
            .expect("kernel alive")
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Cluster configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// This node's DSM engine.
    pub fn dsm(&self) -> &DsmNode {
        &self.dsm
    }

    /// The network fabric.
    pub fn net(&self) -> &Arc<Network<KernelMessage>> {
        &self.net
    }

    /// Cluster object directory.
    pub fn directory(&self) -> &Arc<ObjectDirectory> {
        &self.directory
    }

    /// Cluster class registry.
    pub fn classes(&self) -> &Arc<ClassRegistry> {
        &self.classes
    }

    /// Cluster thread-group registry.
    pub fn groups(&self) -> &Arc<GroupRegistry> {
        &self.groups
    }

    /// Simulated console hub.
    pub fn io(&self) -> &Arc<IoHub> {
        &self.io
    }

    /// Kernel statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The cluster-shared telemetry hub (metrics + lifecycle traces).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Record one lifecycle stage of event `seq` on this node.
    fn trace(&self, seq: u64, stage: Stage) {
        self.telemetry
            .trace(seq, stage, u64::from(self.node.0), RaiseVariant::None);
    }

    /// Account one shed event at this node: the overall `kernel.shed_total`
    /// plus the per-lane counter E13 breaks excess down by.
    fn record_shed(&self, lane: Lane) {
        self.telemetry.counter("kernel.shed_total").inc();
        self.telemetry.counter(&format!("kernel.shed_{lane}")).inc();
    }

    /// Trace + measure acceptance of a thread-targeted event at this
    /// node's delivery point (raise-to-deliver latency).
    fn record_thread_delivery(&self, event: &WireEvent) {
        self.trace(event.seq, Stage::Deliver);
        self.telemetry
            .histogram("event.deliver_latency_ns")
            .record_ns(self.telemetry.now_ns().saturating_sub(event.t_raise_ns));
    }

    /// Thread-control-block table (inspection).
    pub fn tcbs(&self) -> &TcbTable {
        &self.tcbs
    }

    /// This node's thread-location hint cache, when enabled.
    pub fn location_cache(&self) -> Option<&LocationCache> {
        self.location_cache.as_ref()
    }

    /// Install the event facility's dispatcher (all nodes usually share
    /// one `Arc`).
    pub fn set_dispatcher(&self, dispatcher: Arc<dyn EventDispatcher>) {
        *self.dispatcher.write() = dispatcher;
    }

    /// Current dispatcher.
    pub fn dispatcher(&self) -> Arc<dyn EventDispatcher> {
        self.dispatcher.read().clone()
    }

    /// Allocate a cluster-unique id (call ids, delivery ids, event seqs).
    pub fn next_seq(&self) -> u64 {
        ((self.node.0 as u64) << 40) | self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a thread id rooted at this node.
    pub fn new_thread_id(&self) -> ThreadId {
        ThreadId::new(
            self.node,
            self.next_thread_seq.fetch_add(1, Ordering::Relaxed) as u32,
        )
    }

    /// Allocate an object id homed at this node.
    pub fn new_object_id(&self) -> ObjectId {
        ObjectId::new(
            self.node,
            self.next_object_seq.fetch_add(1, Ordering::Relaxed) as u32,
        )
    }

    /// Ensure future object ids are allocated above `seq` (used when
    /// importing persistent objects so ids never collide).
    pub fn reserve_object_seq(&self, seq: u64) {
        self.next_object_seq.fetch_max(seq + 1, Ordering::Relaxed);
    }

    /// The activation of `thread` on this node, if present.
    pub fn activation(&self, thread: ThreadId) -> Option<Arc<Activation>> {
        self.activations.lock().get(&thread).map(|(a, _)| a.clone())
    }

    /// Number of live activations (diagnostics; E6's orphan check).
    pub fn activation_count(&self) -> usize {
        self.activations.lock().len()
    }

    // ------------------------------------------------------------------
    // Kernel loop
    // ------------------------------------------------------------------

    /// Start the kernel loop and (if configured) the master handler
    /// thread. Returns the loop join handles.
    pub fn start(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        let mut handles = Vec::new();
        let rx = self
            .net
            .take_mailbox(self.node)
            .expect("node mailbox taken once");
        // Dead-peer fast-fail for `call_remote`: when the failure detector
        // declares a peer dead, drop the reply senders of every call
        // waiting on it, so those callers wake immediately (receipt-style
        // wait — no poll slices). Fires only if reliability is enabled;
        // otherwise no heartbeat round ever runs.
        let weak = Arc::downgrade(self);
        let me = self.node;
        self.net.add_death_watcher(move |observer, peer| {
            if observer == me {
                if let Some(kernel) = weak.upgrade() {
                    kernel.fail_pending_calls_to(peer);
                }
            }
        });
        let k = Arc::clone(self);
        handles.push(
            std::thread::Builder::new()
                .name(format!("kernel-loop-{}", self.node))
                .spawn(move || k.run_loop(rx))
                .expect("spawn kernel loop"),
        );
        if self.config.object_events == ObjectEventExecution::Master {
            let rx = self
                .object_event_rx
                .lock()
                .take()
                .expect("master queue taken once");
            let k = Arc::clone(self);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("master-handler-{}", self.node))
                    .spawn(move || k.run_master(rx))
                    .expect("spawn master handler"),
            );
        }
        handles
    }

    fn run_loop(self: Arc<Self>, rx: Receiver<doct_net::Envelope<KernelMessage>>) {
        const SWEEP_EVERY: Duration = Duration::from_millis(50);
        // Sweep on a deadline, not only when the mailbox goes quiet:
        // under sustained inbound traffic `recv_timeout` never expires,
        // and delivery retries/timeouts (and hint fallbacks) would starve.
        let mut next_sweep = Instant::now() + SWEEP_EVERY;
        let mut outbox = Outbox::default();
        loop {
            let now = Instant::now();
            if now >= next_sweep {
                // Backstop: a batch whose last payload never came strands
                // nothing for longer than one sweep.
                self.flush_outbox(&mut outbox);
                if self.shutdown.load(Ordering::Relaxed) {
                    self.drain_deliveries_as_lost();
                    return;
                }
                self.sweep_deliveries();
                next_sweep = now + SWEEP_EVERY;
            }
            let wait = next_sweep.saturating_duration_since(Instant::now());
            match rx.recv_timeout(wait) {
                Ok(env) => {
                    if matches!(env.payload, KernelMessage::Shutdown) {
                        self.flush_outbox(&mut outbox);
                        self.shutdown.store(true, Ordering::Relaxed);
                        self.drain_deliveries_as_lost();
                        return;
                    }
                    // The fabric stamps each payload of a delivered batch
                    // with the count still to come: collect the batch's
                    // answers and send them after its last payload.
                    outbox.collecting |= env.batch_left > 0;
                    self.handle(env.payload, env.src, &mut outbox);
                    if env.batch_left == 0 {
                        self.flush_outbox(&mut outbox);
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    self.flush_outbox(&mut outbox);
                    self.drain_deliveries_as_lost();
                    return;
                }
            }
        }
    }

    /// Send a `Locate`-class message on the loop's behalf: into `out`
    /// while it collects a batch's answers, straight to the fabric
    /// otherwise.
    fn send_locate(&self, out: &mut Outbox, dst: NodeId, msg: KernelMessage) {
        if out.collecting {
            out.per_dst
                .entry(dst)
                .or_default()
                .push((MessageClass::Locate, msg));
        } else {
            let _ = self.net.send(self.node, dst, msg, MessageClass::Locate);
        }
    }

    /// Send everything `out` collected, one `send_many` per destination,
    /// and stop collecting.
    fn flush_outbox(&self, out: &mut Outbox) {
        out.collecting = false;
        for (dst, items) in std::mem::take(&mut out.per_dst) {
            let _ = self.net.send_many(self.node, dst, items);
        }
    }

    /// Resolve every in-flight delivery as [`DeliveryStatus::Lost`] when
    /// the kernel loop exits: nobody will process receipts after this
    /// point, so leaving trackers behind would strand raisers until their
    /// waiter timeout with a misleading `timed_out` verdict. Marks the
    /// table draining first, so a raiser thread racing this drain has its
    /// insert refused and resolves the tracker as `Lost` itself instead
    /// of stranding it (the `sharded-table-drain` model covers the race).
    fn drain_deliveries_as_lost(&self) {
        for t in self.deliveries.drain() {
            self.telemetry.counter("delivery.lost").inc();
            let _ = t.result_tx.send(DeliveryStatus::Lost);
        }
    }

    fn run_master(self: Arc<Self>, rx: Receiver<(ObjectId, WireEvent)>) {
        loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok((object, event)) => {
                    self.stats
                        .object_events_master
                        .fetch_add(1, Ordering::Relaxed);
                    self.run_object_event(object, event);
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    if self.shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Ask the loop (and master thread) to exit.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    fn handle(self: &Arc<Self>, msg: KernelMessage, src: NodeId, out: &mut Outbox) {
        match msg {
            KernelMessage::Invoke {
                call_id,
                reply_to,
                object,
                entry,
                args,
                attrs,
                depth,
            } => self.handle_invoke(call_id, reply_to, object, entry, args, attrs, depth),
            KernelMessage::InvokeReply {
                call_id,
                result,
                attrs,
            } => {
                // Bind before sending: an `if let` scrutinee keeps the
                // `pending_calls` guard alive for the whole block.
                let pending = self.pending_calls.lock().remove(&call_id);
                if let Some(p) = pending {
                    let _ = p.tx.send((result, attrs));
                }
            }
            KernelMessage::Dsm(m) => self.dsm.handle_message(m),
            KernelMessage::DeliverThread {
                event,
                target,
                origin,
                delivery_id,
                hops,
                anchor,
                hinted,
            } => self.handle_deliver_thread(
                event,
                target,
                origin,
                delivery_id,
                hops,
                anchor,
                hinted,
                out,
            ),
            KernelMessage::DeliverReceipt {
                delivery_id,
                verdict,
            } => self.handle_receipt(delivery_id, verdict, out),
            KernelMessage::DeliverObject { event, object } => {
                self.enqueue_object_event(object, event)
            }
            KernelMessage::SyncResume {
                seq,
                raiser,
                verdict,
            } => {
                if let Some(act) = self.activation(raiser) {
                    act.push_sync_result(seq, verdict);
                }
            }
            KernelMessage::Shutdown => {}
        }
        let _ = src;
    }

    // ------------------------------------------------------------------
    // Invocations
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_invoke(
        self: &Arc<Self>,
        call_id: u64,
        reply_to: NodeId,
        object: ObjectId,
        entry: String,
        args: Value,
        attrs: ThreadAttributes,
        depth: u32,
    ) {
        let kernel = self.me();
        std::thread::Builder::new()
            .name(format!("worker-{}-{}", self.node, call_id))
            .spawn(move || {
                let thread = attrs.thread;
                let activation = kernel.checkin(attrs);
                kernel.tcbs.arrive(thread, depth, Some(reply_to));
                let result = kernel.execute_local(&activation, object, &entry, args, depth);
                let attrs_back = activation.attributes_snapshot();
                kernel.tcbs.leave(thread);
                kernel.checkout(thread);
                let _ = kernel.net.send(
                    kernel.node,
                    reply_to,
                    KernelMessage::InvokeReply {
                        call_id,
                        result,
                        attrs: attrs_back,
                    },
                    MessageClass::Invocation,
                );
            })
            .expect("spawn invocation worker");
    }

    /// Register (or re-enter) the thread's activation on this node.
    pub fn checkin(&self, attrs: ThreadAttributes) -> Arc<Activation> {
        let thread = attrs.thread;
        let mut acts = self.activations.lock();
        match acts.get_mut(&thread) {
            Some((act, sessions)) => {
                *sessions += 1;
                // The arriving copy is the freshest version of the
                // travelling record.
                act.with_attributes(|a| *a = attrs);
                act.clone()
            }
            None => {
                let act = Arc::new(Activation::with_mailbox(attrs, self.config.mailbox));
                acts.insert(thread, (act.clone(), 1));
                drop(acts);
                self.net
                    .multicast_registry()
                    .join(thread.multicast_group(), self.node);
                act
            }
        }
    }

    /// Drop one session; removes the activation when none remain.
    pub fn checkout(&self, thread: ThreadId) {
        let mut acts = self.activations.lock();
        if let Some((_, sessions)) = acts.get_mut(&thread) {
            *sessions -= 1;
            if *sessions == 0 {
                acts.remove(&thread);
                drop(acts);
                self.net
                    .multicast_registry()
                    .leave(thread.multicast_group(), self.node);
            }
        }
    }

    /// Execute an entry point locally: frame push, delivery points at the
    /// boundaries, panic containment.
    pub fn execute_local(
        self: &Arc<Self>,
        activation: &Arc<Activation>,
        object: ObjectId,
        entry: &str,
        args: Value,
        depth: u32,
    ) -> Result<Value, KernelError> {
        self.stats.local_invocations.fetch_add(1, Ordering::Relaxed);
        let record = self
            .directory
            .get(object)
            .ok_or(KernelError::UnknownObject(object))?;
        let behavior = self
            .classes
            .get(&record.class)
            .ok_or_else(|| KernelError::UnknownClass(record.class.clone()))?;
        activation.lock().stack.push(crate::activation::Frame {
            object,
            entry: entry.to_string(),
            depth,
        });
        let mut ctx = Ctx::new(self.me(), Arc::clone(activation));
        // Delivery point at invocation entry.
        let mut result = ctx.poll_events().and_then(|()| {
            record.run_exclusive(|| {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    behavior.dispatch(&mut ctx, entry, args)
                }));
                match outcome {
                    Ok(r) => r,
                    Err(p) => Err(KernelError::InvocationFailed(panic_text(p))),
                }
            })
        });
        // Delivery point at invocation exit (even on error).
        if let Err(e) = ctx.poll_events() {
            result = Err(e);
        }
        activation.lock().stack.pop();
        result
    }

    /// Synchronously run an invocation at a remote home node, shipping the
    /// thread's attributes there and back.
    pub fn call_remote(
        &self,
        home: NodeId,
        object: ObjectId,
        entry: &str,
        args: Value,
        attrs: ThreadAttributes,
        depth: u32,
    ) -> Result<(Result<Value, KernelError>, ThreadAttributes), KernelError> {
        parking_lot::lockdep::blocking_point("kernel::call_remote");
        self.stats
            .remote_invocations
            .fetch_add(1, Ordering::Relaxed);
        let call_id = self.next_seq();
        let (tx, rx) = bounded(1);
        self.pending_calls
            .lock()
            .insert(call_id, PendingCall { tx, home });
        let sent = self
            .net
            .send(
                self.node,
                home,
                KernelMessage::Invoke {
                    call_id,
                    reply_to: self.node,
                    object,
                    entry: entry.to_string(),
                    args,
                    attrs,
                    depth,
                },
                MessageClass::Invocation,
            )
            .map_err(|e| KernelError::InvalidArgument(e.to_string()))?;
        if !sent.is_sent() {
            self.pending_calls.lock().remove(&call_id);
            return Err(KernelError::Timeout(format!(
                "invoke {object}::{entry}: link to {home} down"
            )));
        }
        // With the reliability layer on, the failure detector resolves
        // this wait early: the death watcher (registered in `start`)
        // drops our reply sender the moment it declares `home` dead, so
        // the recv below wakes with `Disconnected` within one heartbeat
        // round of the verdict — no poll slices, no latency quantization.
        // The call was registered *before* this check, so a death verdict
        // landing between the two is seen by exactly one side.
        if self.net.reliability_enabled() {
            if self.net.peer_state(self.node, home) == Some(doct_net::PeerState::Dead) {
                self.pending_calls.lock().remove(&call_id);
                return Err(KernelError::NodeUnreachable(home));
            }
            return match rx.recv_timeout(self.config.invoke_timeout) {
                Ok(pair) => Ok(pair),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    self.pending_calls.lock().remove(&call_id);
                    Err(KernelError::Timeout(format!(
                        "invoke {object}::{entry} on {home}"
                    )))
                }
                // Only the death watcher drops a registered sender.
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    Err(KernelError::NodeUnreachable(home))
                }
            };
        }
        match rx.recv_timeout(self.config.invoke_timeout) {
            Ok(pair) => Ok(pair),
            Err(_) => {
                self.pending_calls.lock().remove(&call_id);
                Err(KernelError::Timeout(format!(
                    "invoke {object}::{entry} on {home}"
                )))
            }
        }
    }

    /// Fail every in-flight remote call waiting on `peer`: remove the
    /// pending entries under the lock, then drop the reply senders after
    /// it is released so each caller's `recv` wakes with `Disconnected`
    /// and resolves as `NodeUnreachable` immediately.
    fn fail_pending_calls_to(&self, peer: NodeId) {
        let dropped: Vec<InvokeReplySender> = {
            let mut calls = self.pending_calls.lock();
            let ids: Vec<u64> = calls
                .iter()
                .filter(|(_, p)| p.home == peer)
                .map(|(id, _)| *id)
                .collect();
            ids.into_iter()
                .filter_map(|id| calls.remove(&id))
                .map(|p| p.tx)
                .collect()
        };
        self.telemetry
            .counter("kernel.calls_failed_fast")
            .add(dropped.len() as u64);
        drop(dropped);
    }

    // ------------------------------------------------------------------
    // Logical thread spawning
    // ------------------------------------------------------------------

    /// Run `body` as a logical thread rooted on this node. Returns the
    /// receiver for the thread's result.
    pub fn spawn_logical(
        self: &Arc<Self>,
        attrs: ThreadAttributes,
        body: impl FnOnce(&mut Ctx) -> Result<Value, KernelError> + Send + 'static,
    ) -> Receiver<Result<Value, KernelError>> {
        let kernel = self.me();
        let (tx, rx) = bounded(1);
        let thread = attrs.thread;
        if let Some(g) = attrs.group {
            self.groups.join(g, thread);
        }
        std::thread::Builder::new()
            .name(format!("logical-{thread}"))
            .spawn(move || {
                let activation = kernel.checkin(attrs);
                kernel.tcbs.arrive(thread, 0, None);
                let mut ctx = Ctx::new(Arc::clone(&kernel), Arc::clone(&activation));
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
                let mut result = match outcome {
                    Ok(r) => r,
                    Err(p) => Err(KernelError::InvocationFailed(panic_text(p))),
                };
                // Final delivery point: run any straggler events (e.g. a
                // TERMINATE that arrived at the very end).
                if let Err(e) = ctx.poll_events() {
                    if result.is_ok() {
                        result = Err(e);
                    }
                }
                let group = activation.lock().attributes.group;
                kernel.tcbs.leave(thread);
                kernel.checkout(thread);
                // The thread no longer exists anywhere: drop its location
                // hint so later raises from this node fail fast to the
                // wave (remote caches self-correct via "not here").
                if let Some(cache) = &kernel.location_cache {
                    cache.invalidate(thread);
                }
                if let Some(g) = group {
                    kernel.groups.leave(g, thread);
                }
                let _ = tx.send(result);
            })
            .expect("spawn logical thread");
        rx
    }

    // ------------------------------------------------------------------
    // Event routing
    // ------------------------------------------------------------------

    /// Raise an event: the kernel-level primitive behind both `raise` and
    /// `raise_and_wait` (§5.3). Returns the receipt ticket and the event
    /// seq (the rendezvous key for synchronous raises).
    pub fn raise_event(
        self: &Arc<Self>,
        name: EventName,
        payload: Value,
        target: RaiseTarget,
        sync: bool,
        raiser: Option<&Arc<Activation>>,
    ) -> (RaiseTicket, u64) {
        let seq = self.next_seq();
        let variant = match (&target, sync) {
            (RaiseTarget::Thread(_), false) => RaiseVariant::ThreadAsync,
            (RaiseTarget::Thread(_), true) => RaiseVariant::ThreadSync,
            (RaiseTarget::Group(_), false) => RaiseVariant::GroupAsync,
            (RaiseTarget::Group(_), true) => RaiseVariant::GroupSync,
            (RaiseTarget::Object(_), false) => RaiseVariant::ObjectAsync,
            (RaiseTarget::Object(_), true) => RaiseVariant::ObjectSync,
        };
        self.telemetry
            .trace(seq, Stage::Raise, u64::from(self.node.0), variant);
        self.telemetry.counter("event.raises").inc();
        let t_raise_ns = self.telemetry.now_ns();
        // Timer-lane events carry a usefulness deadline: past it the tick
        // is stale (the next one supersedes it), before it a near-deadline
        // tick jumps the USER lane at the target's mailbox.
        let deadline_ns = (Lane::classify(&name) == Lane::Timer).then(|| {
            t_raise_ns.saturating_add(
                self.config
                    .mailbox
                    .timer_deadline
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64,
            )
        });
        let event = WireEvent {
            name,
            payload,
            raiser: raiser.map(|a| a.thread),
            raiser_node: self.node,
            seq,
            sync,
            t_raise_ns,
            attrs: raiser.map(|a| a.attributes_snapshot()),
            deadline_ns,
        };
        let ticket = match target {
            RaiseTarget::Object(object) => {
                self.telemetry.counter("delivery.requested").inc();
                self.raise_to_object(object, event)
            }
            RaiseTarget::Thread(thread) => {
                self.telemetry.counter("delivery.requested").inc();
                RaiseTicket {
                    receivers: vec![self.start_thread_delivery(thread, event)],
                    timeout: self.config.delivery_timeout,
                }
            }
            RaiseTarget::Group(group) => {
                let members = self.groups.members(group);
                self.telemetry
                    .counter("delivery.requested")
                    .add(members.len() as u64);
                RaiseTicket {
                    receivers: self.start_group_deliveries(members, event),
                    timeout: self.config.delivery_timeout,
                }
            }
        };
        (ticket, seq)
    }

    fn raise_to_object(self: &Arc<Self>, object: ObjectId, event: WireEvent) -> RaiseTicket {
        let Some(record) = self.directory.get(object) else {
            self.telemetry.counter("delivery.dead").inc();
            return RaiseTicket::immediate(
                DeliveryStatus::TargetDead,
                self.config.delivery_timeout,
            );
        };
        self.trace(event.seq, Stage::Route);
        // Source shedding: a recent receipt said the home node's mailboxes
        // are overloaded, so don't even put a sheddable raise on the wire.
        let lane = Lane::classify(&event.name);
        if lane.sheddable() && record.home != self.node && self.net.peer_pressured(record.home) {
            self.record_shed(lane);
            self.telemetry.counter("kernel.shed_at_source").inc();
            self.telemetry.counter("delivery.overloaded").inc();
            return RaiseTicket::immediate(
                DeliveryStatus::Overloaded(record.home),
                self.config.delivery_timeout,
            );
        }
        if record.home == self.node {
            self.enqueue_object_event(object, event);
        } else {
            self.trace(event.seq, Stage::Send);
            let _ = self.net.send(
                self.node,
                record.home,
                KernelMessage::DeliverObject { event, object },
                MessageClass::Event,
            );
        }
        self.telemetry.counter("delivery.delivered").inc();
        RaiseTicket::immediate(
            DeliveryStatus::Delivered(record.home),
            self.config.delivery_timeout,
        )
    }

    /// Begin locating `thread` and delivering `event` to its tip.
    fn start_thread_delivery(
        self: &Arc<Self>,
        thread: ThreadId,
        event: WireEvent,
    ) -> Receiver<DeliveryStatus> {
        self.start_group_deliveries(vec![thread], event)
            .pop()
            .expect("one receiver per target")
    }

    /// Begin delivering `event` to every thread in `targets`, returning
    /// one status receiver per target, in order. Local tips are served
    /// inline; the remaining targets are registered as trackers and then
    /// probed in one destination-sorted wave — hinted and locator-wave
    /// probes alike — so a group raise hands the transport all
    /// co-destined probes together: one wire batch per destination
    /// (DESIGN.md §3d), warm or cold.
    fn start_group_deliveries(
        self: &Arc<Self>,
        targets: Vec<ThreadId>,
        event: WireEvent,
    ) -> Vec<Receiver<DeliveryStatus>> {
        let mut receivers = Vec::with_capacity(targets.len());
        let mut wave = Vec::new();
        for thread in targets {
            let (tx, rx) = bounded(1);
            receivers.push(rx);
            self.trace(event.seq, Stage::Route);
            // Fast path: tip is on this node.
            if self.tcbs.trail(thread) == Trail::TipHere {
                if let Some(act) = self.activation(thread) {
                    self.stats.thread_events.fetch_add(1, Ordering::Relaxed);
                    match act.push_event(event.clone()) {
                        crate::Admission::Stored => {
                            self.record_thread_delivery(&event);
                            self.telemetry.counter("delivery.delivered").inc();
                            let _ = tx.send(DeliveryStatus::Delivered(self.node));
                        }
                        crate::Admission::Shed(lane) => {
                            self.record_shed(lane);
                            self.telemetry.counter("delivery.overloaded").inc();
                            let _ = tx.send(DeliveryStatus::Overloaded(self.node));
                        }
                    }
                    continue;
                }
            }
            let delivery_id = self.next_seq();
            let tracker = DeliveryTracker {
                event: event.clone(),
                target: thread,
                outstanding: 0,
                attempts_left: self.config.delivery_retries,
                anchored: false,
                deadline: Instant::now() + self.config.delivery_timeout,
                hint: None,
                hint_spent: false,
                result_tx: tx,
            };
            match self.deliveries.insert(delivery_id, tracker) {
                Insert::Admitted => wave.push(delivery_id),
                // The kernel loop is draining (shutdown): nobody will ever
                // resolve this tracker, so resolve it as Lost right here —
                // the other half of the drain-vs-insert race.
                Insert::Draining(t) => {
                    self.telemetry.counter("delivery.lost").inc();
                    let _ = t.result_tx.send(DeliveryStatus::Lost);
                }
            }
        }
        if !wave.is_empty() {
            self.send_probe_wave(&wave);
        }
        receivers
    }

    /// Send the probe wave for one registered delivery (initial or retry).
    fn send_probes(self: &Arc<Self>, delivery_id: u64) {
        self.send_probe_wave(&[delivery_id]);
    }

    /// Send probe waves for a set of registered deliveries — or, per
    /// delivery on its first attempt, a single fast-path probe to the
    /// node the location cache hints at. All probes, hinted and waved,
    /// are grouped by destination node (sorted, so fan-out order is
    /// deterministic) and handed to [`Network::send_many`], which seals
    /// co-destined probes into one wire batch.
    fn send_probe_wave(self: &Arc<Self>, delivery_ids: &[u64]) {
        // Per destination: (delivery id, hinted, probe).
        let mut per_dst: BTreeMap<NodeId, Vec<(u64, bool, KernelMessage)>> = BTreeMap::new();
        // PathTrace deliveries rooted here run without a wire hop; they
        // are processed after aggregation so the recursive handling never
        // overlaps the bookkeeping below.
        let mut inline_root = Vec::new();
        let mut waved = Vec::with_capacity(delivery_ids.len());
        for &delivery_id in delivery_ids {
            let Some((event, target, try_hint)) = self
                .deliveries
                .with_mut(delivery_id, |t| (t.event.clone(), t.target, !t.hint_spent))
            else {
                continue;
            };
            if try_hint {
                match self.arm_hint_probe(delivery_id, &event, target) {
                    HintProbe::Miss => {}
                    HintProbe::Settled => continue,
                    HintProbe::Armed(node) => {
                        self.trace(event.seq, Stage::Send);
                        self.net.stats().record_hint_unicast();
                        let probe = KernelMessage::DeliverThread {
                            event,
                            target,
                            origin: self.node,
                            delivery_id,
                            hops: 0,
                            anchor: false,
                            hinted: true,
                        };
                        per_dst
                            .entry(node)
                            .or_default()
                            .push((delivery_id, true, probe));
                        continue;
                    }
                }
            }
            self.trace(event.seq, Stage::Send);
            if self.config.locator == LocatorStrategy::PathTrace && target.root == self.node {
                inline_root.push((delivery_id, event, target));
                continue;
            }
            let probe = KernelMessage::DeliverThread {
                event,
                target,
                origin: self.node,
                delivery_id,
                hops: 0,
                anchor: false,
                hinted: false,
            };
            match self.config.locator {
                LocatorStrategy::Broadcast => {
                    self.net.stats().record_broadcast();
                    for dst in self.net.nodes() {
                        if dst != self.node {
                            per_dst.entry(dst).or_default().push((
                                delivery_id,
                                false,
                                probe.clone(),
                            ));
                        }
                    }
                }
                LocatorStrategy::PathTrace => {
                    per_dst
                        .entry(target.root)
                        .or_default()
                        .push((delivery_id, false, probe));
                }
                LocatorStrategy::Multicast => {
                    self.net.stats().record_multicast();
                    for dst in self
                        .net
                        .multicast_registry()
                        .members(target.multicast_group())
                    {
                        if dst != self.node {
                            per_dst.entry(dst).or_default().push((
                                delivery_id,
                                false,
                                probe.clone(),
                            ));
                        }
                    }
                }
            }
            waved.push(delivery_id);
        }
        // One send_many per destination: co-destined probes (typically a
        // group raise's members on one node) share a wire batch.
        let mut sent_counts: HashMap<u64, usize> = HashMap::new();
        let mut unsent_hints = Vec::new();
        for (dst, entries) in per_dst {
            let mut ids = Vec::with_capacity(entries.len());
            let items: Vec<(MessageClass, KernelMessage)> = entries
                .into_iter()
                .map(|(id, hinted, m)| {
                    ids.push((id, hinted));
                    (MessageClass::Locate, m)
                })
                .collect();
            let sent = self
                .net
                .send_many(self.node, dst, items)
                .map(|o| o.is_sent())
                .unwrap_or(false);
            for (id, hinted) in ids {
                match (hinted, sent) {
                    (true, false) => unsent_hints.push(id),
                    (false, true) => *sent_counts.entry(id).or_insert(0) += 1,
                    _ => {}
                }
            }
        }
        // Account each wave's fan-out; raisers of unreachable targets are
        // notified only after the shard lock is released.
        let mut dead = Vec::new();
        for &delivery_id in &waved {
            let sent = sent_counts.get(&delivery_id).copied().unwrap_or(0);
            if sent == 0 {
                // Nobody to ask: the thread left no trace.
                if let Some(t) = self.deliveries.remove(delivery_id) {
                    self.telemetry.counter("delivery.dead").inc();
                    dead.push(t.result_tx);
                }
            } else {
                let _ = self
                    .deliveries
                    .with_mut(delivery_id, |t| t.outstanding = sent);
            }
        }
        for tx in dead {
            let _ = tx.send(DeliveryStatus::TargetDead);
        }
        // Unreliable transport and the link is down: an unsent hint probe
        // is an immediate "not here", so its wave fallback runs now.
        for delivery_id in unsent_hints {
            self.handle_receipt(delivery_id, ReceiptVerdict::NotHere, &mut Outbox::default());
        }
        for (delivery_id, event, target) in inline_root {
            // We are the root but the tip is not here: follow our own
            // trail without a network hop. One receipt will come back
            // (possibly inline), so account for it first.
            let _ = self.deliveries.with_mut(delivery_id, |t| t.outstanding = 1);
            self.handle_deliver_thread(
                event,
                target,
                self.node,
                delivery_id,
                0,
                false,
                false,
                &mut Outbox::default(),
            );
        }
    }

    /// Try the location-cache fast path for a delivery: if a (usable)
    /// hint exists, record it on the tracker so a "not here" receipt or a
    /// sweep-side timeout falls back to the full wave, and name the node
    /// to probe. The caller sends the probe, grouped with the rest of
    /// its wave.
    fn arm_hint_probe(
        self: &Arc<Self>,
        delivery_id: u64,
        event: &WireEvent,
        target: ThreadId,
    ) -> HintProbe {
        let Some(cache) = &self.location_cache else {
            return HintProbe::Miss;
        };
        let Some((node, generation)) = cache.lookup(target) else {
            return HintProbe::Miss;
        };
        if node == self.node {
            // The local fast path already failed before this delivery was
            // registered, so a self-hint is worthless: drop it and wave.
            cache.invalidate(target);
            return HintProbe::Miss;
        }
        if self.net.reliability_enabled()
            && self.net.peer_state(self.node, node) == Some(doct_net::PeerState::Dead)
        {
            // Never wait on a hint the failure detector has disproved.
            cache.invalidate(target);
            return HintProbe::Miss;
        }
        // Source shedding: the hinted node recently shed on us. Resolve a
        // sheddable raise as Overloaded right here instead of feeding the
        // flood; the hint itself stays valid (the thread is still there).
        let lane = Lane::classify(&event.name);
        if lane.sheddable() && self.net.peer_pressured(node) {
            let removed = self.deliveries.remove(delivery_id);
            if let Some(t) = removed {
                self.record_shed(lane);
                self.telemetry.counter("kernel.shed_at_source").inc();
                self.telemetry.counter("delivery.overloaded").inc();
                let _ = t.result_tx.send(DeliveryStatus::Overloaded(node));
            }
            return HintProbe::Settled;
        }
        let armed = self.deliveries.with_mut(delivery_id, |t| {
            t.hint_spent = true;
            t.hint = Some((
                node,
                generation,
                Instant::now() + cache.config().hint_timeout,
            ));
            t.outstanding = 1;
        });
        match armed {
            Some(()) => HintProbe::Armed(node),
            None => HintProbe::Settled,
        }
    }

    /// A probe arrived: enqueue here, forward along the trail, or report
    /// back "not here".
    #[allow(clippy::too_many_arguments)]
    fn handle_deliver_thread(
        self: &Arc<Self>,
        event: WireEvent,
        target: ThreadId,
        origin: NodeId,
        delivery_id: u64,
        hops: u32,
        anchor: bool,
        hinted: bool,
        out: &mut Outbox,
    ) {
        // Enqueue at this node's activation, turning the mailbox's
        // admission into the receipt verdict: a shed is *reported*, not
        // silently dropped, and rides the (coalesced) receipt back to the
        // origin as the backpressure signal.
        let admit = |act: &Arc<Activation>, event: WireEvent| -> ReceiptVerdict {
            self.stats.thread_events.fetch_add(1, Ordering::Relaxed);
            match act.push_event(event.clone()) {
                crate::Admission::Stored => {
                    self.record_thread_delivery(&event);
                    ReceiptVerdict::Found(self.node)
                }
                crate::Admission::Shed(lane) => {
                    self.record_shed(lane);
                    ReceiptVerdict::Overloaded(self.node)
                }
            }
        };
        let verdict = if anchor {
            // Sticky delivery at the root: the thread is alive here (any
            // trail), just too fast for the probes; leave the event in its
            // root activation, drained at its next delivery point here.
            let alive = self.tcbs.trail(target) != Trail::Unknown;
            match self.activation(target) {
                Some(act) if alive => admit(&act, event),
                _ => ReceiptVerdict::NotHere,
            }
        } else {
            match self.tcbs.trail(target) {
                Trail::TipHere => match self.activation(target) {
                    Some(act) => admit(&act, event),
                    None => ReceiptVerdict::NotHere,
                },
                Trail::Forward(next) => {
                    // Hinted unicast probes chase a short forwarding trail
                    // even under broadcast/multicast: the thread usually
                    // made one hop since the hint was recorded, and the
                    // wave fallback still covers longer moves.
                    const HINT_CHASE_HOPS: u32 = 3;
                    if self.config.locator == LocatorStrategy::PathTrace
                        || (hinted && hops < HINT_CHASE_HOPS)
                    {
                        self.trace(event.seq, Stage::Send);
                        let msg = KernelMessage::DeliverThread {
                            event,
                            target,
                            origin,
                            delivery_id,
                            hops: hops + 1,
                            anchor: false,
                            hinted,
                        };
                        self.send_locate(out, next, msg);
                        return;
                    }
                    // Broadcast/multicast probes cover the tip directly.
                    ReceiptVerdict::NotHere
                }
                Trail::Unknown => ReceiptVerdict::NotHere,
            }
        };
        if origin == self.node {
            self.handle_receipt(delivery_id, verdict, out);
        } else {
            let msg = KernelMessage::DeliverReceipt {
                delivery_id,
                verdict,
            };
            self.send_locate(out, origin, msg);
        }
    }

    fn handle_receipt(
        self: &Arc<Self>,
        delivery_id: u64,
        verdict: ReceiptVerdict,
        out: &mut Outbox,
    ) {
        let mut retry = false;
        // A resolved tracker's raiser is notified only after the
        // deliveries lock is released (collect-then-send).
        let mut resolved: Option<(Sender<DeliveryStatus>, DeliveryStatus)> = None;
        // Backpressure to note once the lock is released.
        let mut pressured: Option<NodeId> = None;
        {
            let idx = shard_of(delivery_id);
            let mut shard = self.deliveries.lock_shard(idx);
            let Some(t) = shard.entries.get_mut(&delivery_id) else {
                return;
            };
            match verdict {
                ReceiptVerdict::Found(node) => {
                    // Learn (or refresh) the target's location for the
                    // next raise from this node; local deliveries go
                    // through the tip fast path, so only cache remotes.
                    if node != self.node {
                        if let Some(cache) = &self.location_cache {
                            cache.record(t.target, node);
                        }
                    }
                    self.telemetry.counter("delivery.delivered").inc();
                    if let Some(t) = shard.entries.remove(&delivery_id) {
                        resolved = Some((t.result_tx, DeliveryStatus::Delivered(node)));
                    }
                }
                ReceiptVerdict::Overloaded(node) => {
                    // The mailbox said no: resolve without retrying (a
                    // retry would feed the flood) and shed future
                    // sheddable raises toward that node at the source for
                    // a while. The thread *is* there, so refresh the hint.
                    if node != self.node {
                        if let Some(cache) = &self.location_cache {
                            cache.record(t.target, node);
                        }
                        pressured = Some(node);
                    }
                    self.telemetry.counter("delivery.overloaded").inc();
                    if let Some(t) = shard.entries.remove(&delivery_id) {
                        resolved = Some((t.result_tx, DeliveryStatus::Overloaded(node)));
                    }
                }
                ReceiptVerdict::NotHere => {
                    if let Some((_, generation, _)) = t.hint.take() {
                        // The hinted node answered "not here": the cache
                        // entry is stale. Invalidate it and fall back to
                        // the full locator wave without consuming one of
                        // the wave's retry attempts.
                        if let Some(cache) = &self.location_cache {
                            cache.invalidate_stale(t.target, generation);
                        }
                        t.outstanding = 0;
                        retry = true;
                    } else {
                        t.outstanding = t.outstanding.saturating_sub(1);
                    }
                    if !retry && t.outstanding == 0 {
                        if t.attempts_left > 0 {
                            t.attempts_left -= 1;
                            retry = true;
                        } else if !t.anchored {
                            // Last resort: anchor the event at the root
                            // activation of a thread too fast to pin down.
                            t.anchored = true;
                            t.outstanding = 1;
                            let msg = KernelMessage::DeliverThread {
                                event: t.event.clone(),
                                target: t.target,
                                origin: self.node,
                                delivery_id,
                                hops: 0,
                                anchor: true,
                                hinted: false,
                            };
                            let root = t.target.root;
                            drop(shard);
                            if root == self.node {
                                self.handle(msg, self.node, out);
                            } else {
                                self.send_locate(out, root, msg);
                            }
                            return;
                        } else {
                            self.telemetry.counter("delivery.dead").inc();
                            if let Some(t) = shard.entries.remove(&delivery_id) {
                                resolved = Some((t.result_tx, DeliveryStatus::TargetDead));
                            }
                        }
                    }
                }
            }
        }
        if let Some(node) = pressured {
            self.net
                .note_backpressure(node, self.config.mailbox.backpressure_hold);
        }
        if let Some((tx, status)) = resolved {
            let _ = tx.send(status);
        }
        if retry {
            // Cover the race where the thread moved mid-probe: check the
            // local fast path again, then resend the wave.
            let Some((event, target)) = self
                .deliveries
                .with_mut(delivery_id, |t| (t.event.clone(), t.target))
            else {
                return;
            };
            if self.tcbs.trail(target) == Trail::TipHere {
                if let Some(act) = self.activation(target) {
                    let admission = act.push_event(event.clone());
                    let removed = self.deliveries.remove(delivery_id);
                    if let Some(t) = removed {
                        match admission {
                            crate::Admission::Stored => {
                                self.record_thread_delivery(&event);
                                self.telemetry.counter("delivery.delivered").inc();
                                let _ = t.result_tx.send(DeliveryStatus::Delivered(self.node));
                            }
                            crate::Admission::Shed(lane) => {
                                self.record_shed(lane);
                                self.telemetry.counter("delivery.overloaded").inc();
                                let _ = t.result_tx.send(DeliveryStatus::Overloaded(self.node));
                            }
                        }
                    }
                    return;
                }
            }
            self.send_probes(delivery_id);
        }
    }

    /// Sweep every delivery shard, one shard lock at a time — a long
    /// sweep never stalls registration or receipts on the other shards —
    /// then sample the mailbox depths.
    fn sweep_deliveries(self: &Arc<Self>) {
        let now = Instant::now();
        let detector_on = self.net.reliability_enabled();
        // Deliveries whose hint probe expired; probed again (as a full
        // wave) after the shard locks are released — send_probe_wave
        // re-locks them.
        let mut hint_fallbacks = Vec::new();
        // Trackers the sweep resolves; their raisers are notified only
        // after the shard locks are released (collect-then-send).
        let mut resolved: Vec<(Sender<DeliveryStatus>, DeliveryStatus)> = Vec::new();
        for idx in 0..self.deliveries.shard_count() {
            let mut shard = self.deliveries.lock_shard(idx);
            shard.entries.retain(|id, t| {
                if now >= t.deadline {
                    self.telemetry.counter("delivery.timeout").inc();
                    resolved.push((t.result_tx.clone(), DeliveryStatus::Timeout));
                    return false;
                }
                // §7.2 dead-target notification under real link failure:
                // when the failure detector has declared the target's root
                // node dead, resolve now instead of letting the raiser sit
                // out the whole delivery timeout.
                if detector_on
                    && t.target.root != self.node
                    && self.net.peer_state(self.node, t.target.root)
                        == Some(doct_net::PeerState::Dead)
                {
                    self.telemetry.counter("delivery.dead").inc();
                    resolved.push((t.result_tx.clone(), DeliveryStatus::TargetDead));
                    return false;
                }
                // Give up on an unanswered hint probe after one retry
                // slice — or immediately once the detector declares the
                // hinted node dead — and fall back to the locator wave.
                // A receipt that still arrives afterwards at worst
                // spuriously decrements the wave's outstanding count,
                // which only hastens a retry/anchor; the per-thread seen
                // ring keeps delivery exactly-once either way.
                if let Some((node, generation, hint_deadline)) = t.hint {
                    let node_dead = detector_on
                        && self.net.peer_state(self.node, node) == Some(doct_net::PeerState::Dead);
                    if node_dead || now >= hint_deadline {
                        t.hint = None;
                        t.outstanding = 0;
                        if let Some(cache) = &self.location_cache {
                            if node_dead {
                                cache.invalidate(t.target);
                            } else {
                                cache.invalidate_stale(t.target, generation);
                            }
                        }
                        hint_fallbacks.push(*id);
                    }
                }
                true
            });
        }
        for (tx, status) in resolved {
            let _ = tx.send(status);
        }
        self.send_probe_wave(&hint_fallbacks);
        self.sample_mailbox_depths();
    }

    /// Sample every local activation's mailbox depth into the
    /// `kernel.mailbox_depth` histogram. Reads the lock-free atomic depth
    /// mirror, never the activation lock: the sweep can neither observe a
    /// mailbox mid-resize nor stall delivery under load.
    fn sample_mailbox_depths(&self) {
        let acts: Vec<Arc<Activation>> = self
            .activations
            .lock()
            .values()
            .map(|(a, _)| Arc::clone(a))
            .collect();
        if acts.is_empty() {
            return;
        }
        let histogram = self.telemetry.histogram("kernel.mailbox_depth");
        for act in acts {
            histogram.record_ns(act.depth_hint() as u64);
        }
    }

    /// Resume a raiser blocked in `raise_and_wait` (facility-facing).
    pub fn resume_sync_raiser(&self, event: &WireEvent, verdict: Value) {
        self.trace(event.seq, Stage::Unwind);
        let Some(raiser) = event.raiser else { return };
        if event.raiser_node == self.node {
            if let Some(act) = self.activation(raiser) {
                act.push_sync_result(event.seq, verdict);
            }
        } else {
            let _ = self.net.send(
                self.node,
                event.raiser_node,
                KernelMessage::SyncResume {
                    seq: event.seq,
                    raiser,
                    verdict,
                },
                MessageClass::Event,
            );
        }
    }

    // ------------------------------------------------------------------
    // Object events
    // ------------------------------------------------------------------

    fn enqueue_object_event(self: &Arc<Self>, object: ObjectId, event: WireEvent) {
        match self.config.object_events {
            ObjectEventExecution::Master => {
                let _ = self.object_event_tx.send((object, event));
            }
            ObjectEventExecution::Spawn => {
                self.stats
                    .object_events_spawned
                    .fetch_add(1, Ordering::Relaxed);
                let kernel = self.me();
                std::thread::Builder::new()
                    .name(format!("objevent-{}", self.node))
                    .spawn(move || kernel.run_object_event(object, event))
                    .expect("spawn object event thread");
            }
        }
    }

    /// Execute one object-targeted event on the calling thread, under a
    /// surrogate logical thread that takes on the raiser's attributes
    /// (§6.1) when a snapshot travelled with the event.
    pub fn run_object_event(self: &Arc<Self>, object: ObjectId, event: WireEvent) {
        self.trace(event.seq, Stage::Deliver);
        self.telemetry
            .histogram("event.deliver_latency_ns")
            .record_ns(self.telemetry.now_ns().saturating_sub(event.t_raise_ns));
        let surrogate_id = self.new_thread_id();
        let attrs = match &event.attrs {
            // Surrogate: same attribute record (extensions shared), new
            // thread identity.
            Some(a) => {
                let mut copy = a.clone();
                copy.thread = surrogate_id;
                copy.group = None; // the surrogate is not a group member
                copy
            }
            None => ThreadAttributes::new(surrogate_id, self.node),
        };
        let kernel = self.me();
        let activation = kernel.checkin(attrs);
        kernel.tcbs.arrive(surrogate_id, 0, None);
        let dispatcher = kernel.dispatcher();
        {
            let mut ctx = Ctx::new(Arc::clone(&kernel), Arc::clone(&activation));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dispatcher.deliver_to_object(&mut ctx, object, event);
            }));
            if outcome.is_err() {
                // A handler panicked; the object event is dropped but the
                // kernel thread survives.
            }
        }
        kernel.tcbs.leave(surrogate_id);
        kernel.checkout(surrogate_id);
    }
}

impl NodeKernel {
    /// Wire the cluster timer service's command channel into this node.
    pub fn set_timer_channel(&self, tx: Sender<TimerCmd>) {
        *self.timer_tx.lock() = Some(tx);
    }

    /// Register a periodic TIMER for `thread` (no-op without a timer
    /// service, e.g. in single-node unit tests).
    pub fn register_timer(&self, thread: ThreadId, id: u64, period: Duration, payload: Value) {
        // Clone the sender out: an `if let` scrutinee keeps the guard
        // alive for the whole block, which would hold `timer_tx` across
        // the channel send.
        let tx = self.timer_tx.lock().clone();
        if let Some(tx) = tx {
            let _ = tx.send(TimerCmd::Register {
                thread,
                id,
                period,
                payload,
                event: EventName::System(crate::SystemEvent::Timer),
                one_shot: false,
            });
        }
    }

    /// Register a one-shot ALARM for `thread`, firing after `delay`.
    pub fn register_alarm(&self, thread: ThreadId, id: u64, delay: Duration, payload: Value) {
        let tx = self.timer_tx.lock().clone();
        if let Some(tx) = tx {
            let _ = tx.send(TimerCmd::Register {
                thread,
                id,
                period: delay,
                payload,
                event: EventName::System(crate::SystemEvent::Alarm),
                one_shot: true,
            });
        }
    }

    /// Cancel one timer of `thread`.
    pub fn cancel_timer(&self, thread: ThreadId, id: u64) {
        let tx = self.timer_tx.lock().clone();
        if let Some(tx) = tx {
            let _ = tx.send(TimerCmd::Cancel { thread, id });
        }
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic in entry point".to_string()
    }
}
