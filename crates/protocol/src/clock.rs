//! Simulation clocks: wall-clock and discrete-event virtual time (§III-C).
//!
//! The paper assumes a global clock and per-node internal clocks whose drift
//! from the global clock is bounded by `Δ` (Assumption II). [`GlobalClock`]
//! is the global reference; [`NodeClock`] is a per-node view with a signed
//! drift, letting liveness tests exercise the `Δ` bound.
//!
//! A global clock runs in one of two modes:
//!
//! * **Real** — time is `Instant::now()` since the clock's epoch. This is
//!   the default and what the latency-measuring experiments use.
//! * **Virtual** — time is a [`VirtualClock`]: a discrete-event counter
//!   that only moves when every participating thread is blocked waiting on
//!   it. When the last runner blocks, the clock jumps straight to the next
//!   due event (a scheduled network delivery from the registered
//!   [`EventSource`], or the earliest wait deadline) and wakes exactly one
//!   waiter. A 60-second emulated-WAN election therefore completes in
//!   milliseconds of wall time, and — as long as every thread that sends
//!   into the network is registered as an *actor* — the delivery order is
//!   a pure function of the seeds, because at most one actor executes
//!   between consecutive advancement steps.
//!
//! The **no-premature-advance rule**: virtual time never moves while any
//! registered actor is runnable. Actors register with
//! [`VirtualClock::register_actor`]; a thread that must block on something
//! *outside* the virtual world (a plain channel fed by virtual actors, a
//! join) wraps that wait in [`VirtualClock::suspend`] so the simulation
//! keeps advancing underneath it.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Sub-millisecond virtual resolution: all virtual timestamps are
/// nanoseconds since the clock's origin (t = 0).
pub const NS_PER_MS: u64 = 1_000_000;

// ---------------------------------------------------------------------------
// Event source hook
// ---------------------------------------------------------------------------

/// A producer of timed events the virtual clock must interleave with wait
/// deadlines (in practice: the simulated network's delay heap).
///
/// Lock-ordering contract: the clock calls [`EventSource::next_due_ns`]
/// while holding its own state lock, so an implementation must never call
/// back into the clock while holding the lock that `next_due_ns` takes.
/// [`EventSource::pop_due`] is called with no clock lock held and may
/// notify waiters freely.
pub trait EventSource: Send + Sync {
    /// Virtual due time of the earliest pending event, if any.
    fn next_due_ns(&self) -> Option<u64>;
    /// Delivers the single earliest event whose due time is `<= now_ns`.
    /// Returns whether an event was delivered.
    fn pop_due(&self, now_ns: u64) -> bool;
}

// ---------------------------------------------------------------------------
// Virtual clock
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WaitStatus {
    Waiting,
    Notified,
    TimerFired,
    Closed,
}

struct WaitEntry {
    deadline_ns: Option<u64>,
    tiebreak: u64,
    notify_key: Option<u64>,
    actor: bool,
    status: WaitStatus,
}

struct VtState {
    /// Registered actors currently runnable (not blocked in a clock wait).
    runners: usize,
    /// Total live actor registrations (blocked or runnable).
    total_actors: usize,
    /// True while one thread performs an advancement step.
    advancing: bool,
    closed: bool,
    next_wait_id: u64,
    waits: BTreeMap<u64, WaitEntry>,
    /// Deadline-ordered index of waits that have one:
    /// `(deadline, tiebreak, wait id)`.
    by_deadline: BTreeSet<(u64, u64, u64)>,
    /// Message-notifiable waits: notify key → wait id.
    by_key: BTreeMap<u64, u64>,
    source: Option<Weak<dyn EventSource>>,
    /// Threads blocked in [`VirtualClock::run_dry`]. While non-zero the
    /// advancer *brakes*: with the event source dry it parks (setting
    /// `drain_ready`) instead of firing idle timers, so a drain ends at
    /// the last delivery rather than free-running the poll-tick grid.
    drain_waiters: usize,
    /// Advancer → drain-waiter handoff: no deliverable event remains and
    /// every actor is parked. Only meaningful while `drain_waiters > 0`.
    drain_ready: bool,
}

struct VtCore {
    id: u64,
    now_ns: AtomicU64,
    limit_ns: AtomicU64,
    state: Mutex<VtState>,
    cv: Condvar,
}

/// How a [`VirtualClock::wait`] ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitOutcome {
    /// [`VirtualClock::notify_key`] hit this wait (a message arrived).
    Notified,
    /// The wait's virtual deadline was reached.
    TimerFired,
    /// The clock was closed ([`VirtualClock::close`]).
    Closed,
}

/// Options for one [`VirtualClock::wait`].
#[derive(Clone, Copy, Debug, Default)]
pub struct WaitOpts {
    /// Key under which [`VirtualClock::notify_key`] can wake this wait
    /// (endpoints use their node's [`crate::NodeId::clock_key`]).
    pub notify_key: Option<u64>,
    /// Deterministic tie-break among waits sharing a deadline (lower wakes
    /// first).
    pub tiebreak: u64,
    /// Absolute virtual deadline; `None` waits for a notify (or close)
    /// only.
    pub deadline_ns: Option<u64>,
}

thread_local! {
    /// (clock id, registration depth) of the current thread's actor
    /// registration.
    static ACTOR_TLS: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

static NEXT_CLOCK_ID: AtomicU64 = AtomicU64::new(1);

/// A deterministic discrete-event clock (cheaply cloneable handle).
#[derive(Clone)]
pub struct VirtualClock {
    core: Arc<VtCore>,
}

impl std::fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VirtualClock(now: {}ns)", self.now_ns())
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Registration of the current thread as a virtual-time actor; dropping it
/// deregisters (see [`VirtualClock::register_actor`]).
pub struct ActorGuard {
    clock: Option<VirtualClock>,
    prev: (u64, u32),
    counted: bool,
    thread: std::thread::ThreadId,
}

impl Drop for ActorGuard {
    fn drop(&mut self) {
        let Some(clock) = self.clock.take() else {
            return;
        };
        // Only restore thread-local registration state when dropped on the
        // registering thread (a guard stored in a struct may be dropped
        // elsewhere; the runner accounting must still be released).
        if std::thread::current().id() == self.thread {
            ACTOR_TLS.with(|tls| tls.set(self.prev));
        }
        if self.counted {
            let mut state = clock.lock_state();
            state.runners = state.runners.saturating_sub(1);
            state.total_actors = state.total_actors.saturating_sub(1);
            drop(state);
            // Hitting zero runners may unblock an advancement step.
            clock.core.cv.notify_all();
        }
    }
}

/// A pre-registered actor slot, created on one thread (typically before a
/// `spawn`) and adopted by another (see [`VirtualClock::reserve_actor`]).
/// Dropping an unactivated reservation releases the slot.
pub struct ActorReservation {
    clock: Option<VirtualClock>,
}

impl ActorReservation {
    /// Adopts the reserved slot on the current thread, returning the actor
    /// guard that releases it.
    pub fn activate(mut self) -> ActorGuard {
        let clock = self.clock.take().expect("reservation consumed once");
        let prev = ACTOR_TLS.with(Cell::get);
        let counted = prev.0 != clock.core.id || prev.1 == 0;
        if !counted {
            // Already registered on this clock (nested): release the
            // reserved count, the existing registration carries us.
            let mut state = clock.lock_state();
            state.runners = state.runners.saturating_sub(1);
            state.total_actors = state.total_actors.saturating_sub(1);
        }
        let depth = if prev.0 == clock.core.id {
            prev.1 + 1
        } else {
            1
        };
        ACTOR_TLS.with(|tls| tls.set((clock.core.id, depth)));
        ActorGuard {
            clock: Some(clock),
            prev,
            counted,
            thread: std::thread::current().id(),
        }
    }
}

impl Drop for ActorReservation {
    fn drop(&mut self) {
        if let Some(clock) = self.clock.take() {
            let mut state = clock.lock_state();
            state.runners = state.runners.saturating_sub(1);
            state.total_actors = state.total_actors.saturating_sub(1);
            drop(state);
            clock.core.cv.notify_all();
        }
    }
}

impl VirtualClock {
    /// Creates a virtual clock at t = 0 with no advancement limit.
    pub fn new() -> VirtualClock {
        VirtualClock {
            core: Arc::new(VtCore {
                id: NEXT_CLOCK_ID.fetch_add(1, Ordering::Relaxed),
                now_ns: AtomicU64::new(0),
                limit_ns: AtomicU64::new(u64::MAX),
                state: Mutex::new(VtState {
                    runners: 0,
                    total_actors: 0,
                    advancing: false,
                    closed: false,
                    next_wait_id: 0,
                    waits: BTreeMap::new(),
                    by_deadline: BTreeSet::new(),
                    by_key: BTreeMap::new(),
                    source: None,
                    drain_waiters: 0,
                    drain_ready: false,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Caps advancement: the clock never jumps past `limit_ns`. Waits whose
    /// next step lies beyond the limit stall (real-time timeouts in the
    /// driver then surface the hang) instead of spinning virtual time
    /// forever — the safety net for e.g. a partitioned consensus that can
    /// never finish.
    pub fn set_limit_ns(&self, limit_ns: u64) {
        self.core.limit_ns.store(limit_ns, Ordering::Relaxed);
        self.core.cv.notify_all();
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.core.now_ns.load(Ordering::Acquire)
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ns() / NS_PER_MS
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, VtState> {
        self.core
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers the delay-heap feeding timed events into this clock.
    pub fn set_source(&self, source: Weak<dyn EventSource>) {
        self.lock_state().source = Some(source);
    }

    /// Registers the current thread as an actor: virtual time will not
    /// advance while this thread is runnable, which is what makes event
    /// order deterministic. Nested registration on the same clock is
    /// counted; the guard restores the previous state on drop.
    pub fn register_actor(&self) -> ActorGuard {
        let prev = ACTOR_TLS.with(Cell::get);
        let counted = prev.0 != self.core.id || prev.1 == 0;
        let depth = if prev.0 == self.core.id {
            prev.1 + 1
        } else {
            1
        };
        ACTOR_TLS.with(|tls| tls.set((self.core.id, depth)));
        if counted {
            let mut state = self.lock_state();
            state.runners += 1;
            state.total_actors += 1;
            drop(state);
            self.core.cv.notify_all();
        }
        ActorGuard {
            clock: Some(self.clone()),
            prev,
            counted,
            thread: std::thread::current().id(),
        }
    }

    /// Reserves an actor slot on behalf of a thread about to be spawned:
    /// the future actor counts as runnable immediately, so the clock
    /// cannot free-run through the (wall-clock-dependent) spawn gap. The
    /// spawned thread adopts the slot with [`ActorReservation::activate`].
    pub fn reserve_actor(&self) -> ActorReservation {
        let mut state = self.lock_state();
        state.runners += 1;
        state.total_actors += 1;
        drop(state);
        self.core.cv.notify_all();
        ActorReservation {
            clock: Some(self.clone()),
        }
    }

    /// Blocks (in real time) until at least `n` actors are registered or
    /// `timeout` elapses; returns whether the threshold was reached. The
    /// builder uses this as a start barrier so the first advancement step
    /// sees every node, keeping run-to-run event order identical.
    pub fn wait_for_registered(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock_state();
        loop {
            if state.total_actors >= n {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (next, _) = self
                .core
                .cv
                .wait_timeout(state, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
        }
    }

    fn current_thread_is_actor(&self) -> bool {
        let (id, depth) = ACTOR_TLS.with(Cell::get);
        id == self.core.id && depth > 0
    }

    /// Runs `f` (which blocks on something outside the virtual world, e.g.
    /// a plain channel receive) with this thread's actor registration
    /// suspended, so the simulation keeps advancing underneath it.
    pub fn suspend<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.current_thread_is_actor() {
            return f();
        }
        {
            let mut state = self.lock_state();
            state.runners = state.runners.saturating_sub(1);
        }
        self.core.cv.notify_all();
        let result = f();
        self.lock_state().runners += 1;
        result
    }

    /// Runs the simulation dry: suspends the calling actor and blocks (in
    /// real time, bounded by `timeout`) until every in-flight event has
    /// been delivered and processed and every actor is parked in a clock
    /// wait.
    ///
    /// [`VirtualClock::quiesce`] alone stops at a step boundary, but
    /// *which* boundary depends on wall scheduling — straggler nodes
    /// would be cut off mid-cascade at a nondeterministic event index.
    /// Draining first gives a seed-deterministic endpoint.
    ///
    /// The advancer cooperates: while a drain waiter is registered it
    /// *brakes* once the event source is dry — parking and raising
    /// `drain_ready` instead of firing idle timers. (A parked actor that
    /// becomes the advancer holds the state lock through the park →
    /// advance transition, so a `runners == 0` poll from outside can
    /// never observe the idle instant; and without the brake, recurring
    /// poll-tick deadlines would free-run virtual time for as long as
    /// the drain waiter watches.) Timers still pending at the handoff
    /// are idle polls by construction: anything a delivery could wake is
    /// delivered first, since events win ties with deadlines. No-op for
    /// non-actors and closed clocks.
    pub fn run_dry(&self, timeout: Duration) {
        if !self.current_thread_is_actor() {
            return;
        }
        {
            let mut state = self.lock_state();
            state.drain_waiters += 1;
            state.drain_ready = false;
        }
        // A parked advancer evaluated the brake condition before this
        // drain existed; wake it to re-evaluate.
        self.core.cv.notify_all();
        self.suspend(|| {
            let deadline = Instant::now() + timeout;
            let mut state = self.lock_state();
            while !state.drain_ready && !state.closed {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                let (next, _) = self
                    .core
                    .cv
                    .wait_timeout(state, left)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state = next;
            }
        });
        let mut state = self.lock_state();
        state.drain_waiters -= 1;
        if state.drain_waiters == 0 {
            state.drain_ready = false;
        }
    }

    /// Blocks (in real time, bounded by `timeout`) until every *other*
    /// actor is parked in a clock wait. After a thread resumes from a
    /// [`VirtualClock::suspend`]ed external wait, the actor that fed it
    /// may still be mid-step; callers that are about to snapshot
    /// simulation state (e.g. network counters) quiesce first so the
    /// snapshot point is deterministic. No-op for non-actors.
    pub fn quiesce(&self, timeout: Duration) {
        if !self.current_thread_is_actor() {
            return;
        }
        let deadline = Instant::now() + timeout;
        let mut state = self.lock_state();
        while state.runners > 1 && !state.closed {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return;
            };
            let (next, _) = self
                .core
                .cv
                .wait_timeout(state, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
        }
    }

    /// Wakes the wait registered under `key`, if any (a message landed in
    /// its inbox). Returns whether a wait was woken.
    pub fn notify_key(&self, key: u64) -> bool {
        let mut state = self.lock_state();
        let Some(wait_id) = state.by_key.remove(&key) else {
            return false;
        };
        let entry = state.waits.get_mut(&wait_id).expect("indexed wait exists");
        entry.status = WaitStatus::Notified;
        let actor = entry.actor;
        if let Some(dl) = entry.deadline_ns {
            let tb = entry.tiebreak;
            state.by_deadline.remove(&(dl, tb, wait_id));
        }
        if actor {
            state.runners += 1;
        }
        drop(state);
        self.core.cv.notify_all();
        true
    }

    /// Signals that the event source gained a new event (wakes an idle
    /// advancer).
    pub fn on_new_event(&self) {
        self.core.cv.notify_all();
    }

    /// Closes the clock: every current and future wait returns
    /// [`WaitOutcome::Closed`]. Used at shutdown so node threads blocked in
    /// virtual waits can exit.
    pub fn close(&self) {
        let mut state = self.lock_state();
        state.closed = true;
        let ids: Vec<u64> = state.waits.keys().copied().collect();
        for id in ids {
            let entry = state.waits.get_mut(&id).expect("listed wait exists");
            if entry.status == WaitStatus::Waiting {
                entry.status = WaitStatus::Closed;
                if entry.actor {
                    state.runners += 1;
                }
            }
        }
        state.by_deadline.clear();
        state.by_key.clear();
        drop(state);
        self.core.cv.notify_all();
    }

    /// Whether [`VirtualClock::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock_state().closed
    }

    /// Blocks the current thread in virtual time until notified, the
    /// deadline, or close — advancing the clock when this thread is the
    /// last runner. `ready` is re-checked under the clock lock right after
    /// the wait is registered, closing the check-then-block race for
    /// message waits (`ready` must not call back into the clock).
    pub fn wait(&self, opts: WaitOpts, ready: Option<&dyn Fn() -> bool>) -> WaitOutcome {
        let is_actor = self.current_thread_is_actor();
        let mut state = self.lock_state();
        if state.closed {
            return WaitOutcome::Closed;
        }
        if let Some(ready) = ready {
            if ready() {
                return WaitOutcome::Notified;
            }
        }
        if let Some(dl) = opts.deadline_ns {
            if dl <= self.now_ns() {
                return WaitOutcome::TimerFired;
            }
        }
        let wait_id = state.next_wait_id;
        state.next_wait_id += 1;
        state.waits.insert(
            wait_id,
            WaitEntry {
                deadline_ns: opts.deadline_ns,
                tiebreak: opts.tiebreak,
                notify_key: opts.notify_key,
                actor: is_actor,
                status: WaitStatus::Waiting,
            },
        );
        if let Some(dl) = opts.deadline_ns {
            state.by_deadline.insert((dl, opts.tiebreak, wait_id));
        }
        if let Some(key) = opts.notify_key {
            let prev = state.by_key.insert(key, wait_id);
            debug_assert!(prev.is_none(), "concurrent waits on one notify key");
        }
        if is_actor {
            state.runners = state.runners.saturating_sub(1);
            if state.runners == 0 {
                // We may have become the advancer; other blocked threads
                // cannot observe runners == 0 without a wake.
                self.core.cv.notify_all();
            }
        }

        loop {
            let status = state.waits.get(&wait_id).expect("own wait exists").status;
            if status != WaitStatus::Waiting {
                // Whoever flipped the status already removed the indexes
                // and re-counted us as a runner (if an actor).
                state.waits.remove(&wait_id);
                return match status {
                    WaitStatus::Notified => WaitOutcome::Notified,
                    WaitStatus::TimerFired => WaitOutcome::TimerFired,
                    _ => WaitOutcome::Closed,
                };
            }
            if state.runners == 0 && !state.advancing && !state.closed {
                // We are the advancer: jump to the next due event or wait
                // deadline. Events win ties so a message due exactly at a
                // poll deadline is processed before the poll wakes.
                let source = state.source.as_ref().and_then(Weak::upgrade);
                let t_event = source.as_ref().and_then(|s| s.next_due_ns());
                let t_wait = state.by_deadline.iter().next().copied();
                let limit = self.core.limit_ns.load(Ordering::Relaxed);
                // Drain brake (see `run_dry`): no deliverable event and a
                // drain waiter watching — hand off instead of firing idle
                // timers, then park like any advancer with nothing to do.
                if state.drain_waiters > 0 && t_event.is_none_or(|te| te > limit) {
                    if !state.drain_ready {
                        state.drain_ready = true;
                        self.core.cv.notify_all();
                    }
                    state = self
                        .core
                        .cv
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    continue;
                }
                match (t_event, t_wait) {
                    (Some(te), tw) if te <= limit && tw.is_none_or(|(dl, _, _)| te <= dl) => {
                        let source = source.expect("event due implies source");
                        let now = self.now_ns().max(te);
                        self.core.now_ns.store(now, Ordering::Release);
                        state.advancing = true;
                        // Deliver outside the lock: delivery notifies
                        // waiters, which re-takes the state lock.
                        drop(state);
                        source.pop_due(now);
                        state = self.lock_state();
                        state.advancing = false;
                        self.core.cv.notify_all();
                        continue; // re-check our own status
                    }
                    (_, Some((dl, tb, target))) if dl <= limit => {
                        let now = self.now_ns().max(dl);
                        self.core.now_ns.store(now, Ordering::Release);
                        state.by_deadline.remove(&(dl, tb, target));
                        let entry = state.waits.get_mut(&target).expect("indexed wait");
                        entry.status = WaitStatus::TimerFired;
                        let actor = entry.actor;
                        if let Some(key) = entry.notify_key {
                            state.by_key.remove(&key);
                        }
                        if actor {
                            state.runners += 1;
                        }
                        self.core.cv.notify_all();
                        continue;
                    }
                    // Nothing to advance (no events, no deadlines, or the
                    // limit is reached): park until the outside world
                    // produces an event or a new waiter arrives.
                    _ => {}
                }
            }
            state = self
                .core
                .cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Sleeps until the absolute virtual time `deadline_ns` (current
    /// thread may be an actor or a passive waiter).
    pub fn sleep_until_ns(&self, deadline_ns: u64) {
        while self.now_ns() < deadline_ns {
            match self.wait(
                WaitOpts {
                    notify_key: None,
                    tiebreak: u64::MAX, // sleeps yield to node timeouts on ties
                    deadline_ns: Some(deadline_ns),
                },
                None,
            ) {
                WaitOutcome::Closed => return,
                _ => continue,
            }
        }
    }

    /// Sleeps for `d` of virtual time.
    pub fn sleep(&self, d: Duration) {
        self.sleep_until_ns(self.now_ns().saturating_add(d.as_nanos() as u64));
    }
}

// ---------------------------------------------------------------------------
// Drift registry
// ---------------------------------------------------------------------------

/// Shared registry of per-node clock-drift handles, letting scheduled
/// fault events retune a node's drift mid-run (the `Δ` bound of
/// Assumption II under adversarial clocks).
#[derive(Clone, Default)]
pub struct DriftRegistry {
    map: Arc<Mutex<HashMap<u64, Arc<AtomicI64>>>>,
}

impl std::fmt::Debug for DriftRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DriftRegistry")
    }
}

impl DriftRegistry {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<AtomicI64>>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns (creating if needed) the drift handle for `key`.
    pub fn handle(&self, key: u64) -> Arc<AtomicI64> {
        self.lock().entry(key).or_default().clone()
    }

    /// Sets the drift for `key` in milliseconds. Returns whether the key
    /// was already registered.
    pub fn set_ms(&self, key: u64, drift_ms: i64) -> bool {
        let mut map = self.lock();
        let existed = map.contains_key(&key);
        map.entry(key)
            .or_default()
            .store(drift_ms, Ordering::Relaxed);
        existed
    }
}

// ---------------------------------------------------------------------------
// Global / node clocks
// ---------------------------------------------------------------------------

/// The global reference clock for one simulation (real or virtual).
#[derive(Clone, Debug)]
pub struct GlobalClock {
    epoch: Instant,
    virt: Option<VirtualClock>,
    drifts: DriftRegistry,
}

impl Default for GlobalClock {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalClock {
    /// Starts a new real-time global clock at the current instant.
    pub fn new() -> GlobalClock {
        GlobalClock {
            epoch: Instant::now(),
            virt: None,
            drifts: DriftRegistry::default(),
        }
    }

    /// Wraps a [`VirtualClock`] as the global reference.
    pub fn new_virtual(clock: VirtualClock) -> GlobalClock {
        GlobalClock {
            epoch: Instant::now(),
            virt: Some(clock),
            drifts: DriftRegistry::default(),
        }
    }

    /// The virtual clock, when this global clock runs in virtual mode.
    pub fn virtual_clock(&self) -> Option<&VirtualClock> {
        self.virt.as_ref()
    }

    /// The per-node drift registry (scheduled clock-drift faults write
    /// through it).
    pub fn drift_registry(&self) -> DriftRegistry {
        self.drifts.clone()
    }

    /// Nanoseconds elapsed since the epoch (virtual ns in virtual mode).
    pub fn now_ns(&self) -> u64 {
        match &self.virt {
            Some(v) => v.now_ns(),
            None => self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Milliseconds elapsed since the epoch.
    pub fn now_ms(&self) -> u64 {
        self.now_ns() / NS_PER_MS
    }

    /// Sleeps for `d` in this clock's time base. Real mode sleeps the OS
    /// thread (no spinning, even for sub-millisecond waits); virtual mode
    /// blocks in virtual time.
    pub fn sleep(&self, d: Duration) {
        match &self.virt {
            Some(v) => v.sleep(d),
            None => real_sleep(d),
        }
    }

    /// Creates an anonymous per-node clock with the given drift
    /// (milliseconds; may be negative, clamped so node time never
    /// underflows).
    pub fn node_clock(&self, drift_ms: i64) -> NodeClock {
        NodeClock {
            epoch: self.epoch,
            virt: self.virt.clone(),
            drift_ms: Arc::new(AtomicI64::new(drift_ms)),
        }
    }

    /// Creates a per-node clock registered under `key` in the drift
    /// registry, so scheduled faults can change its drift mid-run.
    pub fn node_clock_keyed(&self, key: u64, drift_ms: i64) -> NodeClock {
        let handle = self.drifts.handle(key);
        handle.store(drift_ms, Ordering::Relaxed);
        NodeClock {
            epoch: self.epoch,
            virt: self.virt.clone(),
            drift_ms: handle,
        }
    }
}

/// Sleeps `d` of wall time without busy-waiting (loops on the remainder to
/// absorb early wakeups; sub-millisecond requests rely on the OS hrtimer
/// granularity and may overshoot slightly).
fn real_sleep(d: Duration) {
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        if elapsed >= d {
            return;
        }
        std::thread::sleep(d - elapsed);
    }
}

/// A node's internal clock: the global clock plus a (retunable) drift.
#[derive(Clone, Debug)]
pub struct NodeClock {
    epoch: Instant,
    virt: Option<VirtualClock>,
    drift_ms: Arc<AtomicI64>,
}

impl NodeClock {
    /// The node's view of the current time, in simulation milliseconds.
    pub fn now_ms(&self) -> u64 {
        let base = match &self.virt {
            Some(v) => (v.now_ns() / NS_PER_MS) as i64,
            None => self.epoch.elapsed().as_millis() as i64,
        };
        (base + self.drift_ms()).max(0) as u64
    }

    /// The configured drift.
    pub fn drift_ms(&self) -> i64 {
        self.drift_ms.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_shifts_view() {
        let global = GlobalClock::new();
        let fast = global.node_clock(500);
        let slow = global.node_clock(-10_000);
        let now = global.now_ms();
        assert!(fast.now_ms() >= now + 400);
        // Large negative drift clamps at zero rather than underflowing.
        assert_eq!(slow.now_ms(), 0);
    }

    #[test]
    fn zero_drift_tracks_global() {
        let global = GlobalClock::new();
        let node = global.node_clock(0);
        let a = global.now_ms();
        let b = node.now_ms();
        assert!(b.abs_diff(a) < 50);
    }

    #[test]
    fn registry_retunes_drift() {
        let global = GlobalClock::new();
        let node = global.node_clock_keyed(7, 0);
        assert_eq!(node.drift_ms(), 0);
        global.drift_registry().set_ms(7, 2_000);
        assert_eq!(node.drift_ms(), 2_000);
        assert!(node.now_ms() >= 2_000);
    }

    #[test]
    fn virtual_clock_starts_at_zero_and_sleeps_instantly() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_ns(), 0);
        let wall = Instant::now();
        clock.sleep(Duration::from_secs(60));
        assert_eq!(clock.now_ms(), 60_000);
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "virtual sleep must not wall-sleep"
        );
    }

    #[test]
    fn virtual_deadlines_fire_in_order() {
        let clock = VirtualClock::new();
        // Hold the main thread's registration until every sleeper is in
        // place, so no deadline fires before all three are registered.
        let gate = clock.register_actor();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (i, dl_ms) in [(0u64, 30u64), (1, 10), (2, 20)] {
            let clock = clock.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                let _actor = clock.register_actor();
                clock.sleep_until_ns(dl_ms * NS_PER_MS);
                order.lock().unwrap().push((i, clock.now_ms()));
            }));
        }
        assert!(clock.wait_for_registered(4, Duration::from_secs(5)));
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap();
        assert_eq!(*order, vec![(1, 10), (2, 20), (0, 30)]);
    }

    #[test]
    fn notify_wakes_keyed_wait() {
        let clock = VirtualClock::new();
        let c2 = clock.clone();
        let waiter = std::thread::spawn(move || {
            c2.wait(
                WaitOpts {
                    notify_key: Some(42),
                    tiebreak: 0,
                    deadline_ns: None,
                },
                None,
            )
        });
        // Spin until the wait registers, then notify.
        loop {
            if clock.notify_key(42) {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified);
    }

    #[test]
    fn close_releases_waiters() {
        let clock = VirtualClock::new();
        let c2 = clock.clone();
        let waiter = std::thread::spawn(move || {
            c2.wait(
                WaitOpts {
                    notify_key: Some(1),
                    tiebreak: 0,
                    deadline_ns: None,
                },
                None,
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        clock.close();
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Closed);
    }

    #[test]
    fn limit_stalls_advancement() {
        let clock = VirtualClock::new();
        clock.set_limit_ns(5 * NS_PER_MS);
        let c2 = clock.clone();
        let t = std::thread::spawn(move || {
            let _actor = c2.register_actor();
            // Deadline past the limit: stalls until close.
            c2.wait(
                WaitOpts {
                    notify_key: None,
                    tiebreak: 0,
                    deadline_ns: Some(50 * NS_PER_MS),
                },
                None,
            )
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(clock.now_ms() <= 5);
        clock.close();
        assert_eq!(t.join().unwrap(), WaitOutcome::Closed);
    }
}
