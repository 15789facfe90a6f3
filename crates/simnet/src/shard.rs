//! Sharded multi-core execution: conservative-lookahead synchronization
//! across per-core `World` shards.
//!
//! Each shard is a full [`World`] — its own timer wheel, RNG stream
//! and metrics registry — built and run on its own OS thread (a
//! `World` is not `Send`, so worlds never migrate; closures do).
//! Shards execute in lockstep windows of one *lookahead* `L`: within
//! `[kL, (k+1)L)` every shard runs independently, then all meet
//! at a barrier to exchange cross-shard messages. The protocol is safe
//! because a message emitted at time `t` inside window `k` arrives at
//! `t + link_latency ≥ kL + L = (k+1)L` — never inside a window any
//! sibling has already executed (enforced at build time:
//! [`ShardConfig::validate`](crate::ShardConfig) rejects
//! `link_latency < lookahead`).
//!
//! Determinism: for a fixed shard count the merged schedule is
//! byte-identical across runs. Every decision the window loop takes
//! (continue/stop, next window start) derives from values that are
//! deterministic functions of simulation state — summed work votes and
//! a min-merged horizon exchanged through the barrier — and cross-shard
//! messages are injected in `(arrival, src_shard, seq)` order, a total
//! order independent of thread interleaving. Wall-clock measurements
//! (barrier stall, exec shares) are kept out of the worlds' metrics
//! unless [`ShardPlan::fold_wall_health`] asks for them, so byte-diff
//! gates can compare sharded runs directly.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::error::SimResult;
use crate::incident::{IncidentBundle, TriggerKind};
use crate::time::{SimDuration, SimTime};
use crate::world::{CrossMessage, ShardConfig, World};

/// How a sharded run is partitioned and synchronized.
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan {
    /// Number of shards (and threads). `1` runs inline on the calling
    /// thread through the same window loop.
    pub shards: u16,
    /// Conservative lookahead: the synchronized window length.
    pub lookahead: SimDuration,
    /// Modeled cross-shard link latency (`>= lookahead`).
    pub link_latency: SimDuration,
    /// Fold wall-clock health signals (`shard.barrier_stall_ns`,
    /// `shard.s{N}.exec_share_milli`) into each world's metrics. Wall
    /// time is nondeterministic, so runs that must be byte-identical
    /// disable this ([`ShardPlan::without_wall_health`]).
    pub fold_wall_health: bool,
    /// Virtual instant at which throughput measurement starts: events
    /// and wall time before the first window boundary at or past it are
    /// excluded from the measured totals (setup/churn-in traffic would
    /// otherwise dilute a scaling curve).
    pub warmup: SimTime,
}

impl ShardPlan {
    /// A plan with `link_latency == lookahead` (the tightest legal
    /// coupling), wall-health folding on, and no warmup.
    pub fn new(shards: u16, lookahead: SimDuration) -> Self {
        ShardPlan {
            shards,
            lookahead,
            link_latency: lookahead,
            fold_wall_health: true,
            warmup: SimTime::ZERO,
        }
    }

    /// Sets a cross-shard link latency larger than the lookahead.
    pub fn with_link_latency(mut self, latency: SimDuration) -> Self {
        self.link_latency = latency;
        self
    }

    /// Disables wall-clock health folding, for byte-identical runs.
    pub fn without_wall_health(mut self) -> Self {
        self.fold_wall_health = false;
        self
    }

    /// Excludes virtual time before `warmup` from throughput totals.
    pub fn with_warmup(mut self, warmup: SimTime) -> Self {
        self.warmup = warmup;
        self
    }

    fn config_for(&self, shard: u16) -> ShardConfig {
        ShardConfig {
            shard,
            shards: self.shards,
            lookahead: self.lookahead,
            link_latency: self.link_latency,
        }
    }
}

/// A shard's identity, handed to the build and collect closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// This shard's id, `0..shards`.
    pub shard: u16,
    /// Total shard count.
    pub shards: u16,
}

/// Per-shard outcome of a sharded run.
#[derive(Debug)]
pub struct ShardRun<R> {
    /// The shard this row describes.
    pub shard: u16,
    /// Whatever the collect closure returned.
    pub result: R,
    /// Events dispatched over the whole run.
    pub events: u64,
    /// Events dispatched after the warmup boundary.
    pub events_measured: u64,
    /// Wall nanoseconds from the warmup boundary to the end of the
    /// window loop (includes barrier stalls — it is the real elapsed
    /// time of the measured phase on this thread).
    pub measure_wall_ns: u64,
    /// Wall nanoseconds spent executing events (all windows).
    pub exec_ns: u64,
    /// Wall nanoseconds spent waiting at barriers (all windows).
    pub barrier_stall_ns: u64,
    /// Cross-shard messages this shard sent.
    pub cross_sent: u64,
    /// Synchronized windows executed (empty regions are jumped, so this
    /// counts barriers actually paid, not elapsed-time / lookahead).
    pub windows: u64,
    /// Per-window mean dispatch cost in the measured phase (exec ns /
    /// events, for windows that dispatched at least one event). The
    /// caller derives tail percentiles from these.
    pub dispatch_ns_samples: Vec<u64>,
}

/// The merged outcome of [`run_sharded`]: one [`ShardRun`] per shard,
/// in shard order.
#[derive(Debug)]
pub struct ShardReport<R> {
    /// Per-shard rows, indexed by shard id.
    pub shards: Vec<ShardRun<R>>,
}

impl<R> ShardReport<R> {
    /// Total events dispatched across all shards.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Measured events/sec of the whole federation: post-warmup events
    /// across all shards over the longest shard's measured wall time
    /// (the run is only as fast as its slowest shard).
    pub fn events_per_sec(&self) -> f64 {
        let events: u64 = self.shards.iter().map(|s| s.events_measured).sum();
        let wall = self
            .shards
            .iter()
            .map(|s| s.measure_wall_ns)
            .max()
            .unwrap_or(0);
        if wall == 0 {
            return 0.0;
        }
        events as f64 * 1e9 / wall as f64
    }

    /// Total wall nanoseconds spent stalled at barriers, summed over
    /// shards.
    pub fn barrier_stall_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.barrier_stall_ns).sum()
    }
}

/// The panic payload that surfaces from [`run_sharded`] when a shard
/// with an enabled flight recorder
/// ([`World::enable_flight_recorder`]) panics mid-window: the original
/// panic message plus the incident bundle the dying shard cut from its
/// ring journal before unwinding. Callers that `catch_unwind` around
/// `run_sharded` can downcast the payload to this type and recover the
/// evidence; without a flight recorder the original payload propagates
/// untouched.
#[derive(Debug)]
pub struct ShardPanicIncident {
    /// The shard that panicked.
    pub shard: u16,
    /// The original panic message.
    pub message: String,
    /// The bundle captured at the instant of the panic.
    pub bundle: IncidentBundle,
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_owned()
    }
}

/// Runs one window's events with the flight recorder armed for panics:
/// a panic inside a process handler cuts a shard-panic incident bundle
/// from the world's ring journal, then resumes unwinding with a
/// [`ShardPanicIncident`] payload so the evidence survives the unwind.
fn run_window_guarded(world: &mut World, shard: u16, window_end: u64) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        world.run_before(SimTime::from_nanos(window_end));
    }));
    if let Err(payload) = outcome {
        let message = panic_message(payload.as_ref());
        world.capture_incident(
            TriggerKind::ShardPanic,
            format!("shard {shard} panicked: {message}"),
        );
        match world.incidents().last() {
            Some(bundle) => resume_unwind(Box::new(ShardPanicIncident {
                shard,
                message,
                bundle: bundle.clone(),
            })),
            None => resume_unwind(payload),
        }
    }
}

/// Runs `plan.shards` worlds to `deadline` under conservative-lookahead
/// synchronization.
///
/// Every shard gets a fresh `World::new(seed)` — identical parent seed;
/// [`World::configure_shard`] immediately splits the RNG onto the
/// shard's stream — then `build` populates it and the window loop runs
/// it. After the final barrier each world is advanced to `deadline`
/// (folding metrics exactly like a plain `run_until`) and `collect`
/// extracts whatever the caller wants back across the thread boundary.
///
/// With `plan.shards == 1` everything happens inline on the calling
/// thread: same loop, no spawn, and the per-window bookkeeping is
/// allocation-free, so the single-shard path stays within noise of
/// calling `run_until` directly.
///
/// A panic on any shard thread poisons the barrier (so siblings fail
/// fast instead of deadlocking) and resurfaces on the caller.
///
/// # Errors
///
/// Propagates plan validation errors and any error the build closure
/// returns (the first, in shard order).
pub fn run_sharded<R, B, C>(
    plan: &ShardPlan,
    seed: u64,
    deadline: SimTime,
    build: B,
    collect: C,
) -> SimResult<ShardReport<R>>
where
    R: Send,
    B: Fn(&mut World, ShardInfo) -> SimResult<()> + Sync,
    C: Fn(&mut World, ShardInfo) -> R + Sync,
{
    plan.config_for(0).validate()?;
    let n = plan.shards as usize;
    let exchange = Exchange::new(n);

    if n == 1 {
        let run = shard_main(plan, 0, seed, deadline, &exchange, &build, &collect)?;
        return Ok(ShardReport { shards: vec![run] });
    }

    let slots: Vec<Mutex<Option<SimResult<ShardRun<R>>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let mut panic_payload = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (shard, slot) in slots.iter().enumerate() {
            let exchange = &exchange;
            let build = &build;
            let collect = &collect;
            handles.push(scope.spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    shard_main(plan, shard as u16, seed, deadline, exchange, build, collect)
                }));
                match outcome {
                    Ok(run) => *slot.lock().expect("result slot") = Some(run),
                    Err(payload) => {
                        // Wake every sibling parked at the barrier so the
                        // whole run fails instead of deadlocking.
                        exchange.barrier.poison();
                        resume_unwind(payload);
                    }
                }
            }));
        }
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic_payload.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }

    let mut shards = Vec::with_capacity(n);
    for slot in &slots {
        let run = slot
            .lock()
            .expect("result slot")
            .take()
            .expect("every non-panicking shard fills its slot");
        shards.push(run?);
    }
    Ok(ShardReport { shards })
}

/// One shard's whole life: build the world, run the window loop in
/// lockstep with siblings, finalize, collect.
fn shard_main<R, B, C>(
    plan: &ShardPlan,
    shard: u16,
    seed: u64,
    deadline: SimTime,
    exchange: &Exchange,
    build: &B,
    collect: &C,
) -> SimResult<ShardRun<R>>
where
    B: Fn(&mut World, ShardInfo) -> SimResult<()>,
    C: Fn(&mut World, ShardInfo) -> R,
{
    let info = ShardInfo {
        shard,
        shards: plan.shards,
    };
    let mut world = World::new(seed);
    world.configure_shard(plan.config_for(shard))?;
    let built = build(&mut world, info);
    // A build error on one shard must not strand siblings at barrier
    // one: every shard still votes (an erroring shard votes "no work"),
    // and the zero total ends the loop everywhere on round one.
    let build_failed = built.is_err();

    let lookahead = plan.lookahead.as_nanos();
    let deadline_ns = deadline.as_nanos();
    // Cross-shard messages received but not yet due, kept sorted by the
    // (arrival, src_shard, seq) total order.
    let mut pending: Vec<CrossMessage> = Vec::new();
    let mut window_start: u64 = 0;
    let mut events_at_window: u64 = 0;

    let mut exec_ns: u64 = 0;
    let mut stall_ns: u64 = 0;
    let mut windows: u64 = 0;
    // One sample per measured window; sized up front (capped) so the
    // steady-state window loop does not allocate.
    let measured_windows = deadline_ns.saturating_sub(plan.warmup.as_nanos()) / lookahead.max(1);
    let mut dispatch_ns_samples: Vec<u64> =
        Vec::with_capacity((measured_windows + 2).min(4096) as usize);
    let mut measure: Option<(Instant, u64)> = None; // (wall start, events at start)
    let mut measure_wall_ns: u64 = 0;

    loop {
        let parity = (windows & 1) as usize;
        // Events at exactly the deadline belong to the run: the last
        // window's exclusive bound is one past it.
        let window_end = (window_start + lookahead).min(deadline_ns + 1);
        if measure.is_none() && window_start >= plan.warmup.as_nanos() {
            measure = Some((Instant::now(), world.events_processed()));
        }

        if !build_failed {
            // Inject the cross traffic due this window, oldest first.
            let due = pending.partition_point(|m| m.arrival.as_nanos() < window_end);
            for msg in pending.drain(..due) {
                world.inject_cross(msg);
            }
            world.note_external_pending(pending.len() as u64);

            let t0 = Instant::now();
            if world.flight_recorder_enabled() {
                run_window_guarded(&mut world, shard, window_end);
            } else {
                world.run_before(SimTime::from_nanos(window_end));
            }
            let elapsed = t0.elapsed().as_nanos() as u64;
            exec_ns += elapsed;
            let events_now = world.events_processed();
            let window_events = events_now - events_at_window;
            events_at_window = events_now;
            if measure.is_some() && window_events > 0 {
                dispatch_ns_samples.push(elapsed / window_events);
            }
        }

        // Publish the window's cross traffic and this shard's vote.
        let out = if build_failed {
            Vec::new()
        } else {
            world.take_cross_outbox()
        };
        let mut horizon = u64::MAX;
        for msg in &out {
            horizon = horizon.min(msg.arrival.as_nanos());
        }
        if let Some(first) = pending.first() {
            horizon = horizon.min(first.arrival.as_nanos());
        }
        if let Some(next) = world.next_event_time() {
            horizon = horizon.min(next.as_nanos());
        }
        let vote = if build_failed {
            0
        } else {
            world.events_pending() + pending.len() as u64 + out.len() as u64
        };
        for msg in out {
            exchange.inboxes[msg.dst_shard as usize]
                .lock()
                .expect("shard inbox")
                .push(msg);
        }
        exchange.votes[parity].fetch_add(vote, Ordering::Relaxed);
        exchange.horizon[parity].fetch_min(horizon, Ordering::Relaxed);

        let w0 = Instant::now();
        let leader = exchange.barrier.wait();
        let mut waited = w0.elapsed().as_nanos() as u64;

        // All shards published before the barrier; these reads are
        // stable. The leader resets the *other* parity slot — last read
        // a full round ago — for the next window to accumulate into.
        let total = exchange.votes[parity].load(Ordering::Relaxed);
        let merged_horizon = exchange.horizon[parity].load(Ordering::Relaxed);
        if leader {
            exchange.votes[1 - parity].store(0, Ordering::Relaxed);
            exchange.horizon[1 - parity].store(u64::MAX, Ordering::Relaxed);
        }
        // Drain this shard's inbox (siblings cannot publish again until
        // they pass the second barrier) and restore the total order.
        {
            let mut inbox = exchange.inboxes[shard as usize]
                .lock()
                .expect("shard inbox");
            if !inbox.is_empty() {
                pending.append(&mut inbox);
                pending.sort_unstable_by_key(|m| (m.arrival, m.src_shard, m.seq));
            }
        }
        let w1 = Instant::now();
        exchange.barrier.wait();
        waited += w1.elapsed().as_nanos() as u64;
        stall_ns += waited;
        if plan.fold_wall_health {
            world.record_barrier_stall(SimDuration::from_nanos(waited));
        }
        windows += 1;

        if total == 0 || window_end > deadline_ns {
            break;
        }
        // Jump deterministically over empty regions: resume at the
        // window containing the merged horizon (never re-entering an
        // executed window). `total > 0` guarantees a finite horizon.
        window_start = window_end.max(merged_horizon / lookahead * lookahead);
        if window_start > deadline_ns {
            break;
        }
    }
    let mut events_measured = 0;
    if let Some((t0, events0)) = measure {
        measure_wall_ns = t0.elapsed().as_nanos() as u64;
        events_measured = world.events_processed() - events0;
    }

    if plan.fold_wall_health {
        // Exchange exec times so every world's doctor sees the whole
        // fleet: a straggler shard has an outsized share of the total
        // execution time (its siblings' stall mirrors it).
        exchange.exec_ns[shard as usize].store(exec_ns, Ordering::Relaxed);
        exchange.barrier.wait();
        let total_exec: u64 = exchange
            .exec_ns
            .iter()
            .map(|e| e.load(Ordering::Relaxed))
            .sum();
        if total_exec > 0 {
            for (j, e) in exchange.exec_ns.iter().enumerate() {
                let share = e.load(Ordering::Relaxed) as u128 * 1000 * plan.shards as u128
                    / total_exec as u128;
                world
                    .trace_mut()
                    .metrics_mut()
                    .gauge_set(&format!("shard.s{j}.exec_share_milli"), share as i64);
            }
        }
    }

    // Past the last barrier: a shard whose build failed reports its
    // error only now, so siblings were never stranded mid-protocol.
    built?;

    // Advance to the deadline and fold end-of-run metrics exactly like
    // an unsharded run (the wheel is already drained below the bound).
    world.run_until(deadline);

    let cross_sent = world.trace_mut().counter("shard.cross_sent");
    let result = collect(&mut world, info);
    Ok(ShardRun {
        shard,
        result,
        events: world.events_processed(),
        events_measured,
        measure_wall_ns,
        exec_ns,
        barrier_stall_ns: stall_ns,
        cross_sent,
        windows,
        dispatch_ns_samples,
    })
}

/// Shared synchronization state of one sharded run.
struct Exchange {
    /// Per-destination-shard mailboxes for the window's cross traffic.
    inboxes: Vec<Mutex<Vec<CrossMessage>>>,
    /// Double-buffered work votes: window `k` accumulates into slot
    /// `k & 1` while the leader resets the other slot, so a fast shard
    /// entering the next window can never race a slow shard's read.
    votes: [AtomicU64; 2],
    /// Double-buffered min-merged next-event horizon (ns), same parity
    /// scheme.
    horizon: [AtomicU64; 2],
    /// Per-shard total exec time, exchanged once after the loop.
    exec_ns: Vec<AtomicU64>,
    barrier: Barrier,
}

impl Exchange {
    fn new(n: usize) -> Exchange {
        Exchange {
            inboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            votes: [AtomicU64::new(0), AtomicU64::new(0)],
            horizon: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
            exec_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            barrier: Barrier::new(n),
        }
    }
}

/// A reusable sense-reversing barrier that can be poisoned: a panicking
/// shard wakes every waiter, which then panic too instead of
/// deadlocking (`std::sync::Barrier` has no such escape hatch).
struct Barrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    count: usize,
    generation: u64,
    poisoned: bool,
}

impl Barrier {
    fn new(n: usize) -> Barrier {
        Barrier {
            n,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `n` parties arrive; returns `true` on exactly
    /// one of them (the leader). Panics if the barrier is or becomes
    /// poisoned.
    fn wait(&self) -> bool {
        let mut s = self.state.lock().expect("barrier state");
        assert!(!s.poisoned, "a sibling shard panicked");
        s.count += 1;
        if s.count == self.n {
            s.count = 0;
            s.generation += 1;
            self.cv.notify_all();
            return true;
        }
        let generation = s.generation;
        while s.generation == generation && !s.poisoned {
            s = self.cv.wait(s).expect("barrier wait");
        }
        assert!(!s.poisoned, "a sibling shard panicked");
        false
    }

    /// Marks the barrier failed and wakes every waiter.
    fn poison(&self) {
        let mut s = self.state.lock().expect("barrier state");
        s.poisoned = true;
        self.cv.notify_all();
    }
}
