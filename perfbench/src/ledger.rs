//! The per-layer host-time ledger, measured from outside the program.
//!
//! Every process a workload adds goes through [`Tracer::add`]. In a
//! traced run that wraps it in [`Traced`], a forwarding [`Process`] that
//! times each callback and charges the time to the layer fixed when the
//! process was added. Nothing is allocated per call: the layer is an
//! array index and the call stack is a preallocated `Vec`.
//!
//! Callbacks nest: `Ctx::remove_process` runs the victim's `on_stop`
//! inside the caller's handler. The ledger keeps a stack of open frames
//! and charges each interval to the innermost frame only, so nested time
//! is counted once and the layers' times never add up to more than the
//! wall time they ran in. Kernel self time is the wall time of a run
//! window minus all handler time inside it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use simnet::{Ctx, Datagram, LocalMessage, NodeId, ProcId, Process, StreamEvent, StreamId, World};

/// A layer of the system, as a ledger index.
pub type Layer = usize;

/// The simnet kernel: everything that runs outside a handler.
pub const KERNEL: Layer = 0;
/// The uMiddle runtime (`umiddle-core`).
pub const RUNTIME: Layer = 1;
/// The six platform mappers (`umiddle-bridges`), in [`PLATFORMS`] order.
pub const BRIDGE: [Layer; 6] = [2, 3, 4, 5, 6, 7];
/// The native devices of the six platforms, in [`PLATFORMS`] order.
pub const NATIVE: [Layer; 6] = [8, 9, 10, 11, 12, 13];
/// The benchmark's own drivers, sinks, producers and wirers.
pub const APP: Layer = 14;
/// Number of layers.
pub const LAYERS: usize = 15;

/// Platform names, as the mappers spell them in their metric names.
pub const PLATFORMS: [&str; 6] = [
    "upnp",
    "bluetooth",
    "motes",
    "rmi",
    "mediabroker",
    "webservices",
];

/// The metric prefix of each layer.
pub fn layer_name(layer: Layer) -> String {
    match layer {
        KERNEL => "simnet.kernel".to_owned(),
        RUNTIME => "umiddle-core.runtime".to_owned(),
        APP => "bench.app".to_owned(),
        l if BRIDGE.contains(&l) => format!("umiddle-bridges.{}", PLATFORMS[l - BRIDGE[0]]),
        l => format!("platform-{}", PLATFORMS[l - NATIVE[0]]),
    }
}

struct Frame {
    layer: Layer,
    since: Instant,
}

struct State {
    stack: Vec<Frame>,
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

/// Accumulated handler time and call counts per layer.
pub struct Ledger {
    state: RefCell<State>,
}

/// A copy of the ledger's counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct LedgerSnapshot {
    /// Handler nanoseconds charged to each layer (self time).
    pub ns: [u64; LAYERS],
    /// Callbacks entered per layer.
    pub calls: [u64; LAYERS],
}

impl LedgerSnapshot {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            ns: std::array::from_fn(|i| self.ns[i] - earlier.ns[i]),
            calls: std::array::from_fn(|i| self.calls[i] - earlier.calls[i]),
        }
    }

    /// Handler time summed over every layer.
    pub fn handler_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Callbacks summed over every layer.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            state: RefCell::new(State {
                stack: Vec::with_capacity(64),
                ns: [0; LAYERS],
                calls: [0; LAYERS],
            }),
        }
    }

    #[inline]
    fn enter(&self, layer: Layer) {
        let now = Instant::now();
        let mut st = self.state.borrow_mut();
        if let Some(top) = st.stack.last_mut() {
            // Close the caller's interval; it resumes when we return.
            let (l, since) = (top.layer, top.since);
            st.ns[l] += now.duration_since(since).as_nanos() as u64;
        }
        st.stack.push(Frame { layer, since: now });
        st.calls[layer] += 1;
        crate::alloc::set_layer(layer);
    }

    #[inline]
    fn exit(&self) {
        let now = Instant::now();
        let mut st = self.state.borrow_mut();
        let frame = st.stack.pop().expect("exit matches an enter");
        st.ns[frame.layer] += now.duration_since(frame.since).as_nanos() as u64;
        let resumed = match st.stack.last_mut() {
            Some(top) => {
                top.since = now;
                top.layer
            }
            None => KERNEL,
        };
        crate::alloc::set_layer(resumed);
    }

    /// The counters now.
    pub fn snapshot(&self) -> LedgerSnapshot {
        let st = self.state.borrow();
        LedgerSnapshot {
            ns: st.ns,
            calls: st.calls,
        }
    }
}

/// Adds processes to a world, wrapped for timing when tracing is on.
#[derive(Clone)]
pub struct Tracer {
    ledger: Option<Rc<Ledger>>,
}

impl Tracer {
    /// A tracer that wraps (`traced`) or passes processes through.
    pub fn new(traced: bool) -> Tracer {
        Tracer {
            ledger: traced.then(|| Rc::new(Ledger::new())),
        }
    }

    /// The ledger, in a traced run.
    pub fn ledger(&self) -> Option<&Ledger> {
        self.ledger.as_deref()
    }

    /// Wraps `process` so its callbacks are charged to `layer`.
    pub fn wrap(&self, layer: Layer, process: Box<dyn Process>) -> Box<dyn Process> {
        match &self.ledger {
            Some(ledger) => Box::new(Traced {
                layer,
                ledger: Rc::clone(ledger),
                inner: process,
            }),
            None => process,
        }
    }

    /// Adds `process` to `node`, charged to `layer`.
    pub fn add(
        &self,
        world: &mut World,
        node: NodeId,
        layer: Layer,
        process: Box<dyn Process>,
    ) -> ProcId {
        world.add_process(node, self.wrap(layer, process))
    }
}

/// A forwarding process that charges every callback to one layer.
pub struct Traced {
    layer: Layer,
    ledger: Rc<Ledger>,
    inner: Box<dyn Process>,
}

impl Traced {
    #[inline]
    fn timed(&mut self, f: impl FnOnce(&mut dyn Process)) {
        self.ledger.enter(self.layer);
        f(self.inner.as_mut());
        self.ledger.exit();
    }
}

impl Process for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(|p| p.on_start(ctx));
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        self.timed(|p| p.on_datagram(ctx, dgram));
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        self.timed(|p| p.on_stream(ctx, stream, event));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.timed(|p| p.on_timer(ctx, token));
    }
    fn on_local(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: LocalMessage) {
        self.timed(|p| p.on_local(ctx, from, msg));
    }
    fn on_stop(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(|p| p.on_stop(ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimDuration, SimTime};

    fn spin(d: std::time::Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// Spins in `on_stop`, so its time is visible when nested.
    struct Victim;
    impl Process for Victim {
        fn on_stop(&mut self, _ctx: &mut Ctx<'_>) {
            spin(std::time::Duration::from_millis(20));
        }
    }

    /// Removes the victim from inside its own timer handler.
    struct Killer(ProcId);
    impl Process for Killer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.remove_process(self.0).expect("victim alive");
        }
    }

    #[test]
    fn nested_on_stop_is_charged_once_to_the_victim() {
        let tracer = Tracer::new(true);
        let mut world = World::new(1);
        let node = world.add_node("n");
        let victim = tracer.add(&mut world, node, NATIVE[0], Box::new(Victim));
        tracer.add(&mut world, node, APP, Box::new(Killer(victim)));
        let t0 = Instant::now();
        world.run_until(SimTime::from_secs(1));
        let wall = t0.elapsed().as_nanos() as u64;
        let s = tracer.ledger().expect("traced").snapshot();
        assert_eq!(s.calls[NATIVE[0]], 2, "on_start + nested on_stop");
        assert!(s.ns[NATIVE[0]] >= 20_000_000, "victim's spin charged to it");
        assert!(s.ns[APP] < 20_000_000, "spin not charged twice");
        assert!(s.handler_ns() <= wall, "handlers exceed the wall time");
    }
}
