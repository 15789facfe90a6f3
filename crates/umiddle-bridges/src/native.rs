//! Native uMiddle services: devices built directly against uMiddle as
//! their native platform.
//!
//! The paper's Pads screenshot shows twenty-two devices of which eighteen
//! are "native uMiddle devices, by which we mean services built directly
//! against uMiddle as their native middleware platform". [`NativeService`]
//! hosts such a device from a [`NativeBehavior`] implementation, and
//! [`behaviors`] provides a toolbox of ready-made ones (buttons, loggers,
//! transformers, periodic sources).

use simnet::{Ctx, DetailArg, LocalMessage, ProcId, Process, SimDuration, SpanDetail};
use umiddle_core::{
    ack_input_done, handle_input_done_echo, ConnectionId, RuntimeClient, RuntimeEvent, RuntimeId,
    Shape, Symbol, TranslatorId, TranslatorProfile, UMessage,
};

/// The environment a behavior acts through.
pub struct NativeEnv<'a, 'w> {
    ctx: &'a mut Ctx<'w>,
    client: &'a RuntimeClient,
    translator: Option<TranslatorId>,
}

impl std::fmt::Debug for NativeEnv<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeEnv")
            .field("translator", &self.translator)
            .finish_non_exhaustive()
    }
}

impl NativeEnv<'_, '_> {
    /// Emits a message on one of this service's output ports (no-op until
    /// registration completes).
    pub fn emit(&mut self, port: &str, msg: UMessage) {
        if let Some(id) = self.translator {
            self.client.output(self.ctx, id, port, msg);
        }
    }

    /// Sets a timer; `token` comes back to [`NativeBehavior::on_timer`].
    pub fn set_timer(&mut self, after: SimDuration, token: u64) {
        // Token 0 is reserved internally; shift user tokens.
        self.ctx.set_timer(after, token + 1);
    }

    /// Simulated CPU work.
    pub fn busy(&mut self, d: SimDuration) {
        self.ctx.busy(d);
    }

    /// Current virtual time.
    pub fn now(&self) -> simnet::SimTime {
        self.ctx.now()
    }

    /// This service's translator id, once registered.
    pub fn translator(&self) -> Option<TranslatorId> {
        self.translator
    }
}

/// Behaviour of a native uMiddle service.
pub trait NativeBehavior {
    /// Called once registration completes.
    fn on_registered(&mut self, env: &mut NativeEnv<'_, '_>) {
        let _ = env;
    }

    /// Called for each message arriving on an input port.
    fn on_input(&mut self, env: &mut NativeEnv<'_, '_>, port: &str, msg: UMessage) {
        let _ = (env, port, msg);
    }

    /// Called when a timer set via [`NativeEnv::set_timer`] fires.
    fn on_timer(&mut self, env: &mut NativeEnv<'_, '_>, token: u64) {
        let _ = (env, token);
    }
}

/// A process hosting one native uMiddle service.
pub struct NativeService {
    name: String,
    shape: Shape,
    attrs: Vec<(String, String)>,
    behavior: Box<dyn NativeBehavior>,
    client: RuntimeClient,
    translator: Option<TranslatorId>,
}

impl std::fmt::Debug for NativeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeService")
            .field("name", &self.name)
            .field("translator", &self.translator)
            .finish_non_exhaustive()
    }
}

impl NativeService {
    /// Creates a native service.
    pub fn new(
        name: &str,
        shape: Shape,
        runtime: ProcId,
        behavior: Box<dyn NativeBehavior>,
    ) -> NativeService {
        NativeService {
            name: name.to_owned(),
            shape,
            attrs: Vec::new(),
            behavior,
            client: RuntimeClient::new(runtime),
            translator: None,
        }
    }

    /// Adds a profile attribute (builder style).
    pub fn with_attr(mut self, key: &str, value: &str) -> NativeService {
        self.attrs.push((key.to_owned(), value.to_owned()));
        self
    }
}

impl Process for NativeService {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut builder = TranslatorProfile::builder(
            TranslatorId::new(RuntimeId(u32::MAX), 0),
            self.name.clone(),
        )
        .shape(self.shape.clone());
        for (k, v) in &self.attrs {
            builder = builder.attr(k.clone(), v.clone());
        }
        let me = ctx.me();
        self.client.register(ctx, builder.build(), me);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == 0 {
            return;
        }
        let mut env = NativeEnv {
            ctx,
            client: &self.client,
            translator: self.translator,
        };
        self.behavior.on_timer(&mut env, token - 1);
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        if handle_input_done_echo(ctx, &msg) {
            return;
        }
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        match *event {
            RuntimeEvent::Registered { translator, .. } => {
                self.translator = Some(translator);
                let mut env = NativeEnv {
                    ctx,
                    client: &self.client,
                    translator: self.translator,
                };
                self.behavior.on_registered(&mut env);
            }
            RuntimeEvent::Input {
                translator,
                port,
                msg,
                connection,
            } => self.handle_input(ctx, translator, port, msg, connection),
            _ => {}
        }
    }
}

impl NativeService {
    /// Runs the behaviour callback for one delivered input — called
    /// once per [`RuntimeEvent::Input`].
    fn handle_input(
        &mut self,
        ctx: &mut Ctx<'_>,
        translator: TranslatorId,
        port: Symbol,
        msg: UMessage,
        connection: ConnectionId,
    ) {
        // Structured span around the behaviour callback: ends
        // at the service's emit time, so CPU the behaviour
        // models with busy() lands inside the span.
        let span = ctx.span_begin(
            connection.corr(),
            "bridge.native.input",
            SpanDetail::new(&["port=", ""], [DetailArg::Str(port.as_static())]),
        );
        let mut env = NativeEnv {
            ctx,
            client: &self.client,
            translator: self.translator,
        };
        self.behavior.on_input(&mut env, &port, msg);
        ctx.span_end(span);
        ack_input_done(ctx, self.client.runtime(), connection, translator);
    }
}

/// Ready-made behaviours for building device fleets (Pads, examples).
pub mod behaviors {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::{NativeBehavior, NativeEnv};
    use simnet::SimDuration;
    use umiddle_core::UMessage;

    /// Emits a fixed message on a port at a fixed interval.
    #[derive(Debug)]
    pub struct PeriodicSource {
        /// Output port name.
        pub port: String,
        /// Message factory input: `(sequence number) -> message`.
        pub interval: SimDuration,
        /// Number of messages to emit (0 = unlimited).
        pub limit: u64,
        /// Message payload factory.
        pub make: fn(u64) -> UMessage,
        sent: u64,
    }

    impl PeriodicSource {
        /// Creates a periodic source.
        pub fn new(
            port: &str,
            interval: SimDuration,
            limit: u64,
            make: fn(u64) -> UMessage,
        ) -> PeriodicSource {
            PeriodicSource {
                port: port.to_owned(),
                interval,
                limit,
                make,
                sent: 0,
            }
        }
    }

    impl NativeBehavior for PeriodicSource {
        fn on_registered(&mut self, env: &mut NativeEnv<'_, '_>) {
            env.set_timer(self.interval, 0);
        }
        fn on_timer(&mut self, env: &mut NativeEnv<'_, '_>, _token: u64) {
            let msg = (self.make)(self.sent);
            env.emit(&self.port, msg);
            self.sent += 1;
            if self.limit == 0 || self.sent < self.limit {
                env.set_timer(self.interval, 0);
            }
        }
    }

    /// Records everything arriving on any input port.
    #[derive(Debug, Default)]
    pub struct Recorder {
        /// Shared record of `(port, message)` pairs.
        pub received: Rc<RefCell<Vec<(String, UMessage)>>>,
    }

    impl Recorder {
        /// Creates a recorder; clone `received` before boxing.
        pub fn new() -> Recorder {
            Recorder::default()
        }
    }

    impl NativeBehavior for Recorder {
        fn on_input(&mut self, _env: &mut NativeEnv<'_, '_>, port: &str, msg: UMessage) {
            self.received.borrow_mut().push((port.to_owned(), msg));
        }
    }

    /// Echoes every input back out on a fixed output port, with optional
    /// per-message CPU cost (a slow consumer for QoS experiments).
    #[derive(Debug)]
    pub struct Echo {
        /// The port echoes leave on.
        pub out_port: String,
        /// Per-message CPU cost.
        pub cost: SimDuration,
        /// Messages processed.
        pub count: Rc<RefCell<u64>>,
    }

    impl Echo {
        /// Creates an echo with no processing cost.
        pub fn new(out_port: &str) -> Echo {
            Echo {
                out_port: out_port.to_owned(),
                cost: SimDuration::ZERO,
                count: Rc::new(RefCell::new(0)),
            }
        }
    }

    impl NativeBehavior for Echo {
        fn on_input(&mut self, env: &mut NativeEnv<'_, '_>, _port: &str, msg: UMessage) {
            if !self.cost.is_zero() {
                env.busy(self.cost);
            }
            *self.count.borrow_mut() += 1;
            env.emit(&self.out_port, msg);
        }
    }

    /// Applies a text transformation to inputs and re-emits them.
    pub struct Transformer {
        /// The port transformed messages leave on.
        pub out_port: String,
        /// The transformation.
        pub f: Box<dyn FnMut(&str) -> String>,
    }

    impl std::fmt::Debug for Transformer {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Transformer")
                .field("out_port", &self.out_port)
                .finish_non_exhaustive()
        }
    }

    impl NativeBehavior for Transformer {
        fn on_input(&mut self, env: &mut NativeEnv<'_, '_>, _port: &str, msg: UMessage) {
            let text = msg.body_text().unwrap_or_default();
            let out = (self.f)(text);
            env.emit(&self.out_port, UMessage::text(out));
        }
    }
}
