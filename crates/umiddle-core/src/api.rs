//! The local API between processes (applications, mappers, native
//! services) and the uMiddle runtime on their node.
//!
//! Requests and events travel as simnet local messages (zero network cost,
//! same-node only). [`RuntimeClient`] wraps the request side with token
//! allocation; events arrive in the caller's
//! [`Process::on_local`](simnet::Process::on_local) as [`RuntimeEvent`]s.
//!
//! The API mirrors the paper's Figures 6 and 7:
//!
//! * `lookup(Query)` / directory listeners → [`RuntimeRequest::Lookup`],
//!   [`RuntimeRequest::AddListener`], [`DirectoryEvent`].
//! * `connect(OutputPort, InputPort)` and `connect(Port, Query)` →
//!   [`RuntimeRequest::Connect`] with [`ConnectTarget`].

use simnet::{Ctx, LocalMessage, ProcId};

use crate::id::{ConnectionId, PortRef, TranslatorId};
use crate::intern::Symbol;
use crate::message::UMessage;
use crate::profile::TranslatorProfile;
use crate::qos::QosPolicy;
use crate::query::Query;

/// Target of a connect request (paper Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub enum ConnectTarget {
    /// A specific input port (Figure 7-(1)).
    Port(PortRef),
    /// A template query, evaluated adaptively as translators appear and
    /// disappear (Figure 7-(2), dynamic device binding).
    Query(Query),
}

/// Requests a process sends to its local runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeRequest {
    /// Registers a translator. The profile's id is a placeholder; the
    /// runtime assigns the real id and replies with
    /// [`RuntimeEvent::Registered`] carrying `token`.
    Register {
        /// Correlation token echoed in the reply.
        token: u64,
        /// The profile to register (id ignored).
        profile: TranslatorProfile,
        /// The process that will receive [`RuntimeEvent::Input`] for this
        /// translator and emit [`RuntimeRequest::Output`].
        delegate: ProcId,
    },
    /// Removes a translator and its connections; peers are notified.
    Unregister {
        /// The translator to remove.
        translator: TranslatorId,
    },
    /// Queries the directory replica; replies with
    /// [`RuntimeEvent::LookupResult`].
    Lookup {
        /// Correlation token echoed in the reply.
        token: u64,
        /// The query.
        query: Query,
    },
    /// Subscribes the sender to [`DirectoryEvent`]s for profiles matching
    /// `query` (the paper's `addDirectoryListener`). Matching profiles
    /// already present are reported immediately as appearances.
    AddListener {
        /// Filter for events delivered to this listener.
        query: Query,
    },
    /// Removes all of the sender's directory subscriptions.
    RemoveListener,
    /// Establishes a message path from `src` to `target`. Replies with
    /// [`RuntimeEvent::Connected`] or [`RuntimeEvent::ConnectFailed`].
    /// If `src` is hosted by a remote runtime the request is forwarded
    /// there transparently.
    Connect {
        /// Correlation token echoed in the reply.
        token: u64,
        /// Source output port.
        src: PortRef,
        /// Destination: a port or a query template.
        target: ConnectTarget,
        /// QoS policy of the path's translation buffer.
        qos: QosPolicy,
    },
    /// Tears down a connection.
    Disconnect {
        /// The connection to remove.
        connection: ConnectionId,
    },
    /// A delegate emits a message on one of its translator's output
    /// ports; the runtime fans it out along established paths.
    Output {
        /// The emitting translator.
        translator: TranslatorId,
        /// The output port name.
        port: Symbol,
        /// The message.
        msg: UMessage,
    },
    /// A delegate acknowledges that it finished processing one
    /// [`RuntimeEvent::Input`] on `connection`, releasing one unit of the
    /// path's delivery credit. See [`ack_input_done`].
    InputDone {
        /// The connection whose credit to release.
        connection: ConnectionId,
        /// The destination translator the input was delivered to (selects
        /// the path when a query connection fans out to several locals).
        translator: TranslatorId,
    },
    /// Requests a snapshot of this runtime's metric scope (`rt{N}.*`,
    /// prefix stripped). Replies with [`RuntimeEvent::Metrics`].
    MetricsSnapshot {
        /// Correlation token echoed in the reply.
        token: u64,
    },
    /// Requests a live windowed-telemetry pull of this runtime's metric
    /// scope (`rt{N}.*`, prefix stripped): per-interval deltas, rates
    /// and watermarks from the world's sampler. Replies with
    /// [`RuntimeEvent::Telemetry`]; the window is `None` when the world
    /// has not enabled telemetry.
    TelemetryWindow {
        /// Correlation token echoed in the reply.
        token: u64,
    },
}

/// Directory change notifications (the paper's `DirectoryListener`).
#[derive(Debug, Clone, PartialEq)]
pub enum DirectoryEvent {
    /// A translator matching the subscription appeared (or was already
    /// present when the listener was added).
    Appeared(TranslatorProfile),
    /// A translator disappeared (unregistered, or its home runtime was
    /// evicted by the liveness sweep).
    Disappeared(TranslatorId),
}

/// Events the runtime delivers to processes.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeEvent {
    /// Registration completed.
    Registered {
        /// Token from the [`RuntimeRequest::Register`].
        token: u64,
        /// The assigned translator id.
        translator: TranslatorId,
    },
    /// Lookup result.
    LookupResult {
        /// Token from the [`RuntimeRequest::Lookup`].
        token: u64,
        /// Matching profiles, ordered by translator id.
        profiles: Vec<TranslatorProfile>,
    },
    /// A directory change matching one of the receiver's subscriptions.
    Directory(DirectoryEvent),
    /// A connection was established.
    Connected {
        /// Token from the [`RuntimeRequest::Connect`].
        token: u64,
        /// The new connection's id.
        connection: ConnectionId,
    },
    /// A connection could not be established.
    ConnectFailed {
        /// Token from the [`RuntimeRequest::Connect`].
        token: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// A message arrived on an input port of a translator delegated to
    /// the receiver. The receiver should call [`ack_input_done`] (or send
    /// [`RuntimeRequest::InputDone`]) when processing completes.
    Input {
        /// The destination translator.
        translator: TranslatorId,
        /// The input port name.
        port: Symbol,
        /// The message.
        msg: UMessage,
        /// The connection it arrived on.
        connection: ConnectionId,
    },
    /// A dynamic (query) connection bound to a concrete destination port.
    PathBound {
        /// The dynamic connection.
        connection: ConnectionId,
        /// The destination it bound to.
        dst: PortRef,
    },
    /// A dynamic connection lost one of its destinations.
    PathUnbound {
        /// The dynamic connection.
        connection: ConnectionId,
        /// The departed destination.
        dst: PortRef,
    },
    /// A snapshot of the runtime's metric scope, in reply to
    /// [`RuntimeRequest::MetricsSnapshot`].
    Metrics {
        /// Token from the request.
        token: u64,
        /// The runtime's `rt{N}.*` metrics, prefix stripped.
        snapshot: simnet::MetricsSnapshot,
    },
    /// A live windowed-telemetry pull, in reply to
    /// [`RuntimeRequest::TelemetryWindow`].
    Telemetry {
        /// Token from the request.
        token: u64,
        /// The runtime's scoped window, or `None` when the world has
        /// not enabled telemetry.
        window: Option<simnet::TelemetryWindow>,
    },
}

/// Internal self-echo used by [`ack_input_done`] to defer the
/// acknowledgment until the process's modeled CPU time has elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputDoneEcho {
    /// The local runtime to forward the ack to.
    pub runtime: ProcId,
    /// The connection whose credit to release.
    pub connection: ConnectionId,
    /// The destination translator the input was delivered to.
    pub translator: TranslatorId,
}

/// Acknowledges an [`RuntimeEvent::Input`] *after* the caller's modeled
/// CPU time ([`Ctx::busy`]) has elapsed.
///
/// The ack is sent to the process itself first; because deliveries to a
/// busy process are deferred, the echo arrives once processing "finishes",
/// and [`handle_input_done_echo`] then forwards the real
/// [`RuntimeRequest::InputDone`] to the runtime. Call this at the end of
/// the `Input` handler, after any `ctx.busy(...)`.
pub fn ack_input_done(
    ctx: &mut Ctx<'_>,
    runtime: ProcId,
    connection: ConnectionId,
    translator: TranslatorId,
) {
    let me = ctx.me();
    ctx.send_local(
        me,
        InputDoneEcho {
            runtime,
            connection,
            translator,
        },
    );
}

/// Processes an [`InputDoneEcho`] in `on_local`. Returns `true` if the
/// message was an echo (and was handled), `false` otherwise.
pub fn handle_input_done_echo(ctx: &mut Ctx<'_>, msg: &LocalMessage) -> bool {
    if let Some(echo) = msg.downcast_ref::<InputDoneEcho>() {
        ctx.send_local(
            echo.runtime,
            RuntimeRequest::InputDone {
                connection: echo.connection,
                translator: echo.translator,
            },
        );
        true
    } else {
        false
    }
}

/// Convenience wrapper for talking to the local runtime: allocates
/// correlation tokens and sends [`RuntimeRequest`]s.
///
/// One client per process; events still arrive via `on_local` as
/// [`RuntimeEvent`]s. Typical delegate skeleton:
///
/// ```
/// use simnet::{Ctx, LocalMessage, ProcId, Process};
/// use umiddle_core::{
///     ack_input_done, handle_input_done_echo, RuntimeClient, RuntimeEvent,
///     RuntimeId, TranslatorId, TranslatorProfile,
/// };
///
/// struct MyService { runtime: ProcId, client: Option<RuntimeClient> }
///
/// impl Process for MyService {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         let mut client = RuntimeClient::new(self.runtime);
///         let profile = TranslatorProfile::builder(
///             TranslatorId::new(RuntimeId(u32::MAX), 0), // placeholder id
///             "My Service",
///         ).build();
///         let me = ctx.me();
///         client.register(ctx, profile, me);
///         self.client = Some(client);
///     }
///     fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
///         if handle_input_done_echo(ctx, &msg) { return; }
///         if let Ok(event) = msg.downcast::<RuntimeEvent>() {
///             if let RuntimeEvent::Input { translator, connection, .. } = *event {
///                 // ... handle the message, model CPU with ctx.busy ...
///                 ack_input_done(ctx, self.runtime, connection, translator);
///             }
///         }
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeClient {
    runtime: ProcId,
    next_token: u64,
}

impl RuntimeClient {
    /// Creates a client bound to the runtime process on this node.
    pub fn new(runtime: ProcId) -> RuntimeClient {
        RuntimeClient {
            runtime,
            next_token: 1,
        }
    }

    /// The runtime process this client talks to.
    pub fn runtime(&self) -> ProcId {
        self.runtime
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Registers a translator; returns the correlation token.
    pub fn register(
        &mut self,
        ctx: &mut Ctx<'_>,
        profile: TranslatorProfile,
        delegate: ProcId,
    ) -> u64 {
        let token = self.token();
        ctx.send_local(
            self.runtime,
            RuntimeRequest::Register {
                token,
                profile,
                delegate,
            },
        );
        token
    }

    /// Unregisters a translator.
    pub fn unregister(&self, ctx: &mut Ctx<'_>, translator: TranslatorId) {
        ctx.send_local(self.runtime, RuntimeRequest::Unregister { translator });
    }

    /// Issues a lookup; returns the correlation token.
    pub fn lookup(&mut self, ctx: &mut Ctx<'_>, query: Query) -> u64 {
        let token = self.token();
        ctx.send_local(self.runtime, RuntimeRequest::Lookup { token, query });
        token
    }

    /// Subscribes to directory events matching `query`.
    pub fn add_listener(&self, ctx: &mut Ctx<'_>, query: Query) {
        ctx.send_local(self.runtime, RuntimeRequest::AddListener { query });
    }

    /// Connects an output port to a specific input port (Figure 7-(1));
    /// returns the correlation token.
    pub fn connect_ports(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: PortRef,
        dst: PortRef,
        qos: QosPolicy,
    ) -> u64 {
        let token = self.token();
        ctx.send_local(
            self.runtime,
            RuntimeRequest::Connect {
                token,
                src,
                target: ConnectTarget::Port(dst),
                qos,
            },
        );
        token
    }

    /// Connects an output port to every translator matching a query
    /// template, adaptively (Figure 7-(2)); returns the correlation token.
    pub fn connect_query(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: PortRef,
        query: Query,
        qos: QosPolicy,
    ) -> u64 {
        let token = self.token();
        ctx.send_local(
            self.runtime,
            RuntimeRequest::Connect {
                token,
                src,
                target: ConnectTarget::Query(query),
                qos,
            },
        );
        token
    }

    /// Tears down a connection.
    pub fn disconnect(&self, ctx: &mut Ctx<'_>, connection: ConnectionId) {
        ctx.send_local(self.runtime, RuntimeRequest::Disconnect { connection });
    }

    /// Requests the runtime's metric scope; returns the correlation
    /// token echoed in [`RuntimeEvent::Metrics`].
    pub fn metrics_snapshot(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        let token = self.token();
        ctx.send_local(self.runtime, RuntimeRequest::MetricsSnapshot { token });
        token
    }

    /// Requests a live windowed-telemetry pull of the runtime's metric
    /// scope; returns the correlation token echoed in
    /// [`RuntimeEvent::Telemetry`].
    pub fn telemetry_window(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        let token = self.token();
        ctx.send_local(self.runtime, RuntimeRequest::TelemetryWindow { token });
        token
    }

    /// Emits a message on a translator's output port.
    pub fn output(
        &self,
        ctx: &mut Ctx<'_>,
        translator: TranslatorId,
        port: impl Into<Symbol>,
        msg: UMessage,
    ) {
        ctx.send_local(
            self.runtime,
            RuntimeRequest::Output {
                translator,
                port: port.into(),
                msg,
            },
        );
    }
}
