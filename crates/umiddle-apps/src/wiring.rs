//! The wiring helper: a rule engine that connects ports as soon as
//! their translators appear in the directory — the programmatic
//! equivalent of drawing lines in [`Pads`](crate::Pads), for examples,
//! tests and experiments that script a topology instead of drawing it.

use simnet::{Ctx, LocalMessage, ProcId, Process, SimDuration};
use umiddle_core::{
    DirectoryEvent, PortRef, QosPolicy, Query, RuntimeClient, RuntimeEvent, TranslatorId,
};

/// A declarative wiring rule: connect every translator whose name
/// contains `src_name` (at `src_port`) to every translator whose name
/// contains `dst_name` (at `dst_port`).
#[derive(Debug, Clone)]
pub struct WireRule {
    /// Source translator name substring.
    pub src_name: String,
    /// Source port.
    pub src_port: String,
    /// Destination translator name substring.
    pub dst_name: String,
    /// Destination port.
    pub dst_port: String,
    /// QoS policy for each path.
    pub qos: QosPolicy,
}

impl WireRule {
    /// Creates a rule with unbounded QoS.
    pub fn new(src_name: &str, src_port: &str, dst_name: &str, dst_port: &str) -> WireRule {
        WireRule {
            src_name: src_name.to_owned(),
            src_port: src_port.to_owned(),
            dst_name: dst_name.to_owned(),
            dst_port: dst_port.to_owned(),
            qos: QosPolicy::unbounded(),
        }
    }

    /// Overrides the QoS policy (builder style).
    pub fn with_qos(mut self, qos: QosPolicy) -> WireRule {
        self.qos = qos;
        self
    }
}

/// An application process that watches the directory and wires
/// translators together according to [`WireRule`]s.
///
/// Each rule wires the cross product of its matching sources and
/// destinations: when a translator appears, it is connected to every
/// counterpart already seen, in directory-arrival order, so each
/// (rule, source, destination) triple is connected at most once and a
/// repeated `Appeared` for the same translator wires nothing. A
/// `ConnectFailed` panics with its reason: a scripted topology that
/// cannot be built is a bug in the script.
pub struct Wirer {
    runtime: ProcId,
    client: Option<RuntimeClient>,
    rules: Vec<WireRule>,
    /// Per rule: translators matched as source, in arrival order.
    srcs: Vec<Vec<TranslatorId>>,
    /// Per rule: translators matched as destination, in arrival order.
    dsts: Vec<Vec<TranslatorId>>,
}

impl Wirer {
    /// Creates a wirer for the given rules, bound to a runtime.
    pub fn new(runtime: ProcId, rules: Vec<WireRule>) -> Wirer {
        let n = rules.len();
        Wirer {
            runtime,
            client: None,
            rules,
            srcs: vec![Vec::new(); n],
            dsts: vec![Vec::new(); n],
        }
    }
}

impl Process for Wirer {
    fn name(&self) -> &str {
        "wirer"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let client = RuntimeClient::new(self.runtime);
        client.add_listener(ctx, Query::All);
        self.client = Some(client);
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        match *event {
            RuntimeEvent::Directory(DirectoryEvent::Appeared(profile)) => {
                let id = profile.id();
                let client = self.client.as_mut().expect("client set");
                for (i, rule) in self.rules.iter().enumerate() {
                    let connect = |ctx: &mut Ctx<'_>, client: &mut RuntimeClient, src, dst| {
                        client.connect_ports(
                            ctx,
                            PortRef::new(src, rule.src_port.as_str()),
                            PortRef::new(dst, rule.dst_port.as_str()),
                            rule.qos.clone(),
                        );
                    };
                    if profile.name().contains(&rule.src_name) && !self.srcs[i].contains(&id) {
                        self.srcs[i].push(id);
                        for &dst in &self.dsts[i] {
                            connect(ctx, client, id, dst);
                        }
                    }
                    if profile.name().contains(&rule.dst_name) && !self.dsts[i].contains(&id) {
                        self.dsts[i].push(id);
                        for &src in &self.srcs[i] {
                            connect(ctx, client, src, id);
                        }
                    }
                }
            }
            RuntimeEvent::ConnectFailed { reason, .. } => {
                panic!("wiring failed: {reason}");
            }
            _ => {}
        }
    }
}

/// A one-shot process that sends `what` to `to` once `when` of virtual
/// time has passed — a scripted user action for Pads or G2 UI.
pub struct At<T: Clone + 'static> {
    /// Delay from process start.
    pub when: SimDuration,
    /// Recipient process.
    pub to: ProcId,
    /// The message to send.
    pub what: T,
}

impl<T: Clone + 'static> Process for At<T> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.when, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_local(self.to, self.what.clone());
    }
}
