//! Sensor dashboard: Berkeley motes logged to a web service through
//! uMiddle — two more platforms the paper bridges, composed without any
//! platform-specific application code.
//!
//! Readings flow `mote.temperature → log-service.log-in`; the example
//! then reconfigures the motes' sampling rate through the same
//! translator (`sampling` input) and reads the log back over plain
//! XML-RPC to prove the entries arrived at the native service.
//!
//! Run with: `cargo run --example sensor_dashboard`

use umiddle::platform_motes::{BaseStation, Mote};
use umiddle::platform_webservices::WsServer;
use umiddle::simnet::{Addr, Ctx, ProcId, Process, SegmentConfig, SimDuration, SimTime, World};
use umiddle::umiddle_apps::{WireRule, Wirer};
use umiddle::umiddle_bridges::{behaviors, MotesMapper, NativeService, WsMapper};
use umiddle::umiddle_core::{Direction, RuntimeConfig, RuntimeId, Shape, UmiddleRuntime};
use umiddle::umiddle_usdl::UsdlLibrary;

fn main() {
    let mut world = World::new(17);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let radio = world.add_segment(SegmentConfig::mote_radio());

    // The uMiddle host straddles the radio and the LAN.
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, radio).unwrap();
    let rt = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );

    // Three motes on the radio.
    for i in 0..3u16 {
        let m_node = world.add_node(format!("mote{i}"));
        world.attach(m_node, radio).unwrap();
        world.add_process(
            m_node,
            Box::new(Mote::new(i + 1, SimDuration::from_secs(4))),
        );
    }
    // Base station + motes mapper.
    let mapper = MotesMapper::new(rt, UsdlLibrary::bundled(), None);
    let motes_stats = mapper.stats_handle();
    let mapper_proc = world.add_process(h1, Box::new(mapper));
    world.add_process(h1, Box::new(BaseStation::new(Some(mapper_proc))));

    // The log web service on the LAN.
    let ws_node = world.add_node("logserver");
    world.attach(ws_node, hub).unwrap();
    world.add_process(ws_node, Box::new(WsServer::logger("Field Log", 8080)));
    world.add_process(
        h1,
        Box::new(WsMapper::new(
            rt,
            UsdlLibrary::bundled(),
            vec![Addr::new(ws_node, 8080)],
        )),
    );

    // Also watch readings natively.
    let meter = behaviors::Recorder::new();
    let seen = std::rc::Rc::clone(&meter.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Dashboard",
            Shape::builder()
                .digital("in", Direction::Input, "text/plain".parse().unwrap())
                .build()
                .unwrap(),
            rt,
            Box::new(meter),
        )),
    );

    // Wire every mote's temperature into the log service and dashboard.
    let mut rules = Vec::new();
    for i in 1..=3 {
        rules.push(WireRule::new(
            &format!("Mote {i}"),
            "temperature",
            "Field Log",
            "log-in",
        ));
        rules.push(WireRule::new(
            &format!("Mote {i}"),
            "temperature",
            "Dashboard",
            "in",
        ));
    }
    world.add_process(h1, Box::new(Wirer::new(rt, rules)));

    // Speed the motes up mid-run through the sampling port.
    struct Retune {
        runtime: ProcId,
        client: Option<umiddle::umiddle_core::RuntimeClient>,
        mote_port: Option<umiddle::umiddle_core::PortRef>,
        own: Option<umiddle::umiddle_core::TranslatorId>,
    }
    impl Process for Retune {
        fn name(&self) -> &str {
            "retune"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let mut client = umiddle::umiddle_core::RuntimeClient::new(self.runtime);
            // Register a tiny control service with one output port.
            let shape = Shape::builder()
                .digital("rate", Direction::Output, "text/plain".parse().unwrap())
                .build()
                .unwrap();
            let profile = umiddle::umiddle_core::TranslatorProfile::builder(
                umiddle::umiddle_core::TranslatorId::new(RuntimeId(u32::MAX), 0),
                "Rate Knob",
            )
            .shape(shape)
            .build();
            let me = ctx.me();
            client.register(ctx, profile, me);
            client.add_listener(
                ctx,
                umiddle::umiddle_core::Query::NameContains("Mote".into()),
            );
            self.client = Some(client);
            ctx.set_timer(SimDuration::from_secs(45), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            match token {
                1 => {
                    // Wire knob -> mote sampling, then emit the new rate.
                    if let (Some(own), Some(port)) = (self.own, self.mote_port) {
                        let client = self.client.as_mut().expect("set");
                        client.connect_ports(
                            ctx,
                            umiddle::umiddle_core::PortRef::new(own, "rate"),
                            port,
                            umiddle::umiddle_core::QosPolicy::unbounded(),
                        );
                        ctx.set_timer(SimDuration::from_secs(2), 2);
                    }
                }
                2 => {
                    // Faster sampling: 1500 ms per reading.
                    if let Some(own) = self.own {
                        let client = self.client.as_ref().expect("set");
                        client.output(
                            ctx,
                            own,
                            "rate",
                            umiddle::umiddle_core::UMessage::text("1500"),
                        );
                    }
                }
                _ => {}
            }
        }
        fn on_local(
            &mut self,
            _ctx: &mut Ctx<'_>,
            _from: ProcId,
            msg: umiddle::simnet::LocalMessage,
        ) {
            let Ok(event) = msg.downcast::<umiddle::umiddle_core::RuntimeEvent>() else {
                return;
            };
            match *event {
                umiddle::umiddle_core::RuntimeEvent::Registered { translator, .. } => {
                    self.own = Some(translator);
                }
                umiddle::umiddle_core::RuntimeEvent::Directory(
                    umiddle::umiddle_core::DirectoryEvent::Appeared(profile),
                ) if self.mote_port.is_none() && profile.name().contains("Mote") => {
                    self.mote_port = Some(umiddle::umiddle_core::PortRef::new(
                        profile.id(),
                        "sampling",
                    ));
                }
                umiddle::umiddle_core::RuntimeEvent::Connected { .. } => {}
                _ => {}
            }
        }
    }
    let retune = Retune {
        runtime: rt,
        client: None,
        mote_port: None,
        own: None,
    };
    world.add_process(h1, Box::new(retune));

    world.run_until(SimTime::from_secs(120));

    println!("sensor dashboard: motes -> uMiddle -> web-service log");
    println!("-------------------------------------------------------");
    println!(
        "motes mapped            : {}",
        motes_stats.borrow().mappings.len()
    );
    println!(
        "readings heard by base  : {}",
        world.trace().counter("motes.readings_received")
    );
    println!(
        "log-service RPC calls   : {}",
        world.trace().counter("ws.calls")
    );
    println!("dashboard readings      : {}", seen.borrow().len());
    let recent: Vec<String> = seen
        .borrow()
        .iter()
        .rev()
        .take(5)
        .map(|(_, m)| m.body_text().unwrap_or("?").to_owned())
        .collect();
    println!("latest temperatures (C) : {recent:?}");
    assert!(motes_stats.borrow().mappings.len() >= 3);
    assert!(world.trace().counter("ws.calls") >= 3);
    assert!(!seen.borrow().is_empty());
    println!("ok: sensor readings bridged to the web-service log");
}
