//! The Berkeley-motes mapper: base-station attachment and per-mote
//! translators.
//!
//! The mapper sits on the base-station node; the base station forwards
//! decoded readings as local messages. The first reading from a mote
//! creates a translator for it; readings are emitted on its
//! `temperature` and `light-level` output ports, and an `Input` on the
//! `sampling` port reconfigures the whole radio via the base station.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use platform_motes::{BaseStationCommand, BaseStationEvent};
use simnet::{Ctx, LocalMessage, ProcId, Process, SimDuration, SimTime};
use umiddle_core::{
    ack_input_done, handle_input_done_echo, ConnectionId, RuntimeEvent, Symbol, TranslatorId,
    UMessage,
};
use umiddle_usdl::UsdlLibrary;

use crate::calib;
use crate::mapper::{Entity, MapperCore, MapperStats};

const TIMER_EXPIRE: u64 = 1;

#[derive(Debug)]
struct MappedMote {
    translator: Option<TranslatorId>,
    last_seen: SimTime,
}

/// The motes mapper process. Wire the base station's sink to this
/// process's id.
pub struct MotesMapper {
    /// Translators keyed by mote id.
    core: MapperCore<u16>,
    usdl: UsdlLibrary,
    /// The base-station process (for sampling reconfiguration).
    base_station: Option<ProcId>,
    motes: HashMap<u16, MappedMote>,
    expiry: SimDuration,
}

impl std::fmt::Debug for MotesMapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MotesMapper")
            .field("motes", &self.motes.len())
            .finish_non_exhaustive()
    }
}

impl MotesMapper {
    /// Creates a mapper; `base_station` is the co-located base-station
    /// process (set after spawning it, or `None` for receive-only).
    pub fn new(runtime: ProcId, usdl: UsdlLibrary, base_station: Option<ProcId>) -> MotesMapper {
        MotesMapper {
            core: MapperCore::new(runtime, "motes", "motes"),
            usdl,
            base_station,
            motes: HashMap::new(),
            expiry: SimDuration::from_secs(30),
        }
    }

    /// Shared statistics handle.
    pub fn stats_handle(&self) -> Rc<RefCell<MapperStats>> {
        Rc::clone(&self.core.stats)
    }

    fn handle_reading(&mut self, ctx: &mut Ctx<'_>, mote: u16, reading: platform_motes::Reading) {
        let now = ctx.now();
        let known = self.motes.contains_key(&mote);
        let entry = self.motes.entry(mote).or_insert_with(|| MappedMote {
            translator: None,
            last_seen: now,
        });
        entry.last_seen = now;
        if !known {
            let Some(doc) = self.usdl.get("motes", "sensor-mote") else {
                ctx.bump("mapper.motes.missing_usdl", 1);
                return;
            };
            let name = format!("Mote {mote}");
            let entity = Entity {
                key: mote,
                name: name.clone(),
                seen_at: now,
            };
            self.core.instantiate(ctx, doc, 0, &name, entity);
            return; // this first reading is consumed by discovery
        }
        let Some(translator) = entry.translator else {
            return;
        };
        ctx.busy(calib::EVENT_TRANSLATION);
        self.core.record_egress(ctx, calib::EVENT_TRANSLATION);
        self.core.stats.borrow_mut().events += 1;
        let temperature = format!("{:.1}", reading.temperature_decicelsius as f64 / 10.0);
        self.core
            .client
            .output(ctx, translator, "temperature", UMessage::text(temperature));
        self.core.client.output(
            ctx,
            translator,
            "light-level",
            UMessage::text(reading.light.to_string()),
        );
    }

    fn handle_runtime_event(&mut self, ctx: &mut Ctx<'_>, event: RuntimeEvent) {
        match event {
            RuntimeEvent::Registered { token, translator } => {
                let Some(mote) = self.core.registered(ctx, token, translator) else {
                    return;
                };
                if let Some(entry) = self.motes.get_mut(&mote) {
                    entry.translator = Some(translator);
                }
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

    /// Translates one delivered input into a base-station command —
    /// called once per [`RuntimeEvent::Input`].
    fn handle_input(
        &mut self,
        ctx: &mut Ctx<'_>,
        translator: TranslatorId,
        port: Symbol,
        msg: UMessage,
        connection: ConnectionId,
    ) {
        if port == "sampling" {
            if let (Some(bs), Some(millis)) = (
                self.base_station,
                msg.body_text().and_then(|t| t.parse::<u16>().ok()),
            ) {
                ctx.busy(calib::CONTROL_TRANSLATION);
                self.core
                    .record_hop(ctx, connection, port, calib::CONTROL_TRANSLATION);
                ctx.send_local(bs, BaseStationCommand::SetSamplingInterval { millis });
                self.core.stats.borrow_mut().actions += 1;
            }
        }
        ack_input_done(ctx, self.core.runtime(), connection, translator);
    }
}

impl Process for MotesMapper {
    fn name(&self) -> &str {
        "motes-mapper"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.announce(ctx);
        let expiry = self.expiry;
        ctx.set_timer(expiry, TIMER_EXPIRE);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_EXPIRE {
            let now = ctx.now();
            let expiry = self.expiry;
            let mut dead: Vec<u16> = self
                .motes
                .iter()
                .filter(|(_, m)| now.saturating_since(m.last_seen) > expiry)
                .map(|(id, _)| *id)
                .collect();
            // Depart in id order, not the map's per-run hash order.
            dead.sort_unstable();
            for id in dead {
                if let Some(m) = self.motes.remove(&id) {
                    self.core.depart(ctx, &id, m.translator);
                    if m.translator.is_some() {
                        ctx.bump("mapper.motes.expired", 1);
                    }
                }
            }
            ctx.set_timer(expiry, TIMER_EXPIRE);
        }
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        if handle_input_done_echo(ctx, &msg) {
            return;
        }
        let msg = match msg.downcast::<RuntimeEvent>() {
            Ok(event) => {
                self.handle_runtime_event(ctx, *event);
                return;
            }
            Err(original) => original,
        };
        if let Ok(ev) = msg.downcast::<BaseStationEvent>() {
            let BaseStationEvent::Reading { mote, reading } = *ev;
            self.handle_reading(ctx, mote, reading);
        }
    }
}
