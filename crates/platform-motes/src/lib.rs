//! # platform-motes — simulated Berkeley sensor motes
//!
//! The paper lists "the Berkeley Motes platform" among the platforms
//! uMiddle bridges. We model TinyOS-era motes: tiny Active Message frames
//! ([`ActiveMessage`]) on a 38.4 kbps shared radio channel (simnet's
//! `mote_radio` segment, with loss), sensor motes ([`Mote`]) that
//! broadcast periodic readings, and a [`BaseStation`] that collects them
//! for the attached host — where the uMiddle motes mapper picks them up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simnet::{
    ByteReader, Ctx, Datagram, DecodeError, LocalMessage, Payload, PayloadBuilder, ProcId, Process,
    SimDuration,
};

/// The radio broadcast group all motes share.
pub const RADIO_GROUP: u16 = 100;

/// AM type of a sensor reading.
pub const AM_READING: u8 = 10;
/// AM type of a sampling-configuration command.
pub const AM_CONFIG: u8 = 11;

/// A TinyOS-style Active Message: type, source mote id, tiny payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveMessage {
    /// AM dispatch type.
    pub am_type: u8,
    /// Source mote id.
    pub src: u16,
    /// Payload (at most 29 bytes, like the classic TOSMsg). Shared
    /// [`Payload`] so a received radio frame's bytes are not re-copied
    /// per hop.
    pub payload: Payload,
}

/// Maximum AM payload.
pub const AM_MAX_PAYLOAD: usize = 29;

impl ActiveMessage {
    /// Creates a message, truncating the payload to [`AM_MAX_PAYLOAD`].
    pub fn new(am_type: u8, src: u16, payload: impl Into<Payload>) -> ActiveMessage {
        let mut payload = payload.into();
        if payload.len() > AM_MAX_PAYLOAD {
            payload = payload.slice(0..AM_MAX_PAYLOAD);
        }
        ActiveMessage {
            am_type,
            src,
            payload,
        }
    }

    /// Encodes: `type (1) | src (2 LE) | len (1) | payload`.
    pub fn encode(&self) -> Payload {
        let mut out = PayloadBuilder::with_capacity(4 + self.payload.len());
        out.push(self.am_type);
        out.u16_le(self.src);
        out.push(self.payload.len() as u8);
        out.extend_from_slice(&self.payload);
        out.freeze()
    }

    /// Decodes a message from a shared radio frame; the payload is a
    /// zero-copy sub-slice of `frame`.
    pub fn decode_payload(frame: &Payload) -> Option<ActiveMessage> {
        Self::read(ByteReader::with_backing(frame)).ok()
    }

    /// Decodes a message; `None` on garbage.
    pub fn decode(bytes: &[u8]) -> Option<ActiveMessage> {
        Self::read(ByteReader::new(bytes)).ok()
    }

    fn read(mut r: ByteReader<'_>) -> Result<ActiveMessage, DecodeError> {
        let am_type = r.u8()?;
        let src = r.u16_le()?;
        let len = usize::from(r.u8()?);
        if len > AM_MAX_PAYLOAD || r.remaining() != len {
            return Err(DecodeError::Malformed);
        }
        Ok(ActiveMessage {
            am_type,
            src,
            payload: r.payload(len)?,
        })
    }
}

/// A sensor reading carried in an [`AM_READING`] message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    /// Sequence number (wraps).
    pub seq: u16,
    /// Temperature in tenths of a degree Celsius.
    pub temperature_decicelsius: i16,
    /// Light level, 0–1023 ADC counts.
    pub light: u16,
}

impl Reading {
    /// Encodes into an AM payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.temperature_decicelsius.to_le_bytes());
        out.extend_from_slice(&self.light.to_le_bytes());
        out
    }

    /// Decodes from an AM payload.
    pub fn decode(payload: &[u8]) -> Option<Reading> {
        let mut r = ByteReader::new(payload);
        let reading = Reading {
            seq: r.u16_le().ok()?,
            temperature_decicelsius: r.u16_le().ok()? as i16,
            light: r.u16_le().ok()?,
        };
        r.finish().ok()?;
        Some(reading)
    }
}

/// A sensor mote: broadcasts a reading every sampling interval; accepts
/// [`AM_CONFIG`] commands changing the interval (payload = interval in
/// milliseconds, u16 LE).
#[derive(Debug)]
pub struct Mote {
    id: u16,
    interval: SimDuration,
    seq: u16,
    temperature: i16,
    light: u16,
}

impl Mote {
    /// Creates a mote with the given id and sampling interval.
    pub fn new(id: u16, interval: SimDuration) -> Mote {
        Mote {
            id,
            interval,
            seq: 0,
            temperature: 220,
            light: 500,
        }
    }
}

impl Process for Mote {
    fn name(&self) -> &str {
        "mote"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.join_group(RADIO_GROUP);
        // Desynchronize motes a little.
        let jitter = SimDuration::from_millis(ctx.rng().gen_range(0..200));
        ctx.set_timer(self.interval + jitter, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        // Random-walk the sensors.
        self.temperature += ctx.rng().gen_range(-3i16..=3);
        self.light = self
            .light
            .saturating_add_signed(ctx.rng().gen_range(-20i16..=20));
        self.seq = self.seq.wrapping_add(1);
        let reading = Reading {
            seq: self.seq,
            temperature_decicelsius: self.temperature,
            light: self.light.min(1023),
        };
        let msg = ActiveMessage::new(AM_READING, self.id, reading.encode());
        let _ = ctx.multicast(RADIO_GROUP, RADIO_GROUP, msg.encode());
        ctx.bump(simnet::metric_id!("motes.readings_sent"), 1);
        ctx.set_timer(self.interval, 0);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        // The type byte leads the frame: a neighbour's reading (or any
        // other type) is dropped before it is decoded.
        if dgram.data.first() != Some(&AM_CONFIG) {
            return;
        }
        let Some(am) = ActiveMessage::decode_payload(&dgram.data) else {
            return;
        };
        if am.payload.len() == 2 {
            let ms = u16::from_le_bytes([am.payload[0], am.payload[1]]);
            self.interval = SimDuration::from_millis(u64::from(ms.max(50)));
            ctx.bump("motes.configs_applied", 1);
        }
    }
}

/// Messages a base station forwards to its attached host process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseStationEvent {
    /// A reading arrived from a mote.
    Reading {
        /// The mote that sent it.
        mote: u16,
        /// The decoded reading.
        reading: Reading,
    },
}

/// Commands a host process can send to the base station (as local
/// messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseStationCommand {
    /// Broadcast a sampling-interval change to all motes.
    SetSamplingInterval {
        /// New interval in milliseconds.
        millis: u16,
    },
}

/// A base station: bridges the radio to a host process on the same node
/// (the uMiddle motes mapper).
#[derive(Debug)]
pub struct BaseStation {
    /// Host process that receives [`BaseStationEvent`]s.
    sink: Option<ProcId>,
    last_seq: std::collections::HashMap<u16, u16>,
}

impl BaseStation {
    /// Creates a base station forwarding to `sink`.
    pub fn new(sink: Option<ProcId>) -> BaseStation {
        BaseStation {
            sink,
            last_seq: std::collections::HashMap::new(),
        }
    }
}

impl Process for BaseStation {
    fn name(&self) -> &str {
        "mote-base-station"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.join_group(RADIO_GROUP);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        let Some(am) = ActiveMessage::decode_payload(&dgram.data) else {
            return;
        };
        if am.am_type != AM_READING {
            return;
        }
        let Some(reading) = Reading::decode(&am.payload) else {
            return;
        };
        // Drop radio duplicates.
        if self.last_seq.get(&am.src) == Some(&reading.seq) {
            return;
        }
        self.last_seq.insert(am.src, reading.seq);
        ctx.bump(simnet::metric_id!("motes.readings_received"), 1);
        if let Some(sink) = self.sink {
            ctx.send_local(
                sink,
                BaseStationEvent::Reading {
                    mote: am.src,
                    reading,
                },
            );
        }
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let Ok(cmd) = msg.downcast::<BaseStationCommand>() else {
            return;
        };
        match *cmd {
            BaseStationCommand::SetSamplingInterval { millis } => {
                let am = ActiveMessage::new(AM_CONFIG, 0, millis.to_le_bytes().to_vec());
                let _ = ctx.multicast(RADIO_GROUP, RADIO_GROUP, am.encode());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SegmentConfig, SimTime, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn oversized_payload_truncated() {
        let m = ActiveMessage::new(1, 1, vec![0; 100]);
        assert_eq!(m.payload.len(), AM_MAX_PAYLOAD);
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(
            ActiveMessage::decode(&[1, 0, 0, 31]),
            None,
            "length past the maximum"
        );
    }

    #[test]
    fn structured_mutations_never_panic_the_decoder() {
        let reading = Reading {
            seq: 3,
            temperature_decicelsius: -15,
            light: 900,
        };
        let corpus: Vec<Vec<u8>> = [reading.encode(), vec![0xAB; AM_MAX_PAYLOAD], vec![]]
            .map(|p| ActiveMessage::new(AM_READING, 7, p).encode().to_vec())
            .into();
        simnet::check_mutations("am_structured_mutations", &corpus, |m| {
            let shared = ActiveMessage::decode_payload(&Payload::copy_from_slice(m));
            assert_eq!(shared, ActiveMessage::decode(m));
            let am = shared?;
            Reading::decode(&am.payload);
            Some(am.encode().to_vec())
        });
    }

    #[test]
    fn reading_round_trip() {
        let r = Reading {
            seq: 42,
            temperature_decicelsius: -15,
            light: 900,
        };
        assert_eq!(Reading::decode(&r.encode()), Some(r));
        assert_eq!(Reading::decode(&[1, 2, 3]), None);
    }

    struct Sink {
        got: Rc<RefCell<Vec<BaseStationEvent>>>,
    }
    impl Process for Sink {
        fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
            if let Ok(ev) = msg.downcast::<BaseStationEvent>() {
                self.got.borrow_mut().push(*ev);
            }
        }
    }

    #[test]
    fn motes_report_to_base_station_over_lossy_radio() {
        let mut world = World::new(51);
        let radio = world.add_segment(SegmentConfig::mote_radio());
        let bs_node = world.add_node("base");
        world.attach(bs_node, radio).unwrap();
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = world.add_process(
            bs_node,
            Box::new(Sink {
                got: Rc::clone(&got),
            }),
        );
        world.add_process(bs_node, Box::new(BaseStation::new(Some(sink))));
        for i in 0..3 {
            let m_node = world.add_node(format!("mote{i}"));
            world.attach(m_node, radio).unwrap();
            world.add_process(
                m_node,
                Box::new(Mote::new(i as u16 + 1, SimDuration::from_secs(1))),
            );
        }
        world.run_until(SimTime::from_secs(30));
        let got = got.borrow();
        // 3 motes * ~30 readings, minus ~2% radio loss.
        assert!(got.len() > 60, "received {} readings", got.len());
        let motes: std::collections::HashSet<u16> = got
            .iter()
            .map(|BaseStationEvent::Reading { mote, .. }| *mote)
            .collect();
        assert_eq!(motes.len(), 3, "heard every mote");
    }

    #[test]
    fn config_command_changes_sampling_rate() {
        let mut world = World::new(52);
        let radio = world.add_segment(SegmentConfig::mote_radio());
        let bs_node = world.add_node("base");
        let m_node = world.add_node("mote");
        world.attach(bs_node, radio).unwrap();
        world.attach(m_node, radio).unwrap();
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = world.add_process(
            bs_node,
            Box::new(Sink {
                got: Rc::clone(&got),
            }),
        );
        let bs = world.add_process(bs_node, Box::new(BaseStation::new(Some(sink))));
        world.add_process(m_node, Box::new(Mote::new(1, SimDuration::from_secs(5))));

        // A driver that speeds the mote up to 500 ms after 10 s.
        struct Driver {
            bs: ProcId,
        }
        impl Process for Driver {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(10), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.send_local(
                    self.bs,
                    BaseStationCommand::SetSamplingInterval { millis: 500 },
                );
            }
        }
        world.add_process(bs_node, Box::new(Driver { bs }));
        world.run_until(SimTime::from_secs(10));
        let before = got.borrow().len();
        world.run_until(SimTime::from_secs(20));
        let after = got.borrow().len() - before;
        assert!(
            after > before * 3,
            "faster sampling after reconfiguration: {before} then {after}"
        );
    }
}
