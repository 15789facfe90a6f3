//! HIDP — the Human Interface Device profile: the paper's Bluetooth
//! mouse.
//!
//! A host opens the interrupt channel (a stream on [`PSM_HID`]); the
//! device then pushes binary input reports: button reports and motion
//! reports. §5.2 benchmarks the uMiddle translator receiving "mouse click
//! signals a hundred times from the mouse".

use simnet::{ByteReader, Ctx, Datagram, Process, SimDuration, StreamEvent, StreamId};

use crate::calib;
use crate::device::BtDeviceCore;
use crate::sdp::ServiceRecord;

/// The interrupt-channel stream port (stands in for L2CAP PSM 0x0013).
pub const PSM_HID: u16 = 19;

/// Class-of-device bits for a mouse.
pub const COD_MOUSE: u32 = 0x2580;

/// One HID input report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HidReport {
    /// Button state change: a bitmask of pressed buttons.
    Buttons(u8),
    /// Relative motion.
    Motion {
        /// Horizontal delta.
        dx: i8,
        /// Vertical delta.
        dy: i8,
    },
}

impl HidReport {
    /// Encodes the report (`0xA1` DATA | report id | payload).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            HidReport::Buttons(mask) => vec![0xA1, 0x01, *mask],
            HidReport::Motion { dx, dy } => vec![0xA1, 0x02, *dx as u8, *dy as u8],
        }
    }

    /// Decodes one report from the front of a buffer; returns the report
    /// and bytes consumed, or `None` if more bytes are needed / invalid.
    pub fn decode(buf: &[u8]) -> Option<(HidReport, usize)> {
        let mut r = ByteReader::new(buf);
        let report = match (r.u8().ok()?, r.u8().ok()?) {
            (0xA1, 0x01) => HidReport::Buttons(r.u8().ok()?),
            (0xA1, 0x02) => HidReport::Motion {
                dx: r.u8().ok()? as i8,
                dy: r.u8().ok()? as i8,
            },
            _ => return None,
        };
        Some((report, buf.len() - r.remaining()))
    }
}

/// Accumulates stream bytes into reports.
///
/// Reports are read at a cursor; the consumed prefix is dropped only
/// once it is at least half the buffer, so popping a backlog of n
/// reports moves O(n) bytes, not O(n^2).
#[derive(Debug, Default)]
pub struct ReportAccumulator {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed.
    read: usize,
}

impl ReportAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> ReportAccumulator {
        ReportAccumulator::default()
    }

    /// Feeds bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.read * 2 >= self.buf.len() {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete report. Skips garbage bytes until a report
    /// header aligns (robustness over a byte stream).
    #[allow(clippy::should_implement_trait)] // framer convention, not an Iterator
    pub fn next(&mut self) -> Option<HidReport> {
        while let Some(rest) = self.buf.get(self.read..).filter(|r| !r.is_empty()) {
            if let Some((report, used)) = HidReport::decode(rest) {
                self.read += used;
                return Some(report);
            }
            if rest.len() < 4 && rest[0] == 0xA1 {
                return None; // likely a partial report
            }
            self.read += 1;
        }
        None
    }
}

/// Behaviour configuration for the simulated mouse.
#[derive(Debug, Clone, PartialEq)]
pub struct MouseConfig {
    /// Device name in inquiry responses.
    pub name: String,
    /// Interval between click (press+release) pairs, if the mouse
    /// auto-clicks.
    pub click_interval: Option<SimDuration>,
    /// Interval between motion reports, if the mouse auto-moves.
    pub motion_interval: Option<SimDuration>,
    /// Stop after this many clicks (0 = unlimited).
    pub click_limit: u32,
}

impl Default for MouseConfig {
    fn default() -> MouseConfig {
        MouseConfig {
            name: "HIDP Mouse".to_owned(),
            click_interval: Some(SimDuration::from_millis(200)),
            motion_interval: None,
            click_limit: 0,
        }
    }
}

const TIMER_CLICK: u64 = 1;
const TIMER_MOTION: u64 = 2;
const TIMER_INQUIRY_BASE: u64 = 1000;

/// The simulated HIDP mouse device.
#[derive(Debug)]
pub struct HidpMouse {
    core: BtDeviceCore,
    config: MouseConfig,
    host: Option<StreamId>,
    clicks_sent: u32,
    pressed: bool,
}

impl HidpMouse {
    /// Creates a mouse.
    pub fn new(config: MouseConfig) -> HidpMouse {
        let records = vec![
            ServiceRecord::new(0x10001, "hidp-mouse", &config.name, PSM_HID)
                .with_attribute(0x0100, "hid"),
        ];
        HidpMouse {
            core: BtDeviceCore::new(&config.name, COD_MOUSE, records, TIMER_INQUIRY_BASE),
            config,
            host: None,
            clicks_sent: 0,
            pressed: false,
        }
    }

    /// Clicks delivered so far.
    pub fn clicks_sent(&self) -> u32 {
        self.clicks_sent
    }

    fn send_report(&mut self, ctx: &mut Ctx<'_>, report: HidReport) {
        let Some(stream) = self.host else { return };
        ctx.busy(calib::HIDP_REPORT_COST);
        if ctx.stream_send(stream, report.encode()).is_err() {
            self.host = None;
        } else {
            ctx.bump(simnet::metric_id!("bt.hid_reports"), 1);
        }
    }
}

impl Process for HidpMouse {
    fn name(&self) -> &str {
        "hidp-mouse"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.start(ctx);
        ctx.listen(PSM_HID).expect("hid psm free");
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        self.core.handle_datagram(ctx, &dgram);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.core.handle_timer(ctx, token) {
            return;
        }
        match token {
            TIMER_CLICK => {
                if self.host.is_some() {
                    if self.pressed {
                        self.send_report(ctx, HidReport::Buttons(0x00));
                        self.pressed = false;
                        self.clicks_sent += 1;
                    } else {
                        self.send_report(ctx, HidReport::Buttons(0x01));
                        self.pressed = true;
                    }
                }
                let done =
                    self.config.click_limit > 0 && self.clicks_sent >= self.config.click_limit;
                if let (Some(interval), false) = (self.config.click_interval, done) {
                    // A press/release pair per interval: half interval each.
                    ctx.set_timer(interval / 2, TIMER_CLICK);
                }
            }
            TIMER_MOTION => {
                let (dx, dy) = {
                    let rng = ctx.rng();
                    (rng.gen_range(-5i8..=5), rng.gen_range(-5i8..=5))
                };
                self.send_report(ctx, HidReport::Motion { dx, dy });
                if let Some(interval) = self.config.motion_interval {
                    ctx.set_timer(interval, TIMER_MOTION);
                }
            }
            _ => {}
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if self.core.handle_sdp_stream(ctx, stream, &event) {
            return;
        }
        match event {
            StreamEvent::Accepted { local_port, .. } if local_port == PSM_HID => {
                self.host = Some(stream);
                // Start pushing reports once a host attaches.
                if let Some(interval) = self.config.click_interval {
                    ctx.set_timer(interval / 2, TIMER_CLICK);
                }
                if let Some(interval) = self.config.motion_interval {
                    ctx.set_timer(interval, TIMER_MOTION);
                }
            }
            StreamEvent::Closed | StreamEvent::ConnectFailed if self.host == Some(stream) => {
                self.host = None;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip() {
        for r in [
            HidReport::Buttons(0x01),
            HidReport::Buttons(0x00),
            HidReport::Motion { dx: -3, dy: 7 },
        ] {
            let bytes = r.encode();
            let (back, used) = HidReport::decode(&bytes).unwrap();
            assert_eq!(back, r);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn accumulator_handles_split_and_garbage() {
        let mut acc = ReportAccumulator::new();
        acc.push(&[0x55, 0x66]); // garbage
        let r1 = HidReport::Buttons(1).encode();
        let r2 = HidReport::Motion { dx: 1, dy: -1 }.encode();
        acc.push(&r1);
        acc.push(&r2[..2]);
        assert_eq!(acc.next(), Some(HidReport::Buttons(1)));
        assert_eq!(acc.next(), None);
        acc.push(&r2[2..]);
        assert_eq!(acc.next(), Some(HidReport::Motion { dx: 1, dy: -1 }));
    }

    #[test]
    fn a_backlog_interleaved_with_garbage_pops_in_order() {
        let mut rng = simnet::SimRng::seed_from_u64(11);
        let mut wire = Vec::new();
        let mut reports = Vec::new();
        for i in 0..10_000u32 {
            let r = if i % 2 == 0 {
                HidReport::Buttons(rng.gen_range(0u8..=u8::MAX))
            } else {
                HidReport::Motion {
                    dx: rng.gen_range(i8::MIN..=i8::MAX),
                    dy: rng.gen_range(i8::MIN..=i8::MAX),
                }
            };
            // Up to three garbage bytes, none of them a report header.
            for _ in 0..rng.gen_range(0usize..4) {
                wire.push(rng.gen_range(0u8..0xA1));
            }
            wire.extend(r.encode());
            reports.push(r);
        }
        let mut acc = ReportAccumulator::new();
        acc.push(&wire);
        let got: Vec<HidReport> = std::iter::from_fn(|| acc.next()).collect();
        assert_eq!(got, reports);
    }

    #[test]
    fn structured_mutations_never_panic_the_decoder() {
        let corpus: Vec<Vec<u8>> = [
            HidReport::Buttons(0x01),
            HidReport::Buttons(0xA1),
            HidReport::Motion { dx: -3, dy: 7 },
        ]
        .iter()
        .map(HidReport::encode)
        .collect();
        simnet::check_mutations("hidp_structured_mutations", &corpus, |m| {
            HidReport::decode(m)
                .filter(|&(_, used)| used == m.len())
                .map(|(r, _)| r.encode())
        });
    }

    #[test]
    fn stream_of_reports_reassembles() {
        simnet::check_cases("hidp_stream_of_reports_reassembles", 256, |_, rng| {
            let n = rng.gen_range(0usize..32);
            let reports: Vec<HidReport> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        HidReport::Buttons(rng.gen_range(0u8..=u8::MAX))
                    } else {
                        HidReport::Motion {
                            dx: rng.gen_range(i8::MIN..=i8::MAX),
                            dy: rng.gen_range(i8::MIN..=i8::MAX),
                        }
                    }
                })
                .collect();
            let chunk = rng.gen_range(1usize..9);
            let mut wire = Vec::new();
            for r in &reports {
                wire.extend(r.encode());
            }
            let mut acc = ReportAccumulator::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                acc.push(piece);
                while let Some(r) = acc.next() {
                    got.push(r);
                }
            }
            assert_eq!(got, reports);
        });
    }
}
