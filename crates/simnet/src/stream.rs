//! Reliable, in-order byte streams over the shared-medium model.
//!
//! The stream layer is a compact TCP analogue: three-way-ish handshake
//! (SYN / SYN-ACK), MSS segmentation, a fixed sender window, cumulative
//! ACKs, go-back-N retransmission with exponential RTO backoff, and
//! FIN/RST teardown. Every data *and* acknowledgment frame occupies the
//! medium, so on a half-duplex segment ACK traffic competes with data —
//! this is the mechanism that caps TCP goodput on the paper's 10 Mbps hub
//! below line rate.
//!
//! The implementation lives centrally in the [`World`] rather than in
//! per-node processes: it models the OS kernels of the simulated hosts.
//!
//! # The retransmission timer
//!
//! A side arms its RTO when it sends data or a FIN with none armed, on
//! every ACK that leaves bytes outstanding, and on each go-back-N
//! retransmission; an ACK that covers everything disarms it. Almost every
//! deadline is superseded by the next ACK before it is due, so the timer
//! is re-armed lazily: each side keeps its deadline (time plus scheduler
//! sequence number) and at most one queued `StreamRto` entry. Arming
//! reserves the deadline's sequence number exactly where a `schedule`
//! call would have drawn it, so every other event keeps its number, but
//! it queues an entry only when none is queued or the queued one is due
//! later (the RTO shrank). When the queued entry pops it retransmits if
//! it is the deadline, re-queues itself at a later deadline under that
//! deadline's reserved number, or lapses if the timer was disarmed. Each
//! live retransmission therefore fires at the same `(time, seq)` as with
//! one entry per arm, and only the stale pops are gone.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::error::{SimError, SimResult};
use crate::metric_id;
use crate::payload::Payload;
use crate::process::{Addr, NodeId, ProcId, SegmentId, StreamEvent, StreamId};
use crate::time::SimDuration;
use crate::world::{Delivery, EventKind, Frame, FrameDst, FramePayload, TimerKey, World};

/// Initial retransmission timeout.
const RTO_INITIAL: SimDuration = SimDuration::from_millis(100);
/// Retransmission timeout ceiling.
const RTO_MAX: SimDuration = SimDuration::from_secs(2);
/// Interval between SYN retries.
const SYN_RETRY_AFTER: SimDuration = SimDuration::from_millis(500);
/// SYN attempts before giving up with `ConnectFailed`.
const SYN_MAX_ATTEMPTS: u32 = 4;
/// Upper bound on bytes queued but unsent per stream direction.
const SEND_CAPACITY: usize = 256 * 1024;
/// Sender window: maximum unacknowledged bytes in flight.
const WINDOW: u64 = 64 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    SynSent,
    Established,
    Closed,
}

/// The sender-side byte queue, kept as the original [`Payload`] chunks so
/// that segmentation, retransmission (go-back-N rewind) and ACK trimming
/// are all O(1) views into the application's buffers instead of copies.
#[derive(Debug, Default)]
pub(crate) struct SendQueue {
    chunks: VecDeque<Payload>,
    len: usize,
}

impl SendQueue {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn push(&mut self, p: Payload) {
        if p.is_empty() {
            return;
        }
        self.len += p.len();
        self.chunks.push_back(p);
    }

    /// Zero-copy view of up to `max` bytes starting `offset` bytes into the
    /// queue. Bounded by the chunk containing `offset`: a segment never
    /// straddles two application writes, which keeps every wire frame a
    /// pure sub-slice of one backing allocation.
    pub(crate) fn peek_at(&self, offset: usize, max: usize) -> Payload {
        debug_assert!(offset < self.len, "peek_at past end of queue");
        let mut skip = offset;
        for c in &self.chunks {
            if skip < c.len() {
                let end = (skip + max).min(c.len());
                return c.slice(skip..end);
            }
            skip -= c.len();
        }
        Payload::new()
    }

    /// Drops `n` acknowledged bytes from the front without copying.
    pub(crate) fn advance(&mut self, mut n: usize) {
        debug_assert!(n <= self.len, "advance past end of queue");
        self.len -= n;
        while n > 0 {
            let front = self.chunks.front_mut().expect("advance within len");
            if n < front.len() {
                front.advance(n);
                break;
            }
            n -= front.len();
            self.chunks.pop_front();
        }
    }
}

#[derive(Debug)]
pub(crate) struct Side {
    pub(crate) proc: Option<ProcId>,
    pub(crate) node: NodeId,
    pub(crate) port: u16,
    // --- sender state ---
    send_buf: SendQueue,
    base_seq: u64,
    next_seq: u64,
    rto: SimDuration,
    /// When the retransmission timer is due, if armed.
    rto_deadline: Option<TimerKey>,
    /// The side's one `StreamRto` entry in the scheduler, if queued. It
    /// is the deadline itself or an earlier key, never a later one.
    rto_queued: Option<TimerKey>,
    fin_queued: bool,
    fin_sent: bool,
    fin_acked: bool,
    was_full: bool,
    // --- receiver state ---
    recv_next: u64,
    ooo: BTreeMap<u64, Payload>,
    peer_fin_seq: Option<u64>,
    delivered_closed: bool,
}

impl Side {
    fn new(proc: Option<ProcId>, node: NodeId, port: u16) -> Side {
        Side {
            proc,
            node,
            port,
            send_buf: SendQueue::default(),
            base_seq: 0,
            next_seq: 0,
            rto: RTO_INITIAL,
            rto_deadline: None,
            rto_queued: None,
            fin_queued: false,
            fin_sent: false,
            fin_acked: false,
            was_full: false,
            recv_next: 0,
            ooo: BTreeMap::new(),
            peer_fin_seq: None,
            delivered_closed: false,
        }
    }

    fn in_flight(&self) -> u64 {
        self.next_seq - self.base_seq
    }

    fn unsent(&self) -> u64 {
        self.send_buf.len() as u64 - self.in_flight()
    }

    fn all_sent_and_acked(&self) -> bool {
        self.send_buf.is_empty() && (!self.fin_sent || self.fin_acked)
    }
}

#[derive(Debug)]
pub(crate) struct StreamState {
    pub(crate) segment: SegmentId,
    pub(crate) phase: Phase,
    pub(crate) dst: Addr,
    /// `sides[0]` is the initiator, `sides[1]` the acceptor.
    pub(crate) sides: [Side; 2],
}

impl StreamState {
    fn side(&self, initiator: bool) -> &Side {
        &self.sides[usize::from(!initiator)]
    }
    fn side_mut(&mut self, initiator: bool) -> &mut Side {
        &mut self.sides[usize::from(!initiator)]
    }
    fn side_of(&self, proc: ProcId) -> Option<bool> {
        if self.sides[0].proc == Some(proc) {
            Some(true)
        } else if self.sides[1].proc == Some(proc) {
            Some(false)
        } else {
            None
        }
    }
}

/// A stream-layer frame on the wire.
#[derive(Debug)]
pub(crate) struct StreamFrame {
    pub(crate) stream: StreamId,
    /// `true` if the frame was transmitted by the initiator side.
    pub(crate) from_initiator: bool,
    pub(crate) kind: StreamFrameKind,
}

#[derive(Debug)]
pub(crate) enum StreamFrameKind {
    Syn { src: Addr, dst: Addr },
    SynAck,
    Rst,
    Data { seq: u64, bytes: Payload },
    Ack { ack: u64 },
    Fin { seq: u64 },
}

impl World {
    fn stream_state(&mut self, id: StreamId) -> Option<&mut StreamState> {
        self.streams
            .get_mut(id.index())
            .and_then(|s| s.as_deref_mut())
    }

    fn transmit_stream_frame(
        &mut self,
        segment: SegmentId,
        src_node: NodeId,
        dst_node: NodeId,
        frame: StreamFrame,
        payload_len: usize,
    ) {
        self.trace.bump(metric_id!("stream.frames"), 1);
        let f = Frame {
            src_node,
            dst: FrameDst::Unicast(dst_node),
            payload: FramePayload::Stream(frame),
        };
        self.transmit(segment, f, payload_len + Self::STREAM_HEADER);
    }

    /// Opens a stream from `proc` to `dst`. See [`Ctx::connect`](crate::Ctx::connect).
    pub(crate) fn stream_connect(&mut self, proc: ProcId, dst: Addr) -> SimResult<StreamId> {
        let src_node = self.node_of(proc)?;
        let segment = self.route(src_node, dst.node)?;
        let src_port = self.alloc_ephemeral(src_node);
        let id = StreamId(self.streams.len() as u32);
        let state = StreamState {
            segment,
            phase: Phase::SynSent,
            dst,
            sides: [
                Side::new(Some(proc), src_node, src_port),
                Side::new(None, dst.node, dst.port),
            ],
        };
        self.streams.push(Some(Box::new(state)));
        self.send_syn(id, 1);
        Ok(id)
    }

    fn send_syn(&mut self, id: StreamId, attempt: u32) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        if st.phase != Phase::SynSent {
            return;
        }
        let (segment, src_node, dst_node, src_port, dst) = (
            st.segment,
            st.sides[0].node,
            st.sides[1].node,
            st.sides[0].port,
            st.dst,
        );
        self.transmit_stream_frame(
            segment,
            src_node,
            dst_node,
            StreamFrame {
                stream: id,
                from_initiator: true,
                kind: StreamFrameKind::Syn {
                    src: Addr::new(src_node, src_port),
                    dst,
                },
            },
            0,
        );
        let at = self.now() + SYN_RETRY_AFTER;
        self.schedule(
            at,
            EventKind::SynRetry {
                stream: id,
                attempt,
            },
        );
    }

    pub(crate) fn syn_retry(&mut self, id: StreamId, attempt: u32) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        if st.phase != Phase::SynSent {
            return;
        }
        if attempt >= SYN_MAX_ATTEMPTS {
            st.phase = Phase::Closed;
            let proc = st.sides[0].proc;
            if let Some(p) = proc {
                let now = self.now();
                self.schedule_delivery(
                    now,
                    p,
                    Delivery::Stream {
                        stream: id,
                        event: StreamEvent::ConnectFailed,
                    },
                );
            }
            self.free_if_done(id);
            return;
        }
        self.trace.bump("stream.syn_retries", 1);
        self.send_syn(id, attempt + 1);
    }

    /// Queues bytes for transmission. See [`Ctx::stream_send`](crate::Ctx::stream_send).
    ///
    /// Validation (existence, state, capacity) happens synchronously; the
    /// actual enqueue is deferred past the sender's modeled CPU time so
    /// declared processing costs precede the bytes on the wire.
    pub(crate) fn stream_send(
        &mut self,
        proc: ProcId,
        id: StreamId,
        data: Payload,
    ) -> SimResult<()> {
        let Some(st) = self.stream_state(id) else {
            return Err(SimError::UnknownStream(id));
        };
        if st.phase == Phase::Closed {
            return Err(SimError::StreamClosed(id));
        }
        let Some(initiator) = st.side_of(proc) else {
            return Err(SimError::UnknownStream(id));
        };
        let side = st.side_mut(initiator);
        if side.fin_queued {
            return Err(SimError::StreamClosed(id));
        }
        if side.send_buf.len() + data.len() > SEND_CAPACITY {
            side.was_full = true;
            return Err(SimError::StreamBufferFull(id));
        }
        if self.emit_time(proc) > self.now() {
            self.emit_or_defer(
                proc,
                crate::world::EmitAction::StreamData { stream: id, data },
            );
            return Ok(());
        }
        self.stream_send_forced(proc, id, data)
    }

    /// Enqueues bytes without re-checking capacity (deferred sends were
    /// validated at call time).
    pub(crate) fn stream_send_forced(
        &mut self,
        proc: ProcId,
        id: StreamId,
        data: Payload,
    ) -> SimResult<()> {
        let Some(st) = self.stream_state(id) else {
            return Err(SimError::UnknownStream(id));
        };
        if st.phase == Phase::Closed {
            return Err(SimError::StreamClosed(id));
        }
        let Some(initiator) = st.side_of(proc) else {
            return Err(SimError::UnknownStream(id));
        };
        st.side_mut(initiator).send_buf.push(data);
        self.pump(id, initiator);
        Ok(())
    }

    pub(crate) fn stream_sendable(&self, proc: ProcId, id: StreamId) -> usize {
        let Some(Some(st)) = self.streams.get(id.index()) else {
            return 0;
        };
        if st.phase == Phase::Closed {
            return 0;
        }
        let Some(initiator) = st.side_of(proc) else {
            return 0;
        };
        SEND_CAPACITY.saturating_sub(st.side(initiator).send_buf.len())
    }

    /// Requests an orderly close of `proc`'s direction (deferred past the
    /// sender's modeled CPU time so queued responses leave first).
    pub(crate) fn stream_close_deferred(&mut self, proc: ProcId, id: StreamId) {
        if self.emit_time(proc) > self.now() {
            self.emit_or_defer(proc, crate::world::EmitAction::StreamClose { stream: id });
        } else {
            self.stream_close(proc, id);
        }
    }

    /// Requests an orderly close of `proc`'s direction.
    pub(crate) fn stream_close(&mut self, proc: ProcId, id: StreamId) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        if st.phase == Phase::Closed {
            return;
        }
        let Some(initiator) = st.side_of(proc) else {
            return;
        };
        st.side_mut(initiator).fin_queued = true;
        self.pump(id, initiator);
    }

    /// Transmits as much pending data as the window allows; sends a FIN
    /// once everything queued has been transmitted.
    fn pump(&mut self, id: StreamId, initiator: bool) {
        loop {
            let Some(st) = self.stream_state(id) else {
                return;
            };
            if st.phase != Phase::Established {
                return;
            }
            let segment = st.segment;
            let mss = (self.segments[segment.index()].config.mtu as usize)
                .saturating_sub(Self::STREAM_HEADER)
                .max(1) as u64;
            let st = self.stream_state(id).expect("stream checked above");
            let (src_node, dst_node) = (st.side(initiator).node, st.side(!initiator).node);
            let side = st.side_mut(initiator);
            let can_send = WINDOW.saturating_sub(side.in_flight()).min(side.unsent());
            if can_send == 0 {
                // Maybe send the FIN.
                if side.fin_queued && !side.fin_sent && side.send_buf.is_empty() {
                    side.fin_sent = true;
                    let seq = side.next_seq;
                    let need_rto = side.rto_deadline.is_none();
                    self.transmit_stream_frame(
                        segment,
                        src_node,
                        dst_node,
                        StreamFrame {
                            stream: id,
                            from_initiator: initiator,
                            kind: StreamFrameKind::Fin { seq },
                        },
                        0,
                    );
                    if need_rto {
                        self.arm_rto(id, initiator);
                    }
                }
                return;
            }
            let offset = side.in_flight() as usize;
            // Zero-copy view into the send queue; may be shorter than the
            // window allows when it hits an application-write boundary.
            let bytes = side.send_buf.peek_at(offset, can_send.min(mss) as usize);
            let chunk_len = bytes.len();
            debug_assert!(chunk_len > 0, "pump with unsent bytes yields a chunk");
            let seq = side.next_seq;
            side.next_seq += chunk_len as u64;
            let need_rto = side.rto_deadline.is_none();
            self.transmit_stream_frame(
                segment,
                src_node,
                dst_node,
                StreamFrame {
                    stream: id,
                    from_initiator: initiator,
                    kind: StreamFrameKind::Data { seq, bytes },
                },
                chunk_len,
            );
            if need_rto {
                self.arm_rto(id, initiator);
            }
        }
    }

    /// Arms a side's retransmission timer one RTO from now. The deadline
    /// takes its scheduler place here, where a per-arm `schedule` call
    /// would, but an entry is queued only if none is, or if the queued
    /// one is due later; otherwise the queued entry moves on to the
    /// deadline when it pops (see [`World::stream_rto_fired`]).
    fn arm_rto(&mut self, id: StreamId, initiator: bool) {
        let now = self.now();
        let Some(st) = self.stream_state(id) else {
            return;
        };
        let at = now + st.side(initiator).rto;
        let deadline = self.reserve_timer(at);
        let side = self
            .stream_state(id)
            .expect("stream checked above")
            .side_mut(initiator);
        side.rto_deadline = Some(deadline);
        if side.rto_queued.is_some_and(|q| q.at < at) {
            return;
        }
        side.rto_queued = Some(deadline);
        self.schedule_rto(id, initiator, deadline);
    }

    fn schedule_rto(&mut self, id: StreamId, initiator: bool, key: TimerKey) {
        self.schedule_timer(
            key,
            EventKind::StreamRto {
                stream: id,
                from_initiator: initiator,
                key,
            },
        );
    }

    /// Handles a popped `StreamRto` entry. Only the side's queued entry
    /// counts; one it superseded (queued before an earlier deadline
    /// was) is ignored. The queued entry retransmits if it is the
    /// deadline, moves on to the deadline if that is later, and lapses
    /// if the timer was disarmed.
    pub(crate) fn stream_rto_fired(&mut self, id: StreamId, initiator: bool, key: TimerKey) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        if st.phase == Phase::Closed {
            return;
        }
        let side = st.side_mut(initiator);
        if side.rto_queued != Some(key) {
            return;
        }
        side.rto_queued = None;
        match side.rto_deadline {
            None => return,
            Some(deadline) if deadline != key => {
                debug_assert!(deadline.at > key.at, "the queued entry is never late");
                side.rto_queued = Some(deadline);
                self.schedule_rto(id, initiator, deadline);
                return;
            }
            Some(_) => {}
        }
        let has_outstanding = side.in_flight() > 0 || (side.fin_sent && !side.fin_acked);
        if !has_outstanding {
            side.rto_deadline = None;
            return;
        }
        // Go-back-N: rewind to the first unacked byte and re-send.
        side.next_seq = side.base_seq;
        side.fin_sent = false;
        side.rto = (side.rto * 2).min(RTO_MAX);
        self.trace.bump("stream.rto", 1);
        self.arm_rto(id, initiator);
        self.pump(id, initiator);
    }

    /// Handles an arriving stream frame (called from the frame dispatcher).
    pub(crate) fn stream_frame_arrival(&mut self, segment: SegmentId, frame: StreamFrame) {
        let id = frame.stream;
        match frame.kind {
            StreamFrameKind::Syn { src, dst } => self.handle_syn(segment, id, src, dst),
            StreamFrameKind::SynAck => self.handle_syn_ack(id),
            StreamFrameKind::Rst => self.handle_rst(id, frame.from_initiator),
            StreamFrameKind::Data { seq, bytes } => {
                self.handle_data(id, frame.from_initiator, seq, bytes)
            }
            StreamFrameKind::Ack { ack } => self.handle_ack(id, frame.from_initiator, ack),
            StreamFrameKind::Fin { seq } => self.handle_fin(id, frame.from_initiator, seq),
        }
    }

    fn handle_syn(&mut self, segment: SegmentId, id: StreamId, src: Addr, dst: Addr) {
        // Duplicate SYN for an established stream: re-send SYN-ACK.
        if let Some(st) = self.stream_state(id) {
            let phase = st.phase;
            let (seg, a_node, b_node) = (st.segment, st.sides[0].node, st.sides[1].node);
            if phase == Phase::Established {
                self.transmit_stream_frame(
                    seg,
                    b_node,
                    a_node,
                    StreamFrame {
                        stream: id,
                        from_initiator: false,
                        kind: StreamFrameKind::SynAck,
                    },
                    0,
                );
            }
            if phase != Phase::SynSent {
                return;
            }
        }
        let listener = self
            .nodes
            .get(dst.node.index())
            .filter(|n| n.alive)
            .and_then(|n| n.ports.get(&dst.port))
            .filter(|b| b.listener)
            .map(|b| b.proc);
        match listener {
            Some(proc) => {
                // Ensure the streams vec can hold this id (initiator's world
                // allocated it; same world, so it exists already unless this
                // SYN was for a closed/freed slot).
                if self.stream_state(id).is_none() {
                    return;
                }
                let st = self.stream_state(id).expect("checked above");
                // Duplicate SYN (SYN-ACK lost): don't re-deliver Accepted.
                let first_syn = st.sides[1].proc.is_none();
                st.sides[1].proc = Some(proc);
                let (a_node, b_node) = (st.sides[0].node, st.sides[1].node);
                let local_port = dst.port;
                if first_syn {
                    self.schedule_delivery(
                        self.now(),
                        proc,
                        Delivery::Stream {
                            stream: id,
                            event: StreamEvent::Accepted {
                                peer: src,
                                local_port,
                            },
                        },
                    );
                }
                self.transmit_stream_frame(
                    segment,
                    b_node,
                    a_node,
                    StreamFrame {
                        stream: id,
                        from_initiator: false,
                        kind: StreamFrameKind::SynAck,
                    },
                    0,
                );
            }
            None => {
                let Some(st) = self.stream_state(id) else {
                    return;
                };
                let (a_node, b_node) = (st.sides[0].node, st.sides[1].node);
                self.transmit_stream_frame(
                    segment,
                    b_node,
                    a_node,
                    StreamFrame {
                        stream: id,
                        from_initiator: false,
                        kind: StreamFrameKind::Rst,
                    },
                    0,
                );
            }
        }
    }

    fn handle_syn_ack(&mut self, id: StreamId) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        if st.phase != Phase::SynSent {
            return;
        }
        st.phase = Phase::Established;
        let proc = st.sides[0].proc;
        if let Some(p) = proc {
            self.schedule_delivery(
                self.now(),
                p,
                Delivery::Stream {
                    stream: id,
                    event: StreamEvent::Connected,
                },
            );
        }
        // Both directions may have queued data while connecting.
        self.pump(id, true);
        self.pump(id, false);
    }

    fn handle_rst(&mut self, id: StreamId, from_initiator: bool) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        let was = st.phase;
        st.phase = Phase::Closed;
        let victim = st.side(!from_initiator);
        let (proc, delivered) = (victim.proc, victim.delivered_closed);
        if let Some(p) = proc {
            if !delivered {
                let event = if was == Phase::SynSent {
                    StreamEvent::ConnectFailed
                } else {
                    StreamEvent::Closed
                };
                self.schedule_delivery(self.now(), p, Delivery::Stream { stream: id, event });
            }
        }
        if let Some(slot) = self.streams.get_mut(id.index()) {
            *slot = None;
        }
    }

    /// Receives one data segment. An in-order segment is scheduled for
    /// delivery directly, as a view of its wire frame (reassembly emits
    /// one Data event per contiguous piece, never a concatenated copy);
    /// segments it makes contiguous are then popped from the
    /// out-of-order map one at a time. Nothing is collected, so the
    /// common path allocates nothing. Every arrival sends one ACK.
    fn handle_data(&mut self, id: StreamId, from_initiator: bool, seq: u64, bytes: Payload) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        if st.phase != Phase::Established {
            return;
        }
        let rx_initiator = !from_initiator;
        let rx = st.side_mut(rx_initiator);
        let end = seq + bytes.len() as u64;
        if end > rx.recv_next {
            if seq <= rx.recv_next {
                // In-order (possibly with an already-received prefix).
                let skip = (rx.recv_next - seq) as usize;
                rx.recv_next = end;
                let rx_proc = rx.proc;
                self.deliver_data(rx_proc, id, bytes.slice(skip..bytes.len()));
                // Drain the out-of-order segments that are now contiguous.
                while let Some(chunk) = self.pop_contiguous(id, rx_initiator) {
                    self.deliver_data(rx_proc, id, chunk);
                }
            } else {
                rx.ooo.insert(seq, bytes);
                self.trace.bump(metric_id!("stream.out_of_order"), 1);
            }
        }
        self.send_ack(id, rx_initiator);
        self.check_fin_delivery(id, rx_initiator);
    }

    /// Schedules a Data event for the receiving process, if it has one.
    fn deliver_data(&mut self, proc: Option<ProcId>, id: StreamId, bytes: Payload) {
        if let Some(p) = proc {
            self.schedule_delivery(
                self.now(),
                p,
                Delivery::Stream {
                    stream: id,
                    event: StreamEvent::Data(bytes),
                },
            );
        }
    }

    /// Pops the receiving side's first out-of-order segment if it starts
    /// at or before `recv_next`, advancing `recv_next` past it. Returns
    /// the part not yet delivered; a segment wholly received already is
    /// discarded and the next one examined.
    fn pop_contiguous(&mut self, id: StreamId, rx_initiator: bool) -> Option<Payload> {
        let rx = self.stream_state(id)?.side_mut(rx_initiator);
        while let Some(entry) = rx.ooo.first_entry() {
            let s = *entry.key();
            if s > rx.recv_next {
                return None;
            }
            let chunk = entry.remove();
            let chunk_end = s + chunk.len() as u64;
            if chunk_end > rx.recv_next {
                let skip = (rx.recv_next - s) as usize;
                rx.recv_next = chunk_end;
                return Some(chunk.slice(skip..chunk.len()));
            }
        }
        None
    }

    /// Sends a cumulative ACK from the given side, deferred past the
    /// receiving process's modeled CPU time. A busy receiver therefore
    /// stops acknowledging, the sender's window fills, and backpressure
    /// propagates — the moral equivalent of a TCP receive window.
    fn send_ack(&mut self, id: StreamId, rx_initiator: bool) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        let proc = st.side(rx_initiator).proc;
        if let Some(p) = proc {
            if self.emit_time(p) > self.now() {
                self.emit_or_defer(
                    p,
                    crate::world::EmitAction::StreamAck {
                        stream: id,
                        rx_initiator,
                    },
                );
                return;
            }
        }
        self.send_ack_now(id, rx_initiator);
    }

    /// Sends a cumulative ACK immediately. ACK frames occupy the medium
    /// like any other frame.
    pub(crate) fn send_ack_now(&mut self, id: StreamId, rx_initiator: bool) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        let segment = st.segment;
        let rx = st.side(rx_initiator);
        let mut ack = rx.recv_next;
        // FIN consumes one sequence number once fully received.
        if rx.peer_fin_seq == Some(rx.recv_next) {
            ack += 1;
        }
        let (src_node, dst_node) = (rx.node, st.side(!rx_initiator).node);
        self.trace.bump(metric_id!("stream.acks"), 1);
        self.transmit_stream_frame(
            segment,
            src_node,
            dst_node,
            StreamFrame {
                stream: id,
                from_initiator: rx_initiator,
                kind: StreamFrameKind::Ack { ack },
            },
            0,
        );
    }

    fn handle_ack(&mut self, id: StreamId, from_initiator: bool, ack: u64) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        if st.phase != Phase::Established {
            return;
        }
        let tx_initiator = !from_initiator;
        let tx = st.side_mut(tx_initiator);
        let data_ack = ack.min(tx.next_seq);
        if data_ack > tx.base_seq {
            let n = (data_ack - tx.base_seq) as usize;
            tx.send_buf.advance(n);
            tx.base_seq = data_ack;
            tx.rto = RTO_INITIAL;
        }
        if tx.fin_sent && ack > tx.next_seq {
            tx.fin_acked = true;
        }
        let outstanding = tx.in_flight() > 0 || (tx.fin_sent && !tx.fin_acked);
        let emit_writable = tx.was_full && tx.send_buf.len() <= SEND_CAPACITY / 2;
        if emit_writable {
            tx.was_full = false;
        }
        let proc = tx.proc;
        // Re-arm or disarm the retransmission timer.
        if outstanding {
            self.arm_rto(id, tx_initiator);
        } else {
            tx.rto_deadline = None;
        }
        if emit_writable {
            if let Some(p) = proc {
                self.schedule_delivery(
                    self.now(),
                    p,
                    Delivery::Stream {
                        stream: id,
                        event: StreamEvent::Writable,
                    },
                );
            }
        }
        self.pump(id, tx_initiator);
        self.free_if_done(id);
    }

    fn handle_fin(&mut self, id: StreamId, from_initiator: bool, seq: u64) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        if st.phase != Phase::Established {
            return;
        }
        let rx_initiator = !from_initiator;
        st.side_mut(rx_initiator).peer_fin_seq = Some(seq);
        self.send_ack(id, rx_initiator);
        self.check_fin_delivery(id, rx_initiator);
    }

    /// Delivers `Closed` to the receiving side once all data preceding the
    /// peer's FIN has been delivered.
    fn check_fin_delivery(&mut self, id: StreamId, rx_initiator: bool) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        let rx = st.side_mut(rx_initiator);
        if let Some(fin_seq) = rx.peer_fin_seq {
            if rx.recv_next >= fin_seq && !rx.delivered_closed {
                rx.delivered_closed = true;
                let proc = rx.proc;
                if let Some(p) = proc {
                    self.schedule_delivery(
                        self.now(),
                        p,
                        Delivery::Stream {
                            stream: id,
                            event: StreamEvent::Closed,
                        },
                    );
                }
            }
        }
        self.free_if_done(id);
    }

    /// Frees the stream slot once both directions have shut down cleanly.
    fn free_if_done(&mut self, id: StreamId) {
        let Some(st) = self.stream_state(id) else {
            return;
        };
        let done = match st.phase {
            Phase::Closed => true,
            Phase::Established => st.sides.iter().all(|s| {
                (s.fin_sent && s.fin_acked && s.all_sent_and_acked()) && s.delivered_closed
            }),
            Phase::SynSent => false,
        };
        if done {
            if let Some(slot) = self.streams.get_mut(id.index()) {
                *slot = None;
            }
        }
    }

    /// Tears down every stream a removed process participated in; peers
    /// observe `Closed` (or `ConnectFailed` while connecting) after one
    /// segment latency, modeling an OS-generated RST.
    pub(crate) fn reset_streams_of(&mut self, proc: ProcId) {
        let ids: Vec<StreamId> = self
            .streams
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref()
                    .and_then(|st| st.side_of(proc).map(|_| StreamId(i as u32)))
            })
            .collect();
        for id in ids {
            let Some(st) = self.stream_state(id) else {
                continue;
            };
            let initiator = st.side_of(proc).expect("filtered above");
            let was = st.phase;
            st.phase = Phase::Closed;
            let segment = st.segment;
            let latency = self.segments[segment.index()].config.latency;
            let st = self.stream_state(id).expect("still present");
            let peer = st.side(!initiator);
            let (peer_proc, delivered) = (peer.proc, peer.delivered_closed);
            if let Some(p) = peer_proc {
                if p != proc && !delivered {
                    let event = if was == Phase::SynSent {
                        StreamEvent::ConnectFailed
                    } else {
                        StreamEvent::Closed
                    };
                    let at = self.now() + latency;
                    self.schedule_delivery(at, p, Delivery::Stream { stream: id, event });
                }
            }
            if let Some(slot) = self.streams.get_mut(id.index()) {
                *slot = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use crate::medium::SegmentConfig;
    use crate::process::{Datagram, Process};
    use crate::time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct Sink {
        received: Rc<RefCell<Vec<u8>>>,
        /// When the sink saw `Closed`, if it did.
        closed: Rc<RefCell<Option<SimTime>>>,
    }
    impl Process for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(80).unwrap();
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, _s: StreamId, ev: StreamEvent) {
            match ev {
                StreamEvent::Data(d) => self.received.borrow_mut().extend(d),
                StreamEvent::Closed => *self.closed.borrow_mut() = Some(ctx.now()),
                _ => {}
            }
        }
    }

    struct BulkSender {
        target: Addr,
        total: usize,
        sent: usize,
        stream: Option<StreamId>,
    }
    impl BulkSender {
        fn pump_app(&mut self, ctx: &mut Ctx<'_>) {
            let stream = self.stream.expect("connected");
            while self.sent < self.total {
                let n = (self.total - self.sent).min(8192);
                let chunk = vec![(self.sent % 251) as u8; n];
                match ctx.stream_send(stream, chunk) {
                    Ok(()) => self.sent += n,
                    Err(SimError::StreamBufferFull(_)) => break,
                    Err(e) => panic!("send failed: {e}"),
                }
            }
            if self.sent >= self.total {
                ctx.stream_close(stream);
            }
        }
    }
    impl Process for BulkSender {
        fn name(&self) -> &str {
            "bulk-sender"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.stream = Some(ctx.connect(self.target).unwrap());
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, _s: StreamId, ev: StreamEvent) {
            match ev {
                StreamEvent::Connected | StreamEvent::Writable => self.pump_app(ctx),
                _ => {}
            }
        }
    }

    /// Runs a one-way bulk transfer for 120 virtual s and returns the
    /// bytes received, when the receiver saw `Closed`, and the world.
    fn bulk_world(loss: f64, total: usize) -> (Vec<u8>, Option<SimTime>, World) {
        let mut w = World::new(99);
        let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub().with_loss(loss));
        let a = w.add_node("a");
        let b = w.add_node("b");
        w.attach(a, seg).unwrap();
        w.attach(b, seg).unwrap();
        let received = Rc::new(RefCell::new(Vec::new()));
        let closed = Rc::new(RefCell::new(None));
        w.add_process(
            b,
            Box::new(Sink {
                received: Rc::clone(&received),
                closed: Rc::clone(&closed),
            }),
        );
        w.add_process(
            a,
            Box::new(BulkSender {
                target: Addr::new(b, 80),
                total,
                sent: 0,
                stream: None,
            }),
        );
        w.run_until(SimTime::from_secs(120));
        let r = received.borrow().clone();
        let c = *closed.borrow();
        (r, c, w)
    }

    #[test]
    fn bulk_transfer_is_complete_and_ordered() {
        let total = 200_000;
        let (received, closed, _) = bulk_world(0.0, total);
        assert_eq!(received.len(), total);
        assert!(closed.is_some(), "receiver saw Closed after FIN");
        for (i, byte) in received.iter().enumerate() {
            // Chunks of 8192 start at multiples of 8192 with value (start % 251).
            let expected = ((i / 8192) * 8192 % 251) as u8;
            assert_eq!(*byte, expected, "byte {i}");
        }
    }

    #[test]
    fn bulk_transfer_survives_loss() {
        let total = 60_000;
        let (received, closed, w) = bulk_world(0.05, total);
        assert_eq!(received.len(), total);
        assert!(closed.is_some());
        assert!(
            w.trace().counter("stream.rto") > 0,
            "loss should trigger RTOs"
        );
    }

    #[test]
    fn lossy_transfer_retransmits_on_the_recorded_schedule() {
        // Golden numbers recorded while every arm point still queued its
        // own `StreamRto` entry: the lazily re-armed timer must fire each
        // live retransmission at the same instant, so the RTO count, the
        // frames and ACKs, and the completion time stay exactly as here.
        let golden = [
            (0.05, (3, 534, 257, Some(1_169_348_165))),
            (0.2, (7, 732, 318, Some(2_443_539_781))),
        ];
        for (loss, want) in golden {
            let (received, closed, w) = bulk_world(loss, 200_000);
            assert_eq!(received.len(), 200_000);
            let c = |name| w.trace().counter(name);
            let got = (
                c("stream.rto"),
                c("stream.frames"),
                c("stream.acks"),
                closed.map(SimTime::as_nanos),
            );
            assert_eq!(got, want, "loss {loss}: (rto, frames, acks, closed at)");
        }
    }

    /// Sends `burst` 1400-byte messages every `every`, like a bridged
    /// media producer.
    struct PacedSender {
        target: Addr,
        every: SimDuration,
        burst: usize,
        stream: Option<StreamId>,
    }
    impl Process for PacedSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.stream = Some(ctx.connect(self.target).unwrap());
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, _s: StreamId, ev: StreamEvent) {
            if matches!(ev, StreamEvent::Connected) {
                ctx.set_timer(self.every, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let stream = self.stream.expect("connected");
            for _ in 0..self.burst {
                ctx.stream_send(stream, vec![7u8; 1400]).unwrap();
            }
            ctx.set_timer(self.every, 0);
        }
    }

    #[test]
    fn paced_stream_keeps_one_retransmission_entry_per_side() {
        let mut w = World::new(21);
        let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let a = w.add_node("a");
        let b = w.add_node("b");
        w.attach(a, seg).unwrap();
        w.attach(b, seg).unwrap();
        let received = Rc::new(RefCell::new(Vec::new()));
        w.add_process(
            b,
            Box::new(Sink {
                received: Rc::clone(&received),
                closed: Rc::default(),
            }),
        );
        // Two messages every 3 ms: the first one's ACK finds the second
        // outstanding and re-arms, the second one's ACK disarms.
        w.add_process(
            a,
            Box::new(PacedSender {
                target: Addr::new(b, 80),
                every: SimDuration::from_millis(3),
                burst: 2,
                stream: None,
            }),
        );
        let mut rto_pops = 0u64;
        while w.now() < SimTime::from_secs(3) {
            if matches!(w.peek_event(), Some(EventKind::StreamRto { .. })) {
                rto_pops += 1;
            }
            assert!(w.step(), "the sender keeps the world busy");
            // Without loss the RTO never backs off, so deadlines only move
            // later and no queued entry is ever superseded.
            let mut queued = [0u32; 2];
            for kind in w.queued_events() {
                if let EventKind::StreamRto { from_initiator, .. } = kind {
                    queued[usize::from(*from_initiator)] += 1;
                }
            }
            assert!(
                queued.iter().all(|&n| n <= 1),
                "queued RTO entries {queued:?}"
            );
        }
        let messages = received.borrow().len() / 1400;
        assert!(messages > 1_500, "delivered {messages} messages");
        // An entry per arm point pops about once per message (0.97 here).
        let per_message = rto_pops as f64 / messages as f64;
        assert!(
            per_message <= 0.2,
            "{rto_pops} RTO pops for {messages} messages"
        );
        assert_eq!(w.trace().counter("stream.rto"), 0);
    }

    #[test]
    fn goodput_on_10mbps_hub_is_in_tcp_range() {
        // 1 MB one-way bulk transfer on the paper's hub: goodput should be
        // well below line rate (overhead + half-duplex acks) but above half.
        let total = 1_000_000;
        let (received, _, w) = bulk_world(0.0, total);
        assert_eq!(received.len(), total);
        // Find completion time via segment busy stats instead: use now()
        // from a fresh run bounded by the transfer itself.
        let stats = w.segment_stats(SegmentId(0)).unwrap();
        assert!(
            stats.frames > 600,
            "expect hundreds of frames, got {}",
            stats.frames
        );
    }

    #[test]
    fn connect_to_missing_listener_fails() {
        struct TryConnect {
            target: Addr,
            outcome: Rc<RefCell<Option<bool>>>,
        }
        impl Process for TryConnect {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.target).unwrap();
            }
            fn on_stream(&mut self, _ctx: &mut Ctx<'_>, _s: StreamId, ev: StreamEvent) {
                match ev {
                    StreamEvent::Connected => *self.outcome.borrow_mut() = Some(true),
                    StreamEvent::ConnectFailed => *self.outcome.borrow_mut() = Some(false),
                    _ => {}
                }
            }
        }
        let mut w = World::new(5);
        let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let a = w.add_node("a");
        let b = w.add_node("b");
        w.attach(a, seg).unwrap();
        w.attach(b, seg).unwrap();
        let outcome = Rc::new(RefCell::new(None));
        w.add_process(
            a,
            Box::new(TryConnect {
                target: Addr::new(b, 4444),
                outcome: Rc::clone(&outcome),
            }),
        );
        w.run_until(SimTime::from_secs(5));
        assert_eq!(*outcome.borrow(), Some(false));
    }

    #[test]
    fn peer_removal_delivers_closed() {
        struct Holder {
            target: Addr,
            closed: Rc<RefCell<bool>>,
        }
        impl Process for Holder {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.target).unwrap();
            }
            fn on_stream(&mut self, _ctx: &mut Ctx<'_>, _s: StreamId, ev: StreamEvent) {
                if matches!(ev, StreamEvent::Closed) {
                    *self.closed.borrow_mut() = true;
                }
            }
        }
        let mut w = World::new(5);
        let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let a = w.add_node("a");
        let b = w.add_node("b");
        w.attach(a, seg).unwrap();
        w.attach(b, seg).unwrap();
        let sink = w.add_process(b, Box::new(Sink::default()));
        let closed = Rc::new(RefCell::new(false));
        w.add_process(
            a,
            Box::new(Holder {
                target: Addr::new(b, 80),
                closed: Rc::clone(&closed),
            }),
        );
        w.run_until(SimTime::from_secs(1));
        w.remove_process(sink).unwrap();
        w.run_until(SimTime::from_secs(2));
        assert!(*closed.borrow());
    }

    /// Keeps every Data payload it receives, as delivered.
    struct Collector {
        stream: Rc<RefCell<Option<StreamId>>>,
        chunks: Rc<RefCell<Vec<Payload>>>,
    }
    impl Process for Collector {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(80).unwrap();
        }
        fn on_stream(&mut self, _ctx: &mut Ctx<'_>, s: StreamId, ev: StreamEvent) {
            match ev {
                StreamEvent::Accepted { .. } => *self.stream.borrow_mut() = Some(s),
                StreamEvent::Data(d) => self.chunks.borrow_mut().push(d),
                _ => {}
            }
        }
    }

    /// Opens a stream and sends nothing on it.
    struct Opener {
        target: Addr,
    }
    impl Process for Opener {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.target).unwrap();
        }
    }

    #[test]
    fn rearmed_deadlines_pop_at_their_reserved_places() {
        let mut w = World::new(12);
        let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let a = w.add_node("a");
        let b = w.add_node("b");
        w.attach(a, seg).unwrap();
        w.attach(b, seg).unwrap();
        let stream = Rc::new(RefCell::new(None));
        w.add_process(
            b,
            Box::new(Collector {
                stream: Rc::clone(&stream),
                chunks: Rc::default(),
            }),
        );
        w.add_process(
            a,
            Box::new(Opener {
                target: Addr::new(b, 80),
            }),
        );
        w.run_until(SimTime::from_secs(1));
        let id = stream.borrow().expect("accepted");
        let ms = SimTime::from_millis;
        // A marker event scheduled right after an arm: a per-arm
        // `schedule` call would have given the deadline the lower seq.
        let marker = |w: &mut World, at| {
            let stream = StreamId(u32::MAX);
            w.schedule(at, EventKind::SynRetry { stream, attempt: 0 });
        };
        let drain = |w: &mut World, until| {
            let mut popped = Vec::new();
            while let Some(t) = w.next_event_time().filter(|&t| t <= until) {
                let kind = match w.peek_event() {
                    Some(EventKind::StreamRto { .. }) => "rto",
                    Some(EventKind::SynRetry { .. }) => "marker",
                    _ => "other",
                };
                popped.push((t.as_millis(), kind));
                w.step();
            }
            w.run_until(until);
            popped
        };
        fn side(w: &mut World, id: StreamId) -> &mut Side {
            w.stream_state(id).expect("open").side_mut(true)
        }

        // Moved later: the queued entry pops at 1.1 s and re-queues
        // itself at the 1.15 s deadline, ahead of the later marker.
        w.arm_rto(id, true);
        w.run_until(ms(1_050));
        w.arm_rto(id, true);
        marker(&mut w, ms(1_150));
        let popped = drain(&mut w, ms(1_300));
        assert_eq!(popped, [(1_100, "rto"), (1_150, "rto"), (1_150, "marker")]);
        assert_eq!(side(&mut w, id).rto_deadline, None);
        assert_eq!(side(&mut w, id).rto_queued, None);

        // Moved earlier (the RTO shrank): the new deadline is queued at
        // once and the entry it supersedes pops as a no-op.
        side(&mut w, id).rto = SimDuration::from_millis(200);
        w.arm_rto(id, true);
        w.run_until(ms(1_350));
        side(&mut w, id).rto = RTO_INITIAL;
        w.arm_rto(id, true);
        marker(&mut w, ms(1_450));
        let popped = drain(&mut w, ms(1_600));
        assert_eq!(popped, [(1_450, "rto"), (1_450, "marker"), (1_500, "rto")]);
        assert_eq!(side(&mut w, id).rto_deadline, None);
        assert_eq!(side(&mut w, id).rto_queued, None);
        assert_eq!(
            w.trace().counter("stream.rto"),
            0,
            "nothing was outstanding"
        );
    }

    #[test]
    fn handle_data_delivers_views_in_sequence_with_one_ack_each() {
        let mut w = World::new(12);
        let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let a = w.add_node("a");
        let b = w.add_node("b");
        w.attach(a, seg).unwrap();
        w.attach(b, seg).unwrap();
        let stream = Rc::new(RefCell::new(None));
        let chunks = Rc::new(RefCell::new(Vec::new()));
        w.add_process(
            b,
            Box::new(Collector {
                stream: Rc::clone(&stream),
                chunks: Rc::clone(&chunks),
            }),
        );
        w.add_process(
            a,
            Box::new(Opener {
                target: Addr::new(b, 80),
            }),
        );
        w.run_until(SimTime::from_secs(1));
        let id = stream.borrow().expect("accepted");
        let wire: Payload = (0..4000u32)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<_>>()
            .into();
        let acks = |w: &World| w.trace().counter("stream.acks");

        // In order: delivered as a view of the wire frame.
        let before = acks(&w);
        w.handle_data(id, true, 0, wire.slice(0..1000));
        assert_eq!(acks(&w), before + 1, "one ACK per arrival");
        w.run_until(SimTime::from_millis(1_100));
        assert_eq!(chunks.borrow().len(), 1);
        assert!(chunks.borrow()[0].shares_buffer(&wire), "no copy");
        assert_eq!(chunks.borrow()[0], wire.slice(0..1000));

        // Out of order: held until the gap fills, then delivered in
        // sequence order; a segment overlapping received bytes yields
        // only its new suffix.
        for (seq, range) in [(3000, 3000..4000), (2000, 2000..3000), (1500, 1500..2500)] {
            let before = acks(&w);
            w.handle_data(id, true, seq, wire.slice(range));
            assert_eq!(acks(&w), before + 1, "one ACK per arrival");
        }
        w.run_until(SimTime::from_millis(1_200));
        assert_eq!(chunks.borrow().len(), 1, "nothing past the gap yet");
        let before = acks(&w);
        w.handle_data(id, true, 1000, wire.slice(1000..1600));
        assert_eq!(acks(&w), before + 1, "one ACK per arrival");
        w.run_until(SimTime::from_millis(1_300));
        let got = chunks.borrow();
        let lens: Vec<usize> = got.iter().map(Payload::len).collect();
        assert_eq!(lens, [1000, 600, 900, 500, 1000]);
        assert!(got.iter().all(|c| c.shares_buffer(&wire)), "no copy");
        let joined: Vec<u8> = got.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(joined, wire);
    }

    // Silence an unused-field warning path: Datagram isn't used here.
    #[allow(dead_code)]
    fn _unused(_: Datagram) {}
}
