//! The HTTP connection table: every outbound exchange ends in exactly one
//! outcome carrying the caller's tag, and an accepted connection yields
//! each request it carries.

use std::cell::RefCell;
use std::convert::Infallible;
use std::rc::Rc;

use platform_upnp::{HttpConns, HttpEvent, HttpRequest, HttpResponse};
use simnet::{
    Addr, Ctx, NodeId, Process, SegmentConfig, SegmentId, SimDuration, SimTime, StreamEvent,
    StreamId, World,
};

const PORT: u16 = 80;
const TAG: u32 = 7;

/// What a client saw, in order.
#[derive(Debug, PartialEq)]
enum Seen {
    /// `exchange` returned `Err` with this tag.
    Refused(u32),
    /// A response (its status, `None` when unreadable) for this tag.
    Response(u32, Option<u16>),
    Failed(u32),
}

type Log = Rc<RefCell<Vec<Seen>>>;

/// Sends one GET through an `HttpConns` table and logs its outcomes.
struct Client {
    http: HttpConns<u32>,
    target: Addr,
    log: Log,
    data_events: Rc<RefCell<u32>>,
}

impl Process for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let request = HttpRequest::new("GET", "/x").to_bytes();
        if let Err(tag) = self.http.exchange(ctx, self.target, request, TAG) {
            self.log.borrow_mut().push(Seen::Refused(tag));
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if matches!(event, StreamEvent::Data(_)) {
            *self.data_events.borrow_mut() += 1;
        }
        for event in self.http.on_stream(ctx, stream, event) {
            self.log.borrow_mut().push(match event {
                HttpEvent::Response(tag, response) => {
                    Seen::Response(tag, response.map(|r| r.status))
                }
                HttpEvent::Failed(tag) => Seen::Failed(tag),
                HttpEvent::Request { .. } => panic!("the client accepts no connections"),
            });
        }
    }
}

/// Answers the first bytes on each accepted connection with `reply`,
/// sent in `pieces` parts 1 ms apart, then closes.
struct Server {
    reply: Vec<u8>,
    pieces: usize,
    stream: Option<StreamId>,
    sent: usize,
}

impl Process for Server {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(PORT).unwrap();
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if matches!(event, StreamEvent::Data(_)) && self.stream.is_none() {
            self.stream = Some(stream);
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let Some(stream) = self.stream else {
            return;
        };
        let part = self.reply.len().div_ceil(self.pieces);
        let end = (self.sent + part).min(self.reply.len());
        ctx.stream_send(stream, self.reply[self.sent..end].to_vec())
            .unwrap();
        self.sent = end;
        if self.sent < self.reply.len() {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        } else {
            ctx.stream_close(stream);
        }
    }
}

fn two_nodes() -> (World, SegmentId, NodeId, NodeId) {
    let mut world = World::new(5);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let a = world.add_node("client");
    let b = world.add_node("server");
    world.attach(a, hub).unwrap();
    world.attach(b, hub).unwrap();
    (world, hub, a, b)
}

fn add_client(world: &mut World, node: NodeId, target: Addr) -> (Log, Rc<RefCell<u32>>) {
    let log = Log::default();
    let data_events = Rc::new(RefCell::new(0));
    world.add_process(
        node,
        Box::new(Client {
            http: HttpConns::new(),
            target,
            log: Rc::clone(&log),
            data_events: Rc::clone(&data_events),
        }),
    );
    (log, data_events)
}

/// Runs one exchange against a server replying `reply` in `pieces` parts.
fn exchange_with(reply: Vec<u8>, pieces: usize) -> (Vec<Seen>, u32) {
    let (mut world, _, a, b) = two_nodes();
    world.add_process(
        b,
        Box::new(Server {
            reply,
            pieces,
            stream: None,
            sent: 0,
        }),
    );
    let (log, data_events) = add_client(&mut world, a, Addr::new(b, PORT));
    world.run_until(SimTime::from_secs(10));
    let log = log.take();
    let data_events = *data_events.borrow();
    (log, data_events)
}

#[test]
fn a_response_in_several_chunks_completes_once() {
    let reply = HttpResponse::xml("<root>hello, chunked world</root>".to_owned()).to_bytes();
    let (log, data_events) = exchange_with(reply.to_vec(), 4);
    assert!(
        data_events >= 4,
        "the response arrived in {data_events} chunks"
    );
    assert_eq!(log, [Seen::Response(TAG, Some(200))]);
}

#[test]
fn a_server_closing_before_a_full_response_fails_the_exchange() {
    let reply = HttpResponse::xml("<root>cut short</root>".to_owned()).to_bytes();
    let (log, _) = exchange_with(reply[..reply.len() - 5].to_vec(), 1);
    assert_eq!(log, [Seen::Failed(TAG)]);
}

#[test]
fn a_malformed_response_completes_unread() {
    let (log, _) = exchange_with(b"HTTP/1.0\r\ncontent-length: 0\r\n\r\n".to_vec(), 1);
    assert_eq!(log, [Seen::Response(TAG, None)]);
}

#[test]
fn a_connect_lost_after_syn_retries_fails_the_exchange() {
    let (mut world, hub, a, b) = two_nodes();
    world.set_segment_loss(hub, 1.0).unwrap();
    let (log, _) = add_client(&mut world, a, Addr::new(b, PORT));
    world.run_until(SimTime::from_secs(10));
    assert!(world.trace().counter("stream.syn_retries") > 0);
    assert_eq!(log.take(), [Seen::Failed(TAG)]);
}

#[test]
fn a_connect_with_no_route_returns_the_tag_at_once() {
    let mut world = World::new(5);
    let a = world.add_node("client");
    let b = world.add_node("elsewhere");
    let s1 = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let s2 = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    world.attach(a, s1).unwrap();
    world.attach(b, s2).unwrap();
    let (log, _) = add_client(&mut world, a, Addr::new(b, PORT));
    world.run_until(SimTime::from_secs(10));
    assert_eq!(log.take(), [Seen::Refused(TAG)]);
}

/// Accepts connections through an `HttpConns` table and logs each
/// request's port and path.
struct Acceptor {
    http: HttpConns<Infallible>,
    requests: Rc<RefCell<Vec<(u16, String)>>>,
}

impl Process for Acceptor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(PORT).unwrap();
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        for event in self.http.on_stream(ctx, stream, event) {
            let HttpEvent::Request { port, request } = event;
            self.requests
                .borrow_mut()
                .push((port, request.path().to_owned()));
        }
    }
}

/// Sends two requests in one write, then closes.
struct Pipeliner {
    target: Addr,
}

impl Process for Pipeliner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(self.target).unwrap();
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if matches!(event, StreamEvent::Connected) {
            let mut both = HttpRequest::new("GET", "/a").to_bytes().to_vec();
            both.extend_from_slice(
                &HttpRequest::new("POST", "/b")
                    .with_body(b"x".to_vec())
                    .to_bytes(),
            );
            ctx.stream_send(stream, both).unwrap();
            ctx.stream_close(stream);
        }
    }
}

#[test]
fn an_inbound_connection_yields_each_request() {
    let (mut world, _, a, b) = two_nodes();
    let requests = Rc::new(RefCell::new(Vec::new()));
    world.add_process(
        b,
        Box::new(Acceptor {
            http: HttpConns::new(),
            requests: Rc::clone(&requests),
        }),
    );
    world.add_process(
        a,
        Box::new(Pipeliner {
            target: Addr::new(b, PORT),
        }),
    );
    world.run_until(SimTime::from_secs(10));
    assert_eq!(
        requests.take(),
        [(PORT, "/a".to_owned()), (PORT, "/b".to_owned())]
    );
}
