//! Busy deferral: deliveries that reach a process while it models CPU
//! time wait for it in FIFO order, and a k-deep backlog costs O(k)
//! scheduler work.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use simnet::{
    check_cases, Addr, Ctx, Datagram, LocalMessage, ProcId, Process, SegmentConfig, SimDuration,
    SimRng, SimTime, World,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Timer,
    Local,
    Datagram,
}

/// One handler call: what was delivered and when the handler started.
type Log = Rc<RefCell<Vec<(Kind, u32, SimTime)>>>;

/// A server that records every handler start and then burns the next
/// cost from its list (cycling), so its calls form a busy queue.
struct Server {
    timers: Vec<(SimDuration, u32)>,
    costs: Vec<SimDuration>,
    calls: usize,
    log: Log,
}

impl Server {
    fn new(timers: Vec<(SimDuration, u32)>, costs: Vec<SimDuration>, log: &Log) -> Server {
        Server {
            timers,
            costs,
            calls: 0,
            log: Rc::clone(log),
        }
    }

    fn serve(&mut self, ctx: &mut Ctx<'_>, kind: Kind, id: u32) {
        self.log.borrow_mut().push((kind, id, ctx.now()));
        let cost = self.costs[self.calls % self.costs.len()];
        self.calls += 1;
        if !cost.is_zero() {
            ctx.busy(cost);
        }
    }
}

impl Process for Server {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(9).unwrap();
        for &(at, id) in &self.timers {
            ctx.set_timer(at, u64::from(id));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.serve(ctx, Kind::Timer, token as u32);
    }
    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let id = *msg.downcast::<u32>().expect("locals carry a u32 id");
        self.serve(ctx, Kind::Local, id);
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
        let id = u32::from_le_bytes(d.data[..4].try_into().expect("4-byte id"));
        self.serve(ctx, Kind::Datagram, id);
    }
}

/// Timed bursts of ids: at each offset, one message per id.
type Bursts = Vec<(SimDuration, Vec<u32>)>;

/// Sends each burst to the server as local messages.
struct LocalSource {
    server: ProcId,
    bursts: Bursts,
}

impl Process for LocalSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, (at, _)) in self.bursts.iter().enumerate() {
            ctx.set_timer(*at, i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        for &id in &self.bursts[token as usize].1 {
            ctx.send_local(self.server, id);
        }
    }
}

/// Sends each burst to the server as datagrams from another node.
struct DatagramSource {
    target: Addr,
    bursts: Bursts,
}

impl Process for DatagramSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(7).unwrap();
        for (i, (at, _)) in self.bursts.iter().enumerate() {
            ctx.set_timer(*at, i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        for &id in &self.bursts[token as usize].1 {
            ctx.send_to(7, self.target, id.to_le_bytes().to_vec())
                .unwrap();
        }
    }
}

/// A random load for the oracle: offsets on a 10 µs grid inside 10 ms,
/// so bursts collide and the server backs up.
struct Load {
    timers: Vec<(SimDuration, u32)>,
    locals: Bursts,
    datagrams: Vec<Bursts>,
    costs: Vec<SimDuration>,
}

impl Load {
    fn random(rng: &mut SimRng) -> Load {
        let mut next_id = 0u32;
        let mut id = || {
            next_id += 1;
            next_id
        };
        let instant = |rng: &mut SimRng| SimDuration::from_micros(10 * rng.gen_range(1u64..1000));
        let timers = (0..rng.gen_range(0usize..30))
            .map(|_| (instant(rng), id()))
            .collect();
        let mut bursts = |rng: &mut SimRng, max: usize| -> Bursts {
            (0..rng.gen_range(0usize..max))
                .map(|_| {
                    let at = instant(rng);
                    (at, (0..rng.gen_range(1usize..6)).map(|_| id()).collect())
                })
                .collect()
        };
        let locals = bursts(rng, 15);
        let datagrams = (0..rng.gen_range(1usize..4))
            .map(|_| bursts(rng, 10))
            .collect();
        // Busy ends land 1 ns off the 10 µs grid per costly call, so a
        // server never frees up exactly at an arrival instant (where the
        // kernel's same-instant order, not FIFO, would decide).
        let costs = (0..rng.gen_range(1usize..40))
            .map(|_| {
                if rng.gen_bool(0.2) {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(10_000 * rng.gen_range(1u64..30) + 1)
                }
            })
            .collect();
        Load {
            timers,
            locals,
            datagrams,
            costs,
        }
    }

    fn messages(&self) -> usize {
        let sum = |b: &Bursts| b.iter().map(|(_, ids)| ids.len()).sum::<usize>();
        self.timers.len() + sum(&self.locals) + self.datagrams.iter().map(sum).sum::<usize>()
    }

    /// Runs the load against a server with `costs` and returns its log.
    fn run(&self, costs: Vec<SimDuration>) -> Vec<(Kind, u32, SimTime)> {
        let mut w = World::new(11);
        let seg = w.add_segment(SegmentConfig::ethernet_100mbps_switch());
        let host = w.add_node("server");
        w.attach(host, seg).unwrap();
        let log: Log = Rc::default();
        let server = w.add_process(
            host,
            Box::new(Server::new(self.timers.clone(), costs, &log)),
        );
        w.add_process(
            host,
            Box::new(LocalSource {
                server,
                bursts: self.locals.clone(),
            }),
        );
        for (i, bursts) in self.datagrams.iter().enumerate() {
            let n = w.add_node(format!("sender{i}"));
            w.attach(n, seg).unwrap();
            w.add_process(
                n,
                Box::new(DatagramSource {
                    target: Addr::new(host, 9),
                    bursts: bursts.clone(),
                }),
            );
        }
        w.run_until_idle();
        let log = log.borrow().clone();
        log
    }
}

/// The server is a FIFO queue: with per-call costs, call `i` starts at
/// `max(arrival_i, end_{i-1})`, where arrivals (and their order) are
/// what the same load produces against a server that costs nothing.
#[test]
fn busy_server_matches_fifo_recurrence() {
    // Calls that waited behind a busy server, over all cases.
    static QUEUED: AtomicUsize = AtomicUsize::new(0);
    check_cases("busy_server_matches_fifo_recurrence", 48, |_, rng| {
        let load = Load::random(rng);
        let arrivals = load.run(vec![SimDuration::ZERO]);
        assert_eq!(arrivals.len(), load.messages(), "every message arrives");
        let served = load.run(load.costs.clone());
        let order = |log: &[(Kind, u32, SimTime)]| -> Vec<(Kind, u32)> {
            log.iter().map(|&(k, id, _)| (k, id)).collect()
        };
        assert_eq!(order(&served), order(&arrivals), "FIFO service order");
        let mut end = SimTime::ZERO;
        for (i, (&(_, _, start), &(_, _, arrival))) in served.iter().zip(&arrivals).enumerate() {
            assert_eq!(start, arrival.max(end), "call {i}");
            if start > arrival {
                QUEUED.fetch_add(1, Ordering::Relaxed);
            }
            let cost = load.costs[i % load.costs.len()];
            if !cost.is_zero() {
                end = start + cost;
                assert!(
                    arrivals.iter().all(|&(_, _, a)| a != end),
                    "a busy end coincides with an arrival"
                );
            }
        }
    });
    assert!(
        QUEUED.load(Ordering::Relaxed) > 1000,
        "the loads must back up"
    );
}

#[test]
fn local_burst_into_busy_handler_pops_linear_events() {
    const K: u32 = 1000;
    let mut w = World::new(1);
    let host = w.add_node("host");
    let log: Log = Rc::default();
    let cost = SimDuration::from_millis(1);
    let server = w.add_process(host, Box::new(Server::new(Vec::new(), vec![cost], &log)));
    w.add_process(
        host,
        Box::new(LocalSource {
            server,
            bursts: vec![(SimDuration::from_millis(1), (0..K).collect())],
        }),
    );
    w.run_until_idle();
    let log = log.borrow();
    assert_eq!(log.len(), K as usize);
    for (i, &(_, id, start)) in log.iter().enumerate() {
        assert_eq!(id, i as u32);
        assert_eq!(start, SimTime::from_millis(1) + cost * i as u64);
    }
    // Re-pushing every queued delivery at every busy horizon would pop
    // about K²/2 events; carrying the backlog as one entry pops O(K).
    let events = w.events_processed();
    assert!(events <= 3 * u64::from(K), "{events} events for {K} calls");
}

#[test]
fn removed_process_drops_the_rest_of_its_backlog() {
    let mut w = World::new(1);
    let host = w.add_node("host");
    let log: Log = Rc::default();
    let cost = SimDuration::from_millis(1);
    let server = w.add_process(host, Box::new(Server::new(Vec::new(), vec![cost], &log)));
    w.add_process(
        host,
        Box::new(LocalSource {
            server,
            bursts: vec![(SimDuration::from_millis(1), (0..10).collect())],
        }),
    );
    // Calls start at 1, 2, 3 and 4 ms; the other six wait as one entry.
    w.run_until(SimTime::from_micros(4_500));
    assert_eq!(log.borrow().len(), 4);
    w.remove_process(server).unwrap();
    w.run_until_idle();
    assert_eq!(log.borrow().len(), 4, "a dead process gets nothing");
    assert_eq!(w.next_event_time(), None);
}
