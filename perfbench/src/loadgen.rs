//! Open-loop load generator.
//!
//! One thread drives a few nonblocking connections, built only from the
//! public wire codec (`encode_request`, `FrameReader`, `decode_response`).
//! Op `i` is due at a fixed time on the schedule and is sent then, whether
//! or not earlier replies have arrived, so a stalled server faces a
//! growing queue just as it would with independent users. Latency is timed
//! from the due time, so generator lateness counts against the result and
//! is reported on its own.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use widen_serve::protocol::{decode_response, encode_request, FrameReader, Request, Response};

use crate::stream::Op;

/// Due times in ns from the run's start: op `i` is due at `i / rate`.
pub fn schedule(rate: f64, n: usize) -> Vec<u64> {
    assert!(rate > 0.0, "rate must be positive");
    (0..n)
        .map(|i| (i as f64 * 1e9 / rate).round() as u64)
        .collect()
}

/// Timings of one op, in ns from the run's start.
#[derive(Clone, Debug, Default)]
pub struct Record {
    pub due_ns: u64,
    /// When the request was handed to its connection; `None` if never sent.
    pub sent_ns: Option<u64>,
    /// When the reply was decoded; `None` if none arrived.
    pub done_ns: Option<u64>,
    pub reply: Option<Response>,
}

impl Record {
    /// Due time to reply: what an independent user would wait.
    pub fn latency_ns(&self) -> Option<u64> {
        self.done_ns.map(|d| d - self.due_ns)
    }

    /// How late the generator sent this op.
    pub fn lateness_ns(&self) -> Option<u64> {
        self.sent_ns.map(|s| s - self.due_ns)
    }

    /// Send to reply: the part of the latency the server and the socket
    /// account for.
    pub fn service_ns(&self) -> Option<u64> {
        Some(self.done_ns? - self.sent_ns?)
    }

    /// Whether the op got a non-error reply.
    pub fn ok(&self) -> bool {
        matches!(&self.reply, Some(r) if !matches!(r, Response::Error { .. }))
    }
}

/// Encodes `op` as a request frame with the given id.
pub fn encode_op(op: &Op, id: u64) -> Vec<u8> {
    let request = match op {
        Op::Embed { nodes, seed } => Request::Embed {
            id,
            seed: *seed,
            nodes: nodes.clone(),
        },
        Op::Classify {
            nodes,
            seed,
            rounds,
        } => Request::Classify {
            id,
            seed: *seed,
            rounds: *rounds,
            nodes: nodes.clone(),
        },
        Op::Ingest {
            node_type,
            features,
            edges,
            seed,
        } => Request::Ingest {
            id,
            seed: *seed,
            node_type: *node_type,
            label: None,
            features: features.clone(),
            edges: edges.clone(),
        },
    };
    encode_request(&request)
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
}

impl Conn {
    /// Writes as much buffered output as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads everything available; returns decoded replies.
    fn drain(&mut self, buf: &mut [u8]) -> io::Result<Vec<Response>> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.reader.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let mut replies = Vec::new();
        while let Some(body) = self
            .reader
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            let reply = decode_response(&body)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            replies.push(reply);
        }
        Ok(replies)
    }
}

/// How one [`Generator::run`] ends.
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// How long after the last due time replies are still awaited.
    pub grace: Duration,
    /// Stop sending once this many requests are outstanding (an overload
    /// probe has already failed by then); `None` never stops early.
    pub max_outstanding: Option<usize>,
}

/// The generator: a set of connections and a request-id counter that runs
/// on across phases, so a late reply from one phase can never be taken for
/// a reply of the next.
pub struct Generator {
    conns: Vec<Conn>,
    next_id: u64,
}

impl Generator {
    /// Opens `conns` nonblocking connections to `addr`.
    pub fn connect(addr: SocketAddr, conns: usize) -> io::Result<Self> {
        assert!(conns > 0, "need at least one connection");
        let conns = (0..conns)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    reader: FrameReader::new(),
                    out: Vec::new(),
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self { conns, next_id: 1 })
    }

    /// Sends `ops[i]` at `start + due[i]`, round-robin over the
    /// connections, and collects replies until every op is answered or
    /// `limits.grace` has passed since the last due time. A `start` in the
    /// past makes every op late by at least that much.
    pub fn run(
        &mut self,
        ops: &[Op],
        due: &[u64],
        start: Instant,
        limits: RunLimits,
    ) -> io::Result<Vec<Record>> {
        assert_eq!(ops.len(), due.len(), "one due time per op");
        let base = self.next_id;
        self.next_id += ops.len() as u64;
        let now_ns = || start.elapsed().as_nanos() as u64;
        let mut records: Vec<Record> = due
            .iter()
            .map(|&due_ns| Record {
                due_ns,
                ..Record::default()
            })
            .collect();
        let end_ns = due.last().copied().unwrap_or(0) + limits.grace.as_nanos() as u64;
        let mut next = 0usize;
        let mut outstanding = 0usize;
        let mut stopped = false;
        let mut buf = vec![0u8; 1 << 16];
        loop {
            let now = now_ns();
            while !stopped && next < ops.len() && due[next] <= now {
                if limits.max_outstanding.is_some_and(|m| outstanding >= m) {
                    stopped = true;
                    break;
                }
                let slot = next % self.conns.len();
                let conn = &mut self.conns[slot];
                conn.out.extend(encode_op(&ops[next], base + next as u64));
                records[next].sent_ns = Some(now);
                next += 1;
                outstanding += 1;
            }
            for conn in &mut self.conns {
                conn.flush()?;
                for reply in conn.drain(&mut buf)? {
                    let done = now_ns();
                    let Some(i) = reply.id().checked_sub(base).map(|i| i as usize) else {
                        continue; // a late reply from an earlier phase
                    };
                    if let Some(rec) = records.get_mut(i) {
                        if rec.sent_ns.is_some() && rec.done_ns.is_none() {
                            rec.done_ns = Some(done);
                            rec.reply = Some(reply);
                            outstanding -= 1;
                        }
                    }
                }
            }
            let all_sent = stopped || next == ops.len();
            if all_sent && outstanding == 0 {
                break;
            }
            let now = now_ns();
            if now >= end_ns {
                break;
            }
            let wake = if all_sent { end_ns } else { due[next] };
            self.wait(wake.saturating_sub(now))?;
        }
        Ok(records)
    }

    /// Blocks until a connection is readable (or writable with output
    /// pending) or `timeout_ns` passes.
    fn wait(&self, timeout_ns: u64) -> io::Result<()> {
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        let ts = Timespec {
            tv_sec: (timeout_ns / 1_000_000_000) as i64,
            tv_nsec: (timeout_ns % 1_000_000_000) as i64,
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records whose length is passed alongside it;
        // `ts` outlives the call; a null signal mask is allowed by ppoll(2).
        let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(())
    }
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // ppoll(2) takes a nanosecond timeout; poll(2) only milliseconds, too
    // coarse for schedules with sub-millisecond spacing.
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Stream, StreamSpec};
    use widen_core::{WidenConfig, WidenModel};
    use widen_data::{yelp_like, Scale};
    use widen_serve::{ModelRegistry, ServeConfig, Server, ServerHandle};

    fn smoke_server() -> (ServerHandle, Vec<Op>) {
        let graph = yelp_like(Scale::Smoke, 5).graph;
        let spec = StreamSpec {
            num_nodes: graph.num_nodes() as u32,
            businesses: vec![0, 1, 2],
            user_type: 1,
            user_business_edge: 0,
            feature_dim: graph.feature_dim(),
            ingest_one_in: None,
        };
        let ops = Stream::new(spec, 11).take(200);
        let model = WidenModel::for_graph(&graph, WidenConfig::small().with_seed(5));
        let registry = ModelRegistry::from_model(graph, model);
        let handle =
            Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").expect("bind server");
        (handle, ops)
    }

    const LIMITS: RunLimits = RunLimits {
        grace: Duration::from_secs(5),
        max_outstanding: None,
    };

    #[test]
    fn schedule_hits_the_requested_rate() {
        let due = schedule(400.0, 401);
        assert_eq!(due[0], 0);
        assert_eq!(due[400], 1_000_000_000);
        assert!(due.windows(2).all(|w| w[1] - w[0] == 2_500_000));

        let (handle, ops) = smoke_server();
        let mut gen = Generator::connect(handle.local_addr(), 2).expect("connect");
        let rate = 200.0;
        let due = schedule(rate, ops.len());
        let records = gen.run(&ops, &due, Instant::now(), LIMITS).expect("run");
        handle.shutdown();
        // Open loop: the send times follow the schedule however the server
        // keeps up.
        let first = records[0].sent_ns.unwrap();
        let last = records.last().unwrap().sent_ns.unwrap();
        let achieved = (records.len() - 1) as f64 / ((last - first) as f64 / 1e9);
        assert!(
            (achieved - rate).abs() / rate < 0.05,
            "sent at {achieved:.1}/s, asked for {rate}/s"
        );
    }

    #[test]
    fn lateness_is_charged_from_the_due_time() {
        let (handle, ops) = smoke_server();
        let mut gen = Generator::connect(handle.local_addr(), 2).expect("connect");
        let due = schedule(1000.0, 50);
        // Start 40 ms in the past: the generator is behind from the first
        // op, and every op's latency must include that lateness.
        let lag = Duration::from_millis(40);
        let start = Instant::now() - lag;
        let records = gen.run(&ops[..50], &due, start, LIMITS).expect("run");
        handle.shutdown();
        for r in &records {
            let late = r.lateness_ns().unwrap();
            assert!(
                late + r.due_ns >= lag.as_nanos() as u64,
                "op sent before start"
            );
            assert_eq!(r.latency_ns().unwrap(), late + r.service_ns().unwrap());
        }
        assert!(records[0].lateness_ns().unwrap() >= lag.as_nanos() as u64);
    }

    #[test]
    fn a_capped_backlog_stops_sending() {
        let (handle, ops) = smoke_server();
        let mut gen = Generator::connect(handle.local_addr(), 1).expect("connect");
        // Everything is due at once, so the cap is hit before any reply.
        let due = vec![0u64; 100];
        let limits = RunLimits {
            grace: Duration::from_secs(5),
            max_outstanding: Some(10),
        };
        let records = gen
            .run(&ops[..100], &due, Instant::now(), limits)
            .expect("run");
        handle.shutdown();
        let sent = records.iter().filter(|r| r.sent_ns.is_some()).count();
        assert_eq!(sent, 10);
        assert!(records
            .iter()
            .filter(|r| r.sent_ns.is_some())
            .all(Record::ok));
    }
}
