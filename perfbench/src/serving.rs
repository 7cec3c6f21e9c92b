//! HTTP load generation against an `mtrl-gateway` over loopback: an
//! open-loop (paced) phase and a closed-loop phase, each over a fixed
//! number of keep-alive connections with one client thread each.

use crate::common::{median, process_cpu_s, quantile, quiet_half, steal_ticks, Pacing, Report};
use mtrl_serve::{Assigner, ServeError, SparseVec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client connections (one thread each).
pub const CONNECTIONS: usize = 2;
/// Offered load of the paced phase, summed over all connections.
pub const PACED_RPS: f64 = 2000.0;
/// A paced send more than this far behind its due time counts as late.
pub const LATE_MS: f64 = 1.0;

/// The label `assigner` gives each doc, one single-document batch each.
pub fn expected_labels(assigner: &Assigner, docs: &[SparseVec]) -> Result<Vec<usize>, ServeError> {
    docs.iter()
        .map(|d| {
            let post = assigner.assign_batch(0, std::slice::from_ref(d))?;
            Ok(Assigner::labels(&post)[0])
        })
        .collect()
}

/// `POST /v1/models/<model>/assign` carrying one document.
pub fn assign_request(model: &str, doc: &SparseVec) -> Vec<u8> {
    let join = |xs: Vec<String>| xs.join(",");
    let body = format!(
        "{{\"docs\":[{{\"indices\":[{}],\"values\":[{}]}}]}}",
        join(doc.indices.iter().map(|i| i.to_string()).collect()),
        join(doc.values.iter().map(|v| format!("{v:?}")).collect()),
    );
    format!(
        "POST /v1/models/{model}/assign HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[derive(Clone, Copy)]
pub enum Mode {
    /// Open loop at a fixed total rate; latency from each due time.
    Paced(f64),
    /// Closed loop, back to back; latency from each send.
    Closed,
}

/// What one load phase measured.
#[derive(Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub completed: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub pacing: Pacing,
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Send one request and return `(status, labels)` of the reply.
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<usize>)> {
        self.stream.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, parse_labels(&body)))
    }
}

/// The `labels` array of an assign reply (empty if absent).
fn parse_labels(body: &[u8]) -> Vec<usize> {
    let text = String::from_utf8_lossy(body);
    let Some(start) = text.find("\"labels\":[") else {
        return Vec::new();
    };
    let rest = &text[start + "\"labels\":[".len()..];
    let end = rest.find(']').unwrap_or(0);
    rest[..end]
        .split(',')
        .filter_map(|x| x.trim().parse::<f64>().ok())
        .map(|x| x as usize)
        .collect()
}

/// Drive `requests` (cycled) at `addr` for `secs`; every reply must be
/// `200` with the label in `expected` at the same index.
pub fn run(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    expected: &[usize],
    mode: Mode,
    secs: f64,
) -> Phase {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now() + Duration::from_millis(5);
    let end = t0 + Duration::from_secs_f64(secs);
    let per_client: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || client_loop(addr, requests, expected, mode, c, t0, end)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        ..Phase::default()
    };
    for p in per_client {
        phase.latencies_ms.extend(p.latencies_ms);
        phase.completed += p.completed;
        phase.failed += p.failed;
        phase.pacing.merge(p.pacing);
    }
    phase
}

fn client_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    expected: &[usize],
    mode: Mode,
    c: usize,
    t0: Instant,
    end: Instant,
) -> Phase {
    let mut out = Phase::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("perfbench: connect failed: {e}");
            out.failed += 1;
            return out;
        }
    };
    for i in 0.. {
        let k = i * CONNECTIONS + c;
        let start = match mode {
            Mode::Paced(rate) => {
                let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                if due >= end {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let late_ms = due.elapsed().as_secs_f64() * 1e3;
                out.pacing.sends += 1;
                if late_ms > LATE_MS {
                    out.pacing.late_sends += 1;
                }
                out.pacing.max_late_ms = out.pacing.max_late_ms.max(late_ms);
                due
            }
            Mode::Closed => {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                now.max(t0)
            }
        };
        let doc = k % requests.len();
        match client.round_trip(&requests[doc]) {
            Ok((200, labels)) if labels == [expected[doc]] => {
                out.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                out.completed += 1;
            }
            Ok((status, labels)) => {
                eprintln!(
                    "perfbench: doc {doc}: status {status}, labels {labels:?}, expected [{}]",
                    expected[doc]
                );
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: doc {doc}: {e}");
                out.failed += 1;
                break;
            }
        }
    }
    out
}

/// Length of one sub-phase. At the paced rate it holds 1 000 requests,
/// so its p99 has ten samples beyond it. Short sub-phases let
/// [`quiet_half`] pick around the bursts of host steal, which come and
/// go within seconds.
pub const SUB_PHASE_SECS: f64 = 0.5;

/// Alternate `rounds` paced and closed sub-phases and record the
/// serving metrics as medians over the [`quiet_half`] of the rounds, so
/// that a burst of host noise spoils a few sub-phases rather than the
/// whole measurement.
/// Returns the pacing record and the closed-loop docs answered per second.
pub fn measure(
    report: &mut Report,
    addr: SocketAddr,
    requests: &[Vec<u8>],
    expected: &[usize],
    rounds: usize,
) -> (Pacing, f64) {
    let mut pacing = Pacing::default();
    let (mut p50, mut p99, mut rps, mut cpu) = (vec![], vec![], vec![], vec![]);
    let mut latencies = Vec::new();
    let mut steal = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let s0 = steal_ticks();
        let paced = run(
            addr,
            requests,
            expected,
            Mode::Paced(PACED_RPS),
            SUB_PHASE_SECS,
        );
        let closed = run(addr, requests, expected, Mode::Closed, SUB_PHASE_SECS);
        steal.push(steal_ticks().saturating_sub(s0));
        for phase in [&paced, &closed] {
            report.attempted += phase.completed + phase.failed;
            report.failed += phase.failed;
        }
        p50.push(quantile(&paced.latencies_ms, 0.5));
        p99.push(quantile(&paced.latencies_ms, 0.99));
        rps.push(closed.completed as f64 / closed.wall_s);
        cpu.push(closed.cpu_s * 1e6 / closed.completed.max(1) as f64);
        latencies.extend(paced.latencies_ms);
        pacing.merge(paced.pacing);
    }
    let keep = quiet_half(&steal);
    let quiet = |xs: &[f64]| -> Vec<f64> { keep.iter().map(|&i| xs[i]).collect() };
    report.set_median("assign_latency_ms", &latencies, "ms");
    report.set_median("assign_p50_ms", &quiet(&p50), "ms");
    report.set_median("assign_p99_ms", &quiet(&p99), "ms");
    report.set_median("assign_rps", &quiet(&rps), "req/s");
    report.set_median("serve_cpu_us_per_req", &quiet(&cpu), "us");
    (pacing, median(&quiet(&rps)))
}
