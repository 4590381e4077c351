//! The open-loop HTTP reader of the `serve-read` workload: one thread,
//! two keep-alive connections, requests on a fixed schedule whether or
//! not earlier ones have returned.
//!
//! Every read is timed from when it was *due*, not from when it was sent,
//! so a stalled response also charges the wait it imposes on the reads
//! queued behind it. How late the generator sent each read is kept too.

use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections the reader keeps open.
pub const CONNECTIONS: usize = 2;

/// Reads per second the reader is due to send.
pub const READS_PER_S: u64 = 100;

/// Which route a read asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `/v0/latest/{asset}`.
    Latest(u16),
    /// `/v0/attestation/{asset}`.
    Attestation(u16),
}

impl Route {
    /// The `i`-th read of the schedule: alternating latest/attestation,
    /// walking the basket.
    pub fn nth(i: u64, assets: u16) -> Route {
        let asset = ((i / 2) % u64::from(assets)) as u16;
        if i.is_multiple_of(2) {
            Route::Latest(asset)
        } else {
            Route::Attestation(asset)
        }
    }

    fn path(self) -> String {
        match self {
            Route::Latest(a) => format!("/v0/latest/{a}"),
            Route::Attestation(a) => format!("/v0/attestation/{a}"),
        }
    }
}

/// One read, with its timing relative to when it was due.
#[derive(Clone, Debug)]
pub struct Read {
    /// What was asked.
    pub route: Route,
    /// Due → response complete, in milliseconds.
    pub latency_ms: f64,
    /// Due → sent, in milliseconds (how late the generator ran).
    pub lag_ms: f64,
    /// The response body of a `200`, or why the read failed.
    pub body: Result<String, String>,
}

/// The clock an open loop runs against (real time, or a test's fake).
pub trait Clock {
    /// Time since the loop's origin.
    fn now(&mut self) -> Duration;
    /// Blocks until `at` (since the origin).
    fn sleep_until(&mut self, at: Duration);
}

/// Wall-clock time since construction.
pub struct RealClock(Instant);

impl Clock for RealClock {
    fn now(&mut self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&mut self, at: Duration) {
        if let Some(wait) = at.checked_sub(self.0.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// Runs the open loop: read `i` is due at `i × interval`, sent as soon as
/// it is due and the previous read has completed, and timed from its due
/// time. Stops before the first read `keep_going` declines.
pub fn open_loop(
    clock: &mut impl Clock,
    interval: Duration,
    mut keep_going: impl FnMut() -> bool,
    mut read: impl FnMut(u64, &mut dyn Clock) -> (Route, Result<String, String>),
) -> Vec<Read> {
    let mut out = Vec::new();
    let mut i = 0u64;
    while keep_going() {
        let due = interval * i as u32;
        clock.sleep_until(due);
        let sent = clock.now();
        let (route, body) = read(i, clock);
        let done = clock.now();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        out.push(Read {
            route,
            latency_ms: ms(done.saturating_sub(due)),
            lag_ms: ms(sent.saturating_sub(due)),
            body,
        });
        i += 1;
    }
    out
}

/// One keep-alive HTTP/1.1 connection.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn { reader: BufReader::new(stream) })
    }

    /// `GET path`; the body of a `200`, an error otherwise.
    fn get(&mut self, path: &str) -> Result<String, String> {
        let request = format!("GET {path} HTTP/1.1\r\nhost: oraclebench\r\n\r\n");
        self.reader.get_mut().write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut status = String::new();
        self.reader.read_line(&mut status).map_err(|e| format!("status: {e}"))?;
        let code = status.split_whitespace().nth(1).unwrap_or("").to_string();
        let mut length = None;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).map_err(|e| format!("header: {e}"))?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| format!("no content-length in {status:?}"))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).map_err(|e| format!("body: {e}"))?;
        let body = String::from_utf8(body).map_err(|e| format!("body: {e}"))?;
        if code == "200" {
            Ok(body)
        } else {
            Err(format!("HTTP {code}: {body}"))
        }
    }
}

/// Runs the reader against `addr` until `stop` is set, on the calling
/// thread. A connection that fails is reopened for the next read.
pub fn run(addr: SocketAddr, assets: u16, stop: Arc<AtomicBool>) -> Vec<Read> {
    let mut conns: Vec<Option<Conn>> = (0..CONNECTIONS).map(|_| None).collect();
    let interval = Duration::from_secs(1) / READS_PER_S as u32;
    open_loop(
        &mut RealClock(Instant::now()),
        interval,
        || !stop.load(Ordering::Relaxed),
        |i, _| {
            let route = Route::nth(i, assets);
            let slot = &mut conns[i as usize % CONNECTIONS];
            if slot.is_none() {
                *slot = Conn::open(addr).ok();
            }
            let body = match slot.as_mut() {
                Some(conn) => conn.get(&route.path()),
                None => Err("connect failed".to_string()),
            };
            if body.is_err() {
                *slot = None;
            }
            (route, body)
        },
    )
}

/// The value of a numeric JSON field in a flat object body.
pub fn json_number(body: &str, key: &str) -> Option<f64> {
    let rest = &body[body.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The value of a string JSON field in a flat object body.
pub fn json_string<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = &body[body.find(&format!("\"{key}\":\""))? + key.len() + 4..];
    Some(&rest[..rest.find('"')?])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to.
    struct FakeClock(Duration);

    impl Clock for FakeClock {
        fn now(&mut self) -> Duration {
            self.0
        }
        fn sleep_until(&mut self, at: Duration) {
            self.0 = self.0.max(at);
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn a_stalled_response_charges_the_reads_queued_behind_it() {
        // Reads every 10 ms, each served in 1 ms, except read 2 which
        // stalls for 45 ms.
        let mut clock = FakeClock(Duration::ZERO);
        let mut count = 0;
        let reads = open_loop(
            &mut clock,
            ms(10),
            || {
                count += 1;
                count <= 8
            },
            |i, clock| {
                let service = if i == 2 { ms(45) } else { ms(1) };
                let now = clock.now();
                clock.sleep_until(now + service);
                (Route::nth(i, 4), Ok(String::new()))
            },
        );
        let latency: Vec<f64> = reads.iter().map(|r| r.latency_ms.round()).collect();
        let lag: Vec<f64> = reads.iter().map(|r| r.lag_ms.round()).collect();
        // Read 2 is due at 20 and done at 65. Reads 3..=5 were due at
        // 30/40/50 but could only go out once it returned; read 6 (due
        // at 60) still waits for read 5 (done at 68); read 7 is on time.
        assert_eq!(latency, vec![1.0, 1.0, 45.0, 36.0, 27.0, 18.0, 9.0, 1.0]);
        assert_eq!(lag, vec![0.0, 0.0, 0.0, 35.0, 26.0, 17.0, 8.0, 0.0]);
    }

    #[test]
    fn on_time_reads_have_no_lag() {
        let mut clock = FakeClock(Duration::ZERO);
        let mut left = 5;
        let reads = open_loop(
            &mut clock,
            ms(10),
            || {
                left -= 1;
                left >= 0
            },
            |i, clock| {
                let now = clock.now();
                clock.sleep_until(now + ms(2));
                (Route::nth(i, 4), Ok(String::new()))
            },
        );
        assert_eq!(reads.len(), 5);
        assert!(reads.iter().all(|r| r.lag_ms == 0.0 && (r.latency_ms - 2.0).abs() < 1e-9));
        assert_eq!(clock.0, ms(42), "the last read is due at 40 and takes 2");
    }

    #[test]
    fn routes_alternate_over_the_basket() {
        let routes: Vec<Route> = (0..6).map(|i| Route::nth(i, 2)).collect();
        assert_eq!(
            routes,
            vec![
                Route::Latest(0),
                Route::Attestation(0),
                Route::Latest(1),
                Route::Attestation(1),
                Route::Latest(0),
                Route::Attestation(0),
            ]
        );
    }

    #[test]
    fn flat_json_fields() {
        let body = "{\"epoch\":12,\"asset\":3,\"value\":61234.5,\"n\":4,\"t\":1,\
                    \"attestation\":\"00ff\"}";
        assert_eq!(json_number(body, "epoch"), Some(12.0));
        assert_eq!(json_number(body, "value"), Some(61234.5));
        assert_eq!(json_number(body, "t"), Some(1.0));
        assert_eq!(json_string(body, "attestation"), Some("00ff"));
        assert_eq!(json_number(body, "missing"), None);
    }
}
