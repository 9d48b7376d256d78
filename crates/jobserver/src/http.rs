//! Minimal HTTP/1.1 framing over `std::net` sockets.
//!
//! Exactly the subset the job protocol needs: request line + headers +
//! `Content-Length` bodies, one request per connection (`Connection: close`
//! semantics on both sides). No chunked transfer, no keep-alive, no TLS —
//! the daemon binds localhost and the client opens one short-lived
//! connection per command.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request body (a scenario spec is a few KB; this bounds a
/// misbehaving client). Responses have no cap: `GET /jobs` and a result file
/// grow with what the daemon holds.
const MAX_BODY: usize = 1 << 20;

/// Largest accepted start line plus headers, in total (the protocol's own
/// messages carry three short headers; this bounds a peer that never sends
/// a newline).
const MAX_HEAD: usize = 16 << 10;

/// Time allowed for one whole request to arrive, for each read of a
/// response, and for each write: a stalled or trickling peer must not wedge
/// the daemon's accept loop (requests are served inline), nor a client.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// The HTTP method, upper-cased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request path, e.g. `/jobs/3/cancel` (query strings unused).
    pub path: String,
    /// The request body (empty when no `Content-Length`).
    pub body: String,
}

/// Reads off the socket until `deadline`: before each read the socket's
/// timeout is re-armed with the time that is left, so the deadline bounds
/// the whole message rather than each gap between bytes.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timed_out = || io::Error::new(io::ErrorKind::TimedOut, "message timed out");
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out());
        }
        self.stream.set_read_timeout(Some(left))?;
        // An expired socket timeout surfaces as `WouldBlock` on Unix.
        self.stream.read(buf).map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock => timed_out(),
            _ => e,
        })
    }
}

/// Read one request off a stream. `Err` means a malformed, oversized or
/// too-slow request (the caller answers 400 and closes).
pub(crate) fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    read_request_within(stream, IO_TIMEOUT)
}

/// [`read_request`] with the whole-request time budget as an argument (the
/// tests use a short one).
fn read_request_within(stream: &mut TcpStream, budget: Duration) -> io::Result<Request> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let reader = DeadlineReader {
        stream,
        deadline: Instant::now() + budget,
    };
    let (line, body) = read_message(reader, MAX_BODY)?;
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some(method), Some(path)) => Ok(Request {
            method: method.to_string(),
            path: path.to_string(),
            body,
        }),
        _ => Err(bad("malformed request line")),
    }
}

/// Read one message — start line, headers and a `Content-Length` body (none
/// means empty) — and return its start line and body. Both ends read through
/// this: the start line plus headers are capped at `MAX_HEAD`, a claimed body
/// over `max_body` is refused, and the body buffer grows only as bytes
/// arrive, so no claimed length is allocated up front. A message cut short
/// is an error.
fn read_message(reader: impl Read, max_body: usize) -> io::Result<(String, String)> {
    let mut reader = BufReader::new(reader);
    // Start line and headers come through one `take`, so together they can
    // never buffer more than `MAX_HEAD` bytes.
    let mut head = (&mut reader).take(MAX_HEAD as u64);
    let mut next_line = || -> io::Result<String> {
        let mut line = String::new();
        head.read_line(&mut line)?;
        if line.ends_with('\n') {
            Ok(line)
        } else if head.limit() == 0 {
            Err(bad("start line and headers too large"))
        } else {
            Err(cut_short("message ends inside its head"))
        }
    };
    let start = next_line()?;
    let mut content_length = 0usize;
    loop {
        let header = next_line()?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if content_length > max_body {
        return Err(bad("body too large"));
    }
    let mut body = Vec::with_capacity(content_length.min(64 << 10));
    reader.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(cut_short("message ends inside its body"));
    }
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok((start, body))
}

/// Write a response and flush. The body's content type is the caller's
/// business (`application/json` for protocol replies, `text/plain` for
/// downloaded result files).
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A client-side response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The response body.
    pub body: String,
}

impl Response {
    /// 2xx?
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Perform one request against `addr` (e.g. `127.0.0.1:7171`) and read the
/// response through the daemon's reader, with `IO_TIMEOUT` per read and no
/// cap on the body (the server closes after each response).
pub fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let (status_line, body) = read_message(&stream, usize::MAX)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok(Response { status, body })
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn cut_short(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One real round trip over a loopback socket: framing on both sides.
    #[test]
    fn request_and_response_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/jobs");
            assert_eq!(req.body, "{\"name\":\"fig3\"}");
            write_response(&mut stream, 200, "OK", "application/json", b"{\"id\":1}").unwrap();
        });
        let resp = request(&addr, "POST", "/jobs", Some("{\"name\":\"fig3\"}")).unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.body, "{\"id\":1}");
        server.join().unwrap();
    }

    #[test]
    fn get_without_body_has_zero_length() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "GET");
            assert!(req.body.is_empty());
            write_response(&mut stream, 404, "Not Found", "text/plain", b"nope").unwrap();
        });
        let resp = request(&addr, "GET", "/jobs/99", None).unwrap();
        assert_eq!(resp.status, 404);
        assert!(!resp.is_ok());
        assert_eq!(resp.body, "nope");
        server.join().unwrap();
    }

    /// A megabyte of header with no newline in it: the reader gives up at
    /// `MAX_HEAD` — it neither buffers the line nor waits out the timeout
    /// for its end — and the 400 goes out.
    #[test]
    fn an_endless_header_line_is_refused_at_the_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let err = read_request(&mut stream).unwrap_err();
            write_response(&mut stream, 400, "Bad Request", "text/plain", b"no").unwrap();
            err
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"GET /healthz HTTP/1.1\r\nx-junk: ")
            .unwrap();
        // The server stops reading long before the end of this, so the tail
        // of the write may fail once it has answered and closed.
        let _ = client.write_all(&vec![b'a'; 1 << 20]);
        let mut reply = Vec::new();
        let _ = client.read_to_end(&mut reply);
        let err = server.join().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("too large"), "{err}");
        assert!(reply.starts_with(b"HTTP/1.1 400 "), "no 400 came back");
    }

    /// A client that sends a request line and then one byte every 50 ms
    /// never trips a per-read timeout; the whole-request deadline drops it,
    /// and the request queued behind it is served.
    #[test]
    fn a_trickling_client_is_dropped_at_the_deadline() {
        let budget = Duration::from_millis(300);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut slow, _) = listener.accept().unwrap();
            let started = Instant::now();
            let err = read_request_within(&mut slow, budget).unwrap_err();
            let waited = started.elapsed();
            drop(slow);
            let (mut next, _) = listener.accept().unwrap();
            let req = read_request_within(&mut next, budget).unwrap();
            write_response(&mut next, 200, "OK", "application/json", b"{}").unwrap();
            (err, waited, req.path)
        });
        let mut slow = TcpStream::connect(&addr).unwrap();
        slow.write_all(b"POST /jobs HTTP/1.1\r\n").unwrap();
        // Up to 4 s of trickle; writes start failing once the server has
        // dropped the connection.
        let trickle = std::thread::spawn(move || {
            for _ in 0..80 {
                if slow.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let resp = request(&addr, "GET", "/healthz", None).unwrap();
        assert!(resp.is_ok());
        let (err, waited, path) = server.join().unwrap();
        trickle.join().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(waited >= budget, "dropped after {waited:?}");
        assert!(waited < Duration::from_secs(2), "dropped after {waited:?}");
        assert_eq!(path, "/healthz");
    }

    /// A peer on `--addr` that claims a body no allocator could meet and
    /// then closes: the client reads what came and reports the message cut
    /// short, instead of sizing a buffer by the claim.
    #[test]
    fn the_client_never_allocates_a_claimed_body_up_front() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream).unwrap();
            let head = format!(
                "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{{}}",
                usize::MAX
            );
            stream.write_all(head.as_bytes()).unwrap();
        });
        let err = request(&addr, "GET", "/healthz", None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(err.to_string().contains("inside its body"), "{err}");
        server.join().unwrap();
    }

    /// A response body past the request cap — a long job list or a large
    /// result file — reaches the client whole; only requests are capped.
    #[test]
    fn the_client_reads_a_response_body_larger_than_the_request_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let csv: String = (0..MAX_BODY / 8).map(|r| format!("{r},0.5\n")).collect();
        assert!(csv.len() > MAX_BODY);
        let sent = csv.clone();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.path, "/jobs/1/files/fig3.csv");
            write_response(&mut stream, 200, "OK", "text/plain", sent.as_bytes()).unwrap();
        });
        let resp = request(&addr, "GET", "/jobs/1/files/fig3.csv", None).unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.body, csv);
        server.join().unwrap();
    }

    /// A request that claims a body past `MAX_BODY` is refused before any
    /// of it is read.
    #[test]
    fn the_daemon_refuses_a_request_body_past_the_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let head = format!(
            "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        client.write_all(head.as_bytes()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_request_within(&mut stream, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("body too large"), "{err}");
    }

    /// Every strict prefix of a whole `POST /jobs` request, followed by the
    /// end of the stream, is an error that comes at once: the reader neither
    /// accepts a cut message nor waits out its deadline for the rest.
    #[test]
    fn every_strict_prefix_of_a_request_is_refused_without_waiting() {
        let body =
            "{\"name\":\"fig3\",\"priority\":0,\"spec\":\"[scenario]\\nname = \\\"fig3\\\"\\n\"}";
        let whole = format!(
            "POST /jobs HTTP/1.1\r\nhost: 127.0.0.1:7171\r\ncontent-length: {}\r\n\
             connection: close\r\n\r\n{body}",
            body.len()
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let read = |bytes: &[u8]| {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(bytes).unwrap();
            client.shutdown(std::net::Shutdown::Write).unwrap();
            let (mut stream, _) = listener.accept().unwrap();
            read_request_within(&mut stream, Duration::from_secs(5))
        };
        assert_eq!(read(whole.as_bytes()).unwrap().body, body);
        for n in 0..whole.len() {
            let err = read(&whole.as_bytes()[..n]).unwrap_err();
            assert_ne!(err.kind(), io::ErrorKind::TimedOut, "prefix {n}: {err}");
        }
    }
}
