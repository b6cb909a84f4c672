//! Socket transport: a line-delimited JSON daemon over TCP.
//!
//! [`serve`] binds a listener and pumps connections onto detached
//! per-connection threads; each connection reads request lines,
//! submits them to the shared [`Service`], and writes response lines
//! in request order. Because responses preserve arrival order on a
//! connection, a client may pipeline: write a whole batch of request
//! lines, then read the same number of response lines
//! ([`SocketClient::call_batch`]).
//!
//! The accept loop is non-blocking and polls a shutdown flag, so
//! [`Daemon::shutdown`] stops the listener promptly without needing a
//! self-connection trick; in-flight connections finish their current
//! request and exit when the peer closes or the service drains.
//!
//! Lines are read with a fixed cap ([`MAX_REQUEST_LINE`] on the daemon,
//! [`MAX_RESPONSE_LINE`] in the client), never with an unbounded
//! `read_line`: a peer that sends a line past the cap gets a `wire`
//! error and the daemon closes the connection.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::error::Error;
use crate::queue::Priority;
use crate::request::{AnalysisRequest, AnalysisResponse};
use crate::service::Service;
use crate::wire::{
    decode_response_line, encode_request_line, encode_response_line, WireRequest, WireResponse,
};

const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Longest request line the daemon reads, in bytes, newline excluded.
/// A line that runs past it is answered with a `wire` error and the
/// connection is closed, so a peer can make the daemon buffer at most
/// this much of one line.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Longest response line a [`SocketClient`] reads, in bytes, newline
/// excluded. Wider than [`MAX_REQUEST_LINE`]: a response can outgrow
/// its request (a power sweep answers one value per requested power).
pub const MAX_RESPONSE_LINE: usize = 1 << 24;

/// Reads one `\n`-terminated line of at most `cap` bytes into `line`,
/// without its `\n` or `\r\n`; a last line without a newline is
/// returned as it is. Returns `false` at the end of the stream.
///
/// # Errors
///
/// [`Error::Wire`] when the line runs past `cap` bytes (at most
/// `cap + 1` are consumed) or is not UTF-8; [`Error::Io`] when the read
/// fails.
fn read_line_capped(
    reader: &mut impl BufRead,
    line: &mut String,
    cap: usize,
) -> Result<bool, Error> {
    let mut bytes = std::mem::take(line).into_bytes();
    bytes.clear();
    let read = reader
        .by_ref()
        .take(cap as u64 + 1)
        .read_until(b'\n', &mut bytes)?;
    if read == 0 {
        return Ok(false);
    }
    if bytes.last() == Some(&b'\n') {
        bytes.pop();
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
    } else if read > cap {
        return Err(Error::Wire {
            reason: format!("line exceeds the {cap}-byte limit"),
        });
    }
    *line = String::from_utf8(bytes).map_err(|_| Error::Wire {
        reason: "line is not valid UTF-8".to_string(),
    })?;
    Ok(true)
}

/// A running socket daemon bound to a local address.
pub struct Daemon {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Daemon {
    /// The address the daemon is listening on (use with
    /// [`SocketClient::connect`]; bind to port 0 to let the OS pick).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. Does not
    /// shut down the underlying [`Service`] — the owner does that.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(service: &Service, stream: TcpStream) -> Result<(), Error> {
    // The first line decides the protocol: the shard-worker magic
    // upgrades this connection to the binary frame protocol (the
    // connection thread *becomes* the shard worker); anything else is
    // the first line-JSON request.
    let mut writer_stream = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut read = read_line_capped(&mut reader, &mut line, MAX_REQUEST_LINE);
    match read {
        Ok(false) => return Ok(()),
        Ok(true) if line.trim_end() == crate::shard::SHARD_HELLO => {
            return crate::shard::run_worker(reader, writer_stream);
        }
        _ => {}
    }
    // Submit on the read side, resolve on the write side: every
    // pipelined line is queued *before* the first result is awaited,
    // which is what lets the service coalesce a batch arriving on one
    // connection. Responses still go out in request order.
    let (tx, rx) = std::sync::mpsc::channel::<(u64, crate::service::Ticket)>();
    let writer_thread = thread::Builder::new()
        .name("aeropack-serve-write".to_string())
        .spawn(move || -> Result<(), Error> {
            for (id, ticket) in rx {
                let response = WireResponse {
                    id,
                    result: ticket.wait(),
                };
                let mut out = encode_response_line(&response);
                out.push('\n');
                writer_stream.write_all(out.as_bytes())?;
                writer_stream.flush()?;
            }
            Ok(())
        })
        .map_err(|e| Error::Io {
            reason: e.to_string(),
        })?;
    let submit = |line: &str| -> Option<(u64, crate::service::Ticket)> {
        if line.trim().is_empty() {
            return None;
        }
        Some(match crate::wire::decode_request_line(line) {
            Ok(req) => {
                let deadline = req.deadline();
                let ticket = service.submit_with(req.request, req.priority, deadline);
                (req.id, ticket)
            }
            Err(e) => (0, crate::service::Ticket::ready(Err(e))),
        })
    };
    loop {
        match read {
            Ok(false) => break,
            Ok(true) => {
                if let Some(queued) = submit(&line) {
                    if tx.send(queued).is_err() {
                        break;
                    }
                }
            }
            Err(e) => {
                // An over-long or malformed line: answer it (after every
                // earlier response), then close the connection.
                let _ = tx.send((0, crate::service::Ticket::ready(Err(e))));
                break;
            }
        }
        read = read_line_capped(&mut reader, &mut line, MAX_REQUEST_LINE);
    }
    drop(tx);
    match writer_thread.join() {
        Ok(result) => result,
        Err(_) => Err(Error::Io {
            reason: "connection writer panicked".to_string(),
        }),
    }
}

/// Starts the TCP daemon for a shared service. `bind` is an address
/// like `"127.0.0.1:0"` (port 0 = OS-assigned, reported by
/// [`Daemon::addr`]).
pub fn serve(service: Arc<Service>, bind: &str) -> Result<Daemon, Error> {
    let listener = TcpListener::bind(bind)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let obs_sink = aeropack_obs::propagation_handle();
    let accept_thread = thread::Builder::new()
        .name("aeropack-serve-accept".to_string())
        .spawn(move || {
            while !stop_flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let service = Arc::clone(&service);
                        let sink = obs_sink.clone();
                        let _ = thread::Builder::new()
                            .name("aeropack-serve-conn".to_string())
                            .spawn(move || {
                                let _sink = sink.map(aeropack_obs::attach);
                                // Peer disconnects surface as Err; the
                                // connection just ends.
                                let _ = handle_connection(&service, stream);
                            });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => break,
                }
            }
        })
        .map_err(|e| Error::Io {
            reason: e.to_string(),
        })?;
    Ok(Daemon {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// A blocking client for the TCP daemon.
pub struct SocketClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl SocketClient {
    /// Connects to a daemon address (e.g. the value of
    /// [`Daemon::addr`]).
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self, Error> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    fn send(&mut self, req: &WireRequest) -> Result<(), Error> {
        let mut line = encode_request_line(req);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn receive(&mut self) -> Result<WireResponse, Error> {
        let mut line = String::new();
        if !read_line_capped(&mut self.reader, &mut line, MAX_RESPONSE_LINE)? {
            return Err(Error::Io {
                reason: "connection closed by daemon".to_string(),
            });
        }
        decode_response_line(line.trim_end())
    }

    /// One synchronous request/response exchange at normal priority.
    pub fn call(&mut self, request: AnalysisRequest) -> Result<AnalysisResponse, Error> {
        self.call_with(request, Priority::Normal, None)
    }

    /// One exchange with explicit priority and relative deadline.
    pub fn call_with(
        &mut self,
        request: AnalysisRequest,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> Result<AnalysisResponse, Error> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&WireRequest {
            id,
            priority,
            deadline_ms,
            request,
        })?;
        let resp = self.receive()?;
        if resp.id != id {
            return Err(Error::Wire {
                reason: format!("response id {} does not match request id {id}", resp.id),
            });
        }
        resp.result
    }

    /// Pipelines a batch: writes every request line, then reads the
    /// responses in order. This is what lets the daemon coalesce
    /// same-model requests — they are all queued before the first
    /// solve starts.
    pub fn call_batch(
        &mut self,
        requests: Vec<AnalysisRequest>,
    ) -> Result<Vec<Result<AnalysisResponse, Error>>, Error> {
        let first_id = self.next_id;
        for request in &requests {
            let id = self.next_id;
            self.next_id += 1;
            self.send(&WireRequest {
                id,
                priority: Priority::Normal,
                deadline_ms: None,
                request: request.clone(),
            })?;
        }
        let mut results = Vec::with_capacity(requests.len());
        for offset in 0..requests.len() {
            let resp = self.receive()?;
            let expect = first_id + offset as u64;
            if resp.id != expect {
                return Err(Error::Wire {
                    reason: format!("response id {} does not match request id {expect}", resp.id),
                });
            }
            results.push(resp.result);
        }
        Ok(results)
    }
}
