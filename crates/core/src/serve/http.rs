//! A deliberately small HTTP/1.1 layer for the job API.
//!
//! `std::net` only — no external dependencies — and only the subset the
//! API needs: `GET`/`POST`, a `Content-Length`-framed body, and two
//! response shapes (a framed JSON document, or an unframed NDJSON stream
//! that ends when the connection closes). Every response carries
//! `Connection: close`; keep-alive buys nothing for a job API whose
//! requests are seconds apart and costs a state machine.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use crate::error::AppError;

/// Largest accepted request body (inline `.bench` netlists are the big
/// case; the largest ISCAS85 profile is well under 1 MiB of text).
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Largest accepted request line + headers.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed request: method, path and (possibly empty) body.
#[derive(Debug)]
pub struct Request {
    /// `GET` / `POST` (anything else is rejected at parse time).
    pub method: String,
    /// The request target, query string stripped.
    pub path: String,
    /// The body, UTF-8 decoded.
    pub body: String,
}

/// Reads and parses one request from the stream.
///
/// # Errors
///
/// Any framing violation — unknown method, oversized head or body,
/// non-UTF-8 body, missing `Content-Length` on a non-empty body — comes
/// back as a usage-class [`AppError`], which the caller renders as a
/// `400` with the standard error body.
pub fn read_request(stream: &mut BufReader<TcpStream>) -> Result<Request, AppError> {
    let mut line = String::new();
    read_head_line(stream, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if !matches!(method.as_str(), "GET" | "POST") {
        return Err(AppError::usage(format!(
            "unsupported method `{method}` (supported: GET, POST)"
        )));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(AppError::usage(format!("unsupported protocol `{version}`")));
    }
    let mut content_length = 0usize;
    let mut head_bytes = line.len();
    loop {
        line.clear();
        read_head_line(stream, &mut line)?;
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(AppError::usage("request headers too large"));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| AppError::usage("invalid Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(AppError::usage(format!(
            "request body larger than {MAX_BODY_BYTES} bytes"
        )));
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| AppError::usage(format!("truncated request body: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| AppError::usage("request body is not UTF-8"))?;
    let path = target
        .split_once('?')
        .map_or(target.as_str(), |(p, _)| p)
        .to_string();
    Ok(Request { method, path, body })
}

fn read_head_line(stream: &mut BufReader<TcpStream>, line: &mut String) -> Result<(), AppError> {
    match stream.read_line(line) {
        Ok(0) => Err(AppError::usage("connection closed mid-request")),
        Ok(_) => Ok(()),
        Err(e) => Err(AppError::usage(format!("unreadable request: {e}"))),
    }
}

/// Writes a framed response: status line, standard headers, JSON body.
pub fn write_response(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    // A client that hung up mid-exchange is its own problem; the daemon
    // just moves on, so write errors are deliberately discarded.
    // One buffer, one write: `write!` on a bare socket sends once per
    // format piece.
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Writes an error response with the same structured body the CLI prints
/// on stderr (`{"error":{"kind":...,"message":...}}`).
pub fn write_error(stream: &mut TcpStream, err: &AppError) {
    let (status, reason) = err.kind.http_status();
    write_response(stream, status, reason, &err.to_json_body());
}

/// Starts an unframed NDJSON stream: status line and headers only; the
/// caller writes newline-terminated JSON documents directly to the stream
/// and signals the end by closing the connection.
///
/// # Errors
///
/// Propagates the write error (the client hung up before the stream
/// started).
pub fn start_ndjson_stream(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\n\
          Content-Type: application/x-ndjson\r\n\
          Connection: close\r\n\r\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pipe() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
        let addr = listener.local_addr().expect("bound address known");
        let client = TcpStream::connect(addr).expect("loopback connects");
        let (server, _) = listener.accept().expect("accepts");
        (client, server)
    }

    #[test]
    fn parses_a_post_with_body() {
        let (mut client, server) = pipe();
        client
            .write_all(b"POST /jobs?x=1 HTTP/1.1\r\nHost: x\r\ncontent-length: 4\r\n\r\n{\"a\"")
            .expect("request writes");
        let req = read_request(&mut BufReader::new(server)).expect("well-formed request parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "{\"a\"");
    }

    #[test]
    fn rejects_unknown_methods_and_truncated_bodies() {
        let (mut client, server) = pipe();
        client
            .write_all(b"DELETE /jobs HTTP/1.1\r\n\r\n")
            .expect("request writes");
        let err = read_request(&mut BufReader::new(server)).expect_err("DELETE rejected");
        assert!(err.to_string().contains("DELETE"));

        let (mut client, server) = pipe();
        client
            .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nab")
            .expect("request writes");
        drop(client);
        assert!(read_request(&mut BufReader::new(server)).is_err());
    }

    #[test]
    fn framed_response_roundtrips() {
        let (client, mut server) = pipe();
        write_response(&mut server, 429, "Too Many Requests", "{\"x\":1}");
        drop(server);
        let mut text = String::new();
        BufReader::new(client)
            .read_to_string(&mut text)
            .expect("response reads");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("{\"x\":1}"));
    }
}
