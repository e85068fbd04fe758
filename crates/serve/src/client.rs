//! A minimal blocking HTTP/1.1 client over `std::net` — just enough for
//! the daemon's own tests, the report-equivalence matrix and the load
//! harnesses (`exp_serve`, `perfbench`) to talk to a running
//! [`Daemon`](crate::Daemon) without any external dependency.
//!
//! One request per connection (the server speaks `Connection: close`), so
//! a [`Reply`] is complete once the socket reaches EOF.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// The body as UTF-8 text (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Parse the body's first line as JSON (the daemon's JSON responses
    /// are single-line; `/v1/events` leads with a JSON header line).
    #[must_use]
    pub fn json(&self) -> Option<ion_obs::json::Json> {
        let text = self.text();
        ion_obs::json::parse(text.lines().next()?.trim()).ok()
    }
}

/// Issue one request and read the full response.
///
/// # Errors
///
/// Propagates connect/read/write errors; a malformed status line is
/// reported as [`io::ErrorKind::InvalidData`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: ion-serve\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

/// `GET path`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Reply> {
    request(addr, "GET", path, &[], &[])
}

/// `POST path` with a body and optional extra headers.
///
/// # Errors
///
/// See [`request`].
pub fn post(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Reply> {
    request(addr, "POST", path, headers, body)
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

fn parse_reply(raw: &[u8]) -> io::Result<Reply> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator in response"))?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    Ok(Reply {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_headers_and_body() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\nContent-Type: application/json\r\n\r\n{\"error\":\"full\"}";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.status, 429);
        assert_eq!(reply.header("retry-after"), Some("2"));
        assert_eq!(reply.header("Retry-After"), Some("2"));
        assert_eq!(
            reply.json().unwrap().get("error").unwrap().as_str(),
            Some("full")
        );
    }

    #[test]
    fn missing_terminator_is_invalid_data() {
        let err = parse_reply(b"HTTP/1.1 200 OK\r\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
