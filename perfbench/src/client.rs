//! A minimal HTTP/1.1 keep-alive client: renders requests, splits
//! pipelined responses off a byte buffer, and pulls the handful of
//! response fields the checks need.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Render a request with a `Content-Length` body.
pub fn render(method: &str, target: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A `{"input": ...}` or `{"patterns": [...]}`-style JSON body.
pub fn json_input(input: &[u8], patterns: Option<&[String]>) -> Vec<u8> {
    let text = String::from_utf8_lossy(input);
    let mut body = String::from("{");
    if let Some(patterns) = patterns {
        body.push_str(&format!("\"patterns\":{},", json_strings(patterns)));
    }
    body.push_str(&format!("\"input\":\"{}\"}}", cicero_telemetry::escape_json(&text)));
    body.into_bytes()
}

/// A JSON array of strings.
pub fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> =
        items.iter().map(|p| format!("\"{}\"", cicero_telemetry::escape_json(p))).collect();
    format!("[{}]", quoted.join(","))
}

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Raw head (status line and headers).
    pub head: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// The body as text.
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// A response header's value (names compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
        })
    }
}

/// Split one complete response off the front of `buf`, if one is there.
pub fn take_reply(buf: &mut Vec<u8>) -> Option<Reply> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = String::from_utf8_lossy(&buf[..end]).into_owned();
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let length: usize = head
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.trim().eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    if buf.len() < end + length {
        return None;
    }
    let body = buf[end..end + length].to_vec();
    buf.drain(..end + length);
    Some(Reply { status, head, body })
}

/// A keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle disabled, as a latency-sensitive client would.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(4096) })
    }

    /// Send raw request bytes.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Block until one complete response has arrived.
    pub fn recv(&mut self) -> io::Result<Reply> {
        loop {
            if let Some(reply) = take_reply(&mut self.buf) {
                return Ok(reply);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// Switch the socket between blocking and nonblocking mode.
    pub fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        self.stream.set_nonblocking(on)
    }

    /// Nonblocking mode: write what the socket takes from the front of
    /// `pending`; returns whether anything was written.
    pub fn write_some(&mut self, pending: &mut Vec<u8>) -> io::Result<bool> {
        match self.stream.write(pending) {
            Ok(n) => {
                pending.drain(..n);
                Ok(n > 0)
            }
            Err(e) if is_timeout(&e) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Nonblocking mode: read what has arrived; returns whether anything
    /// did.
    pub fn read_some(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e) if is_timeout(&e) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Take a buffered response without reading the socket.
    pub fn try_take(&mut self) -> Option<Reply> {
        take_reply(&mut self.buf)
    }

    /// One request, one response.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.send(request)?;
        self.recv()
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// The first `"key":<unsigned>` value in a JSON text.
pub fn field_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let digits: String = text[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The first `"key":"<string without escapes>"` value in a JSON text.
pub fn field_str<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let needle = format!("\"{key}\":\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    rest.split('"').next()
}

/// The first `"key":true|false` value in a JSON text.
pub fn field_bool(text: &str, key: &str) -> Option<bool> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Every `"key":<unsigned>` value in a JSON text, in order.
pub fn all_u64(text: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        match digits.parse() {
            Ok(v) => out.push(v),
            Err(_) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_replies_split_cleanly() {
        let mut buf = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}HTTP/1.1 404 Not Found\r\n\
                        Content-Length: 3\r\n\r\nabc"
            .to_vec();
        let first = take_reply(&mut buf).unwrap();
        assert_eq!((first.status, first.text()), (200, "{}"));
        assert_eq!(take_reply(&mut buf).unwrap().status, 404);
        assert!(buf.is_empty() && take_reply(&mut buf).is_none());
    }

    #[test]
    fn fields_are_extracted() {
        let text = r#"{"a":12,"m":true,"id":"live","rows":[{"c":1},{"c":0},{"c":7}]}"#;
        assert_eq!(field_u64(text, "a"), Some(12));
        assert_eq!(field_str(text, "id"), Some("live"));
        assert_eq!(field_bool(text, "m"), Some(true));
        assert_eq!(all_u64(text, "c"), vec![1, 0, 7]);
        assert_eq!(field_u64(text, "missing"), None);
    }
}
