//! A blocking binary-protocol client: one connection, one request in
//! flight (closed loop).

use std::io::Write;
use std::net::{SocketAddr, TcpStream};

use two4one_net::wire::{self, Frame, WireError};

pub struct Client {
    stream: TcpStream,
}

/// Largest response the client accepts (object images are a few KB).
const MAX_RESPONSE: usize = 16 << 20;

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Client { stream })
    }

    pub fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one response frame; an error frame becomes `Err`.
    pub fn recv(&mut self) -> Result<Frame, String> {
        let frame = wire::read_frame(&mut self.stream, MAX_RESPONSE)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("server closed the connection")?;
        if frame.ftype == wire::RESP_ERROR {
            return Err(match WireError::decode(&frame.payload) {
                Ok(e) => format!("server error {}: {}", e.code, e.message),
                Err(e) => format!("undecodable error frame: {e}"),
            });
        }
        Ok(frame)
    }

    /// Sends `frame` and waits for a response of type `want`.
    pub fn call(&mut self, frame: &[u8], want: u8) -> Result<Frame, String> {
        self.send(frame)?;
        let f = self.recv()?;
        if f.ftype != want {
            return Err(format!(
                "unexpected response type {:#x} (wanted {want:#x})",
                f.ftype
            ));
        }
        Ok(f)
    }

    /// Asks for a program no one registered and waits for the refusal: a
    /// round trip through the request handler (framing, request decode,
    /// admission, registry lookup, error response) without a service
    /// step.
    pub fn refused(&mut self) -> Result<(), String> {
        let request = wire::SpecWireRequest {
            token: String::new(),
            name: String::new(),
            statics: String::new(),
            deadline_ms: 0,
            want: wire::WANT_OBJECT,
        };
        self.send(&wire::encode_frame(wire::REQ_SPEC, &request.encode()))?;
        let frame = wire::read_frame(&mut self.stream, MAX_RESPONSE)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("server closed the connection")?;
        if frame.ftype != wire::RESP_ERROR {
            return Err(format!(
                "unexpected response type {:#x} to a request for no program",
                frame.ftype
            ));
        }
        Ok(())
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.call(&wire::encode_frame(wire::REQ_PING, &[]), wire::RESP_PONG)
            .map(|_| ())
    }
}
