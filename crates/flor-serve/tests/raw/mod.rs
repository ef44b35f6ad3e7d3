//! A served session spoken by hand, shared by the integration tests that
//! compare what crossed the wire byte for byte.

use flor_serve::protocol::{read_frame, write_frame};
use flor_serve::{Request, Response, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION};
use flor_view::QueryPlan;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};

/// A session speaking the protocol by hand, so a test sees each answer's
/// payload as it crossed the wire (its checksum checked by `read_frame`),
/// not a decoded and re-encoded frame.
pub struct RawSession {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The epoch the session is pinned at.
    pub epoch: u64,
}

impl RawSession {
    /// Connect and say hello; the session is pinned at [`RawSession::epoch`].
    pub fn connect(addr: SocketAddr) -> RawSession {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut session = RawSession {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: BufWriter::new(stream),
            epoch: 0,
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            token: None,
        };
        match Response::decode(session.call(&hello)).expect("hello") {
            Response::HelloOk { epoch, .. } => session.epoch = epoch,
            other => panic!("refused: {other:?}"),
        }
        session
    }

    /// The payload answering `req`.
    fn call(&mut self, req: &Request) -> Vec<u8> {
        write_frame(&mut self.writer, &req.encode()).expect("send");
        read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES).expect("answer")
    }

    /// The payload answering `plan`.
    pub fn query(&mut self, plan: &QueryPlan) -> Vec<u8> {
        self.call(&Request::Query { plan: plan.clone() })
    }

    /// Re-pin the session at the server's newest epoch.
    #[allow(dead_code)] // not every test crate re-pins
    pub fn pin(&mut self) -> u64 {
        match Response::decode(self.call(&Request::Pin)).expect("pin") {
            Response::Pinned { epoch } => {
                self.epoch = epoch;
                epoch
            }
            other => panic!("not pinned: {other:?}"),
        }
    }
}
