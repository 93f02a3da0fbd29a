//! IPC connections.
//!
//! A connection links a client to a server thread through a Port. The
//! *data-transfer* state lives in the two threads' registers (pointer and
//! count, advanced in place); the connection records only the linkage and
//! message framing — and, for kernel-originated exception IPC, the
//! kernel-side message buffer.

use fluke_arch::cost::Cycles;

use crate::ids::{ObjId, ThreadId};

/// The client end of a connection.
#[derive(Debug)]
pub enum ClientEnd {
    /// An ordinary user thread.
    Thread(ThreadId),
    /// The kernel itself: an exception IPC (e.g. a page fault delivered to
    /// a region keeper). Carries the message bytes and delivery progress.
    Kernel(KernelMsg),
}

/// A kernel-originated message (exception IPC).
#[derive(Debug)]
pub struct KernelMsg {
    /// Message bytes (little-endian words, see `fluke_api::abi`).
    pub bytes: Vec<u8>,
    /// Delivery progress into `bytes`.
    pub pos: usize,
    /// The faulting thread to wake when the keeper replies or disconnects.
    pub fault_thread: ThreadId,
    /// Simulated time the fault was raised (for Table 3 remedy accounting).
    pub raised_at: Cycles,
    /// Index into `Stats::fault_records`.
    pub record: usize,
    /// Bytes of the keeper's reply consumed by the kernel sink.
    pub reply: Vec<u8>,
}

/// Transfer direction over a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Client sends, server receives.
    ClientToServer,
    /// Server sends, client receives.
    ServerToClient,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::ClientToServer => Dir::ServerToClient,
            Dir::ServerToClient => Dir::ClientToServer,
        }
    }
}

/// An IPC connection.
#[derive(Debug)]
pub struct Connection {
    /// Client end.
    pub client: ClientEnd,
    /// Server thread once accepted.
    pub server: Option<ThreadId>,
    /// The port the connection came in through.
    pub port: ObjId,
    /// Whether a client→server message is in progress.
    pub open_c2s: bool,
    /// Whether a server→client message is in progress.
    pub open_s2c: bool,
    /// Pending alert flags (consumed by the next IPC operation).
    pub alert_client: bool,
    /// Pending alert aimed at the server.
    pub alert_server: bool,
}

impl Connection {
    /// New unaccepted connection from a user client.
    pub fn from_thread(client: ThreadId, port: ObjId) -> Self {
        Connection {
            client: ClientEnd::Thread(client),
            server: None,
            port,
            open_c2s: false,
            open_s2c: false,
            alert_client: false,
            alert_server: false,
        }
    }

    /// New kernel exception connection.
    pub fn from_kernel(msg: KernelMsg, port: ObjId) -> Self {
        Connection {
            client: ClientEnd::Kernel(msg),
            server: None,
            port,
            open_c2s: true, // the fault message is ready to deliver
            open_s2c: false,
            alert_client: false,
            alert_server: false,
        }
    }

    /// The client thread, if the client is a user thread.
    pub fn client_thread(&self) -> Option<ThreadId> {
        match &self.client {
            ClientEnd::Thread(t) => Some(*t),
            ClientEnd::Kernel(_) => None,
        }
    }

    /// Whether the client end is the kernel.
    pub fn is_kernel_client(&self) -> bool {
        matches!(self.client, ClientEnd::Kernel(_))
    }

    /// Whether a message is open in the given direction.
    pub fn open(&self, dir: Dir) -> bool {
        match dir {
            Dir::ClientToServer => self.open_c2s,
            Dir::ServerToClient => self.open_s2c,
        }
    }

    /// Set the message-open flag for a direction.
    pub fn set_open(&mut self, dir: Dir, v: bool) {
        match dir {
            Dir::ClientToServer => self.open_c2s = v,
            Dir::ServerToClient => self.open_s2c = v,
        }
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{snap_enum, snap_struct};

snap_struct!(KernelMsg {
    bytes,
    pos,
    fault_thread,
    raised_at,
    record,
    reply,
});

snap_enum!(ClientEnd {
    0 => Thread(t),
    1 => Kernel(m),
});

snap_struct!(Connection {
    client,
    server,
    port,
    open_c2s,
    open_s2c,
    alert_client,
    alert_server,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_client_accessors() {
        let c = Connection::from_thread(ThreadId(4), ObjId(9));
        assert_eq!(c.client_thread(), Some(ThreadId(4)));
        assert!(!c.is_kernel_client());
        assert!(!c.open(Dir::ClientToServer));
    }

    #[test]
    fn kernel_client_starts_with_open_message() {
        let msg = KernelMsg {
            bytes: vec![1, 2, 3, 4],
            pos: 0,
            fault_thread: ThreadId(7),
            raised_at: 0,
            record: 0,
            reply: Vec::new(),
        };
        let c = Connection::from_kernel(msg, ObjId(1));
        assert!(c.is_kernel_client());
        assert_eq!(c.client_thread(), None);
        assert!(c.open(Dir::ClientToServer));
    }

    #[test]
    fn open_flags_by_direction() {
        let mut c = Connection::from_thread(ThreadId(0), ObjId(0));
        c.set_open(Dir::ServerToClient, true);
        assert!(c.open(Dir::ServerToClient));
        assert!(!c.open(Dir::ClientToServer));
        assert_eq!(Dir::ClientToServer.flip(), Dir::ServerToClient);
    }
}
